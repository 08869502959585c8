// Tests for the CRC-32 implementation backing WCSI v2 integrity checks.
#include "common/crc32.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace wimi {
namespace {

// Table-free CRC-32/ISO-HDLC, one bit at a time: the oracle for the
// sliced implementation.
std::uint32_t bitwise_crc32(const unsigned char* data, std::size_t size) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= data[i];
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
        }
    }
    return crc ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> pattern_bytes(std::size_t size) {
    std::vector<unsigned char> bytes(size);
    std::uint32_t x = 0x9E3779B9u;
    for (auto& b : bytes) {
        x = x * 1664525u + 1013904223u;
        b = static_cast<unsigned char>(x >> 24);
    }
    return bytes;
}

TEST(Crc32, MatchesKnownVectors) {
    // The canonical check value of CRC-32/ISO-HDLC and zlib's crc32().
    const char* check = "123456789";
    EXPECT_EQ(crc32(check, std::strlen(check)), 0xCBF43926u);
    // zlib.crc32(b"WCSI") == 0x9BD42C3D.
    EXPECT_EQ(crc32("WCSI", 4), 0x9BD42C3Du);
}

TEST(Crc32, EmptyInputIsZero) {
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
    // Every length 0..300 at every start offset 0..7 covers the 8-byte
    // body, each 0-7 byte tail and unaligned word loads.
    const std::vector<unsigned char> bytes = pattern_bytes(300 + 8);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t size = 0; size <= 300; ++size) {
            ASSERT_EQ(crc32(bytes.data() + offset, size),
                      bitwise_crc32(bytes.data() + offset, size))
                << "offset=" << offset << " size=" << size;
        }
    }
    // One WCSI v2 frame record at 3 antennas x 30 subcarriers.
    const std::vector<unsigned char> record = pattern_bytes(1460);
    EXPECT_EQ(crc32(record.data(), record.size()),
              bitwise_crc32(record.data(), record.size()));
}

TEST(Crc32, SingleBitChangeAlwaysDetected) {
    unsigned char block[64];
    for (std::size_t i = 0; i < sizeof(block); ++i) {
        block[i] = static_cast<unsigned char>(i * 37 + 11);
    }
    const std::uint32_t reference = crc32(block, sizeof(block));
    for (std::size_t bit = 0; bit < 8 * sizeof(block); ++bit) {
        block[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
        EXPECT_NE(crc32(block, sizeof(block)), reference)
            << "bit=" << bit;
        block[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    }
}

}  // namespace
}  // namespace wimi
