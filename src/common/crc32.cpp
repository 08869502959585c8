#include "common/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace wimi {
namespace {

constexpr std::uint32_t kPolynomial = 0xEDB88320u;

using Table = std::array<std::uint32_t, 256>;

// kTables[0] advances the state by one byte; kTables[k][b] is the CRC
// contribution of byte b followed by k zero bytes, so eight lookups
// advance the state by eight bytes at once.
constexpr std::array<Table, 8> make_tables() {
    std::array<Table, 8> tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit) {
            c = (c & 1u) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
        }
        tables[0][i] = c;
    }
    for (std::size_t k = 1; k < tables.size(); ++k) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
        }
    }
    return tables;
}

constexpr std::array<Table, 8> kTables = make_tables();

std::uint32_t advance(std::uint32_t state, const unsigned char* bytes,
                      std::size_t size) noexcept {
    static_assert(std::endian::native == std::endian::little,
                  "slicing-by-8 loads the input as little-endian words");
    for (; size >= 8; bytes += 8, size -= 8) {
        std::uint32_t lo = 0;
        std::uint32_t hi = 0;
        std::memcpy(&lo, bytes, 4);
        std::memcpy(&hi, bytes + 4, 4);
        lo ^= state;
        state = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
                kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
                kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
                kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
    for (std::size_t i = 0; i < size; ++i) {
        state = kTables[0][(state ^ bytes[i]) & 0xFFu] ^ (state >> 8);
    }
    return state;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) noexcept {
    return advance(0xFFFFFFFFu, static_cast<const unsigned char*>(data),
                   size) ^
           0xFFFFFFFFu;
}

}  // namespace wimi
