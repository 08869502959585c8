// Fault-injection helpers for the WCSI trace corpus tests.
//
// Serializes a series to raw bytes, then mutates those bytes the way real
// storage fails: truncation at arbitrary offsets, single bit flips, torn
// writes with stale tail data, lying headers, and CRC-valid non-finite
// payloads (a writer that serialized garbage). Patch helpers recompute
// the v2 checksums where the fault model calls for internally-consistent
// corruption; plain flips leave them stale so the reader must catch them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "csi/trace_io.hpp"

namespace wimi::csi::fault {

// Byte offsets of the on-disk layout (see trace_io.hpp).
inline constexpr std::size_t kHeaderBytesV1 = 24;
inline constexpr std::size_t kHeaderBytesV2 = 32;

inline std::size_t header_bytes(std::uint32_t version) {
    return version == kTraceVersion2 ? kHeaderBytesV2 : kHeaderBytesV1;
}

/// Frame record size on disk for the given dimensions.
inline std::size_t record_bytes(std::uint32_t version,
                                std::size_t antennas,
                                std::size_t subcarriers) {
    return 16 + antennas * subcarriers * 16 +
           (version == kTraceVersion2 ? 4 : 0);
}

/// Serializes `series` at `version` to its exact on-disk bytes.
inline std::string serialize(const CsiSeries& series,
                             std::uint32_t version) {
    std::stringstream buffer;
    write_trace(buffer, series, {version});
    return buffer.str();
}

/// read_trace over in-memory bytes.
inline CsiSeries read_bytes(const std::string& bytes,
                            const TraceReadOptions& options = {},
                            TraceReadReport* report = nullptr) {
    std::istringstream stream(bytes);
    return read_trace(stream, options, report);
}

/// Keeps only the first `size` bytes.
inline std::string truncate_at(std::string bytes, std::size_t size) {
    bytes.resize(std::min(size, bytes.size()));
    return bytes;
}

/// Flips one bit. `bit_index` ranges over [0, 8 * bytes.size()).
inline std::string flip_bit(std::string bytes, std::size_t bit_index) {
    bytes[bit_index / 8] = static_cast<char>(
        static_cast<unsigned char>(bytes[bit_index / 8]) ^
        (1u << (bit_index % 8)));
    return bytes;
}

/// Torn write: the first `keep` bytes landed, the rest of the file is
/// `garbage` bytes of stale sector content (seeded, deterministic).
inline std::string torn_write(const std::string& bytes, std::size_t keep,
                              std::size_t garbage, std::uint64_t seed) {
    std::string out = bytes.substr(0, std::min(keep, bytes.size()));
    Rng rng(seed);
    for (std::size_t i = 0; i < garbage; ++i) {
        out.push_back(static_cast<char>(rng.next_u64() & 0xFFu));
    }
    return out;
}

namespace detail {

inline void put_u32_le(std::string& bytes, std::size_t offset,
                       std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
        bytes[offset + static_cast<std::size_t>(i)] =
            static_cast<char>((v >> (8 * i)) & 0xFFu);
    }
}

inline void put_u64_le(std::string& bytes, std::size_t offset,
                       std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        bytes[offset + static_cast<std::size_t>(i)] =
            static_cast<char>((v >> (8 * i)) & 0xFFu);
    }
}

inline std::uint32_t version_of(const std::string& bytes) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
        v = (v << 8) |
            static_cast<unsigned char>(bytes[4 + static_cast<size_t>(i)]);
    }
    return v;
}

/// Restamps the v2 header CRC (bytes [0,28) -> offset 28). No-op on v1.
inline void fix_header_crc(std::string& bytes) {
    if (version_of(bytes) == kTraceVersion2) {
        put_u32_le(bytes, 28, crc32(bytes.data(), 28));
    }
}

}  // namespace detail

/// Rewrites the header's frame_count to `claimed`, keeping the header
/// internally consistent (v2 CRC restamped) — the oversized/lying-header
/// fault, which plain CRC checking cannot catch.
inline std::string patch_frame_count(std::string bytes,
                                     std::uint64_t claimed) {
    const std::uint32_t version = detail::version_of(bytes);
    detail::put_u64_le(bytes,
                       version == kTraceVersion2 ? 20 : 16, claimed);
    detail::fix_header_crc(bytes);
    return bytes;
}

/// Rewrites the header's antenna and subcarrier counts, keeping the
/// header internally consistent (v2 CRC restamped) — a lying header
/// that declares far more cells than the file holds.
inline std::string patch_dimensions(std::string bytes,
                                    std::uint32_t antennas,
                                    std::uint32_t subcarriers) {
    const std::size_t offset =
        detail::version_of(bytes) == kTraceVersion2 ? 12 : 8;
    detail::put_u32_le(bytes, offset, antennas);
    detail::put_u32_le(bytes, offset + 4, subcarriers);
    detail::fix_header_crc(bytes);
    return bytes;
}

/// Overwrites the `double_index`-th payload double of frame
/// `frame_index` (0 = timestamp, 1 = RSSI, 2.. = re/im components) with
/// `value`, restamping the frame CRC for v2 — models a writer that
/// serialized garbage, so the corruption is checksum-consistent and only
/// the finite-values check can catch it.
inline std::string patch_payload_double(std::string bytes,
                                        std::size_t frame_index,
                                        std::size_t double_index,
                                        double value) {
    const std::uint32_t version = detail::version_of(bytes);
    TraceReadReport report;
    read_bytes(bytes, {ReadPolicy::kSkipCorrupt}, &report);
    const std::size_t record =
        record_bytes(version, report.antenna_count,
                     report.subcarrier_count);
    const std::size_t frame_off =
        header_bytes(version) + frame_index * record;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    detail::put_u64_le(bytes, frame_off + 8 * double_index, bits);
    if (version == kTraceVersion2) {
        const std::size_t payload = record - 4;
        detail::put_u32_le(
            bytes, frame_off + payload,
            crc32(bytes.data() + frame_off, payload));
    }
    return bytes;
}

}  // namespace wimi::csi::fault
