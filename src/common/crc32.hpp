// CRC-32 (IEEE 802.3 / zlib polynomial 0xEDB88320).
//
// Integrity checksum for the WCSI v2 trace format, wimi.model files and
// the WSRQ/WSRP wire: every header and record carries a CRC so a flipped
// bit or torn write is detected at read time instead of propagating
// garbage into the pipeline. The value matches zlib's crc32() and
// `python -c "import zlib; zlib.crc32(b'...')"` so traces can be checked
// by external tooling.
//
// Slicing-by-8: eight 256-entry tables (8 KB) fold eight input bytes per
// step, and the last 0-7 bytes go one at a time. Every WCSI frame record
// is checked on read, so the CRC is on the decode path of every identify,
// tailed frame and served request. Measured on a 4-core host (stock SSE2
// Release build), one 1460-byte record (3 antennas x 30 subcarriers)
// costs about 1 us, against 4.7-5.2 us for the byte-at-a-time loop.
#pragma once

#include <cstddef>
#include <cstdint>

namespace wimi {

/// One-shot CRC-32 of `size` bytes at `data` (initial value 0, standard
/// reflected polynomial, final XOR — identical to zlib's crc32()).
std::uint32_t crc32(const void* data, std::size_t size) noexcept;

}  // namespace wimi
