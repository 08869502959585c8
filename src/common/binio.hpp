// Little-endian binary codec: the one field reader and writer behind
// every format that crosses a process boundary — WCSI traces
// (csi/trace_io, and the tailer that follows a growing one), wimi.model
// files (serve/model_io) and WSRQ/WSRP records (serve/wire).
//
// Every multi-byte field is little-endian; a double travels as the
// little-endian bytes of its IEEE-754 bit pattern. Each format keeps its
// own framing. This file knows only fields, byte regions and the CRC-32
// trailer convention: a u32 CRC-32 (common/crc32) over all bytes of the
// record before it.
//
// ByteCursor checks the remaining bytes before every read, and before
// any allocation a length or count field asks for. Truncated or lying
// input therefore becomes a wimi::Error carrying the caller's prefix
// ("read_trace:", "load_model:", "wire:"), never an out-of-bounds read
// or a huge allocation.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace wimi::binio {

/// Byte-order marker the checksummed formats carry in their header. Its
/// bytes on disk are 04 03 02 01; a reader that decodes anything else
/// is looking at a foreign or byte-swapped file.
inline constexpr std::uint32_t kByteOrderMarker = 0x01020304u;

/// The u32 whose little-endian bytes spell the four characters at
/// `tag` — a format's magic, e.g. fourcc("WCSI").
constexpr std::uint32_t fourcc(const char* tag) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
        v = (v << 8) | static_cast<unsigned char>(tag[i]);
    }
    return v;
}

/// True when `record` ends with a u32 CRC-32 of all the bytes before it.
/// False for a record too short to hold the trailer.
bool crc_trailer_ok(std::span<const unsigned char> record) noexcept;

/// Appends little-endian fields to a caller-owned buffer.
class ByteWriter {
public:
    explicit ByteWriter(std::vector<unsigned char>& out) : out_(out) {}

    void u8(std::uint8_t v) { out_.push_back(v); }
    void u32(std::uint32_t v) { put(v, 4); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void u64(std::uint64_t v) { put(v, 8); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void bytes(const void* data, std::size_t size) {
        const auto* p = static_cast<const unsigned char*>(data);
        out_.insert(out_.end(), p, p + size);
    }

    /// Bytes in the buffer so far; a mark for crc32_since().
    std::size_t size() const { return out_.size(); }

    /// Appends the u32 CRC-32 of the bytes written since `mark`.
    void crc32_since(std::size_t mark);

private:
    void put(std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            out_.push_back(static_cast<unsigned char>(v >> (8 * i)));
        }
    }

    std::vector<unsigned char>& out_;
};

/// Bounds-checked little-endian reader over a byte region it does not
/// own. Every getter checks the remaining bytes first and throws
/// wimi::Error "<prefix> record truncated reading <what>" when they run
/// out.
class ByteCursor {
public:
    ByteCursor() = default;
    ByteCursor(std::span<const unsigned char> bytes, const char* prefix)
        : data_(bytes.data()), size_(bytes.size()), prefix_(prefix) {}

    std::size_t remaining() const { return size_ - pos_; }
    bool exhausted() const { return pos_ == size_; }

    std::uint8_t get_u8() {
        need(1, "u8");
        return data_[pos_++];
    }
    std::uint32_t get_u32() {
        need(4, "u32");
        return static_cast<std::uint32_t>(load(4));
    }
    std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
    std::uint64_t get_u64() {
        need(8, "u64");
        return load(8);
    }
    double get_f64() { return std::bit_cast<double>(get_u64()); }

    /// Fills `out` with consecutive doubles, checking the bytes once.
    void get_f64s(std::span<double> out) {
        need(8 * static_cast<std::uint64_t>(out.size()), "f64 array");
        for (double& v : out) {
            v = std::bit_cast<double>(load(8));
        }
    }

    /// `count` doubles as a new vector. The count is checked against the
    /// remaining bytes before anything is reserved, so a lying count
    /// cannot drive an allocation past the region.
    std::vector<double> get_f64_array(std::uint64_t count, const char* what);

    /// The next `bytes` bytes as a string (checked before it allocates).
    std::string get_string(std::uint64_t bytes, const char* what);

    /// A cursor over the next `bytes` bytes; this one moves past them.
    ByteCursor take(std::uint64_t bytes, const char* what);

private:
    void need(std::uint64_t bytes, const char* what) const {
        if (bytes > size_ - pos_) [[unlikely]] {
            truncated(what);
        }
    }
    [[noreturn]] void truncated(const char* what) const;

    /// Little-endian load of `bytes` (<= 8) unchecked bytes at pos_. A
    /// plain copy: GCC 12 leaves a shift-and-or loop as one byte load
    /// per byte, and every supported host is little-endian.
    std::uint64_t load(int bytes) {
        static_assert(std::endian::native == std::endian::little,
                      "binio decodes by copying little-endian bytes");
        std::uint64_t v = 0;
        std::memcpy(&v, data_ + pos_, static_cast<std::size_t>(bytes));
        pos_ += static_cast<std::size_t>(bytes);
        return v;
    }

    const unsigned char* data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t pos_ = 0;
    const char* prefix_ = "";
};

}  // namespace wimi::binio
