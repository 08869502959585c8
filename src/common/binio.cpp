#include "common/binio.hpp"

#include "common/crc32.hpp"
#include "common/error.hpp"

namespace wimi::binio {

bool crc_trailer_ok(std::span<const unsigned char> record) noexcept {
    if (record.size() < 4) {
        return false;
    }
    const std::size_t payload = record.size() - 4;
    std::uint32_t stored = 0;
    for (int i = 3; i >= 0; --i) {
        stored = (stored << 8) | record[payload + static_cast<std::size_t>(i)];
    }
    return stored == crc32(record.data(), payload);
}

void ByteWriter::crc32_since(std::size_t mark) {
    u32(crc32(out_.data() + mark, out_.size() - mark));
}

std::vector<double> ByteCursor::get_f64_array(std::uint64_t count,
                                              const char* what) {
    if (count > remaining() / 8) {
        truncated(what);
    }
    std::vector<double> out(static_cast<std::size_t>(count));
    get_f64s(out);
    return out;
}

std::string ByteCursor::get_string(std::uint64_t bytes, const char* what) {
    need(bytes, what);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(bytes));
    pos_ += static_cast<std::size_t>(bytes);
    return s;
}

ByteCursor ByteCursor::take(std::uint64_t bytes, const char* what) {
    need(bytes, what);
    ByteCursor sub({data_ + pos_, static_cast<std::size_t>(bytes)}, prefix_);
    pos_ += static_cast<std::size_t>(bytes);
    return sub;
}

void ByteCursor::truncated(const char* what) const {
    fail(std::string(prefix_) + " record truncated reading " + what);
}

}  // namespace wimi::binio
