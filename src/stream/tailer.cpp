#include "stream/tailer.hpp"

#include <chrono>
#include <system_error>
#include <thread>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace wimi::stream {
namespace {

// The tailer addresses records by offset in a file whose tail is still
// being written: TraceReader's sequential istream model ends at EOF,
// which for a growing file is not the end. The header check and the
// record decoding are csi::check_trace_header and
// csi::decode_frame_record, the same ones TraceReader runs.
constexpr std::size_t kHeaderBytes = csi::kTraceHeaderBytesV2;

}  // namespace

TraceTailer::TraceTailer(std::filesystem::path path, TailerConfig config)
    : path_(std::move(path)), config_(config) {}

bool TraceTailer::try_read_header() {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path_, ec);
    if (ec || size < kHeaderBytes) {
        return false;  // not created / header not landed yet
    }
    stream_.open(path_, std::ios::binary);
    if (!stream_.is_open()) {
        return false;
    }
    unsigned char bytes[kHeaderBytes];
    stream_.read(reinterpret_cast<char*>(bytes), kHeaderBytes);
    if (!stream_) {
        stream_.close();
        return false;
    }

    // Stricter than TraceReader: only v2 has the per-record CRC the
    // torn-tail rule needs, and a header with no cells gives no record
    // size to follow, even when it declares 0 frames.
    csi::TraceHeader header;
    const bool usable =
        csi::check_trace_header(bytes, header) == csi::HeaderCheck::kOk &&
        header.version == csi::kTraceVersion2 &&
        header.antenna_count >= 1 && header.subcarrier_count >= 1;
    if (!usable) {
        stream_.close();
        if (config_.policy == csi::ReadPolicy::kStrict) {
            fail("TraceTailer: " + path_.string() +
                 " is not a valid WCSI v2 trace");
        }
        WIMI_OBS_LOG_WARN("stream.tailer", "unusable trace header",
                          ::wimi::obs::kv("path", path_.string()));
        stopped_ = true;
        return false;
    }

    header_ = header;
    buffer_.resize(header_.record_bytes());
    header_seen_ = true;
    WIMI_OBS_LOG_DEBUG("stream.tailer", "following trace",
                       ::wimi::obs::kv("path", path_.string()),
                       ::wimi::obs::kv("antennas", antenna_count()),
                       ::wimi::obs::kv("subcarriers", subcarrier_count()));
    return true;
}

TraceTailer::Pull TraceTailer::pull_one(csi::CsiFrame& out) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path_, ec);
    if (ec || size < kHeaderBytes) {
        return Pull::kNothing;
    }
    const std::uint64_t complete = (size - kHeaderBytes) / buffer_.size();
    if (consumed_ >= complete) {
        return Pull::kNothing;
    }

    stream_.clear();  // a previous poll may have tripped eof
    stream_.seekg(static_cast<std::streamoff>(
        kHeaderBytes + consumed_ * buffer_.size()));
    stream_.read(reinterpret_cast<char*>(buffer_.data()),
                 static_cast<std::streamsize>(buffer_.size()));
    if (!stream_) {
        return Pull::kNothing;  // raced the filesystem; poll again
    }

    if (csi::decode_frame_record(buffer_, header_, out) ==
        csi::FrameCheck::kOk) {
        ++consumed_;
        ++delivered_;
        WIMI_OBS_COUNT("stream.tail.frames", 1);
        return Pull::kFrame;
    }

    // Invalid record. If it is the newest one available the writer's
    // flush may still be landing — defer judgment to a later poll.
    if (consumed_ + 1 == complete) {
        return Pull::kTornTail;
    }
    switch (config_.policy) {
        case csi::ReadPolicy::kStrict:
            fail("TraceTailer: corrupt frame record " +
                 std::to_string(consumed_) + " in " + path_.string());
        case csi::ReadPolicy::kSkipCorrupt:
            ++consumed_;
            ++skipped_;
            WIMI_OBS_COUNT("stream.tail.skipped", 1);
            WIMI_OBS_LOG_WARN("stream.tailer", "skipping corrupt record",
                              ::wimi::obs::kv("record", consumed_ - 1));
            return Pull::kNothing;  // caller loops; next pull advances
        case csi::ReadPolicy::kStopAtCorruption:
            stopped_ = true;
            WIMI_OBS_LOG_WARN("stream.tailer", "stopping at corruption",
                              ::wimi::obs::kv("record", consumed_));
            return Pull::kNothing;
    }
    return Pull::kNothing;
}

std::optional<csi::CsiFrame> TraceTailer::next() {
    using Clock = std::chrono::steady_clock;
    const auto idle_budget =
        std::chrono::milliseconds(config_.idle_timeout_ms);
    auto last_progress = Clock::now();

    csi::CsiFrame frame;
    while (!stopped_) {
        if (!header_seen_) {
            if (try_read_header()) {
                last_progress = Clock::now();
            }
        }
        if (header_seen_) {
            const std::uint64_t before = consumed_;
            const Pull pull = pull_one(frame);
            if (pull == Pull::kFrame) {
                return frame;
            }
            if (consumed_ != before) {
                // Skipped a corrupt record: that is progress; retry
                // immediately without burning idle budget.
                last_progress = Clock::now();
                continue;
            }
            if (pull == Pull::kTornTail) {
                // The torn record does not reset the idle clock: if the
                // writer never completes it, the timeout classifies it.
                if (Clock::now() - last_progress >= idle_budget &&
                    config_.policy == csi::ReadPolicy::kStrict) {
                    fail("TraceTailer: torn final record " +
                         std::to_string(consumed_) + " in " +
                         path_.string() + " (writer gone?)");
                }
            }
        }
        if (config_.idle_timeout_ms == 0 ||
            Clock::now() - last_progress >= idle_budget) {
            return std::nullopt;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(config_.poll_interval_ms));
    }
    return std::nullopt;
}

}  // namespace wimi::stream
