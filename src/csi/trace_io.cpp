#include "csi/trace_io.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "common/binio.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"

namespace wimi::csi {
namespace {

constexpr std::uint32_t kMagic = binio::fourcc("WCSI");

// A corrupt header must not drive a multi-GB allocation or an endless
// read; kMaxFrameCells (trace_io.hpp) caps the record size. The frame
// count cap is the reader's alone: it reads frame_count records, while
// the tailer counts records from the size of a file that keeps growing.
constexpr std::uint64_t kMaxFrames = 100'000'000ULL;

void append_header(std::vector<unsigned char>& out, std::uint32_t version,
                   std::size_t antennas, std::size_t subcarriers,
                   std::uint64_t frames) {
    binio::ByteWriter writer(out);
    const std::size_t mark = writer.size();
    writer.u32(kMagic);
    writer.u32(version);
    if (version == kTraceVersion2) {
        writer.u32(binio::kByteOrderMarker);
    }
    writer.u32(static_cast<std::uint32_t>(antennas));
    writer.u32(static_cast<std::uint32_t>(subcarriers));
    writer.u64(frames);
    if (version == kTraceVersion2) {
        writer.crc32_since(mark);
    }
}

void append_record(std::vector<unsigned char>& out, std::uint32_t version,
                   const CsiFrame& frame) {
    binio::ByteWriter writer(out);
    const std::size_t mark = writer.size();
    writer.f64(frame.timestamp_s);
    writer.f64(frame.rssi_dbm);
    for (const Complex& h : frame.raw()) {
        writer.f64(h.real());
        writer.f64(h.imag());
    }
    if (version == kTraceVersion2) {
        writer.crc32_since(mark);
    }
}

void write_bytes(std::ostream& stream,
                 const std::vector<unsigned char>& bytes) {
    stream.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

// --- shared header check and frame decoder ------------------------------

HeaderCheck check_trace_header(std::span<const unsigned char> bytes,
                               TraceHeader& header) {
    if (bytes.size() < 8) {
        return HeaderCheck::kNotWcsi;
    }
    binio::ByteCursor cursor(bytes, "read_trace:");
    const bool magic_ok = cursor.get_u32() == kMagic;
    const std::uint32_t version = cursor.get_u32();
    const std::size_t size = version == kTraceVersion2
                                 ? kTraceHeaderBytesV2
                                 : kTraceHeaderBytesV1;
    if (!magic_ok ||
        (version != kTraceVersion1 && version != kTraceVersion2) ||
        bytes.size() < size) {
        return HeaderCheck::kNotWcsi;
    }
    header.version = version;
    if (version == kTraceVersion2 &&
        cursor.get_u32() != binio::kByteOrderMarker) {
        return HeaderCheck::kByteOrderMismatch;
    }
    header.antenna_count = cursor.get_u32();
    header.subcarrier_count = cursor.get_u32();
    header.frame_count = cursor.get_u64();
    if (version == kTraceVersion2 &&
        !binio::crc_trailer_ok(bytes.first(kTraceHeaderBytesV2))) {
        return HeaderCheck::kCrcMismatch;
    }
    const std::uint64_t cells =
        std::uint64_t{header.antenna_count} * header.subcarrier_count;
    const bool plausible =
        (cells >= 1 || header.frame_count == 0) &&
        header.antenna_count <= kMaxFrameCells &&
        header.subcarrier_count <= kMaxFrameCells &&
        cells <= kMaxFrameCells;
    return plausible ? HeaderCheck::kOk : HeaderCheck::kImplausible;
}

FrameCheck decode_frame_record(std::span<const unsigned char> record,
                               const TraceHeader& header, CsiFrame& frame) {
    ensure(record.size() == header.record_bytes(),
           "decode_frame_record: record size does not match the header");
    if (header.version == kTraceVersion2 && !binio::crc_trailer_ok(record)) {
        return FrameCheck::kCrcMismatch;
    }
    frame = CsiFrame(header.antenna_count, header.subcarrier_count);
    binio::ByteCursor cursor(record, "read_trace:");
    frame.timestamp_s = cursor.get_f64();
    frame.rssi_dbm = cursor.get_f64();
    // std::complex<double> is layout-compatible with double[2].
    const std::span<Complex> cells = frame.raw();
    cursor.get_f64s({reinterpret_cast<double*>(cells.data()),
                     2 * cells.size()});
    // A v1 bit flip or a writer that serialized garbage: the caller
    // fails loudly instead of feeding NaN into the pipeline.
    return frame.is_finite() ? FrameCheck::kOk : FrameCheck::kNonFinite;
}

// --- writer -------------------------------------------------------------

void write_trace(std::ostream& stream, const CsiSeries& series,
                 const TraceWriteOptions& options) {
    ensure(options.version == kTraceVersion1 ||
               options.version == kTraceVersion2,
           "write_trace: unsupported version");
    series.validate();
    ensure(series.antenna_count() * series.subcarrier_count() <=
               kMaxFrameCells,
           "write_trace: frames exceed the format's cell cap");
    for (std::size_t i = 0; i < series.frames.size(); ++i) {
        ensure(series.frames[i].is_finite(),
               "write_trace: non-finite CSI values in frame " +
                   std::to_string(i));
    }

    std::vector<unsigned char> bytes;
    append_header(bytes, options.version, series.antenna_count(),
                  series.subcarrier_count(), series.packet_count());
    write_bytes(stream, bytes);
    for (const auto& frame : series.frames) {
        bytes.clear();
        append_record(bytes, options.version, frame);
        write_bytes(stream, bytes);
    }
    ensure(static_cast<bool>(stream), "write_trace: stream failure");
}

void write_trace_file(const std::filesystem::path& path,
                      const CsiSeries& series,
                      const TraceWriteOptions& options) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ensure(out.is_open(),
           "write_trace_file: cannot open " + path.string());
    write_trace(out, series, options);
}

// --- streaming writer ---------------------------------------------------

TraceWriter::TraceWriter(const std::filesystem::path& path,
                         std::size_t antenna_count,
                         std::size_t subcarrier_count)
    : antennas_(antenna_count), subcarriers_(subcarrier_count) {
    ensure(antenna_count >= 1 && subcarrier_count >= 1,
           "TraceWriter: dimensions must be >= 1");
    // Each factor is capped first so the product cannot wrap.
    ensure(antenna_count <= kMaxFrameCells &&
               subcarrier_count <= kMaxFrameCells &&
               antenna_count * subcarrier_count <= kMaxFrameCells,
           "TraceWriter: dimensions exceed the format cap");
    stream_.open(path, std::ios::binary | std::ios::trunc);
    ensure(stream_.is_open(),
           "TraceWriter: cannot open " + path.string());
    open_ = true;
    stamp_header();
    ensure(static_cast<bool>(stream_), "TraceWriter: header write failed");
}

TraceWriter::~TraceWriter() {
    if (open_) {
        stream_.flush();  // best effort; close() reports failures
    }
}

/// (Re)writes the v2 header in place with the current frame count. The
/// header is fixed-size, so the stamp is a seek + 32-byte write; the
/// write cursor is restored to the end afterwards.
void TraceWriter::stamp_header() {
    std::vector<unsigned char> header;
    header.reserve(kTraceHeaderBytesV2);
    append_header(header, kTraceVersion2, antennas_, subcarriers_,
                  frames_written_);
    stream_.seekp(0);
    write_bytes(stream_, header);
    stream_.seekp(0, std::ios::end);
}

void TraceWriter::append(const CsiFrame& frame) {
    ensure(open_, "TraceWriter::append: writer is closed");
    ensure(frame.antenna_count() == antennas_ &&
               frame.subcarrier_count() == subcarriers_,
           "TraceWriter::append: frame geometry mismatch");
    ensure(frame.is_finite(),
           "TraceWriter::append: non-finite CSI values");
    std::vector<unsigned char> record;
    record.reserve(16 + antennas_ * subcarriers_ * 16 + 4);
    append_record(record, kTraceVersion2, frame);
    write_bytes(stream_, record);
    ++frames_written_;
    stamp_header();
    // Push the completed record to the OS so a tailing reader observes
    // whole frames, not a buffered prefix.
    stream_.flush();
    ensure(static_cast<bool>(stream_),
           "TraceWriter::append: stream failure");
}

void TraceWriter::close() {
    if (!open_) {
        return;
    }
    stream_.flush();
    ensure(static_cast<bool>(stream_), "TraceWriter::close: flush failed");
    stream_.close();
    open_ = false;
}

// --- streaming reader ---------------------------------------------------

TraceReader::TraceReader(std::istream& stream, TraceReadOptions options)
    : stream_(stream), options_(options) {
    read_header();
}

void TraceReader::read_header() {
    const bool strict = options_.policy == ReadPolicy::kStrict;

    // Magic and version first: a stream that fails here is not a WCSI
    // container of any vintage, so every policy throws.
    std::array<unsigned char, kTraceHeaderBytesV2> bytes{};
    stream_.read(reinterpret_cast<char*>(bytes.data()), 8);
    binio::ByteCursor prefix({bytes.data(), 8}, "read_trace:");
    ensure(static_cast<bool>(stream_) && prefix.get_u32() == kMagic,
           "read_trace: bad magic (not a WCSI trace)");
    const std::uint32_t version = prefix.get_u32();
    ensure(version == kTraceVersion1 || version == kTraceVersion2,
           "read_trace: unsupported version " + std::to_string(version));
    report_.version = version;

    // Rest of the header; length depends on the version.
    const std::size_t size = version == kTraceVersion2
                                 ? kTraceHeaderBytesV2
                                 : kTraceHeaderBytesV1;
    stream_.read(reinterpret_cast<char*>(bytes.data() + 8),
                 static_cast<std::streamsize>(size - 8));
    HeaderCheck check =
        stream_ ? check_trace_header({bytes.data(), size}, header_)
                : HeaderCheck::kNotWcsi;
    if (check == HeaderCheck::kOk && header_.frame_count > kMaxFrames) {
        check = HeaderCheck::kImplausible;
    }
    if (check != HeaderCheck::kOk) {
        report_.header_ok = false;
        done_ = true;
    }
    switch (check) {
        case HeaderCheck::kOk:
            break;
        case HeaderCheck::kNotWcsi:
            // Magic and version passed above, so the header was cut off.
            report_.truncated = true;
            ensure(!strict, "read_trace: truncated header");
            return;
        case HeaderCheck::kByteOrderMismatch:
            ensure(!strict, "read_trace: byte-order marker mismatch");
            return;
        case HeaderCheck::kCrcMismatch:
            report_.crc_failures += 1;
            WIMI_OBS_COUNT("trace.crc_failures", 1);
            WIMI_OBS_LOG_WARN("csi.trace", "header CRC mismatch",
                              obs::kv("policy_strict", strict));
            ensure(!strict, "read_trace: header CRC mismatch");
            return;
        case HeaderCheck::kImplausible:
            ensure(!strict, "read_trace: implausible header dimensions");
            return;
    }

    report_.antenna_count = header_.antenna_count;
    report_.subcarrier_count = header_.subcarrier_count;
    report_.frames_declared = header_.frame_count;
    buffer_.resize(header_.record_bytes());
    if (header_.frame_count == 0) {
        done_ = true;
    }
}

/// Pulls one full frame record into buffer_. Returns false (and finishes
/// the read, throwing under strict) when the stream ends first.
bool TraceReader::fill_frame_buffer() {
    stream_.read(reinterpret_cast<char*>(buffer_.data()),
                 static_cast<std::streamsize>(buffer_.size()));
    if (stream_.gcount() == static_cast<std::streamsize>(buffer_.size())) {
        return true;
    }
    // Stream ended before the declared frame count: a torn write or
    // truncation. A partial record is a damaged frame; a cut exactly at
    // a record boundary just loses the tail.
    report_.truncated = true;
    if (stream_.gcount() > 0) {
        report_.frames_skipped += 1;
        WIMI_OBS_COUNT("trace.frames_skipped", 1);
    }
    WIMI_OBS_LOG_DEBUG("csi.trace", "stream truncated mid-trace",
                       obs::kv("frames_consumed", frames_consumed_),
                       obs::kv("frames_declared",
                               report_.frames_declared));
    done_ = true;
    ensure(options_.policy != ReadPolicy::kStrict,
           "read_trace: truncated stream");
    return false;
}

std::optional<CsiFrame> TraceReader::next() {
    const bool strict = options_.policy == ReadPolicy::kStrict;
    while (!done_ && frames_consumed_ < report_.frames_declared) {
        if (!fill_frame_buffer()) {
            return std::nullopt;
        }
        const std::uint64_t index = frames_consumed_++;
        CsiFrame frame;
        const FrameCheck check =
            decode_frame_record(buffer_, header_, frame);
        if (check == FrameCheck::kOk) {
            report_.frames_recovered += 1;
            return frame;
        }

        report_.frames_skipped += 1;
        WIMI_OBS_COUNT("trace.frames_skipped", 1);
        if (check == FrameCheck::kCrcMismatch) {
            report_.crc_failures += 1;
            WIMI_OBS_COUNT("trace.crc_failures", 1);
            WIMI_OBS_LOG_DEBUG("csi.trace", "frame CRC mismatch",
                               obs::kv("frame", index));
            ensure(!strict, "read_trace: frame CRC mismatch (frame " +
                                std::to_string(index) + ")");
        } else {
            report_.non_finite_frames += 1;
            WIMI_OBS_LOG_DEBUG("csi.trace", "non-finite CSI frame",
                               obs::kv("frame", index));
            ensure(!strict, "read_trace: non-finite CSI values (frame " +
                                std::to_string(index) + ")");
        }
        if (options_.policy == ReadPolicy::kStopAtCorruption) {
            report_.stopped_at_corruption = true;
            done_ = true;
            return std::nullopt;
        }
        // kSkipCorrupt: on to the next record.
    }
    done_ = true;
    return std::nullopt;
}

// --- whole-series convenience wrappers ----------------------------------

CsiSeries read_trace(std::istream& stream,
                     const TraceReadOptions& options,
                     TraceReadReport* report) {
    TraceReader reader(stream, options);
    CsiSeries series;
    if (reader.frames_declared() > 0) {
        series.frames.reserve(static_cast<std::size_t>(
            std::min<std::uint64_t>(reader.frames_declared(), 65536)));
    }
    while (auto frame = reader.next()) {
        series.frames.push_back(std::move(*frame));
    }
    series.validate();
    const TraceReadReport& result = reader.report();
    if (result.frames_skipped > 0 || result.truncated ||
        !result.header_ok) {
        // One aggregate line per damaged trace; the per-frame detail is
        // at debug level.
        WIMI_OBS_LOG_WARN("csi.trace", "trace read with damage",
                          obs::kv("frames_recovered",
                                  result.frames_recovered),
                          obs::kv("frames_skipped", result.frames_skipped),
                          obs::kv("crc_failures", result.crc_failures),
                          obs::kv("truncated", result.truncated),
                          obs::kv("header_ok", result.header_ok));
    }
    if (report != nullptr) {
        *report = result;
    }
    return series;
}

CsiSeries read_trace_file(const std::filesystem::path& path,
                          const TraceReadOptions& options,
                          TraceReadReport* report) {
    std::ifstream in(path, std::ios::binary);
    ensure(in.is_open(), "read_trace_file: cannot open " + path.string());
    return read_trace(in, options, report);
}

}  // namespace wimi::csi
