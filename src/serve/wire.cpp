#include "serve/wire.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <string_view>

#include "common/binio.hpp"
#include "common/error.hpp"
#include "csi/trace_io.hpp"

namespace wimi::serve::wire {
namespace {

using binio::ByteCursor;
using binio::ByteWriter;
using binio::fourcc;

constexpr char kRequestMagic[4] = {'W', 'S', 'R', 'Q'};
constexpr char kResponseMagic[4] = {'W', 'S', 'R', 'P'};
constexpr const char* kPrefix = "wire:";

void put_string(ByteWriter& out, std::string_view s) {
    ensure(s.size() <= 0xFFFFFFFFu, "wire: string too long");
    out.u32(static_cast<std::uint32_t>(s.size()));
    out.bytes(s.data(), s.size());
}

void put_bytes(ByteWriter& out, std::string_view bytes) {
    out.u64(bytes.size());
    out.bytes(bytes.data(), bytes.size());
}

std::string get_string(ByteCursor& in) {
    return in.get_string(in.get_u32(), "string body");
}

std::string get_bytes(ByteCursor& in) {
    return in.get_string(in.get_u64(), "byte region");
}

/// Records with trace context or a payload need the v2 layout; plain
/// records stay at v1 so pre-v2 peers keep decoding them.
std::uint32_t pick_version(std::uint64_t trace_id, std::uint64_t span_id,
                           bool has_payload) {
    return (trace_id != 0 || span_id != 0 || has_payload) ? kWireVersion2
                                                          : kWireVersion1;
}

/// Frames `body` as one record: header (+ v2 trace extension) + body +
/// CRC over everything before the trailer.
std::vector<std::uint8_t> frame_record(const char magic[4],
                                       std::uint32_t version,
                                       std::uint32_t type_or_status,
                                       std::uint64_t request_id,
                                       std::uint64_t trace_id,
                                       std::uint64_t span_id,
                                       const std::vector<std::uint8_t>& body) {
    std::vector<std::uint8_t> record;
    const std::size_t ext =
        version >= kWireVersion2 ? kWireTraceExtBytes : 0;
    record.reserve(kWireHeaderBytes + ext + body.size() + kWireTrailerBytes);
    ByteWriter out(record);
    out.u32(fourcc(magic));
    out.u32(version);
    out.u32(type_or_status);
    out.u64(request_id);
    out.u64(body.size());
    if (version >= kWireVersion2) {
        out.u64(trace_id);
        out.u64(span_id);
    }
    out.bytes(body.data(), body.size());
    out.crc32_since(0);
    return record;
}

/// Parsed framing of one record: validated prefix fields plus the body
/// cursor. trace_id/span_id are zero for v1 records.
struct OpenedRecord {
    std::uint32_t version = 0;
    std::uint32_t type_or_status = 0;
    std::uint64_t request_id = 0;
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    ByteCursor body;
};

/// Validates framing (magic, version, lengths, CRC) and splits the
/// record into its fields.
OpenedRecord open_record(std::span<const std::uint8_t> record,
                         const char magic[4]) {
    ensure(record.size() >= kWireHeaderBytes + kWireTrailerBytes,
           "wire: record shorter than header + CRC");
    OpenedRecord opened;
    ByteCursor in(record, kPrefix);
    ensure(in.get_u32() == fourcc(magic), "wire: bad record magic");
    opened.version = in.get_u32();
    ensure(opened.version == kWireVersion1 ||
               opened.version == kWireVersion2,
           "wire: unknown protocol version");
    opened.type_or_status = in.get_u32();
    opened.request_id = in.get_u64();
    const std::uint64_t body_bytes = in.get_u64();
    ensure(body_bytes <= kMaxBodyBytes, "wire: body length over limit");
    const std::size_t ext =
        opened.version == kWireVersion2 ? kWireTraceExtBytes : 0;
    ensure(record.size() ==
               kWireHeaderBytes + ext + body_bytes + kWireTrailerBytes,
           "wire: record length does not match body length");
    if (ext != 0) {
        opened.trace_id = in.get_u64();
        opened.span_id = in.get_u64();
    }
    ensure(binio::crc_trailer_ok(record), "wire: record CRC mismatch");
    opened.body = in.take(body_bytes, "body");
    return opened;
}

std::string serialize_series(const csi::CsiSeries& series) {
    std::ostringstream out;
    csi::write_trace(out, series);
    return std::move(out).str();
}

csi::CsiSeries deserialize_series(const std::string& bytes,
                                  const char* which) {
    try {
        std::istringstream in(bytes);
        return csi::read_trace(in);  // strict: any damage throws
    } catch (const Error& e) {
        throw Error(std::string("wire: bad ") + which +
                    " series: " + e.what());
    }
}

void read_exact(int fd, std::uint8_t* data, std::size_t size,
                const char* what) {
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::read(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            throw Error(std::string("wire: read failed (") +
                        std::strerror(errno) + ") in " + what);
        }
        ensure(n != 0, std::string("wire: connection closed mid-") + what);
        done += static_cast<std::size_t>(n);
    }
}

}  // namespace

std::string_view status_name(Status status) noexcept {
    switch (status) {
        case Status::kOk:
            return "ok";
        case Status::kOverloaded:
            return "overloaded";
        case Status::kBadRequest:
            return "bad_request";
        case Status::kServerError:
            return "server_error";
        case Status::kShuttingDown:
            return "shutting_down";
    }
    return "unknown";
}

std::vector<std::uint8_t> encode_request(const Request& request) {
    std::vector<std::uint8_t> bytes;
    ByteWriter body(bytes);
    switch (request.type) {
        case MessageType::kPredictFeatures: {
            ensure(request.features.size() <= 0xFFFFFFFFu,
                   "wire: feature vector too wide");
            body.u32(static_cast<std::uint32_t>(request.features.size()));
            for (const double v : request.features) {
                body.f64(v);
            }
            break;
        }
        case MessageType::kPredictSeries: {
            put_bytes(body, serialize_series(request.baseline));
            put_bytes(body, serialize_series(request.target));
            break;
        }
        case MessageType::kSwapModel: {
            put_string(body, request.path);
            break;
        }
        case MessageType::kPing:
        case MessageType::kShutdown:
        case MessageType::kStats:
        case MessageType::kHealth:
        case MessageType::kDumpFlight:
            break;
        default:
            fail("wire: unknown request type");
    }
    const std::uint32_t version = pick_version(
        request.trace_id, request.parent_span_id, /*has_payload=*/false);
    return frame_record(kRequestMagic, version,
                        static_cast<std::uint32_t>(request.type),
                        request.request_id, request.trace_id,
                        request.parent_span_id, bytes);
}

std::vector<std::uint8_t> encode_response(const Response& response) {
    const std::uint32_t version = pick_version(
        response.trace_id, response.span_id, !response.payload.empty());
    std::vector<std::uint8_t> bytes;
    ByteWriter body(bytes);
    if (response.status == Status::kOk) {
        body.i32(response.material_id);
        put_string(body, response.material_name);
        put_string(body, response.model_digest);
        body.f64(response.queue_us);
        body.f64(response.batch_wall_us);
        body.u32(response.batch_size);
        if (version >= kWireVersion2) {
            put_string(body, response.payload);
        }
    } else {
        put_string(body, response.message);
    }
    return frame_record(kResponseMagic, version,
                        static_cast<std::uint32_t>(response.status),
                        response.request_id, response.trace_id,
                        response.span_id, bytes);
}

Request decode_request(std::span<const std::uint8_t> record) {
    OpenedRecord opened = open_record(record, kRequestMagic);
    Request request;
    request.request_id = opened.request_id;
    request.trace_id = opened.trace_id;
    request.parent_span_id = opened.span_id;
    request.raw_type = opened.type_or_status;
    ByteCursor& body = opened.body;
    switch (opened.type_or_status) {
        case static_cast<std::uint32_t>(MessageType::kPredictFeatures): {
            request.type = MessageType::kPredictFeatures;
            request.features = body.get_f64_array(body.get_u32(), "features");
            break;
        }
        case static_cast<std::uint32_t>(MessageType::kPredictSeries): {
            request.type = MessageType::kPredictSeries;
            request.baseline =
                deserialize_series(get_bytes(body), "baseline");
            request.target = deserialize_series(get_bytes(body), "target");
            break;
        }
        case static_cast<std::uint32_t>(MessageType::kSwapModel): {
            request.type = MessageType::kSwapModel;
            request.path = get_string(body);
            break;
        }
        case static_cast<std::uint32_t>(MessageType::kPing):
            request.type = MessageType::kPing;
            break;
        case static_cast<std::uint32_t>(MessageType::kShutdown):
            request.type = MessageType::kShutdown;
            break;
        case static_cast<std::uint32_t>(MessageType::kStats):
            request.type = MessageType::kStats;
            break;
        case static_cast<std::uint32_t>(MessageType::kHealth):
            request.type = MessageType::kHealth;
            break;
        case static_cast<std::uint32_t>(MessageType::kDumpFlight):
            request.type = MessageType::kDumpFlight;
            break;
        default:
            // CRC-valid framing with a type from the future: surface it
            // as kUnknown (body skipped) so the server can answer with
            // an explicit error instead of dropping the connection.
            request.type = MessageType::kUnknown;
            return request;
    }
    ensure(body.exhausted(), "wire: trailing bytes after request body");
    return request;
}

Response decode_response(std::span<const std::uint8_t> record) {
    OpenedRecord opened = open_record(record, kResponseMagic);
    ensure(opened.type_or_status <=
               static_cast<std::uint32_t>(Status::kShuttingDown),
           "wire: unknown response status");
    Response response;
    response.request_id = opened.request_id;
    response.trace_id = opened.trace_id;
    response.span_id = opened.span_id;
    response.status = static_cast<Status>(opened.type_or_status);
    ByteCursor& body = opened.body;
    if (response.status == Status::kOk) {
        response.material_id = body.get_i32();
        response.material_name = get_string(body);
        response.model_digest = get_string(body);
        response.queue_us = body.get_f64();
        response.batch_wall_us = body.get_f64();
        response.batch_size = body.get_u32();
        if (opened.version >= kWireVersion2) {
            response.payload = get_string(body);
        }
    } else {
        response.message = get_string(body);
    }
    ensure(body.exhausted(), "wire: trailing bytes after response body");
    return response;
}

std::optional<std::vector<std::uint8_t>> read_record(
    int fd, const char expected_magic[4]) {
    std::vector<std::uint8_t> record(kWireHeaderBytes);
    // Peek at the first byte separately so EOF *between* records is a
    // clean nullopt while EOF inside one is an error.
    std::size_t first = 0;
    while (true) {
        const ssize_t n = ::read(fd, record.data(), 1);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            throw Error(std::string("wire: read failed (") +
                        std::strerror(errno) + ")");
        }
        if (n == 0) {
            return std::nullopt;
        }
        first = 1;
        break;
    }
    read_exact(fd, record.data() + first, kWireHeaderBytes - first,
               "record header");

    ByteCursor header({record.data(), kWireHeaderBytes}, kPrefix);
    ensure(header.get_u32() == fourcc(expected_magic),
           "wire: bad record magic");
    const std::uint32_t version = header.get_u32();
    ensure(version == kWireVersion1 || version == kWireVersion2,
           "wire: unknown protocol version");
    header.get_u32();  // type / status: validated by the decoder
    header.get_u64();  // request id
    const std::uint64_t body_bytes = header.get_u64();
    ensure(body_bytes <= kMaxBodyBytes, "wire: body length over limit");

    const std::size_t ext =
        version == kWireVersion2 ? kWireTraceExtBytes : 0;
    record.resize(kWireHeaderBytes + ext +
                  static_cast<std::size_t>(body_bytes) + kWireTrailerBytes);
    read_exact(fd, record.data() + kWireHeaderBytes,
               record.size() - kWireHeaderBytes, "record body");
    return record;
}

void write_record(int fd, std::span<const std::uint8_t> record) {
    std::size_t done = 0;
    while (done < record.size()) {
        const ssize_t n =
            ::write(fd, record.data() + done, record.size() - done);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            throw Error(std::string("wire: write failed (") +
                        std::strerror(errno) + ")");
        }
        done += static_cast<std::size_t>(n);
    }
}

}  // namespace wimi::serve::wire
