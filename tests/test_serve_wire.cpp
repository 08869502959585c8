// Tests for the wimi_serve wire protocol (serve/wire).
//
// The framing guarantees the daemon relies on: every encode round-trips
// through decode bit-exactly, and every kind of damage — flipped bits,
// truncation, foreign magic, future versions, lying length fields —
// decodes to a clean wimi::Error instead of garbage or a crash.
#include "serve/wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "rf/material.hpp"
#include "sim/scenario.hpp"

namespace wimi::serve::wire {
namespace {

Request features_request() {
    Request request;
    request.type = MessageType::kPredictFeatures;
    request.request_id = 0x0123456789abcdefull;
    request.features = {1.5, -2.25, 0.0, 3.0e-7, 1e12};
    return request;
}

TEST(ServeWire, FeaturesRequestRoundTrips) {
    const Request request = features_request();
    const std::vector<std::uint8_t> record = encode_request(request);
    ASSERT_GE(record.size(), kWireHeaderBytes + kWireTrailerBytes);
    const Request decoded = decode_request(record);
    EXPECT_EQ(decoded.type, MessageType::kPredictFeatures);
    EXPECT_EQ(decoded.request_id, request.request_id);
    EXPECT_EQ(decoded.features, request.features);
}

TEST(ServeWire, SeriesRequestRoundTrips) {
    const sim::Scenario scenario{sim::ScenarioConfig{}};
    const sim::MeasurementPair measurement =
        scenario.capture_measurement(rf::Liquid::kMilk, 42);

    Request request;
    request.type = MessageType::kPredictSeries;
    request.request_id = 7;
    request.baseline = measurement.baseline;
    request.target = measurement.target;
    const Request decoded = decode_request(encode_request(request));
    EXPECT_EQ(decoded.type, MessageType::kPredictSeries);
    ASSERT_EQ(decoded.baseline.frames.size(),
              measurement.baseline.frames.size());
    ASSERT_EQ(decoded.target.frames.size(),
              measurement.target.frames.size());
    // The WCSI container inside the record is lossless: spot-check the
    // first frame's first (antenna, subcarrier) entry bit-exactly.
    EXPECT_EQ(decoded.baseline.frames[0].at(0, 0),
              measurement.baseline.frames[0].at(0, 0));
    EXPECT_EQ(decoded.target.frames[0].at(0, 0),
              measurement.target.frames[0].at(0, 0));
    EXPECT_EQ(decoded.baseline.frames[0].timestamp_s,
              measurement.baseline.frames[0].timestamp_s);
}

TEST(ServeWire, ControlRequestsRoundTrip) {
    Request swap;
    swap.type = MessageType::kSwapModel;
    swap.request_id = 9;
    swap.path = "/models/retrained.wmdl";
    const Request swap_decoded = decode_request(encode_request(swap));
    EXPECT_EQ(swap_decoded.type, MessageType::kSwapModel);
    EXPECT_EQ(swap_decoded.path, swap.path);

    for (const MessageType type :
         {MessageType::kPing, MessageType::kShutdown}) {
        Request control;
        control.type = type;
        control.request_id = 11;
        const Request decoded = decode_request(encode_request(control));
        EXPECT_EQ(decoded.type, type);
        EXPECT_EQ(decoded.request_id, 11u);
    }
}

TEST(ServeWire, OkResponseRoundTrips) {
    Response response;
    response.status = Status::kOk;
    response.request_id = 21;
    response.material_id = 3;
    response.material_name = "Milk";
    response.model_digest = "deadbeef";
    response.queue_us = 12.5;
    response.batch_wall_us = 340.75;
    response.batch_size = 8;
    const Response decoded = decode_response(encode_response(response));
    EXPECT_EQ(decoded.status, Status::kOk);
    EXPECT_EQ(decoded.request_id, 21u);
    EXPECT_EQ(decoded.material_id, 3);
    EXPECT_EQ(decoded.material_name, "Milk");
    EXPECT_EQ(decoded.model_digest, "deadbeef");
    EXPECT_EQ(decoded.queue_us, 12.5);
    EXPECT_EQ(decoded.batch_wall_us, 340.75);
    EXPECT_EQ(decoded.batch_size, 8u);
}

TEST(ServeWire, RejectionResponseRoundTrips) {
    for (const Status status :
         {Status::kOverloaded, Status::kBadRequest, Status::kServerError,
          Status::kShuttingDown}) {
        Response response;
        response.status = status;
        response.request_id = 33;
        response.message = "queue full (128 waiting)";
        const Response decoded =
            decode_response(encode_response(response));
        EXPECT_EQ(decoded.status, status);
        EXPECT_EQ(decoded.request_id, 33u);
        EXPECT_EQ(decoded.message, response.message);
        EXPECT_EQ(decoded.material_id, -1);
    }
}

TEST(ServeWire, StatusNamesAreStable) {
    EXPECT_EQ(status_name(Status::kOk), "ok");
    EXPECT_EQ(status_name(Status::kOverloaded), "overloaded");
    EXPECT_EQ(status_name(Status::kBadRequest), "bad_request");
    EXPECT_EQ(status_name(Status::kServerError), "server_error");
    EXPECT_EQ(status_name(Status::kShuttingDown), "shutting_down");
}

TEST(ServeWire, FlippedBitFailsCrc) {
    std::vector<std::uint8_t> record = encode_request(features_request());
    // Flip one bit in the body (past the header, before the CRC).
    record[kWireHeaderBytes + 2] ^= 0x10;
    EXPECT_THROW(decode_request(record), Error);
}

TEST(ServeWire, CorruptedTrailerFailsCrc) {
    std::vector<std::uint8_t> record = encode_request(features_request());
    record.back() ^= 0xff;
    EXPECT_THROW(decode_request(record), Error);
}

TEST(ServeWire, TruncationRejected) {
    const std::vector<std::uint8_t> record =
        encode_request(features_request());
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{4}, kWireHeaderBytes - 1,
          kWireHeaderBytes, record.size() - 1}) {
        const std::vector<std::uint8_t> cut(record.begin(),
                                            record.begin() + keep);
        EXPECT_THROW(decode_request(cut), Error) << "keep=" << keep;
    }
}

TEST(ServeWire, TrailingBytesRejected) {
    std::vector<std::uint8_t> record = encode_request(features_request());
    record.push_back(0);
    EXPECT_THROW(decode_request(record), Error);
}

TEST(ServeWire, ForeignMagicRejected) {
    std::vector<std::uint8_t> record = encode_request(features_request());
    record[0] = 'X';
    EXPECT_THROW(decode_request(record), Error);
    // A response record is not a request record.
    const std::vector<std::uint8_t> response =
        encode_response(Response{});
    EXPECT_THROW(decode_request(response), Error);
}

TEST(ServeWire, FutureVersionRejected) {
    std::vector<std::uint8_t> record = encode_request(features_request());
    record[4] = 0x7f;  // version LE low byte -> 127
    EXPECT_THROW(decode_request(record), Error);
}

TEST(ServeWire, LyingBodyLengthRejected) {
    std::vector<std::uint8_t> record = encode_request(features_request());
    // Understate body_bytes (offset 20, LE). The record length no longer
    // matches header + body + CRC.
    record[20] = static_cast<std::uint8_t>(record[20] - 1);
    EXPECT_THROW(decode_request(record), Error);
}

TEST(ServeWire, UnknownTypeWithStaleCrcRejected) {
    Request request;
    request.type = MessageType::kPing;
    std::vector<std::uint8_t> record = encode_request(request);
    // Rewrite type (offset 8, LE) without re-signing: the CRC is stale,
    // so this is damage, not version skew, and must throw.
    record[8] = 0x7e;
    EXPECT_THROW(decode_request(record), Error);
}

// Patches `record[offset] = value` and re-signs the CRC trailer, turning
// damage into an honest (future-protocol) record.
std::vector<std::uint8_t> resign(std::vector<std::uint8_t> record,
                                 std::size_t offset,
                                 std::uint8_t value) {
    record[offset] = value;
    const std::uint32_t crc =
        crc32(record.data(), record.size() - kWireTrailerBytes);
    for (std::size_t i = 0; i < 4; ++i) {
        record[record.size() - 4 + i] =
            static_cast<std::uint8_t>(crc >> (8 * i));
    }
    return record;
}

TEST(ServeWire, UnknownTypeWithValidCrcDecodesToKUnknown) {
    Request request;
    request.type = MessageType::kPing;
    request.request_id = 55;
    // An undefined type with an intact CRC is a well-formed record from
    // a newer protocol, not corruption: the decoder hands it back as
    // kUnknown (raw type preserved) so the daemon can answer with an
    // explicit kBadRequest instead of dropping the connection.
    const std::vector<std::uint8_t> record =
        resign(encode_request(request), 8, 0x7e);
    const Request decoded = decode_request(record);
    EXPECT_EQ(decoded.type, MessageType::kUnknown);
    EXPECT_EQ(decoded.raw_type, 0x7eu);
    EXPECT_EQ(decoded.request_id, 55u);
}

TEST(ServeWire, LyingFeatureWidthRejectedWithoutHugeAllocation) {
    // A CRC-valid record whose width field claims 2^32 - 1 features: the
    // decoder must compare the claim with the bytes that are there
    // before it allocates, and fail with wimi::Error, not bad_alloc.
    std::vector<std::uint8_t> record = encode_request(features_request());
    // The width is the body's first field, a u32 right after the v1
    // header; resign() writes its low byte and restamps the CRC.
    for (std::size_t i = 1; i < 4; ++i) {
        record[kWireHeaderBytes + i] = 0xFF;
    }
    record = resign(std::move(record), kWireHeaderBytes, 0xFF);
    try {
        decode_request(record);
        ADD_FAILURE() << "lying feature width accepted";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("wire: record truncated"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ServeWire, UntracedRequestStaysVersion1) {
    // The PR 8 byte-compatibility promise: a request carrying no trace
    // context encodes as a v1 record — same version byte, same length —
    // so untraced clients interoperate with old daemons for free.
    const std::vector<std::uint8_t> record =
        encode_request(features_request());
    EXPECT_EQ(record[4], 1u);  // version, LE low byte
    const Request decoded = decode_request(record);
    EXPECT_EQ(decoded.trace_id, 0u);
    EXPECT_EQ(decoded.parent_span_id, 0u);
}

TEST(ServeWire, TracedRequestRoundTripsAsVersion2) {
    Request request = features_request();
    request.trace_id = 0x000ABCDEF1234567ull;
    request.parent_span_id = 0x00011112222ull;
    const std::vector<std::uint8_t> record = encode_request(request);
    EXPECT_EQ(record[4], 2u);
    // v2 is exactly the v1 framing plus the 16-byte trace extension.
    const std::vector<std::uint8_t> v1 =
        encode_request(features_request());
    EXPECT_EQ(record.size(), v1.size() + kWireTraceExtBytes);
    const Request decoded = decode_request(record);
    EXPECT_EQ(decoded.type, MessageType::kPredictFeatures);
    EXPECT_EQ(decoded.trace_id, request.trace_id);
    EXPECT_EQ(decoded.parent_span_id, request.parent_span_id);
    EXPECT_EQ(decoded.features, request.features);
}

TEST(ServeWire, AdminRequestsRoundTrip) {
    for (const MessageType type :
         {MessageType::kStats, MessageType::kHealth,
          MessageType::kDumpFlight}) {
        Request request;
        request.type = type;
        request.request_id = 77;
        const Request decoded = decode_request(encode_request(request));
        EXPECT_EQ(decoded.type, type);
        EXPECT_EQ(decoded.request_id, 77u);
    }
}

TEST(ServeWire, ResponseTraceAndPayloadRoundTrip) {
    Response response;
    response.status = Status::kOk;
    response.request_id = 91;
    response.model_digest = "feedface";
    response.trace_id = 0x0005556667778ull;
    response.span_id = 0x000999000111ull;
    response.payload = "{\"schema\":\"wimi.stats.v1\",\"uptime_us\":5}";
    const std::vector<std::uint8_t> record = encode_response(response);
    EXPECT_EQ(record[4], 2u);
    const Response decoded = decode_response(record);
    EXPECT_EQ(decoded.status, Status::kOk);
    EXPECT_EQ(decoded.trace_id, response.trace_id);
    EXPECT_EQ(decoded.span_id, response.span_id);
    EXPECT_EQ(decoded.payload, response.payload);
    EXPECT_EQ(decoded.model_digest, "feedface");

    // No trace, no payload -> still a v1 record.
    Response plain;
    plain.status = Status::kOk;
    plain.request_id = 92;
    EXPECT_EQ(encode_response(plain)[4], 1u);
}

}  // namespace
}  // namespace wimi::serve::wire
