// Golden-byte pins for every binary format the system writes.
//
// Each case serializes a fixed, seeded input and checks the length and
// the 64-bit FNV-1a digest of the exact bytes: the WCSI trace writer at
// v1 and v2, the frame-at-a-time TraceWriter, the wimi.model writer, and
// WSRQ/WSRP records at wire v1 (untraced) and v2 (traced). The inputs
// avoid training and libm so the bytes depend only on the codecs. A
// codec refactor that changes a single byte of any format fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "csi/trace_io.hpp"
#include "scratch_dir.hpp"
#include "serve/model.hpp"
#include "serve/model_io.hpp"
#include "serve/wire.hpp"

namespace wimi {
namespace {

/// 64-bit FNV-1a, written out here so the oracle shares no code with
/// the formats it pins.
template <typename Bytes>
std::uint64_t fnv1a64(const Bytes& bytes) {
    std::uint64_t state = 0xcbf29ce484222325ull;
    for (const auto byte : bytes) {
        state ^= static_cast<unsigned char>(byte);
        state *= 0x00000100000001b3ull;
    }
    return state;
}

/// 3 antennas x 4 subcarriers, values from Rng::uniform (exact
/// arithmetic on the generator's bits, no libm).
csi::CsiSeries golden_series(std::size_t frames) {
    Rng rng(20190707);
    csi::CsiSeries series;
    for (std::size_t p = 0; p < frames; ++p) {
        csi::CsiFrame frame(3, 4);
        frame.timestamp_s = 0.125 * static_cast<double>(p);
        frame.rssi_dbm = -40.0 - 0.5 * static_cast<double>(p);
        for (Complex& h : frame.raw()) {
            h = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
        }
        series.frames.push_back(std::move(frame));
    }
    return series;
}

std::string trace_bytes(std::uint32_t version) {
    std::ostringstream out;
    csi::write_trace(out, golden_series(6), {version});
    return std::move(out).str();
}

/// Two pairs x three subcarriers (width 6), three classes, three
/// pairwise machines with two support vectors each; every value is a
/// seeded uniform draw.
serve::TrainedModel golden_model() {
    Rng rng(4242);
    constexpr std::size_t kWidth = 6;
    serve::TrainedModel model;
    model.pairs = {{0, 1}, {0, 2}};
    model.subcarriers = {4, 11, 17};
    model.class_names = {"Water", "Milk", "Oil"};
    std::vector<double> means(kWidth);
    std::vector<double> stddevs(kWidth);
    for (std::size_t i = 0; i < kWidth; ++i) {
        means[i] = rng.uniform(-2.0, 2.0);
        stddevs[i] = rng.uniform(0.5, 1.5);
    }
    model.scaler =
        ml::StandardScaler::restore(std::move(means), std::move(stddevs));
    ml::SvmConfig config;
    config.seed = 99;
    std::vector<ml::MulticlassSvm::PairMachine> machines;
    for (const auto& [positive, negative] :
         {std::pair{0, 1}, std::pair{0, 2}, std::pair{1, 2}}) {
        std::vector<double> svs(2 * kWidth);
        for (double& v : svs) {
            v = rng.uniform(-3.0, 3.0);
        }
        std::vector<double> alphas = {rng.uniform(0.1, 1.0),
                                      -rng.uniform(0.1, 1.0)};
        machines.push_back(
            {positive, negative,
             ml::BinarySvm::restore(config, kWidth, std::move(svs),
                                    std::move(alphas),
                                    rng.uniform(-0.5, 0.5))});
    }
    model.svm =
        ml::MulticlassSvm::restore(config, {0, 1, 2}, std::move(machines));
    return model;
}

serve::wire::Response ok_response() {
    serve::wire::Response response;
    response.status = serve::wire::Status::kOk;
    response.request_id = 0x5a5a5a5a01020304ull;
    response.material_id = 2;
    response.material_name = "Oil";
    response.model_digest = "0123456789abcdef";
    response.queue_us = 12.5;
    response.batch_wall_us = 310.25;
    response.batch_size = 3;
    return response;
}

TEST(CodecGolden, WriteTraceV1) {
    const std::string bytes = trace_bytes(csi::kTraceVersion1);
    EXPECT_EQ(bytes.size(), 1272u);
    EXPECT_EQ(fnv1a64(bytes), 0x363aee8dee1508c5ull);
}

TEST(CodecGolden, WriteTraceV2) {
    const std::string bytes = trace_bytes(csi::kTraceVersion2);
    EXPECT_EQ(bytes.size(), 1304u);
    EXPECT_EQ(fnv1a64(bytes), 0xd442928e455ae32cull);
}

TEST(CodecGolden, TraceWriterAfterAppends) {
    const auto series = golden_series(5);
    const auto path = testutil::scratch_dir() / "golden_writer.wcsi";
    csi::TraceWriter writer(path, 3, 4);
    for (const csi::CsiFrame& frame : series.frames) {
        writer.append(frame);
    }
    writer.close();
    std::ifstream in(path, std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    EXPECT_EQ(bytes.size(), 1092u);
    EXPECT_EQ(fnv1a64(bytes), 0xac030490ac7cd3c9ull);
}

TEST(CodecGolden, SaveModel) {
    std::ostringstream out;
    serve::save_model(out, golden_model());
    const std::string bytes = std::move(out).str();
    EXPECT_EQ(bytes.size(), 806u);
    EXPECT_EQ(fnv1a64(bytes), 0x47fcc912ceab8e9eull);
}

TEST(CodecGolden, WireRequestV1Untraced) {
    serve::wire::Request request;
    request.type = serve::wire::MessageType::kPredictFeatures;
    request.request_id = 0x0102030405060708ull;
    request.features = {1.5, -2.25, 0.0, 3.0e-7, 1e12, -0.0};
    const auto bytes = serve::wire::encode_request(request);
    EXPECT_EQ(bytes.size(), 84u);
    EXPECT_EQ(fnv1a64(bytes), 0x465093de56456d13ull);
}

TEST(CodecGolden, WireRequestV2TracedSeries) {
    serve::wire::Request request;
    request.type = serve::wire::MessageType::kPredictSeries;
    request.request_id = 77;
    request.trace_id = 0x000ABCDEF1234567ull;
    request.parent_span_id = 0x0000111122223333ull;
    request.baseline = golden_series(3);
    request.target = golden_series(4);
    const auto bytes = serve::wire::encode_request(request);
    EXPECT_EQ(bytes.size(), 1612u);
    EXPECT_EQ(fnv1a64(bytes), 0x153a90b6f829eb7aull);
}

TEST(CodecGolden, WireResponseV1Untraced) {
    const auto bytes = serve::wire::encode_response(ok_response());
    EXPECT_EQ(bytes.size(), 83u);
    EXPECT_EQ(fnv1a64(bytes), 0x1725ecdd8a161984ull);
}

TEST(CodecGolden, WireResponseV2TracedWithPayload) {
    serve::wire::Response response = ok_response();
    response.trace_id = 0x0005556667778ull;
    response.span_id = 0x000999000111ull;
    response.payload = "{\"schema\":\"wimi.stats.v1\",\"uptime_us\":5}";
    const auto bytes = serve::wire::encode_response(response);
    EXPECT_EQ(bytes.size(), 143u);
    EXPECT_EQ(fnv1a64(bytes), 0xdaec8b48f2b6fe3aull);
}

TEST(CodecGolden, WireRejectionResponseV1) {
    serve::wire::Response response;
    response.status = serve::wire::Status::kOverloaded;
    response.request_id = 9;
    response.message = "admission queue full";
    const auto bytes = serve::wire::encode_response(response);
    EXPECT_EQ(bytes.size(), 56u);
    EXPECT_EQ(fnv1a64(bytes), 0x7a2bf23aabe35f82ull);
}

}  // namespace
}  // namespace wimi
