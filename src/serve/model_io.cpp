#include "serve/model_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/binio.hpp"
#include "common/error.hpp"

namespace wimi::serve {
namespace {

using binio::ByteCursor;
using binio::ByteWriter;
using binio::fourcc;

constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 4 + 8 + 4;
constexpr std::size_t kSectionFrameBytes = 4 + 8 + 4;  // id + len + crc

constexpr std::uint32_t kMagic = fourcc("WMDL");
constexpr std::uint32_t kSectionMeta = fourcc("META");
constexpr std::uint32_t kSectionCalib = fourcc("CALB");
constexpr std::uint32_t kSectionScaler = fourcc("SCAL");
constexpr std::uint32_t kSectionSvm = fourcc("SVMC");
constexpr std::uint32_t kSectionOrder[] = {kSectionMeta, kSectionCalib,
                                           kSectionScaler, kSectionSvm};

// Plausibility caps: a lying length field must not drive a huge
// allocation before the CRC gets a chance to reject the section.
constexpr std::uint32_t kMaxCount = 1u << 20;

/// A count field, capped so corrupt values cannot drive allocations.
std::size_t get_count(ByteCursor& cursor, const char* what) {
    const std::uint32_t v = cursor.get_u32();
    if (v > kMaxCount) {
        fail(std::string("load_model: implausible count for ") + what);
    }
    return v;
}

bool get_bool(ByteCursor& cursor) {
    const std::uint8_t v = cursor.get_u8();
    ensure(v <= 1, "load_model: boolean field out of range");
    return v == 1;
}

std::string hex64(std::uint64_t v) {
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xFu];
        v >>= 4;
    }
    return out;
}

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ull;

/// Streaming 64-bit FNV-1a: fold `size` bytes into `state`.
///
/// The artifact digest deliberately does NOT reuse CRC-32. Every record
/// in the container ends with its own CRC-32 appended little-endian,
/// and CRC linearity makes exactly that layout self-cancelling: the
/// trailer's contribution to any whole-file CRC annihilates the
/// record content's, so a whole-file CRC-32 "digest" collapses to a
/// function of the record layout alone — identical for any two
/// same-shape artifacts, e.g. a model and its retrained replacement.
/// FNV-1a mixes multiplicatively and has no such cancellation.
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t state) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        state ^= bytes[i];
        state *= kFnvPrime;
    }
    return state;
}

double finite_or_throw(double v, const char* what) {
    ensure(std::isfinite(v),
           std::string("load_model: non-finite ") + what);
    return v;
}

// --- section encoders ----------------------------------------------------

void encode_meta(ByteWriter& body, const TrainedModel& model) {
    body.u32(0);  // flags, reserved
    body.u32(static_cast<std::uint32_t>(model.feature_width()));
    body.u32(static_cast<std::uint32_t>(model.class_names.size()));
    for (const std::string& name : model.class_names) {
        body.u32(static_cast<std::uint32_t>(name.size()));
        body.bytes(name.data(), name.size());
    }
}

void encode_calib(ByteWriter& body, const TrainedModel& model) {
    const core::FeatureConfig& f = model.feature;
    body.f64(f.denoise.outlier_k_sigma);
    body.u8(f.denoise.remove_impulses);
    body.u64(f.denoise.wavelet.levels);
    body.u64(f.denoise.wavelet.max_iterations);
    body.f64(f.denoise.wavelet.noise_threshold_scale);
    body.u8(f.use_amplitude_denoising);
    body.i32(f.gamma.max_wraps);
    body.f64(f.gamma.min_abs_omega);
    body.f64(f.gamma.max_abs_omega);
    body.f64(f.phase_ridge_rad);
    body.u32(static_cast<std::uint32_t>(model.pairs.size()));
    for (const core::AntennaPair pair : model.pairs) {
        body.u32(static_cast<std::uint32_t>(pair.first));
        body.u32(static_cast<std::uint32_t>(pair.second));
    }
    body.u32(static_cast<std::uint32_t>(model.subcarriers.size()));
    for (const std::size_t sc : model.subcarriers) {
        body.u32(static_cast<std::uint32_t>(sc));
    }
}

void encode_scaler(ByteWriter& body, const TrainedModel& model) {
    const auto means = model.scaler.means();
    const auto stddevs = model.scaler.stddevs();
    body.u32(static_cast<std::uint32_t>(means.size()));
    for (const double m : means) {
        body.f64(m);
    }
    for (const double s : stddevs) {
        body.f64(s);
    }
}

void encode_svm(ByteWriter& body, const TrainedModel& model) {
    const ml::SvmConfig& config = model.svm.config();
    body.u32(static_cast<std::uint32_t>(config.kernel));
    body.f64(config.c);
    body.f64(config.gamma);
    body.f64(config.tolerance);
    body.u64(config.convergence_passes);
    body.u64(config.max_passes);
    body.u64(config.seed);
    const auto classes = model.svm.classes();
    body.u32(static_cast<std::uint32_t>(classes.size()));
    for (const int c : classes) {
        body.i32(c);
    }
    const auto machines = model.svm.machines();
    body.u32(static_cast<std::uint32_t>(machines.size()));
    for (const auto& machine : machines) {
        body.i32(machine.positive_label);
        body.i32(machine.negative_label);
        body.u32(static_cast<std::uint32_t>(machine.svm.width()));
        body.u32(static_cast<std::uint32_t>(machine.svm.alphas().size()));
        for (const double v : machine.svm.support_vectors()) {
            body.f64(v);
        }
        for (const double a : machine.svm.alphas()) {
            body.f64(a);
        }
        body.f64(machine.svm.bias());
    }
}

// --- section decoders ----------------------------------------------------

struct MetaSection {
    std::size_t feature_width = 0;
    std::vector<std::string> class_names;
};

MetaSection decode_meta(ByteCursor cursor) {
    MetaSection meta;
    const std::uint32_t flags = cursor.get_u32();
    ensure(flags == 0, "load_model: unknown META flags");
    meta.feature_width = get_count(cursor, "feature width");
    const std::size_t classes = get_count(cursor, "class names");
    for (std::size_t i = 0; i < classes; ++i) {
        const std::size_t len = get_count(cursor, "class name length");
        meta.class_names.push_back(cursor.get_string(len, "class name"));
    }
    ensure(cursor.exhausted(), "load_model: trailing bytes in META");
    return meta;
}

struct CalibSection {
    core::FeatureConfig feature;
    std::vector<core::AntennaPair> pairs;
    std::vector<std::size_t> subcarriers;
};

CalibSection decode_calib(ByteCursor cursor) {
    CalibSection calib;
    core::FeatureConfig& f = calib.feature;
    f.denoise.outlier_k_sigma =
        finite_or_throw(cursor.get_f64(), "outlier_k_sigma");
    f.denoise.remove_impulses = get_bool(cursor);
    f.denoise.wavelet.levels = cursor.get_u64();
    f.denoise.wavelet.max_iterations = cursor.get_u64();
    f.denoise.wavelet.noise_threshold_scale =
        finite_or_throw(cursor.get_f64(), "noise_threshold_scale");
    f.use_amplitude_denoising = get_bool(cursor);
    f.gamma.max_wraps = cursor.get_i32();
    f.gamma.min_abs_omega =
        finite_or_throw(cursor.get_f64(), "min_abs_omega");
    f.gamma.max_abs_omega =
        finite_or_throw(cursor.get_f64(), "max_abs_omega");
    f.phase_ridge_rad = finite_or_throw(cursor.get_f64(), "phase_ridge_rad");
    const std::size_t pair_count = get_count(cursor, "antenna pairs");
    for (std::size_t i = 0; i < pair_count; ++i) {
        core::AntennaPair pair;
        pair.first = cursor.get_u32();
        pair.second = cursor.get_u32();
        calib.pairs.push_back(pair);
    }
    const std::size_t sc_count = get_count(cursor, "subcarriers");
    for (std::size_t i = 0; i < sc_count; ++i) {
        calib.subcarriers.push_back(cursor.get_u32());
    }
    ensure(cursor.exhausted(), "load_model: trailing bytes in CALB");
    return calib;
}

ml::StandardScaler decode_scaler(ByteCursor cursor) {
    const std::size_t width = get_count(cursor, "scaler width");
    std::vector<double> means = cursor.get_f64_array(width, "scaler means");
    std::vector<double> stddevs =
        cursor.get_f64_array(width, "scaler stddevs");
    ensure(cursor.exhausted(), "load_model: trailing bytes in SCAL");
    // restore() rejects non-finite or non-positive moments.
    return ml::StandardScaler::restore(std::move(means), std::move(stddevs));
}

ml::MulticlassSvm decode_svm(ByteCursor cursor) {
    ml::SvmConfig config;
    const std::uint32_t kernel = cursor.get_u32();
    ensure(kernel <= static_cast<std::uint32_t>(ml::Kernel::kRbf),
           "load_model: unknown kernel id");
    config.kernel = static_cast<ml::Kernel>(kernel);
    config.c = finite_or_throw(cursor.get_f64(), "svm C");
    config.gamma = finite_or_throw(cursor.get_f64(), "svm gamma");
    config.tolerance = finite_or_throw(cursor.get_f64(), "svm tolerance");
    config.convergence_passes = cursor.get_u64();
    config.max_passes = cursor.get_u64();
    config.seed = cursor.get_u64();
    const std::size_t class_count = get_count(cursor, "svm classes");
    std::vector<int> classes;
    classes.reserve(class_count);
    for (std::size_t i = 0; i < class_count; ++i) {
        classes.push_back(cursor.get_i32());
    }
    const std::size_t machine_count = get_count(cursor, "svm machines");
    std::vector<ml::MulticlassSvm::PairMachine> machines;
    machines.reserve(machine_count);
    for (std::size_t m = 0; m < machine_count; ++m) {
        const int positive = cursor.get_i32();
        const int negative = cursor.get_i32();
        const std::size_t width = get_count(cursor, "machine width");
        const std::size_t sv_count = get_count(cursor, "support vectors");
        ensure(width >= 1 && sv_count >= 1,
               "load_model: empty pair machine");
        // get_f64_array bounds-checks against the remaining bytes, so a
        // lying sv_count cannot allocate past the section.
        std::vector<double> svs =
            cursor.get_f64_array(sv_count * width, "support vectors");
        std::vector<double> alphas =
            cursor.get_f64_array(sv_count, "alphas");
        const double bias = cursor.get_f64();
        machines.push_back(
            {positive, negative,
             ml::BinarySvm::restore(config, width, std::move(svs),
                                    std::move(alphas), bias)});
    }
    ensure(cursor.exhausted(), "load_model: trailing bytes in SVMC");
    // restore() re-validates class ordering, pair coverage, and widths.
    return ml::MulticlassSvm::restore(config, std::move(classes),
                                      std::move(machines));
}

}  // namespace

// --- writer -------------------------------------------------------------

namespace {

/// The temp file save_model_file() writes before renaming it over its
/// target. Closes the descriptor and, unless `name` was cleared after
/// the rename, removes the file, on every exit.
struct TempFile {
    std::string name;
    int fd = -1;

    TempFile() = default;
    TempFile(const TempFile&) = delete;
    TempFile& operator=(const TempFile&) = delete;
    ~TempFile() {
        if (fd >= 0) {
            ::close(fd);
        }
        if (!name.empty()) {
            ::unlink(name.c_str());
        }
    }
};

/// Throws the save_model_file error for `what` on `file`, with errno's
/// text.
[[noreturn]] void fail_save(const char* what, const std::string& file) {
    const int code = errno;
    fail(std::string("save_model_file: ") + what + " " + file + ": " +
         std::strerror(code));
}

}  // namespace

void save_model(std::ostream& stream, const TrainedModel& model) {
    model.validate();

    using Encoder = void (*)(ByteWriter&, const TrainedModel&);
    constexpr Encoder kEncoders[] = {encode_meta, encode_calib,
                                     encode_scaler, encode_svm};
    std::vector<unsigned char> payload;
    ByteWriter records(payload);
    std::vector<unsigned char> body;
    for (std::size_t i = 0; i < std::size(kEncoders); ++i) {
        body.clear();
        ByteWriter body_writer(body);
        kEncoders[i](body_writer, model);
        const std::size_t mark = records.size();
        records.u32(kSectionOrder[i]);
        records.u64(body.size());
        records.bytes(body.data(), body.size());
        records.crc32_since(mark);
    }

    std::vector<unsigned char> header;
    header.reserve(kHeaderBytes);
    ByteWriter head(header);
    head.u32(kMagic);
    head.u32(kModelCurrentVersion);
    head.u32(binio::kByteOrderMarker);
    head.u32(static_cast<std::uint32_t>(std::size(kEncoders)));
    head.u64(payload.size());
    head.crc32_since(0);

    stream.write(reinterpret_cast<const char*>(header.data()),
                 static_cast<std::streamsize>(header.size()));
    stream.write(reinterpret_cast<const char*>(payload.data()),
                 static_cast<std::streamsize>(payload.size()));
    ensure(static_cast<bool>(stream), "save_model: stream failure");
}

void save_model_file(const std::filesystem::path& path,
                     const TrainedModel& model) {
    std::ostringstream buffer;
    save_model(buffer, model);
    const std::string bytes = buffer.str();

    // Publish atomically: write a temp file beside `path`, make it
    // durable, then rename it over `path`. A concurrent reader (a daemon
    // swapping to this path) opens either the old file or the new one,
    // never a half-written one.
    static std::atomic<std::uint64_t> counter{0};
    const std::string stem = path.string() + ".tmp." +
                             std::to_string(::getpid()) + ".";
    TempFile temp;
    for (int attempt = 0; temp.fd < 0 && attempt < 16; ++attempt) {
        temp.name = stem + std::to_string(counter.fetch_add(1));
        temp.fd = ::open(temp.name.c_str(),
                         O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
        if (temp.fd < 0 && errno != EEXIST) {
            break;
        }
    }
    if (temp.fd < 0) {
        // The name is not ours to remove.
        fail_save("cannot open", std::exchange(temp.name, {}));
    }
    for (std::size_t written = 0; written < bytes.size();) {
        const ssize_t n = ::write(temp.fd, bytes.data() + written,
                                  bytes.size() - written);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            fail_save("write failure on", temp.name);
        }
        written += static_cast<std::size_t>(n);
    }
    if (::fsync(temp.fd) != 0) {
        fail_save("fsync failure on", temp.name);
    }
    const int closed = ::close(std::exchange(temp.fd, -1));
    if (closed != 0) {
        fail_save("close failure on", temp.name);
    }
    if (::rename(temp.name.c_str(), path.c_str()) != 0) {
        fail_save("cannot rename over", path.string());
    }
    temp.name.clear();
}

// --- reader -------------------------------------------------------------

TrainedModel load_model(std::istream& stream, ModelInfo* info) {
    std::ostringstream buffer;
    buffer << stream.rdbuf();
    const std::string bytes = buffer.str();
    ensure(!stream.bad(), "load_model: stream failure");
    const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());

    ensure(bytes.size() >= kHeaderBytes, "load_model: truncated header");
    ByteCursor file({data, bytes.size()}, "load_model:");
    ByteCursor header = file.take(kHeaderBytes, "header");
    ensure(header.get_u32() == kMagic,
           "load_model: not a wimi.model file (bad magic)");
    const std::uint32_t version = header.get_u32();
    ensure(version == kModelVersion1,
           "load_model: unsupported wimi.model version " +
               std::to_string(version));
    ensure(header.get_u32() == binio::kByteOrderMarker,
           "load_model: byte-order marker mismatch");
    const std::uint32_t section_count = header.get_u32();
    const std::uint64_t payload_bytes = header.get_u64();
    ensure(binio::crc_trailer_ok({data, kHeaderBytes}),
           "load_model: header checksum mismatch");
    ensure(section_count == 4,
           "load_model: v1 requires exactly 4 sections");
    ensure(payload_bytes == file.remaining(),
           "load_model: payload size mismatch (truncated or trailing "
           "bytes)");

    MetaSection meta;
    CalibSection calib;
    ml::StandardScaler scaler;
    ml::MulticlassSvm svm;

    for (std::size_t s = 0; s < section_count; ++s) {
        ensure(file.remaining() >= kSectionFrameBytes,
               "load_model: truncated section header");
        const std::size_t offset = bytes.size() - file.remaining();
        const std::uint32_t id = file.get_u32();
        const std::uint64_t body_bytes = file.get_u64();
        ensure(id == kSectionOrder[s],
               "load_model: unexpected section id or section order");
        ensure(file.remaining() - 4 >= body_bytes,
               "load_model: truncated section body");
        ensure(binio::crc_trailer_ok(
                   {data + offset, kSectionFrameBytes +
                                       static_cast<std::size_t>(body_bytes)}),
               "load_model: section checksum mismatch");
        ByteCursor body = file.take(body_bytes, "section body");
        file.get_u32();  // the CRC trailer checked above
        switch (id) {
            case kSectionMeta:
                meta = decode_meta(body);
                break;
            case kSectionCalib:
                calib = decode_calib(body);
                break;
            case kSectionScaler:
                scaler = decode_scaler(body);
                break;
            case kSectionSvm:
                svm = decode_svm(body);
                break;
        }
    }
    ensure(file.exhausted(), "load_model: trailing bytes");

    TrainedModel model;
    model.feature = calib.feature;
    model.pairs = std::move(calib.pairs);
    model.subcarriers = std::move(calib.subcarriers);
    model.class_names = std::move(meta.class_names);
    model.scaler = std::move(scaler);
    model.svm = std::move(svm);
    ensure(model.feature_width() == meta.feature_width,
           "load_model: META feature width disagrees with scaler");
    model.validate();

    if (info != nullptr) {
        info->version = version;
        info->file_bytes = bytes.size();
        info->digest =
            hex64(fnv1a64(bytes.data(), bytes.size(), kFnvOffset));
        info->feature_width = model.feature_width();
        info->class_count = model.class_names.size();
        info->pair_count = model.pairs.size();
        info->subcarrier_count = model.subcarriers.size();
        info->machine_count = model.svm.machines().size();
        info->support_vector_total = 0;
        for (const auto& machine : model.svm.machines()) {
            info->support_vector_total += machine.svm.alphas().size();
        }
    }
    return model;
}

TrainedModel load_model_file(const std::filesystem::path& path,
                             ModelInfo* info) {
    std::ifstream in(path, std::ios::binary);
    ensure(in.is_open(), "load_model_file: cannot open " + path.string());
    return load_model(in, info);
}

std::string model_file_digest(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    ensure(in.is_open(),
           "model_file_digest: cannot open " + path.string());
    std::uint64_t state = kFnvOffset;
    char chunk[4096];
    while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
        state = fnv1a64(chunk, static_cast<std::size_t>(in.gcount()),
                        state);
        if (in.eof()) {
            break;
        }
    }
    ensure(!in.bad(), "model_file_digest: read failure");
    return hex64(state);
}

}  // namespace wimi::serve
