// wimi_obs — inspect and validate the observability streams.
//
// The telemetry plane emits four machine-readable streams: wimi.log.v1
// JSONL (structured logger), wimi.metrics.v1 (batch report or exporter
// time-series JSONL), wimi.run.v1 JSONL (run ledger), and the Chrome
// trace_event document. This tool answers "is the stream well-formed and
// causally consistent?" from the command line:
//
//   wimi_obs tail <stream.jsonl> [-n N]    pretty-print the last N records
//   wimi_obs summarize <stream.jsonl>      per-schema digest: line counts,
//                                          level/component breakdown,
//                                          exporter seq monotonicity, and
//                                          the serve.daemon.* family from
//                                          the newest metrics snapshot
//   wimi_obs export-prom <metrics.json>    Prometheus text exposition of a
//                                          wimi.metrics.v1 document (for
//                                          JSONL: the newest snapshot)
//   wimi_obs flight <flight.jsonl>         pretty-print a wimi.flight.v1
//                                          flight-recorder dump with a
//                                          per-outcome summary
//   wimi_obs trace-check <trace.json>...   validate trace parent/child
//            [--log log.jsonl]             integrity: every span's parent
//            [--require-worker-spans]      must exist in the same trace.
//            [--require-shared-trace]      Accepts several trace files
//                                          (e.g. client + daemon exports);
//                                          span/trace ids are global but
//                                          worker tids are scoped to the
//                                          file they came from, so traces
//                                          from different processes merge
//                                          safely. --require-shared-trace
//                                          demands at least one trace id
//                                          appear in two different files —
//                                          the cross-process propagation
//                                          proof.
//
// Exit codes: 0 = ok, 1 = validation failure, 2 = usage.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "obs/exporter.hpp"
#include "obs/json.hpp"

namespace {

using namespace wimi;

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    ensure(in.is_open(), "wimi_obs: cannot open " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos) {
            end = text.size();
        }
        if (end > start) {
            lines.push_back(text.substr(start, end - start));
        }
        start = end + 1;
    }
    return lines;
}

std::string schema_of(const obs::json::Value& doc) {
    const obs::json::Value* schema = doc.find("schema");
    if (schema != nullptr && schema->is_string()) {
        return schema->string;
    }
    if (doc.find("traceEvents") != nullptr) {
        return "chrome.trace";
    }
    return "(unknown)";
}

/// Parses every line of a JSONL stream; throws with the offending line
/// number on malformed input.
std::vector<obs::json::Value> parse_stream(
    const std::vector<std::string>& lines) {
    std::vector<obs::json::Value> docs;
    docs.reserve(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        try {
            docs.push_back(obs::json::parse(lines[i]));
        } catch (const std::exception& e) {
            fail("wimi_obs: line " + std::to_string(i + 1) +
                 " is not valid JSON: " + e.what());
        }
    }
    return docs;
}

std::string format_number(double value) {
    std::string out = obs::json::number(value);
    return out;
}

/// One log record as a human line:
///   [warn ] 1234.5us csi.trace: frame CRC mismatch {frame:17} trace=3
std::string format_log_line(const obs::json::Value& doc) {
    const auto member_string = [&](const char* key) -> std::string {
        const obs::json::Value* v = doc.find(key);
        return v != nullptr && v->is_string() ? v->string : "";
    };
    std::string out = "[";
    out += member_string("level");
    out += "] ";
    if (const obs::json::Value* ts = doc.find("ts_us");
        ts != nullptr && ts->is_number()) {
        out += format_number(ts->num) + "us ";
    }
    out += member_string("component") + ": " + member_string("msg");
    if (const obs::json::Value* fields = doc.find("fields");
        fields != nullptr && fields->is_object()) {
        out += " {";
        bool first = true;
        for (const auto& [key, value] : fields->object) {
            if (!first) {
                out += ", ";
            }
            first = false;
            out += key + ":";
            if (value.is_string()) {
                out += value.string;
            } else if (value.is_number()) {
                out += format_number(value.num);
            } else if (value.kind == obs::json::Value::Kind::kBool) {
                out += value.boolean ? "true" : "false";
            } else {
                out += "null";
            }
        }
        out += "}";
    }
    if (const obs::json::Value* trace = doc.find("trace");
        trace != nullptr && trace->is_number()) {
        out += " trace=" + format_number(trace->num);
    }
    if (const obs::json::Value* thread = doc.find("thread");
        thread != nullptr && thread->is_string()) {
        out += " @" + thread->string;
    }
    return out;
}

int cmd_tail(const std::string& path, std::size_t n) {
    const auto lines = split_lines(read_file(path));
    const auto docs = parse_stream(lines);
    const std::size_t start = docs.size() > n ? docs.size() - n : 0;
    for (std::size_t i = start; i < docs.size(); ++i) {
        if (schema_of(docs[i]) == "wimi.log.v1") {
            std::cout << format_log_line(docs[i]) << '\n';
        } else {
            std::cout << lines[i] << '\n';
        }
    }
    return 0;
}

int cmd_summarize(const std::string& path) {
    const auto lines = split_lines(read_file(path));
    const auto docs = parse_stream(lines);

    std::map<std::string, std::size_t> per_schema;
    std::map<std::string, std::size_t> per_level;
    std::map<std::string, std::size_t> per_component;
    std::set<std::string> runs;
    std::set<double> traces;
    std::vector<double> seqs;
    const obs::json::Value* latest_metrics = nullptr;

    for (const auto& doc : docs) {
        const std::string schema = schema_of(doc);
        per_schema[schema] += 1;
        if (schema == "wimi.log.v1") {
            if (const auto* level = doc.find("level");
                level != nullptr && level->is_string()) {
                per_level[level->string] += 1;
            }
            if (const auto* component = doc.find("component");
                component != nullptr && component->is_string()) {
                per_component[component->string] += 1;
            }
            if (const auto* run = doc.find("run");
                run != nullptr && run->is_string()) {
                runs.insert(run->string);
            }
            if (const auto* trace = doc.find("trace");
                trace != nullptr && trace->is_number()) {
                traces.insert(trace->num);
            }
        } else if (schema == "wimi.metrics.v1") {
            latest_metrics = &doc;
            if (const auto* seq = doc.find("seq");
                seq != nullptr && seq->is_number()) {
                seqs.push_back(seq->num);
            }
        }
    }

    std::cout << path << ": " << docs.size() << " records\n";
    for (const auto& [schema, count] : per_schema) {
        std::cout << "  " << schema << ": " << count << '\n';
    }
    if (!per_level.empty()) {
        std::cout << "  log levels:";
        for (const auto& [level, count] : per_level) {
            std::cout << ' ' << level << '=' << count;
        }
        std::cout << "\n  components:";
        for (const auto& [component, count] : per_component) {
            std::cout << ' ' << component << '=' << count;
        }
        std::cout << "\n  runs: " << runs.size()
                  << "  traces: " << traces.size() << '\n';
    }
    if (!seqs.empty()) {
        bool monotonic = true;
        for (std::size_t i = 1; i < seqs.size(); ++i) {
            if (seqs[i] <= seqs[i - 1]) {
                monotonic = false;
            }
        }
        std::cout << "  exporter snapshots: " << seqs.size() << " (seq "
                  << format_number(seqs.front()) << ".."
                  << format_number(seqs.back()) << ", "
                  << (monotonic ? "strictly increasing"
                                : "NOT strictly increasing")
                  << ")\n";
        if (!monotonic) {
            std::cerr << "wimi_obs: exporter sequence numbers are not "
                         "strictly increasing\n";
            return 1;
        }
    }
    // The serving plane's metric family, from the newest snapshot in the
    // stream: DaemonStats-mirroring counters plus the latency histograms.
    if (latest_metrics != nullptr) {
        constexpr std::string_view kPrefix = "serve.daemon.";
        std::string counter_line;
        if (const auto* counters = latest_metrics->find("counters");
            counters != nullptr && counters->is_object()) {
            for (const auto& [name, value] : counters->object) {
                if (name.rfind(kPrefix, 0) == 0 && value.is_number()) {
                    counter_line += ' ' + name.substr(kPrefix.size()) +
                                    '=' + format_number(value.num);
                }
            }
        }
        if (const auto* gauges = latest_metrics->find("gauges");
            gauges != nullptr && gauges->is_object()) {
            for (const auto& [name, value] : gauges->object) {
                if (name.rfind(kPrefix, 0) == 0 && value.is_number()) {
                    counter_line += ' ' + name.substr(kPrefix.size()) +
                                    '=' + format_number(value.num);
                }
            }
        }
        if (!counter_line.empty()) {
            std::cout << "  serve.daemon counters:" << counter_line
                      << '\n';
        }
        if (const auto* histograms = latest_metrics->find("histograms");
            histograms != nullptr && histograms->is_object()) {
            for (const auto& [name, summary] : histograms->object) {
                if (name.rfind(kPrefix, 0) != 0 || !summary.is_object()) {
                    continue;
                }
                const auto stat = [&](const char* key) -> std::string {
                    const obs::json::Value* v = summary.find(key);
                    return v != nullptr && v->is_number()
                               ? format_number(v->num)
                               : "?";
                };
                std::cout << "  " << name << ": count=" << stat("count")
                          << " p50=" << stat("p50")
                          << " p95=" << stat("p95")
                          << " max=" << stat("max") << '\n';
            }
        }
    }
    return 0;
}

/// Pretty-prints a wimi.flight.v1 flight-recorder dump (one record per
/// line) and closes with a per-outcome tally.
int cmd_flight(const std::string& path) {
    const auto lines = split_lines(read_file(path));
    const auto docs = parse_stream(lines);
    std::map<std::string, std::size_t> per_outcome;
    std::size_t records = 0;
    std::size_t sampled = 0;
    for (std::size_t i = 0; i < docs.size(); ++i) {
        ensure(schema_of(docs[i]) == "wimi.flight.v1",
               "wimi_obs: line " + std::to_string(i + 1) +
                   " is not a wimi.flight.v1 record");
        const auto num = [&](const char* key) -> std::string {
            const obs::json::Value* v = docs[i].find(key);
            return v != nullptr && v->is_number() ? format_number(v->num)
                                                  : "?";
        };
        const obs::json::Value* outcome = docs[i].find("outcome");
        const std::string outcome_name =
            outcome != nullptr && outcome->is_string() ? outcome->string
                                                       : "?";
        per_outcome[outcome_name] += 1;
        ++records;
        const obs::json::Value* is_sampled = docs[i].find("sampled");
        const bool keep = is_sampled != nullptr &&
                          is_sampled->kind ==
                              obs::json::Value::Kind::kBool &&
                          is_sampled->boolean;
        sampled += keep ? 1 : 0;
        const obs::json::Value* digest = docs[i].find("digest");
        std::string digest_text =
            digest != nullptr && digest->is_string() ? digest->string
                                                     : "";
        if (digest_text.size() > 12) {
            digest_text.resize(12);
        }
        std::cout << '#' << num("seq") << ' ' << outcome_name
                  << " trace=" << num("trace") << " req=" << num("request")
                  << " queue=" << num("queue_us")
                  << "us e2e=" << num("e2e_us")
                  << "us batch=" << num("batch_size")
                  << (keep ? " sampled" : "")
                  << (digest_text.empty() ? ""
                                          : " digest=" + digest_text)
                  << '\n';
    }
    std::cout << path << ": " << records << " flight records (";
    bool first = true;
    for (const auto& [outcome_name, count] : per_outcome) {
        if (!first) {
            std::cout << ", ";
        }
        first = false;
        std::cout << outcome_name << '=' << count;
    }
    std::cout << (per_outcome.empty() ? "empty)" : ")") << ", " << sampled
              << " sampled\n";
    return 0;
}

int cmd_export_prom(const std::string& path) {
    const std::string text = read_file(path);
    // A batch report is one document; exporter output is JSONL — use the
    // newest snapshot.
    obs::json::Value doc;
    try {
        doc = obs::json::parse(text);
    } catch (const std::exception&) {
        const auto lines = split_lines(text);
        ensure(!lines.empty(), "wimi_obs: empty metrics stream " + path);
        doc = obs::json::parse(lines.back());
    }
    std::cout << obs::prometheus_from_metrics_json(doc);
    return 0;
}

struct SpanRecord {
    double trace_id = 0.0;
    double parent = 0.0;
    std::uint32_t tid = 0;
    std::size_t file = 0;  ///< which trace file the span came from
    std::string name;
};

int cmd_trace_check(const std::vector<std::string>& trace_paths,
                    const std::string& log_path,
                    bool require_worker_spans,
                    bool require_shared_trace) {
    // Span and trace ids are drawn from per-process random bases, so
    // merging exports from different processes is safe — but OS thread
    // ids are NOT unique across processes, so worker-tid membership is
    // scoped to the file a span came from.
    std::vector<std::set<std::uint32_t>> worker_tids_per_file(
        trace_paths.size());
    std::map<double, SpanRecord> spans;  // span id -> record
    std::map<double, std::set<std::size_t>> trace_files;
    for (std::size_t file = 0; file < trace_paths.size(); ++file) {
        const std::string& trace_path = trace_paths[file];
        const obs::json::Value doc =
            obs::json::parse(read_file(trace_path));
        const obs::json::Value* events = doc.find("traceEvents");
        ensure(events != nullptr && events->is_array(),
               "wimi_obs: not a Chrome trace document: " + trace_path);

        // Pool workers are the threads the exec pool named
        // "exec.worker.<k>" via thread_name metadata events.
        std::set<std::uint32_t>& worker_tids = worker_tids_per_file[file];
        for (const obs::json::Value& event : events->array) {
            const obs::json::Value* ph = event.find("ph");
            if (ph == nullptr || !ph->is_string()) {
                continue;
            }
            const obs::json::Value* tid = event.find("tid");
            if (ph->string == "M") {
                const obs::json::Value* name = event.find("name");
                const obs::json::Value* args = event.find("args");
                if (name != nullptr && name->string == "thread_name" &&
                    args != nullptr && tid != nullptr) {
                    const obs::json::Value* thread_name =
                        args->find("name");
                    if (thread_name != nullptr &&
                        thread_name->string.rfind("exec.worker.", 0) ==
                            0) {
                        worker_tids.insert(
                            static_cast<std::uint32_t>(tid->num));
                    }
                }
                continue;
            }
            if (ph->string != "X") {
                continue;
            }
            const obs::json::Value* args = event.find("args");
            ensure(args != nullptr && args->is_object(),
                   "wimi_obs: span without args");
            const obs::json::Value* span = args->find("span");
            const obs::json::Value* trace = args->find("trace");
            const obs::json::Value* parent = args->find("parent");
            ensure(span != nullptr && span->is_number() &&
                       trace != nullptr && trace->is_number() &&
                       parent != nullptr && parent->is_number(),
                   "wimi_obs: span missing trace/span/parent ids (old "
                   "export?)");
            SpanRecord record;
            record.trace_id = trace->num;
            record.parent = parent->num;
            record.tid =
                tid != nullptr ? static_cast<std::uint32_t>(tid->num) : 0;
            record.file = file;
            record.name = event.find("name")->string;
            spans.emplace(span->num, record);
            trace_files[trace->num].insert(file);
        }
    }

    std::size_t errors = 0;
    std::size_t worker_spans = 0;
    for (const auto& [span_id, record] : spans) {
        const bool from_worker =
            worker_tids_per_file[record.file].count(record.tid) != 0;
        worker_spans += from_worker ? 1 : 0;
        if (record.parent == 0.0) {
            // A root span is fine on the submitting thread; a pool-worker
            // span with no parent means context propagation was lost.
            if (from_worker) {
                std::cerr << "trace-check: worker span "
                          << format_number(span_id) << " (" << record.name
                          << ") has no parent\n";
                ++errors;
            }
            continue;
        }
        const auto parent_it = spans.find(record.parent);
        if (parent_it == spans.end()) {
            std::cerr << "trace-check: span " << format_number(span_id)
                      << " (" << record.name << ") references missing "
                      << "parent " << format_number(record.parent) << '\n';
            ++errors;
        } else if (parent_it->second.trace_id != record.trace_id) {
            std::cerr << "trace-check: span " << format_number(span_id)
                      << " (" << record.name << ") and its parent are in "
                      << "different traces\n";
            ++errors;
        }
    }
    if (require_worker_spans && worker_spans == 0) {
        std::cerr << "trace-check: no spans from pool workers found "
                     "(--require-worker-spans)\n";
        ++errors;
    }
    std::size_t shared_traces = 0;
    for (const auto& [trace_id, files] : trace_files) {
        shared_traces += files.size() > 1 ? 1 : 0;
    }
    if (require_shared_trace && shared_traces == 0) {
        std::cerr << "trace-check: no trace id appears in more than one "
                     "trace file (--require-shared-trace)\n";
        ++errors;
    }

    // The log stream has no file scoping — match its tids against the
    // union of worker tids (the log normally comes from one of the
    // traced processes).
    std::set<std::uint32_t> all_worker_tids;
    for (const auto& tids : worker_tids_per_file) {
        all_worker_tids.insert(tids.begin(), tids.end());
    }
    std::size_t worker_log_lines = 0;
    if (!log_path.empty()) {
        std::set<double> trace_ids;
        for (const auto& [span_id, record] : spans) {
            trace_ids.insert(record.trace_id);
        }
        const auto lines = split_lines(read_file(log_path));
        const auto docs = parse_stream(lines);
        for (std::size_t i = 0; i < docs.size(); ++i) {
            if (schema_of(docs[i]) != "wimi.log.v1") {
                continue;
            }
            const obs::json::Value* tid = docs[i].find("tid");
            const bool from_worker =
                tid != nullptr && tid->is_number() &&
                all_worker_tids.count(
                    static_cast<std::uint32_t>(tid->num)) != 0;
            if (!from_worker) {
                continue;
            }
            ++worker_log_lines;
            const obs::json::Value* trace = docs[i].find("trace");
            if (trace == nullptr || !trace->is_number()) {
                std::cerr << "trace-check: worker log line "
                          << (i + 1) << " carries no trace id\n";
                ++errors;
            } else if (trace_ids.count(trace->num) == 0) {
                std::cerr << "trace-check: worker log line " << (i + 1)
                          << " references unknown trace "
                          << format_number(trace->num) << '\n';
                ++errors;
            }
        }
    }

    std::cout << "trace-check: " << spans.size() << " spans in "
              << trace_paths.size() << " files (" << worker_spans
              << " from " << all_worker_tids.size() << " pool workers, "
              << shared_traces << " cross-file traces), ";
    if (!log_path.empty()) {
        std::cout << worker_log_lines << " worker log lines, ";
    }
    std::cout << errors << " errors\n";
    return errors == 0 ? 0 : 1;
}

int usage() {
    std::cerr
        << "usage:\n"
        << "  wimi_obs tail <stream.jsonl> [-n N]\n"
        << "  wimi_obs summarize <stream.jsonl>\n"
        << "  wimi_obs export-prom <metrics.json | telemetry.jsonl>\n"
        << "  wimi_obs flight <flight.jsonl>\n"
        << "  wimi_obs trace-check <trace.json>... [--log log.jsonl]"
        << " [--require-worker-spans] [--require-shared-trace]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 3) {
        return usage();
    }
    const std::string_view command = argv[1];
    const std::string path = argv[2];
    try {
        if (command == "tail") {
            std::size_t n = 10;
            if (argc == 5 && std::string_view(argv[3]) == "-n") {
                n = parse_uint_flag("-n", argv[4]);
            } else if (argc != 3) {
                return usage();
            }
            return cmd_tail(path, n);
        }
        if (command == "summarize") {
            return cmd_summarize(path);
        }
        if (command == "export-prom") {
            return cmd_export_prom(path);
        }
        if (command == "flight") {
            return cmd_flight(path);
        }
        if (command == "trace-check") {
            std::vector<std::string> trace_paths{path};
            std::string log_path;
            bool require_worker_spans = false;
            bool require_shared_trace = false;
            for (int i = 3; i < argc; ++i) {
                const std::string_view flag = argv[i];
                if (flag == "--log" && i + 1 < argc) {
                    log_path = argv[++i];
                } else if (flag == "--require-worker-spans") {
                    require_worker_spans = true;
                } else if (flag == "--require-shared-trace") {
                    require_shared_trace = true;
                } else if (!flag.empty() && flag[0] != '-') {
                    trace_paths.emplace_back(flag);
                } else {
                    return usage();
                }
            }
            return cmd_trace_check(trace_paths, log_path,
                                   require_worker_spans,
                                   require_shared_trace);
        }
        return usage();
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
