// The benchmark's workloads. An untraced run sets up the workload's
// inputs from the seed, measures for Args::seconds, checks every answer,
// and records the end-to-end metrics in the Report. A traced run of
// either workload measures every layer (run_traced_layers); the workload
// names the root spans that trace.* is taken from.
#pragma once

#include "common.hpp"
#include "fixture.hpp"
#include "spans.hpp"

namespace perfbench {

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

void run_identify_workload(const Args& args, Report& report);
void run_stream_workload(const Args& args, Report& report);

/// The traced run: every per-layer metric, from `fixture`'s model trained
/// on the seed. Root spans, trace.residual_share and trace.overhead_share
/// come from the identify path on batch_identify and from the stream path
/// on stream_tail.
void run_traced_layers(const Args& args, Report& report);

/// exec.scaling from the batch_identify corpus for about `seconds`; with
/// `root_spans` also the identify.pair spans, trace.overhead_share and
/// trace.residual_share.
void run_identify_layers(const Args& args, const Fixture& fixture,
                         double seconds, bool root_spans, Report& report);

/// stream.* and ml.drift_gated_windows from replays of the stream_tail
/// file for about `seconds`; with `root_spans` also the stream.frame
/// spans, trace.overhead_share and trace.residual_share.
void run_stream_layers(const Args& args, const Fixture& fixture,
                       double seconds, bool root_spans, Report& report);

/// The serve layer's per-layer figures (queue wait, batch, transport,
/// generator lateness, daemon counters) from a wimi_serve child serving
/// four fixed sensors with `fixture`'s model for about `seconds`.
void run_daemon_layers(const Args& args, const Fixture& fixture,
                       double seconds, Report& report);

/// Times single calls into each layer's public functions on inputs
/// simulated from the seed, on the calling thread, and records the
/// *_us (median per call) and *_allocs (exact per call) metrics.
void run_layer_probes(const Args& args, const Fixture& fixture,
                      Report& report);

/// Records trace.residual_share and writes the spans of a traced run to
/// <root>/.bench_runs/traces/<workload>-seed<seed>.trace.json.
void finish_trace(const Args& args, const SpanRecorder& spans,
                  Report& report);

}  // namespace perfbench
