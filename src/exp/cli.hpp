// Front-end plumbing the rtds_exp, rtds_cli and rtds_fuzz binaries share:
// the run-setting flags read into a RunContext, and the observability
// flags (DESIGN.md §11) with their output writers.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "core/run_context.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/flags.hpp"

namespace rtds::exp {

/// `--check-invariants` (non-fatal: violations count into the metrics and
/// the obs layer) and `--warm-start`; with `with_duration`, also
/// `--duration=T` (rtds_exp's open-run length).
RunContext run_context_from(const Flags& flags, bool with_duration);

/// `--trace=FILE`, `--metrics=FILE` and `--profile`.
struct ObsFlags {
  std::string trace_file;
  std::string metrics_file;
  bool profile = false;

  /// True when a run needs an obs binding (a trace or metrics file).
  bool want_observation() const {
    return !trace_file.empty() || !metrics_file.empty();
  }
  /// Binds `metrics`, and `trace` under --trace, for one run; nothing
  /// when no file was asked for.
  std::optional<obs::Scope> bind(obs::MetricsBuffer& metrics,
                                 obs::TraceRecorder& trace) const {
    if (!want_observation()) return std::nullopt;
    return std::optional<obs::Scope>(
        std::in_place, &metrics, trace_file.empty() ? nullptr : &trace);
  }
};

/// Reads the observability flags; `--profile` arms a fresh profiler.
ObsFlags parse_obs_flags(const Flags& flags);

/// Merged obs counters as JSONL, one metric per line, name-sorted.
void write_metrics_file(const std::string& path,
                        const obs::MetricsBuffer& metrics);
/// Everything `flags` asked for: the trace file (a FILE ending in .jsonl
/// gets the compact per-event stream, any other name Chrome trace-event
/// JSON for Perfetto), the metrics file, and the profile table on stderr
/// (off the determinism surfaces).
void write_obs_outputs(const ObsFlags& flags,
                       std::span<const obs::TraceRecorder> traces,
                       const obs::MetricsBuffer& metrics);

/// `text` to the `--out` FILE, or to stdout when `path` is empty.
void write_output(const std::string& path, const std::string& text);

}  // namespace rtds::exp
