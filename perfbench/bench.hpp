// Shared declarations of the end-to-end benchmark (perfbench/).
//
// The benchmark links the rtds library and calls only its public entry points:
// RtdsSystem construction, start / start_stream, step_events, finish,
// Policy::run, load::run_open_rtds and the load:: source and collector.
// Per-layer numbers come from timing calls into each layer's public
// functions from these files; nothing inside src/ is instrumented for it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/rtds_system.hpp"
#include "load/source.hpp"
#include "load/window.hpp"
#include "policy/param_map.hpp"

namespace rtds::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median (mean of the middle two for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One reported metric (a BENCHMARK.json end_to_end or per_layer entry).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Events fired per step_events call. Small enough that a run yields
/// hundreds of chunks (the chunk-time p99 needs ten samples beyond it).
inline constexpr std::size_t kChunkEvents = 500;

/// One RtdsSystem run: a topology, the rtds overrides, the decoded
/// SystemConfig (fault plan included) and either a closed arrival list or
/// an open arrival stream.
struct RtdsCase {
  Topology topo;
  policy::ParamMap params;
  SystemConfig cfg;
  std::vector<JobArrival> arrivals;         ///< closed runs
  std::optional<load::ArrivalSpec> stream;  ///< open runs
  Time duration = 0.0;                      ///< open runs: stream length
  load::WindowConfig window;                ///< sojourn windows
};

/// One comparison-family run through Policy::run, on the topology and
/// arrivals of `cell`.
struct BaselineCase {
  std::string family;
  std::size_t cell = 0;
};

struct Workload {
  std::string name;
  std::vector<RtdsCase> cases;
  std::vector<BaselineCase> baselines;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds a workload's inputs from `seed`. Throws on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// In-run probes of the traced pass: the benchmark owns the pull closure
/// and the decision/completion hooks, so it times them directly.
struct Probe {
  double arrival_s = 0.0;
  std::uint64_t arrival_pulls = 0;
  double collector_s = 0.0;
  std::uint64_t collector_calls = 0;
  /// Every arrival the stream handed out (open runs), for the replays.
  std::vector<JobArrival> pulled;
  /// Per-site state read from the live system after finish().
  std::vector<RoutingTable> final_tables;
  std::vector<Time> pcs_eccentricity;
  std::vector<Time> pcs_diameter;
};

struct CaseResult {
  RunMetrics metrics;
  std::string jsonl;  ///< metrics.to_jsonl bytes
  double setup_s = 0.0;
  double wall_s = 0.0;
  /// wall_s in segments: start, each step_events chunk, the last (empty)
  /// step with finish. The same inputs give the same segments.
  std::vector<double> segments_s;
  std::uint64_t events = 0;
  std::vector<load::WindowCell> windows;
};

/// Constructs, starts, steps (kChunkEvents at a time, each chunk timed) and
/// finishes one RtdsSystem. With a probe the pull closure and the hooks are
/// timed too and the live system is inspected after finish().
CaseResult run_case(const RtdsCase& c, Probe* probe = nullptr);

/// The rtds family's own entry point for the same inputs: Policy::run for
/// closed cases, load::run_open_rtds for open ones. Returns its JSONL.
std::string run_reference(const RtdsCase& c, double* p99 = nullptr);

/// Policy::run of a registered family with its default parameters.
RunMetrics run_family(const std::string& name, const Topology& topo,
                      const std::vector<JobArrival>& arrivals);

/// run_family of a baseline case on its cell's inputs.
RunMetrics run_baseline(const Workload& w, const BaselineCase& b);

/// The comparison families of e2_grid, in the paper's table order.
inline const std::vector<std::string>& baseline_families() {
  static const std::vector<std::string> names = {"local", "bid", "random",
                                                 "bcast", "central"};
  return names;
}

/// p99 sojourn of the merged window sketches.
double sojourn_p99(const std::vector<load::WindowCell>& windows);

/// FNV-1a digest of RunMetrics JSONL as 16 hex digits, the form
/// digests.json records.
std::string jsonl_digest(const std::string& jsonl);

/// Arrived jobs of a run that got no decision.
inline std::uint64_t undecided(const RunMetrics& m) {
  const std::uint64_t decided = m.accepted_local + m.accepted_remote + m.rejected;
  return m.arrived > decided ? m.arrived - decided : 0;
}

}  // namespace rtds::perfbench
