// Open-system run driver: streams an ArrivalSource into RtdsSystem (lazy,
// bounded memory) or — for the five baseline families, which only speak the
// closed Policy API — drains the duration prefix and runs it as a batch.
#pragma once

#include "core/rtds_system.hpp"
#include "load/source.hpp"
#include "load/window.hpp"
#include "policy/policy.hpp"

namespace rtds::load {

struct OpenConfig {
  Time duration = 600.0;  ///< arrivals with release >= duration are not drawn
  WindowConfig window;
  double knee_factor = 4.0;        ///< p99 divergence multiple (see window.hpp)
  std::uint64_t knee_min_count = 20;  ///< completions a window needs to count

  // --- checkpoint / resume (snap/, DESIGN.md §14) ---
  /// Periodically Snapshot::save_file the full run state (system, arrival
  /// generator, steady-state windows, obs metrics buffer if one is
  /// installed) to this path. Empty = off; turning it on changes no
  /// simulation bytes (pinned by tests/snapshot_test.cpp).
  std::string checkpoint_path;
  /// Events between checkpoints when checkpoint_path is set (0 = only the
  /// stepping chunk changes, no periodic saves).
  std::uint64_t checkpoint_every = 100'000;
  /// Restore checkpoint_path before stepping instead of starting the
  /// stream from scratch. The source/topology/params must match the saved
  /// run (enforced by the snapshot's config hash).
  bool resume = false;
};

struct OpenRunResult {
  RunMetrics metrics;
  SteadySummary steady;
  std::vector<WindowCell> windows;
};

/// Streams the source into an RtdsSystem built from the rtds ParamMap keys
/// (policy/rtds_params.hpp — same keys as `--policy=rtds`, including
/// shed.* and faults.*). At most one un-fired arrival is held at a time;
/// measurement memory is O(windows), not O(jobs).
OpenRunResult run_open_rtds(const Topology& topo, ArrivalSource& source,
                            const OpenConfig& cfg,
                            const policy::ParamMap& params);

/// Closed-API bridge for the other policy families: materializes only the
/// duration prefix (drain) and runs it as one batch. No windowed summary —
/// those policies have no streaming observer hooks.
RunMetrics run_open_policy(const policy::Policy& pol, const Topology& topo,
                           ArrivalSource& source, Time duration,
                           const policy::ParamMap& params);

/// Process-global duration override for scenario trials (the rtds_exp
/// `--scenario=e9_steady_state --duration=T` path — trial functions are
/// pure data, so the CLI has no per-trial channel; precedent:
/// fault::set_check_invariants). <= 0 clears the override. The parallel
/// sweep and the --verify re-run read it identically, so verification
/// compares like with like.
void set_scenario_duration(Time duration);
/// The override when set, else `fallback` (the scenario's built-in length).
Time scenario_duration(Time fallback);

}  // namespace rtds::load
