// Parallel trial runner.
//
// Expands a scenario's grid × replicates into independent trials, fans
// them across std::thread workers (each trial constructs its own
// RtdsSystem / baseline state inside the trial function — nothing is
// shared), and reduces per-trial metrics into per-grid-point accumulators
// with RunningStat::merge semantics.
//
// Determinism contract (see DESIGN.md): a trial's result depends only on
// (grid point, seed), both pure functions of the trial index; workers
// write results into a pre-sized slot array; reduction then walks the
// slots in trial-index order on the calling thread. Aggregates are
// therefore bit-identical for any worker count, including 1.
#pragma once

#include <cstddef>
#include <vector>

#include "exp/scenario.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace rtds::exp {

/// Per-(grid point, metric) aggregate: moments + exact quantiles over the
/// replicate values (NaN trial values are skipped, leaving count() short).
struct AggregateCell {
  RunningStat stat;
  Samples samples;
};

/// All aggregates of one grid point, in ScenarioSpec::metrics order.
struct AggregateRow {
  GridPoint point;
  std::vector<AggregateCell> cells;  ///< ScenarioSpec::metrics order
};

/// Observability capture for one run (attach via RunOptions::observe).
/// The runner binds an obs::Scope with a private MetricsBuffer (and,
/// unless `record_traces` is off, a private TraceRecorder) around every
/// trial, then reduces in trial-index order: metrics merge into `metrics`
/// (parallel-combine, worker-count invariant) and `traces` holds one
/// recorder per trial, trial order == pid order in the Chrome export.
/// With -DRTDS_OBS=OFF both stay empty and trial output is untouched.
struct RunObservation {
  obs::MetricsBuffer metrics;
  std::vector<obs::TraceRecorder> traces;
  bool record_traces = true;  ///< false: counters only, no event log
};

/// Execution knobs for one run_scenario call.
struct RunOptions {
  std::size_t jobs = 1;        ///< worker threads (1 = serial, in-thread)
  std::size_t replicates = 0;  ///< override; 0 = ScenarioSpec::replicates
  /// Borrowed observability capture, or nullptr (the default: trials run
  /// with no obs binding, so instrumentation costs one TLS load each).
  RunObservation* observe = nullptr;
  /// Handed to every trial: checker mode, warm start (one serialized
  /// bring-up per (topology, h), DESIGN.md §14, bit-identical to cold
  /// trials) and the duration override, which the journal's
  /// sweep-identity hash absorbs when set.
  RunContext context{};
  /// Crash recovery: append every completed trial (values + obs metrics
  /// when observing) to this snap::SweepJournal file. Empty = off.
  std::string journal_path;
  /// With journal_path set: load the journal's completed trials instead of
  /// re-running them, then continue the sweep. The journal must belong to
  /// this exact sweep (scenario, grid, replicates, seed policy, observe
  /// mode, duration override — pinned by its header hash); a missing or
  /// foreign journal throws ContractViolation.
  bool resume = false;
};

/// Runs every trial of `spec` and returns one aggregate row per grid
/// point, in grid order. Exceptions thrown by trial functions propagate
/// (the first one, after all workers have stopped).
std::vector<AggregateRow> run_scenario(const ScenarioSpec& spec,
                                       const RunOptions& opts = {});

/// True iff the two aggregate sets are bit-identical (count, sum, mean,
/// variance, min/max and every stored sample compare exactly). This is the
/// parallel == serial assertion exposed to tests and `rtds_exp --verify`.
bool aggregates_identical(const std::vector<AggregateRow>& a,
                          const std::vector<AggregateRow>& b);

}  // namespace rtds::exp
