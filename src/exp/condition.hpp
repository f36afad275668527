// Experiment conditions: a topology family × workload family bound to one
// concrete (topology, arrivals) pair by a seed.
//
// This is the declarative half of a ScenarioSpec trial: scenario trial
// functions bind grid-point values into a ConditionSpec, call
// make_condition with the trial's derived seed, and run whichever
// schedulers the experiment compares. Scenarios, tests and the rtds_exp
// CLI share this one definition.
#pragma once

#include <vector>

#include "core/rtds_system.hpp"
#include "net/generators.hpp"

namespace rtds::exp {

/// One experiment condition: a topology plus a workload on it.
struct Condition {
  Topology topo;
  std::vector<JobArrival> arrivals;
};

struct ConditionSpec {
  NetShape net = NetShape::kGrid;
  std::size_t sites = 64;
  double delay_min = 0.5, delay_max = 2.0;
  double rate = 0.02;
  Time horizon = 1500.0;
  double laxity_min = 2.0, laxity_max = 6.0;
  std::size_t min_tasks = 4, max_tasks = 12;
  std::uint64_t seed = 42;
  /// Arrival-process knobs (previously only reachable by hand-building a
  /// WorkloadConfig): MMPP burstiness and the deadline base. Defaults
  /// match WorkloadConfig, so untouched specs generate identical bytes.
  ArrivalProcess process = ArrivalProcess::kPoisson;
  Time burst_on_mean = 50.0;
  Time burst_off_mean = 200.0;
  double burst_multiplier = 6.0;
  DeadlineModel deadline_model = DeadlineModel::kCriticalPath;
};

/// The topology half of make_condition (same Rng(seed) draw order, so the
/// returned topology is bit-identical to make_condition(spec).topo).
Topology make_topology(const ConditionSpec& spec);

/// The workload half of make_condition: the WorkloadConfig a spec implies.
WorkloadConfig workload_config(const ConditionSpec& spec);

Condition make_condition(const ConditionSpec& spec);

RunMetrics run_rtds(const Condition& c, const SystemConfig& cfg);

/// The two workload regimes discussed throughout EXPERIMENTS.md: generous
/// windows over expensive links (cooperation as offloading) vs windows
/// tighter than total work over cheap links (cooperation as partitioning).
ConditionSpec offload_regime();
ConditionSpec parallel_regime();

}  // namespace rtds::exp
