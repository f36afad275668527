// BID and RANDOM baselines: whole-job offloading over the sphere.
//
// BID reconstructs the focused-addressing + bidding family the paper cites
// ([4] Cheng–Stankovic–Ramamritham, [10] Ramamritham et al.): when the
// local test fails, the initiator requests bids (surpluses) from its sphere
// members, then offers the *entire* DAG to the best bidders in turn (up to
// max_attempts); each contacted site runs its own §5 local test and either
// commits or refuses. RANDOM replaces bid collection with a single uniform
// random pick. Neither partitions the DAG across sites — that is exactly
// the capability RTDS adds.
//
// Both run on BaselineDriver (baseline/driver.hpp), shared with BCAST: it
// posts their faults and arrivals as typed events and fixes each committed
// job's completion at commit.
#pragma once

#include <cstdint>
#include <vector>

#include "core/metrics.hpp"
#include "core/workload.hpp"
#include "fault/fault.hpp"
#include "sched/local_scheduler.hpp"

namespace rtds {

enum class OffloadPolicy {
  kBestSurplus,  ///< BID: collect all bids, try best surplus first
  kRandom,       ///< RANDOM: one uniformly random sphere member
};

const char* to_string(OffloadPolicy policy);

struct OffloadConfig {
  std::size_t sphere_radius_h = 2;
  LocalSchedulerConfig sched;
  OffloadPolicy policy = OffloadPolicy::kBestSurplus;
  std::size_t max_attempts = 3;  ///< BID: offers before giving up
  std::uint64_t seed = 7;        ///< RANDOM pick stream
  /// Execution-plane faults (DESIGN.md §9): arrivals at / offers to a dead
  /// site fail, a crash loses the site's unfinished jobs, and the control
  /// plane stays reliable (a dead site's RPC layer reports refusal instead
  /// of hanging the caller). Empty reproduces the faultless run bit for bit.
  fault::FaultPlan faults;
};

/// Event-driven run over the simulated network (message costs and transit
/// times are real, like RTDS's). Fills the common RunMetrics schema.
RunMetrics run_offload(const Topology& topo,
                       const std::vector<JobArrival>& arrivals,
                       const OffloadConfig& cfg);

}  // namespace rtds
