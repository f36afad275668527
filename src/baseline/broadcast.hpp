// BCAST baseline: focused addressing driven by *periodic network-wide
// surplus broadcasts* — a reconstruction of the scheme of the paper's
// reference [4] (Cheng–Stankovic–Ramamritham 1986), which the paper
// explicitly criticizes: "Selection of sites is based on the surplus of
// each site that is broadcasted over all the network periodically", hence
// cannot scale to arbitrary wide (unbounded) networks.
//
// Every site periodically sends its surplus to every other site (routed on
// shortest paths, full link-message accounting). A failed local test picks
// the best-surplus site from the (stale) table and offers the whole DAG;
// refusals walk down the table up to max_attempts. Comparing its total
// message budget against RTDS's sphere-bounded budget is experiment E1's
// point; comparing acceptance shows what staleness costs.
//
// A flood is *counted* at send, in full: N−1 routed sends, each charged
// its hops and traced. It is not *simulated* as N−1 delivery events,
// because a copy's only effect is one table store. Each site logs its
// floods instead. An observer's row is brought up to date when it is read
// (at an arrival that ranks it, and at the observer's crash) to every
// copy that landed strictly before the reading instant; a recovery skips
// the copies that landed while the site was down. That is what the event
// queue's (time, seq) order would have delivered (DESIGN.md §9).
//
// It runs on BaselineDriver (baseline/driver.hpp), as BID does: faults and
// arrivals are typed events, a site's flood tick is its ev::StartNext, and a
// committed job's completion is fixed at commit.
#pragma once

#include <vector>

#include "core/metrics.hpp"
#include "core/workload.hpp"
#include "fault/fault.hpp"
#include "sched/local_scheduler.hpp"

namespace rtds {

struct BroadcastConfig {
  LocalSchedulerConfig sched;
  Time broadcast_period = 25.0;  ///< surplus flood interval per site
  std::size_t max_attempts = 3;  ///< focused-addressing offers per job
  /// Surplus window used in broadcasts (no job context exists at broadcast
  /// time, so a fixed observation window is the only option — exactly the
  /// staleness problem the paper's job-scoped enrollment avoids).
  Time surplus_window = 100.0;
  bool stop_with_arrivals = true;  ///< cease broadcasting after last arrival
  /// Execution-plane faults (DESIGN.md §9): a dead site neither floods nor
  /// accepts, arrivals at it are lost, and a crash loses its unfinished
  /// jobs; the control plane stays reliable. Empty reproduces the
  /// faultless run bit for bit.
  fault::FaultPlan faults;
};

RunMetrics run_broadcast(const Topology& topo,
                         const std::vector<JobArrival>& arrivals,
                         const BroadcastConfig& cfg);

}  // namespace rtds
