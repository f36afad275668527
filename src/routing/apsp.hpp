// Interrupted all-pairs shortest paths (§7.2).
//
// The paper organizes the asynchronous Bellman–Ford of [Bertsekas–Gallager]
// into logical phases: one phase = every site sends its table to all
// immediate neighbours and absorbs all neighbour tables. After p phases a
// site's distances are exact for all destinations reachable within p hops.
// The construction is *interrupted* after 2h phases so that every member of
// a hop-radius-h sphere also knows (≤2h-hop-exact) routes to every other
// member — that is what makes the PCS control structure work without any
// network-wide flooding.
//
// Two interchangeable engines:
//  * phased_apsp       — in-memory phase loop (fast path; used by system
//                        setup and as the oracle in tests);
//  * distributed_apsp  — runs the same protocol as actual messages over the
//                        delivery core, so the one-time PCS construction cost
//                        (messages, route lines shipped, completion time)
//                        can be measured (rtds --set measure_pcs_build=true,
//                        example traces).
// Both produce identical tables; a gtest asserts this site-by-site.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/bugs.hpp"
#include "net/topology.hpp"
#include "routing/routing_table.hpp"

namespace rtds {

/// Runs `phases` synchronous table-exchange rounds in memory. With a
/// non-null fault view the exchange is restricted to the *live* topology —
/// down sites neither seed nor merge tables (their tables come back empty)
/// and down links carry no exchange — which is exactly the repair RTDS
/// re-triggers after every topology-change notification (DESIGN.md §9).
///
/// The implementation propagates per-destination frontiers instead of
/// merging whole neighbour tables: each destination's lines spread one hop
/// per phase, and only the lines that changed last phase are re-offered
/// (a re-offer can never win the merge's strict tie-break, so dropping
/// them is exact). Cost is O(sites · |(2h+1)-hop ball| · degree) and the
/// tables produced are route-for-route identical to the neighbour-table
/// merge formulation — distributed_apsp still runs the literal §7.2
/// exchange and a gtest pins the equality site by site.
std::vector<RoutingTable> phased_apsp(
    const Topology& topo, std::size_t phases,
    const fault::FaultState* faults = nullptr);

/// Incremental §7.2 repair after a topology change (DESIGN.md §10). A
/// change at `changed` (a crashed/recovered site, or the endpoints of
/// flapped links) can only alter a line (s → d) whose static hop levels
/// from the change satisfy lvl(s) + lvl(d) ≤ R — some ≤(phases+1)-hop
/// walk from s to d runs through the change; every other line is a
/// function of unchanged topology. A repair re-runs the per-destination
/// relaxation, pruned to that budget, for each dirty destination over the
/// live topology and installs (or withdraws) the affected lines in place,
/// leaving the tables bit-identical — route for route — to a from-scratch
/// phased_apsp(topo, phases, faults).
///
/// ApspRepairer is the reusable engine for one (topology, phases) pair:
/// it owns the static adjacency and the O(sites) relaxation scratch, so a
/// fault-heavy run pays only the live-adjacency refresh plus the
/// in-budget work per event, with no steady-state allocation churn.
/// `bug` selects a seeded mutant (fault/bugs.hpp) for the fuzzer's
/// mutation harness.
class ApspRepairer {
 public:
  ApspRepairer(const Topology& topo, std::size_t phases,
               fault::InjectedBug bug = fault::InjectedBug::kNone);
  ~ApspRepairer();
  ApspRepairer(const ApspRepairer&) = delete;
  ApspRepairer& operator=(const ApspRepairer&) = delete;

  /// Repairs `tables` in place after a change at `changed` sites: pass the
  /// crashed/recovered site alone, or both endpoints of each flapped link
  /// (the two cases have different budgets R).
  void repair(std::vector<RoutingTable>& tables,
              const fault::FaultState* faults,
              std::span<const SiteId> changed);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-shot convenience wrapper around ApspRepairer (tests, tools).
void repair_apsp(std::vector<RoutingTable>& tables, const Topology& topo,
                 std::size_t phases, const fault::FaultState* faults,
                 std::span<const SiteId> changed);

struct DistributedApspResult {
  std::vector<RoutingTable> tables;
  std::uint64_t messages = 0;      ///< table-exchange link messages
  std::uint64_t route_lines = 0;   ///< total route lines shipped (volume)
  Time completion_time = 0.0;      ///< sim time when the last site finished
};

/// Message category of the APSP exchange's table messages.
inline constexpr int kApspMessageCategory = 100;

/// Runs the same protocol as real one-hop messages over `topo`, on a
/// simulator and delivery core of its own. Each site advances to phase p+1
/// once it has received all neighbour tables stamped with phase p — the
/// §7.2 logical-phase organization of an otherwise asynchronous exchange.
DistributedApspResult distributed_apsp(const Topology& topo,
                                       std::size_t phases);

}  // namespace rtds
