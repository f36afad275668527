// Scale-path regressions (DESIGN.md §10).
//
// Three contracts are pinned here:
//  (a) the sphere-local phased APSP equals the full-table oracle restricted
//      to ≤(2h+1)-hop paths — on random topologies, and under injected
//      faults against the masked (live-links-only) topology;
//  (b) incremental repair after every topology-change event (site, link,
//      partition and heal; h = 1..3; grid corners and edges included)
//      leaves the tables route-for-route identical to a from-scratch
//      recompute over the live topology;
//  (c) the e7_scale sweep is bit-identical for any worker count (golden
//      digest, serial and 8 workers — recorded from the serial run of this
//      exact reduced sweep when E7 was introduced).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenarios.hpp"
#include "exp/sinks.hpp"
#include "fault/fault.hpp"
#include "net/generators.hpp"
#include "net/shortest_paths.hpp"
#include "routing/apsp.hpp"

namespace rtds {
namespace {

using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultState;

// ----------------------------------------- sphere-local vs oracle tables --

/// Expects `tables` to equal hop-bounded shortest paths on `topo`: a route
/// exists iff the (2h+1)-hop-bounded distance is finite, and distances
/// agree. This is exactly the "full N×N table restricted to the sphere"
/// the sparse layout replaced.
void expect_matches_oracle(const Topology& topo,
                           const std::vector<RoutingTable>& tables,
                           std::size_t phases) {
  for (SiteId s = 0; s < topo.site_count(); ++s) {
    const auto oracle = hop_bounded_distances(topo, s, phases + 1);
    std::size_t reachable = 0;
    for (SiteId d = 0; d < topo.site_count(); ++d) {
      if (oracle[d] == kInfiniteTime) {
        EXPECT_FALSE(tables[s].has_route(d))
            << "phantom route " << s << "->" << d;
      } else {
        ++reachable;
        ASSERT_TRUE(tables[s].has_route(d)) << s << "->" << d;
        const RouteLine& line = tables[s].route(d);
        EXPECT_NEAR(line.dist, oracle[d], 1e-9) << s << "->" << d;
        EXPECT_LE(line.hops, phases + 1);
      }
    }
    EXPECT_EQ(tables[s].size(), reachable) << "site " << s;
  }
}

TEST(SphereLocalApsp, MatchesHopBoundedOracleAcrossTopologies) {
  const std::vector<NetShape> shapes = {NetShape::kGrid, NetShape::kRing,
                                        NetShape::kTree, NetShape::kErdosRenyi,
                                        NetShape::kSmallWorld,
                                        NetShape::kScaleFree};
  std::uint64_t seed = 100;
  for (const NetShape shape : shapes) {
    Rng rng(seed++);
    const Topology topo = make_net(shape, 24, DelayRange{0.5, 4.0}, rng);
    for (const std::size_t h : {1u, 2u}) {
      const auto tables = phased_apsp(topo, 2 * h);
      SCOPED_TRACE(std::string(to_string(shape)) + " h=" + std::to_string(h));
      expect_matches_oracle(topo, tables, 2 * h);
    }
  }
}

/// The live topology under a fault view: same sites, only live links.
Topology masked_topology(const Topology& topo, const FaultState& faults) {
  Topology masked;
  for (SiteId s = 0; s < topo.site_count(); ++s)
    masked.add_site(topo.computing_power(s));
  for (const Link& l : topo.links())
    if (faults.link_up(l.a, l.b)) masked.add_link(l.a, l.b, l.delay);
  return masked;
}

TEST(SphereLocalApsp, MatchesMaskedOracleUnderInjectedFaults) {
  Rng rng(7);
  const Topology topo = make_grid(8, 8, DelayRange{0.5, 2.0}, rng);
  FaultPlan plan;
  plan.events = {FaultEvent{1.0, FaultKind::kSiteDown, 27, kNoSite},
                 FaultEvent{1.0, FaultKind::kLinkDown, 9, 10},
                 FaultEvent{1.0, FaultKind::kLinkDown, 40, 48},
                 FaultEvent{1.0, FaultKind::kSiteDown, 5, kNoSite}};
  FaultState faults(topo, plan);
  for (const auto& ev : plan.events) faults.apply(ev);

  const std::size_t h = 2;
  const auto tables = phased_apsp(topo, 2 * h, &faults);
  const Topology masked = masked_topology(topo, faults);
  for (SiteId s = 0; s < topo.site_count(); ++s) {
    if (!faults.site_up(s)) {
      EXPECT_EQ(tables[s].size(), 0u) << "down site " << s << " has routes";
      continue;
    }
    const auto oracle = hop_bounded_distances(masked, s, 2 * h + 1);
    for (SiteId d = 0; d < topo.site_count(); ++d) {
      if (oracle[d] == kInfiniteTime) {
        EXPECT_FALSE(tables[s].has_route(d))
            << "phantom route " << s << "->" << d;
      } else {
        ASSERT_TRUE(tables[s].has_route(d)) << s << "->" << d;
        EXPECT_NEAR(tables[s].route(d).dist, oracle[d], 1e-9);
      }
    }
  }
}

// ------------------------------------------------------ incremental repair --

void expect_tables_identical(const std::vector<RoutingTable>& a,
                             const std::vector<RoutingTable>& b,
                             std::size_t sites, int step) {
  for (SiteId s = 0; s < sites; ++s) {
    ASSERT_EQ(a[s].size(), b[s].size()) << "site " << s << " step " << step;
    for (SiteId d = 0; d < sites; ++d) {
      const RouteLine* la = a[s].find(d);
      const RouteLine* lb = b[s].find(d);
      ASSERT_EQ(la == nullptr, lb == nullptr)
          << s << "->" << d << " step " << step;
      if (la == nullptr) continue;
      EXPECT_EQ(la->dist, lb->dist) << s << "->" << d << " step " << step;
      EXPECT_EQ(la->hops, lb->hops) << s << "->" << d << " step " << step;
      EXPECT_EQ(la->next_hop, lb->next_hop)
          << s << "->" << d << " step " << step;
    }
  }
}

/// Replays `plan` against a fresh table set and, after every effective
/// event, repairs exactly as RtdsSystem does — a site event passes the
/// site, a link event both endpoints, a partition or heal every endpoint
/// of the links it flipped — then expects the repaired tables to equal a
/// from-scratch rebuild over the live topology. One reused repair engine
/// drives the stateful path; a second table set goes through the one-shot
/// repair_apsp wrapper so both entry points stay pinned. Counts the
/// effective events and the partition/heal ones among them.
void replay_against_full_recompute(const Topology& topo, const FaultPlan& plan,
                                   std::size_t phases, int& steps,
                                   int& partition_steps) {
  const auto n = topo.site_count();
  FaultState faults(topo, plan);
  auto tables = phased_apsp(topo, phases);
  ApspRepairer repairer(topo, phases);
  auto oneshot_tables = tables;
  steps = 0;
  partition_steps = 0;
  for (const auto& ev : plan.events) {
    if (!faults.apply(ev)) continue;  // redundant scripted event
    const SiteId pair[2] = {ev.a, ev.b};
    std::span<const SiteId> changed(pair, ev.b == kNoSite ? 1 : 2);
    if (ev.kind == FaultKind::kPartition || ev.kind == FaultKind::kHeal) {
      changed = faults.partition_changed_sites();
      ++partition_steps;
    }
    repairer.repair(tables, &faults, changed);
    repair_apsp(oneshot_tables, topo, phases, &faults, changed);
    const auto full = phased_apsp(topo, phases, &faults);
    expect_tables_identical(tables, full, n, steps);
    expect_tables_identical(oneshot_tables, full, n, steps);
    ++steps;
  }
}

TEST(IncrementalRepair, MatchesFullRecomputeAcrossEventSequences) {
  const std::vector<NetShape> shapes = {NetShape::kGrid, NetShape::kErdosRenyi,
                                        NetShape::kSmallWorld};
  std::uint64_t seed = 300;
  for (const NetShape shape : shapes) {
    Rng rng(seed++);
    const Topology topo = make_net(shape, 36, DelayRange{0.5, 3.0}, rng);
    // A seeded on/off process gives a realistic mix of site and link
    // events, including re-ups of the same element, plus partitions whose
    // heals hand the repair multi-endpoint changed sets.
    fault::FaultSpec spec;
    spec.site_rate = 0.004;
    spec.link_rate = 0.004;
    spec.site_mttr = 60.0;
    spec.link_mttr = 60.0;
    spec.partition_rate = 0.01;
    spec.horizon = 400.0;
    spec.seed = seed;
    const FaultPlan plan = FaultPlan::from_spec(spec, topo);
    ASSERT_GE(plan.events.size(), 6u) << "spec produced too few events";
    // The dirtying radius and the relaxation's pruning budget both scale
    // with the phase count, so h = 1, 2, 3 are all pinned.
    for (const std::size_t phases : {2u, 4u, 6u}) {
      SCOPED_TRACE(std::string(to_string(shape)) +
                   " phases=" + std::to_string(phases));
      int steps = 0, partition_steps = 0;
      replay_against_full_recompute(topo, plan, phases, steps,
                                    partition_steps);
      EXPECT_GE(steps, 4) << "sequence exercised too few effective events";
      EXPECT_GE(partition_steps, 2) << "no partition/heal pair exercised";
    }
  }
}

TEST(IncrementalRepair, MatchesFullRecomputeAtGridCornersAndEdges) {
  // Crashes at corner and edge sites of a 12x12 grid (site = row·12 + col)
  // truncate the hop rings around the change, and overlapping faults plus
  // a partition held across crashes and recoveries leave the live
  // topology far from the static one the dirtying rule reasons over.
  Rng rng(17);
  const Topology topo = make_grid(12, 12, DelayRange{0.5, 2.0}, rng);
  using K = FaultKind;
  FaultPlan plan;
  plan.events = {
      {1.0, K::kSiteDown, 0, kNoSite},    {2.0, K::kSiteDown, 11, kNoSite},
      {3.0, K::kLinkDown, 132, 133},      {4.0, K::kSiteDown, 6, kNoSite},
      {5.0, K::kSiteDown, 60, kNoSite},   {6.0, K::kPartition, 72, kNoSite},
      {7.0, K::kSiteDown, 143, kNoSite},  {8.0, K::kSiteUp, 0, kNoSite},
      {9.0, K::kSiteDown, 1, kNoSite},    {10.0, K::kHeal, 0, kNoSite},
      {11.0, K::kSiteUp, 11, kNoSite},    {12.0, K::kLinkUp, 132, 133},
      {13.0, K::kSiteUp, 6, kNoSite},     {14.0, K::kSiteUp, 143, kNoSite},
      {15.0, K::kSiteUp, 60, kNoSite},    {16.0, K::kSiteUp, 1, kNoSite},
      {17.0, K::kSiteDown, 132, kNoSite}, {18.0, K::kSiteUp, 132, kNoSite},
  };
  for (const std::size_t phases : {2u, 4u, 6u}) {
    SCOPED_TRACE("phases=" + std::to_string(phases));
    int steps = 0, partition_steps = 0;
    replay_against_full_recompute(topo, plan, phases, steps, partition_steps);
    EXPECT_EQ(steps, static_cast<int>(plan.events.size()));
    EXPECT_EQ(partition_steps, 2);
  }
}

// ------------------------------------------------------- E7 golden digest --

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Digest recorded from the serial run of this reduced sweep at the commit
// that introduced E7; any worker count must reproduce every byte.
constexpr std::uint64_t kE7CsvDigest = 3003423502625245643ull;

/// E7 restricted to the low load, keeping all three network sizes (the
/// scale story is the sites axis); grid indices and seeds match the full
/// sweep's corresponding rows.
exp::ScenarioSpec reduced_e7() {
  exp::register_builtin_scenarios();
  const exp::ScenarioSpec* base = exp::Registry::instance().find("e7_scale");
  // Throwing (not EXPECT-and-continue) keeps a dropped registration a
  // clean test failure instead of a null dereference.
  RTDS_REQUIRE_MSG(base != nullptr, "e7_scale missing from the registry");
  exp::ScenarioSpec spec = *base;
  spec.axes.at(1).values.resize(1);  // rate 0.01 only
  return spec;
}

std::uint64_t e7_digest(std::size_t jobs) {
  const exp::ScenarioSpec spec = reduced_e7();
  exp::RunOptions opts;
  opts.jobs = jobs;
  const auto rows = exp::run_scenario(spec, opts);
  std::ostringstream os;
  exp::CsvSink{}.write(spec, rows, os);
  return fnv1a(os.str());
}

TEST(E7GoldenDigest, SerialMatchesRecordedDigest) {
  EXPECT_EQ(e7_digest(1), kE7CsvDigest);
}

TEST(E7GoldenDigest, EightWorkersMatchesRecordedDigest) {
  EXPECT_EQ(e7_digest(8), kE7CsvDigest);
}

}  // namespace
}  // namespace rtds
