// Routing-layer tests: the §7 interrupted APSP must agree with the
// hop-bounded reference, the distributed (message-passing) run must agree
// with the in-memory phase loop, and PCS structures must be symmetric and
// correctly bounded.
#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "net/generators.hpp"
#include "net/shortest_paths.hpp"
#include "routing/apsp.hpp"
#include "routing/pcs.hpp"

namespace rtds {
namespace {

// ------------------------------------------------------- routing table ----

TEST(RoutingTable, InitFromNeighbors) {
  Rng rng(1);
  const Topology topo = make_star(4, DelayRange{1.0, 3.0}, rng);
  RoutingTable hub(0);
  hub.init_from_neighbors(topo);
  EXPECT_EQ(hub.size(), 5u);  // self + 4 leaves
  EXPECT_DOUBLE_EQ(hub.route(0).dist, 0.0);
  EXPECT_EQ(hub.route(0).hops, 0u);
  for (SiteId leaf = 1; leaf <= 4; ++leaf) {
    EXPECT_EQ(hub.route(leaf).next_hop, leaf);
    EXPECT_EQ(hub.route(leaf).hops, 1u);
  }
  EXPECT_THROW(RoutingTable(1).route(0), ContractViolation);
}

TEST(RoutingTable, MergePrefersShorterDelay) {
  Topology topo;
  for (int i = 0; i < 3; ++i) topo.add_site();
  topo.add_link(0, 1, 5.0);
  topo.add_link(0, 2, 1.0);
  topo.add_link(2, 1, 1.0);
  RoutingTable t0(0), t2(2);
  t0.init_from_neighbors(topo);
  t2.init_from_neighbors(topo);
  // Merging site 2's table over the 0--2 link reveals 0->2->1 (dist 2).
  EXPECT_TRUE(t0.merge_from(2, 1.0, t2));
  EXPECT_DOUBLE_EQ(t0.route(1).dist, 2.0);
  EXPECT_EQ(t0.route(1).next_hop, 2u);
  EXPECT_EQ(t0.route(1).hops, 2u);
  // Re-merging the same table changes nothing.
  EXPECT_FALSE(t0.merge_from(2, 1.0, t2));
}

// ---------------------------------------------------------------- apsp ----

TEST(PhasedApsp, PhaseHSemantics) {
  // Tables start with 1-hop knowledge (§7.1 start condition), and every
  // phase extends accuracy one hop further (§7.2): after p phases the
  // distances equal the (p+1)-hop-bounded shortest paths. (The paper states
  // the conservative "after h phases, accurate up to h hops".)
  Rng rng(2);
  const Topology topo = make_erdos_renyi(18, 0.15, DelayRange{0.5, 4.0}, rng);
  for (std::size_t h : {1u, 2u, 3u, 5u}) {
    const auto tables = phased_apsp(topo, h);
    for (SiteId s = 0; s < topo.site_count(); ++s) {
      const auto ref = hop_bounded_distances(topo, s, h + 1);
      for (SiteId t = 0; t < topo.site_count(); ++t) {
        if (ref[t] == kInfiniteTime) {
          EXPECT_FALSE(tables[s].has_route(t) &&
                       tables[s].route(t).dist != kInfiniteTime)
              << "phantom route " << s << "->" << t << " at h=" << h;
        } else {
          ASSERT_TRUE(tables[s].has_route(t));
          EXPECT_NEAR(tables[s].route(t).dist, ref[t], 1e-9)
              << s << "->" << t << " at h=" << h;
        }
      }
    }
  }
}

TEST(PhasedApsp, ConvergesToDijkstra) {
  Rng rng(3);
  const Topology topo = make_grid(4, 4, DelayRange{1.0, 3.0}, rng);
  const auto tables = phased_apsp(topo, topo.site_count());
  for (SiteId s = 0; s < topo.site_count(); ++s) {
    const auto ref = dijkstra(topo, s);
    for (SiteId t = 0; t < topo.site_count(); ++t)
      EXPECT_NEAR(tables[s].route(t).dist, ref.dist[t], 1e-9);
  }
}

TEST(PhasedApsp, RecordedHopsMatchRecordedPath) {
  // next_hop chains must terminate at the destination within `hops` steps
  // and sum to `dist`.
  Rng rng(4);
  const Topology topo = make_small_world(16, 2, 0.2, DelayRange{1.0, 2.0}, rng);
  const auto tables = phased_apsp(topo, 2 * 3);
  for (SiteId s = 0; s < topo.site_count(); ++s) {
    for (SiteId dest = 0; dest < tables[s].site_count(); ++dest) {
      if (!tables[s].has_route(dest)) continue;
      const auto& line = tables[s].route(dest);
      if (dest == s) continue;
      SiteId cur = s;
      Time total = 0.0;
      std::size_t steps = 0;
      while (cur != dest && steps <= line.hops) {
        const SiteId nxt = tables[cur].route(dest).next_hop;
        total += topo.link_delay(cur, nxt);
        cur = nxt;
        ++steps;
      }
      EXPECT_EQ(cur, dest);
      EXPECT_EQ(steps, line.hops);
      EXPECT_NEAR(total, line.dist, 1e-9);
    }
  }
}

class DistributedApspMatches
    : public ::testing::TestWithParam<std::pair<NetShape, std::size_t>> {};

TEST_P(DistributedApspMatches, AgreesWithInMemoryPhases) {
  Rng rng(5);
  const auto [shape, phases] = GetParam();
  const Topology topo = make_net(shape, 12, DelayRange{1.0, 3.0}, rng);
  const auto mem = phased_apsp(topo, phases);

  Simulator sim;
  SimNetwork net(sim, topo);
  const auto dist = distributed_apsp(sim, net, phases);
  ASSERT_EQ(dist.tables.size(), mem.size());
  EXPECT_GT(dist.messages, 0u);
  EXPECT_GT(dist.route_lines, 0u);
  EXPECT_GT(dist.completion_time, 0.0);
  for (SiteId s = 0; s < topo.site_count(); ++s) {
    ASSERT_EQ(dist.tables[s].size(), mem[s].size()) << "site " << s;
    for (SiteId destination = 0; destination < mem[s].site_count();
         ++destination) {
      if (!mem[s].has_route(destination)) continue;
      const auto& line = mem[s].route(destination);
      ASSERT_TRUE(dist.tables[s].has_route(destination));
      const auto& dline = dist.tables[s].route(destination);
      EXPECT_NEAR(dline.dist, line.dist, 1e-9);
      EXPECT_EQ(dline.hops, line.hops);
      EXPECT_EQ(dline.next_hop, line.next_hop);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, DistributedApspMatches,
    ::testing::Values(std::pair{NetShape::kLine, std::size_t{4}},
                      std::pair{NetShape::kRing, std::size_t{4}},
                      std::pair{NetShape::kGrid, std::size_t{4}},
                      std::pair{NetShape::kTree, std::size_t{6}},
                      std::pair{NetShape::kErdosRenyi, std::size_t{4}},
                      std::pair{NetShape::kScaleFree, std::size_t{4}}));

TEST(DistributedApsp, MessageCountIsPhasesTimesDirectedLinks) {
  Rng rng(6);
  const Topology topo = make_ring(8, DelayRange{1.0, 1.0}, rng);
  Simulator sim;
  SimNetwork net(sim, topo);
  const std::size_t phases = 4;
  const auto res = distributed_apsp(sim, net, phases);
  // Every site sends its table to every neighbour once per phase.
  EXPECT_EQ(res.messages, phases * 2 * topo.link_count());
}

// ----------------------------------------------------------------- pcs ----

TEST(Pcs, MembershipIsHopRadius) {
  Rng rng(7);
  const Topology topo = make_grid(5, 5, DelayRange{1.0, 2.0}, rng);
  const std::size_t h = 2;
  const auto tables = phased_apsp(topo, 2 * h);
  const SiteId center = 12;  // middle of the 5x5 grid
  const Pcs pcs = Pcs::build(tables, center, h);
  const auto hops = hop_distances(topo, center);
  // On a grid min-delay paths may take more hops than the BFS distance, so
  // PCS ⊆ BFS-ball always, and the 1-ball is certainly included.
  EXPECT_TRUE(pcs.contains(center));
  for (const auto& m : pcs.members()) {
    EXPECT_LE(m.hops, h);
    EXPECT_GE(m.hops, hops[m.site]);
  }
  for (SiteId s = 0; s < topo.site_count(); ++s)
    if (hops[s] == 1) EXPECT_TRUE(pcs.contains(s));
}

TEST(Pcs, RootDistancesMatchHopBoundedReference) {
  Rng rng(8);
  const Topology topo = make_erdos_renyi(20, 0.12, DelayRange{0.5, 5.0}, rng);
  const std::size_t h = 2;
  const auto tables = phased_apsp(topo, 2 * h);
  for (SiteId root = 0; root < topo.site_count(); ++root) {
    const Pcs pcs = Pcs::build(tables, root, h);
    const auto ref = hop_bounded_distances(topo, root, h);
    for (const auto& m : pcs.members())
      EXPECT_NEAR(m.delay, ref[m.site], 1e-9)
          << "root " << root << " member " << m.site;
  }
}

TEST(Pcs, MembershipIsSymmetric) {
  // j in PCS(k) iff k in PCS(j): both need an <=h-hop min-delay path, and
  // the metric is symmetric on an undirected graph.
  Rng rng(9);
  const Topology topo = make_small_world(20, 2, 0.15, DelayRange{1.0, 4.0}, rng);
  const std::size_t h = 2;
  const auto tables = phased_apsp(topo, 2 * h);
  std::vector<Pcs> spheres;
  for (SiteId s = 0; s < topo.site_count(); ++s)
    spheres.push_back(Pcs::build(tables, s, h));
  for (SiteId a = 0; a < topo.site_count(); ++a)
    for (SiteId b = 0; b < topo.site_count(); ++b)
      EXPECT_EQ(spheres[a].contains(b), spheres[b].contains(a))
          << a << " vs " << b;
}

TEST(Pcs, DiametersAndSubsets) {
  Rng rng(10);
  const Topology topo = make_grid(4, 4, DelayRange{1.0, 1.0}, rng);
  const std::size_t h = 2;
  const auto tables = phased_apsp(topo, 2 * h);
  const Pcs pcs = Pcs::build(tables, 5, h);
  EXPECT_GT(pcs.delay_diameter(), 0.0);
  EXPECT_GE(pcs.hop_diameter(), 1u);
  EXPECT_LE(pcs.hop_diameter(), 2 * h);
  // Subset diameter is monotone under inclusion.
  std::vector<SiteId> all;
  for (const auto& m : pcs.members()) all.push_back(m.site);
  const std::vector<SiteId> sub(all.begin(), all.begin() + 2);
  EXPECT_LE(pcs.delay_diameter_of(sub), pcs.delay_diameter() + 1e-12);
  // Singleton and pairwise basics.
  EXPECT_DOUBLE_EQ(pcs.delay_diameter_of({5}), 0.0);
  EXPECT_DOUBLE_EQ(pcs.delay(5, 5), 0.0);
  EXPECT_THROW(pcs.member(99), ContractViolation);
}

TEST(Pcs, PairMatricesMatchRouteLookups) {
  // Each pair entry is the owner's live route line when the interrupted
  // APSP surfaced one, else the root-relayed bound — on fresh tables, on
  // tables a crash repair has thinned out, and past a withdrawn line that
  // still holds its slot.
  Rng rng(13);
  const Topology topo = make_erdos_renyi(24, 0.15, DelayRange{0.5, 5.0}, rng);
  const std::size_t h = 2;
  auto tables = phased_apsp(topo, 2 * h);
  const auto check = [&] {
    for (SiteId root = 0; root < topo.site_count(); ++root) {
      const Pcs pcs = Pcs::build(tables, root, h);
      for (const auto& a : pcs.members()) {
        for (const auto& b : pcs.members()) {
          if (a.site == b.site) continue;
          const RouteLine* line = tables[a.site].find(b.site);
          EXPECT_EQ(pcs.delay(a.site, b.site),
                    line != nullptr ? line->dist : a.delay + b.delay);
          EXPECT_EQ(pcs.hops(a.site, b.site),
                    line != nullptr ? line->hops : a.hops + b.hops);
        }
      }
    }
  };
  check();
  fault::FaultPlan plan;
  plan.events = {fault::FaultEvent{1.0, fault::FaultKind::kSiteDown, 5, 0}};
  fault::FaultState faults(topo, plan);
  faults.apply(plan.events[0]);
  const SiteId changed[1] = {5};
  repair_apsp(tables, topo, 2 * h, &faults, changed);
  check();
  const Pcs sphere = Pcs::build(tables, 0, h);
  ASSERT_GE(sphere.size(), 3u);
  const SiteId x = sphere.members()[1].site, y = sphere.members()[2].site;
  ASSERT_NE(tables[x].find(y), nullptr);
  tables[x].set_line(y, RouteLine{});  // a tombstone: slot kept, no route
  check();
}

TEST(Pcs, RadiusZeroIsSelfOnly) {
  Rng rng(11);
  const Topology topo = make_ring(6, DelayRange{1.0, 1.0}, rng);
  const auto tables = phased_apsp(topo, 0);
  const Pcs pcs = Pcs::build(tables, 0, 0);
  EXPECT_EQ(pcs.size(), 1u);
  EXPECT_TRUE(pcs.contains(0));
  EXPECT_DOUBLE_EQ(pcs.delay_diameter(), 0.0);
}

TEST(Pcs, GrowsWithRadius) {
  Rng rng(12);
  const Topology topo = make_grid(5, 5, DelayRange{1.0, 1.0}, rng);
  std::size_t prev = 0;
  for (std::size_t h = 0; h <= 4; ++h) {
    const auto tables = phased_apsp(topo, 2 * h);
    const Pcs pcs = Pcs::build(tables, 12, h);
    EXPECT_GE(pcs.size(), prev);
    prev = pcs.size();
  }
  EXPECT_EQ(prev, 25u);  // radius 4 covers the whole 5x5 grid from center
}

}  // namespace
}  // namespace rtds
