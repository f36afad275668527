// Baseline scheduler tests: LOCAL, CENTRAL, BID, RANDOM produce sound
// metrics, and the expected dominance ordering holds on a common workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "baseline/broadcast.hpp"
#include "baseline/centralized.hpp"
#include "baseline/local_only.hpp"
#include "baseline/offload.hpp"
#include "core/rtds_system.hpp"
#include "exp/condition.hpp"
#include "net/generators.hpp"

namespace rtds {
namespace {

struct Bench {
  Topology topo;
  std::vector<JobArrival> arrivals;
};

Bench make_bench(double rate, std::uint64_t seed) {
  Rng rng(seed);
  Bench b;
  b.topo = make_grid(4, 4, DelayRange{0.5, 1.5}, rng);
  WorkloadConfig wl;
  wl.arrival_rate_per_site = rate;
  wl.horizon = 600.0;
  wl.laxity_min = 1.3;
  wl.laxity_max = 3.5;
  wl.seed = seed;
  b.arrivals = generate_workload(b.topo.site_count(), wl);
  return b;
}

TEST(LocalOnly, CountsAreConsistent) {
  const Bench b = make_bench(0.02, 1);
  const auto m = run_local_only(b.topo, b.arrivals, LocalSchedulerConfig{});
  EXPECT_EQ(m.arrived, b.arrivals.size());
  EXPECT_EQ(m.arrived, m.accepted() + m.rejected);
  EXPECT_EQ(m.accepted_remote, 0u);
  EXPECT_EQ(m.deadline_misses, 0u);
  EXPECT_EQ(m.msgs_per_job.max(), 0.0);  // no cooperation, no messages
}

TEST(LocalOnly, AcceptsEverythingUnderTrivialLoad) {
  // Chains only: total work == critical path, so any laxity > 1 job fits an
  // idle site. (Wide DAGs can be locally infeasible at *any* load — their
  // window can be smaller than their total work; that is the paper's whole
  // motivation for distribution.)
  Rng rng(2);
  Bench b;
  b.topo = make_grid(4, 4, DelayRange{0.5, 1.5}, rng);
  WorkloadConfig wl;
  wl.arrival_rate_per_site = 0.001;
  wl.horizon = 600.0;
  wl.shape_mix = {DagShape::kChain};
  wl.laxity_min = 1.3;
  wl.laxity_max = 3.0;
  wl.seed = 2;
  b.arrivals = generate_workload(b.topo.site_count(), wl);
  const auto m = run_local_only(b.topo, b.arrivals, LocalSchedulerConfig{});
  EXPECT_EQ(m.guarantee_ratio(), 1.0);
}

TEST(Centralized, UpperBoundBeatsLocal) {
  const Bench b = make_bench(0.03, 3);
  const auto local = run_local_only(b.topo, b.arrivals, LocalSchedulerConfig{});
  const auto central =
      run_centralized(b.topo, b.arrivals, CentralizedConfig{});
  EXPECT_GE(central.guarantee_ratio(), local.guarantee_ratio());
  EXPECT_EQ(central.deadline_misses, 0u);
  EXPECT_EQ(central.arrived, b.arrivals.size());
}

TEST(Centralized, SphereLimitedIsNoBetterThanUnlimited) {
  const Bench b = make_bench(0.03, 4);
  CentralizedConfig limited;
  limited.sphere_radius_h = 1;
  const auto lim = run_centralized(b.topo, b.arrivals, limited);
  const auto full = run_centralized(b.topo, b.arrivals, CentralizedConfig{});
  EXPECT_LE(lim.guarantee_ratio(), full.guarantee_ratio() + 1e-12);
}

TEST(Centralized, UsesRemoteSitesUnderLoad) {
  const Bench b = make_bench(0.05, 5);
  const auto m = run_centralized(b.topo, b.arrivals, CentralizedConfig{});
  EXPECT_GT(m.accepted_remote, 0u);
}

class OffloadPolicies : public ::testing::TestWithParam<OffloadPolicy> {};

TEST_P(OffloadPolicies, SoundMetricsAndNoMisses) {
  const Bench b = make_bench(0.03, 6);
  OffloadConfig cfg;
  cfg.policy = GetParam();
  const auto m = run_offload(b.topo, b.arrivals, cfg);
  EXPECT_EQ(m.arrived, b.arrivals.size());
  EXPECT_EQ(m.arrived, m.accepted() + m.rejected);
  EXPECT_EQ(m.deadline_misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Both, OffloadPolicies,
                         ::testing::Values(OffloadPolicy::kBestSurplus,
                                           OffloadPolicy::kRandom),
                         [](const auto& info) { return to_string(info.param); });

TEST(Offload, BidBeatsLocalUnderLoad) {
  const Bench b = make_bench(0.04, 7);
  const auto local = run_local_only(b.topo, b.arrivals, LocalSchedulerConfig{});
  OffloadConfig cfg;
  cfg.policy = OffloadPolicy::kBestSurplus;
  const auto bid = run_offload(b.topo, b.arrivals, cfg);
  EXPECT_GT(bid.guarantee_ratio(), local.guarantee_ratio());
  EXPECT_GT(bid.accepted_remote, 0u);
  EXPECT_GT(bid.transport.total_link_messages, 0u);
}

TEST(Offload, MoreAttemptsNeverHurtAcceptance) {
  const Bench b = make_bench(0.05, 8);
  OffloadConfig one;
  one.max_attempts = 1;
  OffloadConfig three;
  three.max_attempts = 3;
  const auto m1 = run_offload(b.topo, b.arrivals, one);
  const auto m3 = run_offload(b.topo, b.arrivals, three);
  // Not strictly monotone in theory (different accept sets shift load), but
  // across a whole workload attempts should not massively hurt.
  EXPECT_GE(m3.guarantee_ratio() + 0.05, m1.guarantee_ratio());
}


TEST(Broadcast, SoundMetricsAndNoMisses) {
  const Bench b = make_bench(0.03, 10);
  BroadcastConfig cfg;
  const auto m = run_broadcast(b.topo, b.arrivals, cfg);
  EXPECT_EQ(m.arrived, b.arrivals.size());
  EXPECT_EQ(m.arrived, m.accepted() + m.rejected);
  EXPECT_EQ(m.deadline_misses, 0u);
  // Periodic flooding dominates the transport budget.
  EXPECT_GT(m.transport.by_category.at(21).link_messages, 0u);
}

TEST(Broadcast, FloodCostGrowsWithNetworkSize) {
  auto flood_messages = [](std::size_t side) {
    Rng rng(4);
    Topology topo = make_grid(side, side, DelayRange{0.5, 1.0}, rng);
    WorkloadConfig wl;
    wl.arrival_rate_per_site = 0.01;
    wl.horizon = 200.0;
    wl.seed = 4;
    const auto arrivals = generate_workload(topo.site_count(), wl);
    BroadcastConfig cfg;
    const auto m = run_broadcast(topo, arrivals, cfg);
    // Normalize by job count for a fair per-job figure.
    return double(m.transport.total_link_messages) / double(m.arrived);
  };
  const double small = flood_messages(3);
  const double large = flood_messages(6);
  EXPECT_GT(large, 2.0 * small);  // superlinear per-job cost growth
}

TEST(Broadcast, BeatsLocalUnderLoad) {
  const Bench b = make_bench(0.04, 11);
  const auto local = run_local_only(b.topo, b.arrivals, LocalSchedulerConfig{});
  BroadcastConfig cfg;
  const auto bcast = run_broadcast(b.topo, b.arrivals, cfg);
  EXPECT_GT(bcast.guarantee_ratio(), local.guarantee_ratio());
}

TEST(Broadcast, StaleTableCostsAcceptancesVsFreshBids) {
  // With a long broadcast period the table is stale; fresh per-job bidding
  // (BID) should do at least as well on acceptance.
  const Bench b = make_bench(0.05, 12);
  BroadcastConfig stale;
  stale.broadcast_period = 200.0;  // nearly static table
  const auto bcast = run_broadcast(b.topo, b.arrivals, stale);
  OffloadConfig bid_cfg;
  const auto bid = run_offload(b.topo, b.arrivals, bid_cfg);
  EXPECT_GE(bid.guarantee_ratio() + 0.03, bcast.guarantee_ratio());
}

// --------------------------------------------------- flood tie order pin --
//
// A 3×3 grid with integer link delays (1 across a row, 2 down a column)
// and an integer broadcast period makes every flood-delivery instant an
// exact double, so crashes, recoveries and arrivals can be scripted to land
// exactly on one. The (time, seq) order then decides what each reader
// sees: crash/recover events (scheduled first) and arrivals (scheduled
// before any flood is sent) run before a flood copy landing at the same
// instant. The digest pins the RunMetrics these tie rules produce; it was
// recorded when every flood copy was still a simulated delivery event, so
// the lazily read surplus table must reproduce that event order exactly.

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// 3×3 grid, delay 1 across a row and 2 down a column.
Topology integer_grid_3x3() {
  constexpr std::size_t kSide = 3;
  Topology topo;
  for (std::size_t i = 0; i < kSide * kSide; ++i) topo.add_site();
  for (SiteId r = 0; r < kSide; ++r) {
    for (SiteId c = 0; c < kSide; ++c) {
      const SiteId s = r * kSide + c;
      if (c + 1 < kSide) topo.add_link(s, s + 1, 1.0);
      if (r + 1 < kSide) topo.add_link(s, s + kSide, 2.0);
    }
  }
  return topo;
}

TEST(Broadcast, FloodTieOrderIsPinned) {
  const Topology topo = integer_grid_3x3();

  // An overloaded workload, releases floored to integer instants so they
  // coincide with flood deliveries.
  WorkloadConfig wl;
  wl.arrival_rate_per_site = 0.1;
  wl.horizon = 100.0;
  wl.laxity_min = 1.3;
  wl.laxity_max = 3.5;
  wl.seed = 13;
  std::vector<JobArrival> arrivals;
  for (const auto& a : generate_workload(topo.site_count(), wl)) {
    auto job = std::make_shared<Job>(*a.job);
    job->release = std::floor(a.job->release);
    job->deadline = job->release + a.job->window();
    arrivals.push_back({a.site, job});
  }
  // Hand-placed arrivals: at crash instants (12 at the crashing site 4 and
  // at site 1, where a flood from site 4 lands; 30 at site 0), at recovery
  // instants where floods land (21 at site 4, 47 at site 0, 60 at site 8),
  // just after them, before the next floods from the same sources land
  // (so the copies landing at the recovery instant are what is read), at
  // plain delivery instants, and the last arrival at 100, which closes the
  // flooding window on a tick.
  const std::vector<std::pair<SiteId, Time>> hand = {
      {4, 12.0}, {1, 12.0}, {4, 21.0}, {4, 23.0}, {0, 30.0}, {2, 33.0},
      {6, 44.0}, {0, 47.0}, {0, 49.0}, {8, 60.0}, {8, 62.0}, {5, 71.0},
      {7, 100.0}};
  const std::size_t generated = arrivals.size();
  for (std::size_t i = 0; i < hand.size(); ++i) {
    const auto [site, at] = hand[i];
    auto job = std::make_shared<Job>(*arrivals[i * 7 % generated].job);
    job->id = 1000 + i;
    job->deadline = at + job->window();
    job->release = at;
    arrivals.push_back({site, job});
  }

  BroadcastConfig cfg;
  cfg.broadcast_period = 5.0;
  using fault::FaultEvent;
  using fault::FaultKind;
  cfg.faults.events = {
      // Site 4 dies as floods from sites 1 and 7 (sent at 10, 2 away) land
      // on it, and comes back as floods from sites 3 and 5 (sent at 20, 1
      // away) land.
      FaultEvent{12.0, FaultKind::kSiteDown, 4},
      FaultEvent{21.0, FaultKind::kSiteUp, 4},
      // Site 0 dies on its own tick and comes back as floods from sites 2
      // and 3 (sent at 45, 2 away) land.
      FaultEvent{30.0, FaultKind::kSiteDown, 0},
      FaultEvent{47.0, FaultKind::kSiteUp, 0},
      // Site 8 dies as the flood from site 5 (sent at 50, 2 away) lands
      // and comes back on its own tick.
      FaultEvent{52.0, FaultKind::kSiteDown, 8},
      FaultEvent{60.0, FaultKind::kSiteUp, 8},
  };
  cfg.faults.validate(topo);

  const RunMetrics m = run_broadcast(topo, arrivals, cfg);
  EXPECT_EQ(m.arrived, arrivals.size());
  EXPECT_EQ(m.arrived, m.accepted() + m.rejected);
  EXPECT_GT(m.accepted_remote, 0u);

  // Closed form. Ticks at 0, 5, ..., 100: 21 per site, 189 in all, less
  // the ticks a dead site skips — site 4 at 15 and 20, site 0 at 30..45,
  // site 8 at 55 (a crash or recovery at a tick runs before it).
  // Shortest-delay routes are monotone, so hops are Manhattan distances:
  // 144 link messages per full round, 12 per flood from the centre, 18
  // per flood from a corner.
  const auto& flood = m.transport.by_category.at(21);
  EXPECT_EQ(flood.sends, (189u - 7u) * 8u);
  EXPECT_EQ(flood.link_messages, 21u * 144u - 2u * 12u - 4u * 18u - 18u);

  std::ostringstream os;
  m.to_jsonl(os);
  EXPECT_EQ(fnv1a(os.str()), 6419653840732274883ull) << os.str();
}

// BID and RANDOM know a committed job's completion at commit: the local
// list schedule fixes every task end. A crash of the job's site loses it if
// any task is still pending, and crash events are scheduled before every
// commit, so a task ending exactly at the crash instant is pending (the
// same (time, seq) rule as above). Integer link delays, task costs and
// releases make every task end an exact double, so the scripted crashes
// land on some of them; the digests pin the RunMetrics this tie rule
// produces. They were recorded when each task end was still a simulated
// completion event.
TEST(Offload, CrashAtCompletionInstantIsPinned) {
  const Topology topo = integer_grid_3x3();
  WorkloadConfig wl;
  wl.arrival_rate_per_site = 0.08;
  wl.horizon = 200.0;
  wl.laxity_min = 1.3;
  wl.laxity_max = 3.5;
  wl.seed = 21;
  std::vector<JobArrival> arrivals;
  for (const auto& a : generate_workload(topo.site_count(), wl)) {
    auto job = std::make_shared<Job>();
    job->id = a.job->id;
    const Dag& dag = a.job->dag;
    for (TaskId t = 0; t < dag.task_count(); ++t)
      job->dag.add_task(std::max(1.0, std::round(dag.cost(t))));
    for (const Arc& arc : dag.arcs()) job->dag.add_arc(arc.from, arc.to);
    job->dag.finalize();
    job->release = std::floor(a.job->release);
    job->deadline = job->release + std::ceil(a.job->window());
    arrivals.push_back({a.site, job});
  }

  // Thirty crashes at integer instants 7 apart rotate over all nine sites
  // (7 and 9 are coprime); each site recovers 4 time units later.
  using fault::FaultEvent;
  using fault::FaultKind;
  OffloadConfig cfg;
  for (Time at = 10.0; at < 220.0; at += 7.0) {
    const auto s = static_cast<SiteId>(static_cast<int>(at) % 9);
    cfg.faults.events.push_back(FaultEvent{at, FaultKind::kSiteDown, s});
    cfg.faults.events.push_back(FaultEvent{at + 4.0, FaultKind::kSiteUp, s});
  }
  cfg.faults.validate(topo);

  const std::pair<OffloadPolicy, std::uint64_t> cases[] = {
      {OffloadPolicy::kBestSurplus, 5336356539046542221ull},
      {OffloadPolicy::kRandom, 1577616552580216129ull},
  };
  for (const auto& [policy, digest] : cases) {
    SCOPED_TRACE(to_string(policy));
    cfg.policy = policy;
    const RunMetrics m = run_offload(topo, arrivals, cfg);
    EXPECT_EQ(m.arrived, arrivals.size());
    EXPECT_GT(m.accepted_remote, 0u);
    EXPECT_GT(m.jobs_lost, 0u);
    std::ostringstream os;
    m.to_jsonl(os);
    EXPECT_EQ(fnv1a(os.str()), digest) << os.str();
  }
}

// CENTRAL tries each arrival against the live site plans and takes the
// placements back out when the job misses its deadline. An overloaded
// offload-regime cell rejects many jobs after some of their tasks were
// placed, and a crash plan exercises the failure path that frees a lost
// job's reservations elsewhere. Digests recorded with a copied trial plan.
TEST(Centralized, RollbackAndCrashDigestIsPinned) {
  exp::ConditionSpec cs = exp::offload_regime();
  cs.sites = 16;
  cs.rate = 0.1;
  cs.horizon = 300.0;
  cs.seed = 5;
  const exp::Condition c = exp::make_condition(cs);
  fault::FaultSpec fs;
  fs.site_rate = 0.004;
  fs.site_mttr = 20.0;
  fs.horizon = cs.horizon;
  fs.seed = 17;

  CentralizedConfig cfg;
  cfg.faults = fault::FaultPlan::from_spec(fs, c.topo);
  ASSERT_FALSE(cfg.faults.events.empty());
  const std::pair<std::size_t, std::uint64_t> cases[] = {
      {CentralizedConfig::kNoRadiusLimit, 4869036853224599404ull},
      {1, 12901310384212982867ull},
  };
  for (const auto& [h, digest] : cases) {
    SCOPED_TRACE(h);
    cfg.sphere_radius_h = h;
    const RunMetrics m = run_centralized(c.topo, c.arrivals, cfg);
    EXPECT_EQ(m.arrived, c.arrivals.size());
    EXPECT_GT(m.rejected, 0u);
    EXPECT_GT(m.jobs_lost, 0u);
    std::ostringstream os;
    m.to_jsonl(os);
    EXPECT_EQ(fnv1a(os.str()), digest) << os.str();
  }
}

TEST(Comparison, ExpectedDominanceOrdering) {
  // The paper's qualitative claim (§14): cooperation accepts more jobs than
  // local-only, and the omniscient centralized scheduler bounds everyone.
  const Bench b = make_bench(0.04, 9);

  const auto local = run_local_only(b.topo, b.arrivals, LocalSchedulerConfig{});
  OffloadConfig bid_cfg;
  const auto bid = run_offload(b.topo, b.arrivals, bid_cfg);
  const auto central = run_centralized(b.topo, b.arrivals, CentralizedConfig{});

  SystemConfig rtds_cfg;
  rtds_cfg.node.sphere_radius_h = 2;
  RtdsSystem rtds(b.topo, rtds_cfg);
  rtds.run(b.arrivals);

  EXPECT_GT(rtds.metrics().guarantee_ratio(), local.guarantee_ratio());
  EXPECT_GE(central.guarantee_ratio() + 0.02,
            rtds.metrics().guarantee_ratio());
  EXPECT_GT(bid.guarantee_ratio(), local.guarantee_ratio());
}

}  // namespace
}  // namespace rtds
