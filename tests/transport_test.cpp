// Transport-layer tests: ideal vs contended delivery semantics, FIFO
// ordering and serialization arithmetic on contended links, and the full
// RTDS system running over the contended transport (including the honest
// dispatch-failure accounting when the protocol over-estimate is violated).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "core/rtds_system.hpp"
#include "net/generators.hpp"
#include "routing/apsp.hpp"
#include "routing/transport.hpp"

namespace rtds {
namespace {

struct Delivery {
  SiteId to;
  SiteId from;
  std::string text;
  Time at;
};

class TransportFixture : public ::testing::Test {
 protected:
  TransportFixture() {
    // Line 0 -- 1 -- 2 with delay 1.0 per link.
    for (int i = 0; i < 3; ++i) topo_.add_site();
    topo_.add_link(0, 1, 1.0);
    topo_.add_link(1, 2, 1.0);
    tables_ = phased_apsp(topo_, 4);
  }

  void wire(Transport& t) {
    for (SiteId s = 0; s < topo_.site_count(); ++s)
      t.set_handler(s, [this, s](SiteId from, const MessageBody& payload) {
        log_.push_back(Delivery{s, from, std::get<std::string>(payload),
                                sim_.now()});
      });
  }

  Topology topo_;
  std::vector<RoutingTable> tables_;
  Simulator sim_;
  std::vector<Delivery> log_;
};

TEST_F(TransportFixture, IdealDeliversAtMinPathDelay) {
  IdealTransport t(sim_, tables_);
  wire(t);
  const auto hops = t.send(0, 2, std::string("x"), 1, 5.0);
  EXPECT_EQ(hops, 2u);
  sim_.run();
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_DOUBLE_EQ(log_[0].at, 2.0);  // pure propagation, size irrelevant
  EXPECT_EQ(log_[0].from, 0u);
  EXPECT_EQ(t.stats().total_link_messages, 2u);
}

TEST_F(TransportFixture, ContendedAddsSerializationPerHop) {
  // bandwidth 2 units/time, size 4 -> tx = 2 per hop; store-and-forward:
  // hop1 [0, 2+1), hop2 [3, 3+2+1) -> arrival 6.
  ContendedTransport t(sim_, topo_, tables_, 2.0);
  wire(t);
  t.send(0, 2, std::string("x"), 1, 4.0);
  sim_.run();
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_DOUBLE_EQ(log_[0].at, 6.0);
  EXPECT_EQ(log_[0].from, 0u);  // logical sender, not the relay
  EXPECT_DOUBLE_EQ(t.max_queueing_delay(), 0.0);
}

TEST_F(TransportFixture, ContendedFifoQueueing) {
  // Two size-4 messages on the same link at t=0: the second queues behind
  // the first (tx = 2 each): arrivals at 3 and 5. Order preserved (§2).
  ContendedTransport t(sim_, topo_, tables_, 2.0);
  wire(t);
  t.send(0, 1, std::string("first"), 1, 4.0);
  t.send(0, 1, std::string("second"), 1, 4.0);
  sim_.run();
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].text, "first");
  EXPECT_DOUBLE_EQ(log_[0].at, 3.0);
  EXPECT_EQ(log_[1].text, "second");
  EXPECT_DOUBLE_EQ(log_[1].at, 5.0);
  EXPECT_DOUBLE_EQ(t.max_queueing_delay(), 2.0);
}

TEST_F(TransportFixture, ContendedDirectionsAreIndependent) {
  ContendedTransport t(sim_, topo_, tables_, 1.0);
  wire(t);
  t.send(0, 1, std::string("a"), 1, 3.0);
  t.send(1, 0, std::string("b"), 1, 3.0);
  sim_.run();
  // Full duplex: both arrive at tx + delay = 4.0, no cross queueing.
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_DOUBLE_EQ(log_[0].at, 4.0);
  EXPECT_DOUBLE_EQ(log_[1].at, 4.0);
  EXPECT_DOUBLE_EQ(t.max_queueing_delay(), 0.0);
}

TEST_F(TransportFixture, ContendedZeroSizeMessageLeavesLinkFree) {
  // A zero-size message at t=0 occupies 0 -> 1 until exactly 0.0, so the
  // next message on that direction starts at once: tx = 2, arrival 3.
  // Busy until 0.0 is still a crossed direction, not an idle one: the
  // snapshot's (from, to) -> busy-until list must carry it.
  ContendedTransport t(sim_, topo_, tables_, 2.0);
  wire(t);
  EXPECT_TRUE(t.busy_links().empty());
  t.send(0, 1, std::string("empty"), 1, 0.0);
  const std::map<std::pair<SiteId, SiteId>, Time> crossed = {{{0, 1}, 0.0}};
  EXPECT_EQ(t.busy_links(), crossed);
  t.send(0, 1, std::string("full"), 1, 4.0);
  sim_.run();
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].text, "empty");
  EXPECT_DOUBLE_EQ(log_[0].at, 1.0);
  EXPECT_EQ(log_[1].text, "full");
  EXPECT_DOUBLE_EQ(log_[1].at, 3.0);
  EXPECT_DOUBLE_EQ(t.max_queueing_delay(), 0.0);
}

TEST_F(TransportFixture, HighBandwidthApproachesIdeal) {
  ContendedTransport fast(sim_, topo_, tables_, 1e9);
  wire(fast);
  fast.send(0, 2, std::string("x"), 1, 10.0);
  sim_.run();
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_NEAR(log_[0].at, 2.0, 1e-6);
}

TEST_F(TransportFixture, SelfSendFreeAndImmediate) {
  IdealTransport ideal(sim_, tables_);
  wire(ideal);
  EXPECT_EQ(ideal.send(1, 1, std::string("self"), 1, 1.0), 0u);
  sim_.run();
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_DOUBLE_EQ(log_[0].at, 0.0);
  EXPECT_EQ(ideal.stats().total_link_messages, 0u);
}

TEST_F(TransportFixture, ContendedZeroBandwidthRejected) {
  EXPECT_THROW(ContendedTransport(sim_, topo_, tables_, 0.0),
               ContractViolation);
}

// Links added high-id-first, so each Link{a, b} has a > b: the direction
// a message takes is the reverse of the link's stored orientation as
// often as not, and both directions must still queue independently.
TEST(ContendedReversedLinks, DirectionsQueueIndependently) {
  Topology topo;
  for (int i = 0; i < 3; ++i) topo.add_site();
  topo.add_link(2, 1, 1.0);
  topo.add_link(1, 0, 1.0);
  const auto tables = phased_apsp(topo, 4);
  Simulator sim;
  std::vector<Delivery> log;
  ContendedTransport t(sim, topo, tables, 1.0);
  for (SiteId s = 0; s < topo.site_count(); ++s)
    t.set_handler(s, [&log, &sim, s](SiteId from, const MessageBody& payload) {
      log.push_back(Delivery{s, from, std::get<std::string>(payload),
                             sim.now()});
    });
  // 1 -> 2 and 2 -> 1 share link 0; 2 -> 1 carries two messages, so only
  // that direction queues (tx = 3 each, delay 1).
  t.send(1, 2, std::string("up"), 1, 3.0);
  t.send(2, 1, std::string("down1"), 1, 3.0);
  t.send(2, 1, std::string("down2"), 1, 3.0);
  // 2 -> 0 relays through 1 over both links, behind "down1"/"down2" on
  // 2 -> 1 and alone on 1 -> 0: it leaves 2 at 6, reaches 1 at 8 (tx 1),
  // leaves 1 at once and lands at 10.
  t.send(2, 0, std::string("far"), 1, 1.0);
  sim.run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].text, "up");
  EXPECT_DOUBLE_EQ(log[0].at, 4.0);
  EXPECT_EQ(log[1].text, "down1");
  EXPECT_DOUBLE_EQ(log[1].at, 4.0);
  EXPECT_EQ(log[2].text, "down2");
  EXPECT_DOUBLE_EQ(log[2].at, 7.0);
  EXPECT_EQ(log[3].text, "far");
  EXPECT_EQ(log[3].from, 2u);
  EXPECT_DOUBLE_EQ(log[3].at, 10.0);
  EXPECT_DOUBLE_EQ(t.max_queueing_delay(), 6.0);
  // Every crossed direction, keyed (from, to) ascending; 0 -> 1 was never
  // crossed and is absent.
  const std::map<std::pair<SiteId, SiteId>, Time> expected = {
      {{1, 0}, 9.0}, {{1, 2}, 3.0}, {{2, 1}, 7.0}};
  EXPECT_EQ(t.busy_links(), expected);
}

// ------------------------------------------------ system over contended ----

TEST(ContendedSystem, GenerousBandwidthMatchesIdealInvariants) {
  Rng rng(1);
  Topology topo = make_grid(3, 3, DelayRange{0.5, 1.0}, rng);
  WorkloadConfig wl;
  wl.arrival_rate_per_site = 0.02;
  wl.horizon = 400.0;
  wl.seed = 41;
  const auto arrivals = generate_workload(topo.site_count(), wl);

  SystemConfig cfg;
  cfg.transport_model = TransportModel::kContended;
  cfg.link_bandwidth = 1000.0;  // effectively no queueing
  RtdsSystem system(std::move(topo), cfg);
  system.run(arrivals);
  EXPECT_EQ(system.metrics().deadline_misses, 0u);
  EXPECT_EQ(system.metrics().dispatch_failures, 0u);
}

TEST(ContendedSystem, TightBandwidthNeedsOverheadFactor) {
  // Under heavy contention the 3×ecc charge can be violated; the system
  // must degrade *honestly* (dispatch_failures counted, never a silent
  // deadline miss), and a raised protocol_overhead_factor must reduce or
  // eliminate the failures.
  auto run_with = [](double factor) {
    Rng rng(2);
    Topology topo = make_grid(3, 3, DelayRange{0.2, 0.5}, rng);
    WorkloadConfig wl;
    wl.arrival_rate_per_site = 0.05;
    wl.horizon = 400.0;
    wl.laxity_min = 1.2;
    wl.laxity_max = 2.5;
    wl.seed = 43;
    const auto arrivals = generate_workload(topo.site_count(), wl);
    SystemConfig cfg;
    cfg.transport_model = TransportModel::kContended;
    cfg.link_bandwidth = 5.0;  // very tight: task-code messages queue hard
    cfg.node.protocol_overhead_factor = factor;
    RtdsSystem system(std::move(topo), cfg);
    system.run(arrivals);
    return std::pair{system.metrics().dispatch_failures,
                     system.metrics().deadline_misses};
  };
  const auto [fail_1x, miss_1x] = run_with(1.0);
  const auto [fail_4x, miss_4x] = run_with(4.0);
  EXPECT_EQ(miss_1x, 0u);  // never silent — even when overloaded
  EXPECT_EQ(miss_4x, 0u);
  EXPECT_LE(fail_4x, fail_1x);
}

TEST(ContendedSystem, DeterministicLikeIdeal) {
  auto run_once = [] {
    Rng rng(3);
    Topology topo = make_ring(8, DelayRange{0.3, 0.8}, rng);
    WorkloadConfig wl;
    wl.arrival_rate_per_site = 0.03;
    wl.horizon = 300.0;
    wl.seed = 47;
    const auto arrivals = generate_workload(topo.site_count(), wl);
    SystemConfig cfg;
    cfg.transport_model = TransportModel::kContended;
    cfg.link_bandwidth = 20.0;
    RtdsSystem system(std::move(topo), cfg);
    system.run(arrivals);
    return system.metrics().transport.total_link_messages;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace rtds
