#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "net/generators.hpp"
#include "sim/event.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rtds {
namespace {

// ----------------------------------------------------------- simulator ----

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(Simulator, StableTieBreakBySchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.schedule_in(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulator, RunUntilLeavesFutureEventsQueued) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.has_events());
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, PastSchedulingRejected) {
  Simulator sim;
  sim.schedule_at(2.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), ContractViolation);
}

TEST(Simulator, ZeroDelaySelfScheduleAdvancesQueue) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    sim.schedule_in(0.0, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

// ------------------------------------------------- reserved seq band ----

/// Records the site of every StartNext it runs, in firing order.
struct SiteLog final : EventOwner {
  std::vector<SiteId> fired;

 private:
  void fire(Event& event) override {
    fired.push_back(std::get<ev::StartNext>(event).site);
  }
};

TEST(SimulatorBand, PostOutsideTheReservedBandThrows) {
  Simulator sim;
  SiteLog log;
  EXPECT_THROW(sim.post_reserved(1.0, 0, log, ev::StartNext{0}),
               ContractViolation);  // no band yet
  sim.post_at(1.0, log, ev::StartNext{0});  // seq 0
  EXPECT_EQ(sim.reserve_seqs(3), 1u);
  EXPECT_EQ(sim.next_seq(), 4u);
  EXPECT_THROW(sim.post_reserved(1.0, 0, log, ev::StartNext{9}),
               ContractViolation);
  EXPECT_THROW(sim.post_reserved(1.0, 4, log, ev::StartNext{9}),
               ContractViolation);
  sim.post_reserved(1.0, 3, log, ev::StartNext{3});
  sim.post_reserved(1.0, 1, log, ev::StartNext{1});
  sim.post_at(1.0, log, ev::StartNext{4});  // seq 4, after the band
  // A new band replaces the last one.
  EXPECT_EQ(sim.reserve_seqs(2), 5u);
  EXPECT_THROW(sim.post_reserved(1.0, 2, log, ev::StartNext{9}),
               ContractViolation);
  sim.post_reserved(1.0, 5, log, ev::StartNext{5});
  EXPECT_EQ(sim.pending(), 5u);
  sim.run();
  EXPECT_EQ(log.fired, (std::vector<SiteId>{0, 1, 3, 4, 5}));
}

TEST(SimulatorBand, PostBelowTheLastPoppedKeyThrows) {
  Simulator sim;
  SiteLog log;
  const std::uint64_t band = sim.reserve_seqs(4);
  sim.post_reserved(2.0, band + 2, log, ev::StartNext{2});
  ASSERT_TRUE(sim.step());  // pops (2.0, band + 2)
  EXPECT_THROW(sim.post_reserved(2.0, band + 1, log, ev::StartNext{1}),
               ContractViolation);  // same time, lower seq
  EXPECT_THROW(sim.post_reserved(1.0, band + 3, log, ev::StartNext{3}),
               ContractViolation);  // before the clock
  EXPECT_EQ(sim.pending(), 0u);
  sim.post_reserved(2.0, band + 3, log, ev::StartNext{3});
  sim.run();
  EXPECT_EQ(log.fired, (std::vector<SiteId>{2, 3}));
}

// ---------------------------------------------------- pop-order property ----

// Mirrors every schedule into a std::priority_queue over (time, seq), the
// order the simulator promises, and checks each fired event against the
// reference's top. An event's children are drawn from the model's RNG when
// it fires, so both sides keep scheduling the same events exactly as long as
// the execution orders agree. A band (post_band) models a closed run's
// arrival cursor: its events enter the reference at once, under seqs
// reserved then, but reach the simulator one at a time.
class PopOrderModel final : public EventOwner {
 public:
  PopOrderModel(std::uint64_t seed, std::size_t budget)
      : rng_(seed), budget_(budget) {}

  Simulator sim;

  void post(Time at) { post_id(at, next_id_++); }

  /// `count` events at now + a mixed delay each: ties, zero delays, short
  /// message-like and long completion-like delays.
  void post_batch(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) post(sim.now() + draw_delay());
  }

  /// `count` events at now + a mixed delay each, under seqs reserved now;
  /// only the first in (time, seq) order is posted, and each posts the
  /// next when it fires. The previous band must be fully posted.
  void post_band(std::size_t count) {
    if (held_next_ != held_.size()) return diverge("band still open");
    const std::uint64_t seq = sim.reserve_seqs(count);
    if (seq != ref_seq_) return diverge("band out of step");
    held_.clear();
    held_next_ = 0;
    for (std::size_t j = 0; j < count; ++j) {
      held_.push_back(Ref{sim.now() + draw_delay(), seq + j, next_id_++});
      ref_.push(held_.back());
    }
    ref_seq_ += count;
    std::sort(held_.begin(), held_.end(), [](const Ref& a, const Ref& b) {
      return Later{}(b, a);
    });
    post_held();
  }

  /// Fires an extra bulk batch from inside the event that fires
  /// `trigger`-th.
  void bulk_inside_at(std::size_t trigger, std::size_t count) {
    bulk_trigger_ = trigger;
    bulk_count_ = count;
  }

  /// The queue plus the band's unposted events, merged in (time, seq)
  /// order as a snapshot writes them, equals the reference.
  void expect_pending_matches() const {
    const auto ref = ref_contents();
    std::vector<Ref> got;
    for (const auto& p : sim.pending_events())
      got.push_back(Ref{p.at, p.seq, 0});
    ASSERT_EQ(sim.pending(), got.size());
    got.insert(got.end(), held_.begin() + held_next_, held_.end());
    std::sort(got.begin(), got.end(),
              [](const Ref& a, const Ref& b) { return Later{}(b, a); });
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(got[i].seq, ref[i].seq) << "pending #" << i;
      ASSERT_EQ(got[i].at, ref[i].at) << "pending #" << i;
    }
  }

  /// After run_until(t_end): everything left lies beyond the cut-off.
  void expect_cut_at(Time t_end) const {
    if (!ref_.empty()) {
      EXPECT_FALSE(time_le(ref_.top().at, t_end));
    }
    EXPECT_EQ(sim.has_events(), !ref_.empty());
  }

  /// The snapshot restore path: clear the queue, restore the clock (which
  /// may lie before the last executed event) and re-post the saved events
  /// in their (time, seq) order under fresh sequence numbers.
  void checkpoint_round_trip(Time restore_now, std::uint64_t seq_gap) {
    const auto saved = ref_contents();
    sim.clear_pending();
    EXPECT_FALSE(sim.has_events());
    ref_ = {};
    held_.clear();
    held_next_ = 0;
    sim.restore_clock(restore_now, sim.next_seq() + seq_gap, fired_);
    ref_seq_ = sim.next_seq();
    for (const Ref& r : saved) post_id(r.at, r.id);
  }

  /// The snapshot load: as checkpoint_round_trip, but one band reserves a
  /// seq per saved event in order and each is posted under its own, except
  /// the band's events (posted or not), which form the new band.
  void band_round_trip(Time restore_now, std::uint64_t seq_gap) {
    const auto saved = ref_contents();
    std::set<std::uint64_t> band_ids;
    for (const Ref& r : held_) band_ids.insert(r.id);
    sim.clear_pending();
    ref_ = {};
    held_.clear();
    held_next_ = 0;
    sim.restore_clock(restore_now, sim.next_seq() + seq_gap, fired_);
    std::uint64_t seq = sim.reserve_seqs(saved.size());
    for (const Ref& r : saved) {
      const Ref restored{r.at, seq++, r.id};
      ref_.push(restored);
      if (band_ids.contains(r.id))
        held_.push_back(restored);
      else
        sim.post_reserved(r.at, restored.seq, *this,
                          ev::LeaseExpiry{0, r.id});
    }
    ref_seq_ = sim.next_seq();
    post_held();
  }

  bool diverged() const { return diverged_; }
  std::size_t fired() const { return fired_; }
  std::size_t reference_size() const { return ref_.size(); }

 private:
  struct Ref {
    Time at;
    std::uint64_t seq;
    std::uint64_t id;
  };
  struct Later {
    bool operator()(const Ref& a, const Ref& b) const {
      return a.at > b.at || (a.at == b.at && a.seq > b.seq);
    }
  };

  Time draw_delay() {
    switch (rng_.uniform_int(0, 6)) {
      case 0: return 0.0;
      case 1: return 1.0;
      case 2: return 0.25 * static_cast<double>(rng_.uniform_int(1, 8));
      case 3: return rng_.uniform(0.5, 2.0);
      case 4: return rng_.uniform(50.0, 200.0);
      case 5: return rng_.uniform(0.0, 1e-3);
      default: return 100.0;
    }
  }

  /// Posts the band's next event, if any.
  void post_held() {
    if (held_next_ == held_.size()) return;
    const Ref& r = held_[held_next_++];
    sim.post_reserved(r.at, r.seq, *this, ev::LeaseExpiry{kBand, r.id});
  }

  /// A typed event: a band event (site kBand) posts the band's next.
  void fire(Event& event) override {
    const auto& e = std::get<ev::LeaseExpiry>(event);
    fire(e.lock_seq);
    if (e.site == kBand) post_held();
  }

  void post_id(Time at, std::uint64_t id) {
    if (sim.next_seq() != ref_seq_) {
      diverge("sequence numbers out of step");
      return;
    }
    ref_.push(Ref{at, ref_seq_++, id});
    sim.schedule_at(at, [this, id] { fire(id); });
  }

  void fire(std::uint64_t id) {
    if (diverged_) return;
    if (ref_.empty()) return diverge("fired with an empty reference");
    const Ref top = ref_.top();
    ref_.pop();
    if (top.id != id || top.at != sim.now())
      return diverge("fired out of (time, seq) order");
    ++fired_;
    if (fired_ == bulk_trigger_) post_batch(bulk_count_);
    if (next_id_ >= budget_) return;
    const auto kids = rng_.uniform_int(0, 3);  // 0, 1, 1, 2
    for (std::int64_t k = 0; k < (kids == 3 ? 2 : kids == 0 ? 0 : 1); ++k)
      post(sim.now() + draw_delay());
  }

  void diverge(const char* what) {
    if (!diverged_)
      ADD_FAILURE() << what << " after " << fired_ << " events at t="
                    << sim.now();
    diverged_ = true;
  }

  std::vector<Ref> ref_contents() const {
    auto copy = ref_;
    std::vector<Ref> out;
    for (; !copy.empty(); copy.pop()) out.push_back(copy.top());
    return out;
  }

  Rng rng_;
  std::size_t budget_;
  std::priority_queue<Ref, std::vector<Ref>, Later> ref_;
  std::uint64_t ref_seq_ = 0;
  std::uint64_t next_id_ = 0;
  std::size_t fired_ = 0;
  std::size_t bulk_trigger_ = 0;
  std::size_t bulk_count_ = 0;
  bool diverged_ = false;
  static constexpr SiteId kBand = 1;
  /// The open band in (time, seq) order; the first held_next_ are posted.
  std::vector<Ref> held_;
  std::size_t held_next_ = 0;
};

TEST(SimulatorProperty, PopOrderMatchesPriorityQueueReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    PopOrderModel m(seed, 80'000);
    m.post(-0.0);
    m.post(0.0);
    m.post(-0.0);
    m.post(5e-324);
    m.post_batch(12'000);  // a bulk load before the first step
    m.post_band(4'000);     // a closed run's arrivals
    m.bulk_inside_at(20'000, 10'000);

    m.sim.run_until(3.0);
    m.expect_cut_at(3.0);
    m.expect_pending_matches();

    m.sim.run_chunk(5'000);
    m.expect_pending_matches();
    m.post_batch(10'000);  // a bulk load onto a live queue
    const Time cut = m.sim.now() + 40.0;
    m.sim.run_until(cut);
    m.expect_cut_at(cut);

    m.band_round_trip(m.sim.now(), 17);
    m.expect_pending_matches();
    m.sim.run_chunk(3'000);
    // Restore to a clock before the last executed event, then post below it.
    m.checkpoint_round_trip(m.sim.now() / 2, 1);
    m.post_batch(200);
    m.post_band(300);
    m.expect_pending_matches();
    m.sim.run_chunk(100);
    m.band_round_trip(m.sim.now(), 0);
    m.expect_pending_matches();

    m.sim.run();
    EXPECT_FALSE(m.diverged());
    EXPECT_EQ(m.reference_size(), 0u);
    EXPECT_FALSE(m.sim.has_events());
    EXPECT_EQ(m.sim.executed_events(), m.fired());
    EXPECT_GT(m.fired(), 80'000u);
  }
}

// ------------------------------------------------------------- network ----

struct Recorded {
  SiteId to;
  SiteId from;
  std::string text;
  Time at;
};

class NetworkFixture : public ::testing::Test {
 protected:
  NetworkFixture() : rng_(1), topo_(make_line(3, DelayRange{2.0, 2.0}, rng_)),
                     net_(sim_, topo_) {
    for (SiteId s = 0; s < topo_.site_count(); ++s) {
      net_.set_handler(s, [this, s](SiteId from, const MessageBody& payload) {
        received_.push_back(Recorded{s, from,
                                     std::get<std::string>(payload),
                                     sim_.now()});
      });
    }
  }

  Rng rng_;
  Topology topo_;
  Simulator sim_;
  SimNetwork net_;
  std::vector<Recorded> received_;
};

TEST_F(NetworkFixture, AdjacentDeliveryAfterLinkDelay) {
  net_.send_adjacent(0, 1, std::string("hello"), 1);
  sim_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].to, 1u);
  EXPECT_EQ(received_[0].from, 0u);
  EXPECT_EQ(received_[0].text, "hello");
  EXPECT_DOUBLE_EQ(received_[0].at, 2.0);
  EXPECT_EQ(net_.stats().total_link_messages, 1u);
  EXPECT_EQ(net_.stats().by_category.at(1).sends, 1u);
}

TEST_F(NetworkFixture, NonAdjacentSendRejected) {
  EXPECT_THROW(net_.send_adjacent(0, 2, std::string("x")), ContractViolation);
}

TEST_F(NetworkFixture, RoutedDeliveryChargesHops) {
  net_.send_routed(0, 2, 4.0, 2, std::string("multi"), 5);
  sim_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_DOUBLE_EQ(received_[0].at, 4.0);
  EXPECT_EQ(net_.stats().by_category.at(5).link_messages, 2u);
  EXPECT_EQ(net_.stats().by_category.at(5).sends, 1u);
}

TEST_F(NetworkFixture, SelfRoutedIsFree) {
  net_.send_routed(1, 1, 0.0, 0, std::string("self"));
  sim_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].from, 1u);
  EXPECT_EQ(net_.stats().total_link_messages, 0u);
  EXPECT_EQ(net_.stats().total_sends, 1u);
}

TEST_F(NetworkFixture, LocalDeliveryAfterDelay) {
  net_.send_local(2, 1.5, std::string("timer"));
  sim_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_DOUBLE_EQ(received_[0].at, 1.5);
  EXPECT_EQ(net_.stats().total_link_messages, 0u);
}

TEST_F(NetworkFixture, OrderPreservingPerLink) {
  // §2: links are order-preserving — equal-delay messages on the same link
  // arrive in send order (guaranteed by the stable event queue).
  for (int i = 0; i < 5; ++i)
    net_.send_adjacent(0, 1, std::string(1, char('a' + i)));
  sim_.run();
  ASSERT_EQ(received_.size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(received_[i].text, std::string(1, char('a' + i)));
}

TEST_F(NetworkFixture, StatsAccumulateAcrossCategories) {
  net_.send_adjacent(0, 1, std::string("a"), 1);
  net_.send_adjacent(1, 2, std::string("b"), 2);
  net_.send_routed(0, 2, 4.0, 2, std::string("c"), 2);
  sim_.run();
  EXPECT_EQ(net_.stats().total_sends, 3u);
  EXPECT_EQ(net_.stats().total_link_messages, 4u);
  EXPECT_EQ(net_.stats().by_category.at(2).link_messages, 3u);
}

}  // namespace
}  // namespace rtds
