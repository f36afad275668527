// Message transport over the simulated topology.
//
// Two delivery primitives match the two communication patterns in the
// paper:
//  * send_adjacent — one physical link hop (used by the distributed
//    Bellman–Ford flooding during PCS construction, §7);
//  * send_routed — a logical end-to-end send along an already-discovered
//    minimum-delay path inside a sphere (enrollment, trial-mapping
//    broadcast, validation replies, dispatch; §§8–11). It arrives after the
//    path delay and is charged `hops` link-messages, so message accounting
//    reflects real link usage, which is what the paper's "limited number of
//    communication links" claim is about.
//
// Payloads are MessageBody — a closed variant over every protocol struct
// (core/messages.hpp) — so a send moves the body straight into the
// delivery event's inline storage: no heap allocation per message. Every
// send carries a small integer category for per-message-type accounting.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/messages.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace rtds::fault {
class FaultState;
}

namespace rtds {

/// obs hook behind MessageStats::record — every send in the tree funnels
/// through it, so this one call gives the observability layer its
/// per-message-category traffic counters (net.sends / net.link_messages /
/// net.msg.<category>.*). Out of line: it touches the metric-id table,
/// which would bloat the inlined hot path for the common unbound case.
void obs_count_message(int category, std::uint64_t hops);

/// Per-category message counters. Categories are small dense integers
/// (protocol 1–6, baselines 11–23, APSP 100), so the table is a flat
/// array indexed by category — the per-send increment is two adds, not a
/// std::map walk. `by_category` keeps the map-shaped read API (at /
/// count / iteration over recorded categories, ascending).
struct MessageStats {
  struct Entry {
    std::uint64_t sends = 0;          ///< logical sends
    std::uint64_t link_messages = 0;  ///< hop-weighted physical messages
  };

  class CategoryCounters {
   public:
    /// One past the largest category in the tree (kApspMessageCategory).
    static constexpr int kCapacity = 101;

    Entry& operator[](int category) {
      const auto i = checked(category);
      recorded_[i] = true;
      return slots_[i];
    }

    const Entry& at(int category) const {
      const auto i = checked(category);
      RTDS_REQUIRE_MSG(recorded_[i], "category " << category
                                                 << " never recorded");
      return slots_[i];
    }

    std::size_t count(int category) const {
      return recorded_[checked(category)] ? 1u : 0u;
    }

    void clear() {
      slots_.fill(Entry{});
      recorded_.fill(false);
    }

    /// Iterates (category, entry) over recorded categories in ascending
    /// category order — the iteration order of the std::map it replaces.
    class const_iterator {
     public:
      const_iterator(const CategoryCounters* c, int i) : c_(c), i_(i) {
        skip();
      }
      std::pair<int, const Entry&> operator*() const {
        return {i_, c_->slots_[static_cast<std::size_t>(i_)]};
      }
      const_iterator& operator++() {
        ++i_;
        skip();
        return *this;
      }
      bool operator!=(const const_iterator& o) const { return i_ != o.i_; }
      bool operator==(const const_iterator& o) const { return i_ == o.i_; }

     private:
      void skip() {
        while (i_ < kCapacity && !c_->recorded_[static_cast<std::size_t>(i_)])
          ++i_;
      }
      const CategoryCounters* c_;
      int i_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, kCapacity}; }

   private:
    static std::size_t checked(int category) {
      RTDS_REQUIRE_MSG(category >= 0 && category < kCapacity,
                       "message category " << category << " out of range");
      return static_cast<std::size_t>(category);
    }

    std::array<Entry, kCapacity> slots_{};
    std::array<bool, kCapacity> recorded_{};
  };

  CategoryCounters by_category;
  std::uint64_t total_sends = 0;
  std::uint64_t total_link_messages = 0;
  /// Sends lost to injected faults (dead destination, downed link, drop
  /// coin, vanished route). Always 0 without a fault plan.
  std::uint64_t messages_dropped = 0;
  /// Extra copies injected by the duplication fault process. Always 0
  /// without a fault plan.
  std::uint64_t messages_duplicated = 0;

  void record(int category, std::uint64_t hops) {
    auto& e = by_category[category];
    ++e.sends;
    e.link_messages += hops;
    ++total_sends;
    total_link_messages += hops;
#if RTDS_OBS_ENABLED
    if (obs::current() != nullptr) obs_count_message(category, hops);
#endif
  }

  void clear() {
    by_category.clear();
    total_sends = 0;
    total_link_messages = 0;
    messages_dropped = 0;
    messages_duplicated = 0;
  }
};

/// Delivers typed messages between sites with simulated delays.
class SimNetwork {
 public:
  /// (from, payload) -> handled by the receiving site's handler.
  using Handler = std::function<void(SiteId from, const MessageBody& payload)>;

  SimNetwork(Simulator& sim, const Topology& topo);

  const Topology& topology() const { return topo_; }
  Simulator& simulator() { return sim_; }

  /// Registers the receive callback for a site (exactly once per site).
  void set_handler(SiteId site, Handler handler);

  /// Sends one hop across an existing physical link; arrives after the link
  /// delay. Charged 1 link-message.
  void send_adjacent(SiteId from, SiteId to, MessageBody payload,
                     int category = 0);

  /// Sends along a known multi-hop route: arrives after `path_delay`,
  /// charged `hops` link-messages. The caller (protocol layer) supplies the
  /// delay/hops it learned during PCS construction; hops must be >= 1 for
  /// distinct sites.
  void send_routed(SiteId from, SiteId to, Time path_delay, std::size_t hops,
                   MessageBody payload, int category = 0);

  /// send_routed's accounting without the delivery (hops >= 1): for a
  /// caller that applies the message's effect itself (the BCAST flood).
  void count_routed(SiteId from, SiteId to, std::size_t hops, int category);

  /// Local self-delivery after `delay` (e.g. mapper compute time). Charged
  /// zero link-messages.
  void send_local(SiteId site, Time delay, MessageBody payload,
                  int category = 0);

  /// Installs a fault view (nullptr = faultless, the default). With faults
  /// installed every send consults it: the drop coin, duplication coin,
  /// extra delay and reorder jitter are sampled at send time, adjacency
  /// additionally requires the link up at send time, and delivery is
  /// suppressed when the destination is down at arrival time. Dropped
  /// sends still count their link messages (the traffic was emitted) and
  /// increment MessageStats::messages_dropped; a duplicated send delivers
  /// twice and increments MessageStats::messages_duplicated.
  void set_fault_state(fault::FaultState* faults) { faults_ = faults; }

  MessageStats& stats() { return stats_; }
  const MessageStats& stats() const { return stats_; }

 private:
  void deliver(SiteId from, SiteId to, Time delay, MessageBody payload);
  /// Enqueues one delivery event at `delay` (deliver() may call it twice
  /// for a duplicated send, each copy with its own sampled jitter).
  void schedule_delivery(SiteId from, SiteId to, Time delay,
                         MessageBody payload);

  Simulator& sim_;
  const Topology& topo_;
  std::vector<Handler> handlers_;
  MessageStats stats_;
  fault::FaultState* faults_ = nullptr;
};

}  // namespace rtds
