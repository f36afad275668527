// The delivery core: the one rule for charging and delivering a message
// between sites.
//
// Every message in the tree goes through SimNetwork: the BID/RANDOM/BCAST
// baselines and the distributed APSP exchange use it directly, and both
// RTDS transports (routing/transport.hpp) are built on it. It owns
//  * the per-site handler table;
//  * MessageStats, recorded with its trace instant at send time;
//  * the fault view and its drop hook;
//  * the per-send fault draws, in one order: drop, duplicate, then extra
//    delay + reorder jitter per copy;
//  * the free self-send;
//  * the landing check: the destination must be up when a message lands.
//
// send_routed is a logical end-to-end send along an already-discovered
// minimum-delay path inside a sphere (enrollment, trial-mapping
// broadcast, validation replies, dispatch; §§8–11), or across one physical
// link (the distributed Bellman–Ford flooding of §7, hops = 1). It arrives
// after the path delay and is charged `hops` link-messages, so message
// accounting reflects real link usage, which is what the paper's "limited
// number of communication links" claim is about.
//
// Payloads are MessageBody — a closed variant over every protocol struct
// (core/messages.hpp) — so a send moves the body straight into a typed
// delivery event (ev::SelfDeliver / ev::Deliver, sim/event.hpp) that the
// core runs as its EventOwner: no closure and no heap allocation per
// message. Every send carries a small integer category for
// per-message-type accounting.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/messages.hpp"
#include "fault/fault.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace rtds {

/// obs hook behind MessageStats::record — every send in the tree funnels
/// through it, so this one call gives the observability layer its
/// per-message-category traffic counters (net.sends / net.link_messages /
/// net.msg.<category>.*). Out of line: it touches the metric-id table,
/// which would bloat the inlined hot path for the common unbound case.
void obs_count_message(int category, std::uint64_t hops);

/// Per-category message counters. Categories are small dense integers
/// (protocol 1–7, baselines 11–23, APSP 100), so the table is a flat
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
class SimNetwork : public EventOwner {
 public:
  /// (from, payload) -> handled by the receiving site's handler.
  using Handler = std::function<void(SiteId from, const MessageBody& payload)>;
  /// Invoked whenever a send is lost to injected faults, with the intended
  /// destination and the undelivered payload (the system layer inspects
  /// lost dispatches to mark their jobs failed).
  using DropHook = std::function<void(SiteId to, const MessageBody& payload)>;

  SimNetwork(Simulator& sim, std::size_t site_count);
  /// Pending delivery events point at their core.
  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// Registers the receive callback for a site (exactly once per site).
  void set_handler(SiteId site, Handler handler);

  /// Installs a fault view plus drop notification (nullptr = faultless,
  /// the default). With faults installed every routed send draws the drop
  /// coin, the duplication coin and per-copy extra delay and reorder
  /// jitter at send time, and a message is lost when its destination is
  /// down as it lands. A lost send still counts its link messages (the
  /// traffic was emitted), increments MessageStats::messages_dropped and
  /// fires `on_drop`; a duplicated send delivers twice and increments
  /// MessageStats::messages_duplicated.
  void set_fault_state(fault::FaultState* faults, DropHook on_drop = nullptr);

  /// Sends along a known route: arrives after `path_delay`, charged `hops`
  /// link-messages. The caller supplies the delay/hops it learned during
  /// PCS construction; hops must be >= 1 for distinct sites. A self-send
  /// (from == to) is free, lands at once and draws no faults.
  void send_routed(SiteId from, SiteId to, Time path_delay, std::size_t hops,
                   MessageBody payload, int category = 0);

  /// send_routed's accounting without the delivery (hops >= 1): for a
  /// caller that applies the message's effect itself (the BCAST flood) or
  /// delivers it its own way (the contended hop chain).
  void count_routed(SiteId from, SiteId to, std::size_t hops, int category);

  MessageStats& stats() { return stats_; }
  const MessageStats& stats() const { return stats_; }

 protected:
  /// Counts a send lost to injected faults and fires the drop hook.
  void drop(SiteId to, const MessageBody& payload);

  /// Draws one send's faults in the fixed order — drop, duplicate, then
  /// (extra delay, reorder jitter) per copy — so enabling one fault
  /// process never shifts the stream another reads. A lost send is
  /// dropped; otherwise post_copy(delay, duplicate) runs once per copy,
  /// the duplicate first, `delay` being the base delay plus that copy's
  /// perturbation.
  template <class PostCopy>
  void post_copies(SiteId to, Time delay, const MessageBody& payload,
                   PostCopy&& post_copy);

  /// Hands a message that reached `to` to its handler, unless faults have
  /// `to` down as it lands. A site always reaches itself.
  void land(SiteId from, SiteId to, const MessageBody& payload);

  /// Runs a SelfDeliver or a Deliver: the message lands.
  void fire(Event& event) override;

  Simulator& sim_;
  fault::FaultState* faults_ = nullptr;

 private:
  std::vector<Handler> handlers_;
  MessageStats stats_;
  DropHook on_drop_;
};

template <class PostCopy>
void SimNetwork::post_copies(SiteId to, Time delay, const MessageBody& payload,
                             PostCopy&& post_copy) {
  if (faults_ == nullptr) return post_copy(delay, false);
  if (faults_->sample_drop()) return drop(to, payload);
  const bool dup = faults_->sample_duplicate();
  Time jitter = faults_->sample_extra_delay();
  jitter += faults_->sample_reorder_delay();
  if (dup) {
    ++stats_.messages_duplicated;
    RTDS_COUNT("net.duplicated");
    // The duplicate adds its draws one at a time, the original their sum:
    // the two round differently, and every faulted run's bytes follow.
    Time dup_delay = delay + faults_->sample_extra_delay();
    dup_delay += faults_->sample_reorder_delay();
    post_copy(dup_delay, true);
  }
  post_copy(delay + jitter, false);
}

}  // namespace rtds
