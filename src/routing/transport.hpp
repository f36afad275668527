// Message transports for the RTDS protocol layer.
//
// The paper's base model charges a routed message the min-path propagation
// delay (links have infinite bandwidth). §13 points out the realistic
// extension: finite throughput and message volumes. Two implementations of
// one interface:
//
//  * IdealTransport     — arrives after the min-path delay from the routing
//                         tables; charged `hops` link-messages. Identical
//                         behaviour to the paper's base model.
//  * ContendedTransport — store-and-forward: the message traverses the
//                         min-delay path hop by hop; each directed link is
//                         a FIFO server with finite bandwidth, so a hop
//                         costs queueing + size/bandwidth serialization +
//                         propagation. Links stay loss-less and
//                         order-preserving (§2) — they just have capacity.
//
// Both run on the shared Simulator and use the §7 routing tables, so every
// transport decision uses exactly the knowledge the distributed algorithm
// actually built.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/messages.hpp"
#include "routing/routing_table.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace rtds::snap {
struct Access;
}  // namespace rtds::snap

namespace rtds {

class Transport {
 public:
  using Handler = std::function<void(SiteId from, const MessageBody& payload)>;
  /// Invoked whenever a send is lost to injected faults, with the intended
  /// destination and the undelivered payload (the system layer inspects
  /// lost dispatches to mark their jobs failed).
  using DropHook = std::function<void(SiteId to, const MessageBody& payload)>;

  virtual ~Transport() = default;

  virtual void set_handler(SiteId site, Handler handler) = 0;

  /// Installs a fault view plus drop notification (nullptr = faultless,
  /// the default). With faults installed, sends consult site/link/route
  /// liveness and the plan's drop/extra-delay perturbations; a lost send
  /// still counts its link messages but also increments
  /// MessageStats::messages_dropped and fires `on_drop`.
  virtual void set_fault_state(fault::FaultState* faults,
                               DropHook on_drop) = 0;

  /// Sends `payload` from `from` to `to` (self-sends deliver immediately
  /// and are free). `size_units` models the message volume (task codes are
  /// bigger than acks). Returns the hop-weighted link-message count charged.
  virtual std::size_t send(SiteId from, SiteId to, MessageBody payload,
                           int category, double size_units) = 0;

  virtual const MessageStats& stats() const = 0;
};

/// Infinite-bandwidth minimum-delay delivery (the paper's base model).
class IdealTransport final : public Transport {
 public:
  /// `tables` must outlive the transport and cover every pair the protocol
  /// will use (the 2h-phase tables cover all intra-sphere pairs).
  IdealTransport(Simulator& sim, const std::vector<RoutingTable>& tables);

  void set_handler(SiteId site, Handler handler) override;
  void set_fault_state(fault::FaultState* faults, DropHook on_drop) override;
  std::size_t send(SiteId from, SiteId to, MessageBody payload, int category,
                   double size_units) override;
  const MessageStats& stats() const override { return stats_; }

 private:
  void drop(SiteId to, const MessageBody& payload);
  /// Self-send delivery: no liveness check (a site is always reachable
  /// from itself), just the handler call.
  void deliver_self(SiteId from, SiteId to, const MessageBody& payload);
  /// Routed delivery: destination liveness is checked when the message
  /// lands, not when it was sent. Both the primary and any duplicated
  /// copy fire through here, so a checkpoint replay re-enters the exact
  /// delivery path.
  void deliver(SiteId from, SiteId to, const MessageBody& payload);

  friend struct snap::Access;

  Simulator& sim_;
  const std::vector<RoutingTable>& tables_;
  std::vector<Handler> handlers_;
  MessageStats stats_;
  fault::FaultState* faults_ = nullptr;
  DropHook on_drop_;
};

/// Store-and-forward with per-directed-link FIFO queues and finite
/// bandwidth.
class ContendedTransport final : public Transport {
 public:
  /// `bandwidth` in size-units per time unit, > 0.
  ContendedTransport(Simulator& sim, const Topology& topo,
                     const std::vector<RoutingTable>& tables,
                     double bandwidth);

  void set_handler(SiteId site, Handler handler) override;
  void set_fault_state(fault::FaultState* faults, DropHook on_drop) override;
  std::size_t send(SiteId from, SiteId to, MessageBody payload, int category,
                   double size_units) override;
  const MessageStats& stats() const override { return stats_; }

  /// Peak queueing delay any single hop has experienced so far (observability
  /// for tests/benches: how badly the ideal model's assumption was violated).
  Time max_queueing_delay() const { return max_queueing_delay_; }

  /// Busy-until time of every directed link (from, to) a message has
  /// crossed, in ascending (from, to) order — what a snapshot records.
  std::map<std::pair<SiteId, SiteId>, Time> busy_links() const;

 private:
  /// Marks a direction no message has crossed yet. Any real busy-until is
  /// >= 0, so max(now, kIdleLink) == now and the queueing is unchanged.
  static constexpr Time kIdleLink = -1.0;

  void drop(SiteId to, const MessageBody& payload);
  void deliver_self(SiteId from, SiteId to, const MessageBody& payload);
  void forward(SiteId at, SiteId to,
               std::shared_ptr<const MessageBody> payload, double size_units);
  void hop(SiteId origin, SiteId cur, SiteId to,
           std::shared_ptr<const MessageBody> payload, double size_units);
  /// The busy-until slot of the direction from `from` over its adjacency
  /// entry `to`; allocates the table on first use.
  Time& busy_until(SiteId from, const Neighbor& to);

  friend struct snap::Access;

  Simulator& sim_;
  const Topology& topo_;
  const std::vector<RoutingTable>& tables_;
  double bandwidth_;
  std::vector<Handler> handlers_;
  /// Busy-until time per directed link: slot 2 · Neighbor::link +
  /// (from > to), kIdleLink until first crossed. Empty until the first hop,
  /// so constructing a transport allocates nothing per link.
  std::vector<Time> link_busy_until_;
  MessageStats stats_;
  Time max_queueing_delay_ = 0.0;
  fault::FaultState* faults_ = nullptr;
  DropHook on_drop_;
};

}  // namespace rtds
