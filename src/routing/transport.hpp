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
// Both are built on the delivery core (sim/network.hpp), which charges,
// fault-draws and lands every message, and use the §7 routing tables, so
// every transport decision uses exactly the knowledge the distributed
// algorithm actually built.
#pragma once

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

/// Each transport is a delivery core (sim/network.hpp) that routes: it
/// owns the events its sends post (sim/event.hpp) — the core's delivery
/// kinds, and the contended hop chain.
class Transport : public SimNetwork {
 public:
  virtual ~Transport() = default;

  /// Sends `payload` from `from` to `to` (self-sends deliver immediately
  /// and are free). `size_units` models the message volume (task codes are
  /// bigger than acks). Returns the hop-weighted link-message count charged.
  virtual std::size_t send(SiteId from, SiteId to, MessageBody payload,
                           int category, double size_units) = 0;

 protected:
  /// `tables` must outlive the transport and cover every pair the protocol
  /// will use (the 2h-phase tables cover all intra-sphere pairs).
  Transport(Simulator& sim, const std::vector<RoutingTable>& tables);

  /// The route line from `from` to a distinct site `to`, or nullptr when
  /// faults are installed and the tables hold no live path (topology
  /// repair left the destination's component unreachable): the send is
  /// then charged no link messages and lost like any other fault loss.
  const RouteLine* route(SiteId from, SiteId to, const MessageBody& payload,
                         int category);

  const std::vector<RoutingTable>& tables_;
};

/// Infinite-bandwidth minimum-delay delivery (the paper's base model): the
/// core's routed send along the table's route.
class IdealTransport final : public Transport {
 public:
  IdealTransport(Simulator& sim, const std::vector<RoutingTable>& tables);

  std::size_t send(SiteId from, SiteId to, MessageBody payload, int category,
                   double size_units) override;
};

/// Store-and-forward with per-directed-link FIFO queues and finite
/// bandwidth.
class ContendedTransport final : public Transport {
 public:
  /// `bandwidth` in size-units per time unit, > 0.
  ContendedTransport(Simulator& sim, const Topology& topo,
                     const std::vector<RoutingTable>& tables,
                     double bandwidth);

  std::size_t send(SiteId from, SiteId to, MessageBody payload, int category,
                   double size_units) override;

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

  /// Runs a ContendedInject (the chain starts at the origin) or a
  /// ContendedHop; the core runs the rest.
  void fire(Event& event) override;
  /// The message of `origin` has reached `cur` on its way to `to`: land it
  /// there, or queue it on the next link of the path.
  void hop(SiteId origin, SiteId cur, SiteId to,
           std::shared_ptr<const MessageBody> payload, double size_units);
  /// The busy-until slot of the direction from `from` over its adjacency
  /// entry `to`; allocates the table on first use.
  Time& busy_until(SiteId from, const Neighbor& to);

  friend struct snap::Access;

  const Topology& topo_;
  double bandwidth_;
  /// Busy-until time per directed link: slot 2 · Neighbor::link +
  /// (from > to), kIdleLink until first crossed. Empty until the first hop,
  /// so constructing a transport allocates nothing per link.
  std::vector<Time> link_busy_until_;
  Time max_queueing_delay_ = 0.0;
};

}  // namespace rtds
