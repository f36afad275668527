#include "routing/transport.hpp"

#include <algorithm>
#include <utility>

#include "fault/fault.hpp"

namespace rtds {

// ----------------------------------------------------------- transport ----

Transport::Transport(Simulator& sim, const std::vector<RoutingTable>& tables)
    : SimNetwork(sim, tables.size()), tables_(tables) {}

const RouteLine* Transport::route(SiteId from, SiteId to,
                                  const MessageBody& payload, int category) {
  RTDS_REQUIRE(from < tables_.size());
  RTDS_REQUIRE(to < tables_.size());
  const RouteLine* line = tables_[from].find(to);
  if (faults_ != nullptr && line == nullptr) {
    stats().record(category, 0);
    drop(to, payload);
    return nullptr;
  }
  RTDS_REQUIRE_MSG(line != nullptr, "no route " << from << " -> " << to);
  return line;
}

// --------------------------------------------------------------- ideal ----

IdealTransport::IdealTransport(Simulator& sim,
                               const std::vector<RoutingTable>& tables)
    : Transport(sim, tables) {}

std::size_t IdealTransport::send(SiteId from, SiteId to, MessageBody payload,
                                 int category, double size_units) {
  RTDS_REQUIRE(size_units >= 0.0);
  if (from == to) {
    send_routed(from, to, 0.0, 0, std::move(payload), category);
    return 0;
  }
  const RouteLine* line = route(from, to, payload, category);
  if (line == nullptr) return 0;
  send_routed(from, to, line->dist, line->hops, std::move(payload), category);
  return line->hops;
}

// ----------------------------------------------------------- contended ----

ContendedTransport::ContendedTransport(Simulator& sim, const Topology& topo,
                                       const std::vector<RoutingTable>& tables,
                                       double bandwidth)
    : Transport(sim, tables), topo_(topo), bandwidth_(bandwidth) {
  RTDS_REQUIRE_MSG(bandwidth > 0.0, "contended transport needs bandwidth > 0");
}

void ContendedTransport::fire(Event& event) {
  if (auto* inject = std::get_if<ev::ContendedInject>(&event)) {
    hop(inject->from, inject->from, inject->to, std::move(inject->body),
        inject->size_units);
  } else if (auto* h = std::get_if<ev::ContendedHop>(&event)) {
    hop(h->origin, h->cur, h->dest, std::move(h->body), h->size_units);
  } else {
    SimNetwork::fire(event);
  }
}

std::size_t ContendedTransport::send(SiteId from, SiteId to, MessageBody payload,
                                     int category, double size_units) {
  RTDS_REQUIRE(size_units >= 0.0);
  if (from == to) {
    send_routed(from, to, 0.0, 0, std::move(payload), category);
    return 0;
  }
  const RouteLine* line = route(from, to, payload, category);
  if (line == nullptr) return 0;
  count_routed(from, to, line->hops, category);
  auto shared = std::make_shared<const MessageBody>(std::move(payload));
  // The store-and-forward chain already models queueing; the plan's extra
  // delay (and reorder jitter) perturbs the injection instant instead of
  // each hop. Handlers receive the *logical* sender, threaded through the
  // whole hop chain as its origin.
  post_copies(to, 0.0, *shared, [&](Time extra, bool duplicate) {
    if (duplicate || extra > 0.0)
      sim_.post_in(extra, *this,
                   ev::ContendedInject{from, to, size_units,
                                       duplicate ? shared : std::move(shared)});
    else
      hop(from, from, to, std::move(shared), size_units);
  });
  return line->hops;
}

void ContendedTransport::hop(SiteId origin, SiteId cur, SiteId to,
                             std::shared_ptr<const MessageBody> payload,
                             double size_units) {
  if (cur == to) {
    land(origin, to, *payload);
    return;
  }
  const RouteLine* line = tables_[cur].find(to);
  if (faults_ != nullptr && line == nullptr) {
    // A repair invalidated the path mid-flight; store-and-forward loses
    // the message at the stranded relay.
    drop(to, *payload);
    return;
  }
  RTDS_CHECK(line != nullptr);
  const SiteId next = line->next_hop;
  RTDS_CHECK(next != kNoSite);
  if (faults_ != nullptr && !faults_->link_up(cur, next)) {
    drop(to, *payload);
    return;
  }
  // One adjacency scan gives both the busy slot and the propagation delay.
  const Neighbor* link = topo_.neighbor(cur, next);
  RTDS_CHECK(link != nullptr);
  const Time now = sim_.now();
  Time& busy = busy_until(cur, *link);
  const Time queue_start = std::max(now, busy);
  max_queueing_delay_ = std::max(max_queueing_delay_, queue_start - now);
  // Queueing in integer microsim-units: enough resolution for the bin
  // histogram, and integral so the metric stays exactly mergeable.
  RTDS_HIST("net.contended.queue_x1000", (queue_start - now) * 1000.0);
  const Time tx = size_units / bandwidth_;
  busy = queue_start + tx;
  const Time arrival = queue_start + tx + link->delay;
  // The payload moves down the hop chain: one shared body per send.
  sim_.post_at(arrival, *this,
               ev::ContendedHop{origin, next, to, size_units,
                                std::move(payload)});
}

Time& ContendedTransport::busy_until(SiteId from, const Neighbor& to) {
  if (link_busy_until_.empty())
    link_busy_until_.assign(2 * topo_.link_count(), kIdleLink);
  return link_busy_until_[2 * std::size_t{to.link} + (from > to.site)];
}

std::map<std::pair<SiteId, SiteId>, Time> ContendedTransport::busy_links()
    const {
  std::map<std::pair<SiteId, SiteId>, Time> out;
  for (std::size_t slot = 0; slot < link_busy_until_.size(); ++slot) {
    if (link_busy_until_[slot] == kIdleLink) continue;
    const Link& link = topo_.links()[slot / 2];
    const SiteId lo = std::min(link.a, link.b), hi = std::max(link.a, link.b);
    // Odd slots carry the high-to-low direction.
    if (slot % 2 == 0) out.emplace(std::pair{lo, hi}, link_busy_until_[slot]);
    else out.emplace(std::pair{hi, lo}, link_busy_until_[slot]);
  }
  return out;
}

}  // namespace rtds
