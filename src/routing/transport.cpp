#include "routing/transport.hpp"

#include <algorithm>
#include <utility>

#include "fault/fault.hpp"
#include "obs/trace.hpp"

namespace rtds {
namespace {

EventRecord msg_record(EventRecord::Kind kind, SiteId from, SiteId to,
                       std::shared_ptr<const MessageBody> payload) {
  EventRecord rec;
  rec.kind = kind;
  rec.site = from;
  rec.peer = to;
  rec.payload = std::move(payload);
  return rec;
}

}  // namespace

// --------------------------------------------------------------- ideal ----

IdealTransport::IdealTransport(Simulator& sim,
                               const std::vector<RoutingTable>& tables)
    : sim_(sim), tables_(tables), handlers_(tables.size()) {}

void IdealTransport::set_handler(SiteId site, Handler handler) {
  RTDS_REQUIRE(site < handlers_.size());
  RTDS_REQUIRE(handler != nullptr);
  handlers_[site] = std::move(handler);
}

void IdealTransport::set_fault_state(fault::FaultState* faults,
                                     DropHook on_drop) {
  faults_ = faults;
  on_drop_ = std::move(on_drop);
}

void IdealTransport::drop(SiteId to, const MessageBody& payload) {
  ++stats_.messages_dropped;
  RTDS_COUNT("net.dropped");
  if (on_drop_) on_drop_(to, payload);
}

void IdealTransport::deliver_self(SiteId from, SiteId to,
                                  const MessageBody& payload) {
  RTDS_CHECK(handlers_[to] != nullptr);
  handlers_[to](from, payload);
}

void IdealTransport::deliver(SiteId from, SiteId to,
                             const MessageBody& payload) {
  // Arrival-time liveness: the destination must be up when the message
  // lands, not merely when it was sent.
  if (faults_ != nullptr && !faults_->site_up(to)) {
    drop(to, payload);
    return;
  }
  RTDS_CHECK(handlers_[to] != nullptr);
  handlers_[to](from, payload);
}

std::size_t IdealTransport::send(SiteId from, SiteId to, MessageBody payload,
                                 int category, double size_units) {
  RTDS_REQUIRE(from < handlers_.size());
  RTDS_REQUIRE(to < handlers_.size());
  RTDS_REQUIRE(size_units >= 0.0);
  if (from == to) {
    stats_.record(category, 0);
    std::shared_ptr<const MessageBody> rec_payload;
    if (sim_.recording())
      rec_payload = std::make_shared<const MessageBody>(payload);
    sim_.schedule_in(0.0, [this, from, to, p = std::move(payload)]() {
      deliver_self(from, to, p);
    });
    if (rec_payload)
      sim_.annotate(msg_record(EventRecord::Kind::kSelfDeliver, from, to,
                               std::move(rec_payload)));
    return 0;
  }
  const RouteLine* line = tables_[from].find(to);
  if (faults_ != nullptr && line == nullptr) {
    // Topology repair left no live path (the destination's component is
    // unreachable right now). The send is lost like any other fault loss.
    stats_.record(category, 0);
    drop(to, payload);
    return 0;
  }
  RTDS_REQUIRE_MSG(line != nullptr, "no route " << from << " -> " << to);
  stats_.record(category, line->hops);
  if (auto* tr = obs::tracer())
    tr->instant("net", msg_category_name(category), sim_.now(), from, to,
                line->hops);
  Time delay = line->dist;
  if (faults_ != nullptr) {
    if (faults_->sample_drop()) {
      drop(to, payload);
      return line->hops;
    }
    // Fixed draw order per send: drop, dup, then per-copy perturbations
    // (extra delay, reorder jitter) — same contract as SimNetwork.
    const bool dup = faults_->sample_duplicate();
    delay += faults_->sample_extra_delay() + faults_->sample_reorder_delay();
    if (dup) {
      ++stats_.messages_duplicated;
      RTDS_COUNT("net.duplicated");
      const Time dup_delay = line->dist + faults_->sample_extra_delay() +
                             faults_->sample_reorder_delay();
      sim_.schedule_in(dup_delay, [this, from, to, p = MessageBody(payload)]() {
        deliver(from, to, p);
      });
      if (sim_.recording())
        sim_.annotate(msg_record(EventRecord::Kind::kDeliver, from, to,
                                 std::make_shared<const MessageBody>(payload)));
    }
  }
  std::shared_ptr<const MessageBody> rec_payload;
  if (sim_.recording())
    rec_payload = std::make_shared<const MessageBody>(payload);
  sim_.schedule_in(delay, [this, from, to, p = std::move(payload)]() {
    deliver(from, to, p);
  });
  if (rec_payload)
    sim_.annotate(msg_record(EventRecord::Kind::kDeliver, from, to,
                             std::move(rec_payload)));
  return line->hops;
}

// ----------------------------------------------------------- contended ----

ContendedTransport::ContendedTransport(Simulator& sim, const Topology& topo,
                                       const std::vector<RoutingTable>& tables,
                                       double bandwidth)
    : sim_(sim),
      topo_(topo),
      tables_(tables),
      bandwidth_(bandwidth),
      handlers_(topo.site_count()) {
  RTDS_REQUIRE_MSG(bandwidth > 0.0, "contended transport needs bandwidth > 0");
}

void ContendedTransport::set_handler(SiteId site, Handler handler) {
  RTDS_REQUIRE(site < handlers_.size());
  RTDS_REQUIRE(handler != nullptr);
  handlers_[site] = std::move(handler);
}

void ContendedTransport::set_fault_state(fault::FaultState* faults,
                                         DropHook on_drop) {
  faults_ = faults;
  on_drop_ = std::move(on_drop);
}

void ContendedTransport::drop(SiteId to, const MessageBody& payload) {
  ++stats_.messages_dropped;
  RTDS_COUNT("net.dropped");
  if (on_drop_) on_drop_(to, payload);
}

void ContendedTransport::deliver_self(SiteId from, SiteId to,
                                      const MessageBody& payload) {
  RTDS_CHECK(handlers_[to] != nullptr);
  handlers_[to](from, payload);
}

std::size_t ContendedTransport::send(SiteId from, SiteId to, MessageBody payload,
                                     int category, double size_units) {
  RTDS_REQUIRE(from < handlers_.size());
  RTDS_REQUIRE(to < handlers_.size());
  RTDS_REQUIRE(size_units >= 0.0);
  if (from == to) {
    stats_.record(category, 0);
    std::shared_ptr<const MessageBody> rec_payload;
    if (sim_.recording())
      rec_payload = std::make_shared<const MessageBody>(payload);
    sim_.schedule_in(0.0, [this, from, to, p = std::move(payload)]() {
      deliver_self(from, to, p);
    });
    if (rec_payload)
      sim_.annotate(msg_record(EventRecord::Kind::kSelfDeliver, from, to,
                               std::move(rec_payload)));
    return 0;
  }
  const RouteLine* line = tables_[from].find(to);
  if (faults_ != nullptr && line == nullptr) {
    stats_.record(category, 0);
    drop(to, payload);
    return 0;
  }
  RTDS_REQUIRE_MSG(line != nullptr, "no route " << from << " -> " << to);
  const auto hops = line->hops;
  stats_.record(category, hops);
  if (auto* tr = obs::tracer())
    tr->instant("net", msg_category_name(category), sim_.now(), from, to,
                hops);
  auto shared = std::make_shared<const MessageBody>(std::move(payload));
  if (faults_ != nullptr) {
    if (faults_->sample_drop()) {
      drop(to, *shared);
      return hops;
    }
    // The store-and-forward chain already models queueing; the plan's
    // extra delay (and reorder jitter) perturbs the injection instant
    // instead of each hop. Draw order matches SimNetwork: drop, dup, then
    // per-copy perturbations.
    const bool dup = faults_->sample_duplicate();
    const Time extra =
        faults_->sample_extra_delay() + faults_->sample_reorder_delay();
    if (dup) {
      ++stats_.messages_duplicated;
      RTDS_COUNT("net.duplicated");
      const Time dup_extra =
          faults_->sample_extra_delay() + faults_->sample_reorder_delay();
      sim_.schedule_in(dup_extra, [this, from, to, p = shared,
                                   size_units]() { forward(from, to, p, size_units); });
      if (sim_.recording()) {
        EventRecord rec =
            msg_record(EventRecord::Kind::kContendedInject, from, to, shared);
        rec.y = size_units;
        sim_.annotate(std::move(rec));
      }
    }
    if (extra > 0.0) {
      sim_.schedule_in(extra, [this, from, to, p = shared,
                               size_units]() { forward(from, to, p, size_units); });
      if (sim_.recording()) {
        EventRecord rec = msg_record(EventRecord::Kind::kContendedInject, from,
                                     to, std::move(shared));
        rec.y = size_units;
        sim_.annotate(std::move(rec));
      }
      return hops;
    }
  }
  forward(from, to, std::move(shared), size_units);
  return hops;
}

void ContendedTransport::forward(SiteId at, SiteId to,
                                 std::shared_ptr<const MessageBody> payload,
                                 double size_units) {
  // `at` on the first call is the origin; handlers receive the *logical*
  // sender, which we thread through the whole hop chain.
  hop(at, at, to, std::move(payload), size_units);
}

void ContendedTransport::hop(SiteId origin, SiteId cur, SiteId to,
                             std::shared_ptr<const MessageBody> payload,
                             double size_units) {
  if (cur == to) {
    if (faults_ != nullptr && !faults_->site_up(to)) {
      drop(to, *payload);
      return;
    }
    RTDS_CHECK(handlers_[to] != nullptr);
    handlers_[to](origin, *payload);
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
  // The payload moves down the hop chain; only a recorded run keeps a
  // second reference, for the replay record.
  std::shared_ptr<const MessageBody> rec_payload;
  if (sim_.recording()) rec_payload = payload;
  sim_.schedule_at(arrival, [this, origin, next, to, p = std::move(payload),
                             size_units]() mutable {
    hop(origin, next, to, std::move(p), size_units);
  });
  if (rec_payload) {
    EventRecord rec = msg_record(EventRecord::Kind::kContendedHop, origin, next,
                                 std::move(rec_payload));
    rec.dest = to;
    rec.y = size_units;
    sim_.annotate(std::move(rec));
  }
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
