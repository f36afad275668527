#include "replay.hpp"

#include <utility>

#include "routing/transport.hpp"

namespace rtds::perfbench {

namespace {

/// Drives a replay schedule on a Simulator: arrival events (empty), and a
/// cursor event at each distinct send time that hands that instant's sends
/// to `send` — so deliveries are scheduled from inside an event, the way
/// the run's handlers schedule them (the queue's heap tier).
template <typename SendFn>
class Schedule {
 public:
  Schedule(Simulator& sim, const ArrivalTimes& arrivals,
           const std::vector<LoggedSend>& sends, SendFn send)
      : sim_(sim), arrivals_(arrivals), sends_(sends), send_(std::move(send)) {}
  Schedule(const Schedule&) = delete;
  Schedule& operator=(const Schedule&) = delete;

  void start() {
    if (!arrivals_.chained) {
      for (const Time t : arrivals_.at) sim_.schedule_at(t, [] {});
    } else if (!arrivals_.at.empty()) {
      sim_.schedule_at(arrivals_.at.front(), [this] { chain(); });
    }
    if (!sends_.empty())
      sim_.schedule_at(sends_.front().at, [this] { cursor(); });
  }

 private:
  void chain() {
    if (++arrival_ < arrivals_.at.size())
      sim_.schedule_at(arrivals_.at[arrival_], [this] { chain(); });
  }

  void cursor() {
    const Time now = sends_[next_].at;
    do {
      send_(sends_[next_], next_);
      ++next_;
    } while (next_ < sends_.size() && sends_[next_].at == now);
    if (next_ < sends_.size())
      sim_.schedule_at(sends_[next_].at, [this] { cursor(); });
  }

  Simulator& sim_;
  const ArrivalTimes& arrivals_;
  const std::vector<LoggedSend>& sends_;
  SendFn send_;
  std::size_t arrival_ = 0;
  std::size_t next_ = 0;
};

}  // namespace

RepairReplay::RepairReplay(const RtdsCase& c, std::vector<RoutingTable> tables,
                           bool check)
    : case_(c),
      tables_(std::move(tables)),
      state_(c.topo, c.cfg.faults),
      check_(check && c.cfg.check_invariants) {}

void RepairReplay::apply(const fault::FaultEvent& ev) {
  if (!state_.apply(ev)) return;  // redundant scripted event: no repair
  // The seed set RtdsSystem::apply_fault passes: every endpoint a
  // partition or heal flipped, else the site or the link's two ends.
  std::vector<SiteId> changed;
  if (ev.kind == fault::FaultKind::kPartition ||
      ev.kind == fault::FaultKind::kHeal) {
    changed = state_.partition_changed_sites();
  } else {
    changed.push_back(ev.a);
    if (ev.b != kNoSite) changed.push_back(ev.b);
  }
  const auto t0 = Clock::now();
  if (repairer_ == nullptr)
    repairer_ = std::make_unique<ApspRepairer>(
        case_.topo, 2 * case_.cfg.node.sphere_radius_h);
  repairer_->repair(tables_, &state_, changed);
  repair_s_ += seconds_since(t0);
  if (check_) {
    const auto t1 = Clock::now();
    checker_.on_repair(tables_, case_.topo, state_, ev.at);
    check_s_ += seconds_since(t1);
  }
}

QueueReplay replay_queue(const ArrivalTimes& arrivals,
                         const std::vector<LoggedSend>& sends,
                         const std::vector<Time>& delays) {
  QueueReplay r;
  Simulator sim;
  const auto t0 = Clock::now();
  Schedule schedule(sim, arrivals, sends,
                    [&sim, &delays](const LoggedSend& s, std::size_t i) {
                      sim.schedule_at(s.at + delays[i], [] {});
                    });
  schedule.start();
  sim.run();
  r.wall_s = seconds_since(t0);
  r.events = sim.executed_events();
  return r;
}

TransportReplay replay_transport(const RtdsCase& c,
                                 const std::vector<RoutingTable>& tables,
                                 const ArrivalTimes& arrivals,
                                 const std::vector<LoggedSend>& sends) {
  TransportReplay r;
  Simulator sim;
  RepairReplay repair(c, tables, /*check=*/false);
  std::unique_ptr<Transport> transport;
  if (c.cfg.transport_model == TransportModel::kIdeal)
    transport = std::make_unique<IdealTransport>(sim, repair.tables());
  else
    transport = std::make_unique<ContendedTransport>(
        sim, c.topo, repair.tables(), c.cfg.link_bandwidth);
  for (SiteId s = 0; s < c.topo.site_count(); ++s)
    transport->set_handler(
        s, [&r](SiteId, const MessageBody&) { ++r.delivered; });

  const auto t0 = Clock::now();
  // Plan events go in first: at equal times the run fires them before any
  // send (they were scheduled at construction, with the lowest sequence).
  for (const auto& ev : c.cfg.faults.events)
    sim.schedule_at(ev.at, [&repair, &ev] { repair.apply(ev); });
  Schedule schedule(sim, arrivals, sends,
                    [&transport](const LoggedSend& s, std::size_t) {
                      transport->send(s.from, s.to, UnlockMsg{}, s.category,
                                      s.size);
                    });
  schedule.start();
  sim.run();
  r.wall_s = seconds_since(t0) - repair.repair_s() - repair.check_s();
  r.link_messages = transport->stats().total_link_messages;
  return r;
}

bool same_routes(const std::vector<RoutingTable>& a,
                 const std::vector<RoutingTable>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t s = 0; s < a.size(); ++s) {
    if (a[s].size() != b[s].size()) return false;
    for (std::size_t k = 0; k < a[s].slot_count(); ++k) {
      const RouteLine& x = a[s].line_at(k);
      if (x.dist == kInfiniteTime) continue;  // tombstone
      const RouteLine* y = b[s].find(a[s].dest_at(k));
      if (y == nullptr || y->dist != x.dist || y->next_hop != x.next_hop ||
          y->hops != x.hops)
        return false;
    }
  }
  return true;
}

}  // namespace rtds::perfbench
