#include "fault/invariants.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <sstream>

#include "core/metrics.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "routing/routing_table.hpp"
#include "util/error.hpp"

namespace rtds::fault {

void InvariantChecker::violate(const std::string& what, Time now, SiteId site) {
  ++violations_;
  RTDS_COUNT("invariant.violations");
  if (auto* tr = obs::tracer())
    tr->instant("invariant", "violation", now, site);
  if (fatal_)
    throw ContractViolation("invariant violated: " + what);
}

void InvariantChecker::on_event(Time now) {
  if (now < last_event_time_) {
    std::ostringstream os;
    os << "monotone-time: event at t=" << now << " after t="
       << last_event_time_;
    violate(os.str(), now, 0);
  }
  last_event_time_ = now;
}

void InvariantChecker::on_delivery(SiteId to, bool up, Time now) {
  if (!up) {
    std::ostringstream os;
    os << "delivery-liveness: message delivered to down site " << to
       << " at t=" << now;
    violate(os.str(), now, to);
  }
}

void InvariantChecker::on_decision(JobId job, Time now) {
  if (decided_.contains(job)) {
    std::ostringstream os;
    os << "at-most-one: second decision for job " << job << " at t=" << now;
    violate(os.str(), now, 0);
    return;
  }
  decided_.insert(job);
}

void InvariantChecker::on_send_seq(SiteId from, SiteId to, std::uint64_t seq,
                                   Time now) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(from) << 32) | static_cast<std::uint64_t>(to);
  std::uint64_t& last = last_seq_[key];
  if (seq <= last) {
    std::ostringstream os;
    os << "seq-monotone: site " << from << " stamped seq " << seq << " to "
       << to << " after seq " << last;
    violate(os.str(), now, from);
    return;
  }
  last = seq;
}

bool InvariantChecker::check_line(const std::vector<RoutingTable>& tables,
                                  const Topology& topo,
                                  const FaultState& faults, SiteId s,
                                  SiteId dest, const RouteLine& line,
                                  Time now) {
  const SiteId nh = line.next_hop;
  // One walk over the owner's adjacency yields the link's index (hence its
  // liveness, refreshed into shadow_live_ by on_repair) and its delay.
  const Neighbor* link = topo.neighbor(s, nh);
  // A next hop that is no neighbour at all counts as a dead link while
  // either end is down, and is a contract failure otherwise — exactly as
  // FaultState::link_up treats it.
  RTDS_REQUIRE_MSG(link != nullptr || !faults.site_up(s) ||
                       (nh < topo.site_count() && !faults.site_up(nh)),
                   "no link " << s << "--" << nh << " in the topology");
  if (link == nullptr || !shadow_live_[link->link]) {
    std::ostringstream os;
    os << "repair-consistency: site " << s << " routes to " << dest
       << " over dead link to " << nh;
    violate(os.str(), now, s);
    return true;
  }
  if (nh == dest) {
    if (!time_eq(line.dist, link->delay) || line.hops != 1) {
      std::ostringstream os;
      os << "repair-consistency: site " << s << " one-hop route to " << dest
         << " has dist=" << line.dist << " hops=" << line.hops
         << " but the link delay is " << link->delay;
      violate(os.str(), now, s);
      return true;
    }
    return false;
  }
  // Hop-bounded routing weakens Bellman equality to an inequality: the
  // next hop's own line may use MORE hops (it has the full budget again),
  // so it is a lower bound — a route strictly below it is a stale
  // under-estimate the repair failed to re-converge.
  const RouteLine* via = tables[nh].find(dest);
  if (via == nullptr) {
    std::ostringstream os;
    os << "repair-consistency: site " << s << " routes to " << dest << " via "
       << nh << " which has no route there";
    violate(os.str(), now, s);
    return true;
  }
  const Time bound = link->delay + via->dist;
  if (!time_ge(line.dist, bound)) {
    std::ostringstream os;
    os << "repair-consistency: site " << s << " -> " << dest << " via " << nh
       << " claims dist=" << line.dist << " below the next hop's lower bound "
       << bound;
    violate(os.str(), now, s);
    return true;
  }
  return false;
}

void InvariantChecker::recheck(SiteId s, SiteId dest) {
  std::vector<SiteId>& bucket = recheck_[s];
  if (bucket.empty()) recheck_sites_.push_back(s);
  bucket.push_back(dest);
}

void InvariantChecker::recheck_dependents(
    const std::vector<RoutingTable>& tables, const Topology& topo, SiteId s,
    SiteId dest) {
  recheck(s, dest);
  for (const Neighbor& nb : topo.neighbors(s)) {
    const RouteLine* line = tables[nb.site].find(dest);
    if (line != nullptr && line->next_hop == s) recheck(nb.site, dest);
  }
}

namespace {

template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

// Byte equality of route lines is exact value equality only without
// padding bytes, whose contents are unspecified.
static_assert(sizeof(RouteLine) ==
              sizeof(Time) + sizeof(SiteId) + sizeof(std::uint32_t));

}  // namespace

void InvariantChecker::on_repair(const std::vector<RoutingTable>& tables,
                                 const Topology& topo,
                                 const FaultState& faults, Time now) {
  const auto& links = topo.links();
  const bool full = !shadow_valid_ || shadow_topo_ != &topo ||
                    tables.size() != topo.site_count() ||
                    shadow_tables_.size() != tables.size() ||
                    shadow_live_.size() != links.size();
  // Stays invalid until this audit completes, so an audit cut short by a
  // throw (fatal mode) makes the next one full.
  shadow_valid_ = false;
  for (const SiteId s : recheck_sites_) recheck_[s].clear();
  recheck_sites_.clear();
  shadow_live_.resize(links.size());
  recheck_.resize(tables.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    const Link& l = links[i];
    const char live = faults.link_index_up(i) && faults.site_up(l.a) &&
                      faults.site_up(l.b);
    if (!full && live != shadow_live_[i]) {
      // Every line routed over a link that flipped liveness.
      for (const auto& [s, nh] : {std::pair{l.a, l.b}, std::pair{l.b, l.a}}) {
        const RoutingTable& table = tables[s];
        for (std::size_t slot = 0; slot < table.slot_count(); ++slot) {
          if (table.line_at(slot).next_hop == nh) recheck(s, table.dest_at(slot));
        }
      }
    }
    shadow_live_[i] = live;
  }

  if (full) {
    shadow_tables_ = tables;
    shadow_topo_ = &topo;
    for (SiteId s = 0; s < tables.size(); ++s) {
      for (const SiteId dest : tables[s].dests()) recheck(s, dest);
    }
  } else {
    // Last audit's violators: their inputs may be unchanged, and a full
    // audit would report them again.
    for (const auto& [s, dest] : violators_) recheck(s, dest);
    // Content diff against the shadow: every line that changed, and every
    // line reading it as its next hop's line. Unchanged tables cost one
    // memcmp; a changed one is merge-walked and copied into the shadow.
    for (SiteId s = 0; s < tables.size(); ++s) {
      const RoutingTable& cur = tables[s];
      RoutingTable& old = shadow_tables_[s];
      if (same_bytes(cur.dests(), old.dests()) &&
          same_bytes(cur.lines(), old.lines()))
        continue;
      const auto nd = cur.dests(), od = old.dests();
      const auto nl = cur.lines(), ol = old.lines();
      std::size_t i = 0, j = 0;
      while (i < nd.size() || j < od.size()) {
        if (j == od.size() || (i < nd.size() && nd[i] < od[j])) {
          recheck_dependents(tables, topo, s, nd[i++]);
        } else if (i == nd.size() || od[j] < nd[i]) {
          recheck_dependents(tables, topo, s, od[j++]);
        } else {
          if (std::memcmp(&nl[i], &ol[j], sizeof(RouteLine)) != 0)
            recheck_dependents(tables, topo, s, nd[i]);
          ++i;
          ++j;
        }
      }
      old = cur;
    }
  }

  // Re-check in the full audit's (site, destination) order, so the first
  // fatal message and the trace instants come out identically.
  violators_.clear();
  std::sort(recheck_sites_.begin(), recheck_sites_.end());
  for (const SiteId s : recheck_sites_) {
    std::vector<SiteId>& bucket = recheck_[s];
    std::sort(bucket.begin(), bucket.end());
    bucket.erase(std::unique(bucket.begin(), bucket.end()), bucket.end());
    for (const SiteId dest : bucket) {
      if (dest == s) continue;  // trivial self route
      const RouteLine* line = tables[s].find(dest);
      if (line == nullptr) continue;  // absent or withdrawn
      if (check_line(tables, topo, faults, s, dest, *line, now))
        violators_.emplace_back(s, dest);
    }
    bucket.clear();
  }
  recheck_sites_.clear();
  shadow_valid_ = true;
}

void InvariantChecker::on_queue_push(SiteId, Time) { ++queue_pushed_; }

void InvariantChecker::on_queue_remove(SiteId site, Time now) {
  if (queue_removed_ >= queue_pushed_) {
    std::ostringstream os;
    os << "shed-conservation: site " << site
       << " dequeued a job that was never enqueued";
    violate(os.str(), now, site);
    return;
  }
  ++queue_removed_;
}

void InvariantChecker::on_shed(SiteId, Time) { ++sheds_; }

void InvariantChecker::finish(const RunMetrics& metrics,
                              std::size_t locks_held, Time now) {
  const std::uint64_t decided =
      metrics.accepted_local + metrics.accepted_remote + metrics.rejected;
  if (decided != metrics.arrived || metrics.arrived != submitted_) {
    std::ostringstream os;
    os << "job-conservation: submitted=" << submitted_ << " arrived="
       << metrics.arrived << " decided=" << decided
       << " (accepted+rejected must equal submitted exactly)";
    violate(os.str(), now, 0);
  }
  if (locks_held != 0) {
    std::ostringstream os;
    os << "lock-conservation: " << locks_held
       << " PCS lock(s) still held after the run drained";
    violate(os.str(), now, 0);
  }
  if (queue_pushed_ != queue_removed_) {
    std::ostringstream os;
    os << "shed-conservation: " << queue_pushed_ << " jobs enqueued but "
       << queue_removed_ << " left the queue (queued + shed + admitted "
       << "must be conserved)";
    violate(os.str(), now, 0);
  }
  const auto it = metrics.reject_by_reason.find(
      static_cast<int>(RejectReason::kShed));
  const std::uint64_t metric_sheds =
      it == metrics.reject_by_reason.end() ? 0 : it->second;
  if (sheds_ != metric_sheds) {
    std::ostringstream os;
    os << "shed-conservation: " << sheds_ << " shed event(s) at the nodes "
       << "but metrics recorded " << metric_sheds << " kShed rejection(s)";
    violate(os.str(), now, 0);
  }
}

}  // namespace rtds::fault
