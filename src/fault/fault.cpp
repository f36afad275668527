#include "fault/fault.hpp"

#include <algorithm>
#include <sstream>

namespace rtds::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSiteDown: return "site_down";
    case FaultKind::kSiteUp: return "site_up";
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kHeal: return "heal";
  }
  return "?";
}

namespace {

/// Generates the alternating up/down toggle times of one element and
/// appends the corresponding event pairs. Each element draws from its own
/// split() child generator, so adding sites/links to a spec never perturbs
/// the streams of the others.
void generate_on_off(Rng& rng, double fail_rate, double mttr, Time horizon,
                     FaultKind down, FaultKind up, SiteId a, SiteId b,
                     std::vector<FaultEvent>& out) {
  if (fail_rate <= 0.0 || horizon <= 0.0) return;
  RTDS_REQUIRE_MSG(mttr > 0.0, "fault mean-time-to-recover must be > 0");
  Time t = 0.0;
  for (;;) {
    t += rng.exponential(fail_rate);
    if (t >= horizon) return;
    out.push_back(FaultEvent{t, down, a, b});
    t += rng.exponential(1.0 / mttr);
    if (t >= horizon) return;  // still down at the horizon: stays down
    out.push_back(FaultEvent{t, up, a, b});
  }
}

}  // namespace

FaultPlan FaultPlan::from_spec(const FaultSpec& spec, const Topology& topo) {
  RTDS_REQUIRE_MSG(spec.drop_prob >= 0.0 && spec.drop_prob < 1.0,
                   "faults.drop must be in [0, 1): " << spec.drop_prob);
  RTDS_REQUIRE(spec.extra_delay_max >= 0.0);
  RTDS_REQUIRE_MSG(spec.dup_prob >= 0.0 && spec.dup_prob < 1.0,
                   "faults.dup must be in [0, 1): " << spec.dup_prob);
  RTDS_REQUIRE_MSG(spec.reorder_prob >= 0.0 && spec.reorder_prob < 1.0,
                   "faults.reorder must be in [0, 1): " << spec.reorder_prob);
  RTDS_REQUIRE(spec.reorder_delay_max >= 0.0);
  RTDS_REQUIRE(spec.partition_rate >= 0.0);
  FaultPlan plan;
  plan.drop_prob = spec.drop_prob;
  plan.extra_delay_max = spec.extra_delay_max;
  plan.dup_prob = spec.dup_prob;
  plan.reorder_prob = spec.reorder_prob;
  plan.reorder_delay_max = spec.reorder_delay_max;
  plan.seed = spec.seed;
  if (spec.empty()) return plan;

  Rng root(spec.seed);
  for (SiteId s = 0; s < topo.site_count(); ++s) {
    Rng child = root.split();
    generate_on_off(child, spec.site_rate, spec.site_mttr, spec.horizon,
                    FaultKind::kSiteDown, FaultKind::kSiteUp, s, kNoSite,
                    plan.events);
  }
  for (const Link& l : topo.links()) {
    Rng child = root.split();
    generate_on_off(child, spec.link_rate, spec.link_mttr, spec.horizon,
                    FaultKind::kLinkDown, FaultKind::kLinkUp, l.a, l.b,
                    plan.events);
  }
  // The partition process draws its child *after* every site and link, so
  // enabling partitions never perturbs the crash/flap streams of a spec
  // that already generated them (stream stability, as for sites vs links).
  if (spec.partition_rate > 0.0 && spec.horizon > 0.0 &&
      topo.site_count() >= 2) {
    RTDS_REQUIRE_MSG(spec.partition_mttr > 0.0,
                     "faults.partition_mttr must be > 0");
    Rng child = root.split();
    Time t = 0.0;
    for (;;) {
      t += child.exponential(spec.partition_rate);
      if (t >= spec.horizon) break;
      const SiteId cut = static_cast<SiteId>(child.uniform_int(
          1, static_cast<std::int64_t>(topo.site_count()) - 1));
      plan.events.push_back(FaultEvent{t, FaultKind::kPartition, cut, kNoSite});
      t += child.exponential(1.0 / spec.partition_mttr);
      if (t >= spec.horizon) {
        // Still split at the horizon: heal exactly there so a finite run
        // always ends with a whole network (leases can then drain).
        t = spec.horizon;
      }
      plan.events.push_back(FaultEvent{t, FaultKind::kHeal, 0, kNoSite});
      if (t >= spec.horizon) break;
    }
  }
  // Stable by time: simultaneous events keep generation order (sites by id,
  // then links by Topology::links() order, then partitions) — a total,
  // reproducible order.
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.at < y.at;
                   });
  plan.validate(topo);
  return plan;
}

std::string FaultEvent::problem(const Topology& topo) const {
  const auto n = topo.site_count();
  // Formats only on failure: plans validate thousands of legal events.
  const auto says = [this](const auto&... parts) {
    std::ostringstream why;
    why << "(" << to_string(kind) << "): ";
    (why << ... << parts);
    return why.str();
  };
  if (!(at >= 0.0)) return says("negative time ", at);
  switch (kind) {
    case FaultKind::kSiteDown:
    case FaultKind::kSiteUp:
      if (a >= n) return says("site ", a, " out of range (", n, " sites)");
      break;
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
      if (a >= n || b >= n)
        return says("endpoint out of range: ", a, "--", b);
      if (!topo.adjacent(a, b))
        return says("no link ", a, "--", b, " in the topology");
      break;
    case FaultKind::kPartition:
      if (a < 1 || a >= n)
        return says("boundary ", a, " must be in [1, ", n, ")");
      break;
    case FaultKind::kHeal:
      break;
  }
  return {};
}

void FaultPlan::validate(const Topology& topo) const {
  Time prev = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& ev = events[i];
    const std::string why = ev.problem(topo);
    RTDS_REQUIRE_MSG(why.empty(), "fault event #" << i << " " << why);
    RTDS_REQUIRE_MSG(ev.at >= prev, "fault event #" << i << " at t=" << ev.at
                                        << " precedes event #" << (i - 1)
                                        << " at t=" << prev
                                        << " (events must be time-sorted)");
    prev = ev.at;
  }
}

// ------------------------------------------------------------ FaultState --

FaultState::FaultState(const Topology& topo, const FaultPlan& plan)
    : topo_(topo),
      site_up_(topo.site_count(), 1),
      link_up_(topo.link_count(), 1),
      drop_prob_(plan.drop_prob),
      extra_delay_max_(plan.extra_delay_max),
      dup_prob_(plan.dup_prob),
      reorder_prob_(plan.reorder_prob),
      reorder_delay_max_(plan.reorder_delay_max),
      perturb_rng_(plan.seed ^ 0x9e3779b97f4a7c15ULL) {}

std::size_t FaultState::link_index(SiteId a, SiteId b) const {
  const Neighbor* nb = topo_.neighbor(a, b);
  RTDS_REQUIRE_MSG(nb != nullptr,
                   "no link " << a << "--" << b << " in the topology");
  return nb->link;
}

bool FaultState::link_up(SiteId a, SiteId b) const {
  return site_up_[a] && site_up_[b] && link_up_[link_index(a, b)];
}

bool FaultState::apply(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kSiteDown:
      if (!site_up_[ev.a]) return false;
      site_up_[ev.a] = 0;
      ++sites_down_;
      return true;
    case FaultKind::kSiteUp:
      if (site_up_[ev.a]) return false;
      site_up_[ev.a] = 1;
      --sites_down_;
      return true;
    case FaultKind::kLinkDown: {
      const auto i = link_index(ev.a, ev.b);
      if (!link_up_[i]) return false;
      link_up_[i] = 0;
      ++links_down_;
      return true;
    }
    case FaultKind::kLinkUp: {
      const auto i = link_index(ev.a, ev.b);
      if (link_up_[i]) return false;
      // A cut link may not recover while the partition holds: defer the
      // recovery by handing ownership of the link to the partition, which
      // restores it at kHeal.
      if (partition_boundary_ != 0) {
        const auto& l = topo_.links()[i];
        if ((l.a < partition_boundary_) != (l.b < partition_boundary_)) {
          partition_downed_.push_back(i);
          return false;
        }
      }
      link_up_[i] = 1;
      --links_down_;
      return true;
    }
    case FaultKind::kPartition: {
      if (partition_boundary_ != 0) return false;  // one partition at a time
      partition_boundary_ = ev.a;
      partition_changed_sites_.clear();
      const auto& links = topo_.links();
      for (std::size_t i = 0; i < links.size(); ++i) {
        if ((links[i].a < ev.a) == (links[i].b < ev.a)) continue;
        if (!link_up_[i]) continue;  // independently down: not ours to heal
        link_up_[i] = 0;
        ++links_down_;
        partition_downed_.push_back(i);
        partition_changed_sites_.push_back(links[i].a);
        partition_changed_sites_.push_back(links[i].b);
      }
      return !partition_changed_sites_.empty();
    }
    case FaultKind::kHeal: {
      if (partition_boundary_ == 0) return false;
      partition_boundary_ = 0;
      partition_changed_sites_.clear();
      for (const std::size_t i : partition_downed_) {
        if (link_up_[i]) continue;
        link_up_[i] = 1;
        --links_down_;
        partition_changed_sites_.push_back(topo_.links()[i].a);
        partition_changed_sites_.push_back(topo_.links()[i].b);
      }
      partition_downed_.clear();
      return !partition_changed_sites_.empty();
    }
  }
  return false;
}

bool FaultState::sample_drop() {
  if (drop_prob_ <= 0.0) return false;
  return perturb_rng_.bernoulli(drop_prob_);
}

Time FaultState::sample_extra_delay() {
  if (extra_delay_max_ <= 0.0) return 0.0;
  return perturb_rng_.uniform(0.0, extra_delay_max_);
}

bool FaultState::sample_duplicate() {
  if (dup_prob_ <= 0.0) return false;
  return perturb_rng_.bernoulli(dup_prob_);
}

Time FaultState::sample_reorder_delay() {
  if (reorder_prob_ <= 0.0) return 0.0;
  if (!perturb_rng_.bernoulli(reorder_prob_)) return 0.0;
  return perturb_rng_.uniform(0.0, reorder_delay_max_);
}

std::size_t FaultState::live_link_count(const Topology& topo) const {
  std::size_t live = 0;
  const auto& links = topo.links();
  for (std::size_t i = 0; i < links.size(); ++i)
    if (link_up_[i] && site_up_[links[i].a] && site_up_[links[i].b]) ++live;
  return live;
}

// ----------------------------------------------------------- SiteTimeline --

SiteTimeline::SiteTimeline(const FaultPlan& plan, std::size_t sites)
    : toggles_(sites) {
  for (const FaultEvent& ev : plan.events) {
    if (ev.kind != FaultKind::kSiteDown && ev.kind != FaultKind::kSiteUp)
      continue;
    const bool up = ev.kind == FaultKind::kSiteUp;
    RTDS_REQUIRE(ev.a < sites);
    auto& t = toggles_[ev.a];
    // Sites start up and generated plans alternate; tolerate redundant
    // scripted events by skipping no-op toggles.
    const bool currently_up = t.size() % 2 == 0;
    if (up == currently_up) continue;
    t.push_back(ev.at);
    events_.push_back(Event{ev.at, ev.a, up});
  }
}

bool SiteTimeline::up_at(SiteId s, Time t) const {
  if (s >= toggles_.size()) return true;
  const auto& tg = toggles_[s];
  const auto applied = static_cast<std::size_t>(
      std::upper_bound(tg.begin(), tg.end(), t) - tg.begin());
  return applied % 2 == 0;
}

}  // namespace rtds::fault
