#include "baseline/broadcast.hpp"

#include <cstdint>

#include "baseline/driver.hpp"
#include "net/shortest_paths.hpp"

namespace rtds {

namespace {

// An offer and its reply are the driver's OfferMsg/OfferReply
// (core/messages.hpp); a surplus flood has no message (see the header).
enum BroadcastCategory : int {
  kMsgSurplusFlood = 21,
  kMsgFocusedOffer = 22,
  kMsgFocusedReply = 23,
};

class BroadcastDriver final : public BaselineDriver {
 public:
  BroadcastDriver(const Topology& topo, const BroadcastConfig& cfg)
      : BaselineDriver(topo, cfg.sched, cfg.faults, cfg.max_attempts,
                       kMsgFocusedOffer, kMsgFocusedReply),
        cfg_(cfg),
        surplus_table_(topo.site_count(),
                       std::vector<double>(topo.site_count(), 1.0)),
        floods_(topo.site_count()),
        heard_(topo.site_count(),
               std::vector<std::uint32_t>(topo.site_count(), 0)) {
    for (SiteId s = 0; s < topo_.site_count(); ++s)
      paths_.push_back(dijkstra(topo_, s));
  }

 private:
  void on_start(Time last_release) override {
    RTDS_REQUIRE(cfg_.broadcast_period > 0.0);
    broadcast_until_ = cfg_.stop_with_arrivals ? last_release : kInfiniteTime;
    for (SiteId s = 0; s < topo_.site_count(); ++s) schedule_broadcast(s, 0.0);
  }

  Route route(SiteId from, SiteId to) const override {
    return {paths_[from].dist[to], paths_[from].hops[to]};
  }

  void on_crash(SiteId s) override { catch_up(s, /*apply=*/true); }
  /// Floods that landed while `s` was down are lost.
  void on_recover(SiteId s) override { catch_up(s, /*apply=*/false); }

  /// Applies (apply = false: skips) every flood landing on `o` strictly
  /// before now. One landing exactly now sorts after the crash, recover and
  /// arrival events that call this: they were all queued first.
  void catch_up(SiteId o, bool apply) {
    for (SiteId s = 0; s < topo_.site_count(); ++s) {
      if (s == o) continue;
      const auto& log = floods_[s];
      std::uint32_t& next = heard_[o][s];
      for (; next < log.size() && log[next].at + paths_[s].dist[o] < sim_.now();
           ++next)
        if (apply) surplus_table_[o][s] = log[next].surplus;
    }
  }

  void schedule_broadcast(SiteId s, Time at) {
    if (time_gt(at, broadcast_until_)) return;
    sim_.post_at(at, *this, ev::StartNext{s});
  }

  void on_tick(SiteId s) override {
    // A dead site skips this flood but keeps its period ticking.
    if (alive_[s]) {
      scheds_[s].garbage_collect(sim_.now());
      const double surplus =
          scheds_[s].plan().surplus(sim_.now(), cfg_.surplus_window);
      surplus_table_[s][s] = surplus;
      // Flood to every other site, shortest-path routed: the O(N) per-site
      // per-period cost the Computing Sphere exists to avoid. Each copy is
      // counted now and read by its observer's next catch_up.
      for (SiteId to = 0; to < topo_.site_count(); ++to)
        if (to != s)
          net_.count_routed(s, to, paths_[s].hops[to], kMsgSurplusFlood);
      floods_[s].push_back({sim_.now(), surplus});
    }
    schedule_broadcast(s, sim_.now() + cfg_.broadcast_period);
  }

  bool offload(Initiation& init) override {
    const SiteId site = init.initiator;
    if (topo_.site_count() <= 1) return false;
    // Focused addressing from the (stale) global surplus table.
    catch_up(site, /*apply=*/true);
    std::vector<std::pair<double, SiteId>> ranked;
    for (SiteId s = 0; s < topo_.site_count(); ++s)
      if (s != site) ranked.emplace_back(surplus_table_[site][s], s);
    offer_ranked(init, ranked);
    return true;
  }

  BroadcastConfig cfg_;
  std::vector<PathResult> paths_;
  /// surplus_table_[observer][site] = last surplus heard from `site`.
  std::vector<std::vector<double>> surplus_table_;
  struct Flood {
    Time at;  ///< send instant
    double surplus;
  };
  /// floods_[site]: every flood `site` sent; heard_[observer][site]: how
  /// many of them `observer` has read or lost (32-bit: there are N²).
  std::vector<std::vector<Flood>> floods_;
  std::vector<std::vector<std::uint32_t>> heard_;
  Time broadcast_until_ = 0.0;
};

}  // namespace

RunMetrics run_broadcast(const Topology& topo,
                         const std::vector<JobArrival>& arrivals,
                         const BroadcastConfig& cfg) {
  return BroadcastDriver(topo, cfg).run(arrivals);
}

}  // namespace rtds
