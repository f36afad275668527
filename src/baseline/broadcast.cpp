#include "baseline/broadcast.hpp"

#include <algorithm>
#include <cstdint>

#include "core/messages.hpp"
#include "net/shortest_paths.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace rtds {

namespace {

// Message structs (FocusedOffer, FocusedReply) live in core/messages.hpp
// as MessageBody alternatives; a surplus flood has none (see the header).
enum BroadcastCategory : int {
  kMsgSurplusFlood = 21,
  kMsgFocusedOffer = 22,
  kMsgFocusedReply = 23,
};

class BroadcastDriver {
 public:
  BroadcastDriver(const Topology& topo, const BroadcastConfig& cfg)
      : topo_(topo),
        cfg_(cfg),
        net_(sim_, topo_.site_count()),
        alive_(topo.site_count(), 1),
        epoch_(topo.site_count(), 0),
        floods_(topo.site_count()),
        heard_(topo.site_count(),
               std::vector<std::uint32_t>(topo.site_count(), 0)) {
    for (SiteId s = 0; s < topo_.site_count(); ++s) {
      paths_.push_back(dijkstra(topo_, s));
      LocalSchedulerConfig sc = cfg_.sched;
      sc.computing_power = topo_.computing_power(s);
      scheds_.emplace_back(sc);
      net_.set_handler(s, [this, s](SiteId from, const MessageBody& payload) {
        on_message(s, from, payload);
      });
    }
    surplus_table_.assign(topo_.site_count(),
                          std::vector<double>(topo_.site_count(), 1.0));
    // Execution-plane faults (DESIGN.md §9) as ordinary simulator events.
    const fault::SiteTimeline timeline(cfg_.faults, topo_.site_count());
    for (const auto& ev : timeline.events()) {
      sim_.schedule_at(ev.at, [this, ev]() {
        ev.up ? recover(ev.site) : crash(ev.site);
      });
    }
  }

  RunMetrics run(const std::vector<JobArrival>& arrivals) {
    RTDS_REQUIRE(cfg_.broadcast_period > 0.0);
    Time last_arrival = 0.0;
    for (const auto& a : arrivals) {
      last_arrival = std::max(last_arrival, a.job->release);
      sim_.schedule_at(a.job->release,
                       [this, a]() { on_arrival(a.site, a.job); });
    }
    broadcast_until_ = cfg_.stop_with_arrivals ? last_arrival : kInfiniteTime;
    for (SiteId s = 0; s < topo_.site_count(); ++s) schedule_broadcast(s, 0.0);
    sim_.run();
    RTDS_CHECK_MSG(active_.empty(), "unfinished focused-addressing offers");
    for (const auto& [job, track] : accepted_) {
      if (track.failed) {
        ++metrics_.jobs_lost;
        ++metrics_.failed_jobs;
        continue;
      }
      RTDS_CHECK(track.tasks_done == track.tasks_expected);
      metrics_.job_lateness.add(track.completion - track.deadline);
      RTDS_CHECK_MSG(time_le(track.completion, track.deadline),
                     "BCAST baseline missed deadline on job " << job);
    }
    metrics_.transport = net_.stats();
    return metrics_;
  }

 private:
  struct Initiation {
    SiteId initiator = kNoSite;
    std::shared_ptr<const Job> job;
    std::vector<SiteId> candidates;
    std::size_t next_candidate = 0;
    std::size_t attempts = 0;
    std::size_t contacted = 0;
  };

  struct JobTrack {
    SiteId site = kNoSite;  ///< whole-DAG baselines commit on one site
    std::size_t tasks_expected = 0;
    std::size_t tasks_done = 0;
    Time completion = 0.0;
    Time deadline = 0.0;
    bool failed = false;  ///< lost to a crash of its site
  };

  void crash(SiteId s) {
    if (!alive_[s]) return;
    catch_up(s, /*apply=*/true);
    alive_[s] = 0;
    ++epoch_[s];  // pending completion events of this life become stale
    LocalSchedulerConfig sc = cfg_.sched;
    sc.computing_power = topo_.computing_power(s);
    scheds_[s] = LocalScheduler(sc);
    for (auto& [job, track] : accepted_)
      if (track.site == s && track.tasks_done < track.tasks_expected)
        track.failed = true;
    for (auto it = active_.begin(); it != active_.end();) {
      if (it->second.initiator == s) {
        decide(s, *it->second.job, JobOutcome::kRejected,
               RejectReason::kSiteDown, it->second.contacted);
        it = active_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void recover(SiteId s) {
    catch_up(s, /*apply=*/false);  // landed while `s` was down: lost
    alive_[s] = 1;
  }

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
    sim_.schedule_at(at, [this, s]() {
      if (!alive_[s]) {
        // A dead site skips this flood but keeps its period ticking.
        schedule_broadcast(s, sim_.now() + cfg_.broadcast_period);
        return;
      }
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
      schedule_broadcast(s, sim_.now() + cfg_.broadcast_period);
    });
  }

  void send_job_msg(SiteId from, SiteId to, MessageBody payload, int category,
                    JobId job) {
    job_messages_[job] += paths_[from].hops[to];
    net_.send_routed(from, to, paths_[from].dist[to], paths_[from].hops[to],
                     std::move(payload), category);
  }

  bool try_local(SiteId site, const Job& job) {
    auto& sched = scheds_[site];
    sched.garbage_collect(sim_.now());
    const Time earliest = std::max(sim_.now(), job.release);
    const auto placements = sched.try_accept_dag_local(job, earliest);
    if (!placements) return false;
    auto& track = accepted_[job.id];
    track.site = site;
    track.tasks_expected = job.dag.task_count();
    track.deadline = job.deadline;
    for (const auto& p : *placements) {
      sim_.schedule_at(p.end, [this, id = job.id, end = p.end, site,
                               ep = epoch_[site]]() {
        if (ep != epoch_[site]) return;  // the site crashed; work lost
        auto& tr = accepted_.at(id);
        ++tr.tasks_done;
        tr.completion = std::max(tr.completion, end);
      });
    }
    return true;
  }

  void decide(SiteId initiator, const Job& job, JobOutcome outcome,
              RejectReason reason, std::size_t contacted) {
    JobDecision d;
    d.job = job.id;
    d.initiator = initiator;
    d.outcome = outcome;
    d.reject_reason = reason;
    d.arrival = job.release;
    d.decision_time = sim_.now();
    d.deadline = job.deadline;
    d.task_count = job.dag.task_count();
    d.acs_size = contacted + 1;
    d.link_messages = job_messages_[job.id];
    metrics_.record(d);
  }

  void on_arrival(SiteId site, std::shared_ptr<const Job> job) {
    if (!alive_[site]) {
      decide(site, *job, JobOutcome::kRejected, RejectReason::kSiteDown, 0);
      return;
    }
    if (try_local(site, *job)) {
      decide(site, *job, JobOutcome::kAcceptedLocal, RejectReason::kNone, 0);
      return;
    }
    // Focused addressing from the (stale) global surplus table.
    catch_up(site, /*apply=*/true);
    Initiation init;
    init.initiator = site;
    init.job = job;
    std::vector<std::pair<double, SiteId>> ranked;
    for (SiteId s = 0; s < topo_.site_count(); ++s)
      if (s != site) ranked.emplace_back(surplus_table_[site][s], s);
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    for (const auto& [surplus, s] : ranked) init.candidates.push_back(s);
    if (init.candidates.empty()) {
      decide(site, *job, JobOutcome::kRejected, RejectReason::kNoCandidates, 0);
      return;
    }
    active_[job->id] = std::move(init);
    make_offer(site, job->id);
  }

  void make_offer(SiteId initiator, JobId job) {
    auto& init = active_.at(job);
    if (init.next_candidate >= init.candidates.size() ||
        init.attempts >= cfg_.max_attempts) {
      decide(initiator, *init.job, JobOutcome::kRejected,
             RejectReason::kOffloadRefused, init.contacted);
      active_.erase(job);
      return;
    }
    const SiteId target = init.candidates[init.next_candidate++];
    ++init.attempts;
    ++init.contacted;
    send_job_msg(initiator, target, FocusedOffer{job, init.job},
                 kMsgFocusedOffer, job);
  }

  void on_message(SiteId self, SiteId from, const MessageBody& payload) {
    // Reliable-control-plane idealization (DESIGN.md §9): a dead site's
    // RPC layer refuses offers instantly instead of hanging the caller.
    if (!alive_[self]) {
      if (const auto* offer = std::get_if<FocusedOffer>(&payload)) {
        send_job_msg(self, from, FocusedReply{offer->job, false},
                     kMsgFocusedReply, offer->job);
      }
      return;  // replies addressed to a dead site are lost
    }
    if (const auto* offer = std::get_if<FocusedOffer>(&payload)) {
      const bool ok = try_local(self, *offer->job_data);
      send_job_msg(self, from, FocusedReply{offer->job, ok}, kMsgFocusedReply,
                   offer->job);
    } else if (const auto* reply = std::get_if<FocusedReply>(&payload)) {
      const auto it = active_.find(reply->job);
      if (it == active_.end()) return;  // resolved by a crash+recover cycle
      auto& init = it->second;
      if (reply->accepted) {
        decide(self, *init.job, JobOutcome::kAcceptedRemote,
               RejectReason::kNone, init.contacted);
        active_.erase(reply->job);
      } else {
        make_offer(self, reply->job);
      }
    } else {
      RTDS_CHECK_MSG(false, "unknown broadcast payload");
    }
  }

  const Topology& topo_;
  BroadcastConfig cfg_;
  Simulator sim_;
  SimNetwork net_;
  std::vector<char> alive_;
  std::vector<std::uint64_t> epoch_;
  std::vector<PathResult> paths_;
  std::vector<LocalScheduler> scheds_;
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
  std::map<JobId, Initiation> active_;
  std::map<JobId, JobTrack> accepted_;
  std::map<JobId, std::uint64_t> job_messages_;
  RunMetrics metrics_;
};

}  // namespace

RunMetrics run_broadcast(const Topology& topo,
                         const std::vector<JobArrival>& arrivals,
                         const BroadcastConfig& cfg) {
  BroadcastDriver driver(topo, cfg);
  return driver.run(arrivals);
}

}  // namespace rtds
