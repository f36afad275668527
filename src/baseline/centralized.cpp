#include "baseline/centralized.hpp"

#include <algorithm>

#include "dag/analysis.hpp"
#include "net/shortest_paths.hpp"

namespace rtds {

RunMetrics run_centralized(const Topology& topo,
                           const std::vector<JobArrival>& arrivals,
                           const CentralizedConfig& cfg) {
  const auto n = topo.site_count();
  RunMetrics metrics;

  // Omniscient knowledge: exact all-pairs delays and hop counts.
  std::vector<PathResult> paths;
  paths.reserve(n);
  for (SiteId s = 0; s < n; ++s) paths.push_back(dijkstra(topo, s));
  double max_power = 0.0;
  for (SiteId s = 0; s < n; ++s)
    max_power = std::max(max_power, topo.computing_power(s));

  std::vector<SchedulingPlan> plans(n);

  // Execution-plane faults (DESIGN.md §9). Omniscience extends to the
  // fault state: down sites are never candidates, and a crash instantly
  // fails every job with unfinished work there (freeing its reservations
  // on the other sites). Empty timeline = legacy path, bit for bit.
  const fault::SiteTimeline timeline(cfg.faults, n);
  struct JobRec {
    JobId job = 0;
    Time completion = 0.0;
    Time deadline = 0.0;
    /// (site, last task end on that site) per distinct site used: a crash
    /// loses the job only if that *site* still had unfinished work.
    std::vector<std::pair<SiteId, Time>> site_ends;
  };
  std::vector<JobRec> in_flight;
  std::size_t next_event = 0;
  auto apply_events_until = [&](Time t) {
    const auto& events = timeline.events();
    while (next_event < events.size() && events[next_event].at <= t) {
      const auto& ev = events[next_event++];
      if (ev.up) continue;
      plans[ev.site] = SchedulingPlan{};  // the crash loses the local plan
      for (auto it = in_flight.begin(); it != in_flight.end();) {
        const auto used = std::find_if(
            it->site_ends.begin(), it->site_ends.end(),
            [&](const auto& se) { return se.first == ev.site; });
        if (used != it->site_ends.end() && time_gt(used->second, ev.at)) {
          for (const auto& [s, end] : it->site_ends)
            if (s != ev.site) plans[s].remove_job(it->job);
          ++metrics.jobs_lost;
          ++metrics.failed_jobs;
          it = in_flight.erase(it);
        } else {
          ++it;
        }
      }
    }
  };

  for (const auto& a : arrivals) {
    const Job& job = *a.job;
    const Time now = job.release;
    apply_events_until(now);
    JobDecision d;
    d.job = job.id;
    d.initiator = a.site;
    d.arrival = now;
    d.decision_time = now;
    d.deadline = job.deadline;
    d.task_count = job.dag.task_count();
    if (!timeline.up_at(a.site, now)) {
      // The arrival site itself is dead: the job is lost with it.
      d.outcome = JobOutcome::kRejected;
      d.reject_reason = RejectReason::kSiteDown;
      d.acs_size = 1;
      metrics.record(d);
      continue;
    }
    // Reservations are sorted by start and disjoint: if a plan's front has
    // not ended, none has, and there is nothing to collect.
    for (auto& p : plans)
      if (!p.empty() && time_le(p.reservations().front().end, now))
        p.garbage_collect(now);

    // Candidate sites (optionally sphere-limited for fairness vs. RTDS).
    std::vector<SiteId> sites;
    for (SiteId s = 0; s < n; ++s) {
      if (!timeline.up_at(s, now)) continue;
      if (cfg.sphere_radius_h == CentralizedConfig::kNoRadiusLimit ||
          paths[a.site].hops[s] <= cfg.sphere_radius_h)
        sites.push_back(s);
    }

    // ETF list scheduling with exact idle intervals and true delays,
    // reserved straight into the live plans.
    const Dag& dag = job.dag;
    const auto priority = dag.bottom_levels();
    std::vector<std::size_t> missing(dag.task_count());
    std::vector<TaskId> free_list;
    for (TaskId t = 0; t < dag.task_count(); ++t) {
      missing[t] = dag.predecessors(t).size();
      if (missing[t] == 0) free_list.push_back(t);
    }
    std::vector<Time> finish(dag.task_count(), 0.0);
    std::vector<SiteId> where(dag.task_count(), kNoSite);
    bool ok = true;
    Time completion = now;
    while (!free_list.empty()) {
      std::size_t best = 0;
      for (std::size_t i = 1; i < free_list.size(); ++i) {
        const TaskId x = free_list[i], y = free_list[best];
        if (time_gt(priority[x], priority[y]) ||
            (time_eq(priority[x], priority[y]) && x < y))
          best = i;
      }
      const TaskId t = free_list[best];
      free_list.erase(free_list.begin() + static_cast<std::ptrdiff_t>(best));

      // No site finishes before `floor`: none starts before `ready` or
      // runs faster than max_power.
      const auto preds = dag.predecessors(t);
      Time ready = now;
      for (TaskId q : preds) ready = std::max(ready, finish[q]);
      const Time floor = ready + dag.cost(t) / max_power;
      SiteId chosen = kNoSite;
      Time chosen_start = 0.0, chosen_finish = kInfiniteTime;
      for (SiteId s : sites) {
        if (!time_lt(floor, chosen_finish)) break;  // no site can beat it
        Time est = now;
        for (TaskId q : preds) {
          const Time dist =
              where[q] == s ? 0.0 : paths[where[q]].dist[s];
          est = std::max(est, finish[q] + dist);
        }
        const Time duration = dag.cost(t) / topo.computing_power(s);
        // earliest_fit starts at or after est, so this site cannot win.
        if (!time_lt(est + duration, chosen_finish)) continue;
        const Time start = plans[s].earliest_fit(est, job.deadline, duration);
        if (start == kInfiniteTime) continue;
        if (time_lt(start + duration, chosen_finish)) {
          chosen = s;
          chosen_start = start;
          chosen_finish = start + duration;
        }
      }
      if (chosen == kNoSite) {
        ok = false;
        break;
      }
      plans[chosen].reserve({job.id, t, chosen_start, chosen_finish});
      where[t] = chosen;
      finish[t] = chosen_finish;
      completion = std::max(completion, chosen_finish);
      for (TaskId s2 : dag.successors(t))
        if (--missing[s2] == 0) free_list.push_back(s2);
    }
    ok = ok && time_le(completion, job.deadline);
    std::vector<SiteId> used = where;  // distinct placed sites, ascending
    std::erase(used, kNoSite);
    std::ranges::sort(used);
    used.erase(std::ranges::unique(used).begin(), used.end());
    if (ok) {
      d.acs_size = used.size();
      d.outcome = (used.size() == 1 && used.front() == a.site)
                      ? JobOutcome::kAcceptedLocal
                      : JobOutcome::kAcceptedRemote;
      if (timeline.empty()) {
        metrics.job_lateness.add(completion - job.deadline);
      } else {
        // Survivor lateness is folded in at the end, once crashes are known.
        JobRec rec{job.id, completion, job.deadline, {}};
        for (SiteId s : used) {
          Time site_end = 0.0;
          for (TaskId t2 = 0; t2 < dag.task_count(); ++t2)
            if (where[t2] == s) site_end = std::max(site_end, finish[t2]);
          rec.site_ends.emplace_back(s, site_end);
        }
        in_flight.push_back(std::move(rec));
      }
    } else {
      // remove_job is a stable erase: each plan is back to its old contents.
      for (SiteId s : used) plans[s].remove_job(job.id);
      d.acs_size = sites.size();
      d.outcome = JobOutcome::kRejected;
      d.reject_reason = RejectReason::kOffloadRefused;
    }
    metrics.record(d);
  }
  apply_events_until(kInfiniteTime);  // post-arrival crashes still lose jobs
  for (const JobRec& rec : in_flight) {
    metrics.job_lateness.add(rec.completion - rec.deadline);
    RTDS_CHECK(time_le(rec.completion, rec.deadline));
  }
  return metrics;
}

}  // namespace rtds
