#include "sched/local_scheduler.hpp"

#include <algorithm>
#include <map>

#include "dag/analysis.hpp"
#include "util/inline_vec.hpp"

namespace rtds {

const char* to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kEdf: return "edf";
    case AdmissionPolicy::kExact: return "exact";
    case AdmissionPolicy::kPreemptive: return "preemptive";
  }
  return "?";
}

std::optional<std::vector<Placement>> admit_preemptive(
    const SchedulingPlan& plan, std::span<const WindowedTask> tasks) {
  if (tasks.empty()) return std::vector<Placement>{};
  for (const auto& t : tasks) {
    RTDS_REQUIRE(t.cost > 0.0);
    if (time_gt(t.release + t.cost, t.deadline)) return std::nullopt;
  }
  Time lo = kInfiniteTime, hi = 0.0;
  for (const auto& t : tasks) {
    lo = std::min(lo, t.release);
    hi = std::max(hi, t.deadline);
  }

  struct State {
    const WindowedTask* task;
    Time remaining;
  };
  std::vector<State> states;
  states.reserve(tasks.size());
  for (const auto& t : tasks) states.push_back({&t, t.cost});

  // Event-stepped preemptive EDF over the idle intervals of the plan.
  std::vector<Placement> segments;
  const auto gaps = plan.idle_intervals(lo, hi);
  for (const auto& gap : gaps) {
    Time cursor = gap.start;
    while (time_lt(cursor, gap.end)) {
      // Ready = released, unfinished; pick earliest deadline.
      State* pick = nullptr;
      for (auto& st : states)
        if (st.remaining > kTimeEps && time_le(st.task->release, cursor))
          if (!pick || st.task->deadline < pick->task->deadline) pick = &st;
      if (!pick) {
        // Idle until the next release inside this gap (or the gap ends).
        Time next_release = gap.end;
        for (const auto& st : states)
          if (st.remaining > kTimeEps && time_gt(st.task->release, cursor))
            next_release = std::min(next_release, st.task->release);
        cursor = next_release;
        continue;
      }
      // Run `pick` until it finishes, a new release preempts, or gap ends.
      Time stop = std::min(gap.end, cursor + pick->remaining);
      for (const auto& st : states)
        if (st.remaining > kTimeEps && time_gt(st.task->release, cursor) &&
            st.task->deadline < pick->task->deadline)
          stop = std::min(stop, st.task->release);
      RTDS_CHECK(time_lt(cursor, stop));
      segments.push_back(Placement{pick->task->task, cursor, stop});
      pick->remaining -= stop - cursor;
      if (pick->remaining <= kTimeEps &&
          time_gt(stop, pick->task->deadline))
        return std::nullopt;  // finished late
      if (pick->remaining > kTimeEps && time_ge(stop, pick->task->deadline))
        return std::nullopt;  // deadline hit while unfinished
      cursor = stop;
    }
  }
  for (const auto& st : states)
    if (st.remaining > kTimeEps) return std::nullopt;

  // Merge back-to-back segments of the same task for compact plans.
  std::sort(segments.begin(), segments.end(),
            [](const Placement& a, const Placement& b) { return a.start < b.start; });
  std::vector<Placement> merged;
  for (const auto& s : segments) {
    if (!merged.empty() && merged.back().task == s.task &&
        time_eq(merged.back().end, s.start))
      merged.back().end = s.end;
    else
      merged.push_back(s);
  }
  return merged;
}

LocalScheduler::LocalScheduler(LocalSchedulerConfig cfg) : cfg_(cfg) {
  RTDS_REQUIRE(cfg_.observation_window > 0.0);
  RTDS_REQUIRE(cfg_.computing_power > 0.0);
}

std::vector<WindowedTask> LocalScheduler::scale_costs(
    std::span<const WindowedTask> tasks) const {
  std::vector<WindowedTask> scaled(tasks.begin(), tasks.end());
  for (auto& t : scaled) t.cost /= cfg_.computing_power;
  return scaled;
}

std::optional<std::vector<Placement>> LocalScheduler::try_accept_dag_local(
    const Job& job, Time earliest_start) {
  const Dag& dag = job.dag;
  RTDS_REQUIRE(dag.finalized());
  if (dag.empty()) return std::vector<Placement>{};

  // Quick necessary check: total (speed-scaled) work must fit the window.
  const Time work = dag.total_work() / cfg_.computing_power;
  if (time_gt(earliest_start + work, job.deadline)) return std::nullopt;

  // Greedy list scheduling by bottom level into idle gaps; on one site all
  // communication is free, so only ordering and gaps matter.
  const auto priority = dag.bottom_levels();
  InlineVec<Time, 32> finish;
  finish.assign(dag.task_count(), 0.0);
  InlineVec<std::size_t, 32> missing_preds;
  missing_preds.assign(dag.task_count(), 0);
  for (TaskId t = 0; t < dag.task_count(); ++t)
    missing_preds[t] = dag.predecessors(t).size();

  InlineVec<TaskId, 32> ready;
  for (TaskId t : dag.sources()) ready.push_back(t);

  // Trial placements (not committed until all succeed).
  SchedulingPlan trial = plan_;
  InlineVec<Reservation, 32> reservations;
  Time completion = earliest_start;
  std::size_t done = 0;
  while (!ready.empty()) {
    // Highest bottom level first; id breaks ties deterministically.
    std::size_t best = 0;
    for (std::size_t i = 1; i < ready.size(); ++i) {
      if (priority[ready[i]] > priority[ready[best]] + kTimeEps ||
          (time_eq(priority[ready[i]], priority[ready[best]]) &&
           ready[i] < ready[best]))
        best = i;
    }
    const TaskId t = ready[best];
    ready.erase(ready.begin() + best);

    Time est = earliest_start;
    for (TaskId p : dag.predecessors(t)) est = std::max(est, finish[p]);
    const Time duration = dag.cost(t) / cfg_.computing_power;
    const Time start = trial.earliest_fit(est, job.deadline, duration);
    if (start == kInfiniteTime) return std::nullopt;
    const Reservation r{job.id, t, start, start + duration};
    trial.reserve(r);
    reservations.push_back(r);
    finish[t] = r.end;
    completion = std::max(completion, r.end);
    ++done;
    for (TaskId s : dag.successors(t))
      if (--missing_preds[s] == 0) ready.push_back(s);
  }
  RTDS_CHECK_MSG(done == dag.task_count(), "list schedule missed tasks");
  if (time_gt(completion, job.deadline)) return std::nullopt;

  plan_ = std::move(trial);
  std::vector<Placement> placements;
  placements.reserve(reservations.size());
  for (const auto& res : reservations)
    placements.push_back(Placement{res.task, res.start, res.end});
  return placements;
}

std::optional<std::vector<Placement>> LocalScheduler::test_windowed(
    std::span<const WindowedTask> tasks) const {
  // Unit computing power needs no cost scaling — run on the caller's span.
  std::vector<WindowedTask> scaled_storage;
  std::span<const WindowedTask> scaled = tasks;
  if (cfg_.computing_power != 1.0) {
    scaled_storage = scale_costs(tasks);
    scaled = scaled_storage;
  }
  switch (cfg_.policy) {
    case AdmissionPolicy::kEdf:
      return admit_edf(plan_, scaled);
    case AdmissionPolicy::kExact:
      if (scaled.size() <= cfg_.exact_max_tasks)
        return admit_exact(plan_, scaled, cfg_.exact_max_tasks);
      return admit_edf(plan_, scaled);
    case AdmissionPolicy::kPreemptive:
      return admit_preemptive(plan_, scaled);
  }
  RTDS_CHECK(false);
  return std::nullopt;
}

bool LocalScheduler::test_windowed_feasible(
    std::span<const WindowedTask> tasks) const {
  // Allocation-free fast path exactly where test_windowed would run greedy
  // EDF; the other policies share test_windowed's dispatch so the two
  // entry points cannot drift apart.
  if (cfg_.policy == AdmissionPolicy::kEdf ||
      (cfg_.policy == AdmissionPolicy::kExact &&
       tasks.size() > cfg_.exact_max_tasks)) {
    if (cfg_.computing_power != 1.0) {
      const auto scaled = scale_costs(tasks);
      return admit_edf_feasible(plan_, scaled);
    }
    return admit_edf_feasible(plan_, tasks);
  }
  return test_windowed(tasks).has_value();
}

void LocalScheduler::commit(JobId job, std::span<const WindowedTask> tasks,
                            std::span<const Placement> placements) {
  // Defensive re-validation: placements must respect windows (segments of a
  // preemptive placement each lie inside their task's window).
  const auto scaled = scale_costs(tasks);
  for (const auto& p : placements) {
    const auto it = std::find_if(
        scaled.begin(), scaled.end(),
        [&](const WindowedTask& t) { return t.task == p.task; });
    RTDS_REQUIRE_MSG(it != scaled.end(), "placement for unknown task " << p.task);
    RTDS_REQUIRE(time_ge(p.start, it->release));
    RTDS_REQUIRE(time_le(p.end, it->deadline));
    plan_.reserve(Reservation{job, p.task, p.start, p.end});
  }
}

}  // namespace rtds
