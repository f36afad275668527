#include "core/mapper.hpp"

#include <algorithm>
#include <cmath>

#include "dag/analysis.hpp"
#include "util/inline_vec.hpp"
#include "sched/plan.hpp"

namespace rtds {

const char* to_string(TaskPriority priority) {
  switch (priority) {
    case TaskPriority::kBottomLevel: return "bottom_level";
    case TaskPriority::kCost: return "cost";
    case TaskPriority::kFifo: return "fifo";
  }
  return "?";
}

const char* to_string(AdjustmentCase c) {
  switch (c) {
    case AdjustmentCase::kReject: return "i(reject)";
    case AdjustmentCase::kStretch: return "ii(stretch)";
    case AdjustmentCase::kLaxity: return "iii(laxity)";
  }
  return "?";
}

std::vector<WindowedTask> TrialMapping::tasks_of(const Dag& dag,
                                                 std::uint32_t u) const {
  if (u < by_processor.size()) {
    const auto& cached = by_processor[u];
    return {cached.begin(), cached.end()};
  }
  std::vector<WindowedTask> tasks;
  for (TaskId t = 0; t < dag.task_count(); ++t)
    if (assignment[t] == u)
      tasks.push_back(WindowedTask{t, release[t], deadline[t], dag.cost(t)});
  return tasks;
}

namespace {

struct ScheduleBuild {
  std::vector<std::uint32_t> assignment;
  std::vector<Time> start, finish;
  std::vector<TaskId> order;  ///< tasks in mapping order
  Time makespan = 0.0;        ///< max finish - release
};

/// Over-estimated communication delay between tasks q -> t given their
/// logical processors (§12: ω = ACS delay diameter; §13 option adds the
/// data-volume transfer time).
Time comm_cost(const Dag& dag, TaskId q, TaskId t, std::uint32_t pq,
               std::uint32_t pt, Time omega, const MapperConfig& cfg) {
  if (pq == pt) return 0.0;
  Time w = omega;
  if (cfg.account_data_volumes) {
    const double vol = dag.data_volume(q, t);
    if (vol > 0.0) w += vol / cfg.link_throughput;
  }
  return w;
}

/// List scheduling by bottom-level priority, greedy earliest-finish-time
/// processor selection (§12). `rates[p]` is the execution rate of logical
/// processor p (surplus I_p, or 1.0 for the S* recomputation).
ScheduleBuild list_schedule(const MapperInput& in, const MapperConfig& cfg,
                            const std::vector<double>& rates) {
  const Dag& dag = *in.dag;
  const auto n = dag.task_count();
  const auto np = rates.size();
  ScheduleBuild out;
  out.assignment.assign(n, 0);
  out.start.assign(n, 0.0);
  out.finish.assign(n, 0.0);
  out.order.reserve(n);

  // §13 local knowledge: tasks mapped onto the initiator's own logical
  // processor are slotted into its exact idle intervals (on a scratch copy)
  // at full local speed instead of the surplus-degraded estimate.
  const bool exact_initiator = in.initiator_plan != nullptr;
  SchedulingPlan initiator_scratch;
  if (exact_initiator) {
    RTDS_REQUIRE(in.initiator_index < np);
    RTDS_REQUIRE(in.initiator_power > 0.0);
    initiator_scratch = *in.initiator_plan;
  }
  auto is_exact_proc = [&](std::uint32_t p) {
    return exact_initiator && p == in.initiator_index;
  };

  InlineVec<Time, 32> priority_storage;
  const Time* priority = nullptr;
  switch (cfg.task_priority) {
    case TaskPriority::kBottomLevel:
      priority = dag.bottom_levels().data();  // finalize()-time cache
      break;
    case TaskPriority::kCost:
      priority_storage.assign(n, 0.0);
      for (TaskId t = 0; t < n; ++t) priority_storage[t] = dag.cost(t);
      priority = priority_storage.begin();
      break;
    case TaskPriority::kFifo:
      priority_storage.assign(n, 0.0);  // ties resolve to the smallest id
      priority = priority_storage.begin();
      break;
  }
  InlineVec<Time, 16> avail;
  avail.assign(np, in.release);
  InlineVec<std::size_t, 32> missing;
  missing.assign(n, 0);
  InlineVec<TaskId, 32> free_list;
  for (TaskId t = 0; t < n; ++t) {
    missing[t] = dag.predecessors(t).size();
    if (missing[t] == 0) free_list.push_back(t);
  }

  while (!free_list.empty()) {
    // Task selection: highest critical-path priority among free tasks.
    std::size_t best = 0;
    for (std::size_t i = 1; i < free_list.size(); ++i) {
      const TaskId a = free_list[i], b = free_list[best];
      if (time_gt(priority[a], priority[b]) ||
          (time_eq(priority[a], priority[b]) && a < b))
        best = i;
    }
    const TaskId t = free_list[best];
    free_list.erase(free_list.begin() + best);

    // Processor selection: earliest finishing time.
    std::uint32_t chosen = 0;
    Time chosen_start = 0.0, chosen_finish = kInfiniteTime;
    for (std::uint32_t p = 0; p < np; ++p) {
      Time est = avail[p];
      for (TaskId q : dag.predecessors(t)) {
        const Time arrive =
            out.finish[q] +
            comm_cost(dag, q, t, out.assignment[q], p, in.comm_diameter, cfg);
        est = std::max(est, arrive);
      }
      Time start = est;
      Time duration = dag.cost(t) / rates[p];
      if (is_exact_proc(p)) {
        duration = dag.cost(t) / in.initiator_power;
        start = initiator_scratch.earliest_fit(est, kInfiniteTime, duration);
      }
      const Time fin = start + duration;
      if (time_lt(fin, chosen_finish)) {
        chosen = p;
        chosen_start = start;
        chosen_finish = fin;
      }
    }
    out.assignment[t] = chosen;
    out.start[t] = chosen_start;
    out.finish[t] = chosen_finish;
    avail[chosen] = chosen_finish;
    if (is_exact_proc(chosen))
      initiator_scratch.reserve(
          Reservation{0, t, chosen_start, chosen_finish});
    out.order.push_back(t);
    for (TaskId s : dag.successors(t))
      if (--missing[s] == 0) free_list.push_back(s);
  }
  RTDS_CHECK_MSG(out.order.size() == n, "mapper missed tasks");

  for (TaskId t = 0; t < n; ++t)
    out.makespan = std::max(out.makespan, out.finish[t] - in.release);
  return out;
}

/// Recomputes start/finish keeping assignment and per-processor task order,
/// with all rates = 100% — the schedule S* of §12.2.
ScheduleBuild recompute_full_speed(const MapperInput& in,
                                   const MapperConfig& cfg,
                                   const ScheduleBuild& s) {
  const Dag& dag = *in.dag;
  ScheduleBuild out;
  out.assignment = s.assignment;
  out.order = s.order;
  out.start.assign(dag.task_count(), 0.0);
  out.finish.assign(dag.task_count(), 0.0);
  const bool exact_initiator = in.initiator_plan != nullptr;
  SchedulingPlan initiator_scratch;
  if (exact_initiator) initiator_scratch = *in.initiator_plan;
  InlineVec<Time, 16> avail;
  avail.assign(in.surpluses.size(), in.release);
  for (TaskId t : s.order) {
    const auto p = s.assignment[t];
    Time est = avail[p];
    for (TaskId q : dag.predecessors(t)) {
      const Time arrive =
          out.finish[q] +
          comm_cost(dag, q, t, s.assignment[q], p, in.comm_diameter, cfg);
      est = std::max(est, arrive);
    }
    if (exact_initiator && p == in.initiator_index) {
      // Already exact in S: the same placement is its own lower bound.
      const Time duration = dag.cost(t) / in.initiator_power;
      const Time start =
          initiator_scratch.earliest_fit(est, kInfiniteTime, duration);
      out.start[t] = start;
      out.finish[t] = start + duration;
      initiator_scratch.reserve(Reservation{0, t, out.start[t], out.finish[t]});
    } else {
      out.start[t] = est;
      out.finish[t] = est + dag.cost(t);
      avail[p] = out.finish[t];
    }
  }
  for (TaskId t = 0; t < dag.task_count(); ++t)
    out.makespan = std::max(out.makespan, out.finish[t] - in.release);
  return out;
}

/// Maximum task count over "critical chains" of S*: chains whose links are
/// tight precedence arcs (finish + comm == start) or tight same-processor
/// sequencing (finish == start), ending at a task finishing at M*.
/// Also reports which tasks lie on a longest such chain (for the §13
/// busyness-weighted laxity option).
struct CriticalChains {
  std::size_t eta = 1;
  std::vector<bool> on_longest;
};

CriticalChains critical_chains(const MapperInput& in, const MapperConfig& cfg,
                               const ScheduleBuild& star) {
  const Dag& dag = *in.dag;
  const auto n = dag.task_count();
  CriticalChains out;
  out.on_longest.assign(n, false);
  if (n == 0) return out;

  // Processor-sequencing predecessor of each task (previous in order on the
  // same logical processor).
  std::vector<TaskId> proc_pred(n, static_cast<TaskId>(-1));
  {
    std::vector<TaskId> last(in.surpluses.size(), static_cast<TaskId>(-1));
    for (TaskId t : star.order) {
      const auto p = star.assignment[t];
      proc_pred[t] = last[p];
      last[p] = t;
    }
  }

  // cnt[t] = max tasks on a tight chain ending at t. Process in star.order
  // (starts are non-decreasing along both kinds of tight parents).
  std::vector<std::size_t> cnt(n, 1);
  auto tight_parents = [&](TaskId t, auto&& visit) {
    for (TaskId q : dag.predecessors(t)) {
      const Time arrive = star.finish[q] + comm_cost(dag, q, t,
                                                     star.assignment[q],
                                                     star.assignment[t],
                                                     in.comm_diameter, cfg);
      if (time_eq(arrive, star.start[t])) visit(q);
    }
    const TaskId pp = proc_pred[t];
    if (pp != static_cast<TaskId>(-1) &&
        time_eq(star.finish[pp], star.start[t]))
      visit(pp);
  };
  for (TaskId t : star.order)
    tight_parents(t, [&](TaskId q) { cnt[t] = std::max(cnt[t], cnt[q] + 1); });

  const Time mstar_end = in.release + star.makespan;
  for (TaskId t = 0; t < n; ++t)
    if (time_eq(star.finish[t], mstar_end)) out.eta = std::max(out.eta, cnt[t]);

  // Mark tasks on some longest chain: walk back from terminal tasks whose
  // cnt equals eta, following parents with cnt exactly one less.
  std::vector<TaskId> stack;
  for (TaskId t = 0; t < n; ++t)
    if (time_eq(star.finish[t], mstar_end) && cnt[t] == out.eta) {
      out.on_longest[t] = true;
      stack.push_back(t);
    }
  while (!stack.empty()) {
    const TaskId t = stack.back();
    stack.pop_back();
    tight_parents(t, [&](TaskId q) {
      if (cnt[q] + 1 == cnt[t] && !out.on_longest[q]) {
        out.on_longest[q] = true;
        stack.push_back(q);
      }
    });
  }
  return out;
}

}  // namespace

std::optional<TrialMapping> build_trial_mapping(const MapperInput& input,
                                                const MapperConfig& cfg,
                                                AdjustmentCase* failure_case) {
  RTDS_REQUIRE(input.dag != nullptr);
  RTDS_REQUIRE(input.dag->finalized());
  RTDS_REQUIRE_MSG(!input.dag->empty(), "cannot map an empty DAG");
  RTDS_REQUIRE(!input.surpluses.empty());
  for (std::size_t i = 0; i < input.surpluses.size(); ++i) {
    RTDS_REQUIRE_MSG(input.surpluses[i] > 0.0 && input.surpluses[i] <= 1.0,
                     "surplus out of (0,1]: " << input.surpluses[i]);
    if (i > 0)
      RTDS_REQUIRE_MSG(input.surpluses[i] <= input.surpluses[i - 1] + 1e-12,
                       "surpluses must be sorted descending");
  }
  RTDS_REQUIRE(time_lt(input.release, input.deadline));
  RTDS_REQUIRE(input.comm_diameter >= 0.0);
  if (cfg.account_data_volumes)
    RTDS_REQUIRE_MSG(cfg.link_throughput > 0.0,
                     "account_data_volumes requires link_throughput > 0");

  const Dag& dag = *input.dag;
  const Time r = input.release;
  const Time d = input.deadline;
  const Time window = d - r;

  // Schedule S (surplus-degraded rates), then S* (full speed, same mapping).
  const ScheduleBuild s = list_schedule(input, cfg, input.surpluses);
  const ScheduleBuild star = recompute_full_speed(input, cfg, s);

  TrialMapping m;
  m.assignment = s.assignment;
  m.makespan = s.makespan;
  m.makespan_full = star.makespan;
  m.s_start = s.start;
  m.s_finish = s.finish;
  m.star_start = star.start;
  m.star_finish = star.finish;

  const auto n = dag.task_count();
  m.release.assign(n, r);
  m.deadline.assign(n, d);

  // §12.2 case analysis.
  if (time_gt(star.makespan, window)) {
    // (i) even the full-speed lower bound misses the deadline.
    if (failure_case) *failure_case = AdjustmentCase::kReject;
    return std::nullopt;
  }

  if (time_le(s.makespan, window)) {
    // (ii) stretch S's windows by (d - r) / M  (eq. 3).
    m.adjustment = AdjustmentCase::kStretch;
    const double factor = window / s.makespan;
    for (TaskId t = 0; t < n; ++t)
      m.deadline[t] = r + (s.finish[t] - r) * factor;
  } else {
    // (iii) M* <= d - r < M: distribute the extra laxity (eq. 4).
    m.adjustment = AdjustmentCase::kLaxity;
    const Time budget = window - star.makespan;
    const auto chains = critical_chains(input, cfg, star);
    std::vector<Time> laxity(n, budget / static_cast<double>(chains.eta));
    if (cfg.busyness_weighted_laxity) {
      // §13: only longest-chain tasks receive laxity, weighted by the
      // busyness of their logical processor.
      double total_w = 0.0;
      std::vector<double> w(n, 0.0);
      for (TaskId t = 0; t < n; ++t)
        if (chains.on_longest[t]) {
          w[t] = 1.0 - input.surpluses[s.assignment[t]];
          total_w += w[t];
        }
      if (total_w <= 1e-12) {
        // All involved processors fully idle: fall back to uniform weights
        // over the longest-chain tasks.
        std::size_t cnt = 0;
        for (TaskId t = 0; t < n; ++t)
          if (chains.on_longest[t]) ++cnt;
        for (TaskId t = 0; t < n; ++t)
          w[t] = chains.on_longest[t] ? 1.0 / static_cast<double>(cnt) : 0.0;
        total_w = 1.0;
      }
      for (TaskId t = 0; t < n; ++t) laxity[t] = budget * w[t] / total_w;
    }
    // eq. (4), reverse topological order.
    const auto topo = dag.topological_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const TaskId t = *it;
      if (dag.successors(t).empty()) {
        m.deadline[t] = d;
        continue;
      }
      Time dl = kInfiniteTime;
      for (TaskId sj : dag.successors(t)) {
        const Time w_ts = comm_cost(dag, t, sj, s.assignment[t],
                                    s.assignment[sj], input.comm_diameter, cfg);
        dl = std::min(dl, m.deadline[sj] - laxity[sj] - dag.cost(sj) - w_ts);
      }
      m.deadline[t] = dl;
    }
  }

  // eq. (5), topological order (shared by cases ii and iii).
  for (TaskId t : dag.topological_order()) {
    if (dag.predecessors(t).empty()) {
      m.release[t] = r;
      continue;
    }
    Time rel = 0.0;
    for (TaskId q : dag.predecessors(t)) {
      const Time w_qt = comm_cost(dag, q, t, s.assignment[q], s.assignment[t],
                                  input.comm_diameter, cfg);
      rel = std::max(rel, m.deadline[q] + w_qt);
    }
    m.release[t] = rel;
  }

  // Defensive feasibility sweep (see MapperConfig doc).
  if (cfg.reject_infeasible_windows) {
    for (TaskId t = 0; t < n; ++t) {
      const bool bad = time_gt(m.release[t] + dag.cost(t), m.deadline[t]) ||
                       time_gt(m.deadline[t], d) || time_lt(m.release[t], r);
      if (bad) {
        if (failure_case) *failure_case = m.adjustment;
        return std::nullopt;
      }
    }
  }

  // Renumber logical processors to the used subset, preserving the
  // descending-surplus order.
  std::vector<std::uint32_t> remap(input.surpluses.size(),
                                   static_cast<std::uint32_t>(-1));
  for (TaskId t = 0; t < n; ++t) {
    const auto p = m.assignment[t];
    if (remap[p] == static_cast<std::uint32_t>(-1)) remap[p] = 0;  // mark used
  }
  std::uint32_t next = 0;
  for (std::size_t p = 0; p < remap.size(); ++p)
    if (remap[p] != static_cast<std::uint32_t>(-1)) {
      remap[p] = next++;
      m.surpluses.push_back(input.surpluses[p]);
    }
  for (TaskId t = 0; t < n; ++t) m.assignment[t] = remap[m.assignment[t]];
  m.used_processors = next;
  RTDS_CHECK(m.used_processors >= 1);

  // Group the windowed tasks per logical processor once; validation reads
  // this on every ACS site instead of re-scanning the assignment.
  m.by_processor.assign(m.used_processors, {});
  for (TaskId t = 0; t < n; ++t)
    m.by_processor[m.assignment[t]].push_back(
        WindowedTask{t, m.release[t], m.deadline[t], dag.cost(t)});
  return m;
}

}  // namespace rtds
