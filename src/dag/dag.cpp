#include "dag/dag.hpp"

#include <algorithm>
#include <functional>

#include "util/inline_vec.hpp"

namespace rtds {

TaskId Dag::add_task(Time cost, std::string label) {
  RTDS_REQUIRE_MSG(!finalized_, "cannot mutate a finalized Dag");
  RTDS_REQUIRE_MSG(cost > 0.0, "task cost must be positive, got " << cost);
  tasks_.push_back(Task{cost, std::move(label)});
  return static_cast<TaskId>(tasks_.size() - 1);
}

void Dag::add_arc(TaskId from, TaskId to, double data_volume) {
  RTDS_REQUIRE_MSG(!finalized_, "cannot mutate a finalized Dag");
  RTDS_REQUIRE(from < tasks_.size());
  RTDS_REQUIRE(to < tasks_.size());
  RTDS_REQUIRE_MSG(from != to, "self-loop on task " << from);
  RTDS_REQUIRE(data_volume >= 0.0);
  for (const auto& a : arcs_)
    if (a.from == from && a.to == to) return;  // idempotent
  arcs_.push_back(Arc{from, to, data_volume});
}

void Dag::finalize() {
  RTDS_REQUIRE_MSG(!finalized_, "Dag already finalized");
  const auto n = tasks_.size();
  const auto m = arcs_.size();

  // CSR adjacency: count degrees, prefix-sum, scatter (each offset doubles
  // as its row's cursor, then shifts back one row), sort rows.
  csr_.assign(2 * (n + 1) + 2 * m, 0);
  std::uint32_t* const pred_off = csr_.data();
  std::uint32_t* const succ_off = pred_off + n + 1;
  TaskId* const pred = csr_.data() + pred_base();
  TaskId* const succ = csr_.data() + succ_base();
  bool forward = true;  // every arc from a lower id to a higher one
  for (const auto& a : arcs_) {
    ++succ_off[a.from + 1];
    ++pred_off[a.to + 1];
    forward = forward && a.from < a.to;
  }
  for (std::size_t t = 1; t <= n; ++t) {
    pred_off[t] += pred_off[t - 1];
    succ_off[t] += succ_off[t - 1];
  }
  for (const auto& a : arcs_) {
    succ[succ_off[a.from]++] = a.to;
    pred[pred_off[a.to]++] = a.from;
  }
  for (std::size_t t = n; t > 0; --t) {
    pred_off[t] = pred_off[t - 1];
    succ_off[t] = succ_off[t - 1];
  }
  pred_off[0] = succ_off[0] = 0;
  for (TaskId t = 0; t < n; ++t) {
    std::sort(pred + pred_off[t], pred + pred_off[t + 1]);
    std::sort(succ + succ_off[t], succ + succ_off[t + 1]);
  }

  // Stable (id-ordered) topological order. With every arc pointing forward
  // the id order is one, and Kahn's smallest-ready-first walk yields exactly
  // it; otherwise run that walk with a min-heap.
  topo_.clear();
  topo_.reserve(n);
  finalized_ = true;  // successors() below requires it
  if (forward) {
    for (TaskId t = 0; t < n; ++t) topo_.push_back(t);
  } else {
    InlineVec<std::uint32_t, 32> indegree;
    indegree.assign(n, 0);
    InlineVec<TaskId, 32> ready;  // min-heap
    for (TaskId t = 0; t < n; ++t) {
      indegree[t] = pred_off[t + 1] - pred_off[t];
      if (indegree[t] == 0) ready.push_back(t);
    }
    while (!ready.empty()) {
      std::pop_heap(ready.begin(), ready.end(), std::greater<>{});
      const TaskId t = *(ready.end() - 1);
      ready.erase(ready.end() - 1);
      topo_.push_back(t);
      for (TaskId s : successors(t)) {
        if (--indegree[s] == 0) {
          ready.push_back(s);
          std::push_heap(ready.begin(), ready.end(), std::greater<>{});
        }
      }
    }
    if (topo_.size() != n) {
      finalized_ = false;
      RTDS_REQUIRE_MSG(false, "precedence graph contains a cycle");
    }
  }

  std::size_t source_count = 0, sink_count = 0;
  for (TaskId t = 0; t < n; ++t) {
    source_count += pred_off[t] == pred_off[t + 1];
    sink_count += succ_off[t] == succ_off[t + 1];
  }
  sources_.clear();
  sinks_.clear();
  sources_.reserve(source_count);
  sinks_.reserve(sink_count);
  for (TaskId t = 0; t < n; ++t) {
    if (pred_off[t] == pred_off[t + 1]) sources_.push_back(t);
    if (succ_off[t] == succ_off[t + 1]) sinks_.push_back(t);
  }

  bottom_levels_.assign(n, 0.0);
  critical_path_ = 0.0;
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const TaskId t = *it;
    Time best = 0.0;
    for (TaskId s : successors(t)) best = std::max(best, bottom_levels_[s]);
    bottom_levels_[t] = tasks_[t].cost + best;
    critical_path_ = std::max(critical_path_, bottom_levels_[t]);
  }
}

std::span<const TaskId> Dag::predecessors(TaskId t) const {
  require_finalized();
  RTDS_REQUIRE(t < tasks_.size());
  const TaskId* const ids = csr_.data() + pred_base();
  return {ids + csr_[t], ids + csr_[t + 1]};
}

std::span<const TaskId> Dag::successors(TaskId t) const {
  require_finalized();
  RTDS_REQUIRE(t < tasks_.size());
  const TaskId* const ids = csr_.data() + succ_base();
  const std::uint32_t* const off = csr_.data() + tasks_.size() + 1;
  return {ids + off[t], ids + off[t + 1]};
}

double Dag::data_volume(TaskId from, TaskId to) const {
  for (const auto& a : arcs_)
    if (a.from == from && a.to == to) return a.data_volume;
  RTDS_REQUIRE_MSG(false, "no arc " << from << " -> " << to);
  return 0.0;
}

const std::vector<TaskId>& Dag::sources() const {
  require_finalized();
  return sources_;
}

const std::vector<TaskId>& Dag::sinks() const {
  require_finalized();
  return sinks_;
}

const std::vector<TaskId>& Dag::topological_order() const {
  require_finalized();
  return topo_;
}

Time Dag::total_work() const {
  Time w = 0.0;
  for (const auto& t : tasks_) w += t.cost;
  return w;
}

bool Dag::reaches(TaskId ancestor, TaskId descendant) const {
  require_finalized();
  RTDS_REQUIRE(ancestor < tasks_.size());
  RTDS_REQUIRE(descendant < tasks_.size());
  if (ancestor == descendant) return false;
  std::vector<bool> seen(tasks_.size(), false);
  std::vector<TaskId> stack{ancestor};
  seen[ancestor] = true;
  while (!stack.empty()) {
    const TaskId t = stack.back();
    stack.pop_back();
    for (TaskId s : successors(t)) {
      if (s == descendant) return true;
      if (!seen[s]) {
        seen[s] = true;
        stack.push_back(s);
      }
    }
  }
  return false;
}

}  // namespace rtds
