#include "dag/analysis.hpp"

#include <algorithm>

namespace rtds {

std::vector<Time> bottom_levels(const Dag& dag) {
  const auto bl = dag.bottom_levels();  // the finalize()-time cache
  return {bl.begin(), bl.end()};
}

std::vector<Time> top_levels(const Dag& dag) {
  std::vector<Time> tl(dag.task_count(), 0.0);
  for (TaskId t : dag.topological_order()) {
    for (TaskId s : dag.successors(t))
      tl[s] = std::max(tl[s], tl[t] + dag.cost(t));
  }
  return tl;
}

Time critical_path_length(const Dag& dag) { return dag.critical_path(); }

std::size_t critical_path_task_count(const Dag& dag) {
  if (dag.empty()) return 0;
  const Time cp = critical_path_length(dag);
  const auto bl = dag.bottom_levels();
  const auto tl = top_levels(dag);
  // Longest (task-count) path among tasks lying on *some* critical path.
  // A task t is on a critical path iff tl[t] + bl[t] == cp. Count via DP over
  // the topological order restricted to critical tasks and critical arcs.
  std::vector<std::size_t> cnt(dag.task_count(), 0);
  std::size_t best = 0;
  for (TaskId t : dag.topological_order()) {
    if (!time_eq(tl[t] + bl[t], cp)) continue;
    cnt[t] = 1;
    for (TaskId p : dag.predecessors(t)) {
      // Arc p->t is critical iff both endpoints critical and tight.
      if (time_eq(tl[p] + bl[p], cp) && time_eq(tl[p] + dag.cost(p), tl[t]))
        cnt[t] = std::max(cnt[t], cnt[p] + 1);
    }
    best = std::max(best, cnt[t]);
  }
  return best;
}

std::vector<TaskId> critical_path_tasks(const Dag& dag) {
  std::vector<TaskId> path;
  if (dag.empty()) return path;
  const auto bl = bottom_levels(dag);
  // Start from the source-side task with the largest bottom level; walk
  // greedily through successors that keep the path tight.
  TaskId cur = 0;
  Time best = -1.0;
  for (TaskId t : dag.sources()) {
    if (bl[t] > best) {
      best = bl[t];
      cur = t;
    }
  }
  path.push_back(cur);
  while (!dag.successors(cur).empty()) {
    const Time want = bl[cur] - dag.cost(cur);
    if (time_eq(want, 0.0)) break;
    TaskId next = dag.successors(cur).front();
    for (TaskId s : dag.successors(cur)) {
      if (time_eq(bl[s], want)) {
        next = s;
        break;
      }
    }
    path.push_back(next);
    cur = next;
  }
  return path;
}

namespace {
/// Longest-path (hop count) layer index per task.
std::vector<std::size_t> layers(const Dag& dag) {
  std::vector<std::size_t> layer(dag.task_count(), 0);
  for (TaskId t : dag.topological_order())
    for (TaskId s : dag.successors(t))
      layer[s] = std::max(layer[s], layer[t] + 1);
  return layer;
}
}  // namespace

std::size_t depth(const Dag& dag) {
  if (dag.empty()) return 0;
  const auto ls = layers(dag);
  return 1 + *std::max_element(ls.begin(), ls.end());
}

std::size_t width(const Dag& dag) {
  if (dag.empty()) return 0;
  const auto ls = layers(dag);
  std::vector<std::size_t> counts(depth(dag), 0);
  for (auto l : ls) ++counts[l];
  return *std::max_element(counts.begin(), counts.end());
}

DagSummary summarize(const Dag& dag) {
  DagSummary s;
  s.tasks = dag.task_count();
  s.arcs = dag.arc_count();
  s.depth = depth(dag);
  s.width = width(dag);
  s.total_work = dag.total_work();
  s.critical_path = critical_path_length(dag);
  s.parallelism = s.critical_path > 0 ? s.total_work / s.critical_path : 0.0;
  return s;
}

}  // namespace rtds
