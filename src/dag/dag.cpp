#include "dag/dag.hpp"

#include <algorithm>
#include <functional>
#include <new>
#include <numeric>

#include "util/inline_vec.hpp"

namespace rtds {

namespace {

/// An uninitialized array of `count` T, or null when `count` is zero (a
/// zero-size block would still be a heap allocation).
template <class T>
std::unique_ptr<T[]> allocate(std::size_t count) {
  return count ? std::make_unique_for_overwrite<T[]>(count) : nullptr;
}

/// Bytes of a finalized Dag's graph block (see the layout in dag.hpp).
std::size_t graph_bytes(std::size_t n, std::size_t m, std::size_t sources,
                        std::size_t sinks, std::size_t label_chars) {
  const std::size_t words = 2 * (n + 1) + 2 * m + n + sources + sinks +
                            (label_chars ? n : 0);
  return sizeof(Arc) * m + sizeof(std::uint32_t) * words + label_chars;
}

}  // namespace

Dag::Dag(const Dag& other)
    : n_(other.n_),
      m_(other.m_),
      task_cap_(other.n_),
      arc_cap_(other.m_),
      source_count_(other.source_count_),
      sink_count_(other.sink_count_),
      label_chars_(other.label_chars_),
      finalized_(other.finalized_),
      critical_path_(other.critical_path_) {
  const std::size_t n = n_;
  times_ = allocate<Time>(2 * n);
  std::copy_n(other.times_.get(), finalized_ ? 2 * n : n, times_.get());
  const std::size_t bytes =
      finalized_ ? graph_bytes(n_, m_, source_count_, sink_count_, label_chars_)
                 : sizeof(Arc) * m_;
  graph_ = allocate<std::byte>(bytes);
  std::copy_n(other.graph_.get(), bytes, graph_.get());
  if (other.label_stage_)
    label_stage_ = std::make_unique<LabelStage>(*other.label_stage_);
}

void Dag::swap(Dag& other) noexcept {
  std::swap(times_, other.times_);
  std::swap(graph_, other.graph_);
  std::swap(label_stage_, other.label_stage_);
  std::swap(n_, other.n_);
  std::swap(m_, other.m_);
  std::swap(task_cap_, other.task_cap_);
  std::swap(arc_cap_, other.arc_cap_);
  std::swap(source_count_, other.source_count_);
  std::swap(sink_count_, other.sink_count_);
  std::swap(label_chars_, other.label_chars_);
  std::swap(finalized_, other.finalized_);
  std::swap(critical_path_, other.critical_path_);
}

void Dag::reallocate_tasks(std::size_t cap) {
  auto times = allocate<Time>(2 * cap);  // costs, then bottom-level room
  std::copy_n(times_.get(), n_, times.get());
  times_ = std::move(times);
  task_cap_ = static_cast<std::uint32_t>(cap);
}

void Dag::reallocate_arcs(std::size_t cap) {
  auto graph = allocate<std::byte>(sizeof(Arc) * cap);
  std::copy_n(graph_.get(), sizeof(Arc) * m_, graph.get());
  graph_ = std::move(graph);
  arc_cap_ = static_cast<std::uint32_t>(cap);
}

void Dag::reserve(std::size_t tasks, std::size_t arcs) {
  RTDS_REQUIRE_MSG(!finalized_, "cannot mutate a finalized Dag");
  if (tasks > task_cap_) reallocate_tasks(tasks);
  if (arcs > arc_cap_) reallocate_arcs(arcs);
}

TaskId Dag::add_task(Time cost, std::string_view label) {
  RTDS_REQUIRE_MSG(!finalized_, "cannot mutate a finalized Dag");
  RTDS_REQUIRE_MSG(cost > 0.0, "task cost must be positive, got " << cost);
  RTDS_REQUIRE_MSG(label.find('\n') == std::string_view::npos,
                   "task label must not contain a newline");
  if (n_ == task_cap_)
    reallocate_tasks(std::max<std::size_t>(4, 2 * task_cap_));
  times_[n_] = cost;
  if (!label.empty() && !label_stage_) {
    label_stage_ = std::make_unique<LabelStage>();
    label_stage_->ends.assign(n_, 0);
  }
  if (label_stage_) {
    label_stage_->chars += label;
    label_stage_->ends.push_back(
        static_cast<std::uint32_t>(label_stage_->chars.size()));
  }
  return n_++;
}

void Dag::add_arc(TaskId from, TaskId to, double data_volume) {
  RTDS_REQUIRE_MSG(!finalized_, "cannot mutate a finalized Dag");
  RTDS_REQUIRE(from < n_);
  RTDS_REQUIRE(to < n_);
  RTDS_REQUIRE_MSG(from != to, "self-loop on task " << from);
  RTDS_REQUIRE(data_volume >= 0.0);
  for (const auto& a : arcs())
    if (a.from == from && a.to == to) return;  // idempotent
  if (m_ == arc_cap_)
    reallocate_arcs(std::max<std::size_t>(4, 2 * arc_cap_));
  ::new (graph_.get() + sizeof(Arc) * m_) Arc{from, to, data_volume};
  ++m_;
}

void Dag::finalize() {
  RTDS_REQUIRE_MSG(!finalized_, "Dag already finalized");
  const std::size_t n = n_;
  const std::size_t m = m_;

  // Degrees, laid out as the CSR offset rows before their prefix sums:
  // t's in-degree at deg[t + 1], its out-degree at deg[n + 2 + t].
  InlineVec<std::uint32_t, 64> deg;
  deg.assign(2 * (n + 1), 0);
  bool forward = true;  // every arc from a lower id to a higher one
  for (const auto& a : arcs()) {
    ++deg[a.to + 1];
    ++deg[n + 2 + a.from];
    forward = forward && a.from < a.to;
  }
  std::uint32_t sources = 0, sinks = 0;
  for (std::size_t t = 0; t < n; ++t) {
    sources += deg[t + 1] == 0;
    sinks += deg[n + 2 + t] == 0;
  }

  // The exact-size graph block: the arcs, then the words.
  const std::size_t label_chars =
      label_stage_ ? label_stage_->chars.size() : 0;
  auto graph =
      allocate<std::byte>(graph_bytes(n, m, sources, sinks, label_chars));
  std::copy_n(graph_.get(), sizeof(Arc) * m, graph.get());
  graph_ = std::move(graph);
  arc_cap_ = m_;
  std::uint32_t* const pred_off = words();
  std::uint32_t* const succ_off = pred_off + n + 1;
  TaskId* const pred = succ_off + n + 1;
  TaskId* const succ = pred + m;
  TaskId* const order = succ + m;
  TaskId* const source_ids = order + n;
  TaskId* const sink_ids = source_ids + sources;

  // CSR adjacency: prefix-sum the degrees, scatter (each offset doubles as
  // its row's cursor, then shifts back one row), sort rows.
  std::copy(deg.begin(), deg.end(), pred_off);
  for (std::size_t t = 1; t <= n; ++t) {
    pred_off[t] += pred_off[t - 1];
    succ_off[t] += succ_off[t - 1];
  }
  for (const auto& a : arcs()) {
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
  if (forward) {
    std::iota(order, order + n, TaskId{0});
  } else {
    InlineVec<std::uint32_t, 32> indegree;
    indegree.assign(n, 0);
    InlineVec<TaskId, 32> ready;  // min-heap
    for (TaskId t = 0; t < n; ++t) {
      indegree[t] = pred_off[t + 1] - pred_off[t];
      if (indegree[t] == 0) ready.push_back(t);
    }
    std::size_t placed = 0;
    while (!ready.empty()) {
      std::pop_heap(ready.begin(), ready.end(), std::greater<>{});
      const TaskId t = *(ready.end() - 1);
      ready.erase(ready.end() - 1);
      order[placed++] = t;
      for (std::uint32_t i = succ_off[t]; i < succ_off[t + 1]; ++i) {
        if (--indegree[succ[i]] == 0) {
          ready.push_back(succ[i]);
          std::push_heap(ready.begin(), ready.end(), std::greater<>{});
        }
      }
    }
    RTDS_REQUIRE_MSG(placed == n, "precedence graph contains a cycle");
  }

  TaskId* next_source = source_ids;
  TaskId* next_sink = sink_ids;
  for (TaskId t = 0; t < n; ++t) {
    if (pred_off[t] == pred_off[t + 1]) *next_source++ = t;
    if (succ_off[t] == succ_off[t + 1]) *next_sink++ = t;
  }
  source_count_ = sources;
  sink_count_ = sinks;

  if (label_stage_) {
    std::uint32_t* const ends = sink_ids + sinks;
    std::copy_n(label_stage_->ends.data(), n, ends);
    std::copy_n(label_stage_->chars.data(), label_chars,
                reinterpret_cast<char*>(ends + n));
    label_chars_ = static_cast<std::uint32_t>(label_chars);
    label_stage_.reset();
  }

  if (task_cap_ != n) reallocate_tasks(n);  // exact: costs, bottom levels
  Time* const bl = times_.get() + n;
  critical_path_ = 0.0;
  for (std::size_t i = n; i-- > 0;) {
    const TaskId t = order[i];
    Time best = 0.0;
    for (std::uint32_t j = succ_off[t]; j < succ_off[t + 1]; ++j)
      best = std::max(best, bl[succ[j]]);
    bl[t] = times_[t] + best;
    critical_path_ = std::max(critical_path_, bl[t]);
  }
  finalized_ = true;
}

std::string_view Dag::label(TaskId t) const {
  RTDS_REQUIRE(t < n_);
  const std::uint32_t* ends = nullptr;
  const char* chars = nullptr;
  if (label_stage_) {
    ends = label_stage_->ends.data();
    chars = label_stage_->chars.data();
  } else if (label_chars_ != 0) {
    ends = topo() + n_ + source_count_ + sink_count_;
    chars = reinterpret_cast<const char*>(ends + n_);
  } else {
    return {};
  }
  const std::uint32_t begin = t == 0 ? 0 : ends[t - 1];
  return {chars + begin, ends[t] - begin};
}

std::span<const TaskId> Dag::predecessors(TaskId t) const {
  require_finalized();
  RTDS_REQUIRE(t < n_);
  const std::uint32_t* const off = words();
  const TaskId* const ids = off + 2 * (n_ + 1);
  return {ids + off[t], ids + off[t + 1]};
}

std::span<const TaskId> Dag::successors(TaskId t) const {
  require_finalized();
  RTDS_REQUIRE(t < n_);
  const std::uint32_t* const off = words() + n_ + 1;
  const TaskId* const ids = words() + 2 * (n_ + 1) + m_;
  return {ids + off[t], ids + off[t + 1]};
}

double Dag::data_volume(TaskId from, TaskId to) const {
  for (const auto& a : arcs())
    if (a.from == from && a.to == to) return a.data_volume;
  RTDS_REQUIRE_MSG(false, "no arc " << from << " -> " << to);
  return 0.0;
}

Time Dag::total_work() const {
  Time w = 0.0;
  for (std::size_t t = 0; t < n_; ++t) w += times_[t];
  return w;
}

bool Dag::reaches(TaskId ancestor, TaskId descendant) const {
  require_finalized();
  RTDS_REQUIRE(ancestor < n_);
  RTDS_REQUIRE(descendant < n_);
  if (ancestor == descendant) return false;
  std::vector<bool> seen(n_, false);
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
