// Job model: a deadline-constrained DAG of tasks (the paper's G = (T, E)).
//
// Each task t_i carries a Computational Complexity c(t_i) (its execution
// time on an idle, unit-speed site). Arcs may optionally carry a data
// volume, used by the §13 "Communication Delays" extension where transfer
// time = volume / link throughput.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/time.hpp"

namespace rtds {

class Rng;

/// Index of a task within its DAG (dense, 0-based).
using TaskId = std::uint32_t;

/// Globally unique job identifier assigned by the workload source.
using JobId = std::uint64_t;

struct Arc {
  TaskId from = 0;
  TaskId to = 0;
  double data_volume = 0.0;  ///< Optional §13 decoration; 0 = pure precedence.
};

/// Directed acyclic graph of tasks with a common release and deadline.
///
/// Mutation is add-only (add_task / add_arc); `finalize()` freezes the graph,
/// verifies acyclicity and caches topological order and adjacency. All
/// structural queries require a finalized DAG.
///
/// A closed run keeps every arrival's DAG resident, so a finalized Dag owns
/// at most two exact-size heap blocks: `times_` holds the task costs and
/// then the bottom levels, `graph_` the arcs and then 32-bit words — the
/// CSR offsets and ids, the topological order, sources, sinks and, only
/// when some task has a label, each label's end offset followed by the
/// label characters. While building, `times_` has room for `2 * task_cap_`
/// times, `graph_` for `arc_cap_` arcs, and labels wait in `label_stage_`.
class Dag {
 public:
  Dag() = default;
  Dag(const Dag& other);
  Dag(Dag&& other) noexcept { swap(other); }  // leaves `other` empty
  Dag& operator=(Dag other) noexcept {
    swap(other);
    return *this;
  }

  /// Reserves room for `tasks` tasks and `arcs` arcs (generators that know
  /// their final size allocate once).
  void reserve(std::size_t tasks, std::size_t arcs);

  /// Adds a task and returns its id. Cost must be positive; a label is
  /// optional and must not contain a newline (the text format, dag/io.hpp,
  /// keeps one task per line).
  TaskId add_task(Time cost, std::string_view label = {});

  /// Adds a precedence arc from -> to. Both ids must exist; self-loops are
  /// rejected. Duplicate arcs are idempotent.
  void add_arc(TaskId from, TaskId to, double data_volume = 0.0);

  /// Freezes the DAG: verifies acyclicity (throws ContractViolation on a
  /// cycle), builds predecessor/successor lists and a topological order.
  void finalize();

  /// Rewrites the arc volumes of a finalized copy (dag/generators.hpp).
  friend Dag decorate_volumes(Dag dag, double lo, double hi, Rng& rng);

  bool finalized() const { return finalized_; }

  std::size_t task_count() const { return n_; }
  std::size_t arc_count() const { return m_; }
  bool empty() const { return n_ == 0; }

  Time cost(TaskId t) const {
    RTDS_REQUIRE(t < n_);
    return times_[t];
  }
  /// The task's label, empty when none was set.
  std::string_view label(TaskId t) const;
  /// Arcs in insertion order.
  std::span<const Arc> arcs() const {
    return {reinterpret_cast<const Arc*>(graph_.get()), m_};
  }

  /// Immediate predecessors Γ⁻(t) / successors Γ⁺(t). Spans into the CSR
  /// adjacency, valid while the Dag lives and is not re-finalized.
  std::span<const TaskId> predecessors(TaskId t) const;
  std::span<const TaskId> successors(TaskId t) const;

  /// Data volume on arc (from, to); requires the arc to exist.
  double data_volume(TaskId from, TaskId to) const;

  /// Tasks with no predecessors / successors, in id order.
  std::span<const TaskId> sources() const {
    require_finalized();
    return {topo() + n_, source_count_};
  }
  std::span<const TaskId> sinks() const {
    require_finalized();
    return {topo() + n_ + source_count_, sink_count_};
  }

  /// A topological order (stable: ties broken by task id).
  std::span<const TaskId> topological_order() const {
    require_finalized();
    return {topo(), n_};
  }

  /// Bottom levels b(t) = c(t) + max over successors' b, cached at
  /// finalize(): the admission tests, the mapper, and the enrollment gate
  /// all re-derived this once per job per site.
  std::span<const Time> bottom_levels() const {
    require_finalized();
    return {times_.get() + n_, n_};
  }
  /// max_t b(t) — the critical path length.
  Time critical_path() const {
    require_finalized();
    return critical_path_;
  }

  /// Sum of all task costs (total work W).
  Time total_work() const;

  /// True if `ancestor` reaches `descendant` through one or more arcs.
  bool reaches(TaskId ancestor, TaskId descendant) const;

 private:
  struct LabelStage {
    std::vector<std::uint32_t> ends;  // end of each task's label in chars
    std::string chars;
  };

  void require_finalized() const {
    RTDS_REQUIRE_MSG(finalized_, "Dag must be finalize()d before queries");
  }
  void swap(Dag& other) noexcept;
  void reallocate_tasks(std::size_t cap);
  void reallocate_arcs(std::size_t cap);

  // The words after the arcs: pred offsets (n + 1), succ offsets (n + 1),
  // pred ids (m), succ ids (m), topological order (n), sources, sinks, and
  // label end offsets (n) when labelled.
  std::uint32_t* words() {
    return reinterpret_cast<std::uint32_t*>(graph_.get() + sizeof(Arc) * m_);
  }
  const std::uint32_t* words() const {
    return reinterpret_cast<const std::uint32_t*>(graph_.get() +
                                                  sizeof(Arc) * m_);
  }
  const TaskId* topo() const { return words() + 2 * (n_ + 1) + 2 * m_; }

  std::unique_ptr<Time[]> times_;
  std::unique_ptr<std::byte[]> graph_;
  std::unique_ptr<LabelStage> label_stage_;  // building, labelled only
  std::uint32_t n_ = 0;
  std::uint32_t m_ = 0;
  std::uint32_t task_cap_ = 0;
  std::uint32_t arc_cap_ = 0;
  std::uint32_t source_count_ = 0;
  std::uint32_t sink_count_ = 0;
  std::uint32_t label_chars_ = 0;  // finalized; 0 = unlabelled
  bool finalized_ = false;
  Time critical_path_ = 0.0;
};

/// A job: a DAG instance plus its real-time parameters. Release r and
/// deadline d bound the whole graph (the paper's sporadic job model, §2).
struct Job {
  JobId id = 0;
  Dag dag;
  Time release = 0.0;   ///< r: arrival time at the receiving site.
  Time deadline = 0.0;  ///< d: absolute deadline for the whole DAG.

  Time window() const { return deadline - release; }
};

}  // namespace rtds
