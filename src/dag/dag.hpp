// Job model: a deadline-constrained DAG of tasks (the paper's G = (T, E)).
//
// Each task t_i carries a Computational Complexity c(t_i) (its execution
// time on an idle, unit-speed site). Arcs may optionally carry a data
// volume, used by the §13 "Communication Delays" extension where transfer
// time = volume / link throughput.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/time.hpp"

namespace rtds {

class Rng;

/// Index of a task within its DAG (dense, 0-based).
using TaskId = std::uint32_t;

/// Globally unique job identifier assigned by the workload source.
using JobId = std::uint64_t;

struct Task {
  Time cost = 0.0;        ///< Computational Complexity c(t), > 0.
  std::string label;      ///< Optional human-readable name (DOT export).
};

struct Arc {
  TaskId from = 0;
  TaskId to = 0;
  double data_volume = 0.0;  ///< Optional §13 decoration; 0 = pure precedence.
};

/// Directed acyclic graph of tasks with a common release and deadline.
///
/// Mutation is add-only (add_task / add_arc); `finalize()` freezes the graph,
/// verifies acyclicity and caches topological order and adjacency. All query
/// methods require a finalized DAG.
class Dag {
 public:
  Dag() = default;

  /// Reserves room for `tasks` tasks and `arcs` arcs (generators that know
  /// their final size allocate once).
  void reserve(std::size_t tasks, std::size_t arcs) {
    tasks_.reserve(tasks);
    arcs_.reserve(arcs);
  }

  /// Adds a task and returns its id. Cost must be positive.
  TaskId add_task(Time cost, std::string label = {});

  /// Adds a precedence arc from -> to. Both ids must exist; self-loops are
  /// rejected. Duplicate arcs are idempotent.
  void add_arc(TaskId from, TaskId to, double data_volume = 0.0);

  /// Freezes the DAG: verifies acyclicity (throws ContractViolation on a
  /// cycle), builds predecessor/successor lists and a topological order.
  void finalize();

  /// Rewrites the arc volumes of a finalized copy (dag/generators.hpp).
  friend Dag decorate_volumes(Dag dag, double lo, double hi, Rng& rng);

  bool finalized() const { return finalized_; }

  std::size_t task_count() const { return tasks_.size(); }
  std::size_t arc_count() const { return arcs_.size(); }
  bool empty() const { return tasks_.empty(); }

  const Task& task(TaskId t) const { return tasks_.at(t); }
  Time cost(TaskId t) const { return tasks_.at(t).cost; }
  const std::vector<Arc>& arcs() const { return arcs_; }

  /// Immediate predecessors Γ⁻(t) / successors Γ⁺(t). Spans into the CSR
  /// adjacency, valid while the Dag lives and is not re-finalized.
  std::span<const TaskId> predecessors(TaskId t) const;
  std::span<const TaskId> successors(TaskId t) const;

  /// Data volume on arc (from, to); requires the arc to exist.
  double data_volume(TaskId from, TaskId to) const;

  /// Tasks with no predecessors / successors.
  const std::vector<TaskId>& sources() const;
  const std::vector<TaskId>& sinks() const;

  /// A topological order (stable: ties broken by task id).
  const std::vector<TaskId>& topological_order() const;

  /// Bottom levels b(t) = c(t) + max over successors' b, cached at
  /// finalize(): the admission tests, the mapper, and the enrollment gate
  /// all re-derived this once per job per site.
  const std::vector<Time>& bottom_levels() const {
    require_finalized();
    return bottom_levels_;
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
  void require_finalized() const {
    RTDS_REQUIRE_MSG(finalized_, "Dag must be finalize()d before queries");
  }

  // CSR row bounds: predecessors of t are csr_[pred_base() + csr_[t] ..
  // + csr_[t + 1]), successors csr_[succ_base() + csr_[n + 1 + t] ..].
  std::size_t pred_base() const { return 2 * (tasks_.size() + 1); }
  std::size_t succ_base() const { return pred_base() + arcs_.size(); }

  std::vector<Task> tasks_;
  std::vector<Arc> arcs_;
  // CSR adjacency in one allocation — pred offsets (n + 1), succ offsets
  // (n + 1), pred ids (m), succ ids (m) — instead of one vector per task:
  // DAG construction and copies sit on the hot path of every trial.
  std::vector<std::uint32_t> csr_;
  std::vector<TaskId> topo_;
  std::vector<TaskId> sources_;
  std::vector<TaskId> sinks_;
  std::vector<Time> bottom_levels_;
  Time critical_path_ = 0.0;
  bool finalized_ = false;
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
