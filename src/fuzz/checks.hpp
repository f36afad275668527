// The fuzzer's oracle (DESIGN.md §15): runs one scenario under the fatal
// invariant checker and layers the silent-wrong-answer cross-checks on
// top — replay determinism, snapshot-resume-at-a-random-cut equivalence,
// incremental-repair vs full-recompute routing equality, and worker-count
// invariance of exp aggregates. Pure: the same scenario and seeded bug
// always yield the same CheckResult, which is what makes findings
// replayable and the shrinker's predicate stable.
#pragma once

#include <string>

#include "fault/bugs.hpp"
#include "fuzz/scenario.hpp"

namespace rtds::fuzz {

struct CheckResult {
  bool failed = false;
  /// Failure class: an invariant name ("at-most-one", "seq-monotone",
  /// "repair-consistency", ...), a cross-check tag ("replay-divergence",
  /// "snapshot-divergence", "repair-divergence", "worker-divergence"), or
  /// "exception" for anything else thrown.
  std::string tag;
  std::string message;
  /// The reference run's RunMetrics as one JSONL line (byte-comparable;
  /// the committed benign corpus pins these in CI). Empty when the run
  /// itself failed before producing metrics.
  std::string metrics_jsonl;
};

/// Extracts the failure class from an exception message: the invariant
/// name behind the "invariant violated: " prefix, else "exception".
std::string classify_failure(const std::string& what);

/// Runs the scenario's reference run plus every enabled cross-check, the
/// rtds runs under the fatal invariant checker with `bug` live.
CheckResult run_scenario_checks(
    const FuzzScenario& s, fault::InjectedBug bug = fault::InjectedBug::kNone);

}  // namespace rtds::fuzz
