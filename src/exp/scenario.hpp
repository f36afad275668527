// Declarative experiment scenarios.
//
// A ScenarioSpec is the full description of one paper experiment sweep: a
// parameter grid (cartesian product of named axes), a replicate count, a
// seed policy, the metric schema, and a pure trial function mapping
// (grid point, seed) -> metric values. Everything else — trial fan-out,
// parallel execution, aggregation, output formatting — lives in the
// generic TrialRunner and sinks, so a new experiment is just a
// registration (see scenarios.cpp for the built-in E1–E5 set).
//
// Scenarios that are not sweeps (worked-example regenerators, protocol
// traces: Fig. 1/2, E4a) register as *reports*: deterministic functions
// that print their artifact to a stream.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/run_context.hpp"

namespace rtds::exp {

/// One coordinate on an axis: the numeric value handed to the trial
/// function plus the label the sinks print for it. For enum-like axes the
/// value is an index into a scenario-private list and the label is the
/// human name.
struct AxisValue {
  double value = 0.0;
  std::string label;
};

/// One named sweep dimension; the grid is the cartesian product of axes.
struct GridAxis {
  std::string header;  ///< table column header, e.g. "rate/site"
  std::string key;     ///< machine name for CSV/JSON, e.g. "rate"
  std::vector<AxisValue> values;

  /// Numeric axis; labels formatted with Table::num at `precision`.
  static GridAxis numeric(std::string header, std::string key,
                          const std::vector<double>& values, int precision);
  /// Enum-like axis; value i carries label labels[i].
  static GridAxis labeled(std::string header, std::string key,
                          std::vector<std::string> labels);
};

/// One point of the expanded grid (row-major over the axes, first axis
/// slowest — the nesting order of the hand-rolled loops it replaces).
struct GridPoint {
  std::size_t index = 0;
  std::vector<AxisValue> coords;  ///< one per axis, in axis order

  double value(std::size_t axis) const { return coords.at(axis).value; }
  const std::string& label(std::size_t axis) const {
    return coords.at(axis).label;
  }
};

/// Declares one column of a scenario's result schema; trial functions
/// return values in MetricSpec order.
struct MetricSpec {
  std::string header;   ///< table column header, e.g. "RTDS%"
  std::string key;      ///< machine name for CSV/JSON, e.g. "rtds_ratio"
  int precision = 3;    ///< table formatting precision for the mean
  double scale = 1.0;   ///< table display multiplier (100 for ratios)
};

/// Metric values in ScenarioSpec::metrics order. NaN = "not measured in
/// this trial" (e.g. E1 skips the broadcast baseline on huge networks);
/// the aggregator drops NaNs so the cell's count stays honest.
using TrialResult = std::vector<double>;

/// One trial: (grid point, seed, run context) -> metric values. Must be
/// *pure* — no shared mutable state, all randomness from the given seed,
/// every run setting from the context (RunOptions::context) — which is
/// what makes the parallel runner bit-deterministic (DESIGN.md §6).
using TrialFn = std::function<TrialResult(const GridPoint&, std::uint64_t,
                                          const RunContext&)>;

/// How per-trial seeds are chosen (rtds_exp --seeds overrides at run time).
enum class SeedMode {
  kDerived,  ///< trial_seed(name, grid_index, replicate) — the default
  kFixed,    ///< every trial uses fixed_seed (legacy bench_e* tables used
             ///< one shared seed for the whole sweep)
};

/// The full declarative description of one experiment sweep — everything
/// run_scenario needs to expand, execute, aggregate and render it.
struct ScenarioSpec {
  std::string name;         ///< registry key, e.g. "e2_guarantee_ratio"
  std::string title;        ///< printed above the table by the table sink
  std::string description;  ///< one-liner for --list
  std::vector<GridAxis> axes;      ///< sweep dimensions (product = grid)
  std::vector<MetricSpec> metrics; ///< result schema, in trial-value order
  std::size_t replicates = 1;      ///< trials per grid point
  SeedMode seed_mode = SeedMode::kDerived;
  std::uint64_t fixed_seed = 42;   ///< the kFixed shared seed
  TrialFn trial;                   ///< the pure per-trial function
  /// Trials construct RtdsSystems, so the snap warm-start cache
  /// (RunContext::warm_start, rtds_exp --warm-start) can reuse one
  /// serialized bring-up per (topology, h). True for every built-in sweep
  /// (they all run the rtds policy at least once per trial); a future
  /// baseline-only scenario should clear it so --list stays honest.
  bool warm_start = true;

  /// Product of axis sizes.
  std::size_t grid_size() const;
  /// Decodes a row-major grid index into its coordinates.
  GridPoint grid_point(std::size_t index) const;
  /// grid_size() × replicates — the number of trial executions.
  std::size_t trial_count() const { return grid_size() * replicates; }
  /// The seed a given (grid point, replicate) trial receives under the
  /// spec's seed mode (see exp/seed.hpp for the derivation).
  std::uint64_t seed_for(std::size_t grid_index, std::size_t replicate) const;
};

/// A non-sweep scenario: prints its deterministic artifact to the stream,
/// honouring the run context (checker, warm start, --duration).
using ReportFn = std::function<void(std::ostream&, const RunContext&)>;

/// Process-wide scenario registry. Built-ins are installed by
/// register_builtin_scenarios() (scenarios.hpp); anything may add more.
class Registry {
 public:
  /// The process-wide registry (static-initialization safe).
  static Registry& instance();

  /// Registers a sweep scenario under spec.name (duplicates throw).
  void add(ScenarioSpec spec);
  /// Registers a report scenario (duplicates throw).
  void add_report(std::string name, std::string description, ReportFn fn);

  /// nullptr when absent.
  const ScenarioSpec* find(const std::string& name) const;
  /// nullptr when absent.
  const ReportFn* find_report(const std::string& name) const;
  /// Description of a registered report; throws for unknown names.
  const std::string& report_description(const std::string& name) const;

  /// Registered sweep names, sorted.
  std::vector<std::string> scenario_names() const;
  /// Registered report names, sorted.
  std::vector<std::string> report_names() const;

 private:
  std::map<std::string, ScenarioSpec> scenarios_;
  struct Report {
    std::string description;
    ReportFn fn;
  };
  std::map<std::string, Report> reports_;
};

/// Runs a registered report scenario, printing its artifact to `os`.
/// Throws ContractViolation for unknown names.
void run_report(const std::string& name, std::ostream& os,
                const RunContext& ctx = {});

}  // namespace rtds::exp
