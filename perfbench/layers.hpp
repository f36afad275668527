// Per-layer attribution of one workload (the --trace 1 mode).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "bench.hpp"

namespace rtds::perfbench {

struct LayerResult {
  /// In BENCHMARK.json per_layer order.
  std::vector<Metric> metrics;
  /// Failed fidelity, reconciliation or digest checks, one line each.
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;  ///< jobs of the untraced pass and baselines
  /// Jobs with no decision, and jobs of runs that diverged from the entry
  /// point or (all of them) from `expect_digest`.
  std::uint64_t failed = 0;
};

/// Untraced pass, traced pass, replays and reconciliation of `w`. When
/// `expect_digest` is not empty the untraced pass's RunMetrics must digest
/// to it. Writes the benchmark-side spans to `spans_path` (when not empty)
/// and a human-readable report to `log`.
LayerResult measure_layers(const Workload& w, const std::string& expect_digest,
                           const std::string& spans_path, std::ostream& log);

}  // namespace rtds::perfbench
