// Campaign driver (DESIGN.md §15): walks the seeded scenario sequence,
// runs each scenario's checks, and on a finding shrinks it and writes a
// versioned .repro file. Worker threads claim scenario indices from one
// atomic counter; because scenario i is a pure function of (seed, i) and
// findings are reported in index order, the findings of a --runs-bounded
// campaign are identical whatever the worker count (pinned by test).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fuzz/scenario.hpp"
#include "fuzz/shrink.hpp"

namespace rtds::fuzz {

struct FuzzOptions {
  std::uint64_t seed = 42;        ///< campaign key
  std::uint64_t runs = 100;       ///< scenario budget (0 = unbounded)
  double budget_seconds = 0.0;    ///< wall-clock budget (0 = none)
  std::size_t jobs = 1;           ///< worker threads
  bool minimize = true;           ///< shrink findings before reporting
  std::size_t shrink_attempts = 200;
  std::string out_dir;            ///< where .repro files land ("" = none)
  std::uint64_t progress_every = 25;  ///< scenarios between progress lines
  /// Seeded mutant live in every rtds run of the campaign (fault/bugs.hpp;
  /// the mutation harness). kNone fuzzes the protocol as written.
  fault::InjectedBug bug = fault::InjectedBug::kNone;
};

struct Finding {
  std::uint64_t index = 0;  ///< scenario index within the campaign
  std::string tag;
  std::string message;
  FuzzScenario repro;       ///< shrunk (or raw, with --minimize=false)
  std::string repro_path;   ///< written file, "" when out_dir unset
  ShrinkStats shrink;
};

struct FuzzReport {
  std::uint64_t runs_done = 0;
  std::vector<Finding> findings;  ///< sorted by scenario index
};

/// Runs the campaign; its checks run the invariant checker fatal. Progress
/// and finding lines go to `log`. Obs counters (fuzz.runs, fuzz.findings,
/// fuzz.shrink_attempts) are recorded once from the final report, so an
/// attached obs scope sees worker-count-invariant values.
FuzzReport run_fuzz(const FuzzOptions& opts, std::ostream& log);

}  // namespace rtds::fuzz
