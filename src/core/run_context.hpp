// Per-run settings that are not scheduler knobs: whether the §12 checker
// runs and is fatal, which seeded mutant is live, warm start, and the
// open-run length override. A RunContext travels as a value (SystemConfig,
// Policy::run, the exp trial and report functions, load::OpenConfig), so
// concurrent runs in one process never see each other's settings. The
// CLIs read it from their flags (exp/cli.hpp).
#pragma once

#include "fault/bugs.hpp"
#include "util/time.hpp"

namespace rtds {

struct RunContext {
  /// Runs the §12 runtime invariant checker (`--check-invariants`); OR-s
  /// with SystemConfig::check_invariants. A pure observer.
  bool check_invariants = false;
  /// The first invariant violation throws ContractViolation instead of
  /// only counting (tests and the fuzzer).
  bool invariants_fatal = false;
  /// A seeded mutant for the fuzzer's mutation harness; kNone is the
  /// protocol as written.
  fault::InjectedBug injected_bug = fault::InjectedBug::kNone;
  /// Share serialized bring-ups per (topology, h) through the
  /// snap/warm_start.hpp cache (`--warm-start`). Bit-identical output.
  bool warm_start = false;
  /// Open-run length for duration-aware scenarios and reports
  /// (`rtds_exp --duration=T`); <= 0 keeps each one's built-in length.
  Time duration = 0.0;

  /// `duration` when set, else `fallback`.
  Time duration_or(Time fallback) const {
    return duration > 0.0 ? duration : fallback;
  }
};

}  // namespace rtds
