// Delta-debugging minimizer (DESIGN.md §15): given a failing scenario and
// its failure tag, repeatedly simplifies along every axis — drop fault
// events ddmin-style, zero chaos knobs, shrink the topology / horizon /
// job stream, drop parameter assignments — keeping a candidate only when
// the SAME tag still reproduces. The predicate is run_scenario_checks, so
// whatever the fuzzer saw, the shrinker preserves.
#pragma once

#include <cstddef>
#include <string>

#include "fault/bugs.hpp"
#include "fuzz/scenario.hpp"

namespace rtds::fuzz {

struct ShrinkStats {
  std::size_t attempts = 0;      ///< predicate evaluations spent
  std::size_t improvements = 0;  ///< candidates that kept the failure
};

/// Minimizes `s` while `tag` reproduces under `bug`; spends at most
/// `max_attempts` predicate runs. Returns the smallest reproducer found
/// (at worst, `s` itself) with `expect` set to the tag — ready to
/// serialize as a .repro.
FuzzScenario shrink_scenario(
    const FuzzScenario& s, const std::string& tag,
    std::size_t max_attempts = 200, ShrinkStats* stats = nullptr,
    fault::InjectedBug bug = fault::InjectedBug::kNone);

}  // namespace rtds::fuzz
