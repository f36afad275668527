#include "fuzz/shrink.hpp"

#include <algorithm>

#include "fuzz/checks.hpp"

namespace rtds::fuzz {

namespace {

class Shrinker {
 public:
  Shrinker(FuzzScenario best, std::string tag, std::size_t max_attempts,
           ShrinkStats* stats, fault::InjectedBug bug)
      : best_(std::move(best)),
        tag_(std::move(tag)),
        max_attempts_(max_attempts),
        stats_(stats),
        bug_(bug) {}

  /// True iff the candidate still fails with the same tag; adopts it as
  /// the new best when it does AND it is no larger.
  bool try_candidate(FuzzScenario cand) {
    if (attempts_ >= max_attempts_) return false;
    ++attempts_;
    if (stats_ != nullptr) stats_->attempts = attempts_;
    CheckResult r;
    try {
      r = run_scenario_checks(cand, bug_);
    } catch (const std::exception&) {
      return false;  // a broken candidate is never an improvement
    }
    if (!r.failed || r.tag != tag_) return false;
    best_ = std::move(cand);
    if (stats_ != nullptr) ++stats_->improvements;
    return true;
  }

  bool budget_left() const { return attempts_ < max_attempts_; }
  const FuzzScenario& best() const { return best_; }

  /// Classic ddmin over the fault script: try dropping chunks, halving
  /// the granularity until single events survive removal attempts.
  void shrink_events() {
    std::size_t chunk = std::max<std::size_t>(1, best_.plan.events.size() / 2);
    while (chunk >= 1 && budget_left()) {
      bool removed_any = false;
      for (std::size_t start = 0;
           start < best_.plan.events.size() && budget_left();) {
        FuzzScenario cand = best_;
        const auto begin =
            cand.plan.events.begin() + static_cast<std::ptrdiff_t>(start);
        const auto end =
            cand.plan.events.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(start + chunk, cand.plan.events.size()));
        cand.plan.events.erase(begin, end);
        if (try_candidate(std::move(cand)))
          removed_any = true;  // same start now names the next chunk
        else
          start += chunk;
      }
      if (chunk == 1 && !removed_any) break;
      chunk = std::max<std::size_t>(1, chunk / 2);
      if (chunk == 1 && removed_any) continue;
    }
  }

  /// Zero each perturbation knob that is not load-bearing for the failure.
  void shrink_knobs() {
    for (double fault::FaultPlan::*knob :
         {&fault::FaultPlan::drop_prob, &fault::FaultPlan::extra_delay_max,
          &fault::FaultPlan::dup_prob, &fault::FaultPlan::reorder_prob}) {
      if (best_.plan.*knob <= 0.0 || !budget_left()) continue;
      FuzzScenario cand = best_;
      cand.plan.*knob = 0.0;
      try_candidate(std::move(cand));
    }
  }

  /// Shrink the numeric condition axes toward their floors.
  void shrink_condition() {
    for (const std::size_t sites :
         {std::size_t{4}, best_.cond.sites / 2, 3 * best_.cond.sites / 4}) {
      if (sites < 4 || sites >= best_.cond.sites || !budget_left()) continue;
      FuzzScenario cand = best_;
      cand.cond.sites = sites;
      try {
        sanitize_plan(cand);  // drop events the smaller topology invalidates
      } catch (const std::exception&) {
        continue;  // families with a size floor can reject the candidate
      }
      try_candidate(std::move(cand));
    }
    if (best_.cond.horizon > 20.0 && budget_left()) {
      FuzzScenario cand = best_;
      cand.cond.horizon = std::max(10.0, cand.cond.horizon / 2);
      try_candidate(std::move(cand));
    }
    if (best_.cond.rate > 0.008 && budget_left()) {
      FuzzScenario cand = best_;
      cand.cond.rate /= 2;
      try_candidate(std::move(cand));
    }
    if (best_.cond.max_tasks > best_.cond.min_tasks + 1 && budget_left()) {
      FuzzScenario cand = best_;
      cand.cond.max_tasks = cand.cond.min_tasks + 1;
      try_candidate(std::move(cand));
    }
  }

  /// Drop each param assignment (schema defaults take over).
  void shrink_params() {
    for (std::size_t i = 0; i < best_.params.size() && budget_left();) {
      FuzzScenario cand = best_;
      cand.params.erase(cand.params.begin() + static_cast<std::ptrdiff_t>(i));
      if (!try_candidate(std::move(cand))) ++i;
    }
  }

 private:
  FuzzScenario best_;
  std::string tag_;
  std::size_t attempts_ = 0;
  std::size_t max_attempts_;
  ShrinkStats* stats_;
  fault::InjectedBug bug_;
};

}  // namespace

FuzzScenario shrink_scenario(const FuzzScenario& s, const std::string& tag,
                             std::size_t max_attempts, ShrinkStats* stats,
                             fault::InjectedBug bug) {
  FuzzScenario seed = s;
  seed.expect.clear();  // the predicate matches raw tags while shrinking
  Shrinker sh(std::move(seed), tag, max_attempts, stats, bug);
  // Fixpoint loop: each pass can unlock the next (fewer events make a
  // smaller topology viable, and so on). Size strictly decreases on every
  // improvement, so this terminates without a round cap.
  std::size_t before;
  do {
    before = sh.best().size();
    sh.shrink_events();
    sh.shrink_knobs();
    sh.shrink_condition();
    sh.shrink_params();
  } while (sh.best().size() < before && sh.budget_left());
  FuzzScenario out = sh.best();
  out.expect = tag;
  return out;
}

}  // namespace rtds::fuzz
