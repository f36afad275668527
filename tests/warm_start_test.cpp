// Warm-start equivalence suite (DESIGN.md §14).
//
// The warm-start cache (snap/warm_start.hpp) shares one serialized
// post-bring-up state — routing tables + spheres — across every RtdsSystem
// constructed on the same (topology, h). Its whole value proposition is
// "free speedup, zero output change", so these tests pin:
//  * a cache *hit* produces byte-identical RunMetrics to a cold build;
//  * every registered sweep scenario renders byte-identical CSV warm vs
//    cold (reduced grids so the matrix runs in seconds);
//  * the pre-rewrite golden digests (tests/determinism_test.cpp) still
//    reproduce with the cache enabled — reduced E1 CSV and the
//    fig2_table1 report;
//  * every built-in sweep advertises warm-start support (the rtds_exp
//    --list column);
//  * the cache actually engages (hit/miss counters move).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "exp/condition.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenarios.hpp"
#include "exp/sinks.hpp"
#include "snap/warm_start.hpp"

namespace rtds {
namespace {

// Same golden constants as tests/determinism_test.cpp: recorded on the
// pre-rewrite core, reproduced ever since. Warm start must not move them.
constexpr std::uint64_t kE1CsvDigest = 5809446339941925635ull;
constexpr std::uint64_t kFig2ReportDigest = 11203551605208720222ull;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Empties the process-wide cache on both edges, so tests compose in any
/// order within the gtest process.
struct CacheClearGuard {
  CacheClearGuard() { snap::warm_start_clear(); }
  ~CacheClearGuard() { snap::warm_start_clear(); }
  CacheClearGuard(const CacheClearGuard&) = delete;
  CacheClearGuard& operator=(const CacheClearGuard&) = delete;
};

RunContext warm() {
  RunContext ctx;
  ctx.warm_start = true;
  return ctx;
}

std::string metrics_bytes(const RunMetrics& m) {
  std::ostringstream os;
  m.to_jsonl(os);
  return os.str();
}

// ----------------------------------------------- hit == cold, bitwise --

TEST(WarmStart, CacheHitIsByteIdenticalToColdBuild) {
  exp::ConditionSpec cs = exp::offload_regime();
  cs.sites = 25;
  cs.horizon = 300.0;
  const exp::Condition c = exp::make_condition(cs);
  SystemConfig cfg;
  const CacheClearGuard clear;
  const std::string cold = metrics_bytes(exp::run_rtds(c, cfg));

  cfg.context.warm_start = true;
  const std::size_t hits0 = snap::warm_start_hits();
  const std::size_t misses0 = snap::warm_start_misses();
  const std::string first = metrics_bytes(exp::run_rtds(c, cfg));
  const std::string second = metrics_bytes(exp::run_rtds(c, cfg));
  EXPECT_EQ(first, cold) << "the storing (miss) run diverged from cold";
  EXPECT_EQ(second, cold) << "the cache-hit run diverged from cold";
  EXPECT_GE(snap::warm_start_misses() - misses0, 1u)
      << "first build on an empty cache should miss";
  EXPECT_GE(snap::warm_start_hits() - hits0, 1u)
      << "second build of the same (topology, h) should hit";
}

// ------------------------------------- every registered sweep, reduced --

/// One grid point, one replicate: enough to exercise the cache on every
/// scenario's real trial function without paying full-sweep runtimes.
exp::ScenarioSpec reduced(const exp::ScenarioSpec& base) {
  exp::ScenarioSpec spec = base;
  for (exp::GridAxis& axis : spec.axes) axis.values.resize(1);
  return spec;
}

std::string csv_bytes(const exp::ScenarioSpec& spec,
                      const std::vector<exp::AggregateRow>& rows) {
  std::ostringstream os;
  exp::CsvSink{}.write(spec, rows, os);
  return os.str();
}

TEST(WarmStart, EveryRegisteredScenarioMatchesColdStart) {
  exp::register_builtin_scenarios();
  for (const std::string& name : exp::Registry::instance().scenario_names()) {
    const exp::ScenarioSpec* base = exp::Registry::instance().find(name);
    ASSERT_NE(base, nullptr);
    EXPECT_TRUE(base->warm_start)
        << name << " opted out of warm start; the rtds_exp --list column "
        << "and this suite must be updated together";
    const exp::ScenarioSpec spec = reduced(*base);
    exp::RunOptions opts;
    opts.replicates = 1;
    opts.context.duration = 120.0;  // keeps the duration-driven e9 short

    const CacheClearGuard clear;
    const auto cold = exp::run_scenario(spec, opts);

    opts.context.warm_start = true;
    const auto warm = exp::run_scenario(spec, opts);

    EXPECT_TRUE(exp::aggregates_identical(warm, cold))
        << name << ": warm-start aggregates diverged from cold start";
    EXPECT_EQ(csv_bytes(spec, warm), csv_bytes(spec, cold))
        << name << ": warm-start CSV bytes diverged from cold start";
  }
}

// --------------------------------------------- golden digests, warmed --

TEST(WarmStart, ReducedE1GoldenDigestReproduces) {
  exp::register_builtin_scenarios();
  const exp::ScenarioSpec* base =
      exp::Registry::instance().find("e1_message_bound");
  ASSERT_NE(base, nullptr);
  exp::ScenarioSpec spec = *base;
  spec.axes.at(0).values.resize(3);  // same reduction as determinism_test
  const CacheClearGuard clear;
  exp::RunOptions opts;
  opts.context = warm();
  const auto rows = exp::run_scenario(spec, opts);
  EXPECT_EQ(fnv1a(csv_bytes(spec, rows)), kE1CsvDigest);
}

TEST(WarmStart, Fig2ReportDigestReproduces) {
  exp::register_builtin_scenarios();
  const CacheClearGuard clear;
  std::ostringstream os;
  exp::run_report("fig2_table1", os, warm());
  EXPECT_EQ(fnv1a(os.str()), kFig2ReportDigest);
}

TEST(WarmStart, EveryRegisteredReportMatchesColdStart) {
  exp::register_builtin_scenarios();
  RunContext ctx;
  ctx.duration = 60.0;  // bounds e9_saturation
  for (const std::string& name : exp::Registry::instance().report_names()) {
    const CacheClearGuard clear;
    std::ostringstream cold_os;
    ctx.warm_start = false;
    exp::run_report(name, cold_os, ctx);
    std::ostringstream warm_os;
    ctx.warm_start = true;
    exp::run_report(name, warm_os, ctx);
    EXPECT_EQ(warm_os.str(), cold_os.str())
        << name << ": warm-start report bytes diverged from cold start";
  }
}

}  // namespace
}  // namespace rtds
