// src/exp/ subsystem tests: deterministic seed derivation, grid expansion,
// parallel == serial aggregate identity, trial reproducibility on a real
// RTDS scenario, and sink round-trips.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "exp/condition.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenarios.hpp"
#include "exp/seed.hpp"
#include "exp/sinks.hpp"
#include "policy/policy.hpp"
#include "util/error.hpp"

namespace rtds::exp {
namespace {

// ---------------------------------------------------------------- seed ----

TEST(TrialSeed, DeterministicAndDistinct) {
  EXPECT_EQ(trial_seed("e2", 3, 1), trial_seed("e2", 3, 1));
  std::set<std::uint64_t> seeds;
  for (std::size_t point = 0; point < 16; ++point)
    for (std::size_t rep = 0; rep < 16; ++rep)
      seeds.insert(trial_seed("e2_guarantee_ratio", point, rep));
  EXPECT_EQ(seeds.size(), 256u);  // no collisions across the grid
  EXPECT_NE(trial_seed("a", 0, 0), trial_seed("b", 0, 0));
}

TEST(TrialSeed, SpecSeedModes) {
  ScenarioSpec spec;
  spec.name = "seed_mode_probe";
  spec.seed_mode = SeedMode::kFixed;
  spec.fixed_seed = 99;
  EXPECT_EQ(spec.seed_for(5, 7), 99u);
  spec.seed_mode = SeedMode::kDerived;
  EXPECT_EQ(spec.seed_for(5, 7), trial_seed("seed_mode_probe", 5, 7));
  EXPECT_NE(spec.seed_for(5, 7), spec.seed_for(5, 8));
}

// ---------------------------------------------------------------- grid ----

ScenarioSpec synthetic_spec() {
  ScenarioSpec spec;
  spec.name = "synthetic";
  spec.axes = {GridAxis::numeric("a", "a", {1.0, 2.0, 3.0}, 0),
               GridAxis::labeled("b", "b", {"x", "y"})};
  spec.metrics = {MetricSpec{"m0", "m0", 3},
                  MetricSpec{"m1", "m1", 3}};
  spec.replicates = 4;
  // Pure function of (point, seed): exercises the runner, not the sim.
  spec.trial = [](const GridPoint& p, std::uint64_t seed,
                  const RunContext&) -> TrialResult {
    const double s = static_cast<double>(seed % 1000);
    return {p.value(0) * 10.0 + p.value(1) + s,
            p.value(0) - p.value(1) * 0.5 + s * 2.0};
  };
  return spec;
}

TEST(Grid, ExpansionCounts) {
  const ScenarioSpec spec = synthetic_spec();
  EXPECT_EQ(spec.grid_size(), 6u);       // 3 x 2
  EXPECT_EQ(spec.trial_count(), 24u);    // x 4 replicates

  // Row-major decode, first axis slowest.
  EXPECT_EQ(spec.grid_point(0).value(0), 1.0);
  EXPECT_EQ(spec.grid_point(0).label(1), "x");
  EXPECT_EQ(spec.grid_point(1).value(0), 1.0);
  EXPECT_EQ(spec.grid_point(1).label(1), "y");
  EXPECT_EQ(spec.grid_point(5).value(0), 3.0);
  EXPECT_EQ(spec.grid_point(5).label(1), "y");
  EXPECT_THROW(spec.grid_point(6), ContractViolation);

  // The runner visits every (point, replicate) exactly once.
  std::atomic<int> calls{0};
  ScenarioSpec counted = spec;
  auto inner = spec.trial;
  counted.trial = [&calls, inner](const GridPoint& p, std::uint64_t seed,
                                  const RunContext& ctx) {
    ++calls;
    return inner(p, seed, ctx);
  };
  const auto rows = run_scenario(counted, RunOptions{4, 0});
  EXPECT_EQ(calls.load(), 24);
  ASSERT_EQ(rows.size(), 6u);
  for (const auto& row : rows) {
    ASSERT_EQ(row.cells.size(), 2u);
    EXPECT_EQ(row.cells[0].stat.count(), 4u);
    EXPECT_EQ(row.cells[1].samples.count(), 4u);
  }
}

// -------------------------------------------------- parallel == serial ----

TEST(Runner, ParallelMatchesSerialSynthetic) {
  const ScenarioSpec spec = synthetic_spec();
  const auto serial = run_scenario(spec, RunOptions{1, 0});
  for (const std::size_t jobs : {2u, 4u, 16u}) {
    const auto parallel = run_scenario(spec, RunOptions{jobs, 0});
    EXPECT_TRUE(aggregates_identical(serial, parallel))
        << "jobs=" << jobs << " aggregates diverged from serial";
  }
}

/// A tiny but real scenario: full RTDS protocol runs on a 4x4 grid.
ScenarioSpec small_rtds_spec() {
  ScenarioSpec spec;
  spec.name = "small_rtds";
  spec.axes = {GridAxis::numeric("h", "h", {1.0, 2.0}, 0)};
  spec.metrics = {MetricSpec{"ratio", "ratio", 3},
                  MetricSpec{"msgs", "msgs", 1}};
  spec.replicates = 2;
  spec.trial = [](const GridPoint& p, std::uint64_t seed,
                  const RunContext&) -> TrialResult {
    ConditionSpec cs;
    cs.net = NetShape::kGrid;
    cs.sites = 16;
    cs.rate = 0.02;
    cs.horizon = 120.0;
    cs.laxity_min = 1.5;
    cs.laxity_max = 3.0;
    cs.delay_min = 0.2;
    cs.delay_max = 0.8;
    cs.seed = seed;
    const Condition c = make_condition(cs);
    SystemConfig cfg;
    cfg.node.sphere_radius_h = static_cast<std::size_t>(p.value(0));
    const RunMetrics m = run_rtds(c, cfg);
    return {m.guarantee_ratio(),
            m.msgs_per_job.count() ? m.msgs_per_job.mean() : 0.0};
  };
  return spec;
}

TEST(Runner, SameSeedBitIdenticalMetrics) {
  const ScenarioSpec spec = small_rtds_spec();
  const GridPoint point = spec.grid_point(1);
  const std::uint64_t seed = spec.seed_for(1, 0);
  const TrialResult a = spec.trial(point, seed, {});
  const TrialResult b = spec.trial(point, seed, {});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) EXPECT_EQ(a[m], b[m]);
  // A different replicate's seed changes the workload (and so the metrics).
  const TrialResult c = spec.trial(point, spec.seed_for(1, 1), {});
  EXPECT_NE(a[0], c[0]);
}

TEST(Runner, ParallelMatchesSerialRealSystem) {
  const ScenarioSpec spec = small_rtds_spec();
  const auto serial = run_scenario(spec, RunOptions{1, 0});
  const auto parallel = run_scenario(spec, RunOptions{8, 0});
  EXPECT_TRUE(aggregates_identical(serial, parallel));
  // And the run itself is reproducible end to end.
  const auto again = run_scenario(spec, RunOptions{8, 0});
  EXPECT_TRUE(aggregates_identical(parallel, again));
}

TEST(Runner, SkippedMetricsLeaveCountShort) {
  ScenarioSpec spec = synthetic_spec();
  spec.trial = [](const GridPoint& p, std::uint64_t,
                  const RunContext&) -> TrialResult {
    return {p.value(0), std::numeric_limits<double>::quiet_NaN()};
  };
  const auto rows = run_scenario(spec, RunOptions{2, 0});
  for (const auto& row : rows) {
    EXPECT_EQ(row.cells[0].stat.count(), 4u);
    EXPECT_EQ(row.cells[1].stat.count(), 0u);
  }
}

TEST(Runner, TrialExceptionsPropagate) {
  ScenarioSpec spec = synthetic_spec();
  spec.trial = [](const GridPoint& p, std::uint64_t,
                  const RunContext&) -> TrialResult {
    RTDS_REQUIRE_MSG(p.index != 3, "boom");
    return {0.0, 0.0};
  };
  EXPECT_THROW(run_scenario(spec, RunOptions{4, 0}), ContractViolation);
  EXPECT_THROW(run_scenario(spec, RunOptions{1, 0}), ContractViolation);
}

// The duration override changes what duration-aware trials compute, so a
// sweep journal written under one override must not resume under another
// (or under none).
TEST(Runner, JournalResumeRejectsADifferentDuration) {
  const ScenarioSpec spec = synthetic_spec();
  RunOptions opts;
  opts.journal_path = ::testing::TempDir() + "exp_test_duration_journal.bin";
  opts.context.duration = 40.0;
  const auto rows = run_scenario(spec, opts);
  opts.resume = true;
  EXPECT_TRUE(aggregates_identical(run_scenario(spec, opts), rows));
  opts.context.duration = 120.0;
  EXPECT_THROW(run_scenario(spec, opts), ContractViolation);
  opts.context.duration = 0.0;
  EXPECT_THROW(run_scenario(spec, opts), ContractViolation);
}

// --------------------------------------------------------------- sinks ----

void expect_records_match(const ScenarioSpec& spec,
                          const std::vector<AggregateRow>& rows,
                          const std::vector<SinkRecord>& records) {
  ASSERT_EQ(records.size(), rows.size() * spec.metrics.size());
  std::size_t r = 0;
  for (const auto& row : rows) {
    for (std::size_t m = 0; m < spec.metrics.size(); ++m, ++r) {
      const SinkRecord& rec = records[r];
      EXPECT_EQ(rec.scenario, spec.name);
      EXPECT_EQ(rec.point, row.point.index);
      ASSERT_EQ(rec.axes.size(), row.point.coords.size());
      for (std::size_t a = 0; a < rec.axes.size(); ++a)
        EXPECT_EQ(rec.axes[a], row.point.coords[a].label);
      EXPECT_EQ(rec.metric, spec.metrics[m].key);
      const AggregateCell& cell = row.cells[m];
      ASSERT_EQ(rec.count, cell.stat.count());
      if (rec.count == 0) continue;
      // %.17g round-trips doubles exactly: parse-back must be bit-equal.
      EXPECT_EQ(rec.mean, cell.stat.mean());
      EXPECT_EQ(rec.stddev, cell.stat.stddev());
      EXPECT_EQ(rec.min, cell.stat.min());
      EXPECT_EQ(rec.max, cell.stat.max());
      EXPECT_EQ(rec.p50, cell.samples.p50());
      EXPECT_EQ(rec.p95, cell.samples.p95());
      EXPECT_EQ(rec.p99, cell.samples.p99());
    }
  }
}

TEST(Sinks, CsvRoundTrip) {
  const ScenarioSpec spec = synthetic_spec();
  const auto rows = run_scenario(spec, RunOptions{4, 0});
  std::stringstream io;
  CsvSink().write(spec, rows, io);
  expect_records_match(spec, rows, parse_csv(io));
}

TEST(Sinks, JsonlRoundTrip) {
  const ScenarioSpec spec = synthetic_spec();
  const auto rows = run_scenario(spec, RunOptions{4, 0});
  std::stringstream io;
  JsonlSink().write(spec, rows, io);
  expect_records_match(spec, rows, parse_jsonl(io));
}

TEST(Sinks, JsonlEscapesAwkwardStrings) {
  // Backslash-terminated and quote-bearing names must survive the
  // write/parse round trip (the quote scanner skips escape pairs).
  ScenarioSpec spec = synthetic_spec();
  spec.name = "weird\\";
  spec.axes = {GridAxis::labeled("a", "a", {"x\"y", "tail\\"}),
               spec.axes[1]};
  const auto rows = run_scenario(spec, RunOptions{1, 0});
  std::stringstream io;
  JsonlSink().write(spec, rows, io);
  const auto records = parse_jsonl(io);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records[0].scenario, "weird\\");
  EXPECT_EQ(records[0].axes[0], "x\"y");
  EXPECT_EQ(records[0].count, rows[0].cells[0].stat.count());
  EXPECT_EQ(records[0].mean, rows[0].cells[0].stat.mean());
  const std::size_t tail_point = 2;  // second label of axis a, first of b
  const std::size_t tail_rec = tail_point * spec.metrics.size();
  EXPECT_EQ(records[tail_rec].axes[0], "tail\\");
}

TEST(Sinks, NanMetricsRenderAsMissing) {
  ScenarioSpec spec = synthetic_spec();
  spec.trial = [](const GridPoint& p, std::uint64_t,
                  const RunContext&) -> TrialResult {
    return {p.value(0), std::numeric_limits<double>::quiet_NaN()};
  };
  const auto rows = run_scenario(spec, RunOptions{1, 0});
  std::ostringstream table;
  TableSink().write(spec, rows, table);
  EXPECT_NE(table.str().find('-'), std::string::npos);
  std::stringstream csv;
  CsvSink().write(spec, rows, csv);
  const auto records = parse_csv(csv);
  for (std::size_t r = 1; r < records.size(); r += 2)
    EXPECT_EQ(records[r].count, 0u);
}

TEST(Sinks, MakeSinkNames) {
  EXPECT_NE(make_sink("table"), nullptr);
  EXPECT_NE(make_sink("csv"), nullptr);
  EXPECT_NE(make_sink("jsonl"), nullptr);
  EXPECT_THROW(make_sink("yaml"), ContractViolation);
}

// ------------------------------------------------------------ registry ----

TEST(Registry, BuiltinsRegisteredOnce) {
  register_builtin_scenarios();
  register_builtin_scenarios();  // idempotent
  auto& registry = Registry::instance();
  for (const char* name :
       {"e1_message_bound", "e2_guarantee_ratio", "e2_guarantee_ratio_parallel",
        "e3_sphere_radius", "e3_sphere_radius_offload", "e4_adjustment_cases",
        "e5_enroll_policy", "e5_enroll_gate", "e5_surplus_window",
        "e5_laxity_weighting", "e5_admission_policy", "e5_local_knowledge",
        "e5_transport", "e5_mapper_priority", "policy_sweep"})
    EXPECT_NE(registry.find(name), nullptr) << name;
  for (const char* name :
       {"fig1_protocol", "fig2_table1", "e4a_case_boundaries"})
    EXPECT_NE(registry.find_report(name), nullptr) << name;
  EXPECT_EQ(registry.find("nonexistent"), nullptr);

  // The legacy paper sweeps pin the shared seed the old benches used.
  EXPECT_EQ(registry.find("e2_guarantee_ratio")->seed_mode, SeedMode::kFixed);
  EXPECT_EQ(registry.find("e2_guarantee_ratio")->fixed_seed, 42u);
  EXPECT_EQ(registry.find("e1_message_bound")->grid_size(), 7u);
}

TEST(Registry, PolicySweepAxisCoversPolicyRegistry) {
  register_builtin_scenarios();
  const ScenarioSpec* sweep = Registry::instance().find("policy_sweep");
  ASSERT_NE(sweep, nullptr);
  ASSERT_FALSE(sweep->axes.empty());
  const auto names = policy::PolicyRegistry::instance().names();
  ASSERT_EQ(sweep->axes[0].values.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(sweep->axes[0].values[i].label, names[i]);
}

}  // namespace
}  // namespace rtds::exp
