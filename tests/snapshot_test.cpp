// Snapshot-equivalence suite (DESIGN.md §14).
//
// The claim the snap/ subsystem makes — "resuming from a checkpoint is
// bit-identical to never having stopped" — is only as good as these tests:
//  (a) property: over random event sequences under chaos faults (drops,
//      duplication, reordering, partitions, site crashes, retransmit on),
//      snapshot at a random event index, restore into a fresh system,
//      drain, and require the final RunMetrics JSONL and obs metrics JSONL
//      to be byte-identical to the uninterrupted run — across seeds and
//      transport models, including a second-generation snapshot taken
//      *after* a resume — and the invariant checker's derived repair-audit
//      state is rebuilt, not trusted, after a restore;
//  (b) recording parity: turning record_events on changes no output bytes;
//  (c) sweep journal: a journal-checkpointed sweep reproduces the plain
//      sweep's aggregates at --jobs 1/3/8, and resuming from a truncated
//      journal (the SIGKILL artifact) still lands bit-identical;
//  (d) negative: truncation at every section boundary, a bit flip in every
//      section body, wrong magic, future-version headers and config-hash
//      mismatches each throw ContractViolation naming the damage — never a
//      crash (the suite runs under ASan/UBSan in CI);
//  (e) the open-system extras (ArrivalSource positions, steady-state
//      collector) round-trip through the engine's checkpoint path.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/rtds_system.hpp"
#include "exp/condition.hpp"
#include "exp/runner.hpp"
#include "exp/scenarios.hpp"
#include "exp/sinks.hpp"
#include "fault/fault.hpp"
#include "fault/fault_params.hpp"
#include "fault/invariants.hpp"
#include "load/engine.hpp"
#include "load/source.hpp"
#include "obs/obs.hpp"
#include "policy/policy.hpp"
#include "policy/rtds_params.hpp"
#include "routing/routing_table.hpp"
#include "snap/io.hpp"
#include "snap/journal.hpp"
#include "snap/snapshot.hpp"
#include "util/error.hpp"

namespace rtds {
namespace {

using snap::Snapshot;
using snap::SnapshotExtras;

// ------------------------------------------------------------ fixtures --

/// Chaos parameters exercising every serialized subsystem: crashes and
/// partitions (FaultState + routing repair), drops with retransmit on
/// (retry slots, RTO RNG, dedup windows), duplication and reordering
/// (recv windows), plus the invariant checker riding along.
std::vector<std::string> chaos_params(std::uint64_t seed,
                                      const std::string& transport) {
  std::vector<std::string> p = {
      "faults.site_rate=0.004",     "faults.site_mttr=8",
      "faults.drop=0.03",           "faults.dup=0.08",
      "faults.reorder=0.15",        "faults.reorder_delay=0.8",
      "faults.partition_rate=0.02", "faults.partition_mttr=6",
      "faults.retransmit=true",     "check_invariants=true",
      "faults.seed=" + std::to_string(seed)};
  if (transport == "contended") {
    p.push_back("transport=contended");
    p.push_back("bandwidth=60");
    p.push_back("overhead_slack=1");
  }
  return p;
}

struct ChaosCase {
  exp::Condition condition;
  SystemConfig cfg;
};

ChaosCase make_chaos_case(std::uint64_t seed, const std::string& transport) {
  exp::ConditionSpec cs;
  cs.sites = 25;
  cs.rate = 0.05;
  cs.horizon = 120.0;
  cs.seed = seed;
  ChaosCase cc;
  cc.condition = exp::make_condition(cs);
  const auto policy = policy::PolicyRegistry::instance().create("rtds");
  const policy::ParamMap params =
      policy->parse_params(chaos_params(seed, transport));
  cc.cfg = policy::rtds_system_config_from(params);
  cc.cfg.faults = fault::FaultPlan::from_spec(
      fault::fault_spec_from(params,
                             fault::fault_horizon(cc.condition.arrivals)),
      cc.condition.topo);
  cc.cfg.record_events = true;
  return cc;
}

std::string metrics_bytes(const RunMetrics& m) {
  std::ostringstream os;
  m.to_jsonl(os);
  return os.str();
}

std::string obs_bytes(const obs::MetricsBuffer& b) {
  std::ostringstream os;
  b.write_jsonl(os);
  return os.str();
}

void drain(RtdsSystem& sys) {
  while (sys.step_events(4096) > 0) {
  }
  sys.finish();
}

/// The uninterrupted reference: start, drain, finish — under an obs scope
/// so the run also produces the metrics-JSONL determinism surface.
struct RunOutput {
  std::string metrics;
  std::string obs;
};

RunOutput run_uninterrupted(const ChaosCase& cc) {
  obs::MetricsBuffer buf;
  RtdsSystem sys(cc.condition.topo, cc.cfg);
  {
    obs::Scope scope(&buf);
    sys.start(cc.condition.arrivals);
    drain(sys);
  }
  return {metrics_bytes(sys.metrics()), obs_bytes(buf)};
}

/// Snapshot after `cut` events, restore into a fresh system, drain there.
/// With `second_generation`, snapshot the *resumed* system again after a
/// few more events and finish in a third system — a resumed run must stay
/// checkpointable.
RunOutput run_interrupted(const ChaosCase& cc, std::size_t cut,
                          bool second_generation = false) {
  obs::MetricsBuffer buf1;
  std::string snapshot;
  {
    RtdsSystem sys(cc.condition.topo, cc.cfg);
    obs::Scope scope(&buf1);
    sys.start(cc.condition.arrivals);
    sys.step_events(cut);
    SnapshotExtras extras;
    extras.metrics = &buf1;
    snapshot = Snapshot::save(sys, extras);
    // sys is abandoned mid-run — the crash this simulates.
  }
  obs::MetricsBuffer buf2;
  RtdsSystem resumed(cc.condition.topo, cc.cfg);
  SnapshotExtras extras2;
  extras2.metrics = &buf2;
  Snapshot::load(std::move(snapshot), resumed, extras2);
  {
    obs::Scope scope(&buf2);
    if (second_generation) {
      resumed.step_events(cut / 2 + 1);
      SnapshotExtras extras3;
      extras3.metrics = &buf2;
      std::string again = Snapshot::save(resumed, extras3);
      obs::MetricsBuffer buf3;
      RtdsSystem third(cc.condition.topo, cc.cfg);
      SnapshotExtras extras4;
      extras4.metrics = &buf3;
      Snapshot::load(std::move(again), third, extras4);
      {
        obs::Scope inner(&buf3);
        drain(third);
      }
      return {metrics_bytes(third.metrics()), obs_bytes(buf3)};
    }
    drain(resumed);
  }
  return {metrics_bytes(resumed.metrics()), obs_bytes(buf2)};
}

// ------------------------------------------------- (a) resume property --

class SnapshotProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, const char*>> {
};

TEST_P(SnapshotProperty, ResumeEqualsUninterrupted) {
  const auto [seed, transport] = GetParam();
  const ChaosCase cc = make_chaos_case(seed, transport);
  const RunOutput reference = run_uninterrupted(cc);
  // Random-but-seeded cut points, spread from "almost immediately" into
  // the bulk of the run; one deep cut exercises a nearly drained queue.
  std::uint64_t x = seed * 2654435761u + 12345u;
  for (int i = 0; i < 4; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::size_t cut = 1 + static_cast<std::size_t>(x % 4000);
    const RunOutput out = run_interrupted(cc, cut);
    EXPECT_EQ(out.metrics, reference.metrics)
        << "RunMetrics diverged after resume at event " << cut;
    EXPECT_EQ(out.obs, reference.obs)
        << "obs metrics JSONL diverged after resume at event " << cut;
  }
  const RunOutput chained = run_interrupted(cc, 600, /*second_generation=*/true);
  EXPECT_EQ(chained.metrics, reference.metrics)
      << "second-generation snapshot (resume, then snapshot again) diverged";
  EXPECT_EQ(chained.obs, reference.obs);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndTransports, SnapshotProperty,
    ::testing::Values(std::make_tuple(std::uint64_t{1}, "ideal"),
                      std::make_tuple(std::uint64_t{2}, "ideal"),
                      std::make_tuple(std::uint64_t{3}, "contended"),
                      std::make_tuple(std::uint64_t{7}, "contended")));

// The invariant checker's repair-audit shadow (its copy of the tables as
// of its last audit) is derived state: not in the snapshot, dropped on
// restore. A table corrupted after a resume must be reported by the next
// repair audit exactly as a fresh checker reports it.
TEST(SnapshotResume, NextRepairAuditReportsCorruptionAfterResume) {
  const ChaosCase cc = make_chaos_case(2, "ideal");
  const Topology& topo = cc.condition.topo;
  RtdsSystem sys(topo, cc.cfg);
  sys.start(cc.condition.arrivals);
  sys.step_events(1500);
  RtdsSystem resumed(topo, cc.cfg);
  Snapshot::load(Snapshot::save(sys), resumed);
  ASSERT_NE(resumed.checker(), nullptr);
  fault::InvariantChecker& chk = *resumed.checker();
  const fault::FaultState& faults = *resumed.fault_state();
  const std::uint64_t before = chk.violations();

  // Corrupt one multi-hop line over a live link: a distance below the
  // next hop's lower bound.
  std::vector<RoutingTable> tables = resumed.routing_tables();
  bool corrupted = false;
  for (SiteId s = 0; s < tables.size() && !corrupted; ++s) {
    for (std::size_t slot = 0; slot < tables[s].slot_count(); ++slot) {
      RouteLine line = tables[s].line_at(slot);
      const SiteId dest = tables[s].dest_at(slot);
      if (line.dist >= kInfiniteTime || dest == s || line.next_hop == dest ||
          !faults.link_up(s, line.next_hop))
        continue;
      line.dist -= 0.5;
      tables[s].set_line(dest, line);
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  chk.on_repair(tables, topo, faults, 1.0);
  fault::InvariantChecker fresh;
  fresh.on_repair(tables, topo, faults, 1.0);
  EXPECT_GT(fresh.violations(), 0u);
  EXPECT_EQ(chk.violations() - before, fresh.violations());
}

// ---------------------------------------------- (b) recording parity --

TEST(SnapshotRecording, RecordingChangesNoOutputBytes) {
  ChaosCase cc = make_chaos_case(5, "ideal");
  const RunOutput recorded = run_uninterrupted(cc);
  cc.cfg.record_events = false;
  const RunOutput plain = run_uninterrupted(cc);
  EXPECT_EQ(recorded.metrics, plain.metrics)
      << "record_events must be a pure side channel";
  EXPECT_EQ(recorded.obs, plain.obs);
}

TEST(SnapshotRecording, SaveWithoutRecordingThrows) {
  ChaosCase cc = make_chaos_case(5, "ideal");
  cc.cfg.record_events = false;
  RtdsSystem sys(cc.condition.topo, cc.cfg);
  sys.start(cc.condition.arrivals);
  EXPECT_THROW(Snapshot::save(sys), ContractViolation);
}

// ------------------------------------------------ (c) sweep journal --

/// E1 restricted to its smallest network so the journal matrix stays fast.
exp::ScenarioSpec tiny_e1() {
  exp::register_builtin_scenarios();
  const exp::ScenarioSpec* base =
      exp::Registry::instance().find("e1_message_bound");
  RTDS_REQUIRE_MSG(base != nullptr, "e1_message_bound is not registered");
  exp::ScenarioSpec spec = *base;
  spec.axes.at(0).values.resize(2);
  return spec;
}

std::string sweep_csv(const exp::ScenarioSpec& spec,
                      const std::vector<exp::AggregateRow>& rows) {
  std::ostringstream os;
  exp::CsvSink{}.write(spec, rows, os);
  return os.str();
}

TEST(SweepJournal, CheckpointedSweepMatchesPlainSweepAcrossWorkerCounts) {
  const exp::ScenarioSpec spec = tiny_e1();
  const auto reference = exp::run_scenario(spec, {});
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3},
                                 std::size_t{8}}) {
    const std::string path = ::testing::TempDir() + "snapshot_test_journal_" +
                             std::to_string(jobs) + ".bin";
    exp::RunOptions opts;
    opts.jobs = jobs;
    opts.journal_path = path;
    const auto rows = exp::run_scenario(spec, opts);
    EXPECT_TRUE(exp::aggregates_identical(rows, reference))
        << "journaled sweep diverged at jobs=" << jobs;

    // Crash recovery: chop the journal mid-file (the SIGKILL artifact —
    // a truncated tail section) and resume; the aggregates and the CSV
    // bytes must come out as if nothing happened.
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), {});
    in.close();
    ASSERT_GT(bytes.size(), 64u);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
    out.close();
    exp::RunOptions resume_opts;
    resume_opts.jobs = jobs;
    resume_opts.journal_path = path;
    resume_opts.resume = true;
    const auto resumed = exp::run_scenario(spec, resume_opts);
    EXPECT_TRUE(exp::aggregates_identical(resumed, reference))
        << "resume from a truncated journal diverged at jobs=" << jobs;
    EXPECT_EQ(sweep_csv(spec, resumed), sweep_csv(spec, reference));
  }
}

TEST(SweepJournal, ResumeRejectsForeignJournal) {
  const exp::ScenarioSpec spec = tiny_e1();
  const std::string path =
      ::testing::TempDir() + "snapshot_test_foreign_journal.bin";
  // A journal written for a different sweep shape (2 replicates).
  exp::RunOptions opts;
  opts.replicates = 2;
  opts.journal_path = path;
  exp::run_scenario(spec, opts);
  exp::RunOptions resume_opts;
  resume_opts.replicates = 1;
  resume_opts.journal_path = path;
  resume_opts.resume = true;
  EXPECT_THROW(exp::run_scenario(spec, resume_opts), ContractViolation);
}

TEST(SweepJournal, ResumeMissingFileThrows) {
  const exp::ScenarioSpec spec = tiny_e1();
  exp::RunOptions opts;
  opts.journal_path = ::testing::TempDir() + "snapshot_test_never_written.bin";
  opts.resume = true;
  EXPECT_THROW(exp::run_scenario(spec, opts), ContractViolation);
}

// ---------------------------------------------------- (d) negative --

std::string valid_snapshot(const ChaosCase& cc) {
  RtdsSystem sys(cc.condition.topo, cc.cfg);
  sys.start(cc.condition.arrivals);
  sys.step_events(400);
  return Snapshot::save(sys);
}

void expect_load_violation(const ChaosCase& cc, std::string bytes,
                           const char* what) {
  RtdsSystem fresh(cc.condition.topo, cc.cfg);
  try {
    Snapshot::load(std::move(bytes), fresh);
    FAIL() << "corrupt snapshot accepted: " << what;
  } catch (const ContractViolation& e) {
    // Decode failures must say where they happened: every io.hpp error
    // names the surface ("snapshot"), and body damage names its section.
    EXPECT_NE(std::string(e.what()).find("snapshot"), std::string::npos)
        << what << " produced an unlocated error: " << e.what();
  }
}

TEST(SnapshotNegative, TruncationAtEveryPrefixLengthThrows) {
  const ChaosCase cc = make_chaos_case(11, "ideal");
  const std::string good = valid_snapshot(cc);
  // Every header prefix, then section-spanning strides through the body.
  for (std::size_t len = 0; len < 32; ++len)
    expect_load_violation(cc, good.substr(0, len), "header truncation");
  for (std::size_t len = 32; len < good.size();
       len += good.size() / 97 + 1)
    expect_load_violation(cc, good.substr(0, len), "body truncation");
}

TEST(SnapshotNegative, BitFlipsThroughEverySectionThrow) {
  const ChaosCase cc = make_chaos_case(11, "ideal");
  const std::string good = valid_snapshot(cc);
  // A flip every ~1/61 of the file walks every section (headers and
  // bodies both); checksums catch body damage, structural validation the
  // rest. Flips may NOT legally round-trip: either load throws, or — for
  // a flip in a section-length field that still parses — the reader must
  // still fault on the mangled layout.
  for (std::size_t pos = 21; pos < good.size();
       pos += good.size() / 61 + 1) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    expect_load_violation(cc, std::move(bad), "bit flip");
  }
}

TEST(SnapshotNegative, WrongMagicThrows) {
  const ChaosCase cc = make_chaos_case(11, "ideal");
  std::string bad = valid_snapshot(cc);
  bad[0] = 'X';
  expect_load_violation(cc, std::move(bad), "wrong magic");
}

TEST(SnapshotNegative, FutureVersionThrows) {
  const ChaosCase cc = make_chaos_case(11, "ideal");
  std::string bad = valid_snapshot(cc);
  bad[8] = static_cast<char>(snap::kFormatVersion + 1);  // little-endian u32
  expect_load_violation(cc, std::move(bad), "future version");
}

TEST(SnapshotNegative, ConfigHashMismatchThrows) {
  const ChaosCase cc = make_chaos_case(11, "ideal");
  const std::string good = valid_snapshot(cc);
  // Same bytes, different target config: the header hash must reject it
  // before any section is believed.
  ChaosCase other = make_chaos_case(11, "ideal");
  other.cfg.node.sphere_radius_h += 1;
  RtdsSystem fresh(other.condition.topo, other.cfg);
  EXPECT_THROW(Snapshot::load(good, fresh), ContractViolation);
}

TEST(SnapshotNegative, ExtrasPresenceMismatchThrows) {
  const ChaosCase cc = make_chaos_case(11, "ideal");
  const std::string good = valid_snapshot(cc);  // saved WITHOUT extras
  RtdsSystem fresh(cc.condition.topo, cc.cfg);
  obs::MetricsBuffer buf;
  SnapshotExtras extras;
  extras.metrics = &buf;
  EXPECT_THROW(Snapshot::load(good, fresh, extras), ContractViolation);
}

TEST(SnapshotNegative, LoadIntoUsedSystemThrows) {
  const ChaosCase cc = make_chaos_case(11, "ideal");
  const std::string good = valid_snapshot(cc);
  RtdsSystem used(cc.condition.topo, cc.cfg);
  used.start(cc.condition.arrivals);
  drain(used);
  EXPECT_THROW(Snapshot::load(good, used), ContractViolation);
}

// --------------------------------------- (e) open-system checkpointing --

TEST(OpenCheckpoint, EngineResumeMatchesUninterruptedRun) {
  exp::ConditionSpec cs;
  cs.sites = 16;
  cs.rate = 0.05;
  cs.seed = 9;
  const Topology topo = exp::make_topology(cs);
  const auto policy = policy::PolicyRegistry::instance().create("rtds");
  const policy::ParamMap params = policy->parse_params(
      {"faults.drop=0.01", "faults.retransmit=true", "faults.seed=9"});

  load::ArrivalSpec aspec;
  aspec.kind = load::ArrivalKind::kBursty;
  aspec.site_count = topo.site_count();
  aspec.workload = exp::workload_config(cs);

  load::OpenConfig ocfg;
  ocfg.duration = 150.0;
  ocfg.window.warmup = 20.0;
  ocfg.window.width = 10.0;

  const auto reference_source = load::make_arrival_source(aspec);
  const auto reference = load::run_open_rtds(topo, *reference_source, ocfg,
                                             params);

  // Checkpoint every few thousand events to exercise repeated saves, then
  // run again resuming from the last checkpoint file mid-run: drive the
  // first half manually so a checkpoint exists, then hand the *same* path
  // to a resume run with a fresh source (its position is in the file).
  const std::string path =
      ::testing::TempDir() + "snapshot_test_open_checkpoint.bin";
  load::OpenConfig ckpt = ocfg;
  ckpt.checkpoint_path = path;
  ckpt.checkpoint_every = 500;
  {
    const auto source = load::make_arrival_source(aspec);
    const auto full = load::run_open_rtds(topo, *source, ckpt, params);
    ASSERT_EQ(metrics_bytes(full.metrics), metrics_bytes(reference.metrics))
        << "checkpointing changed the run itself";
  }
  load::OpenConfig resume = ckpt;
  resume.resume = true;
  const auto fresh_source = load::make_arrival_source(aspec);
  const auto resumed = load::run_open_rtds(topo, *fresh_source, resume,
                                           params);
  EXPECT_EQ(metrics_bytes(resumed.metrics), metrics_bytes(reference.metrics))
      << "resume from the last checkpoint diverged";
  EXPECT_EQ(resumed.steady.completed, reference.steady.completed);
  EXPECT_EQ(resumed.steady.p99, reference.steady.p99);
  EXPECT_EQ(resumed.windows.size(), reference.windows.size());
}

}  // namespace
}  // namespace rtds
