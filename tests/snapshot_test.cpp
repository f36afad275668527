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
//  (b) any cut: a run never told it would be checkpointed is saved every
//      97th event, and every save resumes to the uninterrupted bytes; a
//      pending closure is refused;
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

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
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

// ------------------------------------------------ (b) any cut, any run --

// A run that was never told it would be checkpointed can be saved at any
// event boundary: one pass saves every 97th event, and each save resumed
// in a fresh system finishes byte-identical to the uninterrupted run.
TEST(SnapshotAnyCut, EverySaveResumesToTheUninterruptedRun) {
  for (const char* transport : {"ideal", "contended"}) {
    SCOPED_TRACE(transport);
    const ChaosCase cc = make_chaos_case(4, transport);
    const RunOutput reference = run_uninterrupted(cc);
    std::vector<std::string> saves;
    {
      obs::MetricsBuffer buf;
      RtdsSystem sys(cc.condition.topo, cc.cfg);
      obs::Scope scope(&buf);
      sys.start(cc.condition.arrivals);
      SnapshotExtras extras;
      extras.metrics = &buf;
      while (sys.step_events(97) == 97)
        saves.push_back(Snapshot::save(sys, extras));
    }
    ASSERT_GT(saves.size(), 10u);
    for (std::size_t i = 0; i < saves.size(); ++i) {
      obs::MetricsBuffer buf;
      RtdsSystem resumed(cc.condition.topo, cc.cfg);
      SnapshotExtras extras;
      extras.metrics = &buf;
      Snapshot::load(std::move(saves[i]), resumed, extras);
      {
        obs::Scope scope(&buf);
        drain(resumed);
      }
      EXPECT_EQ(metrics_bytes(resumed.metrics()), reference.metrics)
          << "RunMetrics diverged after resume at event " << 97 * (i + 1);
      EXPECT_EQ(obs_bytes(buf), reference.obs)
          << "obs metrics JSONL diverged after resume at event " << 97 * (i + 1);
    }
  }
}

// Only typed events can be saved: a closure scheduled straight on the
// system's simulator makes save throw, naming the closure's time and seq.
TEST(SnapshotAnyCut, PendingClosureIsRefused) {
  const ChaosCase cc = make_chaos_case(5, "ideal");
  RtdsSystem sys(cc.condition.topo, cc.cfg);
  sys.start(cc.condition.arrivals);
  sys.step_events(50);
  Simulator& sim = sys.simulator();
  const Time at = sim.now() + 1.0;
  const std::uint64_t seq = sim.next_seq();
  sim.schedule_at(at, [] {});
  std::ostringstream where;
  where << "seq " << seq << " at t=" << at;
  try {
    Snapshot::save(sys);
    ADD_FAILURE() << "a pending closure was saved";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(where.str()), std::string::npos)
        << e.what();
  }
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

std::uint64_t read_u64(const std::string& bytes, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(bytes[off + i]);
  return v;
}

/// One section of a serialized container, located by name.
struct SectionSpan {
  std::string name;
  std::size_t body = 0;    ///< offset of the first body byte
  std::size_t size = 0;    ///< body length
};

/// Walks the container layout of snap/io.hpp: 20-byte header, then
/// (u8 name length, name, u64 body length, u64 checksum, body) sections.
std::vector<SectionSpan> sections_of(const std::string& bytes) {
  std::vector<SectionSpan> out;
  std::size_t pos = 8 + 4 + 8;
  while (pos < bytes.size() && bytes[pos] != '\0') {
    SectionSpan s;
    const auto len = static_cast<unsigned char>(bytes[pos]);
    s.name = bytes.substr(pos + 1, len);
    s.size = static_cast<std::size_t>(read_u64(bytes, pos + 1 + len));
    s.body = pos + 1 + len + 16;
    out.push_back(s);
    pos = s.body + s.size;
  }
  return out;
}

const SectionSpan& section_named(const std::vector<SectionSpan>& all,
                                 const std::string& name) {
  for (const SectionSpan& s : all)
    if (s.name == name) return s;
  throw std::runtime_error("no section " + name);
}

void write_u64(std::string& bytes, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    bytes[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

/// Recomputes a section's checksum after its body was patched, so the
/// damage reaches the field decoder instead of the checksum guard.
void reseal(std::string& bytes, const SectionSpan& s) {
  write_u64(bytes, s.body - 8,
            snap::section_checksum(bytes.data() + s.body, s.size));
}

// A count field whose section checksum is consistent but whose value is
// huge must fail as a located ContractViolation before anything is
// allocated — never as std::bad_alloc (or an ASan allocation abort).
TEST(SnapshotNegative, OversizedCountWithValidChecksumThrows) {
  const ChaosCase cc = make_chaos_case(11, "ideal");
  const std::string good = valid_snapshot(cc);
  const auto all = sections_of(good);
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;

  // checker: presence flag, f64 last event time, u64 submitted, u64
  // violations, then the decided-set count.
  {
    const SectionSpan& s = section_named(all, "checker");
    ASSERT_EQ(good[s.body], 1);
    std::string bad = good;
    write_u64(bad, s.body + 25, kHuge);
    reseal(bad, s);
    expect_load_violation(cc, std::move(bad), "oversized decided count");
  }
  // nodes: node count, then node 0's alive/epoch/lock_seq/lease/
  // start_pending, its optional lock and endorsement, then its queue count.
  {
    const SectionSpan& s = section_named(all, "nodes");
    std::size_t off = s.body + 8 + 1 + 8 + 8 + 8 + 1;
    if (good[off] != 0) off += 4 + 8;
    ++off;
    ASSERT_EQ(good[off], 0) << "node 0 holds an endorsement at this cut";
    ++off;
    std::string bad = good;
    write_u64(bad, off, kHuge);
    reseal(bad, s);
    expect_load_violation(cc, std::move(bad), "oversized queue count");
  }
  // system: RunMetrics (13 counters, two keyed count maps, four
  // RunningStats, MessageStats, three counters), then the decision count.
  {
    const SectionSpan& s = section_named(all, "system");
    std::size_t off = s.body + 13 * 8;
    for (int map = 0; map < 2; ++map) off += 8 + 16 * read_u64(good, off);
    off += 4 * 48;
    off += 8 + 20 * read_u64(good, off) + 4 * 8;
    off += 3 * 8;
    ASSERT_GT(read_u64(good, off), 0u);
    std::string bad = good;
    write_u64(bad, off, kHuge);
    reseal(bad, s);
    expect_load_violation(cc, std::move(bad), "oversized decision count");
  }
}

void write_u32(std::string& bytes, std::size_t off, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    bytes[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

// A generated source's saved heap names the site of each pending arrival,
// which indexes its per-site arrays on load: a site outside the spec must
// fail as a located ContractViolation, never index past them.
TEST(SnapshotNegative, PendingArrivalForUnknownSiteThrows) {
  load::ArrivalSpec spec;
  spec.site_count = 2;
  spec.workload.seed = 3;
  snap::Writer w(snap::kFormatVersion, 0);
  w.begin_section("source");
  load::make_arrival_source(spec)->save_state(w);
  w.end_section();
  const std::string good = w.finish();
  const auto all = sections_of(good);
  const SectionSpan& s = section_named(all, "source");
  // The streams' RNG words and phase state come first; the heap follows
  // as its size (2) and, per entry, the u32 site twice (heap slot, then
  // the arrival's own), then the job.
  std::size_t off = s.body + 16;
  const auto is_heap_head = [&](std::size_t at) {
    if (read_u64(good, at) != 2) return false;
    const std::uint64_t sites = read_u64(good, at + 8);
    return sites == 0 || sites == ((std::uint64_t{1} << 32) | 1);
  };
  while (off + 16 <= s.body + s.size && !is_heap_head(off)) ++off;
  ASSERT_LE(off + 16, s.body + s.size) << "heap not found in the section";
  std::string bad = good;
  write_u32(bad, off + 8, 7);
  reseal(bad, s);
  snap::Reader r(std::move(bad));
  r.expect_section("source");
  const auto fresh = load::make_arrival_source(spec);
  try {
    fresh->load_state(r);
    ADD_FAILURE() << "a pending arrival for site 7 of 2 loaded";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("site outside this spec"),
              std::string::npos)
        << e.what();
  }
}

/// Steps the chaos fixture until the next event to fire is `E` (and
/// passes `want`), then saves: the "events" section then opens with that
/// event's flat record — u64 count, f64 time, u8 kind, u8 small, then the
/// u32 site, peer and dest slots at body offsets 18, 22 and 26.
template <class E, class Pred>
std::string snapshot_before(const ChaosCase& cc, Pred want) {
  RtdsSystem sys(cc.condition.topo, cc.cfg);
  sys.start(cc.condition.arrivals);
  for (;;) {
    const auto pending = sys.simulator().pending_events();
    RTDS_REQUIRE_MSG(!pending.empty(), "the run never reached the event");
    const E* next = std::get_if<E>(pending.front().event);
    if (next != nullptr && want(*next)) return Snapshot::save(sys);
    sys.step_events(1);
  }
}
template <class E>
std::string snapshot_before(const ChaosCase& cc) {
  return snapshot_before<E>(cc, [](const E&) { return true; });
}

/// `good` with the events section's byte `off` (a u8) or u32 at `off`
/// overwritten and the section resealed.
std::string patched_event(const std::string& good, std::size_t off,
                          std::uint32_t v, bool byte = false) {
  const SectionSpan s = section_named(sections_of(good), "events");
  std::string bad = good;
  if (byte) bad[s.body + off] = static_cast<char>(v);
  else write_u32(bad, s.body + off, v);
  reseal(bad, s);
  return bad;
}

// Every site id a loaded event reads indexes per-site state when it
// fires: one outside the topology must fail as a located
// ContractViolation at load, never reach the transport or the fault view.
TEST(SnapshotNegative, PendingDeliveryForUnknownSiteThrows) {
  const ChaosCase cc = make_chaos_case(11, "ideal");
  const std::string good = snapshot_before<ev::Deliver>(cc);
  expect_load_violation(cc, patched_event(good, 22, 7000),
                        "delivery to site 7000");
  expect_load_violation(cc, patched_event(good, 18, 7000),
                        "delivery from site 7000");
}

TEST(SnapshotNegative, PendingHopPastTheTopologyThrows) {
  const ChaosCase cc = make_chaos_case(11, "contended");
  const std::string good = snapshot_before<ev::ContendedHop>(cc);
  expect_load_violation(cc, patched_event(good, 26, 7000),
                        "hop toward site 7000");
  expect_load_violation(cc, patched_event(good, 22, 7000),
                        "hop reaching site 7000");
}

TEST(SnapshotNegative, PendingFaultForUnknownSiteThrows) {
  const ChaosCase cc = make_chaos_case(11, "ideal");
  const std::string good =
      snapshot_before<ev::Fault>(cc, [](const ev::Fault& f) {
        return f.fault.kind == fault::FaultKind::kSiteDown;
      });
  expect_load_violation(cc, patched_event(good, 18, 7000),
                        "crash of site 7000");
  expect_load_violation(
      cc, patched_event(good, 17, 6, /*byte=*/true), "unknown fault kind");
  // A link event needs a link the topology has.
  expect_load_violation(
      cc,
      patched_event(patched_event(good, 17,
                                  static_cast<std::uint32_t>(
                                      fault::FaultKind::kLinkDown),
                                  /*byte=*/true),
                    22, 7000),
      "link to site 7000");
}

// A contended transport's busy table may only name directed links of the
// topology: an entry between two sites that share no link (or a site past
// the topology) must fail as a located ContractViolation, never index out
// of the per-link table. A negative busy-until is no time a run can reach
// (and would read as "never crossed" once loaded), so it fails too.
TEST(SnapshotNegative, BadBusyEntryThrows) {
  const ChaosCase cc = make_chaos_case(11, "contended");
  const Topology& topo = cc.condition.topo;
  const std::string good = valid_snapshot(cc);
  const auto all = sections_of(good);
  const SectionSpan& s = section_named(all, "transport");
  // transport: model byte, MessageStats (category count, 20-byte
  // categories, four counters), max queueing delay, then the busy-entry
  // count and (u32 from, u32 to, f64 busy-until) entries.
  std::size_t off = s.body + 1;
  off += 8 + 20 * read_u64(good, off) + 4 * 8;
  off += 8;
  ASSERT_GT(read_u64(good, off), 0u) << "no link has carried a message yet";
  off += 8;
  const auto from = static_cast<SiteId>(read_u64(good, off) & 0xffffffffu);
  ASSERT_LT(from, topo.site_count());
  SiteId stranger = 0;
  while (stranger == from || topo.adjacent(from, stranger)) ++stranger;
  ASSERT_LT(stranger, topo.site_count());
  {
    std::string bad = good;
    write_u32(bad, off + 4, stranger);
    reseal(bad, s);
    expect_load_violation(cc, std::move(bad), "non-adjacent busy entry");
  }
  {
    std::string bad = good;
    write_u32(bad, off, static_cast<std::uint32_t>(topo.site_count()));
    reseal(bad, s);
    expect_load_violation(cc, std::move(bad), "busy entry past the topology");
  }
  {
    std::string bad = good;
    const double before_zero = -1.0;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &before_zero, sizeof(bits));
    write_u64(bad, off + 8, bits);
    reseal(bad, s);
    expect_load_violation(cc, std::move(bad), "negative busy-until");
  }
}

// ------------------------------------------------ format stability --

/// Runs the chaos fixture for `events` events under an obs scope and
/// saves it with the metrics buffer as an extra.
std::string snapshot_with_metrics(const ChaosCase& cc, std::size_t events) {
  obs::MetricsBuffer buf;
  RtdsSystem sys(cc.condition.topo, cc.cfg);
  {
    obs::Scope scope(&buf);
    sys.start(cc.condition.arrivals);
    sys.step_events(events);
  }
  SnapshotExtras extras;
  extras.metrics = &buf;
  return Snapshot::save(sys, extras);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), {});
}

/// A serialized obs::MetricsBuffer starting at `pos`, its entries sorted.
/// Entries travel in the process's metric-interning order, which depends
/// on what ran earlier in the same process; every other byte is pinned.
/// With `mask_apsp`, every `apsp.*` entry is dropped (and the entry count
/// rewritten to match), so the digest covers everything but the routing
/// engine's own work counters.
std::string canonical_metrics(const std::string& bytes, std::size_t& pos,
                              bool mask_apsp) {
  const std::uint64_t n = read_u64(bytes, pos);
  pos += 8;
  std::vector<std::string> entries;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::size_t start = pos;
    pos += 8 + read_u64(bytes, pos);  // name
    pos += 1 + 4 * 8;                 // kind, count, sum, min, max
    if (bytes[pos++] != 0) pos += 65 * 8;  // log2 bins
    std::string entry = bytes.substr(start, pos - start);
    if (mask_apsp && entry.compare(8, 5, "apsp.") == 0) continue;
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end());
  std::string out;
  for (std::uint64_t kept = entries.size(), i = 0; i < 8; ++i, kept >>= 8)
    out += static_cast<char>(kept & 0xff);
  for (const std::string& e : entries) out += e;
  return out;
}

/// FNV-1a over the container header plus every section's name and body,
/// with each embedded metrics buffer in canonical entry order (minus its
/// `apsp.*` entries with `mask_apsp`). Section lengths and checksums are
/// functions of the bodies.
std::uint64_t digest(const std::string& bytes, bool mask_apsp = false) {
  std::string flat = bytes.substr(0, 8 + 4 + 8);
  for (const SectionSpan& s : sections_of(bytes)) {
    std::string body = bytes.substr(s.body, s.size);
    std::size_t metrics_at = std::string::npos;
    if (s.name == "obs" && body[0] != 0) metrics_at = 1;
    if (s.name == "trial") {
      const std::size_t flag = 16 + 8 * read_u64(body, 8);
      if (body[flag] != 0) metrics_at = flag + 1;
    }
    if (metrics_at != std::string::npos) {
      std::size_t pos = metrics_at;
      const std::string canonical = canonical_metrics(body, pos, mask_apsp);
      body = body.substr(0, metrics_at) + canonical + body.substr(pos);
    }
    flat += s.name + body;
  }
  return snap::fnv1a(flat.data(), flat.size());
}

// The on-disk layout is a compatibility promise (kFormatVersion 2): these
// digests were recorded before the serializers were rewritten as one
// symmetric io() per type, and any byte that moves must come with a
// version bump. The obs-off build records no metrics, so its files differ.
// The digest covers every header and body byte; only the order of the
// entries inside a metrics buffer is canonicalized (see digest()).
//
// The obs-on kIdeal/kContended were re-recorded once since, when routing
// repair moved to the pairwise dirtying budget: its embedded metrics
// buffer counts fewer `apsp.repair.line_updates` and smaller
// `apsp.frontier` samples. The apsp-masked digests below were recorded
// before that change and still hold, so every other byte is unchanged.
TEST(SnapshotFormat, BytesArePinned) {
#if RTDS_OBS_ENABLED
  constexpr std::uint64_t kIdeal = 14820959068413218150ull;
  constexpr std::uint64_t kContended = 4163462027174553838ull;
  constexpr std::uint64_t kOpen = 869868903705093186ull;
  constexpr std::uint64_t kJournal = 14422521497242031276ull;
#else
  constexpr std::uint64_t kIdeal = 16667587439404011837ull;
  constexpr std::uint64_t kContended = 11510605678612529138ull;
  constexpr std::uint64_t kOpen = 869868903705093186ull;
  constexpr std::uint64_t kJournal = 7642331713864820856ull;
#endif
  // The same two chaos snapshots with every `apsp.*` metric entry masked
  // out: this pins the routing state and all other metrics independently
  // of how much work the repair engine reports doing, so a change to the
  // engine's cost may re-record kIdeal/kContended only while these hold.
  // Obs-off records no metrics, so masking changes nothing there.
#if RTDS_OBS_ENABLED
  constexpr std::uint64_t kIdealNoApsp = 3045602211415373484ull;
  constexpr std::uint64_t kContendedNoApsp = 13514810180626314412ull;
#else
  constexpr std::uint64_t kIdealNoApsp = kIdeal;
  constexpr std::uint64_t kContendedNoApsp = kContended;
#endif
  EXPECT_EQ(snap::kFormatVersion, 2u);
  const std::string ideal =
      snapshot_with_metrics(make_chaos_case(11, "ideal"), 400);
  const std::string contended =
      snapshot_with_metrics(make_chaos_case(11, "contended"), 400);
  EXPECT_EQ(digest(ideal), kIdeal);
  EXPECT_EQ(digest(contended), kContended);
  EXPECT_EQ(digest(ideal, /*mask_apsp=*/true), kIdealNoApsp);
  EXPECT_EQ(digest(contended, /*mask_apsp=*/true), kContendedNoApsp);

  // The open-system checkpoint carries the collector and source extras.
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
  ocfg.checkpoint_path = ::testing::TempDir() + "snapshot_test_pinned.snap";
  ocfg.checkpoint_every = 500;
  const auto source = load::make_arrival_source(aspec);
  load::run_open_rtds(topo, *source, ocfg, params);
  EXPECT_EQ(digest(file_bytes(ocfg.checkpoint_path)), kOpen);

  // A serial observed sweep appends its trials in index order.
  exp::RunObservation observation;
  observation.record_traces = false;
  exp::RunOptions opts;
  opts.observe = &observation;
  opts.journal_path = ::testing::TempDir() + "snapshot_test_pinned.journal";
  exp::run_scenario(tiny_e1(), opts);
  EXPECT_EQ(digest(file_bytes(opts.journal_path)), kJournal);
}

// Save -> load into a fresh system -> save must reproduce every byte: a
// field the loader skips, reorders or re-derives differently shows up
// here even when the resumed run happens to converge. Only the clock's
// next_seq may move, because re-posting the pending events draws fresh
// sequence numbers (which preserves their order, not their values).
TEST(SnapshotRoundTrip, ResaveIsByteIdentical) {
  const std::vector<std::tuple<std::uint64_t, const char*>> cases = {
      {1, "ideal"}, {2, "ideal"}, {3, "contended"}, {7, "contended"}};
  for (const auto& [seed, transport] : cases) {
    const ChaosCase cc = make_chaos_case(seed, transport);
    for (const std::size_t cut : {1, 150, 600, 1500, 2500, 4000}) {
      SCOPED_TRACE(std::string(transport) + " seed " + std::to_string(seed) +
                   " cut " + std::to_string(cut));
      const std::string first = snapshot_with_metrics(cc, cut);
      obs::MetricsBuffer buf;
      RtdsSystem resumed(cc.condition.topo, cc.cfg);
      SnapshotExtras extras;
      extras.metrics = &buf;
      Snapshot::load(first, resumed, extras);
      const std::string second = Snapshot::save(resumed, extras);

      const auto a = sections_of(first);
      const auto b = sections_of(second);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].name, b[i].name);
        const std::string body_a = first.substr(a[i].body, a[i].size);
        const std::string body_b = second.substr(b[i].body, b[i].size);
        if (a[i].name != "clock") {
          EXPECT_EQ(body_a, body_b) << "section " << a[i].name << " moved";
          continue;
        }
        ASSERT_EQ(a[i].size, 24u);
        ASSERT_EQ(b[i].size, 24u);
        EXPECT_EQ(body_a.substr(0, 8), body_b.substr(0, 8)) << "clock now";
        EXPECT_GE(read_u64(body_b, 8), read_u64(body_a, 8)) << "next_seq";
        EXPECT_EQ(body_a.substr(16), body_b.substr(16)) << "executed";
      }
    }
  }
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
