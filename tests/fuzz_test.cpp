// Fuzzer subsystem regression (DESIGN.md §15).
//
// Five contracts are pinned here:
//  (a) the seq-monotone, repair-consistency and shed-conservation
//      invariants each fire on a hand-built violation and stay silent on
//      the legal counterpart, and the incremental repair audit reports
//      exactly what a full audit reports;
//  (b) the .repro text format round-trips bit-for-bit for generated
//      scenarios, and generation is a pure function of (seed, index);
//  (c) a --runs-bounded campaign reports identical findings whatever the
//      worker count, and concurrent campaigns keep their own seeded bug;
//  (d) mutation harness: each deliberately injected bug (src/fault/bugs.hpp)
//      is found within a pinned seed budget and shrunk to at most a pinned
//      repro size, and the shrunk repro replays its pinned tag;
//  (e) a clean-HEAD soak finds nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "fault/bugs.hpp"
#include "fault/fault.hpp"
#include "fault/invariants.hpp"
#include "fuzz/checks.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/scenario.hpp"
#include "fuzz/shrink.hpp"
#include "net/generators.hpp"
#include "net/topology.hpp"
#include "routing/apsp.hpp"
#include "routing/routing_table.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rtds {
namespace {

using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultState;
using fault::InjectedBug;
using fault::InvariantChecker;

Topology line3() {
  Topology topo;
  for (int i = 0; i < 3; ++i) topo.add_site();
  topo.add_link(0, 1, 1.0);
  topo.add_link(1, 2, 1.0);
  return topo;
}

// ---------------------------------------------------------------- (a) new
// invariants: forcing tests drive each hook directly into a violation.

TEST(FuzzInvariants, SeqMonotoneRejectsRepeatedSequence) {
  InvariantChecker chk(/*fatal=*/true);
  chk.on_send_seq(1, 2, 5, 0.0);
  chk.on_send_seq(1, 2, 6, 1.0);      // strictly increasing: fine
  chk.on_send_seq(2, 1, 5, 1.0);      // independent (from,to) stream: fine
  EXPECT_THROW(chk.on_send_seq(1, 2, 6, 2.0), ContractViolation);  // repeat
  InvariantChecker fresh(/*fatal=*/true);
  fresh.on_send_seq(1, 2, 5, 0.0);
  EXPECT_THROW(fresh.on_send_seq(1, 2, 4, 1.0), ContractViolation);  // drop
}

TEST(FuzzInvariants, RepairConsistencyRejectsCorruptedTable) {
  const Topology topo = line3();
  const FaultPlan empty;
  const FaultState faults(topo, empty);
  auto tables = phased_apsp(topo, 4);
  {
    InvariantChecker chk(/*fatal=*/true);
    chk.on_repair(tables, topo, faults, 1.0);  // the real tables are clean
  }
  // Corrupt 0 -> 2: claim a distance below the next hop's lower bound
  // (link 0-1 delay 1.0 + site 1's own distance 1.0 = 2.0).
  tables[0].set_line(2, RouteLine{0.5, 1, 2});
  InvariantChecker chk(/*fatal=*/true);
  EXPECT_THROW(chk.on_repair(tables, topo, faults, 1.0), ContractViolation);
}

TEST(FuzzInvariants, RepairConsistencyRejectsRouteOverDeadLink) {
  const Topology topo = line3();
  const FaultPlan empty;
  FaultState faults(topo, empty);
  const auto tables = phased_apsp(topo, 4);  // faultless routes use 0-1
  faults.apply(FaultEvent{0.0, FaultKind::kLinkDown, 0, 1});
  InvariantChecker chk(/*fatal=*/true);
  EXPECT_THROW(chk.on_repair(tables, topo, faults, 1.0), ContractViolation);
}

/// The first violation message a fatal copy of `chk` throws from
/// on_repair, or "" when the audit passes. `chk` itself is untouched.
std::string first_repair_violation(const InvariantChecker& chk,
                                   const std::vector<RoutingTable>& tables,
                                   const Topology& topo,
                                   const FaultState& faults, Time now) {
  InvariantChecker fatal(chk, /*fatal=*/true);
  try {
    fatal.on_repair(tables, topo, faults, now);
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return "";
}

/// A random live multi-hop line (s, dest) of `tables`, or false if the
/// draw found none.
bool pick_multi_hop(const std::vector<RoutingTable>& tables, Rng& rng,
                    SiteId& s, SiteId& dest) {
  s = static_cast<SiteId>(rng.uniform_int(0, tables.size() - 1));
  const RoutingTable& table = tables[s];
  if (table.slot_count() == 0) return false;
  const auto slot = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(table.slot_count()) - 1));
  const RouteLine& line = table.line_at(slot);
  dest = table.dest_at(slot);
  return line.dist < kInfiniteTime && dest != s && line.next_hop != dest;
}

// The incremental repair audit (a long-lived checker diffing against its
// shadow) must equal a full audit (a fresh checker) after every repair:
// same violation count, same first fatal message. Between repairs the
// tables are corrupted behind the repairer's back, so the incremental
// path has to find the damage by content, not from the repair's dirty set.
TEST(FuzzInvariants, IncrementalRepairAuditMatchesFullAudit) {
  Rng rng(2024);
  const Topology topo = make_grid(12, 12, DelayRange{0.5, 1.5}, rng);
  const std::size_t phases = 4;  // h = 2
  const FaultPlan empty;
  FaultState faults(topo, empty);
  auto tables = phased_apsp(topo, phases);
  ApspRepairer repairer(topo, phases);
  InvariantChecker inc;
  std::uint64_t corruptions = 0, violating_audits = 0;
  auto audit = [&](Time now) {
    const std::string msg = first_repair_violation(InvariantChecker{}, tables,
                                                   topo, faults, now);
    EXPECT_EQ(first_repair_violation(inc, tables, topo, faults, now), msg)
        << "at t=" << now;
    const std::uint64_t before = inc.violations();
    InvariantChecker fresh;
    fresh.on_repair(tables, topo, faults, now);
    inc.on_repair(tables, topo, faults, now);
    EXPECT_EQ(inc.violations() - before, fresh.violations()) << "at t=" << now;
    violating_audits += fresh.violations() > 0 ? 1 : 0;
  };
  audit(0.0);
  const auto& links = topo.links();
  for (int step = 1; step <= 400; ++step) {
    const Time now = step;
    SiteId s = 0, dest = 0;
    switch (rng.uniform_int(0, 7)) {
      case 0:  // a dist below the next hop's lower bound
        if (pick_multi_hop(tables, rng, s, dest)) {
          RouteLine line = *tables[s].find(dest);
          line.dist -= 0.25;
          tables[s].set_line(dest, line);
          ++corruptions;
        }
        break;
      case 1:  // the next hop's line withdrawn
        if (pick_multi_hop(tables, rng, s, dest)) {
          tables[tables[s].find(dest)->next_hop].set_line(dest, RouteLine{});
          ++corruptions;
        }
        break;
      case 2: {  // a link dies and no table changes
        const auto& l = links[rng.uniform_int(0, links.size() - 1)];
        if (faults.apply(FaultEvent{now, FaultKind::kLinkDown, l.a, l.b})) {
          audit(now);
          ++corruptions;
        }
        break;
      }
      case 3:  // a tombstone slot inserted, or a live line tombstoned
        s = static_cast<SiteId>(rng.uniform_int(0, tables.size() - 1));
        dest = static_cast<SiteId>(rng.uniform_int(0, tables.size() - 1));
        if (dest != s) {
          tables[s].set_line(dest, RouteLine{});
          ++corruptions;
        }
        break;
      case 4:  // every route rebuilt: the damage heals, the shadow churns
        tables = phased_apsp(topo, phases, &faults);
        break;
      default:
        break;
    }
    // One scripted topology change, repaired incrementally.
    FaultEvent ev{now, FaultKind::kLinkDown, 0, kNoSite};
    switch (rng.uniform_int(0, 2)) {
      case 0: {
        const auto& l = links[rng.uniform_int(0, links.size() - 1)];
        ev.kind = rng.bernoulli(0.5) ? FaultKind::kLinkDown : FaultKind::kLinkUp;
        ev.a = l.a;
        ev.b = l.b;
        break;
      }
      case 1:
        ev.kind = rng.bernoulli(0.5) ? FaultKind::kSiteDown : FaultKind::kSiteUp;
        ev.a = static_cast<SiteId>(rng.uniform_int(0, tables.size() - 1));
        break;
      default:
        ev.kind = faults.partition_boundary() == 0 ? FaultKind::kPartition
                                                   : FaultKind::kHeal;
        ev.a = static_cast<SiteId>(rng.uniform_int(1, tables.size() - 1));
        break;
    }
    if (!faults.apply(ev)) continue;
    std::vector<SiteId> changed;
    if (ev.kind == FaultKind::kPartition || ev.kind == FaultKind::kHeal) {
      changed = faults.partition_changed_sites();
    } else {
      changed.push_back(ev.a);
      if (ev.b != kNoSite) changed.push_back(ev.b);
    }
    repairer.repair(tables, &faults, changed);
    audit(now);
  }
  // The run must have exercised both verdicts, or it proves nothing.
  EXPECT_GT(corruptions, 100u);
  EXPECT_GT(violating_audits, 50u);
  EXPECT_GT(inc.violations(), 0u);
}

TEST(FuzzInvariants, ShedConservationRejectsQueueAccountingDrift) {
  const RunMetrics zero;
  {
    InvariantChecker chk(/*fatal=*/true);  // a push with no matching remove
    chk.on_queue_push(0, 0.0);
    chk.on_queue_push(0, 1.0);
    chk.on_queue_remove(0, 2.0);
    EXPECT_THROW(chk.finish(zero, 0, 3.0), ContractViolation);
  }
  {
    // a node-level shed event metrics never recorded
    InvariantChecker chk(/*fatal=*/true);
    chk.on_shed(0, 0.0);
    EXPECT_THROW(chk.finish(zero, 0, 1.0), ContractViolation);
  }
  {
    InvariantChecker chk(/*fatal=*/true);  // a remove that was never pushed
    EXPECT_THROW(chk.on_queue_remove(0, 0.0), ContractViolation);
  }
  InvariantChecker chk(/*fatal=*/true);  // balanced books finish clean
  chk.on_queue_push(0, 0.0);
  chk.on_queue_remove(0, 1.0);
  chk.finish(zero, 0, 2.0);
  EXPECT_EQ(chk.violations(), 0u);
}

// ------------------------------------------------------- (b) repro format

TEST(FuzzRepro, RoundTripsGeneratedScenariosBitForBit) {
  for (std::uint64_t i = 0; i < 50; ++i) {
    const fuzz::FuzzScenario s = fuzz::generate_scenario(123, i);
    const std::string text = fuzz::to_repro(s);
    const fuzz::FuzzScenario back = fuzz::from_repro(text);
    EXPECT_EQ(fuzz::to_repro(back), text) << "scenario " << i;
  }
}

TEST(FuzzRepro, ParserRejectsMalformedInput) {
  EXPECT_THROW(fuzz::from_repro(""), ContractViolation);
  EXPECT_THROW(fuzz::from_repro("RTDSREPRO 999\nend\n"), ContractViolation);
  const std::string good = fuzz::to_repro(fuzz::generate_scenario(1, 0));
  EXPECT_THROW(fuzz::from_repro(good + "trailing junk\n"), ContractViolation);
}

TEST(FuzzRepro, GenerationIsAPureFunctionOfSeedAndIndex) {
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(fuzz::to_repro(fuzz::generate_scenario(7, i)),
              fuzz::to_repro(fuzz::generate_scenario(7, i)));
  }
  EXPECT_NE(fuzz::to_repro(fuzz::generate_scenario(7, 0)),
            fuzz::to_repro(fuzz::generate_scenario(7, 1)));
  EXPECT_NE(fuzz::to_repro(fuzz::generate_scenario(7, 0)),
            fuzz::to_repro(fuzz::generate_scenario(8, 0)));
}

// ------------------------------------- (c) worker-count-invariant campaign

TEST(FuzzCampaign, FindingsAreIdenticalAcrossWorkerCounts) {
  // An injected bug guarantees findings to compare; minimize=false keeps
  // the repros raw so the comparison covers the full scenario bytes.
  fuzz::FuzzOptions opts;
  opts.bug = InjectedBug::kDedupFalsePositive;
  opts.seed = 2024;
  opts.runs = 120;
  opts.minimize = false;
  opts.progress_every = 0;
  std::ostringstream sink;
  opts.jobs = 1;
  const fuzz::FuzzReport serial = fuzz::run_fuzz(opts, sink);
  opts.jobs = 4;
  const fuzz::FuzzReport parallel = fuzz::run_fuzz(opts, sink);
  ASSERT_FALSE(serial.findings.empty())
      << "seed budget too small to exercise the comparison";
  EXPECT_EQ(serial.runs_done, parallel.runs_done);
  ASSERT_EQ(serial.findings.size(), parallel.findings.size());
  for (std::size_t i = 0; i < serial.findings.size(); ++i) {
    EXPECT_EQ(serial.findings[i].index, parallel.findings[i].index);
    EXPECT_EQ(serial.findings[i].tag, parallel.findings[i].tag);
    EXPECT_EQ(fuzz::to_repro(serial.findings[i].repro),
              fuzz::to_repro(parallel.findings[i].repro));
  }
}

// A campaign's seeded bug lives in its own FuzzOptions, so a mutant
// campaign and a bug-free one sharing the process cannot see each other's
// setting: the bug-free run stays clean and the mutant's first finding is
// the one it reports alone. A process-wide bug switch fails both halves.
TEST(FuzzCampaign, ConcurrentCampaignsKeepTheirOwnBug) {
  fuzz::FuzzOptions mutant;
  mutant.bug = InjectedBug::kDedupFalsePositive;
  mutant.seed = 2024;
  mutant.runs = 120;
  mutant.minimize = false;
  mutant.progress_every = 0;
  fuzz::FuzzOptions clean = mutant;
  clean.bug = InjectedBug::kNone;

  std::ostringstream sink;
  const fuzz::FuzzReport alone = fuzz::run_fuzz(mutant, sink);
  ASSERT_FALSE(alone.findings.empty())
      << "seed budget too small to exercise the comparison";

  fuzz::FuzzReport beside, bug_free;
  std::ostringstream sink_a, sink_b;
  std::thread a([&] { beside = fuzz::run_fuzz(mutant, sink_a); });
  std::thread b([&] { bug_free = fuzz::run_fuzz(clean, sink_b); });
  a.join();
  b.join();

  EXPECT_EQ(bug_free.runs_done, 120u);
  EXPECT_TRUE(bug_free.findings.empty()) << sink_b.str();
  ASSERT_FALSE(beside.findings.empty());
  EXPECT_EQ(beside.findings.front().index, alone.findings.front().index);
  EXPECT_EQ(beside.findings.front().tag, alone.findings.front().tag);
  EXPECT_EQ(fuzz::to_repro(beside.findings.front().repro),
            fuzz::to_repro(alone.findings.front().repro));
}

// --------------------------------------------- (d) the mutation harness

struct SeededBugCase {
  InjectedBug bug;
  const char* name;
  std::uint64_t seed;        ///< campaign key the budget is pinned under
  std::uint64_t runs;        ///< pinned seed budget: must find within this
  std::size_t max_repro_size;  ///< pinned ceiling for the shrunk repro
};

TEST(FuzzMutation, FindsAndShrinksEverySeededBug) {
  const SeededBugCase cases[] = {
      {InjectedBug::kDedupFalsePositive, "dedup-false-positive", 2024, 120, 120},
      {InjectedBug::kRepairRadiusOffByOne, "repair-radius", 2024, 120, 120},
      {InjectedBug::kCrashKeepsLock, "crash-keeps-lock", 2024, 120, 120},
  };
  for (const auto& c : cases) {
    fuzz::FuzzOptions opts;
    opts.bug = c.bug;
    opts.seed = c.seed;
    opts.runs = c.runs;
    opts.jobs = 4;
    opts.minimize = true;
    opts.progress_every = 0;
    std::ostringstream sink;
    const fuzz::FuzzReport report = fuzz::run_fuzz(opts, sink);
    ASSERT_FALSE(report.findings.empty())
        << c.name << " not found within " << c.runs << " scenarios";
    const fuzz::Finding& f = report.findings.front();
    std::cerr << "mutation " << c.name << ": scenario " << f.index << " ["
              << f.tag << "] shrunk to size " << f.repro.size() << " ("
              << f.shrink.attempts << " attempts, " << f.shrink.improvements
              << " improvements)\n";
    EXPECT_LE(f.repro.size(), c.max_repro_size)
        << c.name << " repro did not shrink enough";
    // The shrunk repro must replay its pinned tag (failed=false means the
    // expected failure reproduced — the rtds_cli --repro contract).
    const fuzz::CheckResult replay = fuzz::run_scenario_checks(f.repro, c.bug);
    EXPECT_FALSE(replay.failed)
        << c.name << " shrunk repro did not replay: " << replay.message;
  }
}

// ----------------------------------------------------- (e) clean-HEAD soak

TEST(FuzzSoak, CleanHeadFindsNothing) {
  fuzz::FuzzOptions opts;
  opts.seed = 2026;
  opts.runs = 60;
  opts.jobs = 4;
  opts.progress_every = 0;
  std::ostringstream sink;
  const fuzz::FuzzReport report = fuzz::run_fuzz(opts, sink);
  EXPECT_EQ(report.runs_done, 60u);
  EXPECT_TRUE(report.findings.empty()) << sink.str();
}

}  // namespace
}  // namespace rtds
