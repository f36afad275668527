// Adversarial-network hardening regression (DESIGN.md §12).
//
// Four contracts are pinned here:
//  (a) the hardening layer is invisible when idle: enabling retransmit and
//      the invariant checker on a faultless run is bit-identical to a run
//      that never heard of either (and the E1–E7 golden digests in
//      determinism_test/fault_test run unchanged in this same suite);
//  (b) chaos is deterministic: the same seed with duplication, reordering,
//      drops and partitions replays every metric bit-for-bit, and the E8
//      sweep digest is identical for any worker count;
//  (c) the protocol survives chaos: a 20-seed soak across every policy
//      under dup+reorder+partition+crash faults runs with the invariant
//      checker fatal — one double-guarantee, leaked lock, or lost decision
//      fails the suite;
//  (d) malformed scripted fault plans are rejected up front with
//      ContractViolation, not discovered mid-run.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/rtds_system.hpp"
#include "exp/condition.hpp"
#include "exp/runner.hpp"
#include "exp/scenarios.hpp"
#include "exp/sinks.hpp"
#include "fault/dedup.hpp"
#include "fault/fault.hpp"
#include "fault/invariants.hpp"
#include "policy/policy.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace rtds {
namespace {

using fault::DedupWindow;
using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultState;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

Topology line3() {
  Topology topo;
  for (int i = 0; i < 3; ++i) topo.add_site();
  topo.add_link(0, 1, 1.0);
  topo.add_link(1, 2, 1.0);
  return topo;
}

// ----------------------------------------------------------- dedup window --

TEST(DedupWindowTest, InOrderSequencesAllAccepted) {
  DedupWindow w;
  for (std::uint64_t s = 1; s <= 200; ++s) EXPECT_TRUE(w.accept(s));
  EXPECT_EQ(w.max_seq(), 200u);
}

TEST(DedupWindowTest, DuplicatesRejectedOnceAccepted) {
  DedupWindow w;
  EXPECT_TRUE(w.accept(5));
  EXPECT_FALSE(w.accept(5));
  EXPECT_TRUE(w.accept(7));
  EXPECT_FALSE(w.accept(5)) << "older duplicate after window advanced";
  EXPECT_FALSE(w.accept(7));
}

TEST(DedupWindowTest, InWindowGapsBackfillExactlyOnce) {
  DedupWindow w;
  EXPECT_TRUE(w.accept(10));  // 1..9 are now in-window gaps
  EXPECT_TRUE(w.accept(3));
  EXPECT_FALSE(w.accept(3));
  EXPECT_TRUE(w.accept(9));
  EXPECT_TRUE(w.accept(1));
  EXPECT_FALSE(w.accept(10));
}

TEST(DedupWindowTest, SequencesOlderThanWindowRejected) {
  DedupWindow w;
  EXPECT_TRUE(w.accept(1));
  EXPECT_TRUE(w.accept(1 + DedupWindow::kWindow));
  // seq 1 is now exactly kWindow behind: conservatively a duplicate.
  EXPECT_FALSE(w.accept(1));
  // seq 2 is kWindow-1 behind: still in the window, never seen, fresh.
  EXPECT_TRUE(w.accept(2));
}

TEST(DedupWindowTest, JumpBeyondWindowResetsBitmap) {
  DedupWindow w;
  for (std::uint64_t s = 1; s <= 5; ++s) EXPECT_TRUE(w.accept(s));
  EXPECT_TRUE(w.accept(500));  // shift >= kWindow wipes the mask
  EXPECT_TRUE(w.accept(499)) << "in-window gap behind the jump is fresh";
  EXPECT_FALSE(w.accept(5)) << "pre-jump history stays rejected (too old)";
}

// ------------------------------------------------------- plan validation --

TEST(FaultPlanValidate, AcceptsWellFormedScriptedPlan) {
  FaultPlan plan;
  plan.events = {FaultEvent{1.0, FaultKind::kSiteDown, 1, kNoSite},
                 FaultEvent{2.0, FaultKind::kLinkDown, 0, 1},
                 FaultEvent{3.0, FaultKind::kPartition, 1, kNoSite},
                 FaultEvent{4.0, FaultKind::kHeal, 0, kNoSite}};
  EXPECT_NO_THROW(plan.validate(line3()));
}

TEST(FaultPlanValidate, RejectsSiteOutOfRange) {
  FaultPlan plan;
  plan.events = {FaultEvent{1.0, FaultKind::kSiteDown, 3, kNoSite}};
  EXPECT_THROW(plan.validate(line3()), ContractViolation);
}

TEST(FaultPlanValidate, RejectsLinkAbsentFromTopology) {
  FaultPlan plan;
  plan.events = {FaultEvent{1.0, FaultKind::kLinkDown, 0, 2}};
  EXPECT_THROW(plan.validate(line3()), ContractViolation);  // no 0--2 link
  plan.events = {FaultEvent{1.0, FaultKind::kLinkUp, 0, 9}};
  EXPECT_THROW(plan.validate(line3()), ContractViolation);  // out of range
}

TEST(FaultPlanValidate, RejectsPartitionBoundaryOutsideRange) {
  FaultPlan plan;
  plan.events = {FaultEvent{1.0, FaultKind::kPartition, 0, kNoSite}};
  EXPECT_THROW(plan.validate(line3()), ContractViolation);
  plan.events = {FaultEvent{1.0, FaultKind::kPartition, 3, kNoSite}};
  EXPECT_THROW(plan.validate(line3()), ContractViolation);
}

TEST(FaultPlanValidate, RejectsNonMonotoneAndNegativeTimes) {
  FaultPlan plan;
  plan.events = {FaultEvent{5.0, FaultKind::kSiteDown, 1, kNoSite},
                 FaultEvent{2.0, FaultKind::kSiteUp, 1, kNoSite}};
  EXPECT_THROW(plan.validate(line3()), ContractViolation);
  plan.events = {FaultEvent{-1.0, FaultKind::kSiteDown, 1, kNoSite}};
  EXPECT_THROW(plan.validate(line3()), ContractViolation);
}

TEST(FaultPlanValidate, SystemConstructorRunsValidation) {
  SystemConfig cfg;
  cfg.faults.events = {FaultEvent{1.0, FaultKind::kSiteDown, 99, kNoSite}};
  EXPECT_THROW(RtdsSystem(line3(), cfg), ContractViolation);
}

// -------------------------------------------------- partition fault state --

TEST(FaultStatePartition, CutDownsCrossLinksHealRestoresOnlyTheCut) {
  const Topology topo = line3();
  FaultPlan plan;
  plan.events = {FaultEvent{1.0, FaultKind::kPartition, 1, kNoSite}};
  FaultState state(topo, plan);

  // Boundary 1 splits {0} from {1, 2}: only link 0--1 crosses the cut.
  EXPECT_TRUE(state.apply(FaultEvent{1.0, FaultKind::kPartition, 1, kNoSite}));
  EXPECT_EQ(state.partition_boundary(), 1u);
  EXPECT_FALSE(state.link_up(0, 1));
  EXPECT_TRUE(state.link_up(1, 2));
  EXPECT_TRUE(state.site_up(0)) << "partition downs links, not sites";
  EXPECT_FALSE(state.partition_changed_sites().empty());

  // An independent link fault inside one side, then the heal: the heal
  // must restore exactly the cut-owned links and nothing else.
  EXPECT_TRUE(state.apply(FaultEvent{2.0, FaultKind::kLinkDown, 1, 2}));
  EXPECT_TRUE(state.apply(FaultEvent{3.0, FaultKind::kHeal, 0, kNoSite}));
  EXPECT_EQ(state.partition_boundary(), 0u);
  EXPECT_TRUE(state.link_up(0, 1)) << "cut link restored by heal";
  EXPECT_FALSE(state.link_up(1, 2)) << "independent fault survives the heal";
}

// ------------------------------------------------------ duplication model --

TEST(SimNetworkFaults, DuplicationDeliversTwiceAndCountsOnce) {
  const Topology topo = line3();
  Simulator sim;
  SimNetwork net(sim, topo.site_count());
  FaultPlan plan;
  plan.dup_prob = 1.0;  // every send duplicated, deterministically
  FaultState state(topo, plan);
  net.set_fault_state(&state);
  int delivered = 0;
  for (SiteId s = 0; s < 3; ++s)
    net.set_handler(s, [&](SiteId, const MessageBody&) { ++delivered; });

  net.send_routed(0, 1, topo.link_delay(0, 1), 1, std::string("twice"), 1);
  sim.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.stats().messages_duplicated, 1u);
  EXPECT_EQ(net.stats().total_sends, 1u) << "a duplicate is not a new send";
}

// --------------------------------------------------- partition resilience --

/// A job one site cannot hold (4 parallel tasks of cost 3 in a window of
/// 4) but a 3-site sphere could — it must go through enrollment.
std::shared_ptr<Job> parallel_job(JobId id, Time release) {
  auto job = std::make_shared<Job>();
  job->id = id;
  for (int t = 0; t < 4; ++t) job->dag.add_task(3.0);
  job->dag.finalize();
  job->release = release;
  job->deadline = release + 4.0;
  return job;
}

TEST(ProtocolChaos, PartitionDuringEnrollmentLeaksNothing) {
  SystemConfig cfg;
  // The cut isolates site 0 from {1, 2} while site 1's enrollment round is
  // in flight; it heals long after every protocol timeout. The round must
  // close (timeout or retransmit), decide the job, and leak no locks.
  cfg.faults.events = {FaultEvent{1.2, FaultKind::kPartition, 1, kNoSite},
                       FaultEvent{40.0, FaultKind::kHeal, 0, kNoSite}};
  cfg.node.retransmit = true;
  cfg.check_invariants = true;
  RtdsSystem system(line3(), cfg);
  system.run({{1, parallel_job(1, 0.0)}});

  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_FALSE(system.node(s).locked()) << "site " << s << " leaked a lock";
    EXPECT_EQ(system.node(s).active_initiations(), 0u);
  }
  const RunMetrics& m = system.metrics();
  EXPECT_EQ(m.arrived, 1u);
  EXPECT_EQ(m.accepted() + m.rejected, 1u) << "partition swallowed a decision";
  EXPECT_EQ(m.invariant_violations, 0u);
}

// ------------------------------------------------- hardened idle parity --

/// Exact-equality probe over every externally observable RunMetrics field
/// the sweeps print, including the §12 hardening counters.
void expect_identical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.accepted_local, b.accepted_local);
  EXPECT_EQ(a.accepted_remote, b.accepted_remote);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.dispatch_failures, b.dispatch_failures);
  EXPECT_EQ(a.failed_jobs, b.failed_jobs);
  EXPECT_EQ(a.jobs_lost, b.jobs_lost);
  EXPECT_EQ(a.jobs_rescheduled, b.jobs_rescheduled);
  EXPECT_EQ(a.repair_messages, b.repair_messages);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.messages_duplicated, b.messages_duplicated);
  EXPECT_EQ(a.invariant_violations, b.invariant_violations);
  EXPECT_EQ(a.reject_by_reason, b.reject_by_reason);
  EXPECT_EQ(a.adjustment_cases, b.adjustment_cases);
  EXPECT_EQ(a.decision_latency.count(), b.decision_latency.count());
  EXPECT_EQ(a.decision_latency.mean(), b.decision_latency.mean());
  EXPECT_EQ(a.msgs_per_job.mean(), b.msgs_per_job.mean());
  EXPECT_EQ(a.job_lateness.mean(), b.job_lateness.mean());
  EXPECT_EQ(a.acs_size.mean(), b.acs_size.mean());
  EXPECT_EQ(a.transport.total_sends, b.transport.total_sends);
  EXPECT_EQ(a.transport.total_link_messages, b.transport.total_link_messages);
  EXPECT_EQ(a.transport.messages_dropped, b.transport.messages_dropped);
  EXPECT_EQ(a.transport.messages_duplicated, b.transport.messages_duplicated);
}

TEST(HardenedIdleParity, RetransmitAndCheckerAreBitInvisibleWhenFaultless) {
  policy::register_builtin_policies();
  exp::ConditionSpec cs;
  cs.sites = 36;
  cs.horizon = 150.0;
  const exp::Condition c = exp::make_condition(cs);
  const auto policy = policy::PolicyRegistry::instance().create("rtds");
  const RunMetrics plain =
      policy->run(c.topo, c.arrivals, policy->parse_params({}));
  const RunMetrics hardened = policy->run(
      c.topo, c.arrivals,
      policy->parse_params({"faults.dup=0", "faults.reorder=0",
                            "faults.partition_rate=0", "faults.retransmit=true",
                            "faults.retransmit_tries=5",
                            "check_invariants=true"}));
  expect_identical(plain, hardened);
  EXPECT_EQ(hardened.retransmits, 0u) << "no retry may arm without faults";
  EXPECT_EQ(hardened.invariant_violations, 0u);
}

// faults.retransmit_tries takes any unsigned value, and the enroll and
// validate round timeouts are stretched by 2^(tries + 1): that must stay
// defined far past 31 (the sanitized CI job runs this under UBSan).
TEST(HardenedRetransmit, FortyTriesRunToCompletion) {
  policy::register_builtin_policies();
  exp::ConditionSpec cs;
  cs.sites = 16;
  cs.horizon = 150.0;
  const exp::Condition c = exp::make_condition(cs);
  const auto policy = policy::PolicyRegistry::instance().create("rtds");
  const RunMetrics m = policy->run(
      c.topo, c.arrivals,
      policy->parse_params({"faults.retransmit=true",
                            "faults.retransmit_tries=40", "faults.drop=0.05"}));
  EXPECT_GT(m.arrived, 0u);
  EXPECT_EQ(m.accepted() + m.rejected + m.jobs_lost, m.arrived);
  EXPECT_EQ(m.deadline_misses, 0u);
}

// -------------------------------------------------- chaos determinism --

std::vector<std::string> chaos_params(std::uint64_t seed) {
  return {"faults.site_rate=0.003",     "faults.site_mttr=10",
          "faults.drop=0.03",           "faults.dup=0.08",
          "faults.reorder=0.15",        "faults.reorder_delay=0.8",
          "faults.partition_rate=0.02", "faults.partition_mttr=8",
          "faults.retransmit=true",     "check_invariants=true",
          "faults.seed=" + std::to_string(seed)};
}

TEST(ChaosDeterminism, SameSeedReplaysEveryMetricBitForBit) {
  policy::register_builtin_policies();
  exp::ConditionSpec cs;
  cs.sites = 25;
  cs.rate = 0.04;
  cs.horizon = 100.0;
  const exp::Condition c = exp::make_condition(cs);
  const auto policy = policy::PolicyRegistry::instance().create("rtds");
  const RunMetrics a =
      policy->run(c.topo, c.arrivals, policy->parse_params(chaos_params(7)));
  const RunMetrics b =
      policy->run(c.topo, c.arrivals, policy->parse_params(chaos_params(7)));
  expect_identical(a, b);
  EXPECT_GT(a.retransmits, 0u) << "chaos too mild to exercise the retry path";
  EXPECT_GT(a.messages_duplicated, 0u);
  EXPECT_EQ(a.invariant_violations, 0u);

  const RunMetrics other =
      policy->run(c.topo, c.arrivals, policy->parse_params(chaos_params(8)));
  EXPECT_NE(a.transport.total_sends, other.transport.total_sends)
      << "a different fault seed should draw a different chaos schedule";
}

// ------------------------------------------------------------ chaos soak --

TEST(ChaosSoak, TwentySeedsAcrossEveryPolicyHoldAllInvariants) {
  policy::register_builtin_policies();
  RunContext fatal;  // first violation throws, failing the test
  fatal.check_invariants = true;
  fatal.invariants_fatal = true;
  const auto& names = policy::PolicyRegistry::instance().names();
  ASSERT_GE(names.size(), 6u);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    exp::ConditionSpec cs;
    cs.sites = 25;
    cs.rate = 0.04;
    cs.horizon = 100.0;
    cs.seed = 1000 + seed;
    const exp::Condition c = exp::make_condition(cs);
    for (const auto& name : names) {
      SCOPED_TRACE("policy " + name + " seed " + std::to_string(seed));
      const auto policy = policy::PolicyRegistry::instance().create(name);
      // rtds takes the full adversarial surface; the baselines' analytic
      // transports only share the crash process.
      const std::vector<std::string> params =
          name == "rtds" ? chaos_params(seed)
                         : std::vector<std::string>{
                               "faults.site_rate=0.003", "faults.site_mttr=10",
                               "faults.seed=" + std::to_string(seed)};
      const RunMetrics m =
          policy->run(c.topo, c.arrivals, policy->parse_params(params), fatal);
      EXPECT_EQ(m.accepted() + m.rejected, m.arrived)
          << "job conservation broke under chaos";
      EXPECT_EQ(m.invariant_violations, 0u);
    }
  }
}

// ------------------------------------------------------ E8 golden digest --

// Digest recorded from the serial run of the full E8 sweep at the commit
// that introduced it; any worker count must reproduce every byte.
// Re-recorded in PR 10: crash() now declares dispatch failures for
// in-flight dispatch retries it wipes (a fuzzer-found accounting bug —
// guaranteed jobs could otherwise end the run short of completions
// without ever being marked failed), which shifts the hardened-rtds
// cells of the chaos sweep.
constexpr std::uint64_t kE8CsvDigest = 17125420496582938490ull;

std::uint64_t e8_digest(std::size_t jobs) {
  exp::register_builtin_scenarios();
  const exp::ScenarioSpec* spec = exp::Registry::instance().find("e8_chaos");
  EXPECT_NE(spec, nullptr);
  exp::RunOptions opts;
  opts.jobs = jobs;
  const auto rows = exp::run_scenario(*spec, opts);
  std::ostringstream os;
  exp::CsvSink{}.write(*spec, rows, os);
  return fnv1a(os.str());
}

TEST(E8GoldenDigest, SerialMatchesRecordedDigest) {
  EXPECT_EQ(e8_digest(1), kE8CsvDigest);
}

TEST(E8GoldenDigest, ThreeWorkersMatchesRecordedDigest) {
  EXPECT_EQ(e8_digest(3), kE8CsvDigest);
}

TEST(E8GoldenDigest, EightWorkersMatchesRecordedDigest) {
  EXPECT_EQ(e8_digest(8), kE8CsvDigest);
}

}  // namespace
}  // namespace rtds
