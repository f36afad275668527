// Fault-injection determinism and protocol-recovery regression
// (DESIGN.md §9).
//
// Three contracts are pinned here:
//  (a) the E6 fault sweep is bit-identical for any worker count (golden
//      digest, serial and 8 workers — the digest below was recorded from
//      the serial run of this exact reduced sweep);
//  (b) a crash during enrollment leaks nothing: sphere members locked by a
//      dead initiator lease their locks back, and every arrival still gets
//      a decision;
//  (c) an all-zero fault spec is an *empty* plan, and an empty plan leaves
//      a run bit-identical to one that never heard of faults (the broader
//      E1–E5 byte-identity claim is carried by determinism_test's golden
//      digests, which run in this same suite unchanged).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/rtds_system.hpp"
#include "exp/condition.hpp"
#include "exp/runner.hpp"
#include "exp/scenarios.hpp"
#include "exp/sinks.hpp"
#include "fault/fault.hpp"
#include "policy/policy.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace rtds {
namespace {

using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;
using fault::FaultState;
using fault::SiteTimeline;

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

// -------------------------------------------------------- plan generation --

TEST(FaultPlan, ZeroSpecYieldsEmptyPlan) {
  const Topology topo = line3();
  const FaultPlan plan = FaultPlan::from_spec(FaultSpec{}, topo);
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.events.empty());
}

TEST(FaultPlan, GenerationIsDeterministic) {
  const Topology topo = line3();
  FaultSpec spec;
  spec.site_rate = 0.05;
  spec.link_rate = 0.03;
  spec.horizon = 200.0;
  spec.seed = 9;
  const FaultPlan a = FaultPlan::from_spec(spec, topo);
  const FaultPlan b = FaultPlan::from_spec(spec, topo);
  ASSERT_FALSE(a.events.empty());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].a, b.events[i].a);
    EXPECT_EQ(a.events[i].b, b.events[i].b);
  }
  // Events are time-sorted and a different seed draws a different plan.
  for (std::size_t i = 1; i < a.events.size(); ++i)
    EXPECT_LE(a.events[i - 1].at, a.events[i].at);
  spec.seed = 10;
  const FaultPlan c = FaultPlan::from_spec(spec, topo);
  const bool same = a.events.size() == c.events.size() &&
                    (a.events.empty() || a.events[0].at == c.events[0].at);
  EXPECT_FALSE(same);
}

TEST(SiteTimeline, UpAtFollowsToggles) {
  FaultPlan plan;
  plan.events = {FaultEvent{5.0, FaultKind::kSiteDown, 1, kNoSite},
                 FaultEvent{7.5, FaultKind::kSiteUp, 1, kNoSite},
                 FaultEvent{9.0, FaultKind::kLinkDown, 0, 1}};
  const SiteTimeline timeline(plan, 3);
  EXPECT_EQ(timeline.events().size(), 2u);  // the link event is not a site event
  EXPECT_TRUE(timeline.up_at(1, 4.9));
  EXPECT_FALSE(timeline.up_at(1, 5.0));  // events at exactly t are applied
  EXPECT_FALSE(timeline.up_at(1, 7.4));
  EXPECT_TRUE(timeline.up_at(1, 7.5));
  EXPECT_TRUE(timeline.up_at(0, 6.0));  // untouched site stays up
}

// ------------------------------------------------------ transport faults --

TEST(FaultState, TracksSiteAndLinkLiveness) {
  const Topology topo = line3();
  FaultPlan plan;
  plan.events = {FaultEvent{1.0, FaultKind::kSiteDown, 1, kNoSite}};
  FaultState state(topo, plan);
  EXPECT_TRUE(state.link_up(0, 1));
  EXPECT_TRUE(state.apply(FaultEvent{1.0, FaultKind::kSiteDown, 1, kNoSite}));
  EXPECT_FALSE(state.apply(FaultEvent{1.0, FaultKind::kSiteDown, 1, kNoSite}))
      << "re-downing a down site must be a no-op";
  EXPECT_FALSE(state.site_up(1));
  EXPECT_FALSE(state.link_up(0, 1)) << "a dead endpoint downs the link";
  EXPECT_EQ(state.live_link_count(topo), 0u);
  EXPECT_TRUE(state.apply(FaultEvent{2.0, FaultKind::kSiteUp, 1, kNoSite}));
  EXPECT_TRUE(state.apply(FaultEvent{3.0, FaultKind::kLinkDown, 1, 2}));
  EXPECT_FALSE(state.link_up(2, 1));
  EXPECT_EQ(state.live_link_count(topo), 1u);
}

TEST(SimNetworkFaults, DeliveryToDeadSiteIsDropped) {
  const Topology topo = line3();
  Simulator sim;
  SimNetwork net(sim, topo.site_count());
  FaultPlan plan;
  plan.events = {FaultEvent{0.5, FaultKind::kSiteDown, 1, kNoSite}};
  FaultState state(topo, plan);
  net.set_fault_state(&state);
  int delivered = 0;
  for (SiteId s = 0; s < 3; ++s)
    net.set_handler(s, [&](SiteId, const MessageBody&) { ++delivered; });

  net.send_routed(0, 1, topo.link_delay(0, 1), 1, std::string("in flight"),
                  1);  // arrives at t=1.0
  sim.schedule_at(0.5, [&]() {
    state.apply(plan.events[0]);  // site 1 dies while the message flies
  });
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
  EXPECT_EQ(net.stats().total_sends, 1u) << "traffic was still emitted";
}

// --------------------------------------------------- protocol resilience --

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

TEST(ProtocolFaults, CrashedInitiatorReleasesSphereLocks) {
  SystemConfig cfg;
  // Scripted plan: the initiator (site 1) dies at t=1.5 — after its
  // enrollment requests locked both sphere members (t=1.0), before their
  // replies land (t=2.0). Without the lock lease the members would stay
  // frozen forever and the end-of-run invariants would fire.
  cfg.faults.events = {FaultEvent{1.5, FaultKind::kSiteDown, 1, kNoSite}};
  RtdsSystem system(line3(), cfg);
  system.run({{1, parallel_job(1, 0.0)}});

  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_FALSE(system.node(s).locked()) << "site " << s << " leaked a lock";
    EXPECT_EQ(system.node(s).active_initiations(), 0u);
    EXPECT_EQ(system.node(s).queued_jobs(), 0u);
  }
  const RunMetrics& m = system.metrics();
  EXPECT_EQ(m.arrived, 1u);
  EXPECT_EQ(m.rejected, 1u);
  const auto it =
      m.reject_by_reason.find(static_cast<int>(RejectReason::kSiteDown));
  ASSERT_NE(it, m.reject_by_reason.end());
  EXPECT_EQ(it->second, 1u);
}

TEST(ProtocolFaults, CrashedResponderStillConcludes) {
  SystemConfig cfg;
  // A sphere member (site 2) dies before the enrollment request reaches
  // it and never comes back. The initiator's enrollment timeout must close
  // the round with the surviving member — accept or reject, but decide.
  cfg.faults.events = {FaultEvent{0.5, FaultKind::kSiteDown, 2, kNoSite}};
  RtdsSystem system(line3(), cfg);
  system.run({{1, parallel_job(1, 0.0)}});

  for (SiteId s = 0; s < 3; ++s)
    EXPECT_FALSE(system.node(s).locked()) << "site " << s << " leaked a lock";
  EXPECT_EQ(system.metrics().arrived, 1u);
  EXPECT_EQ(system.metrics().accepted() + system.metrics().rejected, 1u);
}

TEST(ProtocolFaults, CrashLosesCommittedWork) {
  SystemConfig cfg;
  cfg.faults.events = {FaultEvent{2.0, FaultKind::kSiteDown, 0, kNoSite}};
  RtdsSystem system(line3(), cfg);
  // A trivially local job on site 0 spanning the crash instant.
  auto job = std::make_shared<Job>();
  job->id = 1;
  job->dag.add_task(3.0);
  job->dag.finalize();
  job->release = 0.0;
  job->deadline = 5.0;
  system.run({{0, job}});
  EXPECT_EQ(system.metrics().accepted_local, 1u);
  EXPECT_EQ(system.metrics().jobs_lost, 1u);
  EXPECT_EQ(system.metrics().failed_jobs, 1u);
  EXPECT_EQ(system.metrics().delivered_ratio(), 0.0);
}

// ----------------------------------------------------- empty-plan parity --

/// Exact-equality probe over every externally observable RunMetrics field
/// the sweeps print (doubles compared bit-for-bit via EXPECT_EQ).
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
  EXPECT_EQ(a.pcs_size_max, b.pcs_size_max);
  EXPECT_EQ(a.pcs_hop_diameter_max, b.pcs_hop_diameter_max);
}

TEST(ZeroFaultParity, ExplicitZeroRatesMatchNoFaultKeysBitForBit) {
  policy::register_builtin_policies();
  exp::ConditionSpec cs;
  cs.sites = 36;
  cs.horizon = 150.0;
  const exp::Condition c = exp::make_condition(cs);
  for (const auto& name : policy::PolicyRegistry::instance().names()) {
    const auto policy = policy::PolicyRegistry::instance().create(name);
    const RunMetrics plain =
        policy->run(c.topo, c.arrivals, policy->parse_params({}));
    const RunMetrics zeroed = policy->run(
        c.topo, c.arrivals,
        policy->parse_params({"faults.site_rate=0", "faults.seed=777"}));
    SCOPED_TRACE("policy " + name);
    expect_identical(plain, zeroed);
    EXPECT_EQ(plain.jobs_lost, 0u);
    EXPECT_EQ(plain.transport.messages_dropped, 0u);
  }
}

// ------------------------------------------------------ E6 golden digest --

// Digest recorded from the serial run of this reduced sweep at the commit
// that introduced E6; any worker count must reproduce every byte.
constexpr std::uint64_t kE6CsvDigest = 14329082671146674128ull;

/// E6 restricted to its first two crash rates at the low load, so the
/// regression runs in seconds; grid indices and seeds match the full
/// sweep's corresponding rows.
exp::ScenarioSpec reduced_e6() {
  exp::register_builtin_scenarios();
  const exp::ScenarioSpec* base =
      exp::Registry::instance().find("e6_fault_tolerance");
  EXPECT_NE(base, nullptr);
  exp::ScenarioSpec spec = *base;
  spec.axes.at(0).values.resize(2);  // crash rates 0.0 and 0.001
  spec.axes.at(1).values.resize(1);  // rate 0.01
  return spec;
}

std::uint64_t e6_digest(std::size_t jobs) {
  const exp::ScenarioSpec spec = reduced_e6();
  exp::RunOptions opts;
  opts.jobs = jobs;
  const auto rows = exp::run_scenario(spec, opts);
  std::ostringstream os;
  exp::CsvSink{}.write(spec, rows, os);
  return fnv1a(os.str());
}

TEST(E6GoldenDigest, SerialMatchesRecordedDigest) {
  EXPECT_EQ(e6_digest(1), kE6CsvDigest);
}

TEST(E6GoldenDigest, EightWorkersMatchesRecordedDigest) {
  EXPECT_EQ(e6_digest(8), kE6CsvDigest);
}

}  // namespace
}  // namespace rtds
