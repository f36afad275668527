// End-to-end RtdsSystem tests: full protocol runs over simulated networks,
// invariant enforcement, both enrollment policies, queueing under locks.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/rtds_system.hpp"
#include "dag/generators.hpp"
#include "net/generators.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace rtds {
namespace {

Topology grid3x3(std::uint64_t seed = 1) {
  Rng rng(seed);
  return make_grid(3, 3, DelayRange{1.0, 2.0}, rng);
}

std::shared_ptr<Job> make_job(JobId id, Time release, double laxity,
                              std::uint64_t seed) {
  Rng rng(seed);
  auto job = std::make_shared<Job>();
  job->id = id;
  job->dag = make_fork_join(6, CostRange{2.0, 8.0}, rng);
  job->release = release;
  Time cp = 0.0;
  for (TaskId t = 0; t < job->dag.task_count(); ++t) cp += job->dag.cost(t);
  job->deadline = release + laxity * cp;
  return job;
}

SystemConfig default_config() {
  SystemConfig cfg;
  cfg.node.sphere_radius_h = 2;
  cfg.node.sched.observation_window = 200.0;
  return cfg;
}

TEST(RtdsSystem, SingleJobAcceptedLocally) {
  RtdsSystem system(grid3x3(), default_config());
  // Huge laxity: the local test trivially succeeds.
  std::vector<JobArrival> arrivals{{4, make_job(1, 0.0, 10.0, 1)}};
  system.run(arrivals);
  const auto& m = system.metrics();
  EXPECT_EQ(m.arrived, 1u);
  EXPECT_EQ(m.accepted_local, 1u);
  EXPECT_EQ(m.accepted_remote, 0u);
  EXPECT_EQ(m.deadline_misses, 0u);
  // A local acceptance uses zero protocol messages.
  EXPECT_EQ(m.transport.total_link_messages, 0u);
}

TEST(RtdsSystem, OverloadedSiteDistributes) {
  RtdsSystem system(grid3x3(), default_config());
  // Back-to-back jobs at the same site with tight-ish laxity: the first is
  // local; later ones cannot all fit locally and must distribute.
  std::vector<JobArrival> arrivals;
  for (JobId id = 1; id <= 6; ++id)
    arrivals.push_back({4, make_job(id, 0.1 * double(id), 1.6, id)});
  system.run(arrivals);
  const auto& m = system.metrics();
  EXPECT_EQ(m.arrived, 6u);
  EXPECT_GT(m.accepted_remote, 0u) << "expected at least one distribution";
  EXPECT_EQ(m.deadline_misses, 0u);
  EXPECT_GT(m.transport.total_link_messages, 0u);
}

TEST(RtdsSystem, ImpossibleDeadlineRejected) {
  RtdsSystem system(grid3x3(), default_config());
  auto job = make_job(1, 0.0, 10.0, 3);
  // Deadline below the critical path: nothing can schedule this.
  auto impossible = std::make_shared<Job>(*job);
  impossible->deadline = job->release + 0.01;
  std::vector<JobArrival> arrivals{{0, impossible}};
  system.run(arrivals);
  EXPECT_EQ(system.metrics().rejected, 1u);
}

TEST(RtdsSystem, IsolatedSiteRejectsWhenLocalFails) {
  // Single-site "network": PCS = {self}; distribution impossible.
  Topology topo;
  topo.add_site();
  SystemConfig cfg = default_config();
  RtdsSystem system(std::move(topo), cfg);
  auto a = make_job(1, 0.0, 10.0, 1);
  auto b = std::make_shared<Job>(*make_job(2, 0.0, 1.0, 2));
  // b's window roughly equals its critical path; after a is accepted the
  // single site cannot hold b as well.
  std::vector<JobArrival> arrivals{{0, a}, {0, b}};
  system.run(arrivals);
  const auto& m = system.metrics();
  EXPECT_EQ(m.arrived, 2u);
  EXPECT_EQ(m.accepted_local, 1u);
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.reject_by_reason.at(static_cast<int>(RejectReason::kNoCandidates)),
            1u);
}

TEST(RtdsSystem, WorkloadRunNackPolicy) {
  WorkloadConfig wl;
  wl.arrival_rate_per_site = 0.01;
  wl.horizon = 800.0;
  wl.seed = 99;
  const auto arrivals = generate_workload(9, wl);
  ASSERT_GT(arrivals.size(), 20u);
  RtdsSystem system(grid3x3(), default_config());
  system.run(arrivals);
  const auto& m = system.metrics();
  EXPECT_EQ(m.arrived, arrivals.size());
  EXPECT_EQ(m.arrived, m.accepted() + m.rejected);
  EXPECT_EQ(m.deadline_misses, 0u);
  // run() already enforced: all locks released, queues drained.
}

TEST(RtdsSystem, WorkloadRunTimeoutPolicy) {
  WorkloadConfig wl;
  wl.arrival_rate_per_site = 0.01;
  wl.horizon = 800.0;
  wl.seed = 99;
  const auto arrivals = generate_workload(9, wl);
  SystemConfig cfg = default_config();
  cfg.node.enroll_policy = EnrollPolicy::kTimeout;
  RtdsSystem system(grid3x3(), cfg);
  system.run(arrivals);
  EXPECT_EQ(system.metrics().deadline_misses, 0u);
  EXPECT_EQ(system.metrics().arrived, arrivals.size());
}

TEST(RtdsSystem, MessagesBoundedBySphere) {
  // Per-job link messages must be bounded by the sphere: each protocol
  // round contacts at most |PCS|-1 members, each at most hop-diameter hops,
  // and there are at most 4 rounds (enroll, enroll-reply, validate+reply,
  // dispatch) plus unlocks.
  WorkloadConfig wl;
  wl.arrival_rate_per_site = 0.02;
  wl.horizon = 500.0;
  wl.seed = 7;
  const auto arrivals = generate_workload(9, wl);
  RtdsSystem system(grid3x3(), default_config());
  system.run(arrivals);

  std::size_t max_pcs = 0, max_hop_diam = 0;
  for (SiteId s = 0; s < 9; ++s) {
    max_pcs = std::max(max_pcs, system.node(s).pcs().size());
    max_hop_diam = std::max(max_hop_diam, system.node(s).pcs().hop_diameter());
  }
  const double bound =
      8.0 * static_cast<double>(max_pcs) * static_cast<double>(max_hop_diam);
  for (const auto& d : system.decisions())
    EXPECT_LE(static_cast<double>(d.link_messages), bound)
        << "job " << d.job << " used " << d.link_messages;
}

TEST(RtdsSystem, AcceptedRemoteJobsCompleteOnTime) {
  // Stress: heavy load on a small net; verify_invariants (inside run)
  // asserts completion-by-deadline for every accepted job.
  WorkloadConfig wl;
  wl.arrival_rate_per_site = 0.05;
  wl.horizon = 400.0;
  wl.laxity_min = 1.2;
  wl.laxity_max = 3.0;
  wl.seed = 31;
  const auto arrivals = generate_workload(9, wl);
  RtdsSystem system(grid3x3(), default_config());
  system.run(arrivals);
  const auto& m = system.metrics();
  EXPECT_EQ(m.deadline_misses, 0u);
  if (m.accepted() > 0) {
    EXPECT_LE(m.job_lateness.max(), 1e-7);
  }
}

TEST(RtdsSystem, MeasuredPcsBuildMatchesInMemory) {
  SystemConfig cfg = default_config();
  cfg.measure_pcs_build_cost = true;
  RtdsSystem system(grid3x3(), cfg);  // ctor cross-checks tables
  EXPECT_GT(system.metrics().pcs_build_messages, 0u);
}

TEST(RtdsSystem, AdjustmentCasesObserved) {
  WorkloadConfig wl;
  wl.arrival_rate_per_site = 0.04;
  wl.horizon = 600.0;
  wl.laxity_min = 1.1;
  wl.laxity_max = 5.0;
  wl.seed = 5;
  const auto arrivals = generate_workload(9, wl);
  RtdsSystem system(grid3x3(), default_config());
  system.run(arrivals);
  // Under mixed laxity some distributed jobs should land in case ii.
  std::uint64_t mapped = 0;
  for (const auto& [c, count] : system.metrics().adjustment_cases)
    mapped += count;
  EXPECT_GT(mapped, 0u);
}


TEST(RtdsSystemEdge, SingleTaskJobs) {
  RtdsSystem system(grid3x3(), default_config());
  std::vector<JobArrival> arrivals;
  for (JobId id = 1; id <= 5; ++id) {
    auto job = std::make_shared<Job>();
    job->id = id;
    job->dag.add_task(3.0);
    job->dag.finalize();
    job->release = double(id);
    job->deadline = job->release + 4.0;
    arrivals.push_back({static_cast<SiteId>(id % 9), job});
  }
  system.run(arrivals);
  EXPECT_EQ(system.metrics().accepted(), 5u);
  EXPECT_EQ(system.metrics().deadline_misses, 0u);
}

TEST(RtdsSystemEdge, EmptyDagAcceptedTrivially) {
  RtdsSystem system(grid3x3(), default_config());
  auto job = std::make_shared<Job>();
  job->id = 1;
  job->dag.finalize();  // zero tasks
  job->release = 0.0;
  job->deadline = 1.0;
  system.run({{0, job}});
  EXPECT_EQ(system.metrics().accepted_local, 1u);
}

TEST(RtdsSystemEdge, DuplicateJobIdsRejected) {
  RtdsSystem system(grid3x3(), default_config());
  auto a = make_job(7, 0.0, 5.0, 1);
  auto b = make_job(7, 1.0, 5.0, 2);
  EXPECT_THROW(system.run({{0, a}, {1, b}}), ContractViolation);
}

TEST(RtdsSystemEdge, EmptyWindowRejectedUpfront) {
  RtdsSystem system(grid3x3(), default_config());
  auto job = make_job(1, 5.0, 1.0, 3);
  auto broken = std::make_shared<Job>(*job);
  broken->deadline = broken->release;
  EXPECT_THROW(system.run({{0, broken}}), ContractViolation);
}

TEST(RtdsSystemEdge, DisconnectedTopologyRejected) {
  Topology topo;
  topo.add_site();
  topo.add_site();  // no link
  EXPECT_THROW(RtdsSystem(std::move(topo), default_config()),
               ContractViolation);
}

TEST(RtdsSystemEdge, NullJobRejected) {
  RtdsSystem system(grid3x3(), default_config());
  EXPECT_THROW(system.run({{0, nullptr}}), ContractViolation);
}

TEST(RtdsSystemEdge, RunTwiceRejected) {
  RtdsSystem system(grid3x3(), default_config());
  system.run({});
  EXPECT_THROW(system.run({}), ContractViolation);
}

TEST(RtdsSystemEdge, ArrivalAtLastInstantStillDecided) {
  // A job whose release leaves exactly its critical path of slack: the
  // local test either fits it at the very edge or rejects it — either way
  // a decision is recorded and invariants hold.
  RtdsSystem system(grid3x3(), default_config());
  Rng rng(9);
  auto job = std::make_shared<Job>();
  job->id = 1;
  job->dag = make_chain(3, CostRange{2.0, 2.0}, rng);
  job->release = 100.0;
  job->deadline = 100.0 + 6.0 + 1e-6;  // exactly the work, plus epsilon
  system.run({{4, job}});
  EXPECT_EQ(system.decisions().size(), 1u);
  EXPECT_EQ(system.metrics().accepted_local, 1u);  // fits exactly
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Runs `arrivals` under the invariant checker and an obs scope; returns
/// the digests of the RunMetrics line and of the trace.
std::pair<std::uint64_t, std::uint64_t> traced_run(
    Topology topo, SystemConfig cfg, const std::vector<JobArrival>& arrivals) {
  cfg.check_invariants = true;
  obs::MetricsBuffer buf;
  obs::TraceRecorder trace;
  RtdsSystem system(std::move(topo), cfg);
  {
    obs::Scope scope(&buf, &trace);
    system.run(arrivals);
  }
  EXPECT_EQ(system.metrics().arrived, arrivals.size());
  EXPECT_EQ(system.metrics().invariant_violations, 0u);
  std::ostringstream metrics, events;
  system.metrics().to_jsonl(metrics);
  obs::TraceRecorder::write_jsonl(events, std::span(&trace, 1));
  return {fnv1a(metrics.str()), fnv1a(events.str())};
}

// Ties at one instant fire in scheduling order: the fault plan's events
// (posted by the constructor) first, then the arrivals in vector order.
// Here arrivals share release instants with each other (out of vector
// order) and with a link failure and a site crash, one of them at the
// crashed site. The digests pin the outcome of every tie, so a change to
// how arrivals are queued cannot silently reorder them.
TEST(RtdsSystemTies, SharedReleaseInstantsArePinned) {
  SystemConfig cfg = default_config();
  cfg.faults.events = {{5.0, fault::FaultKind::kLinkDown, 4, 5},
                       {5.0, fault::FaultKind::kSiteDown, 8},
                       {9.0, fault::FaultKind::kLinkUp, 4, 5},
                       {14.0, fault::FaultKind::kSiteUp, 8}};
  const Time releases[] = {5.0, 0.0, 5.0, 9.0, 5.0, 0.0, 9.0, 5.0, 2.5, 5.0};
  const SiteId sites[] = {4, 4, 5, 8, 8, 0, 4, 4, 3, 1};
  std::vector<JobArrival> arrivals;
  for (JobId i = 0; i < 10; ++i)
    arrivals.push_back({sites[i], make_job(i + 1, releases[i], 1.8, 100 + i)});
  const auto [metrics, events] = traced_run(grid3x3(), cfg, arrivals);
  EXPECT_EQ(metrics, 9306589605536969604ull);
#if RTDS_OBS_ENABLED
  EXPECT_EQ(events, 3505708527365110693ull);
#endif
}

// With every link delay exactly 1, protocol events land on release
// instants too: the second job at site 4 enrolls at t = 0, so replies and
// its mapper fire at t = 2, the instant three more arrivals are released.
// An arrival fires before every event scheduled during the run at its
// instant, because its seq was reserved at start.
TEST(RtdsSystemTies, ArrivalsBeatProtocolEventsAtTheirInstant) {
  Rng rng(3);
  Topology topo = make_grid(3, 3, DelayRange{1.0, 1.0}, rng);
  SystemConfig cfg = default_config();
  cfg.faults.events = {{2.0, fault::FaultKind::kSiteDown, 8},
                       {4.0, fault::FaultKind::kSiteUp, 8}};
  const Time releases[] = {0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 4.0, 2.0, 6.0};
  const SiteId sites[] = {4, 4, 0, 0, 8, 4, 5, 3, 4};
  std::vector<JobArrival> arrivals;
  for (JobId i = 0; i < 9; ++i)
    arrivals.push_back({sites[i], make_job(i + 1, releases[i], 1.3, 200 + i)});
  const auto [metrics, events] = traced_run(std::move(topo), cfg, arrivals);
  EXPECT_EQ(metrics, 3237315575100072233ull);
#if RTDS_OBS_ENABLED
  EXPECT_EQ(events, 11317252451943705955ull);
#endif
}

/// `n` single-task jobs spread over the 3x3 grid's sites and releases.
std::vector<JobArrival> many_arrivals(std::size_t n) {
  std::vector<JobArrival> arrivals;
  arrivals.reserve(n);
  Rng rng(5);
  for (std::size_t i = 0; i < n; ++i) {
    auto job = std::make_shared<Job>();
    job->id = i + 1;
    job->dag = make_chain(1, CostRange{1.0, 3.0}, rng);
    job->release = static_cast<double>((i * 7919) % n) * 0.5;
    job->deadline = job->release + 20.0;
    arrivals.push_back({static_cast<SiteId>(i % 9), std::move(job)});
  }
  return arrivals;
}

// A closed run queues one arrival at a time, so the simulator's standing
// population right after start() does not grow with the arrival count.
TEST(RtdsSystemArrivals, StartQueuesOneArrivalWhateverTheCount) {
  for (const std::size_t n : {10u, 10'000u}) {
    SCOPED_TRACE(n);
    SystemConfig cfg = default_config();
    cfg.faults.events = {{3.0, fault::FaultKind::kLinkDown, 4, 5},
                         {6.0, fault::FaultKind::kLinkUp, 4, 5}};
    RtdsSystem system(grid3x3(), cfg);
    system.start(many_arrivals(n));
    EXPECT_EQ(system.simulator().pending(), 2u + 1u);
  }
}

// The system keeps its own copy of a closed run's arrivals: the caller's
// vector may die right after start() (under ASan a borrowed vector would
// be a use after free), and the run still ends exactly as run() does.
TEST(RtdsSystemArrivals, CallerVectorMayDieAfterStart) {
  const std::vector<JobArrival> arrivals = many_arrivals(400);
  RtdsSystem reference(grid3x3(), default_config());
  reference.run(arrivals);

  RtdsSystem system(grid3x3(), default_config());
  {
    auto copy = std::make_unique<std::vector<JobArrival>>();
    for (const JobArrival& a : arrivals)
      copy->push_back({a.site, std::make_shared<Job>(*a.job)});
    system.start(*copy);
  }
  while (system.step_events(64) > 0) {
  }
  system.finish();
  std::ostringstream want, got;
  reference.metrics().to_jsonl(want);
  system.metrics().to_jsonl(got);
  EXPECT_EQ(got.str(), want.str());
  EXPECT_EQ(system.metrics().arrived, 400u);
}

}  // namespace
}  // namespace rtds
