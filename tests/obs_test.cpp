// Observability-layer tests (DESIGN.md §11).
//
// Three contracts, in order of importance:
//  1. *Non-interference*: attaching metrics/trace capture to a run must
//     not change the run. The reduced-E1 CSV digest with observation
//     bound must equal determinism_test's golden constant — in the
//     default build AND with -DRTDS_OBS=OFF (the CI obs-off job builds
//     this same test with the layer compiled out).
//  2. *Worker-count invariance*: merged metrics JSONL and trace bytes are
//     identical at --jobs 1, 3 and 8 — observability output is a
//     determinism surface exactly like the scenario tables, pinned here
//     by a golden digest recorded from the serial run.
//  3. Registry/buffer/recorder unit semantics (interning, kind conflict,
//     histogram bins, merge algebra, scope nesting).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <string>

#include "baseline/offload.hpp"
#include "core/metrics.hpp"
#include "core/rtds_system.hpp"
#include "core/workload.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenarios.hpp"
#include "exp/sinks.hpp"
#include "net/generators.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace rtds::exp {
namespace {

// Golden constant shared with determinism_test.cpp: the reduced-E1 CSV
// digest recorded on the pre-rewrite core. Observation must not move it.
constexpr std::uint64_t kE1CsvDigest = 5809446339941925635ull;

#if RTDS_OBS_ENABLED
// Golden digests of the reduced-E1 observability surfaces, recorded from
// the serial (--jobs 1) run of this test. Any worker count must
// reproduce them byte-for-byte.
constexpr std::uint64_t kE1TraceJsonlDigest = 2952125611437769674ull;
constexpr std::uint64_t kE1ChromeTraceDigest = 11283816000779628912ull;
constexpr std::uint64_t kE1MetricsDigest = 933946784402825154ull;
#endif

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Reduced E1 (16/36/64 sites), same restriction as determinism_test.
ScenarioSpec reduced_e1() {
  register_builtin_scenarios();
  const ScenarioSpec* base = Registry::instance().find("e1_message_bound");
  EXPECT_NE(base, nullptr);
  ScenarioSpec spec = *base;
  spec.axes.at(0).values.resize(3);
  return spec;
}

struct ObservedRun {
  std::uint64_t csv_digest = 0;
  std::uint64_t trace_jsonl_digest = 0;
  std::uint64_t chrome_digest = 0;
  std::uint64_t metrics_digest = 0;
  std::size_t trace_events = 0;
};

ObservedRun run_observed_e1(std::size_t jobs) {
  const ScenarioSpec spec = reduced_e1();
  RunObservation observation;
  RunOptions opts;
  opts.jobs = jobs;
  opts.observe = &observation;
  const auto rows = run_scenario(spec, opts);

  ObservedRun r;
  std::ostringstream csv;
  CsvSink{}.write(spec, rows, csv);
  r.csv_digest = fnv1a(csv.str());

  std::ostringstream tj, tc, mj;
  obs::TraceRecorder::write_jsonl(tj, observation.traces);
  obs::TraceRecorder::write_chrome(tc, observation.traces);
  observation.metrics.write_jsonl(mj);
  r.trace_jsonl_digest = fnv1a(tj.str());
  r.chrome_digest = fnv1a(tc.str());
  r.metrics_digest = fnv1a(mj.str());
  for (const auto& t : observation.traces) r.trace_events += t.size();
  return r;
}

// --- RunMetrics::to_jsonl (both build modes) ----------------------------

TEST(RunMetricsJsonl, OneDeterministicLinePerRecord) {
  RunMetrics m;
  JobDecision accept;
  accept.job = 7;
  accept.outcome = JobOutcome::kAcceptedRemote;
  accept.arrival = 1.0;
  accept.decision_time = 3.5;
  accept.acs_size = 4;
  accept.link_messages = 12;
  m.record(accept);
  JobDecision reject;
  reject.job = 8;
  reject.outcome = JobOutcome::kRejected;
  reject.reject_reason = RejectReason::kMatchingFailed;
  m.record(reject);

  std::ostringstream a, b;
  m.to_jsonl(a);
  m.to_jsonl(b);
  EXPECT_EQ(a.str(), b.str());
  const std::string line = a.str();
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "must be one JSONL row";
  EXPECT_NE(line.find("\"arrived\":2"), std::string::npos) << line;
  EXPECT_NE(line.find("\"accepted_remote\":1"), std::string::npos);
  EXPECT_NE(line.find("\"reject_by_reason\":{\"matching_failed\":1}"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"acs_size\":{\"count\":1,\"mean\":4"),
            std::string::npos)
      << line;
}

// --- contract 1: non-interference --------------------------------------

TEST(ObsParity, ObservedRunReproducesGoldenCsvDigest) {
  // Holds in BOTH build modes: with obs compiled out the Scope is a
  // no-op; compiled in, capture must still not perturb the simulation.
  EXPECT_EQ(run_observed_e1(1).csv_digest, kE1CsvDigest);
  EXPECT_EQ(run_observed_e1(8).csv_digest, kE1CsvDigest);
}

#if RTDS_OBS_ENABLED

// --- contract 2: worker-count invariance + golden digests ---------------

TEST(ObsDeterminism, TraceAndMetricsInvariantUnderWorkerCount) {
  const ObservedRun serial = run_observed_e1(1);
  EXPECT_GT(serial.trace_events, 0u);
  EXPECT_EQ(serial.trace_jsonl_digest, kE1TraceJsonlDigest);
  EXPECT_EQ(serial.chrome_digest, kE1ChromeTraceDigest);
  EXPECT_EQ(serial.metrics_digest, kE1MetricsDigest);
  for (const std::size_t jobs : {3u, 8u}) {
    const ObservedRun parallel = run_observed_e1(jobs);
    EXPECT_EQ(parallel.trace_jsonl_digest, serial.trace_jsonl_digest)
        << "trace JSONL bytes changed at jobs=" << jobs;
    EXPECT_EQ(parallel.chrome_digest, serial.chrome_digest)
        << "chrome trace bytes changed at jobs=" << jobs;
    EXPECT_EQ(parallel.metrics_digest, serial.metrics_digest)
        << "metrics JSONL bytes changed at jobs=" << jobs;
  }
}

TEST(ObsDeterminism, ObservedMetricsCoverEveryLayer) {
  const ScenarioSpec spec = reduced_e1();
  RunObservation observation;
  RunOptions opts;
  opts.jobs = 4;
  opts.observe = &observation;
  run_scenario(spec, opts);
  const obs::MetricsBuffer& m = observation.metrics;
  // One counter from each instrumented layer must be live.
  EXPECT_GT(m.sum("net.sends"), 0u) << "sim/network layer silent";
  EXPECT_GT(m.sum("apsp.build.calls"), 0u) << "routing layer silent";
  EXPECT_GT(m.sum("jobs.decided"), 0u) << "metrics choke point silent";
  EXPECT_GT(m.sum("admit.edf.calls"), 0u) << "admission layer silent";
  EXPECT_GT(m.sum("protocol.rounds"), 0u) << "protocol layer silent";
  // Traffic accounting must agree with the closed category set: the
  // per-category counters sum to the total.
  std::uint64_t category_sends = 0;
  for (const char* name :
       {"net.msg.enroll.sends", "net.msg.enroll_reply.sends",
        "net.msg.unlock.sends", "net.msg.validate.sends",
        "net.msg.validate_reply.sends", "net.msg.dispatch.sends",
        "net.msg.bid_request.sends", "net.msg.bid_reply.sends",
        "net.msg.offer.sends", "net.msg.offer_reply.sends",
        "net.msg.surplus_flood.sends", "net.msg.focused_offer.sends",
        "net.msg.focused_reply.sends", "net.msg.apsp.sends",
        "net.msg.cat0.sends"})
    category_sends += m.sum(name);
  EXPECT_EQ(category_sends, m.sum("net.sends"));
}

/// One run's metrics JSONL and trace JSONL, observed under a fresh scope.
struct ObservedBytes {
  std::string metrics;
  std::string trace;
};

template <class Run>
ObservedBytes observe(Run run) {
  obs::MetricsBuffer metrics;
  obs::TraceRecorder trace;
  {
    obs::Scope scope(&metrics, &trace);
    run();
  }
  std::ostringstream mj, tj;
  metrics.write_jsonl(mj);
  obs::TraceRecorder::write_jsonl(tj, std::span(&trace, 1));
  return {mj.str(), tj.str()};
}

// The reduced E1 above traces only RTDS and BCAST message names; these
// pin the BID and APSP-exchange ones (bid_request, offer, apsp).
TEST(ObsDeterminism, BidRunAndApspBringUpDigestsArePinned) {
  Rng rng(9);
  const Topology topo = make_grid(4, 4, DelayRange{0.5, 1.5}, rng);
  WorkloadConfig wl;
  wl.arrival_rate_per_site = 0.05;
  wl.horizon = 150.0;
  wl.seed = 13;
  const auto arrivals = generate_workload(topo.site_count(), wl);

  const ObservedBytes bid =
      observe([&] { run_offload(topo, arrivals, OffloadConfig{}); });
  EXPECT_NE(bid.trace.find("\"bid_request\""), std::string::npos);
  EXPECT_NE(bid.trace.find("\"offer\""), std::string::npos);
  EXPECT_EQ(fnv1a(bid.metrics), 13262334014469485424ull);
  EXPECT_EQ(fnv1a(bid.trace), 14779372278663809514ull);

  SystemConfig cfg;
  cfg.measure_pcs_build_cost = true;
  const ObservedBytes bring_up = observe([&] { RtdsSystem system(topo, cfg); });
  EXPECT_NE(bring_up.trace.find("\"apsp\""), std::string::npos);
  EXPECT_EQ(fnv1a(bring_up.metrics), 14580576142709152222ull);
  EXPECT_EQ(fnv1a(bring_up.trace), 15362299809241690300ull);
}

// --- contract 3: unit semantics ----------------------------------------

TEST(ObsRegistry, InterningIsIdempotentAndKindChecked) {
  auto& reg = obs::Registry::instance();
  const obs::MetricId a = reg.counter("test.obs.interning");
  const obs::MetricId b = reg.counter("test.obs.interning");
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(reg.name(a), "test.obs.interning");
  EXPECT_EQ(reg.kind(a), obs::MetricKind::kCounter);
  EXPECT_THROW(reg.histogram("test.obs.interning"), ContractViolation);
}

TEST(ObsBuffer, HistogramBinsAndMergeAlgebra) {
  auto& reg = obs::Registry::instance();
  const obs::MetricId h = reg.histogram("test.obs.hist");
  obs::MetricsBuffer a, b;
  a.observe(h, 0);   // bin 0
  a.observe(h, 1);   // bin 1: [1, 2)
  b.observe(h, 7);   // bin 3: [4, 8)
  b.observe(h, 8);   // bin 4: [8, 16)
  obs::MetricsBuffer ab, ba;
  ab.merge(a);
  ab.merge(b);
  ba.merge(b);
  ba.merge(a);
  std::ostringstream ab_os, ba_os;
  ab.write_jsonl(ab_os);
  ba.write_jsonl(ba_os);
  EXPECT_EQ(ab_os.str(), ba_os.str()) << "merge must be commutative";
  EXPECT_NE(ab_os.str().find("\"bins\":{\"0\":1,\"1\":1,\"3\":1,\"4\":1}"),
            std::string::npos)
      << ab_os.str();
  EXPECT_EQ(ab.count("test.obs.hist"), 4u);
  EXPECT_EQ(ab.sum("test.obs.hist"), 16u);
}

TEST(ObsScope, MacrosAttributeToTheBoundBufferOnly) {
  obs::MetricsBuffer outer, inner;
  RTDS_COUNT("test.obs.scope");  // unbound: must be dropped
  {
    obs::Scope bind_outer(&outer);
    RTDS_COUNT("test.obs.scope");
    {
      obs::Scope bind_inner(&inner);
      RTDS_COUNT_N("test.obs.scope", 5);
    }
    RTDS_COUNT("test.obs.scope");  // restored to outer
  }
  RTDS_COUNT("test.obs.scope");  // unbound again
  EXPECT_EQ(outer.sum("test.obs.scope"), 2u);
  EXPECT_EQ(inner.sum("test.obs.scope"), 5u);
}

TEST(ObsTrace, ChromeExportShapesSpansAndInstants) {
  std::vector<obs::TraceRecorder> trials(2);
  trials[0].begin("protocol", "round", 1.5, 3, 42, 7);
  trials[0].end("protocol", "round", 2.5, 3, 42, 1);
  trials[1].instant("net", "enroll", 0.25, 1, 2, 4);
  std::ostringstream os;
  obs::TraceRecorder::write_chrome(os, trials);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"i\",\"s\":\"t\""), std::string::npos);
  EXPECT_NE(out.find("\"id2\":{\"local\":\"0x2a\"}"), std::string::npos);
  EXPECT_NE(out.find("\"pid\":1"), std::string::npos);  // trial 1 process
  EXPECT_NE(out.find("\"ts\":1.5"), std::string::npos);
}

TEST(ObsProfiler, DisabledScopesRecordNothing) {
  obs::Profiler::set_enabled(false);
  obs::Profiler::instance().reset();
  { RTDS_OBS_PHASE("test.obs.phase"); }
  std::ostringstream off;
  obs::Profiler::instance().report(off);
  EXPECT_NE(off.str().find("no phases recorded"), std::string::npos);

  obs::Profiler::set_enabled(true);
  { RTDS_OBS_PHASE("test.obs.phase"); }
  obs::Profiler::set_enabled(false);
  std::ostringstream on;
  obs::Profiler::instance().report(on);
  EXPECT_NE(on.str().find("test.obs.phase"), std::string::npos);
  obs::Profiler::instance().reset();
}

#else  // !RTDS_OBS_ENABLED

TEST(ObsDisabled, CaptureStaysEmptyAndMacrosCompileOut) {
  const ScenarioSpec spec = reduced_e1();
  RunObservation observation;
  RunOptions opts;
  opts.jobs = 2;
  opts.observe = &observation;
  run_scenario(spec, opts);
  EXPECT_TRUE(observation.metrics.empty());
  for (const auto& t : observation.traces) EXPECT_TRUE(t.empty());
  obs::MetricsBuffer buf;
  {
    obs::Scope scope(&buf);
    RTDS_COUNT("test.obs.disabled");
    RTDS_HIST("test.obs.disabled.h", 3);
  }
  EXPECT_TRUE(buf.empty());
}

#endif  // RTDS_OBS_ENABLED

}  // namespace
}  // namespace rtds::exp
