// Open-system traffic engine tests (src/load/): arrival-source
// determinism, lazy-vs-eager bit-equality, trace-replay validation,
// quantile-sketch merge invariance, warm-up trimming, shed-policy job
// conservation under the §12 invariant checker, and a pinned reduced
// e9_steady_state CSV digest at 1/3/8 workers.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/trace_io.hpp"
#include "exp/condition.hpp"
#include "exp/runner.hpp"
#include "exp/scenarios.hpp"
#include "exp/sinks.hpp"
#include "load/engine.hpp"
#include "load/source.hpp"
#include "load/window.hpp"
#include "net/generators.hpp"
#include "policy/policy.hpp"
#include "util/error.hpp"

namespace rtds::load {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

ArrivalSpec small_spec(ArrivalKind kind, std::uint64_t seed) {
  ArrivalSpec spec;
  spec.kind = kind;
  spec.site_count = 8;
  spec.workload.arrival_rate_per_site = 0.05;
  spec.workload.seed = seed;
  return spec;
}

std::string stream_bytes(ArrivalSource& source, Time duration) {
  return trace_to_string(drain(source, duration));
}

// ---------------------------------------------------------------- sources

TEST(ArrivalSource, SameSeedSameStream) {
  for (const auto kind :
       {ArrivalKind::kPoisson, ArrivalKind::kBursty, ArrivalKind::kDiurnal}) {
    const auto a = make_arrival_source(small_spec(kind, 7));
    const auto b = make_arrival_source(small_spec(kind, 7));
    EXPECT_EQ(stream_bytes(*a, 400.0), stream_bytes(*b, 400.0))
        << to_string(kind);
  }
}

TEST(ArrivalSource, DifferentSeedDifferentStream) {
  const auto a = make_arrival_source(small_spec(ArrivalKind::kPoisson, 7));
  const auto b = make_arrival_source(small_spec(ArrivalKind::kPoisson, 8));
  EXPECT_NE(stream_bytes(*a, 400.0), stream_bytes(*b, 400.0));
}

// The lazy heap-merged stream and the eager sort-everything reference are
// genuinely different merge paths; bit-equal serialization pins the
// (release, site) order and the dense-id contract between them.
TEST(ArrivalSource, LazyMatchesEagerGeneration) {
  for (const auto kind :
       {ArrivalKind::kPoisson, ArrivalKind::kBursty, ArrivalKind::kDiurnal}) {
    const ArrivalSpec spec = small_spec(kind, 21);
    const auto lazy = make_arrival_source(spec);
    const auto eager = generate_open_workload(spec, 500.0);
    EXPECT_GT(eager.size(), 10u) << to_string(kind);
    EXPECT_EQ(stream_bytes(*lazy, 500.0), trace_to_string(eager))
        << to_string(kind);
  }
}

TEST(ArrivalSource, IdsDenseFromOne) {
  const auto source = make_arrival_source(small_spec(ArrivalKind::kPoisson, 3));
  const auto arrivals = drain(*source, 300.0);
  ASSERT_FALSE(arrivals.empty());
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    EXPECT_EQ(arrivals[i].job->id, JobId(i + 1));
}

TEST(ArrivalSource, TraceReplayRoundTrips) {
  const ArrivalSpec gen = small_spec(ArrivalKind::kPoisson, 11);
  const auto original = generate_open_workload(gen, 300.0);
  ArrivalSpec replay;
  replay.kind = ArrivalKind::kTrace;
  replay.site_count = gen.site_count;
  replay.trace = trace_from_string(trace_to_string(original), gen.site_count);
  const auto source = make_arrival_source(replay);
  EXPECT_EQ(stream_bytes(*source, 1e18), trace_to_string(original));
}

// ------------------------------------------------- trace-input validation

/// A small valid trace plus a field-level tamper hook: rewrites the i-th
/// "job <id> <site> <release> <deadline>" header line.
std::string tampered_trace(std::size_t job_index,
                           const std::function<std::string(
                               JobId, std::size_t, Time, Time)>& rewrite) {
  const auto arrivals =
      generate_open_workload(small_spec(ArrivalKind::kPoisson, 5), 200.0);
  EXPECT_GT(arrivals.size(), job_index);
  std::istringstream in(trace_to_string(arrivals));
  std::ostringstream out;
  std::string line;
  std::size_t seen = 0;
  while (std::getline(in, line)) {
    if (line.rfind("job ", 0) == 0 && seen++ == job_index) {
      std::istringstream fields(line);
      std::string word;
      JobId id;
      std::size_t site;
      Time release, deadline;
      fields >> word >> id >> site >> release >> deadline;
      out << rewrite(id, site, release, deadline) << "\n";
    } else {
      out << line << "\n";
    }
  }
  return out.str();
}

std::string violation_message(const std::string& text, std::size_t sites) {
  try {
    trace_from_string(text, sites);
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return "";  // no throw: the caller's EXPECT on "line" fails
}

TEST(TraceValidation, RejectsOutOfRangeSite) {
  const auto text = tampered_trace(1, [](JobId id, std::size_t, Time r,
                                         Time d) {
    std::ostringstream os;
    os << "job " << id << " 99 " << r << ' ' << d;
    return os.str();
  });
  const std::string msg = violation_message(text, 8);
  EXPECT_NE(msg.find("line"), std::string::npos) << msg;
  EXPECT_NE(msg.find("outside"), std::string::npos) << msg;
  // Without a site count the range check is off and the trace is fine.
  EXPECT_NO_THROW(trace_from_string(text));
}

TEST(TraceValidation, RejectsNaNTimes) {
  const auto text =
      tampered_trace(0, [](JobId id, std::size_t site, Time, Time d) {
        std::ostringstream os;
        os << "job " << id << ' ' << site << " nan " << d;
        return os.str();
      });
  const std::string msg = violation_message(text, 8);
  EXPECT_NE(msg.find("line"), std::string::npos) << msg;
  // libstdc++ operator>> refuses the token "nan" outright (failbit), so the
  // rejection may surface as a format error; either way the line is named.
  EXPECT_TRUE(msg.find("non-finite") != std::string::npos ||
              msg.find("expected 'job") != std::string::npos)
      << msg;
}

TEST(TraceValidation, RejectsNegativeTimes) {
  const auto text =
      tampered_trace(0, [](JobId id, std::size_t site, Time, Time d) {
        std::ostringstream os;
        os << "job " << id << ' ' << site << " -1.5 " << d;
        return os.str();
      });
  const std::string msg = violation_message(text, 8);
  EXPECT_NE(msg.find("line"), std::string::npos) << msg;
  EXPECT_NE(msg.find("negative"), std::string::npos) << msg;
}

TEST(TraceValidation, RejectsEmptyWindow) {
  const auto text =
      tampered_trace(0, [](JobId id, std::size_t site, Time r, Time) {
        std::ostringstream os;
        os << "job " << id << ' ' << site << ' ' << r << ' ' << r;
        return os.str();
      });
  const std::string msg = violation_message(text, 8);
  EXPECT_NE(msg.find("line"), std::string::npos) << msg;
  EXPECT_NE(msg.find("empty window"), std::string::npos) << msg;
}

TEST(TraceValidation, RejectsNonMonotoneOrder) {
  // Push job 0's release past job 1's: breaks the arrival-order contract.
  const auto text =
      tampered_trace(0, [](JobId id, std::size_t site, Time, Time) {
        std::ostringstream os;
        os << "job " << id << ' ' << site << " 1e8 2e8";
        return os.str();
      });
  const std::string msg = violation_message(text, 8);
  EXPECT_NE(msg.find("line"), std::string::npos) << msg;
  EXPECT_NE(msg.find("arrival order"), std::string::npos) << msg;
}

TEST(TraceValidation, RejectsDuplicateJobIds) {
  const auto text =
      tampered_trace(1, [](JobId, std::size_t site, Time r, Time d) {
        std::ostringstream os;
        os << "job 1 " << site << ' ' << r << ' ' << d;
        return os.str();
      });
  const std::string msg = violation_message(text, 8);
  EXPECT_NE(msg.find("duplicate"), std::string::npos) << msg;
}

// ------------------------------------------------------- windows / sketch

TEST(QuantileSketch, MergeOrderInvariant) {
  QuantileSketch a, b, c;
  for (int i = 1; i <= 100; ++i) a.add(0.13 * i);
  for (int i = 1; i <= 50; ++i) b.add(7.0 + 0.4 * i);
  for (int i = 1; i <= 25; ++i) c.add(0.001 * i);

  QuantileSketch abc, cab;
  abc.merge(a), abc.merge(b), abc.merge(c);
  cab.merge(c), cab.merge(a), cab.merge(b);
  EXPECT_EQ(abc.count(), cab.count());
  for (const double q : {0.1, 0.5, 0.9, 0.95, 0.99})
    EXPECT_EQ(abc.quantile(q), cab.quantile(q)) << q;  // bit-equal, not near
}

TEST(QuantileSketch, BoundedRelativeError) {
  QuantileSketch s(0.01);
  for (int i = 1; i <= 10000; ++i) s.add(double(i));
  for (const double q : {0.5, 0.9, 0.99}) {
    const double exact = q * 10000.0;
    EXPECT_NEAR(s.quantile(q), exact, 0.025 * exact) << q;
  }
}

TEST(SteadyWindows, WarmupTrimAndWindowIndexing) {
  SteadyStateCollector col(WindowConfig{100.0, 50.0, 0.01});
  col.on_completion(10.0, 60.0);    // completion inside warm-up: trimmed
  col.on_completion(90.0, 99.999);  // still inside (exact compare)
  EXPECT_TRUE(col.windows().empty());

  col.on_completion(90.0, 100.0);  // boundary: first window
  col.on_completion(120.0, 180.0);  // window 1
  JobDecision d;
  d.outcome = JobOutcome::kRejected;
  d.reject_reason = RejectReason::kShed;
  d.decision_time = 160.0;  // window 1
  col.on_decision(d);
  d.decision_time = 50.0;  // warm-up: trimmed
  col.on_decision(d);

  ASSERT_EQ(col.windows().size(), 2u);
  EXPECT_EQ(col.windows()[0].completed, 1u);
  EXPECT_EQ(col.windows()[1].completed, 1u);
  EXPECT_EQ(col.windows()[1].shed, 1u);
  EXPECT_EQ(col.windows()[1].rejected, 1u);
  EXPECT_EQ(col.windows()[0].arrived, 0u);

  const SteadySummary s = col.summary();
  EXPECT_EQ(s.completed, 2u);
  EXPECT_DOUBLE_EQ(s.sojourn_mean, (10.0 + 60.0) / 2.0);
}

// The pinned ascending merge must equal feeding every sample into one
// sketch directly — the property that makes the run summary independent
// of how trials interleave across workers.
TEST(SteadyWindows, SummaryEqualsDirectAccumulation) {
  SteadyStateCollector col(WindowConfig{0.0, 25.0, 0.01});
  QuantileSketch direct;
  for (int i = 0; i < 400; ++i) {
    const Time arrival = 0.7 * i;
    const Time completion = arrival + 1.0 + (i % 37) * 0.9;
    col.on_completion(arrival, completion);
    direct.add(completion - arrival);
  }
  const SteadySummary s = col.summary();
  EXPECT_EQ(s.completed, direct.count());
  EXPECT_EQ(s.p50, direct.p50());
  EXPECT_EQ(s.p95, direct.p95());
  EXPECT_EQ(s.p99, direct.p99());
}

// ------------------------------------------------------------- open runs

policy::ParamMap shed_params(const policy::Policy& pol, const char* cap,
                             const char* shed) {
  return policy::ParamMap::parse_pairs(
      {{"h", "2"}, {"shed.cap", cap}, {"shed.policy", shed}},
      pol.describe_params());
}

/// Overloaded open run per shed policy under the fatal §12 checker: jobs
/// must be conserved (decided == submitted — sheds are decisions too) and
/// the pressure must actually shed.
TEST(OpenRun, ShedPoliciesConserveJobsUnderFatalInvariants) {
  Rng rng(42);
  const Topology topo =
      make_net(NetShape::kGrid, 16, DelayRange{0.5, 2.0}, rng);
  policy::register_builtin_policies();  // idempotent
  const auto pol = policy::PolicyRegistry::instance().create("rtds");
  for (const char* shed :
       {"drop_newest", "drop_lowest_laxity", "reject_enroll"}) {
    ArrivalSpec spec = small_spec(ArrivalKind::kPoisson, 42);
    spec.site_count = 16;
    spec.workload.arrival_rate_per_site = 0.2;
    const auto source = make_arrival_source(spec);
    OpenConfig cfg;
    cfg.duration = 150.0;
    cfg.context.check_invariants = true;
    cfg.context.invariants_fatal = true;
    const OpenRunResult r =
        run_open_rtds(topo, *source, cfg, shed_params(*pol, "1", shed));
    const RunMetrics& m = r.metrics;
    EXPECT_EQ(m.invariant_violations, 0u) << shed;
    EXPECT_EQ(m.arrived, m.accepted_local + m.accepted_remote + m.rejected)
        << shed;
    const auto it =
        m.reject_by_reason.find(static_cast<int>(RejectReason::kShed));
    ASSERT_NE(it, m.reject_by_reason.end()) << shed;
    EXPECT_GT(it->second, 0u) << shed;
    EXPECT_EQ(m.deadline_misses, 0u) << shed;
  }
}

/// shed.cap=0 (the default) must leave closed-batch runs byte-identical:
/// the shed/workload keys at their defaults are a no-op.
TEST(OpenRun, DefaultShedKeysAreNoOpOnClosedRuns) {
  policy::register_builtin_policies();  // idempotent
  const auto pol = policy::PolicyRegistry::instance().create("rtds");
  exp::ConditionSpec cs;
  cs.sites = 16;
  cs.horizon = 300.0;
  const exp::Condition c = exp::make_condition(cs);

  const RunMetrics base = pol->run(c.topo, c.arrivals, pol->parse_params({}));
  const RunMetrics keyed = pol->run(
      c.topo, c.arrivals,
      pol->parse_params({"shed.cap=0", "shed.policy=drop_newest",
                         "workload.process=poisson",
                         "workload.deadline=critical_path"}));
  std::ostringstream a, b;
  base.to_jsonl(a);
  keyed.to_jsonl(b);
  EXPECT_EQ(a.str(), b.str());
}

// --------------------------------------------------------- golden digest

/// e9 reduced to poisson/bursty × rate 0.08 × all three shed policies at
/// duration 120 — small enough for CI, big enough that shedding fires.
exp::ScenarioSpec reduced_e9() {
  exp::register_builtin_scenarios();
  const exp::ScenarioSpec* base =
      exp::Registry::instance().find("e9_steady_state");
  EXPECT_NE(base, nullptr);
  exp::ScenarioSpec spec = *base;
  spec.axes.at(0).values.resize(2);  // poisson, bursty
  spec.axes.at(1) = exp::GridAxis::numeric("rate/site", "rate", {0.08}, 3);
  return spec;
}

std::uint64_t e9_digest(std::size_t jobs) {
  const exp::ScenarioSpec spec = reduced_e9();
  exp::RunOptions opts;
  opts.jobs = jobs;
  opts.context.duration = 120.0;
  const auto rows = exp::run_scenario(spec, opts);
  std::ostringstream os;
  exp::CsvSink{}.write(spec, rows, os);
  return fnv1a(os.str());
}

// Recorded from this implementation; any byte drift in the open-system
// engine, the windowed sketch, or the shed policies breaks these.
constexpr std::uint64_t kE9CsvDigest = 9922621151605313232ull;

TEST(GoldenDigest, E9ReducedCsvSerial) {
  EXPECT_EQ(e9_digest(1), kE9CsvDigest);
}

TEST(GoldenDigest, E9ReducedCsvWorkerInvariant) {
  EXPECT_EQ(e9_digest(3), kE9CsvDigest);
  EXPECT_EQ(e9_digest(8), kE9CsvDigest);
}

}  // namespace
}  // namespace rtds::load
