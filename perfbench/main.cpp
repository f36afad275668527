// rtds_perfbench — end-to-end benchmark of the RTDS library.
//
//   rtds_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--expect-digest HEX] [--spans FILE]
//
// --trace 0 repeats the workload with tracing off while another repetition
// fits in S seconds (at least 3 times) and reports the end-to-end metrics
// (run timings summed over each segment's fastest repetition, set-up time
// as the median over batches of 8 set-ups of each batch's fastest).
// --trace 1 runs the workload untraced and traced, replays each layer on
// the traced run's inputs, repeats that while it fits in S seconds (at
// least once) and reports the per-layer metrics (medians). Either way the
// last line of stdout is one JSON object:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {"value":
//    X, "unit": U}, ...}}
// An operation is one arrived job. It fails when it gets no decision, or
// when its run prints RunMetrics that differ from the rtds family's own
// entry point (or, with --expect-digest, from the recorded digest). A run
// that throws ends the process with a non-zero status and no result.
// Diagnostics go to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "layers.hpp"

namespace rtds::perfbench {

namespace {

constexpr int kMinReps = 3;
/// Set-up samples: each is the fastest of a batch of kSetupBatch
/// constructions; at least kMinSetups of them, in the last kSetupShare of
/// --seconds.
constexpr std::size_t kMinSetups = 31;
constexpr int kSetupBatch = 8;
constexpr double kSetupShare = 0.2;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  int trace = 0;
  std::string expect_digest;
  std::string spans;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::stoull(value);
    else if (key == "--seconds") o.seconds = std::stod(value);
    else if (key == "--trace") o.trace = std::stoi(value);
    else if (key == "--expect-digest") o.expect_digest = value;
    else if (key == "--spans") o.spans = value;
    else throw std::invalid_argument("unknown flag " + key);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (o.trace != 0 && o.trace != 1)
    throw std::invalid_argument("--trace must be 0 or 1");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

void print_result(const Outcome& out) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (out.correct ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << m.value << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// True while another repetition lasting `last_s` still ends within the
/// `seconds` budget that started at `start`.
bool fits(Clock::time_point start, double last_s, double seconds) {
  return seconds_since(start) + last_s <= seconds;
}

/// Element-wise minimum of `s` into `best` (empty: takes `s`). False when
/// the two differ in length: the repeated work was not the same.
bool merge_fastest(std::vector<double>& best, const std::vector<double>& s) {
  if (best.empty()) {
    best = s;
    return true;
  }
  if (best.size() != s.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) best[i] = std::min(best[i], s[i]);
  return true;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

Outcome end_to_end(const Workload& w, const Options& o, std::ostream& log) {
  Outcome out;
  const auto start = Clock::now();
  // The correctness gate's reference: the rtds family's own entry point.
  std::vector<std::string> reference;
  std::vector<double> reference_p99;
  for (const RtdsCase& c : w.cases) {
    double p99 = 0.0;
    reference.push_back(run_reference(c, &p99));
    reference_p99.push_back(p99);
  }

  // Run timings. Every repetition does the same work, segment for segment:
  // each case's start, 500-event step_events chunks and finish, and each
  // baseline's Policy::run. Contention from other tenants of a shared host
  // only ever slows a segment and often lifts within a second, so the sum
  // of each segment's fastest time over the repetitions is a steadier
  // estimate of what the run costs than any whole repetition. Whole
  // repetitions are logged for comparison.
  std::vector<std::vector<double>> fastest_segments(w.cases.size());
  std::vector<double> fastest_baselines;
  std::vector<double> rep_wall;
  std::vector<std::string> baseline_first;
  std::string first_jsonl;
  std::uint64_t jobs = 0, events = 0, links = 0;
  std::uint64_t pooled_delivered = 0, pooled_msg_jobs = 0;
  double pooled_msgs = 0.0;
  auto pool = [&](const RunMetrics& m) {
    jobs += m.arrived;
    links += m.transport.total_link_messages;
    pooled_delivered += m.accepted() - m.failed_jobs;
    pooled_msgs += m.msgs_per_job.sum();
    pooled_msg_jobs += m.msgs_per_job.count();
  };

  const double run_budget = o.seconds * (1.0 - kSetupShare);
  double last_rep_s = 0.0;
  for (int rep = 0; rep < kMinReps || fits(start, last_rep_s, run_budget);
       ++rep) {
    const auto rep_start = Clock::now();
    double run_s = 0.0;
    std::vector<double> baseline_s;
    for (std::size_t i = 0; i < w.cases.size(); ++i) {
      const CaseResult r = run_case(w.cases[i]);
      run_s += r.wall_s;
      out.attempted += r.metrics.arrived;
      out.failed += undecided(r.metrics);
      if (r.jsonl != reference[i]) {
        log << "case " << i << " rep " << rep
            << ": RunMetrics differ from the rtds entry point\n";
        out.failed += r.metrics.arrived;
      }
      if (!merge_fastest(fastest_segments[i], r.segments_s)) {
        log << "case " << i << " rep " << rep
            << ": step_events chunks differ from the first repetition\n";
        out.failed += r.metrics.arrived;
      }
      if (rep == 0) {
        first_jsonl += r.jsonl;
        events += r.events;
        pool(r.metrics);
        // Open runs: the benchmark's windows must give load::run_open_rtds's
        // steady-state p99.
        if (w.cases[i].stream && sojourn_p99(r.windows) != reference_p99[i]) {
          log << "case " << i << ": sojourn p99 differs from the open "
              << "engine's steady-state summary\n";
          out.failed += r.metrics.arrived;
        }
      }
    }
    for (std::size_t j = 0; j < w.baselines.size(); ++j) {
      const auto t0 = Clock::now();
      const RunMetrics m = run_baseline(w, w.baselines[j]);
      baseline_s.push_back(seconds_since(t0));
      run_s += baseline_s.back();
      out.attempted += m.arrived;
      out.failed += undecided(m);
      std::ostringstream os;
      m.to_jsonl(os);
      if (rep == 0) {
        baseline_first.push_back(os.str());
        first_jsonl += os.str();
        pool(m);
      } else if (os.str() != baseline_first[j]) {
        log << "baseline " << w.baselines[j].family << " rep " << rep
            << ": RunMetrics differ from the first run\n";
        out.failed += m.arrived;
      }
    }
    merge_fastest(fastest_baselines, baseline_s);
    rep_wall.push_back(run_s);
    last_rep_s = seconds_since(rep_start);
  }
  // Set-up is short next to a run, so the rest of the budget constructs
  // systems (all of a workload's cases per set-up). For the reason above,
  // each sample is the fastest set-up of a short batch; setup_s is the
  // median sample.
  std::vector<double> setup;
  while (setup.size() < kMinSetups || seconds_since(start) < o.seconds) {
    double fastest = std::numeric_limits<double>::infinity();
    for (int b = 0; b < kSetupBatch; ++b) {
      double s = 0.0;
      for (const RtdsCase& c : w.cases) {
        const auto t0 = Clock::now();
        const RtdsSystem system(c.topo, c.cfg);
        s += seconds_since(t0);
      }
      fastest = std::min(fastest, s);
    }
    setup.push_back(fastest);
  }

  const std::string d = jsonl_digest(first_jsonl);
  log << w.name << " seed " << o.seed << ": " << rep_wall.size() << " runs, "
      << setup.size() << " set-up batches, RunMetrics digest " << d << "\n";
  if (!o.expect_digest.empty() && d != o.expect_digest) {
    log << "digest " << d << " differs from the recorded " << o.expect_digest
        << ": every job counts as failed\n";
    out.failed = out.attempted;
  }

  double rtds_wall = 0.0;
  for (const auto& s : fastest_segments) rtds_wall += sum(s);
  const double wall = rtds_wall + sum(fastest_baselines);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.metrics = {
      {"wall_s", wall, "s"},
      {"setup_s", median(setup), "s"},
      {"jobs_per_s", static_cast<double>(jobs) / wall, "1/s"},
      {"events_per_s", static_cast<double>(events) / rtds_wall, "1/s"},
      {"link_msgs_per_s", static_cast<double>(links) / wall, "1/s"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"},
      {"delivered_ratio",
       static_cast<double>(pooled_delivered) / static_cast<double>(jobs),
       "ratio"},
      {"msgs_per_job", pooled_msgs / static_cast<double>(pooled_msg_jobs),
       "msgs/job"},
  };
  const auto [lo, hi] = std::minmax_element(rep_wall.begin(), rep_wall.end());
  log << "run time per repetition: min " << *lo << " median "
      << median(rep_wall) << " max " << *hi << "; fastest segments " << wall
      << "\n";
  return out;
}

/// Repeats the per-layer measurement while another one fits in `seconds`
/// (at least once) and reports each metric's median over the repetitions.
Outcome per_layer(const Workload& w, const Options& o, std::ostream& log) {
  Outcome out;
  std::vector<std::vector<double>> values;
  const auto start = Clock::now();
  double last_s = 0.0;
  do {
    const auto t0 = Clock::now();
    const LayerResult r = measure_layers(w, o.expect_digest, o.spans, log);
    last_s = seconds_since(t0);
    out.attempted += r.attempted;
    out.failed += r.failed;
    for (const auto& f : r.failures) log << "check failed: " << f << "\n";
    if (!r.failures.empty()) out.correct = false;
    if (out.metrics.empty()) {
      out.metrics = r.metrics;
      values.resize(r.metrics.size());
    }
    for (std::size_t i = 0; i < r.metrics.size(); ++i)
      values[i].push_back(r.metrics[i].value);
  } while (fits(start, last_s, o.seconds));
  for (std::size_t i = 0; i < out.metrics.size(); ++i)
    out.metrics[i].value = median(values[i]);
  log << w.name << ": per-layer medians over " << values.front().size()
      << " measurements\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "rtds_perfbench: " << e.what() << "\n";
    return 2;
  }
  Outcome out;
  try {
    const Workload w = make_workload(o.workload, o.seed);
    out = o.trace == 0 ? end_to_end(w, o, std::cerr) : per_layer(w, o, std::cerr);
  } catch (const std::exception& e) {
    // A throwing run has no metrics to report.
    std::cerr << "rtds_perfbench: " << o.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "rtds_perfbench: metric " << m.name << " is not finite\n";
      return 1;
    }
    std::cerr << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  if (out.failed > 0) out.correct = false;
  print_result(out);
  return 0;
}

}  // namespace rtds::perfbench

int main(int argc, char** argv) { return rtds::perfbench::main(argc, argv); }
