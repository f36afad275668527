#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <fstream>
#include <mutex>
#include <ostream>
#include <thread>

#include "fuzz/checks.hpp"
#include "fuzz/generator.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace rtds::fuzz {

namespace {

std::string sanitize_tag(const std::string& tag) {
  std::string out;
  for (const char c : tag)
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '-');
  return out;
}

std::string write_repro_file(const std::string& out_dir, std::uint64_t seed,
                             std::uint64_t index, const FuzzScenario& s) {
  const std::string path = out_dir + "/repro-" + std::to_string(seed) + "-" +
                           std::to_string(index) + "-" +
                           sanitize_tag(s.expect) + ".repro";
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  RTDS_REQUIRE_MSG(os.good(), "cannot open repro file " << path);
  write_repro(os, s);
  RTDS_REQUIRE_MSG(os.good(), "short write to repro file " << path);
  return path;
}

}  // namespace

FuzzReport run_fuzz(const FuzzOptions& opts, std::ostream& log) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::duration<double>(
               opts.budget_seconds > 0.0 ? opts.budget_seconds : 0.0);
  std::atomic<std::uint64_t> next_index{0};
  std::atomic<std::uint64_t> done{0};
  std::mutex mu;  // guards findings + log
  std::vector<Finding> findings;

  auto out_of_budget = [&] {
    return opts.budget_seconds > 0.0 &&
           std::chrono::steady_clock::now() >= deadline;
  };

  auto worker = [&] {
    for (;;) {
      const std::uint64_t i = next_index.fetch_add(1);
      if (opts.runs != 0 && i >= opts.runs) return;
      if (out_of_budget()) return;
      FuzzScenario scenario;
      CheckResult r;
      try {
        scenario = generate_scenario(opts.seed, i);
        r = run_scenario_checks(scenario, opts.bug);
      } catch (const std::exception& e) {
        // Harness-level throw (config rejected, generator bug): a finding,
        // not a terminate — fuzz campaigns must survive their own edges.
        r.failed = true;
        r.tag = classify_failure(e.what());
        r.message = e.what();
      }
      const std::uint64_t finished = done.fetch_add(1) + 1;
      if (!r.failed) {
        if (opts.progress_every != 0 && finished % opts.progress_every == 0) {
          std::lock_guard<std::mutex> lk(mu);
          log << "fuzz: " << finished << " scenario(s), "
              << findings.size() << " finding(s)\n";
        }
        continue;
      }
      Finding f;
      f.index = i;
      f.tag = r.tag;
      f.message = r.message;
      f.repro = opts.minimize
                    ? shrink_scenario(scenario, r.tag, opts.shrink_attempts,
                                      &f.shrink, opts.bug)
                    : [&] {
                        FuzzScenario raw = scenario;
                        raw.expect = r.tag;
                        return raw;
                      }();
      if (!opts.out_dir.empty())
        f.repro_path = write_repro_file(opts.out_dir, opts.seed, i, f.repro);
      std::lock_guard<std::mutex> lk(mu);
      log << "fuzz: FINDING scenario " << i << " [" << f.tag << "] "
          << f.message << "\n";
      if (!f.repro_path.empty()) log << "fuzz:   repro " << f.repro_path
                                     << " (size " << f.repro.size() << ")\n";
      findings.push_back(std::move(f));
    }
  };

  const std::size_t jobs = std::max<std::size_t>(1, opts.jobs);
  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t j = 0; j < jobs; ++j) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  FuzzReport report;
  report.runs_done = done.load();
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) { return a.index < b.index; });
  report.findings = std::move(findings);
  // Summary counters from the final report only: deterministic under any
  // worker count, unlike per-run counts racing across threads.
  RTDS_COUNT_N("fuzz.runs", report.runs_done);
  RTDS_COUNT_N("fuzz.findings", report.findings.size());
  for (const auto& f : report.findings)
    RTDS_COUNT_N("fuzz.shrink_attempts", f.shrink.attempts);
  return report;
}

}  // namespace rtds::fuzz
