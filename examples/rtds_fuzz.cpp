// rtds_fuzz — deterministic chaos-fuzzing campaign driver (src/fuzz,
// DESIGN.md §15).
//
//   rtds_fuzz [--seed=42] [--runs=100 | --budget-seconds=90] [--jobs=N]
//             [--out-dir=DIR] [--minimize=true] [--shrink-attempts=200]
//             [--progress-every=25] [--metrics=FILE]
//
// Walks the scenario sequence keyed by --seed: each scenario samples a
// topology family × size × sphere radius × policy × workload × scripted
// fault plan, runs under the fatal invariant checker, and cross-checks for
// silent wrong answers (replay, snapshot-resume, repair-vs-recompute,
// worker-count invariance). Findings are shrunk by delta debugging and
// written as versioned .repro files that `rtds_cli --repro=FILE` replays
// bit-identically. Exit status: 0 = no findings, 1 = findings, 2 = usage.
//
// Scenario i is a pure function of (--seed, i), and findings are reported
// in index order — a --runs-bounded campaign produces identical findings
// whatever --jobs is (pinned by tests/fuzz_test.cpp).
#include <iostream>

#include "exp/cli.hpp"
#include "fuzz/fuzzer.hpp"

using namespace rtds;

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    fuzz::FuzzOptions opts;
    opts.seed = flags.get_seed("seed", 42);
    opts.runs = static_cast<std::uint64_t>(flags.get_int("runs", 100));
    opts.budget_seconds = flags.get_double("budget-seconds", 0.0);
    opts.jobs = static_cast<std::size_t>(flags.get_int("jobs", 1));
    opts.minimize = flags.get_bool("minimize", true);
    opts.shrink_attempts =
        static_cast<std::size_t>(flags.get_int("shrink-attempts", 200));
    opts.out_dir = flags.get_string("out-dir", "");
    opts.progress_every =
        static_cast<std::uint64_t>(flags.get_int("progress-every", 25));
    const std::string metrics_file = flags.get_string("metrics", "");
    flags.check_unused();
    if (opts.runs == 0 && opts.budget_seconds <= 0.0) {
      std::cerr << "error: give --runs=N and/or --budget-seconds=S\n";
      return 2;
    }

    obs::MetricsBuffer metrics;
    fuzz::FuzzReport report;
    {
      const obs::Scope scope(&metrics, nullptr);
      report = fuzz::run_fuzz(opts, std::cerr);
    }
    if (!metrics_file.empty()) exp::write_metrics_file(metrics_file, metrics);

    std::cout << "fuzz campaign seed=" << opts.seed << ": "
              << report.runs_done << " scenario(s), "
              << report.findings.size() << " finding(s)\n";
    for (const auto& f : report.findings) {
      std::cout << "  scenario " << f.index << " [" << f.tag << "] size "
                << f.repro.size();
      if (!f.repro_path.empty()) std::cout << " -> " << f.repro_path;
      std::cout << "\n";
    }
    return report.findings.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n"
              << "hint: rtds_fuzz [--seed --runs --budget-seconds --jobs "
                 "--out-dir --minimize --metrics]\n";
    return 2;
  }
}
