#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "snap/io.hpp"
#include "snap/journal.hpp"
#include "util/error.hpp"

namespace rtds::exp {

namespace {

/// Runs trials [0, trials) of `spec`, storing each result in its slot.
/// With `observe` set, each trial additionally writes into its own
/// metrics/trace slot — same pre-sized-slot-array scheme as the results,
/// so observability output inherits the worker-count invariance.
void run_trials(const ScenarioSpec& spec, const RunContext& ctx,
                std::size_t replicates, std::size_t jobs,
                std::vector<TrialResult>& slots, RunObservation* observe,
                std::vector<obs::MetricsBuffer>& metric_slots,
                const std::vector<std::uint8_t>& prefilled,
                snap::SweepJournal* journal) {
  const std::size_t trials = slots.size();
  auto run_one = [&](std::size_t t) {
    if (!prefilled.empty() && prefilled[t] != 0) return;  // journal resume
    const std::size_t grid_index = t / replicates;
    const std::size_t replicate = t % replicates;
    std::optional<obs::Scope> scope;
    if (observe != nullptr)
      scope.emplace(&metric_slots[t],
                    observe->record_traces ? &observe->traces[t] : nullptr);
    TrialResult result = spec.trial(spec.grid_point(grid_index),
                                    spec.seed_for(grid_index, replicate), ctx);
    RTDS_CHECK_MSG(result.size() == spec.metrics.size(),
                   "scenario " << spec.name << " trial returned "
                               << result.size() << " metrics, declared "
                               << spec.metrics.size());
    slots[t] = std::move(result);
    scope.reset();  // unbind before journaling the trial's buffer
    if (journal != nullptr)
      journal->append(t, slots[t],
                      observe != nullptr ? &metric_slots[t] : nullptr);
  };

  if (jobs <= 1) {
    for (std::size_t t = 0; t < trials; ++t) run_one(t);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  auto worker = [&] {
    for (;;) {
      // Stop dispatching once any trial failed: the run's result is
      // doomed either way, don't burn the remaining trials' compute.
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t t = next.fetch_add(1);
      if (t >= trials) return;
      try {
        run_one(t);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(jobs);
  for (std::size_t w = 0; w < jobs; ++w) workers.emplace_back(worker);
  for (auto& w : workers) w.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace

std::vector<AggregateRow> run_scenario(const ScenarioSpec& spec,
                                       const RunOptions& opts) {
  const std::size_t replicates =
      opts.replicates > 0 ? opts.replicates : spec.replicates;
  RTDS_REQUIRE(replicates > 0);
  const std::size_t points = spec.grid_size();
  const std::size_t trials = points * replicates;
  const std::size_t jobs = std::min(std::max<std::size_t>(opts.jobs, 1),
                                    std::max<std::size_t>(trials, 1));

  std::vector<TrialResult> slots(trials);
  std::vector<obs::MetricsBuffer> metric_slots;
  if (opts.observe != nullptr) {
    metric_slots.resize(trials);
    opts.observe->traces.assign(trials, obs::TraceRecorder{});
  }

  // Crash-recovery journal (snap/journal.hpp): completed trials append as
  // they finish; a resume prefills their slots and re-runs only the rest.
  std::unique_ptr<snap::SweepJournal> journal;
  std::vector<std::uint8_t> prefilled;
  if (!opts.journal_path.empty()) {
    snap::HashAbsorber h;
    h.str("sweep-journal");
    h.str(spec.name);
    h.u64(points);
    h.u64(replicates);
    h.u64(spec.metrics.size());
    h.u64(static_cast<std::uint64_t>(spec.seed_mode));
    h.u64(spec.fixed_seed);
    h.u64(opts.observe != nullptr ? 1 : 0);
    // Only an override enters the hash, so journals of runs without one
    // keep the bytes they always had.
    if (opts.context.duration > 0.0) h.f64(opts.context.duration);
    const std::uint64_t sweep_hash = h.digest();
    if (opts.resume) {
      std::vector<snap::JournalEntry> entries;
      journal = snap::SweepJournal::resume(opts.journal_path, sweep_hash,
                                           entries);
      prefilled.assign(trials, 0);
      for (snap::JournalEntry& e : entries) {
        if (e.trial >= trials)
          throw ContractViolation("sweep journal entry for trial " +
                                  std::to_string(e.trial) +
                                  " is outside this sweep");
        slots[e.trial] = e.values;
        prefilled[e.trial] = 1;
        // Trace recorders are not journaled: a resumed trial contributes
        // its metrics but an empty trace (long sweeps run counters-only).
        if (opts.observe != nullptr && e.has_metrics)
          metric_slots[e.trial] = std::move(e.metrics);
      }
    } else {
      journal = snap::SweepJournal::create(opts.journal_path, sweep_hash);
    }
  }

  run_trials(spec, opts.context, replicates, jobs, slots, opts.observe,
             metric_slots, prefilled, journal.get());
  if (opts.observe != nullptr)
    // Trial-index merge order: commutativity makes it unnecessary for
    // correctness, but a fixed order keeps even pathological future cell
    // types (and debugging sessions) worker-count invariant.
    for (const obs::MetricsBuffer& b : metric_slots)
      opts.observe->metrics.merge(b);

  // Deterministic reduction: trial-index order, independent of which
  // worker computed which slot.
  std::vector<AggregateRow> rows;
  rows.reserve(points);
  for (std::size_t g = 0; g < points; ++g) {
    AggregateRow row;
    row.point = spec.grid_point(g);
    row.cells.resize(spec.metrics.size());
    for (std::size_t r = 0; r < replicates; ++r) {
      const TrialResult& result = slots[g * replicates + r];
      for (std::size_t m = 0; m < spec.metrics.size(); ++m) {
        const double v = result[m];
        if (std::isnan(v)) continue;
        row.cells[m].stat.add(v);
        row.cells[m].samples.add(v);
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

bool aggregates_identical(const std::vector<AggregateRow>& a,
                          const std::vector<AggregateRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cells.size() != b[i].cells.size()) return false;
    for (std::size_t m = 0; m < a[i].cells.size(); ++m) {
      const AggregateCell& x = a[i].cells[m];
      const AggregateCell& y = b[i].cells[m];
      if (x.stat.count() != y.stat.count()) return false;
      if (x.stat.count() == 0) continue;
      if (x.stat.sum() != y.stat.sum() || x.stat.mean() != y.stat.mean() ||
          x.stat.variance() != y.stat.variance() ||
          x.stat.min() != y.stat.min() || x.stat.max() != y.stat.max())
        return false;
      // Samples may have been sorted in place by a percentile query on one
      // side only; compare as multisets.
      auto xs = x.samples.values();
      auto ys = y.samples.values();
      std::sort(xs.begin(), xs.end());
      std::sort(ys.begin(), ys.end());
      if (xs != ys) return false;
    }
  }
  return true;
}

}  // namespace rtds::exp
