// E9: the open-system steady-state experiment (src/load/), ROADMAP item 2.
//
// Everything E1–E8 measures is a closed batch; E9 instead streams an
// unbounded arrival process into the protocol for a fixed duration and
// reads tumbling-window steady-state metrics: post-warm-up sojourn
// quantiles, shed counts under bounded admission queues, and the
// saturation knee (first window where p99 sojourn diverges). Registered
// from register_builtin_scenarios() like every built-in.
//
// The run length honours RunContext::duration, so
// `rtds_exp --scenario=e9_steady_state --duration=T` bounds wall clock
// without changing the schema (the parallel sweep and the --verify serial
// re-run get the same context, and a sweep journal records it).
#include <ostream>

#include "exp/scenario.hpp"
#include "exp/scenarios.hpp"
#include "load/engine.hpp"
#include "net/generators.hpp"
#include "policy/policy.hpp"
#include "util/table.hpp"

namespace rtds::exp {

namespace {

using policy::ParamMap;
using policy::PolicyRegistry;

constexpr std::size_t kSites = 36;  // 6x6 grid, the E8 footprint

const std::vector<std::string>& shed_policies() {
  static const std::vector<std::string> names = {
      "drop_newest", "drop_lowest_laxity", "reject_enroll"};
  return names;
}

/// The E9 condition: topology exactly as make_condition builds it (same
/// Rng(seed) -> make_net draw order), workload as an open ArrivalSpec.
Topology e9_topology(std::uint64_t seed) {
  Rng rng(seed);
  return make_net(NetShape::kGrid, kSites, DelayRange{0.5, 2.0}, rng);
}

load::ArrivalSpec e9_arrivals(load::ArrivalKind kind, double rate,
                              std::uint64_t seed) {
  load::ArrivalSpec spec;
  spec.kind = kind;
  spec.site_count = kSites;
  spec.workload.arrival_rate_per_site = rate;
  spec.workload.laxity_min = 2.0;
  spec.workload.laxity_max = 6.0;
  spec.workload.seed = seed;
  return spec;
}

/// One open run: rtds (h=2) with a bounded admission queue and the given
/// shed policy, streamed for `duration`.
load::OpenRunResult e9_run(load::ArrivalKind kind, double rate,
                           const std::string& shed, std::uint64_t seed,
                           Time duration, const RunContext& ctx) {
  const Topology topo = e9_topology(seed);
  const load::ArrivalSpec spec = e9_arrivals(kind, rate, seed);
  const auto source = load::make_arrival_source(spec);

  const auto policy = PolicyRegistry::instance().create("rtds");
  const ParamMap params = ParamMap::parse_pairs(
      {{"h", "2"}, {"shed.cap", "4"}, {"shed.policy", shed}},
      policy->describe_params());

  load::OpenConfig ocfg;
  ocfg.duration = duration;
  ocfg.window.warmup = 100.0;
  ocfg.window.width = 50.0;
  ocfg.context = ctx;
  return load::run_open_rtds(topo, *source, ocfg, params);
}

double shed_count(const RunMetrics& m) {
  const auto it =
      m.reject_by_reason.find(static_cast<int>(RejectReason::kShed));
  return it == m.reject_by_reason.end() ? 0.0
                                        : static_cast<double>(it->second);
}

void register_e9_sweep() {
  ScenarioSpec spec;
  spec.name = "e9_steady_state";
  spec.description =
      "open-system steady state: arrival process x offered load x shed "
      "policy (rtds h=2, shed.cap=4, 6x6 grid, windowed sojourn quantiles; "
      "honours --duration)";
  spec.axes = {
      GridAxis::labeled("arrival", "arrival", {"poisson", "bursty", "diurnal"}),
      GridAxis::numeric("rate/site", "rate", {0.02, 0.08}, 3),
      GridAxis::labeled("shed", "shed", shed_policies())};
  spec.metrics = {
      MetricSpec{"jobs", "jobs", 0},
      MetricSpec{"accept%", "guarantee_ratio", 1, 100.0},
      MetricSpec{"shed", "shed", 0},
      MetricSpec{"p50 sojourn", "sojourn_p50", 2},
      MetricSpec{"p95 sojourn", "sojourn_p95", 2},
      MetricSpec{"p99 sojourn", "sojourn_p99", 2},
      MetricSpec{"knee win", "knee_window", 0},  // -1 = never diverged
  };
  spec.seed_mode = SeedMode::kFixed;
  spec.trial = [](const GridPoint& p, std::uint64_t seed,
                  const RunContext& ctx) -> TrialResult {
    const auto kind = static_cast<load::ArrivalKind>(
        static_cast<std::size_t>(p.value(0)));
    const auto& shed = shed_policies()[static_cast<std::size_t>(p.value(2))];
    const load::OpenRunResult r = e9_run(kind, p.value(1), shed, seed,
                                         ctx.duration_or(600.0), ctx);
    return {static_cast<double>(r.metrics.arrived),
            r.metrics.guarantee_ratio(),
            shed_count(r.metrics),
            r.steady.p50,
            r.steady.p95,
            r.steady.p99,
            static_cast<double>(r.steady.knee_window)};
  };
  Registry::instance().add(std::move(spec));
}

/// The saturation sweep: walk offered load upward per shed policy and
/// report the knee — the first rate (and window) where p99 sojourn
/// diverges from the policy's low-load baseline.
void register_e9_saturation() {
  Registry::instance().add_report(
      "e9_saturation",
      "saturation sweep: offered load walked upward per shed policy; "
      "per-cell steady-state table plus each policy's knee (honours "
      "--duration)",
      [](std::ostream& os, const RunContext& ctx) {
        const std::vector<double> rates = {0.02, 0.04, 0.08, 0.12, 0.16};
        const Time duration = ctx.duration_or(400.0);
        constexpr std::uint64_t kSeed = 42;

        os << "E9a saturation sweep (rtds h=2, shed.cap=4, poisson, 6x6 "
              "grid, duration "
           << Table::num(duration, 0) << ", seed " << kSeed << ")\n\n";

        Table table({"shed", "rate/site", "jobs", "accept%", "shed#",
                     "p99 sojourn", "knee win"});
        struct Knee {
          double rate = 0.0;
          std::ptrdiff_t window = -1;
        };
        std::vector<Knee> knees(shed_policies().size());
        for (std::size_t s = 0; s < shed_policies().size(); ++s) {
          const auto& shed = shed_policies()[s];
          for (const double rate : rates) {
            const load::OpenRunResult r =
                e9_run(load::ArrivalKind::kPoisson, rate, shed, kSeed,
                       duration, ctx);
            table.add_row({shed, Table::num(rate, 3),
                           Table::num(r.metrics.arrived),
                           Table::num(100.0 * r.metrics.guarantee_ratio(), 1),
                           Table::num(shed_count(r.metrics), 0),
                           Table::num(r.steady.p99, 2),
                           Table::num(static_cast<long long>(
                               r.steady.knee_window))});
            if (knees[s].window < 0 && r.steady.knee_window >= 0) {
              knees[s].rate = rate;
              knees[s].window = r.steady.knee_window;
            }
          }
        }
        table.print(os);

        os << "\nknee per policy (first rate whose run diverged; window "
              "index is post-warm-up)\n\n";
        Table summary({"shed", "knee rate/site", "knee window"});
        for (std::size_t s = 0; s < shed_policies().size(); ++s) {
          summary.add_row(
              {shed_policies()[s],
               knees[s].window < 0 ? "-" : Table::num(knees[s].rate, 3),
               knees[s].window < 0
                   ? "-"
                   : Table::num(static_cast<long long>(knees[s].window))});
        }
        summary.print(os);
      });
}

}  // namespace

void register_e9_steady_state() {
  register_e9_sweep();
  register_e9_saturation();
}

}  // namespace rtds::exp
