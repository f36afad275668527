#include "fuzz/checks.hpp"

#include <memory>
#include <optional>
#include <sstream>
#include <string_view>

#include "core/rtds_system.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "load/source.hpp"
#include "policy/policy.hpp"
#include "policy/rtds_params.hpp"
#include "routing/apsp.hpp"
#include "snap/snapshot.hpp"
#include "util/error.hpp"

namespace rtds::fuzz {

namespace {

std::string metrics_line(const RunMetrics& m) {
  std::ostringstream os;
  m.to_jsonl(os);
  return os.str();
}

SystemConfig rtds_cfg_for(const FuzzScenario& s, const Topology& topo,
                          fault::InjectedBug bug) {
  policy::register_builtin_policies();
  const auto pol = policy::PolicyRegistry::instance().create("rtds");
  SystemConfig cfg = policy::rtds_system_config_from(pol->parse_params(s.params));
  s.plan.validate(topo);
  cfg.faults = s.plan;
  cfg.check_invariants = true;
  cfg.context.invariants_fatal = true;
  cfg.context.injected_bug = bug;
  return cfg;
}

/// A lazily pulled diurnal arrival stream bounded by the condition
/// horizon — the open-system workload half of the fuzz space.
std::function<std::optional<JobArrival>()> open_stream(const FuzzScenario& s,
                                                       const Topology& topo) {
  load::ArrivalSpec aspec;
  aspec.kind = load::ArrivalKind::kDiurnal;
  aspec.site_count = topo.site_count();
  aspec.workload = exp::workload_config(s.cond);
  std::shared_ptr<load::ArrivalSource> src = load::make_arrival_source(aspec);
  const Time horizon = s.cond.horizon;
  return [src, horizon]() -> std::optional<JobArrival> {
    auto a = src->next();
    if (!a.has_value() || a->job->release >= horizon) return std::nullopt;
    return a;
  };
}

/// One full rtds reference run. Returns the drained system (for the
/// routing / fault-state post-mortems and the snapshot cut).
std::unique_ptr<RtdsSystem> run_rtds(const FuzzScenario& s,
                                     const Topology& topo,
                                     const SystemConfig& cfg,
                                     const std::vector<JobArrival>& arrivals) {
  auto sys = std::make_unique<RtdsSystem>(topo, cfg);
  if (s.workload == WorkloadMode::kOpenDiurnal)
    sys->run_stream(open_stream(s, topo));
  else
    sys->run(arrivals);
  return sys;
}

bool tables_equal(const std::vector<RoutingTable>& a,
                  const std::vector<RoutingTable>& b, std::string* why) {
  if (a.size() != b.size()) {
    *why = "table count differs";
    return false;
  }
  const SiteId n = static_cast<SiteId>(a.size());
  for (SiteId s = 0; s < n; ++s) {
    for (SiteId d = 0; d < n; ++d) {
      const RouteLine* ra = a[s].find(d);
      const RouteLine* rb = b[s].find(d);
      const bool la = ra != nullptr && ra->dist < kInfiniteTime;
      const bool lb = rb != nullptr && rb->dist < kInfiniteTime;
      if (la != lb || (la && (ra->dist != rb->dist ||
                              ra->next_hop != rb->next_hop ||
                              ra->hops != rb->hops))) {
        std::ostringstream os;
        os << "route " << s << " -> " << d << " differs (repaired ";
        if (la)
          os << "dist=" << ra->dist << " via " << ra->next_hop;
        else
          os << "absent";
        os << ", recomputed ";
        if (lb)
          os << "dist=" << rb->dist << " via " << rb->next_hop;
        else
          os << "absent";
        os << ")";
        *why = os.str();
        return false;
      }
    }
  }
  return true;
}

CheckResult fail(std::string tag, std::string message) {
  CheckResult r;
  r.failed = true;
  r.tag = std::move(tag);
  r.message = std::move(message);
  return r;
}

CheckResult run_rtds_checks(const FuzzScenario& s, fault::InjectedBug bug) {
  const Topology topo = exp::make_topology(s.cond);
  std::vector<JobArrival> arrivals;
  if (s.workload != WorkloadMode::kOpenDiurnal)
    arrivals = exp::make_condition(s.cond).arrivals;

  // Reference run under the fatal checker: crashes and invariant
  // violations surface here with a classifiable tag.
  SystemConfig cfg;
  std::unique_ptr<RtdsSystem> ref;
  try {
    cfg = rtds_cfg_for(s, topo, bug);
    ref = run_rtds(s, topo, cfg, arrivals);
  } catch (const std::exception& e) {
    return fail(classify_failure(e.what()), e.what());
  }
  const std::string ref_bytes = metrics_line(ref->metrics());

  // Silent-wrong-answer cross-checks (everything below compares against
  // the reference run; any exception inside them is a finding too).
  try {
    if (s.check_recompute && !s.plan.events.empty()) {
      // The incremental repairs must have left the tables route-for-route
      // identical to a from-scratch recompute over the final fault view.
      const auto h = cfg.node.sphere_radius_h;
      const auto oracle = phased_apsp(topo, 2 * h, ref->fault_state());
      std::string why;
      if (!tables_equal(ref->routing_tables(), oracle, &why))
        return fail("repair-divergence", why);
    }

    if (s.check_replay) {
      const auto again = run_rtds(s, topo, cfg, arrivals);
      const std::string bytes = metrics_line(again->metrics());
      if (bytes != ref_bytes)
        return fail("replay-divergence",
                    "identical scenario produced different metrics bytes");
    }

    if (s.check_snapshot && s.workload != WorkloadMode::kOpenDiurnal) {
      // The reference run cut at a scenario-derived event boundary, saved,
      // resumed into a fresh system and drained: its metric line must
      // match the uninterrupted reference byte for byte.
      const std::uint64_t total = ref->simulator().executed_events();
      if (total > 1) {
        const std::uint64_t cut =
            1 + (s.cond.seed * 0x9e3779b97f4a7c15ULL >> 32) % (total - 1);
        RtdsSystem part(topo, cfg);
        part.start(arrivals);
        std::size_t left = static_cast<std::size_t>(cut);
        while (left > 0) {
          const std::size_t fired = part.step_events(left);
          if (fired == 0) break;
          left -= fired;
        }
        const std::string blob = snap::Snapshot::save(part);
        RtdsSystem resumed(topo, cfg);
        snap::Snapshot::load(blob, resumed);
        while (resumed.step_events(4096) > 0) {
        }
        resumed.finish();
        if (metrics_line(resumed.metrics()) != ref_bytes)
          return fail("snapshot-divergence",
                      "resume at event " + std::to_string(cut) + "/" +
                          std::to_string(total) +
                          " diverged from the uninterrupted run");
      }
    }

    if (s.check_workers) {
      // The exp aggregation layer must merge this scenario's trials into
      // bit-identical aggregates regardless of worker count.
      exp::ScenarioSpec spec;
      spec.name = "fuzz-worker-check";
      spec.axes = {exp::GridAxis::labeled("case", "case", {"scenario"})};
      spec.metrics = {{"guar", "guarantee_ratio", 6, 1.0},
                      {"arrived", "arrived", 0, 1.0},
                      {"viol", "violations", 0, 1.0}};
      spec.replicates = 2;
      spec.warm_start = false;
      spec.trial = [&](const exp::GridPoint&, std::uint64_t,
                       const RunContext&) {
        const auto sys = run_rtds(s, topo, cfg, arrivals);
        const RunMetrics& m = sys->metrics();
        return exp::TrialResult{m.guarantee_ratio(),
                                static_cast<double>(m.arrived),
                                static_cast<double>(m.invariant_violations)};
      };
      exp::RunOptions serial;
      serial.jobs = 1;
      exp::RunOptions parallel;
      parallel.jobs = 2;
      const auto a = exp::run_scenario(spec, serial);
      const auto b = exp::run_scenario(spec, parallel);
      if (!exp::aggregates_identical(a, b))
        return fail("worker-divergence",
                    "jobs=1 and jobs=2 aggregates are not bit-identical");
    }
  } catch (const std::exception& e) {
    return fail(classify_failure(e.what()), e.what());
  }

  CheckResult ok;
  ok.metrics_jsonl = ref_bytes;
  return ok;
}

CheckResult run_baseline_checks(const FuzzScenario& s) {
  policy::register_builtin_policies();
  const Topology topo = exp::make_topology(s.cond);
  const auto arrivals = exp::make_condition(s.cond).arrivals;
  const auto pol = policy::PolicyRegistry::instance().create(s.policy);
  const auto params = pol->parse_params(s.params);

  RunMetrics ref;
  try {
    ref = pol->run(topo, arrivals, params);
  } catch (const std::exception& e) {
    return fail(classify_failure(e.what()), e.what());
  }
  const std::uint64_t decided =
      ref.accepted_local + ref.accepted_remote + ref.rejected;
  if (decided != ref.arrived)
    return fail("job-conservation",
                "baseline decided " + std::to_string(decided) + " of " +
                    std::to_string(ref.arrived) + " arrivals");
  try {
    if (s.check_replay &&
        metrics_line(pol->run(topo, arrivals, params)) != metrics_line(ref))
      return fail("replay-divergence",
                  "identical scenario produced different metrics bytes");
  } catch (const std::exception& e) {
    return fail(classify_failure(e.what()), e.what());
  }
  CheckResult ok;
  ok.metrics_jsonl = metrics_line(ref);
  return ok;
}

}  // namespace

std::string classify_failure(const std::string& what) {
  constexpr std::string_view prefix = "invariant violated: ";
  if (what.rfind(prefix, 0) == 0) {
    const auto rest = what.substr(prefix.size());
    const auto colon = rest.find(':');
    return colon == std::string::npos ? rest : rest.substr(0, colon);
  }
  return "exception";
}

CheckResult run_scenario_checks(const FuzzScenario& s,
                                fault::InjectedBug bug) {
  CheckResult r = s.policy == "rtds" ? run_rtds_checks(s, bug)
                                     : run_baseline_checks(s);
  if (!s.expect.empty()) {
    // Repro replay: the scenario pins a failure class; reproducing it is
    // success, anything else is a repro failure in its own right.
    if (r.tag == s.expect) {
      r.failed = false;  // the pinned failure reproduced, as a repro should
    } else {
      const std::string got = r.failed ? r.tag : "no failure";
      r.failed = true;
      r.tag = "repro-mismatch";
      r.message = "expected '" + s.expect + "' but observed " + got;
    }
  }
  return r;
}

}  // namespace rtds::fuzz
