// The four workloads and the end-to-end run of one case.
//
// Each workload is a condition the experiment suite already defines, sized
// so one run takes about a second on a 4-core x86 box:
//  * scale_1024 — the E7 condition on a 32x32 grid: the paper's wide
//    network. Largest set-up, most protocol rounds, arrivals staged in bulk
//    (the event queue's sorted-run tier). No faults, no load/ work.
//  * chaos_144  — the E8 "all" cell on a 12x12 grid over four sub-seeds:
//    duplication, reorder, partitions, crashes, retransmit and the invariant
//    checker. Routing repair and the checker dominate.
//  * stream_256 — an open Poisson stream on a 16x16 grid past the E9 knee,
//    with bounded shed queues and the contended transport: the lazy arrival
//    chain (the queue's heap tier), load/ and the per-hop transport path.
//  * e2_grid    — the E2 offload grid, all six families through Policy::run
//    over four sub-seeds: the only workload where baseline/ does most work.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "exp/condition.hpp"
#include "fault/fault_params.hpp"
#include "load/engine.hpp"
#include "policy/policy.hpp"
#include "policy/rtds_params.hpp"
#include "snap/io.hpp"

namespace rtds::perfbench {

namespace {

using Pairs = std::vector<std::pair<std::string, std::string>>;

const policy::Policy& family(const std::string& name) {
  static std::vector<std::pair<std::string, std::unique_ptr<policy::Policy>>>
      cache;
  for (const auto& [n, p] : cache)
    if (n == name) return *p;
  policy::register_builtin_policies();
  cache.emplace_back(name, policy::PolicyRegistry::instance().create(name));
  return *cache.back().second;
}

/// A closed rtds case exactly as Policy::run decodes it.
RtdsCase closed_case(exp::Condition c, const Pairs& pairs) {
  RtdsCase rc;
  rc.topo = std::move(c.topo);
  rc.arrivals = std::move(c.arrivals);
  rc.params =
      policy::ParamMap::parse_pairs(pairs, family("rtds").describe_params());
  rc.cfg = policy::rtds_system_config_from(rc.params);
  rc.cfg.faults = fault::FaultPlan::from_spec(
      fault::fault_spec_from(rc.params, fault::fault_horizon(rc.arrivals)),
      rc.topo);
  return rc;
}

Workload scale_1024(std::uint64_t seed) {
  exp::ConditionSpec cs;
  cs.net = NetShape::kGrid;
  cs.sites = 1024;
  cs.rate = 0.02;
  cs.horizon = 2000.0;
  cs.laxity_min = 1.5;
  cs.laxity_max = 3.0;
  cs.delay_min = 0.2;
  cs.delay_max = 0.8;
  cs.seed = seed;
  Workload w;
  w.cases.push_back(closed_case(exp::make_condition(cs), {{"h", "2"}}));
  return w;
}

Workload chaos_144(std::uint64_t seed) {
  // How much repair a fault plan triggers varies a lot from plan to plan;
  // four plans of horizon 750 (sub-seeds 4*seed to 4*seed+3) per repetition
  // keep the workload's own spread small at the same total horizon.
  Workload w;
  for (std::uint64_t sub = 0; sub < 4; ++sub) {
    exp::ConditionSpec cs = exp::offload_regime();
    cs.net = NetShape::kGrid;
    cs.sites = 144;
    cs.horizon = 750.0;
    cs.seed = 4 * seed + sub;
    w.cases.push_back(closed_case(exp::make_condition(cs),
                                  {{"h", "2"},
                                   {"faults.site_rate", "0.002"},
                                   {"faults.site_mttr", "25"},
                                   {"faults.dup", "0.05"},
                                   {"faults.reorder", "0.1"},
                                   {"faults.reorder_delay", "0.5"},
                                   {"faults.partition_rate", "0.01"},
                                   {"faults.partition_mttr", "10"},
                                   {"faults.retransmit", "true"},
                                   {"faults.seed", std::to_string(cs.seed)},
                                   {"check_invariants", "true"}}));
  }
  return w;
}

Workload stream_256(std::uint64_t seed) {
  // rtds_exp --policy=rtds --sites=256 --rate=0.04 --duration=4000 defaults:
  // laxity 2-6, link delay 0.5-2.0, 4-12 tasks.
  exp::ConditionSpec cs;
  cs.net = NetShape::kGrid;
  cs.sites = 256;
  cs.rate = 0.04;
  cs.seed = seed;
  RtdsCase rc;
  rc.topo = exp::make_topology(cs);
  load::ArrivalSpec spec;
  spec.kind = load::ArrivalKind::kPoisson;
  spec.site_count = rc.topo.site_count();
  spec.workload = exp::workload_config(cs);
  rc.stream = spec;
  rc.duration = 4000.0;
  rc.window.warmup = 100.0;
  rc.window.width = 50.0;
  rc.params = policy::ParamMap::parse_pairs({{"h", "2"},
                                             {"shed.cap", "4"},
                                             {"transport", "contended"},
                                             {"bandwidth", "8"},
                                             {"overhead_factor", "2"},
                                             {"overhead_slack", "8"}},
                                            family("rtds").describe_params());
  rc.cfg = policy::rtds_system_config_from(rc.params);
  rc.cfg.faults = fault::FaultPlan::from_spec(
      fault::fault_spec_from(rc.params, rc.duration), rc.topo);
  rc.cfg.retain_decisions = false;
  Workload w;
  w.cases.push_back(std::move(rc));
  return w;
}

Workload e2_grid(std::uint64_t seed) {
  // The families' cost varies by about a quarter between single seeds;
  // four sub-seeds per repetition keep the workload's own spread small.
  Workload w;
  for (std::uint64_t sub = 0; sub < 4; ++sub) {
    for (const double rate : {0.005, 0.01, 0.02, 0.04, 0.08}) {
      exp::ConditionSpec cs = exp::offload_regime();
      cs.net = NetShape::kGrid;
      cs.sites = 64;
      cs.horizon = 800.0;
      cs.rate = rate;
      cs.seed = seed + sub;
      w.cases.push_back(closed_case(exp::make_condition(cs), {{"h", "2"}}));
      for (const auto& f : baseline_families())
        w.baselines.push_back(BaselineCase{f, w.cases.size() - 1});
    }
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"scale_1024", "chaos_144",
                                                 "stream_256", "e2_grid"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "scale_1024") w = scale_1024(seed);
  else if (name == "chaos_144") w = chaos_144(seed);
  else if (name == "stream_256") w = stream_256(seed);
  else if (name == "e2_grid") w = e2_grid(seed);
  else throw std::invalid_argument("unknown workload '" + name + "'");
  w.name = name;
  return w;
}

CaseResult run_case(const RtdsCase& c, Probe* probe) {
  CaseResult r;
  load::SteadyStateCollector collector(c.window);
  SystemConfig cfg = c.cfg;
  // Times one collector call when probed.
  auto collect = [&collector, probe](auto&& call) {
    if (probe == nullptr) return call(collector);
    const auto t0 = Clock::now();
    call(collector);
    probe->collector_s += seconds_since(t0);
    ++probe->collector_calls;
  };
  cfg.on_decision_observed = [collect](const JobDecision& d) {
    collect([&d](load::SteadyStateCollector& col) { col.on_decision(d); });
  };
  cfg.on_job_completed = [collect](Time arrival, Time completion) {
    collect([=](load::SteadyStateCollector& col) {
      col.on_completion(arrival, completion);
    });
  };

  // Input generation (the stream's generator object) is not timed.
  std::unique_ptr<load::ArrivalSource> source;
  if (c.stream) source = load::make_arrival_source(*c.stream);

  const auto t_setup = Clock::now();
  RtdsSystem system(c.topo, cfg);
  r.setup_s = seconds_since(t_setup);

  // Segments: start, each step_events chunk, then the empty step and finish.
  const auto t_run = Clock::now();
  auto t0 = t_run;
  if (c.stream) {
    // The pull closure of load::run_open_rtds: arrivals at or past the
    // duration end the stream.
    auto next = [&source, probe,
                 duration = c.duration]() -> std::optional<JobArrival> {
      const auto t0 = Clock::now();
      auto a = source->next();
      if (probe != nullptr) {
        probe->arrival_s += seconds_since(t0);
        ++probe->arrival_pulls;
      }
      if (!a.has_value() || a->job->release >= duration) return std::nullopt;
      if (probe != nullptr) probe->pulled.push_back(*a);
      return a;
    };
    system.start_stream(next);
  } else {
    system.start(c.arrivals);
  }
  for (std::size_t fired = 1; fired != 0;) {
    r.segments_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    fired = system.step_events(kChunkEvents);
  }
  system.finish();
  r.segments_s.push_back(seconds_since(t0));
  r.wall_s = seconds_since(t_run);

  r.metrics = system.metrics();
  std::ostringstream os;
  r.metrics.to_jsonl(os);
  r.jsonl = os.str();
  r.events = system.simulator().executed_events();
  r.windows = collector.windows();
  if (probe != nullptr) {
    probe->final_tables = system.routing_tables();
    const std::size_t n = system.topology().site_count();
    probe->pcs_eccentricity.assign(n, 0.0);
    probe->pcs_diameter.assign(n, 0.0);
    for (SiteId s = 0; s < n; ++s) {
      const Pcs& pcs = system.node(s).pcs();
      for (const auto& m : pcs.members())
        probe->pcs_eccentricity[s] = std::max(probe->pcs_eccentricity[s], m.delay);
      probe->pcs_diameter[s] = pcs.delay_diameter();
    }
  }
  return r;
}

std::string run_reference(const RtdsCase& c, double* p99) {
  RunMetrics m;
  if (c.stream) {
    const auto source = load::make_arrival_source(*c.stream);
    load::OpenConfig ocfg;
    ocfg.duration = c.duration;
    ocfg.window = c.window;
    const load::OpenRunResult r =
        load::run_open_rtds(c.topo, *source, ocfg, c.params);
    m = r.metrics;
    if (p99 != nullptr) *p99 = r.steady.p99;
  } else {
    m = family("rtds").run(c.topo, c.arrivals, c.params);
  }
  std::ostringstream os;
  m.to_jsonl(os);
  return os.str();
}

RunMetrics run_family(const std::string& name, const Topology& topo,
                      const std::vector<JobArrival>& arrivals) {
  return family(name).run(topo, arrivals, policy::ParamMap{});
}

RunMetrics run_baseline(const Workload& w, const BaselineCase& b) {
  const RtdsCase& c = w.cases.at(b.cell);
  return run_family(b.family, c.topo, c.arrivals);
}

double sojourn_p99(const std::vector<load::WindowCell>& windows) {
  load::QuantileSketch merged(load::WindowConfig{}.sketch_relative_error);
  for (const auto& cell : windows) merged.merge(cell.sketch);
  return merged.p99();
}

std::string jsonl_digest(const std::string& jsonl) {
  constexpr std::uint64_t kOffsetBasis = 14695981039346656037ull;
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    snap::fnv1a(jsonl.data(), jsonl.size(), kOffsetBasis)));
  return buf;
}

}  // namespace rtds::perfbench
