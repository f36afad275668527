// E6 — google-benchmark microbenchmarks of every hot component: the event
// engine, routing-table merges and phased APSP, PCS construction, the §5
// admission tests, the §12 mapper, maximum matching, and one end-to-end
// protocol round. These bound the per-job CPU cost a production deployment
// of the management processor would pay — and hence the per-worker trial
// cost the src/exp/ TrialRunner fans out.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baseline/broadcast.hpp"
#include "baseline/centralized.hpp"
#include "baseline/offload.hpp"
#include "core/mapper.hpp"
#include "dag/analysis.hpp"
#include "core/rtds_system.hpp"
#include "dag/generators.hpp"
#include "exp/condition.hpp"
#include "matching/bipartite.hpp"
#include "fault/fault.hpp"
#include "fault/invariants.hpp"
#include "load/engine.hpp"
#include "load/source.hpp"
#include "net/generators.hpp"
#include "policy/policy.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "routing/apsp.hpp"
#include "routing/pcs.hpp"
#include "routing/transport.hpp"
#include "sched/admission.hpp"
#include "snap/snapshot.hpp"
#include "snap/warm_start.hpp"

namespace rtds {
namespace {

// ------------------------------------------------------------ sim core ----

void BM_EventQueue(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<Time> times(n);
  for (auto& t : times) t = rng.uniform(0.0, 1000.0);
  for (auto _ : state) {
    Simulator sim;
    std::size_t fired = 0;
    for (Time t : times)
      sim.schedule_at(t, [&fired] { ++fired; });
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(10000)->Arg(100000);

/// A standing population of events, each of which schedules its successor
/// when it fires: most after a short message-like delay, one in four after
/// a long completion-like one.
struct HoldLoop {
  Simulator sim;
  std::vector<Time> delays;
  std::size_t next = 0;

  void post() {
    sim.schedule_in(delays[next++ % delays.size()], [this] { post(); });
  }
};

void BM_EventQueueHold(benchmark::State& state) {
  // The open-stream regime BM_EventQueue's bulk-then-drain never reaches:
  // every pop is followed by one push into a population of N pending
  // events (stream_256 holds ~2,900, scale_1024 ~4,000). Timed per event.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  HoldLoop loop;
  loop.delays.resize(4096);
  for (auto& d : loop.delays)
    d = rng.bernoulli(0.25) ? rng.uniform(20.0, 200.0) : rng.uniform(0.5, 2.0);
  for (std::size_t i = 0; i < n; ++i) loop.post();
  for (auto _ : state) benchmark::DoNotOptimize(loop.sim.step());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueHold)->Arg(1000)->Arg(4000);

// ------------------------------------------------------------- routing ----

void BM_PhasedApsp(benchmark::State& state) {
  Rng rng(2);
  const auto side = static_cast<std::size_t>(state.range(0));
  const Topology topo = make_grid(side, side, DelayRange{0.5, 2.0}, rng);
  for (auto _ : state) {
    auto tables = phased_apsp(topo, 4);
    benchmark::DoNotOptimize(tables);
  }
  state.SetLabel(std::to_string(side * side) + " sites, 4 phases");
}
BENCHMARK(BM_PhasedApsp)->Arg(8)->Arg(16)->Arg(24);

void BM_PcsBuild(benchmark::State& state) {
  Rng rng(3);
  const Topology topo = make_grid(16, 16, DelayRange{0.5, 2.0}, rng);
  const auto tables = phased_apsp(topo, 4);
  for (auto _ : state) {
    auto pcs = Pcs::build(tables, 128, 2);
    benchmark::DoNotOptimize(pcs);
  }
}
BENCHMARK(BM_PcsBuild);

// ----------------------------------------------------------- transport ----

void BM_ContendedTransportSend(benchmark::State& state) {
  // The §13 store-and-forward path: multi-hop sends across a grid through
  // one ContendedTransport, drained each iteration. Every hop costs a
  // route lookup, one per-directed-link FIFO update and one event; sends
  // that share a link queue behind each other. Timed per send.
  Rng rng(17);
  const auto side = static_cast<std::size_t>(state.range(0));
  const Topology topo = make_grid(side, side, DelayRange{0.5, 2.0}, rng);
  const auto tables = phased_apsp(topo, 4);
  std::vector<std::pair<SiteId, SiteId>> pairs;
  std::size_t hops = 0;
  while (pairs.size() < 1024) {
    const auto from = static_cast<SiteId>(
        rng.uniform_int(0, std::int64_t(topo.site_count()) - 1));
    const auto dests = tables[from].dests();
    const SiteId to = dests[static_cast<std::size_t>(
        rng.uniform_int(0, std::int64_t(dests.size()) - 1))];
    const RouteLine* line = tables[from].find(to);
    if (line == nullptr || line->hops < 2) continue;
    pairs.emplace_back(from, to);
    hops += line->hops;
  }
  Simulator sim;
  ContendedTransport transport(sim, topo, tables, 8.0);
  for (SiteId s = 0; s < topo.site_count(); ++s)
    transport.set_handler(s, [](SiteId, const MessageBody&) {});
  for (auto _ : state) {
    std::size_t charged = 0;
    for (const auto& [from, to] : pairs)
      charged += transport.send(from, to, UnlockMsg{1}, kMsgUnlock, 2.0);
    sim.run();
    benchmark::DoNotOptimize(charged);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(pairs.size()));
  state.SetLabel(std::to_string(side * side) + " sites, 1024 sends, " +
                 std::to_string(hops) + " hops");
}
BENCHMARK(BM_ContendedTransportSend)->Arg(16)->Arg(32);

// ---------------------------------------------------------- large topo ----
//
// The DESIGN.md §10 scale path: sphere-local tables and incremental repair
// are what keep these sub-millisecond at 1024 sites — the pre-PR-5 dense
// tables and full-recompute repair were quadratic-to-cubic here.

void BM_LargeTopoPcsBuild(benchmark::State& state) {
  // Full control-plane bring-up at N=1024: interrupted APSP plus every
  // site's sphere, exactly what RtdsSystem construction pays.
  Rng rng(12);
  const Topology topo = make_grid(32, 32, DelayRange{0.5, 2.0}, rng);
  for (auto _ : state) {
    const auto tables = phased_apsp(topo, 4);
    std::size_t members = 0;
    for (SiteId s = 0; s < topo.site_count(); ++s)
      members += Pcs::build(tables, s, 2).size();
    benchmark::DoNotOptimize(members);
  }
  state.SetLabel("1024 sites: APSP + all spheres, h=2");
}
BENCHMARK(BM_LargeTopoPcsBuild);

void BM_LargeTopoRepairLinkFlap(benchmark::State& state) {
  // One link flap (down + up) against prebuilt tables — the §7 repair the
  // fault layer triggers on every topology change. Timed per repair.
  Rng rng(13);
  const auto side = static_cast<std::size_t>(state.range(0));
  const Topology topo = make_grid(side, side, DelayRange{0.5, 2.0}, rng);
  // Flap a central link so the dirty region does not fall off the grid.
  const SiteId a = static_cast<SiteId>(side * (side / 2) + side / 2);
  const SiteId b = a + 1;
  fault::FaultPlan plan;
  plan.events = {fault::FaultEvent{1.0, fault::FaultKind::kLinkDown, a, b},
                 fault::FaultEvent{2.0, fault::FaultKind::kLinkUp, a, b}};
  fault::FaultState faults(topo, plan);
  auto tables = phased_apsp(topo, 4);
  ApspRepairer repairer(topo, 4);  // reused across events, as RtdsSystem does
  const SiteId changed[2] = {a, b};
  for (auto _ : state) {
    faults.apply(plan.events[0]);
    repairer.repair(tables, &faults, changed);
    faults.apply(plan.events[1]);
    repairer.repair(tables, &faults, changed);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 2);  // repairs
  state.SetLabel(std::to_string(side * side) + " sites, per flap=2 repairs");
}
BENCHMARK(BM_LargeTopoRepairLinkFlap)->Arg(16)->Arg(32);

void BM_LargeTopoRepairSiteCrash(benchmark::State& state) {
  // One crash + recovery of a central site against prebuilt tables — the
  // dominant repair of a chaos run (site events outnumber partitions ~25:1
  // in chaos_144). Timed per repair.
  Rng rng(13);
  const auto side = static_cast<std::size_t>(state.range(0));
  const Topology topo = make_grid(side, side, DelayRange{0.5, 2.0}, rng);
  const SiteId x = static_cast<SiteId>(side * (side / 2) + side / 2);
  fault::FaultPlan plan;
  plan.events = {fault::FaultEvent{1.0, fault::FaultKind::kSiteDown, x, kNoSite},
                 fault::FaultEvent{2.0, fault::FaultKind::kSiteUp, x, kNoSite}};
  fault::FaultState faults(topo, plan);
  auto tables = phased_apsp(topo, 4);
  ApspRepairer repairer(topo, 4);  // reused across events, as RtdsSystem does
  const SiteId changed[1] = {x};
  for (auto _ : state) {
    faults.apply(plan.events[0]);
    repairer.repair(tables, &faults, changed);
    faults.apply(plan.events[1]);
    repairer.repair(tables, &faults, changed);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 2);  // repairs
  state.SetLabel(std::to_string(side * side) +
                 " sites, per crash+recover=2 repairs");
}
BENCHMARK(BM_LargeTopoRepairSiteCrash)->Arg(16)->Arg(32);

void BM_InvariantCheckerRepair(benchmark::State& state) {
  // The same link flap on a 12x12 grid with the §12 checker auditing every
  // repair, as in a checked chaos run: one long-lived checker, so after its
  // first audit each on_repair diffs against its shadow and re-checks only
  // the lines whose inputs changed. Timed per repair + audit.
  Rng rng(13);
  const std::size_t side = 12;
  const Topology topo = make_grid(side, side, DelayRange{0.5, 2.0}, rng);
  const SiteId a = static_cast<SiteId>(side * (side / 2) + side / 2);
  const SiteId b = a + 1;
  fault::FaultPlan plan;
  plan.events = {fault::FaultEvent{1.0, fault::FaultKind::kLinkDown, a, b},
                 fault::FaultEvent{2.0, fault::FaultKind::kLinkUp, a, b}};
  fault::FaultState faults(topo, plan);
  auto tables = phased_apsp(topo, 4);
  ApspRepairer repairer(topo, 4);
  fault::InvariantChecker checker;
  const SiteId changed[2] = {a, b};
  for (auto _ : state) {
    for (const auto& ev : plan.events) {
      faults.apply(ev);
      repairer.repair(tables, &faults, changed);
      checker.on_repair(tables, topo, faults, ev.at);
    }
  }
  if (checker.violations() != 0) state.SkipWithError("checker fired");
  state.SetItemsProcessed(int64_t(state.iterations()) * 2);  // repairs
  state.SetLabel("144 sites, per flap=2 repairs + audits");
}
BENCHMARK(BM_InvariantCheckerRepair);

void BM_LargeTopoEndToEndRound(benchmark::State& state) {
  // Whole-system round at N=1024: construction (APSP + 1024 spheres) plus
  // one distributed protocol round.
  Rng topo_rng(14);
  const Topology topo = make_grid(32, 32, DelayRange{0.5, 1.0}, topo_rng);
  for (auto _ : state) {
    RtdsSystem system(topo, SystemConfig{});
    Rng rng(15);
    auto job = std::make_shared<Job>();
    job->id = 1;
    job->dag = make_fork_join(8, CostRange{3.0, 6.0}, rng);
    job->release = 0.1;
    job->deadline = 0.1 + 0.8 * job->dag.total_work();
    system.run({{512, job}});
    benchmark::DoNotOptimize(system.metrics().arrived);
  }
  state.SetLabel("1024 sites: system build + 1 round");
}
BENCHMARK(BM_LargeTopoEndToEndRound);

// ----------------------------------------------------------- admission ----

std::vector<WindowedTask> random_tasks(std::size_t n, Rng& rng) {
  std::vector<WindowedTask> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    const Time r = rng.uniform(0.0, 20.0);
    const Time c = rng.uniform(0.5, 4.0);
    tasks.push_back(WindowedTask{static_cast<TaskId>(i), r,
                                 r + c + rng.uniform(0.0, 10.0), c});
  }
  return tasks;
}

SchedulingPlan random_plan(Rng& rng) {
  SchedulingPlan plan;
  Time cursor = 0.0;
  for (int b = 0; b < 6; ++b) {
    cursor += rng.uniform(1.0, 4.0);
    const Time len = rng.uniform(0.5, 2.0);
    plan.reserve(Reservation{9, 0, cursor, cursor + len});
    cursor += len;
  }
  return plan;
}

void BM_AdmitEdf(benchmark::State& state) {
  Rng rng(4);
  const auto plan = random_plan(rng);
  const auto tasks = random_tasks(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    auto p = admit_edf(plan, tasks);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_AdmitEdf)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_AdmitExact(benchmark::State& state) {
  Rng rng(5);
  const auto plan = random_plan(rng);
  const auto tasks = random_tasks(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    auto p = admit_exact(plan, tasks);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_AdmitExact)->Arg(4)->Arg(8)->Arg(10);

void BM_AdmitPreemptive(benchmark::State& state) {
  Rng rng(6);
  const auto plan = random_plan(rng);
  const auto tasks = random_tasks(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    auto p = admit_preemptive(plan, tasks);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_AdmitPreemptive)->Arg(4)->Arg(16)->Arg(32);

// -------------------------------------------------------------- mapper ----

void BM_Mapper(benchmark::State& state) {
  Rng rng(7);
  const auto n = static_cast<std::size_t>(state.range(0));
  const Dag dag = make_layered(n / 4 ? n / 4 : 1, 4, 0.4,
                               CostRange{1.0, 8.0}, rng);
  MapperInput in;
  in.dag = &dag;
  in.release = 0.0;
  in.deadline = 10.0 * critical_path_length(dag);
  in.surpluses = {1.0, 0.8, 0.6, 0.5};
  in.comm_diameter = 2.0;
  for (auto _ : state) {
    auto m = build_trial_mapping(in);
    benchmark::DoNotOptimize(m);
  }
  state.SetLabel(std::to_string(dag.task_count()) + " tasks");
}
BENCHMARK(BM_Mapper)->Arg(16)->Arg(64)->Arg(256);

// ------------------------------------------------------------ matching ----

void BM_HopcroftKarp(benchmark::State& state) {
  Rng rng(8);
  const auto n = static_cast<std::size_t>(state.range(0));
  BipartiteGraph g(n, n);
  for (std::size_t l = 0; l < n; ++l)
    for (int k = 0; k < 4; ++k)
      g.add_edge(l, static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
  for (auto _ : state) {
    auto m = max_matching_hopcroft_karp(g);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_HopcroftKarp)->Arg(16)->Arg(128)->Arg(1024);

// ------------------------------------------------------- whole protocol ----

void BM_EndToEndProtocolRound(benchmark::State& state) {
  // One full distributed round (local fail -> enroll -> map -> validate ->
  // match -> dispatch) on a 3x3 grid, including simulator overhead.
  Rng topo_rng(9);
  const Topology topo = make_grid(3, 3, DelayRange{0.5, 1.0}, topo_rng);
  for (auto _ : state) {
    RtdsSystem system(topo, SystemConfig{});
    Rng rng(10);
    auto filler = std::make_shared<Job>();
    filler->id = 1;
    filler->dag = make_fork_join(8, CostRange{3.0, 6.0}, rng);
    filler->release = 0.0;
    filler->deadline = 1000.0;
    auto job = std::make_shared<Job>();
    job->id = 2;
    job->dag = make_fork_join(8, CostRange{3.0, 6.0}, rng);
    job->release = 0.1;
    job->deadline = 0.1 + 0.8 * job->dag.total_work();
    system.run({{4, filler}, {4, job}});
    benchmark::DoNotOptimize(system.metrics().arrived);
  }
}
BENCHMARK(BM_EndToEndProtocolRound);

// ------------------------------------------------------- observability ----

void BM_MetricsHotPath(benchmark::State& state) {
  // The RTDS_COUNT fast path in its three states (DESIGN.md §11 overhead
  // model): arg 0 = no Scope bound (every experiment table's default —
  // one TLS load + branch), arg 1 = bound counter increment, arg 2 =
  // bound histogram observe (bit_width bin + min/max).
  const int mode = static_cast<int>(state.range(0));
  obs::MetricsBuffer buffer;
  std::optional<obs::Scope> scope;
  if (mode != 0) scope.emplace(&buffer);
  std::uint64_t i = 0;
  for (auto _ : state) {
    if (mode == 2) {
      RTDS_HIST("bench.obs.hist", i);
    } else {
      RTDS_COUNT("bench.obs.count");
    }
    benchmark::DoNotOptimize(++i);
  }
  state.SetLabel(mode == 0   ? "unbound (TLS load + branch)"
                 : mode == 1 ? "bound counter"
                             : "bound histogram");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsHotPath)->Arg(0)->Arg(1)->Arg(2);

void BM_EndToEndProtocolRoundTraced(benchmark::State& state) {
  // BM_EndToEndProtocolRound with a full obs binding (metrics + trace):
  // the traced-vs-untraced pair bounds the observability tax on a whole
  // protocol round. tools/bench_compare.py gates the *untraced* twin, so
  // an obs regression that leaks into the unbound path fails CI.
  Rng topo_rng(9);
  const Topology topo = make_grid(3, 3, DelayRange{0.5, 1.0}, topo_rng);
  obs::MetricsBuffer metrics;
  obs::TraceRecorder trace;
  for (auto _ : state) {
    trace.clear();
    obs::Scope scope(&metrics, &trace);
    RtdsSystem system(topo, SystemConfig{});
    Rng rng(10);
    auto filler = std::make_shared<Job>();
    filler->id = 1;
    filler->dag = make_fork_join(8, CostRange{3.0, 6.0}, rng);
    filler->release = 0.0;
    filler->deadline = 1000.0;
    auto job = std::make_shared<Job>();
    job->id = 2;
    job->dag = make_fork_join(8, CostRange{3.0, 6.0}, rng);
    job->release = 0.1;
    job->deadline = 0.1 + 0.8 * job->dag.total_work();
    system.run({{4, filler}, {4, job}});
    benchmark::DoNotOptimize(system.metrics().arrived);
  }
}
BENCHMARK(BM_EndToEndProtocolRoundTraced);

void BM_WorkloadSimulation(benchmark::State& state) {
  // Sustained simulation throughput: jobs decided per wall-second. Uses
  // the exp condition machinery, so this is exactly one scenario trial.
  exp::ConditionSpec cs;
  cs.net = NetShape::kGrid;
  cs.sites = 36;
  cs.delay_min = 0.2;
  cs.delay_max = 0.8;
  cs.rate = 0.02;
  cs.horizon = 200.0;
  cs.seed = 11;
  const exp::Condition c = exp::make_condition(cs);
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    RtdsSystem system(c.topo, SystemConfig{});
    system.run(c.arrivals);
    jobs += system.metrics().arrived;
  }
  state.SetItemsProcessed(static_cast<int64_t>(jobs));
}
BENCHMARK(BM_WorkloadSimulation);

/// The E2 offload condition the baseline rows share: 8×8 grid, rate 0.04,
/// horizon 800, seed 42.
const exp::Condition& e2_offload_cell() {
  static const exp::Condition c = [] {
    exp::ConditionSpec cs = exp::offload_regime();
    cs.net = NetShape::kGrid;
    cs.sites = 64;
    cs.horizon = 800.0;
    cs.rate = 0.04;
    cs.seed = 42;
    return exp::make_condition(cs);
  }();
  return c;
}

void BM_BroadcastBaseline(benchmark::State& state) {
  // The [4]-style BCAST baseline on the E2 offload condition: its periodic
  // network-wide surplus flood is the cost this row tracks. Items = jobs
  // decided.
  const exp::Condition& c = e2_offload_cell();
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    const RunMetrics m = run_broadcast(c.topo, c.arrivals, BroadcastConfig{});
    jobs += m.arrived;
  }
  state.SetItemsProcessed(static_cast<int64_t>(jobs));
}
BENCHMARK(BM_BroadcastBaseline);

void BM_CentralizedBaseline(benchmark::State& state) {
  // The omniscient CENTRAL baseline over the whole network (h = -1) on the
  // E2 offload condition: ETF over every site per task. Items = jobs decided.
  const exp::Condition& c = e2_offload_cell();
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    const RunMetrics m =
        run_centralized(c.topo, c.arrivals, CentralizedConfig{});
    jobs += m.arrived;
  }
  state.SetItemsProcessed(static_cast<int64_t>(jobs));
}
BENCHMARK(BM_CentralizedBaseline);

void BM_OffloadBaseline(benchmark::State& state) {
  // Whole-job offloading on the E2 offload condition: arg 0 = BID (sphere
  // bid collection, then offers), 1 = RANDOM (one random offer). Items =
  // jobs decided.
  const exp::Condition& c = e2_offload_cell();
  OffloadConfig cfg;
  cfg.policy = state.range(0) == 0 ? OffloadPolicy::kBestSurplus
                                   : OffloadPolicy::kRandom;
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    const RunMetrics m = run_offload(c.topo, c.arrivals, cfg);
    jobs += m.arrived;
  }
  state.SetItemsProcessed(static_cast<int64_t>(jobs));
}
BENCHMARK(BM_OffloadBaseline)->Arg(0)->Arg(1);

// ------------------------------------------------------- §12 hardening ----

void BM_DedupWindow(benchmark::State& state) {
  // The per-delivery cost of the anti-replay window on a realistic mix:
  // mostly in-order sequences with periodic duplicates and in-window
  // back-fills (the shape chaos runs actually produce).
  std::uint64_t accepted = 0;
  for (auto _ : state) {
    fault::DedupWindow w;
    std::uint64_t seq = 0;
    for (int i = 0; i < 1000; ++i) {
      accepted += w.accept(++seq);       // fresh, in order
      if (i % 7 == 0) accepted += w.accept(seq);       // network duplicate
      if (i % 13 == 0 && seq > 4) accepted += w.accept(seq - 4);  // reorder
    }
    benchmark::DoNotOptimize(w.max_seq());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
  benchmark::DoNotOptimize(accepted);
}
BENCHMARK(BM_DedupWindow);

void BM_ChaosRecoveryRound(benchmark::State& state) {
  // The retransmit path end to end: a lossy duplicate-and-reorder network
  // forces the backoff ladder (arm / fire / fresh-seq resend / cancel)
  // on every protocol round. Compare against BM_WorkloadSimulation for
  // the price of chaos recovery itself.
  exp::ConditionSpec cs;
  cs.net = NetShape::kGrid;
  cs.sites = 36;
  cs.delay_min = 0.2;
  cs.delay_max = 0.8;
  cs.rate = 0.02;
  cs.horizon = 200.0;
  cs.seed = 11;
  const exp::Condition c = exp::make_condition(cs);
  SystemConfig cfg;
  cfg.faults.drop_prob = 0.05;
  cfg.faults.dup_prob = 0.05;
  cfg.faults.reorder_prob = 0.1;
  cfg.node.retransmit = true;
  std::uint64_t retransmits = 0;
  for (auto _ : state) {
    RtdsSystem system(c.topo, cfg);
    system.run(c.arrivals);
    retransmits += system.metrics().retransmits;
  }
  state.SetItemsProcessed(static_cast<int64_t>(retransmits));
  state.SetLabel("items = retransmissions");
}
BENCHMARK(BM_ChaosRecoveryRound);

// ---------------------------------------------------------- checkpoints ----

void BM_SnapshotSaveRestore(benchmark::State& state) {
  // One full checkpoint cycle of a mid-run system: serialize the live
  // state (clock, pending events, node machines, tables, metrics), then
  // restore it into a freshly constructed system. This is the per-save
  // cost `rtds_exp --checkpoint-every` pays, and the restore half is what
  // a warm-start cache hit pays instead of sphere bring-up.
  exp::ConditionSpec cs;
  cs.net = NetShape::kGrid;
  cs.sites = 36;
  cs.delay_min = 0.2;
  cs.delay_max = 0.8;
  cs.rate = 0.02;
  cs.horizon = 200.0;
  cs.seed = 11;
  const exp::Condition c = exp::make_condition(cs);
  const SystemConfig cfg;
  RtdsSystem system(c.topo, cfg);
  system.start(c.arrivals);
  system.step_events(2000);  // snapshot mid-run, with real pending events
  const std::string snapshot = snap::Snapshot::save(system);
  for (auto _ : state) {
    std::string bytes = snap::Snapshot::save(system);
    RtdsSystem restored(c.topo, cfg);
    snap::Snapshot::load(std::move(bytes), restored);
    benchmark::DoNotOptimize(restored.metrics().arrived);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(snapshot.size()));
  state.SetLabel(std::to_string(snapshot.size()) +
                 "-byte snapshot, 36 sites mid-run");
}
BENCHMARK(BM_SnapshotSaveRestore);

void BM_WarmStartBringUp(benchmark::State& state) {
  // RtdsSystem construction with the bring-up cache hot vs cold (arg
  // 1/0): the per-trial saving `rtds_exp --warm-start` buys a sweep that
  // reuses one topology. Pure construction — no events fired.
  const bool warm = state.range(0) != 0;
  Rng rng(18);
  const Topology topo = make_grid(16, 16, DelayRange{0.5, 2.0}, rng);
  snap::warm_start_clear();
  snap::set_warm_start_enabled(warm);
  if (warm) {  // populate the cache
    RtdsSystem prime(topo, SystemConfig{});
    benchmark::DoNotOptimize(prime.metrics().arrived);
  }
  for (auto _ : state) {
    RtdsSystem system(topo, SystemConfig{});
    benchmark::DoNotOptimize(system.metrics().arrived);
  }
  snap::set_warm_start_enabled(false);
  snap::warm_start_clear();
  state.SetLabel(warm ? "256 sites, cache hit" : "256 sites, cold build");
}
BENCHMARK(BM_WarmStartBringUp)->Arg(0)->Arg(1);

// ------------------------------------------------- open-system traffic ----

void BM_ArrivalSourceNext(benchmark::State& state) {
  // Per-arrival cost of the lazy streaming generator: the price every
  // open-system run pays per job before any protocol work happens.
  // Arg: 0 = poisson, 1 = bursty (MMPP), 2 = diurnal curve.
  load::ArrivalSpec spec;
  spec.kind = static_cast<load::ArrivalKind>(state.range(0));
  spec.site_count = 64;
  spec.workload.arrival_rate_per_site = 0.05;
  spec.workload.seed = 17;
  std::uint64_t pulled = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const auto source = load::make_arrival_source(spec);
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      auto a = source->next();
      benchmark::DoNotOptimize(a);
      ++pulled;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(pulled));
  state.SetLabel(load::to_string(spec.kind));
}
BENCHMARK(BM_ArrivalSourceNext)->Arg(0)->Arg(1)->Arg(2);

void BM_ShedQueuePush(benchmark::State& state) {
  // The overload path end to end: a heavily oversubscribed open run with
  // a one-slot admission queue, so nearly every arrival exercises the
  // bounded-queue shed decision (drop-lowest-laxity: the O(cap) victim
  // scan). items = jobs shed per wall-second.
  Rng rng(13);
  const Topology topo = make_net(NetShape::kGrid, 16, DelayRange{0.5, 2.0},
                                 rng);
  load::ArrivalSpec spec;
  spec.site_count = 16;
  spec.workload.arrival_rate_per_site = 0.3;
  spec.workload.seed = 13;
  policy::register_builtin_policies();  // idempotent
  const auto policy = policy::PolicyRegistry::instance().create("rtds");
  const auto params = policy::ParamMap::parse_pairs(
      {{"shed.cap", "1"}, {"shed.policy", "drop_lowest_laxity"}},
      policy->describe_params());
  load::OpenConfig cfg;
  cfg.duration = 60.0;
  std::uint64_t shed = 0;
  for (auto _ : state) {
    const auto source = load::make_arrival_source(spec);
    const auto r = load::run_open_rtds(topo, *source, cfg, params);
    const auto it = r.metrics.reject_by_reason.find(
        static_cast<int>(RejectReason::kShed));
    shed += it == r.metrics.reject_by_reason.end() ? 0 : it->second;
  }
  state.SetItemsProcessed(static_cast<int64_t>(shed));
  state.SetLabel("items = jobs shed");
}
BENCHMARK(BM_ShedQueuePush);

}  // namespace
}  // namespace rtds

namespace {

/// Console reporter that additionally writes the machine-readable perf
/// record: one JSON object per benchmark with ns/op (real and CPU) and
/// items/s, so CI can track the perf trajectory commit over commit.
/// Target file is BENCH_micro.json in the working directory (override:
/// RTDS_BENCH_JSON). Wraps the display reporter because google-benchmark
/// ignores a custom file reporter unless --benchmark_out is set.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      Entry e;
      e.name = run.benchmark_name();
      e.real_ns = run.GetAdjustedRealTime();
      e.cpu_ns = run.GetAdjustedCPUTime();
      e.iterations = static_cast<double>(run.iterations);
      const auto it = run.counters.find("items_per_second");
      e.items_per_second = it != run.counters.end() ? it->second.value : 0.0;
      entries_.push_back(std::move(e));
    }
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    const char* env_path = std::getenv("RTDS_BENCH_JSON");
    const std::string path = env_path ? env_path : "BENCH_micro.json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench_micro: cannot write " << path << "\n";
      return;
    }
    out << "{\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << "    {\"name\": \"" << e.name << "\", \"ns_per_op\": "
          << std::setprecision(17) << e.real_ns
          << ", \"cpu_ns_per_op\": " << e.cpu_ns
          << ", \"items_per_second\": " << e.items_per_second
          << ", \"iterations\": " << e.iterations << "}"
          << (i + 1 < entries_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cerr << "bench_micro: wrote " << path << " (" << entries_.size()
              << " benchmarks)\n";
  }

 private:
  struct Entry {
    std::string name;
    double real_ns = 0.0;
    double cpu_ns = 0.0;
    double items_per_second = 0.0;
    double iterations = 0.0;
  };
  std::vector<Entry> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
