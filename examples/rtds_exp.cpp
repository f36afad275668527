// rtds_exp — list and run registered experiment scenarios and policies.
//
//   rtds_exp --list
//       names + descriptions of every sweep scenario, report, and
//       registered scheduler policy
//   rtds_exp --scenario=NAME [--jobs=N] [--replicates=R]
//            [--seeds=fixed|derived] [--sink=table|csv|jsonl] [--out=FILE]
//            [--verify]
//       run one sweep: trials fan out over N worker threads; aggregates
//       are bit-identical for any N (--verify re-runs serially and checks).
//       --seeds=derived gives every (grid point, replicate) its own
//       reproducible seed; --seeds=fixed (scenario default for the legacy
//       paper tables) reuses the scenario's fixed seed everywhere.
//   rtds_exp --report=NAME [--out=FILE]
//       print a report scenario (worked examples, protocol traces)
//   rtds_exp --policy=NAME [--describe] [--set key=value ...]
//            [condition flags] [--json] [--out=FILE]
//       run one registered policy over one generated condition and print
//       its metrics (--json: the RunMetrics::to_jsonl record instead of
//       the table). --set validates against the policy's ParamSchema
//       (unknown keys and bad values fail loudly with the schema).
//       --describe prints the schema instead of running. Condition flags:
//       --net --sites --rate --horizon --laxity-min --laxity-max
//       --delay-min --delay-max --min-tasks --max-tasks --seed.
//
// Open-system mode (src/load/, DESIGN.md §13):
//   --duration=T    switch from the closed batch to an open streamed run of
//                   length T. In --policy mode the rtds policy streams
//                   lazily (bounded memory) and reports steady-state
//                   windowed metrics; baselines run the duration prefix as
//                   a batch. In --scenario/--report mode the override is
//                   visible to duration-aware scenarios (e9_steady_state,
//                   e9_saturation) and bounds their run length.
//   --warmup=T --window=W
//                   steady-state measurement: trim completions before T,
//                   then tumble W-wide quantile windows (policy mode).
//   --workload-trace=FILE
//                   replay a saved arrival trace (rtds_cli gen-load /
//                   core/trace_io format) instead of generating arrivals.
//                   Validated against the topology's site count. Note:
//                   --trace=FILE is unrelated — it *writes* obs events.
//
// Observability (scenario and policy modes, DESIGN.md §11):
//   --trace=FILE    record per-message / per-protocol-phase events; FILE
//                   ending in .jsonl gets the compact JSONL stream, any
//                   other name gets Chrome trace-event JSON (Perfetto).
//   --metrics=FILE  write merged obs counters as JSONL, one metric per
//                   line, name-sorted — byte-identical for any --jobs.
//   --profile       time the coarse phases (APSP build, bring-up, run,
//                   repair) on the wall clock; table goes to stderr so
//                   determinism surfaces stay untouched.
//
// Exit status: 0 on success, 1 on a failed --verify, 2 on usage errors.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "core/trace_io.hpp"
#include "exp/cli.hpp"
#include "exp/condition.hpp"
#include "exp/runner.hpp"
#include "exp/scenarios.hpp"
#include "exp/sinks.hpp"
#include "load/engine.hpp"
#include "load/load_params.hpp"
#include "policy/policy.hpp"
#include "snap/io.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace rtds;
using namespace rtds::exp;

namespace {

[[noreturn]] void usage() {
  std::cerr <<
      "usage: rtds_exp --list\n"
      "       rtds_exp --scenario=NAME [--jobs=N] [--replicates=R]\n"
      "                [--seeds=fixed|derived] [--sink=table|csv|jsonl]\n"
      "                [--out=FILE] [--verify] [--check-invariants]\n"
      "                [--duration=T] [--warm-start]\n"
      "                [--checkpoint=FILE] [--resume]\n"
      "                [--trace=FILE] [--metrics=FILE] [--profile]\n"
      "       rtds_exp --report=NAME [--out=FILE] [--duration=T]\n"
      "       rtds_exp --policy=NAME [--describe] [--set key=value ...]\n"
      "                [--net=grid --sites=64 --rate=0.02 --horizon=400\n"
      "                 --laxity-min --laxity-max --delay-min --delay-max\n"
      "                 --min-tasks --max-tasks --seed] [--json] [--out=FILE]\n"
      "                [--duration=T --warmup=T --window=W]\n"
      "                [--workload-trace=FILE] [--warm-start]\n"
      "                [--checkpoint=FILE --checkpoint-every=N] [--resume]\n"
      "                [--trace=FILE] [--metrics=FILE] [--profile]\n";
  std::exit(2);
}

void list_scenarios() {
  const auto& registry = Registry::instance();
  Table sweeps({"scenario", "grid", "reps", "warm-start", "metrics",
                "description"});
  for (const auto& name : registry.scenario_names()) {
    const ScenarioSpec* spec = registry.find(name);
    // The emitted-metrics column: what this sweep's trials measure —
    // the columns of its table/CSV output, in declaration order.
    std::string metrics;
    for (const auto& m : spec->metrics) {
      if (!metrics.empty()) metrics += ",";
      metrics += m.key;
    }
    sweeps.add_row({name, Table::num(spec->grid_size()),
                    Table::num(spec->replicates),
                    spec->warm_start ? "yes" : "no", metrics,
                    spec->description});
  }
  std::cout << "sweep scenarios:\n";
  sweeps.print(std::cout);

  Table reports({"report", "description"});
  for (const auto& name : registry.report_names())
    reports.add_row({name, registry.report_description(name)});
  std::cout << "\nreport scenarios:\n";
  reports.print(std::cout);

  Table policies({"policy", "params", "description"});
  for (const auto& name : policy::PolicyRegistry::instance().names()) {
    const auto p = policy::PolicyRegistry::instance().create(name);
    policies.add_row({name,
                      Table::num(p->describe_params().specs().size()),
                      p->description()});
  }
  std::cout << "\nregistered policies (run with --policy=NAME, inspect with "
               "--policy=NAME --describe):\n";
  policies.print(std::cout);
}

/// --policy mode: one registered policy, one generated condition.
int run_policy_cmd(const std::string& name, const Flags& flags,
                   const RunContext& ctx) {
  const auto policy = policy::PolicyRegistry::instance().create(name);

  if (flags.get_bool("describe", false)) {
    // --set is valid alongside --describe (usage lists them independently);
    // validate the assignments so typos still fail, but don't run.
    policy->parse_params(flags.get_all("set"));
    flags.check_unused();
    std::cout << name << " — " << policy->description() << "\nparams:\n"
              << policy->describe_params().describe();
    return 0;
  }

  const std::vector<std::string> assignments = flags.get_all("set");
  const policy::ParamMap params = policy->parse_params(assignments);

  ConditionSpec cs;
  cs.net = net_shape_from_string(flags.get_string("net", "grid"));
  cs.sites = static_cast<std::size_t>(flags.get_int("sites", 64));
  cs.rate = flags.get_double("rate", 0.02);
  cs.horizon = flags.get_double("horizon", 400.0);
  cs.laxity_min = flags.get_double("laxity-min", 2.0);
  cs.laxity_max = flags.get_double("laxity-max", 6.0);
  cs.delay_min = flags.get_double("delay-min", 0.5);
  cs.delay_max = flags.get_double("delay-max", 2.0);
  cs.min_tasks = static_cast<std::size_t>(flags.get_int("min-tasks", 4));
  cs.max_tasks = static_cast<std::size_t>(flags.get_int("max-tasks", 12));
  cs.seed = flags.get_seed("seed", 42);
  const std::string out = flags.get_string("out", "");
  const bool json = flags.get_bool("json", false);
  // Open-system mode: --duration (read once in main) switches from the
  // closed batch to a streamed run; --warmup/--window shape its windows.
  const Time duration = ctx.duration;
  const Time warmup = flags.get_double("warmup", 100.0);
  const Time window_width = flags.get_double("window", 50.0);
  const std::string workload_trace = flags.get_string("workload-trace", "");
  // Checkpoint/resume for long open runs (snap/, DESIGN.md §14).
  const std::string checkpoint = flags.get_string("checkpoint", "");
  const std::uint64_t checkpoint_every = static_cast<std::uint64_t>(
      flags.get_int("checkpoint-every", 100'000));
  const bool resume = flags.get_bool("resume", false);
  if ((resume || !checkpoint.empty()) &&
      (duration <= 0.0 || name != "rtds")) {
    std::cerr << "error: --checkpoint/--resume apply to open rtds runs only "
                 "(--policy=rtds --duration=T)\n";
    return 2;
  }
  if (resume && checkpoint.empty()) {
    std::cerr << "error: --resume needs --checkpoint=FILE\n";
    return 2;
  }
  const ObsFlags obs_flags = parse_obs_flags(flags);
  flags.check_unused();

  // The workload.* --set keys steer generation (bursty/diurnal arrivals,
  // deadline base); with none set the spec — and the closed-path bytes —
  // are untouched.
  const Topology topo = make_topology(cs);
  load::ArrivalSpec aspec;
  aspec.site_count = topo.site_count();
  aspec.workload = workload_config(cs);
  load::workload_table().apply(params, aspec);
  // The closed generator reads the process off its WorkloadConfig.
  if (aspec.kind == load::ArrivalKind::kBursty)
    aspec.workload.arrival_process = ArrivalProcess::kBursty;
  if (!workload_trace.empty()) {
    // Replay a saved trace (validated against this topology) instead of
    // generating. Distinct from --trace=FILE, which *writes* obs events.
    std::ifstream file(workload_trace);
    RTDS_REQUIRE_MSG(file.good(), "cannot open " << workload_trace);
    aspec.kind = load::ArrivalKind::kTrace;
    aspec.trace = read_trace(file, topo.site_count());
  }

  obs::MetricsBuffer obs_metrics;
  obs::TraceRecorder trace;
  RunMetrics m;
  std::optional<load::OpenRunResult> open_result;
  {
    // Single run, so bind the obs context directly (runner not involved).
    const auto scope = obs_flags.bind(obs_metrics, trace);
    if (duration > 0.0) {
      const auto source = load::make_arrival_source(aspec);
      if (name == "rtds") {
        load::OpenConfig ocfg;
        ocfg.duration = duration;
        ocfg.window.warmup = warmup;
        ocfg.window.width = window_width;
        ocfg.checkpoint_path = checkpoint;
        ocfg.checkpoint_every = checkpoint_every;
        ocfg.resume = resume;
        ocfg.context = ctx;
        try {
          open_result = load::run_open_rtds(topo, *source, ocfg, params);
        } catch (const ContractViolation& e) {
          if (!resume) throw;
          std::cerr << "error: " << e.what()
                    << "\nhint: --resume reads the checkpoint a previous "
                       "--checkpoint=FILE run with identical topology and "
                       "params wrote (container: RTDSNAP magic, format v"
                    << snap::kFormatVersion
                    << ", config hash; then checksummed sections "
                       "clock/tables/fault/checker/nodes/transport/system/"
                       "events/obs/collector/source)\n";
          return 2;
        }
        m = open_result->metrics;
      } else {
        m = load::run_open_policy(*policy, topo, *source, duration, params);
      }
    } else {
      std::vector<JobArrival> arrivals;
      if (aspec.kind == load::ArrivalKind::kTrace)
        arrivals = std::move(aspec.trace);
      else if (aspec.kind == load::ArrivalKind::kDiurnal)
        // The diurnal curve only exists in the open generator; the closed
        // batch uses its eager path over the condition's horizon.
        arrivals = load::generate_open_workload(aspec, cs.horizon);
      else
        arrivals = generate_workload(topo.site_count(), aspec.workload);
      m = policy->run(topo, arrivals, params, ctx);
    }
  }
  write_obs_outputs(obs_flags, {&trace, 1}, obs_metrics);

  if (json) {
    std::ostringstream text;
    m.to_jsonl(text);
    write_output(out, text.str());
    return 0;
  }

  Table t({"metric", "value"});
  t.add_row({"policy", name});
  for (const auto& assignment : assignments) t.add_row({"set", assignment});
  t.add_row({"jobs", Table::num(std::size_t{m.arrived})});
  t.add_row({"guarantee ratio", Table::num(m.guarantee_ratio(), 4)});
  t.add_row({"delivered ratio", Table::num(m.delivered_ratio(), 4)});
  t.add_row({"accepted local", Table::num(std::size_t{m.accepted_local})});
  t.add_row({"accepted remote", Table::num(std::size_t{m.accepted_remote})});
  t.add_row({"rejected", Table::num(std::size_t{m.rejected})});
  t.add_row({"deadline misses", Table::num(std::size_t{m.deadline_misses})});
  t.add_row({"jobs lost", Table::num(std::size_t{m.jobs_lost})});
  t.add_row({"jobs rescheduled", Table::num(std::size_t{m.jobs_rescheduled})});
  t.add_row({"repair messages", Table::num(std::size_t{m.repair_messages})});
  t.add_row({"messages dropped",
             Table::num(std::size_t{m.transport.messages_dropped})});
  t.add_row({"link messages",
             Table::num(std::size_t{m.transport.total_link_messages})});
  t.add_row({"msgs/job mean",
             Table::num(m.msgs_per_job.count() ? m.msgs_per_job.mean() : 0.0,
                        2)});
  t.add_row({"decision latency mean",
             Table::num(
                 m.decision_latency.count() ? m.decision_latency.mean() : 0.0,
                 3)});
  if (open_result) {
    // Steady-state block (open rtds runs only): post-warm-up windowed
    // sojourn quantiles and the saturation knee.
    const auto& s = open_result->steady;
    const auto shed_it =
        m.reject_by_reason.find(static_cast<int>(RejectReason::kShed));
    t.add_row({"jobs shed",
               Table::num(std::size_t{
                   shed_it == m.reject_by_reason.end() ? 0u : shed_it->second})});
    t.add_row({"steady completed", Table::num(std::size_t{s.completed})});
    t.add_row({"sojourn mean", Table::num(s.sojourn_mean, 3)});
    t.add_row({"sojourn p50", Table::num(s.p50, 3)});
    t.add_row({"sojourn p95", Table::num(s.p95, 3)});
    t.add_row({"sojourn p99", Table::num(s.p99, 3)});
    t.add_row({"knee window", Table::num(static_cast<long long>(s.knee_window))});
    t.add_row({"windows", Table::num(open_result->windows.size())});
  }

  std::ostringstream text;
  t.print(text);
  write_output(out, text.str());
  return 0;
}

int run_sweep(const ScenarioSpec& base, const Flags& flags,
              const RunContext& ctx) {
  ScenarioSpec spec = base;
  const std::string seeds = flags.get_string("seeds", "");
  if (seeds == "fixed") {
    spec.seed_mode = SeedMode::kFixed;
  } else if (seeds == "derived") {
    spec.seed_mode = SeedMode::kDerived;
  } else if (!seeds.empty()) {
    usage();
  }

  RunOptions opts;
  opts.jobs = static_cast<std::size_t>(flags.get_int("jobs", 1));
  opts.replicates = static_cast<std::size_t>(flags.get_int("replicates", 0));
  if (opts.replicates > 1 && spec.seed_mode == SeedMode::kFixed) {
    // Replicates under one shared seed recompute the identical trial N
    // times — stddev 0 at N× the cost. Auto-derive per-replicate seeds
    // unless the user explicitly insisted on the fixed seed.
    if (seeds == "fixed") {
      std::cerr << "warning: --replicates with --seeds=fixed reruns the "
                   "same seed; every replicate will be identical\n";
    } else {
      spec.seed_mode = SeedMode::kDerived;
      std::cerr << "note: --replicates switches to derived per-trial seeds "
                   "(use --seeds=fixed to override)\n";
    }
  }
  const bool verify = flags.get_bool("verify", false);
  const std::string sink_name = flags.get_string("sink", "table");
  const std::string out = flags.get_string("out", "");
  opts.context = ctx;
  opts.journal_path = flags.get_string("checkpoint", "");
  opts.resume = flags.get_bool("resume", false);
  if (opts.resume && opts.journal_path.empty()) {
    std::cerr << "error: --resume needs --checkpoint=FILE\n";
    return 2;
  }
  const ObsFlags obs_flags = parse_obs_flags(flags);
  flags.check_unused();
  const auto sink = make_sink(sink_name);  // validate before the sweep runs

  RunObservation observation;
  if (obs_flags.want_observation()) {
    observation.record_traces = !obs_flags.trace_file.empty();
    opts.observe = &observation;
  }
  std::vector<AggregateRow> rows;
  try {
    rows = run_scenario(spec, opts);
  } catch (const ContractViolation& e) {
    if (!opts.resume) throw;
    std::cerr << "error: " << e.what()
              << "\nhint: --resume reads the sweep journal a previous "
                 "--checkpoint=FILE run of this exact sweep wrote ("
                 "container: RTDSNAP magic, format v"
              << snap::kFormatVersion
              << ", sweep-identity hash over scenario/grid/replicates/"
                 "seeds/observe and any --duration override; then "
                 "checksummed \"trial\" sections)\n";
    return 2;
  }
  write_obs_outputs(obs_flags, observation.traces, observation.metrics);

  if (verify) {
    RunOptions serial = opts;
    serial.jobs = 1;
    serial.observe = nullptr;  // the reference run keeps its own surfaces
    const auto reference = run_scenario(spec, serial);
    if (!aggregates_identical(rows, reference)) {
      std::cerr << "FAIL: parallel aggregates (" << opts.jobs
                << " jobs) differ from the serial run\n";
      return 1;
    }
    std::cerr << "verified: " << opts.jobs
              << "-worker aggregates bit-identical to serial\n";
  }

  std::ostringstream text;
  if (sink_name == "table" && !spec.title.empty()) text << spec.title << "\n";
  sink->write(spec, rows, text);
  write_output(out, text.str());
  return 0;
}

int run_report_cmd(const std::string& name, const Flags& flags,
                   const RunContext& ctx) {
  const std::string out = flags.get_string("out", "");
  flags.check_unused();
  std::ostringstream text;
  run_report(name, text, ctx);
  write_output(out, text.str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    register_builtin_scenarios();
    Flags flags(argc, argv, {"set"});

    // Every command's run settings: the non-fatal §12 checker, the
    // warm-start cache (DESIGN.md §14, bit-identical to cold runs) and the
    // open-run length, honoured by --policy mode and by duration-aware
    // scenarios and reports.
    const RunContext ctx = run_context_from(flags, /*with_duration=*/true);

    if (flags.get_bool("list", false)) {
      flags.check_unused();
      list_scenarios();
      return 0;
    }

    const std::string scenario = flags.get_string("scenario", "");
    const std::string report = flags.get_string("report", "");
    const std::string policy_name = flags.get_string("policy", "");
    if (!policy_name.empty()) return run_policy_cmd(policy_name, flags, ctx);
    if (!scenario.empty()) {
      const ScenarioSpec* spec = Registry::instance().find(scenario);
      if (spec == nullptr) {
        // Allow --scenario to name a report too, for discoverability.
        if (Registry::instance().find_report(scenario) != nullptr)
          return run_report_cmd(scenario, flags, ctx);
        std::cerr << "unknown scenario " << scenario
                  << " (try --list)\n";
        return 2;
      }
      return run_sweep(*spec, flags, ctx);
    }
    if (!report.empty()) {
      if (Registry::instance().find_report(report) == nullptr) {
        std::cerr << "unknown report " << report << " (try --list)\n";
        return 2;
      }
      return run_report_cmd(report, flags, ctx);
    }
    usage();
  } catch (const std::exception& e) {
    // Same exit-path contract as rtds_cli: every uncaught std::exception
    // becomes a non-zero exit with a diagnostic plus a schema hint, never
    // a raw terminate (pinned by the EXPERIMENTS.md docs-smoke negative
    // check).
    std::cerr << "error: " << e.what() << "\n"
              << "hint: `rtds_exp --list` names the registered scenarios "
                 "and policies; inspect a policy's parameter schema with "
                 "`rtds_exp --policy=NAME --describe`\n";
    return 2;
  }
}
