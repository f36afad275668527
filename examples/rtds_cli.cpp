// rtds_cli — file-driven command-line front end for the whole library.
//
// Subcommands:
//   gen-net    --net=<shape> --sites=N [--delay-min --delay-max --seed]
//              [--out=FILE]            generate a topology file
//   gen-load   --sites=N [--rate --horizon --laxity-min --laxity-max
//              --process=poisson|bursty|diurnal --burst-on --burst-off
//              --burst-mult --deadline=cp|work --seed]
//              [--out=FILE]            generate a workload trace file
//   run        --net=FILE --load=FILE [--policy=NAME | --scheduler=NAME]
//              (--workload-trace=FILE is an alias for --load; the flag name
//              matches rtds_exp, where --trace means the obs event output)
//              [--set key=value ...] [--h --policy=edf|exact|preemptive
//              --transport=ideal|contended --bandwidth --slack]
//              [--faults=k=v,k=v,...]
//              [--trace=FILE] [--metrics=FILE] [--profile]
//              run a registered scheduler policy over saved inputs; --set
//              is validated against the policy's ParamSchema. --faults is
//              shorthand for fault-injection overrides: each k=v becomes
//              --set faults.k=v (e.g. --faults=site_rate=0.002,drop=0.01).
//              --trace records protocol/message events (FILE.jsonl =
//              compact stream, otherwise Chrome trace JSON for Perfetto),
//              --metrics dumps the run's obs counters as JSONL, --profile
//              prints wall-clock phase timings to stderr (DESIGN.md §11)
//   inspect    --net=FILE | --load=FILE   summarize a saved artifact
//   --repro=FILE [--quiet]   replay a fuzzer .repro scenario bit-identically
//              (src/fuzz, DESIGN.md §15): re-runs the pinned scenario under
//              the fatal invariant checker plus its recorded cross-checks.
//              Exit 0 iff the repro behaves as pinned — a benign repro must
//              pass (its metrics JSONL goes to stdout for byte-diffing), a
//              failure repro must reproduce its expected-failure tag.
//
// Scheduler dispatch goes through the PolicyRegistry: any registered
// policy name works for --policy/--scheduler (rtds, local, central, bcast,
// bid, random, plus whatever else registered). `--policy=edf|exact|
// preemptive` keeps its legacy meaning — the §5 local admission test —
// and maps to `--set admission=...`.
//
// Everything round-trips through the text formats in dag/io, net/io and
// core/trace_io, so experiments are archivable and replayable byte-for-byte.
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/trace_io.hpp"
#include "dag/analysis.hpp"
#include "exp/cli.hpp"
#include "fuzz/checks.hpp"
#include "load/source.hpp"
#include "net/generators.hpp"
#include "net/io.hpp"
#include "policy/policy.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace rtds;

namespace {

[[noreturn]] void usage() {
  std::cerr <<
      "usage: rtds_cli <gen-net|gen-load|run|inspect> [--flags]\n"
      "  gen-net  --net=grid --sites=64 [--delay-min=0.5 --delay-max=2.0\n"
      "           --seed=42 --out=net.txt]\n"
      "  gen-load --sites=64 [--rate=0.02 --horizon=1000 --laxity-min=2\n"
      "           --laxity-max=6 --process=poisson|bursty|diurnal\n"
      "           --burst-on=50 --burst-off=200 --burst-mult=6\n"
      "           --deadline=cp|work --seed=42 --out=load.txt]\n"
      "  run      --net=net.txt (--load=load.txt | --workload-trace=load.txt)\n"
      "           [--policy=rtds\n"
      "           --set h=2 --set admission=edf ... | --h=2 --policy=edf\n"
      "           --transport=ideal --bandwidth=100]\n"
      "           [--faults=site_rate=0.002,site_mttr=25,drop=0.01]\n"
      "           [--check-invariants] [--warm-start]\n"
      "           [--trace=FILE] [--metrics=FILE] [--profile]\n"
      "  inspect  --net=net.txt | --load=load.txt\n"
      "  rtds_cli --repro=finding.repro [--quiet]   replay a fuzzer repro\n";
  std::exit(2);
}

void write_file_or_stdout(const std::string& path, const std::string& text) {
  exp::write_output(path, text);
  if (!path.empty()) std::cout << "wrote " << path << "\n";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  RTDS_REQUIRE_MSG(in.good(), "cannot open " << path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

int cmd_gen_net(const Flags& flags) {
  const auto shape = net_shape_from_string(flags.get_string("net", "grid"));
  const auto sites = static_cast<std::size_t>(flags.get_int("sites", 64));
  DelayRange delays{flags.get_double("delay-min", 0.5),
                    flags.get_double("delay-max", 2.0)};
  Rng rng(flags.get_seed("seed", 42));
  const auto out = flags.get_string("out", "");
  flags.check_unused();
  const Topology topo = make_net(shape, sites, delays, rng);
  write_file_or_stdout(out, topology_to_string(topo));
  return 0;
}

int cmd_gen_load(const Flags& flags) {
  const auto sites = static_cast<std::size_t>(flags.get_int("sites", 64));
  WorkloadConfig wl;
  wl.arrival_rate_per_site = flags.get_double("rate", 0.02);
  wl.horizon = flags.get_double("horizon", 1000.0);
  wl.laxity_min = flags.get_double("laxity-min", 2.0);
  wl.laxity_max = flags.get_double("laxity-max", 6.0);
  wl.min_tasks = static_cast<std::size_t>(flags.get_int("min-tasks", 4));
  wl.max_tasks = static_cast<std::size_t>(flags.get_int("max-tasks", 12));
  wl.seed = flags.get_seed("seed", 42);
  wl.burst_on_mean = flags.get_double("burst-on", wl.burst_on_mean);
  wl.burst_off_mean = flags.get_double("burst-off", wl.burst_off_mean);
  wl.burst_multiplier = flags.get_double("burst-mult", wl.burst_multiplier);
  const auto process = flags.get_string("process", "poisson");
  bool diurnal = false;
  if (process == "bursty")
    wl.arrival_process = ArrivalProcess::kBursty;
  else if (process == "diurnal")
    diurnal = true;  // open-generator curve, materialized over the horizon
  else
    RTDS_REQUIRE_MSG(process == "poisson", "unknown --process=" << process);
  const auto deadline = flags.get_string("deadline", "cp");
  if (deadline == "work")
    wl.deadline_model = DeadlineModel::kTotalWork;
  else
    RTDS_REQUIRE_MSG(deadline == "cp", "unknown --deadline=" << deadline);
  const auto out = flags.get_string("out", "");
  flags.check_unused();
  std::vector<JobArrival> arrivals;
  if (diurnal) {
    // The diurnal rate curve only exists in the open-system generator
    // (src/load/); its eager path is the closed-batch equivalent.
    load::ArrivalSpec spec;
    spec.kind = load::ArrivalKind::kDiurnal;
    spec.site_count = sites;
    spec.workload = wl;
    arrivals = load::generate_open_workload(spec, wl.horizon);
  } else {
    arrivals = generate_workload(sites, wl);
  }
  write_file_or_stdout(out, trace_to_string(arrivals));
  if (!out.empty())
    std::cout << arrivals.size() << " jobs over " << sites << " sites\n";
  return 0;
}

int cmd_run(const Flags& flags) {
  const auto net_path = flags.get_string("net", "");
  // --workload-trace is the canonical spelling (matching rtds_exp, where
  // --trace already means the obs event *output*); --load stays as the
  // historical alias. Same file format either way (core/trace_io).
  const auto load_path = flags.get_string("load", "");
  const auto workload_trace = flags.get_string("workload-trace", "");
  RTDS_REQUIRE_MSG(load_path.empty() || workload_trace.empty(),
                   "--load and --workload-trace are aliases; pass only one");
  const auto trace_path = load_path.empty() ? workload_trace : load_path;
  RTDS_REQUIRE_MSG(!net_path.empty() && !trace_path.empty(),
                   "run needs --net=FILE and --load=FILE "
                   "(or --workload-trace=FILE)");

  // Family selection: --scheduler, or --policy when it names a registered
  // policy. A non-policy --policy value keeps its legacy meaning (the §5
  // admission test) and becomes a `--set admission=...` override.
  auto& registry = policy::PolicyRegistry::instance();
  std::string family = flags.get_string("scheduler", "");
  const std::string policy_flag = flags.get_string("policy", "");
  std::string admission;
  if (registry.contains(policy_flag)) {
    RTDS_REQUIRE_MSG(family.empty() || family == policy_flag,
                     "--scheduler=" << family << " and --policy="
                                    << policy_flag << " disagree");
    family = policy_flag;
  } else if (policy_flag == "edf" || policy_flag == "exact" ||
             policy_flag == "preemptive") {
    admission = policy_flag;
  } else if (!policy_flag.empty()) {
    // Anything else is a typo'd family name, not an admission label —
    // diagnose it as such instead of forwarding it into the ParamMap.
    std::ostringstream os;
    for (const auto& known : registry.names()) os << " " << known;
    RTDS_REQUIRE_MSG(false, "unknown --policy=" << policy_flag
                                                << "; registered policies:"
                                                << os.str()
                                                << "; admission tests: edf "
                                                   "exact preemptive");
  }
  if (family.empty()) family = "rtds";
  const auto policy = registry.create(family);  // throws, listing names

  // Convenience flags become schema overrides; explicit --set wins (last
  // assignment takes precedence in ParamMap::parse).
  std::vector<std::string> sets;
  if (!admission.empty()) sets.push_back("admission=" + admission);
  if (flags.has("h")) sets.push_back("h=" + flags.get_string("h", ""));
  const std::string transport = flags.get_string("transport", "");
  if (!transport.empty()) {
    sets.push_back("transport=" + transport);
    if (transport == "contended") {
      sets.push_back("bandwidth=" + flags.get_string("bandwidth", "100"));
      // The contended transport needs protocol-overhead slack to absorb
      // queueing; keep this front end's historical default of 1.0.
      sets.push_back("overhead_slack=" + flags.get_string("slack", "1"));
    }
  }
  // --faults=k=v,k=v is sugar over the schema's faults.* keys; explicit
  // --set still wins (later assignments take precedence).
  const std::string faults = flags.get_string("faults", "");
  if (!faults.empty()) {
    std::istringstream in(faults);
    std::string item;
    while (std::getline(in, item, ',')) {
      RTDS_REQUIRE_MSG(item.find('=') != std::string::npos,
                       "--faults expects k=v[,k=v...], got '" << item << "'");
      sets.push_back("faults." + item);
    }
  }
  for (const auto& assignment : flags.get_all("set"))
    sets.push_back(assignment);
  const exp::ObsFlags obs_flags = exp::parse_obs_flags(flags);
  // The non-fatal §12 checker (violations count into the metrics row
  // below) and the warm-start bring-up cache (DESIGN.md §14).
  const RunContext ctx = exp::run_context_from(flags, /*with_duration=*/false);
  flags.check_unused();
  const policy::ParamMap params = policy->parse_params(sets);

  const Topology topo = topology_from_string(read_file(net_path));
  // read_trace validates format, times, arrival order and — given the
  // site count — that every job lands inside this topology.
  const auto arrivals =
      trace_from_string(read_file(trace_path), topo.site_count());

  obs::MetricsBuffer obs_metrics;
  obs::TraceRecorder trace;
  RunMetrics metrics;
  {
    // One run == one trial: bind the obs context for its duration only.
    const auto scope = obs_flags.bind(obs_metrics, trace);
    metrics = policy->run(topo, arrivals, params, ctx);
  }
  exp::write_obs_outputs(obs_flags, {&trace, 1}, obs_metrics);
  if (!obs_flags.trace_file.empty())
    std::cout << "wrote " << obs_flags.trace_file << " (" << trace.size()
              << " events)\n";
  if (!obs_flags.metrics_file.empty())
    std::cout << "wrote " << obs_flags.metrics_file << "\n";

  Table t({"metric", "value"});
  t.add_row({"scheduler", family});
  t.add_row({"jobs", Table::num(std::size_t{metrics.arrived})});
  t.add_row({"guarantee ratio", Table::num(metrics.guarantee_ratio(), 4)});
  t.add_row({"delivered ratio", Table::num(metrics.delivered_ratio(), 4)});
  t.add_row({"accepted local", Table::num(std::size_t{metrics.accepted_local})});
  t.add_row({"accepted remote", Table::num(std::size_t{metrics.accepted_remote})});
  t.add_row({"rejected", Table::num(std::size_t{metrics.rejected})});
  t.add_row({"deadline misses", Table::num(std::size_t{metrics.deadline_misses})});
  t.add_row({"dispatch failures", Table::num(std::size_t{metrics.dispatch_failures})});
  t.add_row({"jobs lost", Table::num(std::size_t{metrics.jobs_lost})});
  t.add_row({"jobs rescheduled", Table::num(std::size_t{metrics.jobs_rescheduled})});
  t.add_row({"repair messages", Table::num(std::size_t{metrics.repair_messages})});
  t.add_row({"messages dropped",
             Table::num(std::size_t{metrics.transport.messages_dropped})});
  t.add_row({"messages duplicated",
             Table::num(std::size_t{metrics.messages_duplicated})});
  t.add_row({"retransmits", Table::num(std::size_t{metrics.retransmits})});
  t.add_row({"invariant violations",
             Table::num(std::size_t{metrics.invariant_violations})});
  t.add_row({"link messages", Table::num(std::size_t{metrics.transport.total_link_messages})});
  t.add_row({"msgs/job mean",
             Table::num(metrics.msgs_per_job.count() ? metrics.msgs_per_job.mean() : 0.0, 2)});
  t.add_row({"decision latency mean",
             Table::num(metrics.decision_latency.count()
                            ? metrics.decision_latency.mean()
                            : 0.0, 3)});
  t.print(std::cout);
  return 0;
}

int cmd_inspect(const Flags& flags) {
  const auto net_path = flags.get_string("net", "");
  const auto load_path = flags.get_string("load", "");
  flags.check_unused();
  if (!net_path.empty()) {
    const Topology topo = topology_from_string(read_file(net_path));
    std::cout << "topology: " << topo.site_count() << " sites, "
              << topo.link_count() << " links, connected="
              << (topo.connected() ? "yes" : "no") << "\n";
    RunningStat delay, degree;
    for (const auto& l : topo.links()) delay.add(l.delay);
    for (SiteId s = 0; s < topo.site_count(); ++s)
      degree.add(double(topo.neighbors(s).size()));
    std::cout << "link delay mean " << delay.mean() << " [" << delay.min()
              << ", " << delay.max() << "]; degree mean " << degree.mean()
              << " max " << degree.max() << "\n";
  }
  if (!load_path.empty()) {
    const auto arrivals = trace_from_string(read_file(load_path));
    RunningStat tasks, laxity, work;
    for (const auto& a : arrivals) {
      tasks.add(double(a.job->dag.task_count()));
      work.add(a.job->dag.total_work());
      laxity.add((a.job->deadline - a.job->release) /
                 critical_path_length(a.job->dag));
    }
    std::cout << "trace: " << arrivals.size() << " jobs";
    if (!arrivals.empty()) {
      std::cout << " over [" << arrivals.front().job->release << ", "
                << arrivals.back().job->release << "]\n"
                << "tasks/job mean " << tasks.mean() << "; work mean "
                << work.mean() << "; laxity (vs CP) mean " << laxity.mean()
                << " [" << laxity.min() << ", " << laxity.max() << "]";
    }
    std::cout << "\n";
  }
  if (net_path.empty() && load_path.empty()) usage();
  return 0;
}

}  // namespace

int cmd_repro(const Flags& flags) {
  const std::string path = flags.get_string("repro", "");
  const bool quiet = flags.get_bool("quiet", false);
  flags.check_unused();
  RTDS_REQUIRE_MSG(!path.empty(), "--repro needs a file path");
  const fuzz::FuzzScenario scenario = fuzz::from_repro(read_file(path));
  const fuzz::CheckResult r = fuzz::run_scenario_checks(scenario);
  // Benign repros (no expected tag) print their reference metrics as one
  // JSONL line — the byte-diffable replay-determinism contract the CI
  // corpus check rests on. Failure repros succeed by reproducing.
  if (!r.metrics_jsonl.empty()) std::cout << r.metrics_jsonl << "\n";
  if (r.failed) {
    std::cerr << "repro: FAILED [" << r.tag << "] " << r.message << "\n";
    return 1;
  }
  if (!quiet)
    std::cerr << (scenario.expect.empty()
                      ? "repro: ok (benign scenario passed all checks)"
                      : "repro: reproduced [" + scenario.expect + "]")
              << "\n";
  return 0;
}

int main(int argc, char** argv) {
  if (argc < 2) usage();
  policy::register_builtin_policies();
  const std::string command = argv[1];
  try {
    // Flags parsing belongs INSIDE the try: a malformed value (--sites=x)
    // throws from the constructor, and an uncaught exception would
    // terminate without a diagnostic or a usable exit status.
    if (command.rfind("--repro", 0) == 0) {
      const Flags flags(argc, argv);
      return cmd_repro(flags);
    }
    const Flags flags(argc - 1, argv + 1, {"set"});
    if (command == "gen-net") return cmd_gen_net(flags);
    if (command == "gen-load") return cmd_gen_load(flags);
    if (command == "run") return cmd_run(flags);
    if (command == "inspect") return cmd_inspect(flags);
  } catch (const std::exception& e) {
    // Covers ContractViolation (bad params, unknown keys, malformed
    // files) and any std:: parse error alike.
    std::cerr << "error: " << e.what() << "\n"
              << "hint: run with a registered <command>; for run, "
                 "inspect parameter schemas with "
                 "`rtds_exp --policy=NAME --describe`\n";
    return 1;
  }
  usage();
}
