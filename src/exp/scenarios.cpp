// The paper's evaluation, expressed as declarative scenarios. Each paper
// sweep is one ScenarioSpec here, run by `rtds_exp --scenario=NAME`
// (EXPERIMENTS.md maps experiments to names). Tables are byte-for-byte
// identical to the pre-subsystem serial output: the legacy sweeps used one
// shared seed (42) for every grid point, which SeedMode::kFixed preserves.
//
// Since the unified Policy API every condition is (policy name, param
// overrides) *data* resolved through PolicyRegistry — no scenario calls a
// scheduler family directly, so a newly registered policy is sweepable
// here (and in the generic policy_sweep scenario) without touching this
// file.
#include "exp/scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "exp/condition.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "policy/policy.hpp"
#include "util/table.hpp"

namespace rtds::exp {

void register_builtin_reports();     // reports.cpp
void register_e9_steady_state();     // scenarios_e9.cpp (open-system E9)

namespace {

using policy::ParamMap;
using policy::PolicyRegistry;

constexpr double kSkip = std::numeric_limits<double>::quiet_NaN();

/// One scheduler condition as data: which registered policy, with which
/// `key=value` overrides on its schema defaults.
struct PolicySpec {
  std::string policy;
  std::vector<std::pair<std::string, std::string>> params;
};

/// Resolves and runs a PolicySpec, with optional per-trial overrides
/// appended (later assignments win, so grid-point values can refine a
/// variant's fixed params).
RunMetrics run_policy(
    const PolicySpec& ps, const Condition& c, const RunContext& ctx,
    const std::vector<std::pair<std::string, std::string>>& extra = {}) {
  const auto policy = PolicyRegistry::instance().create(ps.policy);
  auto pairs = ps.params;
  pairs.insert(pairs.end(), extra.begin(), extra.end());
  return policy->run(c.topo, c.arrivals,
                     ParamMap::parse_pairs(pairs, policy->describe_params()),
                     ctx);
}

MetricSpec ratio(std::string header, std::string key) {
  return MetricSpec{std::move(header), std::move(key), 1, 100.0};
}

MetricSpec count(std::string header, std::string key) {
  return MetricSpec{std::move(header), std::move(key), 0, 1.0};
}

const PolicySpec kRtdsH2{"rtds", {{"h", "2"}}};

// ------------------------------------------------------------------- E1 ----

void register_e1() {
  ScenarioSpec spec;
  spec.name = "e1_message_bound";
  spec.description =
      "per-job message cost vs network size (grid, h=2): RTDS stays flat, "
      "the [4]-style broadcast grows";
  spec.axes = {GridAxis::numeric("sites", "sites",
                                 {16, 36, 64, 144, 256, 576, 1024}, 0)};
  spec.metrics = {count("jobs", "jobs"),
                  ratio("ratio%", "guarantee_ratio"),
                  MetricSpec{"msgs/job mean", "msgs_per_job_mean", 1},
                  MetricSpec{"msgs/job max", "msgs_per_job_max", 0},
                  MetricSpec{"sphere bound", "sphere_bound", 0},
                  MetricSpec{"BCAST msgs/job", "bcast_msgs_per_job", 1},
                  count("PCS size max", "pcs_size_max")};
  spec.seed_mode = SeedMode::kFixed;
  spec.trial = [](const GridPoint& p, std::uint64_t seed,
                  const RunContext& ctx) -> TrialResult {
    ConditionSpec cs;
    cs.net = NetShape::kGrid;
    cs.sites = static_cast<std::size_t>(p.value(0));
    cs.rate = 0.02;
    cs.horizon = 400.0;
    cs.laxity_min = 1.5;
    cs.laxity_max = 3.0;
    cs.delay_min = 0.2;
    cs.delay_max = 0.8;
    cs.seed = seed;
    const Condition c = make_condition(cs);

    const RunMetrics m = run_policy(kRtdsH2, c, ctx);
    // Analytic per-job bound: 4 sphere-wide rounds (enroll, reply,
    // validate+reply, dispatch) of |PCS|-1 sends, each <= hop-diameter
    // hops, plus unlock slack -> 8 covers every code path.
    const double bound = 8.0 * static_cast<double>(m.pcs_size_max) *
                         static_cast<double>(m.pcs_hop_diameter_max);

    // Measured cost of the [4]-style periodic network-wide surplus flood,
    // amortized per job. Skipped above 256 sites: the flood itself is what
    // makes large runs expensive — which is the point.
    double bcast_msgs = kSkip;
    if (c.topo.site_count() <= 256) {
      const RunMetrics bm = run_policy(PolicySpec{"bcast", {}}, c, ctx);
      bcast_msgs = static_cast<double>(bm.transport.total_link_messages) /
                   static_cast<double>(bm.arrived);
    }

    return {static_cast<double>(m.arrived),
            m.guarantee_ratio(),
            m.msgs_per_job.mean(),
            m.msgs_per_job.max(),
            bound,
            bcast_msgs,
            static_cast<double>(m.pcs_size_max)};
  };
  Registry::instance().add(std::move(spec));
}

// ------------------------------------------------------------------- E2 ----

/// The comparison columns: one (policy, overrides) pair per family, in the
/// paper's table order.
std::vector<std::pair<std::string, PolicySpec>> e2_families() {
  return {{"RTDS%", kRtdsH2},          {"LOCAL%", {"local", {}}},
          {"BID%", {"bid", {}}},       {"RANDOM%", {"random", {}}},
          {"BCAST%", {"bcast", {}}},   {"CENTRAL%", {"central", {}}}};
}

void register_e2(const std::string& name, std::string title,
                 ConditionSpec base, const std::vector<double>& rates) {
  const auto families = e2_families();

  ScenarioSpec spec;
  spec.name = name;
  spec.title = std::move(title);
  spec.description =
      "guarantee ratio vs offered load, RTDS against all baselines (8x8 "
      "grid, h=2)";
  spec.axes = {GridAxis::numeric("rate/site", "rate", rates, 3)};
  spec.metrics = {count("jobs", "jobs")};
  for (const auto& [header, ps] : families)
    spec.metrics.push_back(ratio(header, ps.policy));
  spec.seed_mode = SeedMode::kFixed;
  spec.trial = [base, families](const GridPoint& p, std::uint64_t seed,
                                const RunContext& ctx) -> TrialResult {
    ConditionSpec cs = base;
    cs.rate = p.value(0);
    cs.seed = seed;
    const Condition c = make_condition(cs);

    TrialResult result{kSkip};  // jobs filled from the first family's run
    for (const auto& [header, ps] : families) {
      const RunMetrics m = run_policy(ps, c, ctx);
      if (std::isnan(result[0])) result[0] = static_cast<double>(m.arrived);
      result.push_back(m.guarantee_ratio());
    }
    return result;
  };
  Registry::instance().add(std::move(spec));
}

void register_e2_pair() {
  ConditionSpec offload = offload_regime();
  offload.net = NetShape::kGrid;
  offload.sites = 64;
  offload.horizon = 800.0;
  register_e2("e2_guarantee_ratio",
              "(a) offload regime: laxity 2-6, link delay 0.5-2.0", offload,
              {0.005, 0.01, 0.02, 0.04, 0.08});

  ConditionSpec parallel = parallel_regime();
  parallel.net = NetShape::kGrid;
  parallel.sites = 64;
  parallel.horizon = 800.0;
  register_e2("e2_guarantee_ratio_parallel",
              "(b) parallel regime: laxity 1.2-1.8, link delay 0.05-0.2",
              parallel, {0.005, 0.01, 0.02, 0.04});
}

// ------------------------------------------------------------------- E3 ----

void register_e3(const std::string& name, std::string title,
                 ConditionSpec base) {
  ScenarioSpec spec;
  spec.name = name;
  spec.title = std::move(title);
  spec.description =
      "sphere radius sweep (8x8 grid): acceptance vs messages/locks as h "
      "grows";
  spec.axes = {GridAxis::numeric("h", "h", {0, 1, 2, 3, 4, 5}, 0)};
  spec.metrics = {ratio("ratio%", "guarantee_ratio"),
                  count("remote", "accepted_remote"),
                  MetricSpec{"msgs/job", "msgs_per_job", 1},
                  MetricSpec{"ACS mean", "acs_mean", 1},
                  MetricSpec{"latency", "decision_latency", 2},
                  count("PCS max", "pcs_size_max")};
  spec.seed_mode = SeedMode::kFixed;
  spec.trial = [base](const GridPoint& p, std::uint64_t seed,
                      const RunContext& ctx) -> TrialResult {
    ConditionSpec cs = base;
    cs.seed = seed;
    const Condition c = make_condition(cs);
    // The grid point overrides the sweep axis on an otherwise-default rtds.
    const RunMetrics m = run_policy(
        PolicySpec{"rtds", {}}, c, ctx,
        {{"h", Table::num(static_cast<std::size_t>(p.value(0)))}});
    return {m.guarantee_ratio(),
            static_cast<double>(m.accepted_remote),
            m.msgs_per_job.count() ? m.msgs_per_job.mean() : 0.0,
            m.acs_size.count() ? m.acs_size.mean() : 0.0,
            m.decision_latency.mean(),
            static_cast<double>(m.pcs_size_max)};
  };
  Registry::instance().add(std::move(spec));
}

void register_e3_pair() {
  ConditionSpec parallel = parallel_regime();
  parallel.net = NetShape::kGrid;
  parallel.sites = 64;
  parallel.horizon = 600.0;
  parallel.rate = 0.02;
  register_e3("e3_sphere_radius", "(a) parallel regime", parallel);

  ConditionSpec offload = offload_regime();
  offload.net = NetShape::kGrid;
  offload.sites = 64;
  offload.horizon = 600.0;
  offload.rate = 0.04;
  register_e3("e3_sphere_radius_offload", "(b) offload regime", offload);
}

// ------------------------------------------------------------------- E4 ----

void register_e4() {
  struct Band {
    double lo, hi;
  };
  const std::vector<Band> bands = {{1.05, 1.2}, {1.2, 1.5}, {1.5, 2.0},
                                   {2.0, 3.0},  {3.0, 5.0}, {5.0, 8.0}};
  std::vector<std::string> labels;
  for (const Band band : bands)
    labels.push_back(Table::num(band.lo, 2) + "-" + Table::num(band.hi, 2));

  ScenarioSpec spec;
  spec.name = "e4_adjustment_cases";
  spec.description =
      "§12.2 adjustment-case frequencies vs laxity (8x8 grid, h=2, "
      "rate=0.02, delay 0.1-0.4)";
  spec.axes = {GridAxis::labeled("laxity", "laxity", std::move(labels))};
  spec.metrics = {count("jobs", "jobs"),
                  ratio("ratio%", "guarantee_ratio"),
                  count("case_ii", "case_ii"),
                  count("case_iii", "case_iii"),
                  count("reject_i", "reject_case_i"),
                  count("reject_win", "reject_windows"),
                  count("match_fail", "reject_matching"),
                  count("gated", "reject_gated")};
  spec.seed_mode = SeedMode::kFixed;
  spec.trial = [bands](const GridPoint& p, std::uint64_t seed,
                       const RunContext& ctx) -> TrialResult {
    const Band band = bands[static_cast<std::size_t>(p.value(0))];
    ConditionSpec cs;
    cs.net = NetShape::kGrid;
    cs.sites = 64;
    cs.rate = 0.02;
    cs.horizon = 600.0;
    cs.laxity_min = band.lo;
    cs.laxity_max = band.hi;
    cs.delay_min = 0.1;
    cs.delay_max = 0.4;
    cs.seed = seed;
    const Condition c = make_condition(cs);
    const RunMetrics m = run_policy(PolicySpec{"rtds", {}}, c, ctx);
    auto rejects = [&](RejectReason r) {
      const auto it = m.reject_by_reason.find(static_cast<int>(r));
      return it == m.reject_by_reason.end() ? 0.0
                                            : static_cast<double>(it->second);
    };
    auto cases = [&](int cse) {
      const auto it = m.adjustment_cases.find(cse);
      return it == m.adjustment_cases.end() ? 0.0
                                            : static_cast<double>(it->second);
    };
    return {static_cast<double>(m.arrived),
            m.guarantee_ratio(),
            cases(2),
            cases(3),
            rejects(RejectReason::kMapperCaseI),
            rejects(RejectReason::kMapperWindows),
            rejects(RejectReason::kMatchingFailed),
            rejects(RejectReason::kGated)};
  };
  Registry::instance().add(std::move(spec));
}

// ------------------------------------------------------------------- E5 ----

/// The two fixed conditions every ablation group reuses.
ConditionSpec e5_parallel_spec() {
  ConditionSpec cs = parallel_regime();
  cs.net = NetShape::kGrid;
  cs.sites = 64;
  cs.horizon = 600.0;
  cs.rate = 0.02;
  return cs;
}

ConditionSpec e5_offload_spec() {
  ConditionSpec cs = offload_regime();
  cs.net = NetShape::kGrid;
  cs.sites = 64;
  cs.horizon = 600.0;
  cs.rate = 0.04;
  return cs;
}

/// An ablation variant: a display label over a (policy, overrides) pair.
struct Variant {
  std::string name;
  PolicySpec spec;
};

/// An ablation group: one labeled "variant" axis over fixed PolicySpecs on
/// a fixed condition, with the standard comparison metric set.
void register_e5_group(const std::string& name, std::string title,
                       std::string description, ConditionSpec condition,
                       std::vector<Variant> variants) {
  std::vector<std::string> labels;
  for (const auto& v : variants) labels.push_back(v.name);

  ScenarioSpec spec;
  spec.name = name;
  spec.title = std::move(title);
  spec.description = std::move(description);
  spec.axes = {GridAxis::labeled("variant", "variant", std::move(labels))};
  spec.metrics = {ratio("ratio%", "guarantee_ratio"),
                  count("local", "accepted_local"),
                  count("remote", "accepted_remote"),
                  MetricSpec{"msgs/job", "msgs_per_job", 1},
                  MetricSpec{"latency", "decision_latency", 2}};
  spec.seed_mode = SeedMode::kFixed;
  spec.trial = [condition, variants](const GridPoint& p, std::uint64_t seed,
                                     const RunContext& ctx) -> TrialResult {
    ConditionSpec cs = condition;
    cs.seed = seed;
    const Condition c = make_condition(cs);
    const RunMetrics m =
        run_policy(variants[static_cast<std::size_t>(p.value(0))].spec, c, ctx);
    return {m.guarantee_ratio(),
            static_cast<double>(m.accepted_local),
            static_cast<double>(m.accepted_remote),
            m.msgs_per_job.count() ? m.msgs_per_job.mean() : 0.0,
            m.decision_latency.mean()};
  };
  Registry::instance().add(std::move(spec));
}

/// kRtdsH2 plus extra overrides — the E5 groups ablate one knob at a time.
Variant rtds_variant(std::string label,
                     std::vector<std::pair<std::string, std::string>> extra) {
  PolicySpec ps = kRtdsH2;
  ps.params.insert(ps.params.end(), extra.begin(), extra.end());
  return Variant{std::move(label), std::move(ps)};
}

void register_e5() {
  register_e5_group(
      "e5_enroll_policy", "(1) enrollment policy [parallel regime]",
      "ablation: Nack vs faithful-§8 Timeout enrollment", e5_parallel_spec(),
      {rtds_variant("enroll=nack (default)", {}),
       rtds_variant("enroll=timeout (faithful §8)", {{"enroll", "timeout"}})});

  {
    std::vector<Variant> variants;
    for (const char* gate : {"none", "critical_path", "protocol_aware"})
      variants.push_back(
          rtds_variant(std::string("gate=") + gate, {{"gate", gate}}));
    register_e5_group("e5_enroll_gate",
                      "(2) pre-enrollment gate [offload regime, loaded]",
                      "ablation: §9 pre-enrollment feasibility gate",
                      e5_offload_spec(), std::move(variants));
  }

  register_e5_group(
      "e5_surplus_window", "(3) surplus observation window [offload regime]",
      "ablation: job-relative vs fixed surplus window", e5_offload_spec(),
      {rtds_variant("surplus=job-window (default)", {}),
       rtds_variant("surplus=fixed-window (literal §2)",
                    {{"job_window_surplus", "false"}})});

  register_e5_group(
      "e5_laxity_weighting", "(4) laxity dispatching [parallel regime]",
      "ablation: §13 busyness-weighted laxity dispatching", e5_parallel_spec(),
      {rtds_variant("laxity=uniform (eq. 4)", {}),
       rtds_variant("laxity=busyness-weighted (§13)",
                    {{"busyness_weighted_laxity", "true"}})});

  {
    std::vector<Variant> variants;
    for (const char* policy : {"edf", "exact", "preemptive"})
      variants.push_back(rtds_variant(std::string("admission=") + policy,
                                      {{"admission", policy}}));
    register_e5_group("e5_admission_policy",
                      "(5) local admission test [parallel regime]",
                      "ablation: greedy EDF vs exact B&B vs preemptive "
                      "admission",
                      e5_parallel_spec(), std::move(variants));
  }

  register_e5_group(
      "e5_local_knowledge", "(6) local knowledge of k [parallel regime]",
      "ablation: §13 exact initiator idle intervals", e5_parallel_spec(),
      {rtds_variant("initiator=surplus-only (paper base)", {}),
       rtds_variant("initiator=exact-idle-intervals (§13)",
                    {{"initiator_local_knowledge", "true"}})});

  {
    // Transport realism gets its own metric set (delivered, not accepted).
    const std::vector<Variant> variants = {
        rtds_variant("transport=ideal (paper model)", {}),
        rtds_variant("transport=contended bw=100",
                     {{"transport", "contended"}, {"bandwidth", "100"}}),
        rtds_variant("contended bw=100 + slack 1",
                     {{"transport", "contended"},
                      {"bandwidth", "100"},
                      {"overhead_slack", "1"}}),
        rtds_variant("transport=contended bw=8",
                     {{"transport", "contended"}, {"bandwidth", "8"}}),
        rtds_variant("contended bw=8 + x2 + slack 8",
                     {{"transport", "contended"},
                      {"bandwidth", "8"},
                      {"overhead_factor", "2"},
                      {"overhead_slack", "8"}})};

    std::vector<std::string> labels;
    for (const auto& v : variants) labels.push_back(v.name);
    ScenarioSpec spec;
    spec.name = "e5_transport";
    spec.title = "(7) transport model [parallel regime]";
    spec.description =
        "ablation: ideal vs contended store-and-forward transport";
    spec.axes = {GridAxis::labeled("variant", "variant", std::move(labels))};
    spec.metrics = {ratio("delivered%", "delivered_ratio"),
                    count("remote", "accepted_remote"),
                    count("failed jobs", "failed_jobs"),
                    MetricSpec{"latency", "decision_latency", 2}};
    spec.seed_mode = SeedMode::kFixed;
    const ConditionSpec condition = e5_parallel_spec();
    spec.trial = [condition, variants](const GridPoint& p, std::uint64_t seed,
                                       const RunContext& ctx) -> TrialResult {
      ConditionSpec cs = condition;
      cs.seed = seed;
      const Condition c = make_condition(cs);
      const RunMetrics m = run_policy(
          variants[static_cast<std::size_t>(p.value(0))].spec, c, ctx);
      return {m.delivered_ratio(), static_cast<double>(m.accepted_remote),
              static_cast<double>(m.failed_jobs), m.decision_latency.mean()};
    };
    Registry::instance().add(std::move(spec));
  }

  {
    std::vector<Variant> variants;
    for (const char* prio : {"bottom_level", "cost", "fifo"})
      variants.push_back(rtds_variant(std::string("mapper-priority=") + prio,
                                      {{"task_priority", prio}}));
    register_e5_group("e5_mapper_priority",
                      "(8) mapper task selection [parallel regime]",
                      "ablation: §9 mapper task-selection heuristic",
                      e5_parallel_spec(), std::move(variants));
  }
}

// ------------------------------------------------------------------- E6 ----

/// Protocol resilience under site crashes (DESIGN.md §9): every family's
/// *delivered* ratio (accepted AND fully executed — acceptance alone is
/// meaningless when sites die) as the crash rate and offered load grow.
/// The zero-crash row must reproduce the faultless run bit for bit: with
/// every fault rate 0 the FaultPlan is empty and each policy takes its
/// exact pre-fault code path (pinned by tests/fault_test.cpp).
void register_e6() {
  const auto families = e2_families();

  ScenarioSpec spec;
  spec.name = "e6_fault_tolerance";
  spec.description =
      "delivered ratio under site crashes: crash rate x offered load, all "
      "six policies (8x8 grid, h=2)";
  spec.axes = {GridAxis::numeric("crash/site", "crash_rate",
                                 {0.0, 0.001, 0.002, 0.004}, 4),
               GridAxis::numeric("rate/site", "rate", {0.01, 0.04}, 3)};
  spec.metrics = {count("jobs", "jobs")};
  for (const auto& [header, ps] : families)
    spec.metrics.push_back(ratio(header, ps.policy));
  spec.metrics.push_back(count("lost", "rtds_jobs_lost"));
  spec.metrics.push_back(count("resched", "rtds_jobs_rescheduled"));
  spec.metrics.push_back(count("repair", "rtds_repair_messages"));
  spec.seed_mode = SeedMode::kFixed;
  spec.trial = [families](const GridPoint& p, std::uint64_t seed,
                          const RunContext& ctx) -> TrialResult {
    ConditionSpec cs = offload_regime();
    cs.net = NetShape::kGrid;
    cs.sites = 64;
    cs.horizon = 400.0;
    cs.rate = p.value(1);
    cs.seed = seed;
    const Condition c = make_condition(cs);

    // The crash process rides the shared faults.* keys, so the same
    // overrides apply to every family (each runs its own deterministic
    // plan from the same spec).
    const std::vector<std::pair<std::string, std::string>> extra = {
        {"faults.site_rate", Table::num(p.value(0), 4)},
        {"faults.site_mttr", "25"}};

    TrialResult result{kSkip};  // jobs filled from the first family's run
    double lost = 0.0, resched = 0.0, repair = 0.0;
    for (const auto& [header, ps] : families) {
      const RunMetrics m = run_policy(ps, c, ctx, extra);
      if (std::isnan(result[0])) result[0] = static_cast<double>(m.arrived);
      result.push_back(m.delivered_ratio());
      if (ps.policy == "rtds") {
        lost = static_cast<double>(m.jobs_lost);
        resched = static_cast<double>(m.jobs_rescheduled);
        repair = static_cast<double>(m.repair_messages);
      }
    }
    result.push_back(lost);
    result.push_back(resched);
    result.push_back(repair);
    return result;
  };
  Registry::instance().add(std::move(spec));
}

// ------------------------------------------------------------------- E7 ----

/// The scale workload (DESIGN.md §10): sites × load on grids up to 32×32.
/// RTDS's sphere-local control structure is the whole point of the paper —
/// per-job cost depends on |PCS|, not on the network — so the guarantee
/// ratio and msgs/job must hold flat from 256 to 1024 sites while the
/// [4]-style broadcast baseline (measured to 256 sites, like E1) pays the
/// network-wide flood. This is also the sweep the CI scale job runs in
/// Release under a wall-clock budget, so large-N regressions in the
/// routing/PCS/event-queue layers fail the build rather than rotting.
void register_e7() {
  ScenarioSpec spec;
  spec.name = "e7_scale";
  spec.description =
      "production-scale sweep: sites x load, rtds vs local/bcast baselines "
      "(grid, h=2; bcast measured to 256 sites)";
  spec.axes = {GridAxis::numeric("sites", "sites", {256, 512, 1024}, 0),
               GridAxis::numeric("rate/site", "rate", {0.01, 0.02}, 3)};
  spec.metrics = {count("jobs", "jobs"),
                  ratio("RTDS%", "rtds"),
                  ratio("LOCAL%", "local"),
                  ratio("BCAST%", "bcast"),
                  MetricSpec{"msgs/job", "rtds_msgs_per_job", 1},
                  count("PCS max", "pcs_size_max"),
                  MetricSpec{"latency", "rtds_decision_latency", 2}};
  spec.seed_mode = SeedMode::kFixed;
  spec.trial = [](const GridPoint& p, std::uint64_t seed,
                  const RunContext& ctx) -> TrialResult {
    ConditionSpec cs;
    cs.net = NetShape::kGrid;
    cs.sites = static_cast<std::size_t>(p.value(0));
    cs.rate = p.value(1);
    cs.horizon = 400.0;
    cs.laxity_min = 1.5;
    cs.laxity_max = 3.0;
    cs.delay_min = 0.2;
    cs.delay_max = 0.8;
    cs.seed = seed;
    const Condition c = make_condition(cs);

    const RunMetrics m = run_policy(kRtdsH2, c, ctx);
    const RunMetrics lm = run_policy(PolicySpec{"local", {}}, c, ctx);
    // The periodic network-wide surplus flood is what makes bcast
    // unaffordable at scale — which is the point; measured to 256 sites
    // (the E1 cap), skipped beyond.
    double bcast = kSkip;
    if (c.topo.site_count() <= 256)
      bcast = run_policy(PolicySpec{"bcast", {}}, c, ctx).guarantee_ratio();

    return {static_cast<double>(m.arrived),
            m.guarantee_ratio(),
            lm.guarantee_ratio(),
            bcast,
            m.msgs_per_job.count() ? m.msgs_per_job.mean() : 0.0,
            static_cast<double>(m.pcs_size_max),
            m.decision_latency.count() ? m.decision_latency.mean() : 0.0};
  };
  Registry::instance().add(std::move(spec));
}

// ------------------------------------------------------------------- E8 ----

/// Chaos sweep (DESIGN.md §12): the adversarial network model — message
/// duplication, FIFO-violating reordering, network partitions — crossed
/// with the E6 crash process, over all six families. Baselines see the
/// crash process only (their control plane is idealized, §9); RTDS runs
/// the full adversarial transport WITH its §12 hardening on (dedup
/// windows, ack+retransmit, invariant checker). The "none" × crash-0 cell
/// must reproduce the faultless run bit for bit even though hardening is
/// enabled — an empty plan arms nothing (pinned by tests/chaos_test.cpp).
/// The invariant checker runs as part of the scenario itself, so the table
/// digest is independent of any CLI flag — and "viol" must print 0 in
/// every cell.
void register_e8() {
  const auto families = e2_families();

  ScenarioSpec spec;
  spec.name = "e8_chaos";
  spec.description =
      "delivered ratio under an adversarial network: dup/reorder/partition "
      "chaos x site crashes, all six policies (6x6 grid, h=2, hardened "
      "rtds + invariant checker)";
  spec.axes = {
      GridAxis::labeled("chaos", "chaos",
                        {"none", "dup", "reorder", "partition", "all"}),
      GridAxis::numeric("crash/site", "crash_rate", {0.0, 0.002}, 3)};
  spec.metrics = {count("jobs", "jobs")};
  for (const auto& [header, ps] : families)
    spec.metrics.push_back(ratio(header, ps.policy));
  spec.metrics.push_back(count("dup", "rtds_messages_duplicated"));
  spec.metrics.push_back(count("retrans", "rtds_retransmits"));
  spec.metrics.push_back(count("viol", "rtds_invariant_violations"));
  spec.seed_mode = SeedMode::kFixed;
  spec.trial = [families](const GridPoint& p, std::uint64_t seed,
                          const RunContext& ctx) -> TrialResult {
    ConditionSpec cs = offload_regime();
    cs.net = NetShape::kGrid;
    cs.sites = 36;
    cs.horizon = 300.0;
    cs.seed = seed;
    const Condition c = make_condition(cs);

    // The crash process is shared by every family (e6 semantics).
    const std::vector<std::pair<std::string, std::string>> crash = {
        {"faults.site_rate", Table::num(p.value(1), 4)},
        {"faults.site_mttr", "25"}};

    // rtds alone runs on the simulated transport, so it alone gets the
    // network chaos — plus its §12 hardening and the invariant checker.
    const auto chaos = static_cast<std::size_t>(p.value(0));
    const bool dup = chaos == 1 || chaos == 4;
    const bool reorder = chaos == 2 || chaos == 4;
    const bool partition = chaos == 3 || chaos == 4;
    std::vector<std::pair<std::string, std::string>> rtds_extra = crash;
    if (dup) rtds_extra.emplace_back("faults.dup", "0.05");
    if (reorder) {
      rtds_extra.emplace_back("faults.reorder", "0.1");
      rtds_extra.emplace_back("faults.reorder_delay", "0.5");
    }
    if (partition) {
      rtds_extra.emplace_back("faults.partition_rate", "0.01");
      rtds_extra.emplace_back("faults.partition_mttr", "10");
    }
    rtds_extra.emplace_back("faults.retransmit", "true");
    rtds_extra.emplace_back("check_invariants", "true");

    TrialResult result{kSkip};  // jobs filled from the first family's run
    double dups = 0.0, retrans = 0.0, viol = 0.0;
    for (const auto& [header, ps] : families) {
      const RunMetrics m =
          run_policy(ps, c, ctx, ps.policy == "rtds" ? rtds_extra : crash);
      if (std::isnan(result[0])) result[0] = static_cast<double>(m.arrived);
      result.push_back(m.delivered_ratio());
      if (ps.policy == "rtds") {
        dups = static_cast<double>(m.messages_duplicated);
        retrans = static_cast<double>(m.retransmits);
        viol = static_cast<double>(m.invariant_violations);
      }
    }
    result.push_back(dups);
    result.push_back(retrans);
    result.push_back(viol);
    return result;
  };
  Registry::instance().add(std::move(spec));
}

// ----------------------------------------------------------- policy_sweep --

/// Generic cross of every registered policy against a load grid: the seam
/// new protocol variants get swept through with zero scenario code. The
/// policy axis is built from the registry at registration time, so a
/// policy registered before register_builtin_scenarios() is in the sweep
/// automatically.
void register_policy_sweep() {
  const std::vector<std::string> policies = PolicyRegistry::instance().names();

  ScenarioSpec spec;
  spec.name = "policy_sweep";
  spec.description =
      "every registered policy x offered load (8x8 grid, offload regime)";
  spec.axes = {
      GridAxis::labeled("policy", "policy",
                        std::vector<std::string>(policies.begin(),
                                                 policies.end())),
      GridAxis::numeric("rate/site", "rate", {0.005, 0.01, 0.02, 0.04}, 3)};
  spec.metrics = {count("jobs", "jobs"),
                  ratio("ratio%", "guarantee_ratio"),
                  count("remote", "accepted_remote"),
                  MetricSpec{"msgs/job", "msgs_per_job", 1},
                  MetricSpec{"latency", "decision_latency", 2}};
  spec.trial = [policies](const GridPoint& p, std::uint64_t seed,
                          const RunContext& ctx) -> TrialResult {
    ConditionSpec cs = offload_regime();
    cs.net = NetShape::kGrid;
    cs.sites = 64;
    cs.horizon = 400.0;
    cs.rate = p.value(1);
    cs.seed = seed;
    const Condition c = make_condition(cs);
    const RunMetrics m = run_policy(
        PolicySpec{policies[static_cast<std::size_t>(p.value(0))], {}}, c, ctx);
    return {static_cast<double>(m.arrived),
            m.guarantee_ratio(),
            static_cast<double>(m.accepted_remote),
            m.msgs_per_job.count() ? m.msgs_per_job.mean() : 0.0,
            m.decision_latency.count() ? m.decision_latency.mean() : 0.0};
  };
  Registry::instance().add(std::move(spec));
}

}  // namespace

void register_builtin_scenarios() {
  static const bool once = [] {
    policy::register_builtin_policies();
    register_e1();
    register_e2_pair();
    register_e3_pair();
    register_e4();
    register_e5();
    register_e6();
    register_e7();
    register_e8();
    register_e9_steady_state();
    register_policy_sweep();
    register_builtin_reports();
    return true;
  }();
  (void)once;
}

}  // namespace rtds::exp
