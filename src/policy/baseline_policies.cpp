// The five comparison baselines as Policies: LOCAL, CENTRAL, BCAST, BID,
// RANDOM. Each family's table binds its config struct, so an empty
// ParamMap reproduces the legacy free function with the default struct
// bit for bit (pinned by tests/policy_test.cpp).
#include "baseline/local_only.hpp"
#include "fault/fault_params.hpp"
#include "load/load_params.hpp"
#include "policy/policy.hpp"
#include "policy/rtds_params.hpp"

namespace rtds::policy {

namespace {

/// Every baseline table ends with the workload.* keys and the shared crash
/// keys: baselines drive execution-plane faults only (DESIGN.md §9); their
/// control planes stay reliable by design.
template <class T>
ParamTable<T>& list_shared(ParamTable<T>& table) {
  return table.list(load::workload_table()).list(fault::crash_table());
}

fault::FaultPlan crash_plan(const ParamMap& params, const Topology& topo,
                            const std::vector<JobArrival>& arrivals) {
  return fault::FaultPlan::from_spec(
      fault::fault_spec_from(params, fault::fault_horizon(arrivals)), topo);
}

}  // namespace

const ParamTable<LocalSchedulerConfig>& local_table() {
  static const ParamTable<LocalSchedulerConfig> table =
      list_shared(ParamTable<LocalSchedulerConfig>{}.include(sched_table()));
  return table;
}

const ParamTable<CentralizedConfig>& central_table() {
  using C = CentralizedConfig;
  static const ParamTable<C> table = list_shared(
      ParamTable<C>{}
          .bind_limit("h",
                      "restrict candidates to the arrival site's h-hop "
                      "sphere (-1 = whole network)",
                      &C::sphere_radius_h)
          .include(sched_table(), &C::sched));
  return table;
}

const ParamTable<BroadcastConfig>& bcast_table() {
  using C = BroadcastConfig;
  static const ParamTable<C> table = list_shared(
      ParamTable<C>{}
          .bind("broadcast_period", "surplus flood interval per site",
                &C::broadcast_period)
          .bind("max_attempts", "focused-addressing offers per job",
                &C::max_attempts)
          .bind("surplus_window",
                "fixed observation window for flooded surpluses",
                &C::surplus_window)
          .bind("stop_with_arrivals",
                "cease broadcasting after the last arrival",
                &C::stop_with_arrivals)
          .include(sched_table(), &C::sched));
  return table;
}

const ParamTable<OffloadConfig>& offload_table() {
  using C = OffloadConfig;
  static const ParamTable<C> table = list_shared(
      ParamTable<C>{}
          .bind("h", "sphere radius the offers are confined to",
                &C::sphere_radius_h)
          .bind("max_attempts", "offers before giving up (BID)",
                &C::max_attempts)
          .bind("seed", "RANDOM pick stream", &C::seed)
          .include(sched_table(), &C::sched));
  return table;
}

namespace {

class LocalPolicy final : public Policy {
 public:
  std::string name() const override { return "local"; }
  std::string description() const override {
    return "LOCAL baseline: every site schedules only its own arrivals "
           "(§5 test, no cooperation)";
  }
  const ParamSchema& describe_params() const override {
    return schema_of<local_table>();
  }
  RunMetrics run(const Topology& topo, const std::vector<JobArrival>& arrivals,
                 const ParamMap& params, const RunContext&) const override {
    return run_local_only(topo, arrivals, local_table().decode(params),
                          crash_plan(params, topo, arrivals));
  }
};

class CentralPolicy final : public Policy {
 public:
  std::string name() const override { return "central"; }
  std::string description() const override {
    return "CENTRAL baseline: omniscient zero-cost centralized scheduler "
           "(upper bound)";
  }
  const ParamSchema& describe_params() const override {
    return schema_of<central_table>();
  }
  RunMetrics run(const Topology& topo, const std::vector<JobArrival>& arrivals,
                 const ParamMap& params, const RunContext&) const override {
    CentralizedConfig cfg = central_table().decode(params);
    cfg.faults = crash_plan(params, topo, arrivals);
    return run_centralized(topo, arrivals, cfg);
  }
};

class BcastPolicy final : public Policy {
 public:
  std::string name() const override { return "bcast"; }
  std::string description() const override {
    return "BCAST baseline: periodic network-wide surplus floods + focused "
           "addressing ([4])";
  }
  const ParamSchema& describe_params() const override {
    return schema_of<bcast_table>();
  }
  RunMetrics run(const Topology& topo, const std::vector<JobArrival>& arrivals,
                 const ParamMap& params, const RunContext&) const override {
    BroadcastConfig cfg = bcast_table().decode(params);
    cfg.faults = crash_plan(params, topo, arrivals);
    return run_broadcast(topo, arrivals, cfg);
  }
};

/// BID and RANDOM share OffloadConfig; they differ only in the pinned
/// OffloadPolicy (which is what makes them distinct registry entries).
class OffloadFamilyPolicy : public Policy {
 public:
  explicit OffloadFamilyPolicy(OffloadPolicy pick) : pick_(pick) {}

  const ParamSchema& describe_params() const override {
    return schema_of<offload_table>();
  }
  RunMetrics run(const Topology& topo, const std::vector<JobArrival>& arrivals,
                 const ParamMap& params, const RunContext&) const override {
    OffloadConfig cfg = offload_table().decode(params);
    cfg.policy = pick_;
    cfg.faults = crash_plan(params, topo, arrivals);
    return run_offload(topo, arrivals, cfg);
  }

 private:
  OffloadPolicy pick_;
};

class BidPolicy final : public OffloadFamilyPolicy {
 public:
  BidPolicy() : OffloadFamilyPolicy(OffloadPolicy::kBestSurplus) {}
  std::string name() const override { return "bid"; }
  std::string description() const override {
    return "BID baseline: per-job sphere bidding, whole-DAG offers to the "
           "best surpluses ([10])";
  }
};

class RandomPolicy final : public OffloadFamilyPolicy {
 public:
  RandomPolicy() : OffloadFamilyPolicy(OffloadPolicy::kRandom) {}
  std::string name() const override { return "random"; }
  std::string description() const override {
    return "RANDOM baseline: whole-DAG offer to one uniformly random "
           "sphere member";
  }
};

const PolicyRegistrar local_registrar{
    "local", [] { return std::make_unique<LocalPolicy>(); }};
const PolicyRegistrar central_registrar{
    "central", [] { return std::make_unique<CentralPolicy>(); }};
const PolicyRegistrar bcast_registrar{
    "bcast", [] { return std::make_unique<BcastPolicy>(); }};
const PolicyRegistrar bid_registrar{
    "bid", [] { return std::make_unique<BidPolicy>(); }};
const PolicyRegistrar random_registrar{
    "random", [] { return std::make_unique<RandomPolicy>(); }};

}  // namespace

void register_baseline_policies() {
  // Anchor the TU so static-library linking keeps the registrars above.
  (void)local_registrar;
  (void)central_registrar;
  (void)bcast_registrar;
  (void)bid_registrar;
  (void)random_registrar;
}

}  // namespace rtds::policy
