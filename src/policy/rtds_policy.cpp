// The paper's RTDS protocol as a Policy: rtds_table() binds every key to
// one SystemConfig / RtdsConfig / MapperConfig field, so an empty ParamMap
// is exactly `RtdsSystem(topo, SystemConfig{})`.
#include "fault/fault_params.hpp"
#include "load/load_params.hpp"
#include "policy/policy.hpp"
#include "policy/rtds_params.hpp"

namespace rtds::policy {

const ParamTable<LocalSchedulerConfig>& sched_table() {
  using C = LocalSchedulerConfig;
  static const ParamTable<C> table =
      ParamTable<C>{}
          .bind_enum("admission", {"edf", "exact", "preemptive"},
                     "§5 local admission test (greedy EDF, exact B&B, "
                     "preemptive EDF)",
                     &C::policy)
          .bind("exact_max_tasks",
                "B&B size cap for admission=exact; larger sets fall back to "
                "EDF",
                &C::exact_max_tasks)
          .bind("observation_window", "W in the §2 surplus definition",
                &C::observation_window);
  return table;
}

const ParamTable<SystemConfig>& rtds_table() {
  using S = SystemConfig;
  using N = RtdsConfig;
  using M = MapperConfig;
  constexpr auto node = &S::node;
  constexpr auto mapper = &N::mapper;
  static const ParamTable<S> table =
      ParamTable<S>{}
          .bind("h", "PCS sphere radius in hops (§6)", node,
                &N::sphere_radius_h)
          .bind_enum("enroll", {"nack", "timeout"},
                     "§8 enrollment completion rule for locked sites", node,
                     &N::enroll_policy)
          .bind_enum("gate", {"none", "critical_path", "protocol_aware"},
                     "§9 pre-enrollment feasibility gate", node,
                     &N::enroll_gate)
          .bind("enroll_timeout_slack",
                "enroll=timeout: slack added to the 2×radius RTT bound", node,
                &N::enroll_timeout_slack)
          .bind("mapper_compute_time",
                "simulated Trial-Mapping construction latency (§13)", node,
                &N::mapper_compute_time)
          .bind("overhead_factor",
                "multiplier on the 3×eccentricity protocol-overhead charge",
                node, &N::protocol_overhead_factor)
          .bind("overhead_slack",
                "additive protocol-overhead slack (absorbs contention)", node,
                &N::protocol_overhead_slack)
          .bind("min_surplus",
                "sites below this surplus get no logical processor", node,
                &N::min_surplus)
          .bind("job_window_surplus",
                "report surplus over [now, job deadline] instead of the "
                "fixed window",
                node, &N::job_window_surplus)
          .bind("initiator_local_knowledge",
                "§13: map the initiator against its exact idle intervals",
                node, &N::initiator_local_knowledge)
          .bind_enum("task_priority", {"bottom_level", "cost", "fifo"},
                     "§9 mapper task-selection heuristic", node, mapper,
                     &M::task_priority)
          .bind("busyness_weighted_laxity",
                "§13: scatter case-iii laxity by logical-processor busyness",
                node, mapper, &M::busyness_weighted_laxity)
          .bind("account_data_volumes",
                "§13: charge data_volume / throughput on data-bearing arcs",
                node, mapper, &M::account_data_volumes)
          .bind("link_throughput",
                "throughput for account_data_volumes (must be > 0 when "
                "enabled)",
                node, mapper, &M::link_throughput)
          .bind("reject_infeasible_windows",
                "defensively reject mappings whose adjusted windows cannot "
                "hold their task",
                node, mapper, &M::reject_infeasible_windows)
          .bind_enum("transport", {"ideal", "contended"},
                     "message transport model", &S::transport_model)
          .bind("bandwidth",
                "transport=contended: link bandwidth in size units per time "
                "unit",
                &S::link_bandwidth)
          .bind("measure_pcs_build",
                "also run the §7 distributed APSP as real messages",
                &S::measure_pcs_build_cost)
          .bind("check_invariants",
                "run the §12 runtime invariant checker (pure observer; also "
                "enabled by the CLIs' --check-invariants)",
                &S::check_invariants)
          // Overload control (src/load/). cap 0 keeps the exact legacy path.
          .bind("shed.cap",
                "overload control: bounded admission-queue capacity (0 = "
                "unbounded, the paper's protocol)",
                node, &N::admission_queue_cap)
          .bind_enum("shed.policy",
                     {"drop_newest", "drop_lowest_laxity", "reject_enroll"},
                     "what a full admission queue sheds (shed.cap > 0 only)",
                     node, &N::shed_policy)
          .include(sched_table(), node, &N::sched)
          .list(load::workload_table())
          // rtds is the only family on the simulated transport, so it gets
          // the full network-fault surface (link failures, drops, extra
          // delay) on top of the crash process every policy shares.
          .list(fault::fault_table())
          // §12 hardening knobs (inert with an empty fault plan: no retries
          // are ever armed, so hardened faultless runs stay bit-identical).
          .bind("faults.retransmit",
                "ack+retransmit unanswered protocol messages with capped "
                "exponential backoff",
                node, &N::retransmit)
          .bind("faults.retransmit_tries",
                "max retransmissions per unanswered message", node,
                &N::retransmit_tries);
  return table;
}

SystemConfig rtds_system_config_from(const ParamMap& params) {
  return rtds_table().decode(params);
}

namespace {

class RtdsPolicy final : public Policy {
 public:
  std::string name() const override { return "rtds"; }
  std::string description() const override {
    return "the paper's distributed protocol: sphere enrollment, "
           "Trial-Mapping, validation, maximum coupling, dispatch";
  }
  const ParamSchema& describe_params() const override {
    return schema_of<rtds_table>();
  }
  RunMetrics run(const Topology& topo, const std::vector<JobArrival>& arrivals,
                 const ParamMap& params,
                 const RunContext& ctx) const override {
    SystemConfig cfg = rtds_system_config_from(params);
    cfg.faults = fault::FaultPlan::from_spec(
        fault::fault_spec_from(params, fault::fault_horizon(arrivals)), topo);
    cfg.context = ctx;
    RtdsSystem system(topo, cfg);
    system.run(arrivals);
    return system.metrics();
  }
};

const PolicyRegistrar rtds_registrar{
    "rtds", [] { return std::make_unique<RtdsPolicy>(); }};

}  // namespace

void register_rtds_policy() {
  // The registrar above already ran if this TU's initializers were kept;
  // the explicit hook only needs to anchor the TU (see policy.cpp).
  (void)rtds_registrar;
}

}  // namespace rtds::policy
