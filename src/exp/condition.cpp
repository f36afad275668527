#include "exp/condition.hpp"

namespace rtds::exp {

Topology make_topology(const ConditionSpec& spec) {
  Rng rng(spec.seed);
  return make_net(spec.net, spec.sites,
                  DelayRange{spec.delay_min, spec.delay_max}, rng);
}

WorkloadConfig workload_config(const ConditionSpec& spec) {
  WorkloadConfig wl;
  wl.arrival_rate_per_site = spec.rate;
  wl.horizon = spec.horizon;
  wl.laxity_min = spec.laxity_min;
  wl.laxity_max = spec.laxity_max;
  wl.min_tasks = spec.min_tasks;
  wl.max_tasks = spec.max_tasks;
  wl.seed = spec.seed;
  wl.arrival_process = spec.process;
  wl.burst_on_mean = spec.burst_on_mean;
  wl.burst_off_mean = spec.burst_off_mean;
  wl.burst_multiplier = spec.burst_multiplier;
  wl.deadline_model = spec.deadline_model;
  return wl;
}

Condition make_condition(const ConditionSpec& spec) {
  Condition c;
  c.topo = make_topology(spec);
  c.arrivals = generate_workload(c.topo.site_count(), workload_config(spec));
  return c;
}

RunMetrics run_rtds(const Condition& c, const SystemConfig& cfg) {
  RtdsSystem system(c.topo, cfg);
  system.run(c.arrivals);
  return system.metrics();
}

ConditionSpec offload_regime() {
  ConditionSpec spec;
  spec.rate = 0.025;
  spec.laxity_min = 2.0;
  spec.laxity_max = 6.0;
  spec.delay_min = 0.5;
  spec.delay_max = 2.0;
  return spec;
}

ConditionSpec parallel_regime() {
  ConditionSpec spec;
  spec.rate = 0.015;
  spec.laxity_min = 1.2;
  spec.laxity_max = 1.8;
  spec.delay_min = 0.05;
  spec.delay_max = 0.2;
  return spec;
}

}  // namespace rtds::exp
