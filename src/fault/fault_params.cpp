#include "fault/fault_params.hpp"

#include <algorithm>

namespace rtds::fault {

Time fault_horizon(const std::vector<JobArrival>& arrivals) {
  Time horizon = 0.0;
  for (const auto& a : arrivals) horizon = std::max(horizon, a.job->deadline);
  return horizon;
}

const policy::ParamTable<FaultSpec>& crash_table() {
  static const policy::ParamTable<FaultSpec> table =
      policy::ParamTable<FaultSpec>{}
          .bind("faults.site_rate",
                "site crashes per site per time unit (0 = faultless)",
                &FaultSpec::site_rate)
          .bind("faults.site_mttr", "mean site down-time",
                &FaultSpec::site_mttr)
          .bind("faults.seed", "fault plan + perturbation stream seed",
                &FaultSpec::seed);
  return table;
}

const policy::ParamTable<FaultSpec>& fault_table() {
  static const policy::ParamTable<FaultSpec> table =
      policy::ParamTable<FaultSpec>{}
          .include(crash_table())
          .bind("faults.link_rate", "link failures per link per time unit",
                &FaultSpec::link_rate)
          .bind("faults.link_mttr", "mean link down-time",
                &FaultSpec::link_mttr)
          .bind("faults.drop", "per-send message loss probability",
                &FaultSpec::drop_prob)
          .bind("faults.extra_delay", "uniform [0, max) extra delay per send",
                &FaultSpec::extra_delay_max)
          .bind("faults.dup", "per-send message duplication probability",
                &FaultSpec::dup_prob)
          .bind("faults.reorder",
                "per-send probability of FIFO-violating reorder jitter",
                &FaultSpec::reorder_prob)
          .bind("faults.reorder_delay", "uniform [0, max) reorder jitter delay",
                &FaultSpec::reorder_delay_max)
          .bind("faults.partition_rate",
                "network partitions per time unit (random halving cuts)",
                &FaultSpec::partition_rate)
          .bind("faults.partition_mttr",
                "mean partition duration before healing",
                &FaultSpec::partition_mttr);
  return table;
}

FaultSpec fault_spec_from(const policy::ParamMap& params, Time horizon) {
  FaultSpec spec = fault_table().decode(params);
  spec.horizon = horizon;
  return spec;
}

}  // namespace rtds::fault
