// The workload.* binding table: the arrival-process knobs every policy
// family accepts, bound to the ArrivalSpec a caller generates its workload
// from (Policy::run itself never reads them). workload.process picks the
// ArrivalSpec kind; the rest bind its WorkloadConfig. Every default is the
// ArrivalSpec default, so an empty map leaves the generated workload
// bit-identical to the legacy path.
#pragma once

#include "load/source.hpp"
#include "policy/param_map.hpp"

namespace rtds::load {

inline const policy::ParamTable<ArrivalSpec>& workload_table() {
  using A = ArrivalSpec;
  using W = WorkloadConfig;
  static const policy::ParamTable<A> table =
      policy::ParamTable<A>{}
          .bind_enum("workload.process", {"poisson", "bursty", "diurnal"},
                     "arrival process: memoryless, ON/OFF-modulated (MMPP), "
                     "or the open-system diurnal rate curve (src/load/)",
                     &A::kind)
          .bind("workload.burst_on_mean",
                "process=bursty: mean ON (burst) phase duration",
                &A::workload, &W::burst_on_mean)
          .bind("workload.burst_off_mean",
                "process=bursty: mean OFF (quiet) phase duration",
                &A::workload, &W::burst_off_mean)
          .bind("workload.burst_multiplier",
                "process=bursty: ON-phase arrival-rate multiplier",
                &A::workload, &W::burst_multiplier)
          .bind_enum("workload.deadline", {"critical_path", "total_work"},
                     "deadline base: parallel or single-site lower bound",
                     &A::workload, &W::deadline_model);
  return table;
}

}  // namespace rtds::load
