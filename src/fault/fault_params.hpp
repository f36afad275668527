// The faults.* binding tables of the unified Policy API.
//
// Every registered policy understands the crash-process keys
// (faults.site_rate / faults.site_mttr / faults.seed): all six families
// model the execution plane, so "a site dies and takes its in-flight work
// with it" is meaningful everywhere. The network-fault keys (link
// failures, drops, extra delay, duplication, reorder, partitions) exist
// only on the rtds schema — only the RTDS protocol runs over the simulated
// message transport where lossy links are expressible; the baselines keep
// an idealized reliable control plane (DESIGN.md §9), which biases every
// fault comparison *against* RTDS. The rtds-only hardening switches
// (faults.retransmit / faults.retransmit_tries) bind RtdsConfig members
// and live in rtds_table() (policy/rtds_params.hpp), see DESIGN.md §12.
#pragma once

#include <vector>

#include "core/workload.hpp"
#include "fault/fault.hpp"
#include "policy/param_map.hpp"

namespace rtds::fault {

/// The crash-process keys every policy shares.
const policy::ParamTable<FaultSpec>& crash_table();

/// The crash keys plus the network-fault keys (rtds only).
const policy::ParamTable<FaultSpec>& fault_table();

/// Decodes the faults.* keys into a FaultSpec over [0, horizon). Keys the
/// schema did not declare keep their FaultSpec defaults, so one decoder
/// serves both schema variants.
FaultSpec fault_spec_from(const policy::ParamMap& params, Time horizon);

/// Fault-event generation horizon for a workload: the last deadline — no
/// fault after it can change any outcome.
Time fault_horizon(const std::vector<JobArrival>& arrivals);

}  // namespace rtds::fault
