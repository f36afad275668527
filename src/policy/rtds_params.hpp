// The binding tables of the scheduler families (policy/param_map.hpp).
//
// Each table declares its struct's `--set` keys once; a policy's
// describe_params() is its table's schema and its run() decodes the same
// table. The open-system engine (src/load/engine.cpp) builds RtdsSystem
// instances directly — it streams arrivals instead of going through
// Policy::run — so the rtds decoder is exported here rather than
// duplicated. computing_power is deliberately not a knob: it is per-site
// data owned by the Topology (§13 uniform machines).
#pragma once

#include "baseline/broadcast.hpp"
#include "baseline/centralized.hpp"
#include "baseline/offload.hpp"
#include "core/rtds_system.hpp"
#include "policy/param_map.hpp"

namespace rtds::policy {

/// The §5 local-admission keys every family shares (admission,
/// exact_max_tasks, observation_window).
const ParamTable<LocalSchedulerConfig>& sched_table();

/// The rtds keys: h, enroll, gate, mapper/sched knobs, transport, shed.*,
/// faults.retransmit*; lists the workload.* and faults.* keys, which
/// decode through their own tables.
const ParamTable<SystemConfig>& rtds_table();

/// The baseline keys, each listing the workload.* and crash keys.
const ParamTable<LocalSchedulerConfig>& local_table();
const ParamTable<CentralizedConfig>& central_table();
const ParamTable<BroadcastConfig>& bcast_table();
const ParamTable<OffloadConfig>& offload_table();  ///< BID and RANDOM

/// rtds_table().decode(params): an empty map is exactly `SystemConfig{}`.
/// The fault plan is left empty (it needs the workload horizon; see
/// fault::fault_spec_from).
SystemConfig rtds_system_config_from(const ParamMap& params);

}  // namespace rtds::policy
