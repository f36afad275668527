#include "load/engine.hpp"

#include <limits>

#include "fault/fault_params.hpp"
#include "obs/obs.hpp"
#include "policy/rtds_params.hpp"
#include "snap/snapshot.hpp"

namespace rtds::load {

OpenRunResult run_open_rtds(const Topology& topo, ArrivalSource& source,
                            const OpenConfig& ocfg,
                            const policy::ParamMap& params) {
  RTDS_REQUIRE_MSG(ocfg.duration > 0.0, "open-run duration must be > 0");
  SystemConfig cfg = policy::rtds_system_config_from(params);
  cfg.faults = fault::FaultPlan::from_spec(
      fault::fault_spec_from(params, ocfg.duration), topo);
  cfg.context = ocfg.context;
  SteadyStateCollector collector(ocfg.window);
  cfg.on_decision_observed = [&collector](const JobDecision& d) {
    collector.on_decision(d);
  };
  cfg.on_job_completed = [&collector](Time arrival, Time completion) {
    collector.on_completion(arrival, completion);
  };
  // Long runs must not hold a decision per job; the collector has
  // everything the summary needs.
  cfg.retain_decisions = false;
  const bool checkpointing = !ocfg.checkpoint_path.empty();
  RtdsSystem system(topo, cfg);
  auto next = [&source,
               duration = ocfg.duration]() -> std::optional<JobArrival> {
    auto a = source.next();
    if (!a.has_value() || a->job->release >= duration) return std::nullopt;
    return a;
  };
  if (!checkpointing) {
    system.run_stream(next);
  } else {
    snap::SnapshotExtras extras;
    if (obs::Context* octx = obs::current(); octx != nullptr)
      extras.metrics = octx->metrics;
    extras.collector = &collector;
    extras.source = &source;
    if (ocfg.resume) {
      // The generator state rides in the snapshot; the pull closure does
      // not, so re-install it before stepping.
      snap::Snapshot::load_file(ocfg.checkpoint_path, system, extras);
      system.set_stream_source(next);
    } else {
      system.start_stream(next);
    }
    const std::size_t chunk =
        ocfg.checkpoint_every > 0
            ? static_cast<std::size_t>(ocfg.checkpoint_every)
            : std::numeric_limits<std::size_t>::max();
    while (true) {
      const std::size_t fired = system.step_events(chunk);
      if (fired == 0) break;
      // A partial chunk means the queue just drained — no point saving.
      if (fired == chunk && ocfg.checkpoint_every > 0)
        snap::Snapshot::save_file(system, ocfg.checkpoint_path, extras);
    }
    system.finish();
  }
  OpenRunResult result;
  result.metrics = system.metrics();
  result.steady = collector.summary(ocfg.knee_factor, ocfg.knee_min_count);
  result.windows = collector.windows();
  return result;
}

RunMetrics run_open_policy(const policy::Policy& pol, const Topology& topo,
                           ArrivalSource& source, Time duration,
                           const policy::ParamMap& params) {
  RTDS_REQUIRE_MSG(duration > 0.0, "open-run duration must be > 0");
  return pol.run(topo, drain(source, duration), params);
}

}  // namespace rtds::load
