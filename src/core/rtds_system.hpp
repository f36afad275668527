// System driver: wires topology, simulator, transport, PCS construction and
// one RtdsNode per site; runs a workload to completion and enforces the
// end-of-run invariants (every accepted job met its deadline, every lock
// released, every queue drained).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include <span>

#include "core/metrics.hpp"
#include "core/rtds_node.hpp"
#include "core/run_context.hpp"
#include "core/workload.hpp"
#include "fault/fault.hpp"
#include "fault/invariants.hpp"
#include "routing/apsp.hpp"
#include "util/flat_map.hpp"

namespace rtds {

/// Which message transport the protocol runs over (see routing/transport.hpp).
enum class TransportModel {
  kIdeal,      ///< min-delay delivery, infinite bandwidth (paper base model)
  kContended,  ///< store-and-forward, per-link FIFO with finite bandwidth
};

const char* to_string(TransportModel model);

struct SystemConfig {
  RtdsConfig node;
  TransportModel transport_model = TransportModel::kIdeal;
  /// Link bandwidth in message-size units per time unit (contended only).
  double link_bandwidth = 100.0;
  /// Also run the §7 distributed APSP as real messages (on a throwaway
  /// simulator) to measure the one-time PCS construction cost and check it
  /// against the in-memory tables. Off by default: it is O(sites²·h).
  bool measure_pcs_build_cost = false;
  /// Fault script (DESIGN.md §9). Empty (the default) keeps the run on the
  /// exact faultless code path — no timers armed, no RNG consumed, output
  /// bit-identical to a build without the fault layer.
  fault::FaultPlan faults;
  /// Runs the §12 runtime invariant checker alongside the simulation
  /// (lock conservation, at-most-one guarantee, job conservation, monotone
  /// time, no delivery to a down site). Also enabled by
  /// context.check_invariants (the CLIs' --check-invariants). The checker
  /// only *observes* — enabling it never changes simulation bytes.
  bool check_invariants = false;
  /// This run's settings (checker mode, seeded mutant, warm start). Not a
  /// scheduler knob: no ParamMap key, not in the snapshot config hash.
  RunContext context;

  // --- open-system (src/load/) hooks; all inert by default ---
  /// Streaming observer: every JobDecision as it is recorded (with
  /// link_messages filled in). Never changes simulation bytes.
  std::function<void(const JobDecision&)> on_decision_observed;
  /// Streaming observer: an accepted job finished its last task —
  /// (arrival, completion) in sim time. Jobs with failed dispatches and
  /// crash-lost jobs never fire it.
  std::function<void(Time, Time)> on_job_completed;
  /// Keep the per-job decisions() vector. Long --duration streaming runs
  /// turn this off and consume on_decision_observed instead, so memory
  /// stays bounded by the windows, not the horizon.
  bool retain_decisions = true;
};

class RtdsSystem : public NodeEnv {
 public:
  RtdsSystem(Topology topo, SystemConfig cfg);

  /// Runs all arrivals to completion (drains the event queue) and verifies
  /// invariants. Call once.
  void run(const std::vector<JobArrival>& arrivals);

  /// Open-system variant: pulls arrivals lazily from `next` (non-decreasing
  /// release order; nullopt ends the stream) and runs until the stream ends
  /// AND the event queue drains. At most one un-fired arrival is ever held,
  /// so memory scales with in-flight work, never the horizon. Call once
  /// (exclusive with run()).
  void run_stream(std::function<std::optional<JobArrival>()> next);

  // --- checkpointable phases (snap/, DESIGN.md §14) ---
  // run(a)        == start(a); while (step_events(N)) {} finish();
  // run_stream(n) == start_stream(n); ...same drain...; finish();
  // The split lets a caller pause at any event boundary, Snapshot::save,
  // and either keep going or exit; a resumed run re-enters between start
  // and finish via Snapshot::load.

  /// Validates every arrival and queues the first (closed-world runs). The
  /// system keeps its own copy in (release, vector index) order; each
  /// arrival posts the next when it fires, under the sequence number
  /// reserved for it here, so ties fire as if every arrival had been
  /// posted at once.
  void start(const std::vector<JobArrival>& arrivals);
  /// Queues the first arrival of the lazy chain (open-system runs).
  void start_stream(std::function<std::optional<JobArrival>()> next);
  /// Fires at most `max_events` events; returns the number fired (0 means
  /// the queue is drained and finish() may run).
  std::size_t step_events(std::size_t max_events);
  /// Fires events with time <= t_end (later events stay queued).
  std::size_t run_events_until(Time t_end);
  /// End-of-run invariant verification + metrics fold. Call exactly once,
  /// after the queue drained.
  void finish();

  /// Re-installs the lazy arrival chain after Snapshot::load — the stream
  /// closure itself cannot be serialized, so an open-system resume
  /// reconstructs the ArrivalSource (whose generator state IS in the
  /// snapshot) and hands the pull function back in before stepping.
  /// Closed-world resumes never need this (their arrivals are pending
  /// event records in the snapshot).
  void set_stream_source(std::function<std::optional<JobArrival>()> next) {
    stream_next_ = std::move(next);
  }

  const RunMetrics& metrics() const { return metrics_; }
  const Topology& topology() const { return topo_; }
  const RtdsNode& node(SiteId s) const { return *nodes_.at(s); }
  Simulator& simulator() { return sim_; }
  const std::vector<JobDecision>& decisions() const { return decisions_; }
  /// Live routing tables (post-repair view) — the fuzzer's
  /// repair-vs-full-recompute cross-check reads these after the run.
  const std::vector<RoutingTable>& routing_tables() const { return tables_; }
  /// Final fault view (which sites/links ended the run down), or nullptr
  /// when the run had no fault plan.
  const fault::FaultState* fault_state() const { return fault_state_.get(); }

  // --- NodeEnv ---
  void on_job_decision(const JobDecision& decision) override;
  void on_task_complete(JobId job, TaskId task, SiteId site, Time end) override;
  void on_job_messages(JobId job, std::uint64_t hops) override;
  void on_dispatch_failure(JobId job, SiteId site) override;
  void on_job_lost(JobId job, SiteId site) override;
  void on_retransmit(JobId job) override;
  fault::InvariantChecker* checker() override { return checker_.get(); }

 private:
  void verify_invariants();
  /// Rejects an arrival at an unknown site, without a job, or with an
  /// empty window.
  void validate(const JobArrival& a) const;
  /// Queues the run's next arrival, if any: a closed run's next one under
  /// its reserved seq, or an open run's next pulled one. start,
  /// start_stream and every arrival event call it, so at most one arrival
  /// is ever queued.
  void post_next_arrival();
  /// When a closed-run arrival fires: its release, clamped to the run's
  /// start as Simulator::post_at clamps FP noise below the clock.
  static Time queued_time(const Job& job) {
    return job.release > 0.0 ? job.release : 0.0;
  }
  /// Runs the fault, arrival and node events (sim/event.hpp) through one
  /// visit; the transports run their own.
  void fire(Event& event) override;
  /// Applies one fault-plan event: flips the FaultState, crashes/recovers
  /// the node for site events, and re-triggers the §7 routing repair on
  /// any actual topology change.
  void apply_fault(const fault::FaultEvent& ev);
  /// Repairs the routing tables in place after the live topology changed
  /// at the given seed sites (the transports reference tables_ and see the
  /// repair immediately). Incremental (DESIGN.md §10): only destinations
  /// whose 2h+1-hop ball contains a changed site are re-converged, which
  /// is what keeps large-N fault runs affordable; the traffic charged to
  /// RunMetrics::repair_messages stays the protocol's nominal full
  /// exchange, so experiment outputs are unchanged. Partitions/heals pass
  /// every cut endpoint; single link/site events pass one or two sites.
  void repair_routing(std::span<const SiteId> changed);

  Topology topo_;
  SystemConfig cfg_;
  Simulator sim_;
  std::vector<RoutingTable> tables_;
  /// Reusable incremental-repair engine (DESIGN.md §10), created on the
  /// first topology-change event — faultless runs never pay for it.
  std::unique_ptr<ApspRepairer> repairer_;
  std::unique_ptr<fault::FaultState> fault_state_;
  /// §12 runtime invariant checker; null unless enabled (config or
  /// context), so disabled runs pay one null test per event.
  std::unique_ptr<fault::InvariantChecker> checker_;
  std::unique_ptr<Transport> transport_;
  std::vector<std::unique_ptr<RtdsNode>> nodes_;
  RunMetrics metrics_;
  std::vector<JobDecision> decisions_;
  // Per-job bookkeeping is open-addressed (util/flat_map.hpp), consistent
  // with the zero-allocation core: these are touched on every protocol
  // message / task completion, and a node-based map paid an allocation plus
  // pointer chases per job. verify_invariants folds accepted_ in sorted key
  // order, so metrics stay bit-identical to the std::map this replaces.
  FlatMap<JobId, std::uint64_t> job_messages_;

  struct JobTrack {
    std::size_t tasks_expected = 0;
    std::size_t tasks_done = 0;
    Time arrival = 0.0;  ///< feeds the on_job_completed sojourn observer
    Time completion = 0.0;
    Time deadline = 0.0;
    bool failed = false;  ///< a dispatch for this job could not be honoured
  };
  FlatMap<JobId, JobTrack> accepted_;
  /// Dispatch failures observed before the initiator's decision record
  /// arrived (possible for the initiator's own commit, which precedes its
  /// conclude); reconciled in on_job_decision.
  FlatSet<JobId> early_failures_;
  bool ran_ = false;
  // --- the arrival feed ---
  /// A closed-run arrival and the sequence number start() reserved for it.
  struct ClosedArrival {
    std::shared_ptr<const Job> job;
    std::uint64_t seq;
    SiteId site;
  };
  /// A closed run's arrivals in (queued_time, seq) order; the first
  /// closed_next_ have been posted.
  std::vector<ClosedArrival> closed_;
  std::size_t closed_next_ = 0;
  /// An open run: arrivals are pulled from stream_next_.
  bool streamed_ = false;
  std::function<std::optional<JobArrival>()> stream_next_;
  Time last_stream_release_ = 0.0;

  friend struct snap::Access;
};

}  // namespace rtds
