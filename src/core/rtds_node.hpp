// Per-site RTDS state machine (§4): local test, ACS construction with
// lock-based mutual exclusion (§8), Trial-Mapping construction (§9, §12),
// validation + maximum coupling (§10), and distributed execution (§11).
//
// Locking discipline (no deadlock by construction): a site acquires locks
// only by *replying* to enrollment — it never blocks waiting for one. An
// initiator holding locks never requests new ones for the same job.
//
// What the lock actually protects is the window between a site's
// ValidateReply and the initiator's Dispatch: the endorsed logical
// processors must still be satisfiable when the permutation arrives. A
// locked site therefore still accepts local arrivals *opportunistically*:
// before any endorsement is outstanding the plan may change freely (the
// surplus already reported is advisory), and afterwards a local job is
// accepted only if every endorsed logical processor remains satisfiable on
// the grown plan. Local jobs that would break an endorsement are queued
// until unlock. This keeps dispatch-time commitment infallible without
// freezing the whole sphere for the full protocol round.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/mapper.hpp"
#include "core/messages.hpp"
#include "core/metrics.hpp"
#include "core/protocol.hpp"
#include "fault/bugs.hpp"
#include "fault/dedup.hpp"
#include "routing/pcs.hpp"
#include "routing/transport.hpp"
#include "sched/local_scheduler.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace rtds::fault {
class InvariantChecker;
}

namespace rtds::snap {
struct Access;  // checkpoint serialization (snap/snapshot.cpp)
}

namespace rtds {

/// How an initiator learns which PCS members are available (§8). The paper
/// says locked sites ignore enrollment until unlocked but gives no
/// completion rule; see DESIGN.md.
enum class EnrollPolicy {
  kNack,     ///< locked sites reply "busy" immediately (default)
  kTimeout,  ///< locked sites buffer silently; initiator times out
};

const char* to_string(EnrollPolicy policy);

/// Cheap feasibility gate evaluated *before* enrolling the sphere (§9: the
/// mapper may reject a DAG whose "Trial-Mapping construction/validation
/// delay" would make it miss its deadline). A gated rejection saves the
/// whole enroll/lock round — important because enrollment freezes every
/// sphere member's plan and queues their local arrivals.
enum class EnrollGate {
  kNone,          ///< always try to distribute
  kCriticalPath,  ///< reject iff now + critical path > deadline (sound:
                  ///< no schedule anywhere can beat the critical path)
  kProtocolAware, ///< additionally charge 3× the PCS eccentricity for the
                  ///< protocol rounds (may reject jobs a smaller ACS could
                  ///< still have served — an over-estimate, ablated in E5)
};

const char* to_string(EnrollGate gate);

/// What a site does when a job needs queueing but the bounded admission
/// queue (RtdsConfig::admission_queue_cap) is full. Shed jobs get a
/// kRejected decision with RejectReason::kShed — overload is an explicit,
/// accounted outcome, never silent loss.
enum class ShedPolicy {
  kDropNewest,       ///< shed the incoming job (default; FIFO-preserving)
  kDropLowestLaxity, ///< shed the earliest-deadline job among queued + incoming
  kRejectEnroll,     ///< refuse at the door: full queue sheds the arrival
                     ///< before any admission work is spent on it
};

const char* to_string(ShedPolicy policy);

struct RtdsConfig {
  std::size_t sphere_radius_h = 2;       ///< PCS hop radius
  LocalSchedulerConfig sched;
  MapperConfig mapper;
  EnrollPolicy enroll_policy = EnrollPolicy::kNack;
  EnrollGate enroll_gate = EnrollGate::kCriticalPath;
  Time enroll_timeout_slack = 1.0;       ///< added to the 2×radius RTT bound
  Time mapper_compute_time = 0.0;        ///< simulated mapping latency (§13)
  /// Multiplier on the 3×eccentricity protocol-overhead charge the mapper
  /// adds to the release. 1.0 is exact under the ideal transport; raise it
  /// under the contended transport to absorb queueing (see DESIGN.md).
  double protocol_overhead_factor = 1.0;
  /// Additive protocol-overhead slack. The eccentricity only covers
  /// propagation; under the contended transport each hop also pays
  /// serialization (size/bandwidth) and queueing, which this absorbs.
  Time protocol_overhead_slack = 0.0;
  double min_surplus = 0.02;             ///< sites below this get no logical proc
  /// Report surplus over [now, job deadline] instead of the fixed
  /// observation window (see EnrollRequest). Default on; E5 ablates.
  bool job_window_surplus = true;
  /// §13 "Local knowledge of k": the mapper schedules the initiator's own
  /// logical processor against its exact idle intervals instead of its
  /// surplus. Off by default (the paper's base algorithm); E5 ablates.
  bool initiator_local_knowledge = false;
  /// Set by RtdsSystem when a non-empty FaultPlan is installed. Arms the
  /// recovery machinery a lossy network needs — the enrollment timeout
  /// under *both* enrollment policies, a validation timeout, and the
  /// responder lock lease — and downgrades the protocol assertions a lost
  /// message can legitimately violate into graceful recoveries. Off (the
  /// default) leaves every code path bit-identical to the faultless
  /// protocol (pinned by tests/fault_test.cpp).
  bool fault_tolerant = false;
  /// Responder lock lease under fault_tolerant: a lock not resolved by
  /// dispatch/unlock within the lease self-releases, so a dead initiator
  /// cannot freeze its sphere forever. 0 = auto (derived from the sphere
  /// eccentricity and mapper latency at node construction).
  Time lock_lease = 0.0;
  /// §12 hardening: retransmit unanswered enroll/validate requests and
  /// un-acked dispatches with capped exponential backoff + seeded jitter.
  /// Only meaningful under fault_tolerant (inert otherwise — the paper's
  /// protocol has no retransmission, and without faults every message
  /// arrives). Off by default.
  bool retransmit = false;
  unsigned retransmit_tries = 3;  ///< max resends per unanswered message
  /// Seed of the backoff-jitter stream (RtdsSystem wires the fault plan's
  /// seed in, so the whole adversarial run is one seed).
  std::uint64_t fault_seed = 42;
  /// Overload control: max jobs the locked-site admission queue holds
  /// before shed_policy kicks in. 0 = unbounded — bit-identical to the
  /// pre-overload protocol (pinned by tests/load_test.cpp).
  std::size_t admission_queue_cap = 0;
  ShedPolicy shed_policy = ShedPolicy::kDropNewest;
};

/// Instrumentation interface the owning system implements. Calls are
/// out-of-band (measurement, not protocol). The system also owns the
/// node's timer events (sim/event.hpp): nodes post them to it, and it runs
/// each through the node's entry point.
class NodeEnv : public EventOwner {
 public:
  virtual ~NodeEnv() = default;
  virtual void on_job_decision(const JobDecision& decision) = 0;
  /// A committed task finished executing at `end` on `site`.
  virtual void on_task_complete(JobId job, TaskId task, SiteId site,
                                Time end) = 0;
  /// Protocol messages attributable to a job (hop-weighted).
  virtual void on_job_messages(JobId job, std::uint64_t hops) = 0;
  /// A dispatched logical processor could not be committed because the
  /// dispatch arrived after the planned release (possible only when the
  /// transport's real latency exceeds the protocol over-estimate, i.e.
  /// under contention with an insufficient protocol_overhead_factor).
  virtual void on_dispatch_failure(JobId job, SiteId site) = 0;
  /// `site` crashed with committed-but-unfinished work of `job` in its
  /// plan; that work is lost (fault injection only — default no-op so
  /// instrumentation-only environments need not care).
  virtual void on_job_lost(JobId job, SiteId site) {
    (void)job;
    (void)site;
  }
  /// The §12 retransmit path resent a protocol message of `job` (default
  /// no-op; RtdsSystem counts it into RunMetrics::retransmits).
  virtual void on_retransmit(JobId job) { (void)job; }
  /// The run's invariant checker, or nullptr when checking is off. Nodes
  /// feed it the send-sequence and admission-queue accounting hooks.
  virtual fault::InvariantChecker* checker() { return nullptr; }
};

class RtdsNode {
 public:
  /// `bug` selects a seeded mutant (fault/bugs.hpp, RunContext).
  RtdsNode(SiteId site, Simulator& sim, Transport& transport, Pcs pcs,
           RtdsConfig cfg, NodeEnv& env,
           fault::InjectedBug bug = fault::InjectedBug::kNone);

  RtdsNode(const RtdsNode&) = delete;
  RtdsNode& operator=(const RtdsNode&) = delete;

  SiteId site() const { return site_; }
  const Pcs& pcs() const { return pcs_; }
  const LocalScheduler& scheduler() const { return sched_; }

  /// A sporadic job arrives on this site (§2). Starts the §4 pipeline, or
  /// queues the job if the site is currently locked / already initiating.
  void submit(std::shared_ptr<const Job> job);

  /// Transport entry point; wire this to Transport::set_handler.
  void on_message(SiteId from, const MessageBody& payload);

  /// Fault injection (DESIGN.md §9): the site dies, losing all in-flight
  /// state — lock, queue, active initiations, outstanding endorsement and
  /// the whole scheduling plan. Queued/active jobs get a kSiteDown
  /// decision; committed-but-unfinished jobs are reported via
  /// NodeEnv::on_job_lost. Idempotent.
  void crash();
  /// The site comes back with an empty plan. Idempotent.
  void recover();
  bool alive() const { return alive_; }

  // --- invariant probes (tests / end-of-run checks) ---
  bool locked() const { return lock_.has_value(); }
  std::size_t queued_jobs() const { return queue_.size(); }
  std::size_t active_initiations() const { return active_.size(); }

 private:
  /// Initiator-side per-job state.
  struct Initiation {
    std::shared_ptr<const Job> job;
    enum class Phase { kEnrolling, kMapping, kValidating, kDone } phase =
        Phase::kEnrolling;
    std::size_t expected_replies = 0;
    std::size_t received_replies = 0;
    /// Sites whose enroll reply was already counted — fault mode only
    /// (retransmitted requests can produce duplicate replies, each with a
    /// fresh sequence, so the dedup window cannot catch them). Stays empty
    /// in fault-free runs.
    std::vector<SiteId> repliers;
    std::vector<SiteId> acs;                    ///< ackers + self
    /// Flat (site, value) lists, one entry per ACS member — sphere-sized,
    /// so linear lookups beat map nodes (these fill and drain once per
    /// protocol round).
    std::vector<std::pair<SiteId, double>> surplus_of;
    std::shared_ptr<const TrialMapping> mapping;
    Time acs_diameter = 0.0;
    std::vector<std::pair<SiteId, std::vector<std::uint32_t>>> endorsements;
    std::size_t validate_expected = 0;
    bool timed_out = false;
  };

  // --- initiator side ---
  void start_next_job();
  void begin(std::shared_ptr<const Job> job);
  void begin_acs_construction(Initiation& init);
  void on_enroll_reply(SiteId from, const EnrollReply& msg);
  void on_enroll_timeout(JobId job);
  void on_validate_timeout(JobId job);
  void run_mapper(JobId job);
  void begin_validation(Initiation& init);
  void on_validate_reply(SiteId from, const ValidateReply& msg);
  void finish_matching(Initiation& init);
  void reject(Initiation& init, RejectReason reason);
  void conclude(JobId job, const Initiation& init, JobOutcome outcome,
                RejectReason reason);

  // --- responder side ---
  void on_enroll_request(SiteId from, const EnrollRequest& msg);
  void on_validate_request(SiteId from, const ValidateRequest& msg);
  void on_dispatch(SiteId from, const DispatchMsg& msg);
  void on_unlock(SiteId from, const UnlockMsg& msg);
  void on_dispatch_ack(SiteId from, const DispatchAck& msg);

  // --- §12 hardening: ack + retransmit with capped exponential backoff ---
  bool retransmit_enabled() const {
    return cfg_.fault_tolerant && cfg_.retransmit;
  }
  /// 2^(retransmit_tries + 1): the factor a round timeout is stretched by
  /// so it outlasts the whole backoff schedule (rto + 2rto + ... ~=
  /// rto * (2^(tries+1) - 1) plus jitter). A double, so every tries value
  /// the knob accepts is defined (beyond 1023 the stretch is infinite).
  double retransmit_stretch() const {
    return std::ldexp(1.0, static_cast<int>(std::min(cfg_.retransmit_tries,
                                                     1024u)) + 1);
  }
  /// Tracks `payload` (an unstamped template — send() stamps a fresh
  /// sequence per resend) for retransmission to `to` until cancelled;
  /// first retry fires after `rto`, then doubles with seeded jitter, up to
  /// cfg_.retransmit_tries resends.
  void arm_retry(JobId job, SiteId to, int category, MessageBody payload,
                 double size_units, Time rto);
  void on_retry_timer(JobId job, SiteId to, std::uint64_t gen, Time rto);
  /// The peer answered: stop retransmitting this (job, peer) message.
  void cancel_retry(JobId job, SiteId to);
  /// Round resolved: drop every non-dispatch retry of `job` (members that
  /// never answered enrollment must not be re-asked after conclude).
  void cancel_pre_dispatch_retries(JobId job);
  /// Ring of recently handled dispatch jobs — a retransmitted DispatchMsg
  /// whose original was already processed is re-acked, never re-committed
  /// (and never miscounted as a dispatch failure).
  bool recently_dispatched(JobId job) const;
  void remember_dispatch(JobId job);

  /// Computes the logical processors this site can endorse for a mapping.
  std::vector<std::uint32_t> endorsable_processors(const Job& job,
                                                   const TrialMapping& m) const;

  /// Local §5 test + commit + completion bookkeeping + decision record.
  /// Returns false (and leaves everything untouched) if the job does not
  /// fit or would invalidate an outstanding endorsement.
  bool try_local_accept(const std::shared_ptr<const Job>& job);

  /// Surplus to report for a job with the given absolute deadline
  /// (job-window or fixed observation window per config).
  double surplus_for(Time deadline) const;

  /// Commits logical processor `u`'s tasks into the local plan and arranges
  /// completion notifications.
  void commit_logical(const Job& job, const TrialMapping& m, std::uint32_t u);

  // --- locking ---
  struct Lock {
    SiteId initiator;
    JobId job;
  };
  void acquire_lock(SiteId initiator, JobId job);
  void release_lock(SiteId initiator, JobId job);
  void after_unlock();
  void on_lease_expired(std::uint64_t seq);

  /// True iff the current lock matches (initiator, job) — the fault-mode
  /// guard for validate/dispatch/unlock whose lock may have leased away.
  bool lock_matches(SiteId initiator, JobId job) const {
    return lock_.has_value() && lock_->initiator == initiator &&
           lock_->job == job;
  }

  /// Records the kSiteDown decision a job lost to this dead site still
  /// owes the accounting (dead-site arrivals and crash-cleared work).
  void record_site_down(const Job& job, std::size_t acs_size);

  /// Appends `job` to the admission queue, shedding per cfg_.shed_policy
  /// when the queue is at admission_queue_cap (no-op cap when 0).
  void enqueue_bounded(std::shared_ptr<const Job> job);
  /// Records the kShed decision of an overload-shed job.
  void record_shed(const Job& job);

  /// Schedules a completion notification that survives crashes correctly:
  /// stale (pre-crash) completions no-op via the epoch capture, and under
  /// fault_tolerant the per-job pending count feeds crash-time job-loss
  /// reporting.
  void schedule_completion(JobId job, TaskId task, Time end);
  /// Body of a Completion event.
  void fire_completion(JobId job, TaskId task, Time end, std::uint64_t epoch);
  /// Body of the deferred start_next_job kick (a StartNext event posted by
  /// after_unlock).
  void fire_start_next();

  void send(SiteId to, MessageBody payload, int category, JobId job,
            double size_units = 1.0);

  SiteId site_;
  Simulator& sim_;
  Transport& transport_;
  Pcs pcs_;
  RtdsConfig cfg_;
  NodeEnv& env_;
  LocalScheduler sched_;

  /// Endorsements this site has promised and not yet seen resolved
  /// (responder: sent in a ValidateReply; initiator: recorded for itself at
  /// validation start). Local accepts must preserve their satisfiability.
  struct OutstandingEndorsement {
    JobId job = 0;
    std::shared_ptr<const Job> job_data;
    std::shared_ptr<const TrialMapping> mapping;
    std::vector<std::uint32_t> endorsed;
  };

  std::optional<Lock> lock_;
  std::optional<OutstandingEndorsement> endorsement_;
  // std::vector, not deque: a deque allocates two blocks just to be
  // constructed, once per site, and these queues are almost always empty.
  std::vector<std::shared_ptr<const Job>> queue_;
  std::map<JobId, Initiation> active_;
  /// kTimeout policy: enrollments buffered while locked, processed on unlock.
  std::vector<std::pair<SiteId, EnrollRequest>> buffered_enrolls_;
  bool start_pending_ = false;  ///< a start_next_job event is scheduled

  // --- fault state (inert without a fault plan) ---
  bool alive_ = true;
  const fault::InjectedBug bug_;  ///< seeded mutant; kNone in real runs
  /// Bumped on every crash; completion events capture it so reservations
  /// of a previous life never report completions.
  std::uint64_t epoch_ = 0;
  /// Bumped on every lock acquisition; lease-expiry events capture it so a
  /// stale lease can never release a newer lock.
  std::uint64_t lock_seq_ = 0;
  Time lease_ = 0.0;  ///< resolved responder lock lease (fault mode only)
  /// Pending completion notifications per committed job (fault mode only):
  /// the set of jobs a crash must report as lost.
  std::map<JobId, std::uint32_t> pending_completions_;

  // --- §12 hardening state ---
  // The dedup machinery is ALWAYS active (not gated on fault_tolerant):
  // send() stamps every protocol message with a per-peer sequence and
  // on_message() drops already-seen sequences. On a faultless network the
  // sequences are strictly increasing, so the window accepts everything and
  // the run stays bit-identical — pinned by tests/chaos_test.cpp.
  // Deliberately NOT reset by crash(): sequences must stay monotone per
  // (sender, receiver) across reincarnations or a recovered site's fresh
  // messages would look like replays to its peers.
  FlatMap<SiteId, std::uint64_t> send_seq_;
  FlatMap<SiteId, fault::DedupWindow> recv_window_;

  /// One in-flight retransmittable message per (job, peer): the protocol
  /// phases are sequential, so arming validate (or dispatch) for a peer
  /// supersedes its enroll (or validate) entry. std::map is fine — the
  /// path only exists in fault mode.
  struct Retry {
    MessageBody payload;  ///< unstamped template, re-stamped per resend
    int category = 0;
    double size_units = 1.0;
    unsigned attempts = 0;
    std::uint64_t gen = 0;  ///< arm generation; stale timers no-op
  };
  std::map<std::pair<JobId, SiteId>, Retry> retries_;
  std::uint64_t retry_gen_ = 0;
  Rng retry_rng_;  ///< backoff jitter (seeded from cfg_.fault_seed + site)
  std::array<JobId, 64> recent_dispatch_{};
  std::size_t recent_dispatch_count_ = 0;

  /// The system runs the node's timer events through the entry points
  /// above; checkpoint serialization reads and restores the private state
  /// (snap/snapshot.cpp). Nothing else reaches in.
  friend class RtdsSystem;
  friend struct snap::Access;
};

}  // namespace rtds
