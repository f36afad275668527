#include "core/rtds_node.hpp"

#include <algorithm>

#include "dag/analysis.hpp"
#include "fault/invariants.hpp"
#include "matching/bipartite.hpp"
#include "obs/trace.hpp"
#include "util/inline_vec.hpp"
#include "util/logging.hpp"

namespace rtds {

const char* to_string(EnrollPolicy policy) {
  switch (policy) {
    case EnrollPolicy::kNack: return "nack";
    case EnrollPolicy::kTimeout: return "timeout";
  }
  return "?";
}

const char* to_string(EnrollGate gate) {
  switch (gate) {
    case EnrollGate::kNone: return "none";
    case EnrollGate::kCriticalPath: return "critical_path";
    case EnrollGate::kProtocolAware: return "protocol_aware";
  }
  return "?";
}

const char* to_string(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kDropNewest: return "drop_newest";
    case ShedPolicy::kDropLowestLaxity: return "drop_lowest_laxity";
    case ShedPolicy::kRejectEnroll: return "reject_enroll";
  }
  return "?";
}

RtdsNode::RtdsNode(SiteId site, Simulator& sim, Transport& transport, Pcs pcs,
                   RtdsConfig cfg, NodeEnv& env, fault::InjectedBug bug)
    : site_(site),
      sim_(sim),
      transport_(transport),
      pcs_(std::move(pcs)),
      cfg_(cfg),
      env_(env),
      sched_(cfg.sched),
      bug_(bug),
      // Per-site backoff-jitter stream, derived from the fault seed with a
      // golden-ratio odd multiplier so neighbouring sites decorrelate. Only
      // ever consumed on the retransmit path, so fault-free (and
      // retransmit-off) runs never draw from it.
      retry_rng_(cfg.fault_seed ^
                 (0x9e3779b97f4a7c15ULL * (std::uint64_t(site) + 1))) {
  RTDS_REQUIRE(pcs_.root() == site);
  if (cfg_.fault_tolerant) {
    lease_ = cfg_.lock_lease;
    if (lease_ <= 0.0) {
      // Auto lease: must outlast a full healthy protocol round — enroll
      // round trip + mapping + validate round trip + dispatch is at most
      // 5 eccentricities plus the mapper latency; 8 plus the slacks leaves
      // comfortable margin, so a lease expiry really means a fault.
      Time ecc = 0.0;
      for (const auto& m : pcs_.members()) ecc = std::max(ecc, m.delay);
      lease_ = 8.0 * ecc + cfg_.mapper_compute_time +
               2.0 * cfg_.enroll_timeout_slack +
               cfg_.protocol_overhead_slack + 1.0;
    }
  }
}

void RtdsNode::send(SiteId to, MessageBody payload, int category, JobId job,
                    double size_units) {
  RTDS_REQUIRE(to != site_);
  RTDS_CHECK_MSG(pcs_.contains(to),
                 "site " << site_ << " routing outside its PCS to " << to);
  // §12 hardening: every protocol message carries a per-(sender, receiver)
  // sequence so the receiver can drop network duplicates idempotently.
  // Retransmits re-enter send() and get a FRESH sequence — the dedup
  // window kills copies the *network* made, protocol-level idempotency
  // handles copies *we* made.
  std::visit(
      [&](auto& m) {
        if constexpr (requires { m.seq; }) {
          m.seq = ++send_seq_[to];
          if (auto* chk = env_.checker())
            chk->on_send_seq(site_, to, m.seq, sim_.now());
        }
      },
      payload);
  const std::size_t hops =
      transport_.send(site_, to, std::move(payload), category, size_units);
  env_.on_job_messages(job, hops);
}

// ---------------------------------------------------------------------------
// Arrival and initiator pipeline
// ---------------------------------------------------------------------------

void RtdsNode::submit(std::shared_ptr<const Job> job) {
  RTDS_REQUIRE(job != nullptr);
  RTDS_REQUIRE(job->dag.finalized());
  if (!alive_) {
    // An arrival at a dead site is lost — but it still needs a decision so
    // the run's accounting covers every arrival.
    record_site_down(*job, 1);
    return;
  }
  if (lock_.has_value()) {
    // kRejectEnroll refuses at the door: with the admission queue full the
    // arrival is shed before any admission work (even the local test) is
    // spent on it — the cheapest possible overload response.
    if (cfg_.admission_queue_cap > 0 &&
        cfg_.shed_policy == ShedPolicy::kRejectEnroll &&
        queue_.size() >= cfg_.admission_queue_cap) {
      record_shed(*job);
      return;
    }
    // Opportunistic local accept while locked (see class comment); jobs
    // that do not fit — or would break an outstanding endorsement — wait.
    if (!try_local_accept(job)) {
      RTDS_TRACE("site " << site_ << " queues job " << job->id << " (locked)");
      enqueue_bounded(std::move(job));
    }
    return;
  }
  begin(std::move(job));
}

void RtdsNode::enqueue_bounded(std::shared_ptr<const Job> job) {
  const std::size_t cap = cfg_.admission_queue_cap;
  if (cap == 0 || queue_.size() < cap) {
    if (auto* chk = env_.checker()) chk->on_queue_push(site_, sim_.now());
    queue_.push_back(std::move(job));
    return;
  }
  if (cfg_.shed_policy == ShedPolicy::kDropLowestLaxity) {
    // Victim = earliest absolute deadline among queued + incoming — among
    // contemporaries waiting on the same unlock, the earliest deadline has
    // the least slack left and is the least likely to still be
    // schedulable. Ties favour shedding the incoming job (strict compare),
    // keeping queue membership stable.
    std::size_t victim = queue_.size();  // sentinel: the incoming job
    Time earliest = job->deadline;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (time_lt(queue_[i]->deadline, earliest)) {
        earliest = queue_[i]->deadline;
        victim = i;
      }
    }
    if (victim < queue_.size()) {
      record_shed(*queue_[victim]);
      if (auto* chk = env_.checker()) {
        chk->on_queue_remove(site_, sim_.now());
        chk->on_queue_push(site_, sim_.now());
      }
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(victim));
      queue_.push_back(std::move(job));
      return;
    }
  }
  // kDropNewest — and kRejectEnroll jobs that slipped past the door check
  // because the queue filled after their local test, and the incoming job
  // losing the laxity comparison above: shed the arrival.
  record_shed(*job);
}

void RtdsNode::record_shed(const Job& job) {
  RTDS_TRACE("t=" << sim_.now() << " site " << site_ << " SHEDS job "
                  << job.id << " (" << to_string(cfg_.shed_policy) << ")");
  if (auto* chk = env_.checker()) chk->on_shed(site_, sim_.now());
  JobDecision d;
  d.job = job.id;
  d.initiator = site_;
  d.outcome = JobOutcome::kRejected;
  d.reject_reason = RejectReason::kShed;
  d.arrival = job.release;
  d.decision_time = sim_.now();
  d.deadline = job.deadline;
  d.task_count = job.dag.task_count();
  d.acs_size = 1;
  env_.on_job_decision(d);
}

void RtdsNode::start_next_job() {
  if (!alive_ || lock_.has_value() || queue_.empty()) return;
  auto job = queue_.front();
  queue_.erase(queue_.begin());
  if (auto* chk = env_.checker()) chk->on_queue_remove(site_, sim_.now());
  begin(std::move(job));
}

void RtdsNode::begin(std::shared_ptr<const Job> job) {
  const Time now = sim_.now();
  acquire_lock(site_, job->id);

  // §4 step 1 / §5: local guarantee test.
  if (try_local_accept(job)) {
    release_lock(site_, job->id);
    after_unlock();
    return;
  }

  // §4 step 2: build the ACS over the sphere.
  if (pcs_.size() <= 1) {
    Initiation init;
    init.job = job;
    conclude(job->id, init, JobOutcome::kRejected, RejectReason::kNoCandidates);
    release_lock(site_, job->id);
    after_unlock();
    return;
  }

  // Pre-enrollment gate (§9): skip the whole enroll/lock round when the
  // deadline is already unreachable.
  if (cfg_.enroll_gate != EnrollGate::kNone) {
    Time lower_bound = now + critical_path_length(job->dag);
    if (cfg_.enroll_gate == EnrollGate::kProtocolAware) {
      Time ecc = 0.0;
      for (const auto& m : pcs_.members()) ecc = std::max(ecc, m.delay);
      lower_bound += 3.0 * ecc + cfg_.mapper_compute_time;
    }
    if (time_gt(lower_bound, job->deadline)) {
      Initiation init;
      init.job = job;
      conclude(job->id, init, JobOutcome::kRejected, RejectReason::kGated);
      release_lock(site_, job->id);
      after_unlock();
      return;
    }
  }
  auto [it, inserted] = active_.emplace(job->id, Initiation{});
  RTDS_CHECK(inserted);
  it->second.job = std::move(job);
  begin_acs_construction(it->second);
}

void RtdsNode::begin_acs_construction(Initiation& init) {
  const JobId job = init.job->id;
  init.phase = Initiation::Phase::kEnrolling;
  init.expected_replies = pcs_.size() - 1;
  RTDS_COUNT("protocol.rounds");
  if (auto* tr = obs::tracer()) {
    // One nestable async track per (initiator round, job): the outer
    // "round" span closes in conclude(); the phase spans tile its inside.
    tr->begin("protocol", "round", sim_.now(), site_, job);
    tr->begin("protocol", "enroll", sim_.now(), site_, job,
              init.expected_replies);
  }
  RTDS_TRACE("site " << site_ << " enrolls ACS for job " << job);
  Time max_delay = 0.0;
  for (const auto& m : pcs_.members()) {
    if (m.site == site_) continue;
    max_delay = std::max(max_delay, m.delay);
    const EnrollRequest req{job, init.job->deadline};
    send(m.site, req, kMsgEnroll, job);
    if (retransmit_enabled())
      arm_retry(job, m.site, kMsgEnroll, MessageBody(req), 1.0,
                2.0 * m.delay + cfg_.enroll_timeout_slack);
  }
  // Under faults the timer is armed for *both* enrollment policies: a Nack
  // normally guarantees a reply from every member, but a dead member (or a
  // dropped request/reply) answers nothing, and the round must still end.
  if (cfg_.enroll_policy == EnrollPolicy::kTimeout || cfg_.fault_tolerant) {
    Time timeout = 2.0 * max_delay + cfg_.enroll_timeout_slack;
    // With retransmissions armed the round must outlast the whole backoff
    // schedule, or the timeout would fire while resends are still
    // recovering replies.
    if (retransmit_enabled()) timeout *= retransmit_stretch();
    sim_.post_in(timeout, env_, ev::EnrollTimeout{site_, job});
  }
}

void RtdsNode::on_enroll_reply(SiteId from, const EnrollReply& msg) {
  cancel_retry(msg.job, from);  // the enroll got through; stop resending
  const auto it = active_.find(msg.job);
  if (it == active_.end() ||
      it->second.phase != Initiation::Phase::kEnrolling) {
    // Stale ack: the job concluded (or left enrollment) before this reply
    // arrived — possible under the kTimeout policy when a site processed a
    // buffered enrollment after our timer fired. Release it immediately —
    // UNLESS the site already counted into the ACS (a duplicate reply bred
    // by a retransmitted request): then the round in flight owns its lock
    // and will resolve it with a dispatch or unlock of its own.
    const bool in_acs =
        it != active_.end() &&
        std::find(it->second.acs.begin(), it->second.acs.end(), from) !=
            it->second.acs.end();
    if (msg.accepted && !in_acs)
      send(from, UnlockMsg{msg.job}, kMsgUnlock, msg.job);
    return;
  }
  Initiation& init = it->second;
  if (cfg_.fault_tolerant) {
    // Duplicate replies (each retransmit answer carries a fresh sequence,
    // so the dedup window cannot catch them) must not double-count.
    if (std::find(init.repliers.begin(), init.repliers.end(), from) !=
        init.repliers.end())
      return;
    init.repliers.push_back(from);
  }
  ++init.received_replies;
  if (msg.accepted) {
    init.acs.push_back(from);
    init.surplus_of.emplace_back(from, msg.surplus);
  }
  if (init.received_replies == init.expected_replies) {
    init.phase = Initiation::Phase::kMapping;
    if (auto* tr = obs::tracer()) {
      tr->end("protocol", "enroll", sim_.now(), site_, msg.job,
              init.acs.size());
      tr->begin("protocol", "map", sim_.now(), site_, msg.job);
    }
    sim_.post_in(cfg_.mapper_compute_time, env_, ev::Mapper{site_, msg.job});
  }
}

void RtdsNode::on_enroll_timeout(JobId job) {
  const auto it = active_.find(job);
  if (it == active_.end() || it->second.phase != Initiation::Phase::kEnrolling)
    return;  // already advanced (all replies arrived) or concluded
  it->second.timed_out = true;
  it->second.phase = Initiation::Phase::kMapping;
  RTDS_COUNT("protocol.enroll.timeouts");
  if (auto* tr = obs::tracer()) {
    tr->end("protocol", "enroll", sim_.now(), site_, job,
            it->second.acs.size());
    tr->begin("protocol", "map", sim_.now(), site_, job);
  }
  sim_.post_in(cfg_.mapper_compute_time, env_, ev::Mapper{site_, job});
}

void RtdsNode::run_mapper(JobId job) {
  const auto it = active_.find(job);
  if (it == active_.end()) {
    // Only a crash can clear an initiation between the enrollment round
    // and its scheduled mapper event.
    RTDS_CHECK_MSG(cfg_.fault_tolerant, "mapper event for unknown job " << job);
    return;
  }
  Initiation& init = it->second;
  if (auto* tr = obs::tracer())
    tr->end("protocol", "map", sim_.now(), site_, job);

  // The initiator is always an ACS member (§13 "local knowledge of k").
  init.acs.push_back(site_);
  init.surplus_of.emplace_back(site_, surplus_for(init.job->deadline));
  std::sort(init.acs.begin(), init.acs.end());
  init.acs_diameter = pcs_.delay_diameter_of(init.acs);

  // Logical processors: ACS surpluses in descending order (§9), excluding
  // sites too busy to be worth a logical slot. Track which entry is the
  // initiator itself for the §13 local-knowledge option.
  std::vector<std::pair<double, SiteId>> ranked;
  for (const auto& [s, surplus] : init.surplus_of)
    if (surplus >= cfg_.min_surplus) ranked.emplace_back(surplus, s);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<double> surpluses;
  std::size_t self_index = ranked.size();
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    surpluses.push_back(ranked[i].first);
    if (ranked[i].second == site_) self_index = i;
  }
  if (surpluses.empty()) {
    reject(init, RejectReason::kNoCandidates);
    return;
  }

  // §13: the release the mapper plans for is advanced by the remaining
  // protocol overhead — validation round trip plus dispatch. Each of those
  // is an initiator<->member leg, so the initiator's ACS *eccentricity* is
  // the sound over-estimate (the diameter ω still bounds task-to-task
  // communication inside the mapping).
  Time ecc = 0.0;
  for (SiteId s : init.acs)
    if (s != site_) ecc = std::max(ecc, pcs_.delay(site_, s));
  const Time r_eff =
      std::max(init.job->release,
               sim_.now() + cfg_.protocol_overhead_factor * 3.0 * ecc +
                   cfg_.protocol_overhead_slack);
  if (time_ge(r_eff, init.job->deadline)) {
    reject(init, RejectReason::kMapperCaseI);
    return;
  }

  MapperInput input;
  input.dag = &init.job->dag;
  input.release = r_eff;
  input.deadline = init.job->deadline;
  input.surpluses = std::move(surpluses);
  input.comm_diameter = init.acs_diameter;
  if (cfg_.initiator_local_knowledge && self_index < ranked.size()) {
    input.initiator_plan = &sched_.plan();
    input.initiator_index = self_index;
    input.initiator_power = cfg_.sched.computing_power;
  }
  AdjustmentCase failure = AdjustmentCase::kReject;
  auto mapping = build_trial_mapping(input, cfg_.mapper, &failure);
  if (!mapping) {
    reject(init, failure == AdjustmentCase::kReject
                     ? RejectReason::kMapperCaseI
                     : RejectReason::kMapperWindows);
    return;
  }
  RTDS_TRACE("site " << site_ << " mapped job " << job << " onto "
                     << mapping->used_processors << " logical procs, case "
                     << to_string(mapping->adjustment));
  init.mapping = std::make_shared<const TrialMapping>(*std::move(mapping));
  init.phase = Initiation::Phase::kValidating;
  begin_validation(init);
}

void RtdsNode::begin_validation(Initiation& init) {
  const JobId job = init.job->id;
  init.validate_expected = init.acs.size();
  if (auto* tr = obs::tracer())
    tr->begin("protocol", "validate", sim_.now(), site_, job,
              init.validate_expected);
  for (SiteId s : init.acs) {
    if (s == site_) {
      init.endorsements.emplace_back(
          site_, endorsable_processors(*init.job, *init.mapping));
      endorsement_ = OutstandingEndorsement{job, init.job, init.mapping,
                                            init.endorsements.back().second};
    } else {
      // Validation ships the whole Trial-Mapping (task windows): §13 notes
      // that task-code-sized messages cost real transfer time.
      const ValidateRequest req{job, init.job, init.mapping};
      const double size = 1.0 + double(init.job->dag.task_count());
      send(s, req, kMsgValidate, job, size);
      if (retransmit_enabled())
        arm_retry(job, s, kMsgValidate, MessageBody(req), size,
                  2.0 * pcs_.delay(site_, s) + cfg_.enroll_timeout_slack);
    }
  }
  if (init.endorsements.size() == init.validate_expected) {
    finish_matching(init);  // degenerate ACS == {k}
    return;
  }
  if (cfg_.fault_tolerant) {
    // A dead member (or a lost request/reply) never answers; close the
    // round after a validation round trip plus the configured slacks.
    Time max_delay = 0.0;
    for (SiteId s : init.acs)
      if (s != site_) max_delay = std::max(max_delay, pcs_.delay(site_, s));
    Time timeout = 2.0 * max_delay + cfg_.enroll_timeout_slack +
                   cfg_.protocol_overhead_slack;
    // Outlast the retransmit backoff schedule (see begin_acs_construction).
    if (retransmit_enabled()) timeout *= retransmit_stretch();
    sim_.post_in(timeout, env_, ev::ValidateTimeout{site_, job});
  }
}

void RtdsNode::on_validate_timeout(JobId job) {
  const auto it = active_.find(job);
  if (it == active_.end() || it->second.phase != Initiation::Phase::kValidating)
    return;  // every reply arrived (or the site crashed) first
  Initiation& init = it->second;
  init.timed_out = true;
  RTDS_COUNT("protocol.validate.timeouts");
  // Members that never answered endorse nothing; the maximum coupling
  // decides what survives without them (often everything — their logical
  // processors simply land on the members that did answer).
  for (SiteId s : init.acs) {
    const bool answered =
        std::any_of(init.endorsements.begin(), init.endorsements.end(),
                    [&](const auto& e) { return e.first == s; });
    if (!answered) init.endorsements.emplace_back(s, std::vector<std::uint32_t>{});
  }
  RTDS_TRACE("t=" << sim_.now() << " site " << site_ << " job " << job
                  << ": validation timed out, matching over "
                  << init.endorsements.size() << " endorsements");
  finish_matching(init);
}

void RtdsNode::on_validate_reply(SiteId from, const ValidateReply& msg) {
  const auto it = active_.find(msg.job);
  if (it == active_.end() ||
      it->second.phase != Initiation::Phase::kValidating) {
    // Possible only under faults: a slow reply landing after the
    // validation timeout resolved the round (the conclude already sent
    // `from` its dispatch or unlock).
    RTDS_CHECK_MSG(cfg_.fault_tolerant,
                   "validate reply for unknown job " << msg.job);
    return;
  }
  cancel_retry(msg.job, from);  // the validate got through; stop resending
  Initiation& init = it->second;
  if (cfg_.fault_tolerant &&
      std::any_of(init.endorsements.begin(), init.endorsements.end(),
                  [&](const auto& e) { return e.first == from; }))
    return;  // duplicate reply to a retransmitted request
  init.endorsements.emplace_back(from, msg.endorsable);
  if (init.endorsements.size() == init.validate_expected)
    finish_matching(init);
}

void RtdsNode::finish_matching(Initiation& init) {
  const JobId job = init.job->id;
  const auto& acs = init.acs;
  const auto u_count = init.mapping->used_processors;
  if (auto* tr = obs::tracer())
    tr->end("protocol", "validate", sim_.now(), site_, job,
            init.endorsements.size());

  // §10: maximum coupling between logical processors and ACS sites.
  BipartiteGraph graph(u_count, acs.size());
  for (std::size_t ri = 0; ri < acs.size(); ++ri) {
    const auto endorse_it =
        std::find_if(init.endorsements.begin(), init.endorsements.end(),
                     [&](const auto& e) { return e.first == acs[ri]; });
    RTDS_CHECK(endorse_it != init.endorsements.end());
    for (std::uint32_t u : endorse_it->second) {
      RTDS_CHECK(u < u_count);
      graph.add_edge(u, ri);
    }
  }
  const MatchingResult match = max_matching_hopcroft_karp(graph);
  RTDS_TRACE("t=" << sim_.now() << " site " << site_ << " job " << job
                  << ": maximum coupling " << match.size << " of |U|="
                  << u_count << " over |ACS|=" << acs.size());
  if (!match.perfect_on_left()) {
    RTDS_TRACE("site " << site_ << " job " << job << " coupling "
                       << match.size << " < " << u_count << ": reject");
    reject(init, RejectReason::kMatchingFailed);
    return;
  }

  // §11: dispatch the permutation + task codes; uninvolved members unlock.
  init.phase = Initiation::Phase::kDone;
  std::uint32_t self_logical = kNoLogical;
  for (std::size_t ri = 0; ri < acs.size(); ++ri) {
    const auto logical = match.match_of_right[ri] == kUnmatched
                             ? kNoLogical
                             : static_cast<std::uint32_t>(match.match_of_right[ri]);
    if (acs[ri] == site_) {
      self_logical = logical;
    } else {
      const DispatchMsg dm{job, logical, init.job, init.mapping};
      const double size = 1.0 + double(init.job->dag.task_count());
      send(acs[ri], dm, kMsgDispatch, job, size);
      // Dispatch retries survive conclude() (the guarantee is already
      // given); they die on the member's DispatchAck or, exhausted, report
      // a dispatch failure for assignments that carried real work.
      if (retransmit_enabled())
        arm_retry(job, acs[ri], kMsgDispatch, MessageBody(dm), size,
                  2.0 * pcs_.delay(site_, acs[ri]) +
                      cfg_.enroll_timeout_slack);
    }
  }
  if (self_logical != kNoLogical)
    commit_logical(*init.job, *init.mapping, self_logical);

  conclude(job, init, JobOutcome::kAcceptedRemote, RejectReason::kNone);
  release_lock(site_, job);
  after_unlock();
}

void RtdsNode::reject(Initiation& init, RejectReason reason) {
  const JobId job = init.job->id;
  for (SiteId s : init.acs)
    if (s != site_) send(s, UnlockMsg{job}, kMsgUnlock, job);
  conclude(job, init, JobOutcome::kRejected, reason);
  release_lock(site_, job);
  after_unlock();
}

void RtdsNode::conclude(JobId job, const Initiation& init, JobOutcome outcome,
                        RejectReason reason) {
  // Members that never answered enrollment or validation must not be
  // re-asked once the round is decided; in-flight dispatch retries stay.
  cancel_pre_dispatch_retries(job);
  JobDecision d;
  d.job = job;
  d.initiator = site_;
  d.outcome = outcome;
  d.reject_reason = reason;
  d.arrival = init.job->release;
  d.decision_time = sim_.now();
  d.deadline = init.job->deadline;
  d.task_count = init.job->dag.task_count();
  d.acs_size = std::max<std::size_t>(1, init.acs.size());
  d.adjustment_case =
      init.mapping ? static_cast<int>(init.mapping->adjustment) : 0;
  d.fault_recovered = cfg_.fault_tolerant && init.timed_out;
  // The outer "round" span exists only for initiations that enrolled —
  // expected_replies > 0 is exactly the begin_acs_construction postcondition.
  if (init.expected_replies > 0)
    if (auto* tr = obs::tracer())
      tr->end("protocol", "round", sim_.now(), site_, job,
              static_cast<std::uint64_t>(outcome));
  env_.on_job_decision(d);
  active_.erase(job);
}

// ---------------------------------------------------------------------------
// Fault injection (DESIGN.md §9)
// ---------------------------------------------------------------------------

void RtdsNode::crash() {
  if (!alive_) return;
  alive_ = false;
  ++epoch_;  // committed reservations of this life never complete
  // Committed-but-unfinished work dies with the plan.
  for (const auto& [job, pending] : pending_completions_)
    if (pending > 0) env_.on_job_lost(job, site_);
  pending_completions_.clear();
  // Every job this site still owed a decision gets one, so the run's
  // accounting covers every arrival even across crashes.
  for (const auto& [id, init] : active_)
    record_site_down(*init.job, init.acs.size());
  active_.clear();
  for (const auto& job : queue_) {
    record_site_down(*job, 1);
    if (auto* chk = env_.checker()) chk->on_queue_remove(site_, sim_.now());
  }
  queue_.clear();
  buffered_enrolls_.clear();
  // Locks held *by* this site's initiations resolve via the members'
  // leases; a lock held *on* this site dies here.
  if (bug_ != fault::InjectedBug::kCrashKeepsLock)
    lock_.reset();
  endorsement_.reset();
  ++lock_seq_;  // cancel any armed lease
  // An in-flight dispatch retry carries guaranteed work whose delivery this
  // crash forfeits: the retry timers die here (they no-op against the empty
  // map), so the exhaustion path would never declare the loss. Declare it
  // now, exactly as exhaustion would — otherwise the job stays marked
  // healthy with tasks that can never run (found by rtds_fuzz).
  for (const auto& [key, r] : retries_) {
    const auto* dm = std::get_if<DispatchMsg>(&r.payload);
    if (dm != nullptr && dm->logical != kNoLogical)
      env_.on_dispatch_failure(key.first, key.second);
  }
  retries_.clear();
  // send_seq_ / recv_window_ deliberately survive: sequences must stay
  // monotone per (sender, receiver) across reincarnations, or a recovered
  // site's fresh messages would look like replays to its peers.
  sched_ = LocalScheduler(cfg_.sched);
  RTDS_TRACE("t=" << sim_.now() << " site " << site_ << " CRASHED");
}

void RtdsNode::record_site_down(const Job& job, std::size_t acs_size) {
  JobDecision d;
  d.job = job.id;
  d.initiator = site_;
  d.outcome = JobOutcome::kRejected;
  d.reject_reason = RejectReason::kSiteDown;
  d.arrival = job.release;
  d.decision_time = sim_.now();
  d.deadline = job.deadline;
  d.task_count = job.dag.task_count();
  d.acs_size = std::max<std::size_t>(1, acs_size);
  env_.on_job_decision(d);
}

void RtdsNode::recover() {
  if (alive_) return;
  alive_ = true;  // the plan is already empty (reset at crash)
  RTDS_TRACE("t=" << sim_.now() << " site " << site_ << " recovers");
}

// ---------------------------------------------------------------------------
// Responder side
// ---------------------------------------------------------------------------

void RtdsNode::on_message(SiteId from, const MessageBody& payload) {
  // The transport drops deliveries to dead sites; this guards the
  // scripted-plan edge where a crash and a delivery share a timestamp.
  if (!alive_) return;
  // §12 dedup: drop sequences this window has already accepted. On a
  // faultless network sequences arrive strictly increasing, so the window
  // accepts everything and the run is bit-identical to the unhardened
  // protocol (pinned by tests/chaos_test.cpp). seq 0 = unstamped
  // (sequence-less message types report 0 here).
  const std::uint64_t seq = std::visit(
      [](const auto& m) -> std::uint64_t {
        if constexpr (requires { m.seq; }) return m.seq;
        return 0;
      },
      payload);
  if (seq != 0) {
    bool fresh = recv_window_[from].accept(seq);
    if (fresh && bug_ == fault::InjectedBug::kDedupFalsePositive &&
        seq % 8 == 0)
      fresh = false;  // injected boundary off-by-one (fault/bugs.hpp)
    if (!fresh) {
      RTDS_COUNT("protocol.dedup_dropped");
      RTDS_TRACE("t=" << sim_.now() << " site " << site_
                      << " drops duplicate seq " << seq << " from " << from);
      return;
    }
  }
  if (const auto* enroll = std::get_if<EnrollRequest>(&payload)) {
    on_enroll_request(from, *enroll);
  } else if (const auto* reply = std::get_if<EnrollReply>(&payload)) {
    on_enroll_reply(from, *reply);
  } else if (const auto* unlock = std::get_if<UnlockMsg>(&payload)) {
    on_unlock(from, *unlock);
  } else if (const auto* validate = std::get_if<ValidateRequest>(&payload)) {
    on_validate_request(from, *validate);
  } else if (const auto* vreply = std::get_if<ValidateReply>(&payload)) {
    on_validate_reply(from, *vreply);
  } else if (const auto* dispatch = std::get_if<DispatchMsg>(&payload)) {
    on_dispatch(from, *dispatch);
  } else if (const auto* ack = std::get_if<DispatchAck>(&payload)) {
    on_dispatch_ack(from, *ack);
  } else {
    RTDS_CHECK_MSG(false, "site " << site_ << " received unknown payload");
  }
}

void RtdsNode::on_enroll_request(SiteId from, const EnrollRequest& msg) {
  if (cfg_.fault_tolerant && lock_matches(from, msg.job)) {
    // Retransmit of the very round we are locked on (our reply was lost or
    // is still in flight): answer idempotently with the current surplus
    // instead of Nack-ing our own initiator.
    sched_.garbage_collect(sim_.now());
    send(from, EnrollReply{msg.job, true, surplus_for(msg.deadline)},
         kMsgEnrollReply, msg.job);
    return;
  }
  if (lock_.has_value()) {
    if (cfg_.enroll_policy == EnrollPolicy::kNack) {
      send(from, EnrollReply{msg.job, false, 0.0}, kMsgEnrollReply, msg.job);
    } else {
      // Faithful §8 semantics: ignore (buffer) until our unlock arrives.
      // A retransmitted request must not buffer twice — it would make
      // after_unlock() lock this site onto the same round back to back.
      if (cfg_.fault_tolerant) {
        for (const auto& [f, r] : buffered_enrolls_)
          if (f == from && r.job == msg.job) return;
      }
      buffered_enrolls_.emplace_back(from, msg);
    }
    return;
  }
  acquire_lock(from, msg.job);
  sched_.garbage_collect(sim_.now());
  const double surplus = surplus_for(msg.deadline);
  RTDS_TRACE("t=" << sim_.now() << " site " << site_ << " enrolled by "
                  << from << " for job " << msg.job << " (surplus "
                  << surplus << ")");
  send(from, EnrollReply{msg.job, true, surplus}, kMsgEnrollReply, msg.job);
}

void RtdsNode::on_validate_request(SiteId from, const ValidateRequest& msg) {
  if (cfg_.fault_tolerant && lock_matches(from, msg.job) &&
      endorsement_.has_value() && endorsement_->job == msg.job) {
    // Retransmit of a request we already endorsed (the reply was lost or
    // is in flight): repeat the STORED endorsement verbatim — recomputing
    // could promise a different set than the one this site is holding.
    send(from, ValidateReply{msg.job, endorsement_->endorsed},
         kMsgValidateReply, msg.job);
    return;
  }
  if (!lock_matches(from, msg.job)) {
    // The lease released this lock (the enroll reply or this request was
    // slow/lost, or we crashed and recovered in between). Stay silent; the
    // initiator's validation timeout covers us.
    RTDS_CHECK_MSG(cfg_.fault_tolerant,
                   "validate request while not locked by " << from);
    return;
  }
  auto endorsed = endorsable_processors(*msg.job_data, *msg.mapping);
  RTDS_TRACE("t=" << sim_.now() << " site " << site_ << " validates job "
                  << msg.job << ": endorses " << endorsed.size() << "/"
                  << msg.mapping->used_processors << " logical procs");
  endorsement_ = OutstandingEndorsement{msg.job, msg.job_data, msg.mapping,
                                        endorsed};
  send(from, ValidateReply{msg.job, std::move(endorsed)}, kMsgValidateReply,
       msg.job);
}

void RtdsNode::on_dispatch(SiteId from, const DispatchMsg& msg) {
  if (retransmit_enabled()) {
    if (recently_dispatched(msg.job)) {
      // The original was already processed and only the ack was lost:
      // re-ack, never re-commit (and never re-count a dispatch failure).
      send(from, DispatchAck{msg.job}, kMsgDispatchAck, msg.job);
      return;
    }
    remember_dispatch(msg.job);
    send(from, DispatchAck{msg.job}, kMsgDispatchAck, msg.job);
  }
  if (!lock_matches(from, msg.job)) {
    // Our lease expired before the (slow) dispatch arrived, so the
    // endorsement it relies on is gone. An actual assignment is a failed
    // dispatch; a mere unlock marker needs nothing.
    RTDS_CHECK_MSG(cfg_.fault_tolerant,
                   "dispatch while not locked by " << from);
    if (msg.logical != kNoLogical) env_.on_dispatch_failure(msg.job, site_);
    return;
  }
  if (msg.logical != kNoLogical) {
    RTDS_TRACE("t=" << sim_.now() << " site " << site_
                    << " executes logical proc " << msg.logical << " of job "
                    << msg.job);
    commit_logical(*msg.job_data, *msg.mapping, msg.logical);
  } else {
    RTDS_TRACE("t=" << sim_.now() << " site " << site_
                    << " not involved in job " << msg.job << ": unlocking");
  }
  release_lock(from, msg.job);
  after_unlock();
}

void RtdsNode::on_unlock(SiteId from, const UnlockMsg& msg) {
  if (cfg_.fault_tolerant && !lock_matches(from, msg.job))
    return;  // the lease already released it (maybe we re-locked since)
  release_lock(from, msg.job);
  after_unlock();
}

void RtdsNode::on_dispatch_ack(SiteId from, const DispatchAck& msg) {
  // Receipt for a dispatch we sent (only ever emitted by peers running
  // with retransmit enabled): stop resending it.
  cancel_retry(msg.job, from);
}

// ---------------------------------------------------------------------------
// §12 hardening: ack + retransmit with capped exponential backoff
// ---------------------------------------------------------------------------

void RtdsNode::arm_retry(JobId job, SiteId to, int category,
                         MessageBody payload, double size_units, Time rto) {
  Retry r;
  r.payload = std::move(payload);
  r.category = category;
  r.size_units = size_units;
  r.gen = ++retry_gen_;
  // One slot per (job, peer): the protocol phases are sequential, so a
  // validate (or dispatch) template supersedes the peer's enroll (or
  // validate) entry, and the superseded timer no-ops on its stale gen.
  retries_[{job, to}] = std::move(r);
  const Time next = rto + retry_rng_.uniform(0.0, 0.25 * rto);
  sim_.post_in(next, env_, ev::RetryTimer{site_, to, job, retry_gen_, rto});
}

void RtdsNode::on_retry_timer(JobId job, SiteId to, std::uint64_t gen,
                              Time rto) {
  if (!alive_) return;
  const auto it = retries_.find({job, to});
  if (it == retries_.end() || it->second.gen != gen)
    return;  // answered, superseded, or cancelled since this timer was set
  Retry& r = it->second;
  if (r.attempts >= cfg_.retransmit_tries) {
    // Backoff exhausted: the peer is unreachable (dead, partitioned away,
    // or every copy was lost). An exhausted dispatch that carried real
    // work is a failed dispatch — the guarantee was already given and the
    // work will never run there; everything else just stops.
    const auto* dm = std::get_if<DispatchMsg>(&r.payload);
    const bool lost_work = dm != nullptr && dm->logical != kNoLogical;
    retries_.erase(it);
    RTDS_COUNT("protocol.retransmit.exhausted");
    if (lost_work) env_.on_dispatch_failure(job, to);
    return;
  }
  ++r.attempts;
  RTDS_COUNT("protocol.retransmits");
  env_.on_retransmit(job);
  RTDS_TRACE("t=" << sim_.now() << " site " << site_ << " retransmits "
                  << msg_category_name(r.category) << " of job " << job
                  << " to " << to << " (attempt " << r.attempts << ")");
  // Re-enters send(), so the copy carries a FRESH sequence: peers must
  // process it even though the dedup window saw the original's sequence.
  send(to, MessageBody(r.payload), r.category, job, r.size_units);
  // Capped exponential backoff with seeded jitter (deterministic per run).
  const Time next_rto = 2.0 * rto;
  const Time next = next_rto + retry_rng_.uniform(0.0, 0.25 * next_rto);
  sim_.post_in(next, env_, ev::RetryTimer{site_, to, job, gen, next_rto});
}

void RtdsNode::cancel_retry(JobId job, SiteId to) {
  if (retries_.empty()) return;  // fast path: fault-free runs
  retries_.erase({job, to});
}

void RtdsNode::cancel_pre_dispatch_retries(JobId job) {
  if (retries_.empty()) return;
  for (auto it = retries_.lower_bound({job, 0});
       it != retries_.end() && it->first.first == job;) {
    if (std::get_if<DispatchMsg>(&it->second.payload) == nullptr)
      it = retries_.erase(it);
    else
      ++it;
  }
}

bool RtdsNode::recently_dispatched(JobId job) const {
  const std::size_t n =
      std::min(recent_dispatch_count_, recent_dispatch_.size());
  for (std::size_t i = 0; i < n; ++i)
    if (recent_dispatch_[i] == job) return true;
  return false;
}

void RtdsNode::remember_dispatch(JobId job) {
  recent_dispatch_[recent_dispatch_count_ % recent_dispatch_.size()] = job;
  ++recent_dispatch_count_;
}

bool RtdsNode::try_local_accept(const std::shared_ptr<const Job>& job) {
  const Time now = sim_.now();
  sched_.garbage_collect(now);  // safe: only drops finished reservations
  const Time earliest = std::max(now, job->release);

  // Trial on a copy so a failed endorsement re-check leaves no trace.
  LocalScheduler trial = sched_;
  const auto placements = trial.try_accept_dag_local(*job, earliest);
  if (!placements) return false;
  if (endorsement_.has_value()) {
    for (std::uint32_t u : endorsement_->endorsed) {
      const auto tasks = endorsement_->mapping->tasks_of_span(u);
      if (!trial.test_windowed_feasible(tasks)) return false;
    }
  }
  sched_ = std::move(trial);
  RTDS_TRACE("site " << site_ << " accepts job " << job->id << " locally");

  // Completion notifications (one per task: local placements never split).
  for (const auto& p : *placements) schedule_completion(job->id, p.task, p.end);
  JobDecision d;
  d.job = job->id;
  d.initiator = site_;
  d.outcome = JobOutcome::kAcceptedLocal;
  d.arrival = job->release;
  d.decision_time = now;
  d.deadline = job->deadline;
  d.task_count = job->dag.task_count();
  d.acs_size = 1;
  env_.on_job_decision(d);
  return true;
}

double RtdsNode::surplus_for(Time deadline) const {
  const Time now = sim_.now();
  if (cfg_.job_window_surplus && time_gt(deadline, now))
    return sched_.plan().surplus(now, deadline - now);
  return sched_.surplus(now);
}

std::vector<std::uint32_t> RtdsNode::endorsable_processors(
    const Job& job, const TrialMapping& m) const {
  (void)job;
  std::vector<std::uint32_t> result;
  for (std::uint32_t u = 0; u < m.used_processors; ++u) {
    const auto tasks = m.tasks_of_span(u);
    RTDS_CHECK(!tasks.empty());
    if (sched_.test_windowed_feasible(tasks)) result.push_back(u);
  }
  return result;
}

void RtdsNode::commit_logical(const Job& job, const TrialMapping& m,
                              std::uint32_t u) {
  // Mutable stack copy of the logical processor's task windows.
  (void)job;
  InlineVec<WindowedTask, 32> task_buf;
  for (const auto& t : m.tasks_of_span(u)) task_buf.push_back(t);
  const std::span<WindowedTask> tasks{task_buf.begin(), task_buf.size()};
  // Execution cannot start in the past: clamp releases to now. Under the
  // ideal transport the mapper's protocol charge guarantees r(t) >= now, so
  // the clamp is a no-op; under contention it may bite.
  const Time now = sim_.now();
  bool clamped = false;
  for (auto& t : tasks) {
    if (time_lt(t.release, now)) {
      t.release = now;
      clamped = true;
    }
  }
  const auto placements = sched_.test_windowed(tasks);
  if (!placements.has_value()) {
    // Possible only if the clamp tightened a window, i.e. the dispatch
    // arrived after the planned release — the transport's real latency
    // exceeded the protocol over-estimate. Never happens under the ideal
    // faultless transport (then it would be a protocol bug, caught below);
    // under faults a lease expiry may also have let local work overwrite
    // the endorsement, with no clamp involved.
    RTDS_CHECK_MSG(clamped || cfg_.fault_tolerant,
                   "site " << site_ << " cannot honour endorsed logical proc "
                           << u << " of job " << job.id);
    env_.on_dispatch_failure(job.id, site_);
    return;
  }
  sched_.commit(job.id, tasks, *placements);

  // Completion notification at the *last* segment end of each task
  // (preemptive placements may split a task into several segments). The
  // task set is tiny and `tasks` already enumerates it in ascending id
  // order, so a per-task max scan replaces the old std::map.
  for (const auto& t : tasks) {
    Time end = 0.0;
    for (const auto& p : *placements)
      if (p.task == t.task) end = std::max(end, p.end);
    schedule_completion(job.id, t.task, end);
  }
}

void RtdsNode::schedule_completion(JobId job, TaskId task, Time end) {
  if (cfg_.fault_tolerant) ++pending_completions_[job];
  sim_.post_at(end, env_, ev::Completion{site_, task, job, end, epoch_});
}

void RtdsNode::fire_completion(JobId job, TaskId task, Time end,
                               std::uint64_t ep) {
  if (ep != epoch_) return;  // scheduled by a previous life; work lost
  if (cfg_.fault_tolerant) {
    const auto it = pending_completions_.find(job);
    RTDS_CHECK(it != pending_completions_.end() && it->second > 0);
    if (--it->second == 0) pending_completions_.erase(it);
  }
  env_.on_task_complete(job, task, site_, end);
}

// ---------------------------------------------------------------------------
// Locking
// ---------------------------------------------------------------------------

void RtdsNode::acquire_lock(SiteId initiator, JobId job) {
  RTDS_CHECK_MSG(!lock_.has_value(), "site " << site_ << " already locked");
  lock_ = Lock{initiator, job};
  ++lock_seq_;
  // Responder locks lease out under faults: the initiator may die (or its
  // dispatch/unlock may be lost) and must not freeze this site forever.
  // The initiator's own lock needs no lease — it resolves synchronously
  // with the initiation, and a crash clears it.
  if (cfg_.fault_tolerant && initiator != site_) {
    sim_.post_in(lease_, env_, ev::LeaseExpiry{site_, lock_seq_});
  }
}

void RtdsNode::on_lease_expired(std::uint64_t seq) {
  if (!alive_ || !lock_.has_value() || seq != lock_seq_) return;
  RTDS_TRACE("t=" << sim_.now() << " site " << site_
                  << " lease expires on lock (" << lock_->initiator << ", "
                  << lock_->job << ")");
  lock_.reset();
  endorsement_.reset();
  after_unlock();
}

void RtdsNode::release_lock(SiteId initiator, JobId job) {
  RTDS_CHECK_MSG(lock_.has_value(), "site " << site_ << " not locked");
  RTDS_CHECK_MSG(lock_->initiator == initiator && lock_->job == job,
                 "unlock mismatch at site " << site_ << ": held ("
                                            << lock_->initiator << ", "
                                            << lock_->job << "), got ("
                                            << initiator << ", " << job << ")");
  lock_.reset();
  endorsement_.reset();
}

void RtdsNode::after_unlock() {
  // kTimeout policy: a buffered enrollment is served first — the site locks
  // onto that initiator and acks late (the initiator unlocks it right back
  // if the job already concluded).
  if (!lock_.has_value() && !buffered_enrolls_.empty()) {
    auto [from, req] = buffered_enrolls_.front();
    buffered_enrolls_.erase(buffered_enrolls_.begin());
    acquire_lock(from, req.job);
    sched_.garbage_collect(sim_.now());
    send(from, EnrollReply{req.job, true, surplus_for(req.deadline)},
         kMsgEnrollReply, req.job);
    return;
  }
  // Serve queued local arrivals once the site is free. Deferred to a fresh
  // event so responder handlers never nest a whole initiator pipeline.
  if (!lock_.has_value() && !queue_.empty() && !start_pending_) {
    start_pending_ = true;
    sim_.post_in(0.0, env_, ev::StartNext{site_});
  }
}

void RtdsNode::fire_start_next() {
  start_pending_ = false;
  start_next_job();
}

}  // namespace rtds
