#include "core/rtds_system.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>
#include <variant>

#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "routing/transport.hpp"
#include "snap/warm_start.hpp"

namespace rtds {

const char* to_string(TransportModel model) {
  switch (model) {
    case TransportModel::kIdeal: return "ideal";
    case TransportModel::kContended: return "contended";
  }
  return "?";
}

RtdsSystem::RtdsSystem(Topology topo, SystemConfig cfg)
    : topo_(std::move(topo)), cfg_(std::move(cfg)) {
  RTDS_REQUIRE_MSG(topo_.connected(), "topology must be connected (§2)");
  const auto h = cfg_.node.sphere_radius_h;

  // §9: a non-empty fault plan switches the protocol into its
  // fault-tolerant mode. The plan's events become ordinary simulator
  // events, so the whole run stays deterministic.
  if (!cfg_.faults.empty()) {
    // Reject malformed plans (scripted or generated) before any event is
    // scheduled: out-of-range sites, unknown links, bad partition cuts,
    // non-monotone times all fail here with the offending event index.
    cfg_.faults.validate(topo_);
    cfg_.node.fault_tolerant = true;
    // One seed drives the whole adversarial run: the plan's perturbation
    // stream and every node's retransmit-backoff jitter derive from it.
    cfg_.node.fault_seed = cfg_.faults.seed;
    fault_state_ = std::make_unique<fault::FaultState>(topo_, cfg_.faults);
    for (const auto& f : cfg_.faults.events)
      sim_.post_at(f.at, *this, ev::Fault{f});
  }

  // §12 runtime invariant checker: the config knob OR the run context
  // (the CLIs' --check-invariants). Pure observer — never changes bytes.
  if (cfg_.check_invariants || cfg_.context.check_invariants) {
    checker_ = std::make_unique<fault::InvariantChecker>(
        cfg_.context.invariants_fatal);
    sim_.set_event_observer(
        [](void* ctx, Time now) {
          static_cast<fault::InvariantChecker*>(ctx)->on_event(now);
        },
        checker_.get());
  }

  // §7: interrupted APSP, 2h phases. With warm start on (snap/,
  // DESIGN.md §14), identical (topology, h) bring-ups deserialize the
  // tables and spheres from a process-wide cache instead of recomputing —
  // the cache stores serialized bytes of a cold build, so a warm bring-up
  // is bit-identical by construction.
  std::vector<Pcs> warm_spheres;
  if (cfg_.context.warm_start) {
    if (!snap::warm_start_acquire(topo_, h, tables_, warm_spheres)) {
      {
        RTDS_OBS_PHASE("sys.apsp_build");
        tables_ = phased_apsp(topo_, 2 * h);
      }
      warm_spheres.reserve(topo_.site_count());
      for (SiteId s = 0; s < topo_.site_count(); ++s)
        warm_spheres.push_back(Pcs::build(tables_, s, h));
      snap::warm_start_store(topo_, h, tables_, warm_spheres);
    }
  } else {
    RTDS_OBS_PHASE("sys.apsp_build");
    tables_ = phased_apsp(topo_, 2 * h);
  }
  const auto& tables = tables_;

  switch (cfg_.transport_model) {
    case TransportModel::kIdeal:
      transport_ = std::make_unique<IdealTransport>(sim_, tables_);
      break;
    case TransportModel::kContended:
      transport_ = std::make_unique<ContendedTransport>(
          sim_, topo_, tables_, cfg_.link_bandwidth);
      break;
  }
  if (fault_state_ != nullptr) {
    transport_->set_fault_state(
        fault_state_.get(), [this](SiteId to, const MessageBody& body) {
          // A lost dispatch with a real assignment means the job is not
          // fully committed — the initiator cannot know (the paper's
          // protocol has no dispatch ack), so the system layer accounts it.
          // With §12 retransmission on, the initiator DOES know (ack or
          // backoff exhaustion), and that path owns the accounting.
          if (cfg_.node.retransmit) return;
          if (const auto* d = std::get_if<DispatchMsg>(&body))
            if (d->logical != kNoLogical) on_dispatch_failure(d->job, to);
        });
  }

  if (cfg_.measure_pcs_build_cost) {
    RTDS_OBS_PHASE("sys.pcs_build_cost");
    // Re-run as real messages on a throwaway simulator and reconcile.
    const auto dist = distributed_apsp(topo_, 2 * h);
    metrics_.pcs_build_messages = dist.messages;
    for (SiteId s = 0; s < topo_.site_count(); ++s) {
      RTDS_CHECK_MSG(dist.tables[s].size() == tables[s].size(),
                     "distributed and in-memory APSP disagree at site " << s);
      for (SiteId dest = 0; dest < tables[s].site_count(); ++dest) {
        if (!tables[s].has_route(dest)) continue;
        const auto& line = tables[s].route(dest);
        const auto& other = dist.tables[s].route(dest);
        RTDS_CHECK(time_eq(other.dist, line.dist));
        RTDS_CHECK(other.hops == line.hops);
      }
    }
  }

  RTDS_OBS_PHASE("sys.bring_up");
  nodes_.reserve(topo_.site_count());
  for (SiteId s = 0; s < topo_.site_count(); ++s) {
    RtdsConfig node_cfg = cfg_.node;
    // §13 uniform machines: execution rate scales with computing power.
    node_cfg.sched.computing_power = topo_.computing_power(s);
    nodes_.push_back(std::make_unique<RtdsNode>(
        s, sim_, *transport_,
        s < warm_spheres.size() ? std::move(warm_spheres[s])
                                : Pcs::build(tables, s, h),
        node_cfg, *this, cfg_.context.injected_bug));
    if (checker_ == nullptr) {
      transport_->set_handler(s, [node = nodes_.back().get()](
                                     SiteId from, const MessageBody& payload) {
        node->on_message(from, payload);
      });
    } else {
      // Checked delivery: assert no message reaches a crashed site before
      // handing it to the node. Only this wrapper costs anything, and only
      // when the checker is on.
      transport_->set_handler(
          s, [this, node = nodes_.back().get(), s](SiteId from,
                                                   const MessageBody& payload) {
            checker_->on_delivery(
                s, fault_state_ == nullptr || fault_state_->site_up(s),
                sim_.now());
            node->on_message(from, payload);
          });
    }
  }
}

void RtdsSystem::run(const std::vector<JobArrival>& arrivals) {
  start(arrivals);
  {
    RTDS_OBS_PHASE("sys.run");
    sim_.run();
  }
  finish();
}

void RtdsSystem::run_stream(std::function<std::optional<JobArrival>()> next) {
  start_stream(std::move(next));
  {
    RTDS_OBS_PHASE("sys.run");
    sim_.run();
  }
  finish();
}

void RtdsSystem::start(const std::vector<JobArrival>& arrivals) {
  RTDS_REQUIRE_MSG(!ran_, "RtdsSystem::run may only be called once");
  ran_ = true;
  job_messages_.reserve(arrivals.size());
  accepted_.reserve(arrivals.size());
  // Arrival j gets seq k + j, after the constructor's k events: at one
  // instant, arrivals fire after those, in vector order, and before every
  // event the run schedules later.
  std::uint64_t seq = sim_.reserve_seqs(arrivals.size());
  closed_.reserve(arrivals.size());
  // Duplicate-id check via one sort instead of a node per arrival (large
  // scenario trials schedule thousands of arrivals here).
  std::vector<JobId> ids;
  ids.reserve(arrivals.size());
  for (const auto& a : arrivals) {
    validate(a);
    ids.push_back(a.job->id);
    closed_.push_back({a.job, seq++, a.site});
  }
  std::sort(ids.begin(), ids.end());
  const auto dup = std::adjacent_find(ids.begin(), ids.end());
  RTDS_REQUIRE_MSG(dup == ids.end(), "duplicate job id " << *dup);
  std::sort(closed_.begin(), closed_.end(),
            [](const ClosedArrival& x, const ClosedArrival& y) {
              const Time tx = queued_time(*x.job);
              const Time ty = queued_time(*y.job);
              return tx < ty || (tx == ty && x.seq < y.seq);
            });
  if (checker_ != nullptr) checker_->on_submitted(arrivals.size());
  post_next_arrival();
}

void RtdsSystem::start_stream(std::function<std::optional<JobArrival>()> next) {
  RTDS_REQUIRE_MSG(!ran_, "RtdsSystem::run may only be called once");
  RTDS_REQUIRE(next != nullptr);
  ran_ = true;
  streamed_ = true;
  stream_next_ = std::move(next);
  post_next_arrival();
}

std::size_t RtdsSystem::step_events(std::size_t max_events) {
  RTDS_OBS_PHASE("sys.run");
  return sim_.run_chunk(max_events);
}

std::size_t RtdsSystem::run_events_until(Time t_end) {
  RTDS_OBS_PHASE("sys.run");
  return sim_.run_until(t_end);
}

void RtdsSystem::finish() {
  RTDS_GAUGE_MAX("sim.events", sim_.executed_events());
  verify_invariants();
}

void RtdsSystem::validate(const JobArrival& a) const {
  RTDS_REQUIRE(a.site < nodes_.size());
  RTDS_REQUIRE(a.job != nullptr);
  RTDS_REQUIRE_MSG(time_lt(a.job->release, a.job->deadline),
                   "job " << a.job->id << " has an empty window");
}

void RtdsSystem::post_next_arrival() {
  if (closed_next_ < closed_.size()) {
    ClosedArrival& a = closed_[closed_next_++];
    const Time at = queued_time(*a.job);
    sim_.post_reserved(at, a.seq, *this, ev::Arrival{a.site, std::move(a.job)});
    return;
  }
  if (!streamed_) return;
  RTDS_REQUIRE_MSG(stream_next_ != nullptr,
                   "a restored open run needs set_stream_source before it "
                   "steps");
  std::optional<JobArrival> a = stream_next_();
  if (!a.has_value()) return;
  validate(*a);
  // Sources contract non-decreasing releases exactly (no epsilon): the
  // lazy chain schedules each submit from inside its predecessor's event,
  // so a backwards release would schedule into the past.
  RTDS_REQUIRE_MSG(!(a->job->release < last_stream_release_),
                   "streamed arrivals must have non-decreasing releases (job "
                       << a->job->id << ")");
  last_stream_release_ = a->job->release;
  if (checker_ != nullptr) checker_->on_submitted(1);
  sim_.post_at(last_stream_release_, *this,
               ev::Arrival{a->site, std::move(a->job)});
}

void RtdsSystem::fire(Event& event) {
  std::visit(
      [this](auto& e) {
        using E = std::decay_t<decltype(e)>;
        if constexpr (std::is_same_v<E, ev::Fault>) {
          apply_fault(e.fault);
        } else if constexpr (std::is_same_v<E, ev::Arrival>) {
          nodes_[e.site]->submit(std::move(e.job));
          post_next_arrival();
        } else if constexpr (std::is_same_v<E, ev::EnrollTimeout>) {
          nodes_[e.site]->on_enroll_timeout(e.job);
        } else if constexpr (std::is_same_v<E, ev::Mapper>) {
          nodes_[e.site]->run_mapper(e.job);
        } else if constexpr (std::is_same_v<E, ev::ValidateTimeout>) {
          nodes_[e.site]->on_validate_timeout(e.job);
        } else if constexpr (std::is_same_v<E, ev::RetryTimer>) {
          nodes_[e.site]->on_retry_timer(e.job, e.peer, e.gen, e.rto);
        } else if constexpr (std::is_same_v<E, ev::Completion>) {
          nodes_[e.site]->fire_completion(e.job, e.task, e.end, e.epoch);
        } else if constexpr (std::is_same_v<E, ev::LeaseExpiry>) {
          nodes_[e.site]->on_lease_expired(e.lock_seq);
        } else if constexpr (std::is_same_v<E, ev::StartNext>) {
          nodes_[e.site]->fire_start_next();
        } else {
          RTDS_CHECK_MSG(false, "the system met an event it does not own");
        }
      },
      event);
}

void RtdsSystem::on_job_decision(const JobDecision& decision) {
  if (checker_ != nullptr) checker_->on_decision(decision.job, sim_.now());
  JobDecision d = decision;
  d.link_messages = job_messages_[d.job];
  metrics_.record(d);
  if (cfg_.on_decision_observed) cfg_.on_decision_observed(d);
  if (cfg_.retain_decisions) decisions_.push_back(d);
  if (d.outcome != JobOutcome::kRejected) {
    JobTrack track;
    track.tasks_expected = d.task_count;
    track.arrival = d.arrival;
    track.deadline = d.deadline;
    track.failed = early_failures_.contains(d.job);
    accepted_[d.job] = track;
  }
}

void RtdsSystem::on_task_complete(JobId job, TaskId task, SiteId site,
                                  Time end) {
  (void)task;
  (void)site;
  JobTrack* track = accepted_.find(job);
  RTDS_CHECK_MSG(track != nullptr, "task completion for unaccepted job " << job);
  ++track->tasks_done;
  track->completion = std::max(track->completion, end);
  if (cfg_.on_job_completed && track->tasks_done == track->tasks_expected &&
      !track->failed) {
    cfg_.on_job_completed(track->arrival, track->completion);
  }
}

void RtdsSystem::on_job_messages(JobId job, std::uint64_t hops) {
  job_messages_[job] += hops;
}

void RtdsSystem::on_dispatch_failure(JobId job, SiteId site) {
  (void)site;
  ++metrics_.dispatch_failures;
  if (JobTrack* track = accepted_.find(job))
    track->failed = true;
  else
    early_failures_.insert(job);  // initiator self-commit precedes conclude
}

void RtdsSystem::on_retransmit(JobId job) {
  (void)job;
  ++metrics_.retransmits;
}

void RtdsSystem::on_job_lost(JobId job, SiteId site) {
  (void)site;
  // Committed work died in a crash. Decisions always precede commits (both
  // happen inside one simulator event), so the track exists.
  JobTrack* track = accepted_.find(job);
  RTDS_CHECK_MSG(track != nullptr, "lost work for unaccepted job " << job);
  if (!track->failed) {
    track->failed = true;
    ++metrics_.jobs_lost;
  }
}

void RtdsSystem::apply_fault(const fault::FaultEvent& ev) {
  if (!fault_state_->apply(ev)) return;  // redundant scripted event
  RTDS_COUNT("fault.events");
  if (auto* tr = obs::tracer()) {
    const char* name = "?";
    switch (ev.kind) {
      case fault::FaultKind::kSiteDown: name = "site_down"; break;
      case fault::FaultKind::kSiteUp: name = "site_up"; break;
      case fault::FaultKind::kLinkDown: name = "link_down"; break;
      case fault::FaultKind::kLinkUp: name = "link_up"; break;
      case fault::FaultKind::kPartition: name = "partition"; break;
      case fault::FaultKind::kHeal: name = "heal"; break;
    }
    tr->instant("fault", name, sim_.now(), ev.a,
                ev.b == kNoSite ? ev.a : ev.b, 0);
  }
  switch (ev.kind) {
    case fault::FaultKind::kSiteDown:
      nodes_[ev.a]->crash();
      break;
    case fault::FaultKind::kSiteUp:
      nodes_[ev.a]->recover();
      break;
    case fault::FaultKind::kLinkDown:
    case fault::FaultKind::kLinkUp:
    case fault::FaultKind::kPartition:  // severs links; no site crashes
    case fault::FaultKind::kHeal:
      break;  // pure topology change
  }
  if (ev.kind == fault::FaultKind::kPartition ||
      ev.kind == fault::FaultKind::kHeal) {
    // Seed the repair with every endpoint of the links the cut flipped.
    const auto& changed = fault_state_->partition_changed_sites();
    repair_routing(std::span<const SiteId>(changed.data(), changed.size()));
  } else {
    const SiteId changed[2] = {ev.a, ev.b};
    repair_routing(std::span<const SiteId>(changed, ev.b == kNoSite ? 1 : 2));
  }
}

void RtdsSystem::repair_routing(std::span<const SiteId> changed) {
  RTDS_OBS_PHASE("sys.repair");
  const auto h = cfg_.node.sphere_radius_h;
  if (repairer_ == nullptr)
    repairer_ = std::make_unique<ApspRepairer>(topo_, 2 * h,
                                               cfg_.context.injected_bug);
  repairer_->repair(tables_, fault_state_.get(), changed);
  if (checker_ != nullptr)
    checker_->on_repair(tables_, topo_, *fault_state_, sim_.now());
  // Charge the nominal §7.2 exchange: each of the 2h phases ships one
  // table over every live directed link. The *simulator* repairs
  // incrementally, but the modelled protocol still floods, so the charge —
  // and with it every experiment table — is unchanged. (PCS membership
  // stays the construction-time sphere — the paper's spheres are static;
  // dead members are what the enrollment/validation timeouts are for.)
  metrics_.repair_messages +=
      2 * fault_state_->live_link_count(topo_) * 2 * h;
}

void RtdsSystem::verify_invariants() {
  if (checker_ != nullptr) {
    std::size_t locks_held = 0;
    for (const auto& node : nodes_) locks_held += node->locked() ? 1 : 0;
    checker_->finish(metrics_, locks_held, sim_.now());
  }
  for (const auto& node : nodes_) {
    RTDS_CHECK_MSG(!node->locked(),
                   "site " << node->site() << " still locked at end of run");
    RTDS_CHECK_MSG(node->queued_jobs() == 0,
                   "site " << node->site() << " still has queued jobs");
    RTDS_CHECK_MSG(node->active_initiations() == 0,
                   "site " << node->site() << " has unfinished initiations");
  }
  for (const auto& [job, track] : accepted_.sorted_items()) {
    if (track.failed) {
      ++metrics_.failed_jobs;
      continue;
    }
    RTDS_CHECK_MSG(track.tasks_done == track.tasks_expected,
                   "job " << job << " finished " << track.tasks_done << "/"
                          << track.tasks_expected << " tasks");
    metrics_.job_lateness.add(track.completion - track.deadline);
    if (time_gt(track.completion, track.deadline)) ++metrics_.deadline_misses;
  }
  RTDS_CHECK_MSG(metrics_.deadline_misses == 0,
                 "accepted jobs missed deadlines: " << metrics_.deadline_misses);
  RTDS_CHECK_MSG(cfg_.transport_model == TransportModel::kContended ||
                     !cfg_.faults.empty() || metrics_.dispatch_failures == 0,
                 "dispatch failures under the ideal faultless transport");
  metrics_.transport = transport_->stats();
  metrics_.messages_duplicated = metrics_.transport.messages_duplicated;
  if (checker_ != nullptr)
    metrics_.invariant_violations = checker_->violations();
  for (const auto& node : nodes_) {
    metrics_.pcs_size_max =
        std::max<std::uint64_t>(metrics_.pcs_size_max, node->pcs().size());
    metrics_.pcs_hop_diameter_max = std::max<std::uint64_t>(
        metrics_.pcs_hop_diameter_max, node->pcs().hop_diameter());
  }
}

}  // namespace rtds
