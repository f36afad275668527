#include "baseline/driver.hpp"

#include <algorithm>

#include "core/messages.hpp"

namespace rtds {

BaselineDriver::BaselineDriver(const Topology& topo,
                               const LocalSchedulerConfig& sched,
                               const fault::FaultPlan& faults,
                               std::size_t max_attempts, int offer_category,
                               int reply_category)
    : topo_(topo),
      net_(sim_, topo.site_count()),
      alive_(topo.site_count(), 1),
      max_attempts_(max_attempts),
      offer_category_(offer_category),
      reply_category_(reply_category) {
  for (SiteId s = 0; s < topo_.site_count(); ++s) {
    LocalSchedulerConfig sc = sched;
    sc.computing_power = topo_.computing_power(s);
    scheds_.emplace_back(sc);
    net_.set_handler(s, [this, s](SiteId from, const MessageBody& payload) {
      on_message(s, from, payload);
    });
  }
  // Execution-plane faults (DESIGN.md §9) as ordinary simulator events.
  const fault::SiteTimeline timeline(faults, topo_.site_count());
  for (const auto& e : timeline.events()) {
    const auto kind = e.up ? fault::FaultKind::kSiteUp
                           : fault::FaultKind::kSiteDown;
    sim_.post_at(e.at, *this, ev::Fault{{e.at, kind, e.site}});
  }
}

RunMetrics BaselineDriver::run(const std::vector<JobArrival>& arrivals) {
  Time last = 0.0;
  for (const auto& a : arrivals) {
    sim_.post_at(a.job->release, *this, ev::Arrival{a.site, a.job});
    last = std::max(last, a.job->release);
  }
  on_start(last);
  sim_.run();
  RTDS_CHECK_MSG(active_.empty(), "unfinished baseline offers");
  for (const auto& [job, track] : accepted_) {
    if (track.failed) {
      ++metrics_.jobs_lost;
      ++metrics_.failed_jobs;
      continue;
    }
    metrics_.job_lateness.add(track.completion - track.deadline);
    RTDS_CHECK_MSG(time_le(track.completion, track.deadline),
                   "baseline missed deadline on job " << job);
  }
  metrics_.transport = net_.stats();
  return metrics_;
}

void BaselineDriver::fire(Event& event) {
  if (const auto* f = std::get_if<ev::Fault>(&event)) {
    const SiteId s = f->fault.a;
    if (f->fault.kind == fault::FaultKind::kSiteDown) return crash(s);
    on_recover(s);
    alive_[s] = 1;
  } else if (auto* a = std::get_if<ev::Arrival>(&event)) {
    arrive(a->site, std::move(a->job));
  } else {
    on_tick(std::get<ev::StartNext>(event).site);
  }
}

void BaselineDriver::arrive(SiteId site, std::shared_ptr<const Job> job) {
  if (!alive_[site])
    return decide(site, *job, JobOutcome::kRejected, RejectReason::kSiteDown);
  if (try_local(site, *job))
    return decide(site, *job, JobOutcome::kAcceptedLocal, RejectReason::kNone);
  const JobId id = job->id;
  auto& init = active_[id];
  init.initiator = site;
  init.job = std::move(job);
  if (offload(init)) return;
  decide(site, *init.job, JobOutcome::kRejected, RejectReason::kNoCandidates);
  active_.erase(id);
}

void BaselineDriver::crash(SiteId s) {
  if (!alive_[s]) return;
  on_crash(s);
  alive_[s] = 0;
  scheds_[s] = LocalScheduler(scheds_[s].config());
  for (auto& [job, track] : accepted_)
    if (track.site == s && track.completion >= sim_.now()) track.failed = true;
  // Offers this site was driving die with it; their jobs still need
  // decisions, made in job order.
  std::erase_if(active_, [&](const auto& entry) {
    const Initiation& init = entry.second;
    if (init.initiator != s) return false;
    decide(s, *init.job, JobOutcome::kRejected, RejectReason::kSiteDown,
           init.contacted);
    return true;
  });
}

void BaselineDriver::send(SiteId from, SiteId to, MessageBody payload,
                          int category, JobId job) {
  const Route r = route(from, to);
  job_messages_[job] += r.hops;
  net_.send_routed(from, to, r.delay, r.hops, std::move(payload), category);
}

bool BaselineDriver::try_local(SiteId site, const Job& job) {
  auto& sched = scheds_[site];
  sched.garbage_collect(sim_.now());
  const Time earliest = std::max(sim_.now(), job.release);
  const auto placements = sched.try_accept_dag_local(job, earliest);
  if (!placements) return false;
  auto& track = accepted_[job.id];
  // A job with nothing to run has no site a crash could lose it on.
  if (!placements->empty()) track.site = site;
  track.deadline = job.deadline;
  for (const auto& p : *placements)
    track.completion = std::max(track.completion, p.end);
  return true;
}

void BaselineDriver::decide(SiteId initiator, const Job& job,
                            JobOutcome outcome, RejectReason reason,
                            std::size_t contacted) {
  JobDecision d;
  d.job = job.id;
  d.initiator = initiator;
  d.outcome = outcome;
  d.reject_reason = reason;
  d.arrival = job.release;
  d.decision_time = sim_.now();
  d.deadline = job.deadline;
  d.task_count = job.dag.task_count();
  d.acs_size = contacted + 1;
  d.link_messages = job_messages_[job.id];
  metrics_.record(d);
}

void BaselineDriver::offer_ranked(
    Initiation& init, std::vector<std::pair<double, SiteId>>& ranked) {
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (const auto& [surplus, site] : ranked) init.candidates.push_back(site);
  make_offer(init.job->id);
}

void BaselineDriver::make_offer(JobId job) {
  auto& init = active_.at(job);
  if (init.contacted >= init.candidates.size() ||
      init.contacted >= max_attempts_) {
    decide(init.initiator, *init.job, JobOutcome::kRejected,
           RejectReason::kOffloadRefused, init.contacted);
    active_.erase(job);
    return;
  }
  send(init.initiator, init.candidates[init.contacted++],
       OfferMsg{job, init.job}, offer_category_, job);
}

void BaselineDriver::on_message(SiteId self, SiteId from,
                                const MessageBody& payload) {
  if (const auto* offer = std::get_if<OfferMsg>(&payload)) {
    // Only a live site whose local test passes commits.
    const bool ok = alive_[self] && try_local(self, *offer->job_data);
    send(self, from, OfferReply{offer->job, ok}, reply_category_, offer->job);
  } else if (const auto* reply = std::get_if<OfferReply>(&payload)) {
    const auto it = active_.find(reply->job);
    if (it == active_.end()) return;  // resolved when its initiator crashed
    if (!reply->accepted) return make_offer(reply->job);
    decide(self, *it->second.job, JobOutcome::kAcceptedRemote,
           RejectReason::kNone, it->second.contacted);
    active_.erase(it);
  } else {
    on_family_message(self, from, payload);
  }
}

}  // namespace rtds
