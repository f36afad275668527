#include "baseline/offload.hpp"

#include <algorithm>

#include "core/messages.hpp"
#include "sim/simulator.hpp"

namespace rtds {

const char* to_string(OffloadPolicy policy) {
  switch (policy) {
    case OffloadPolicy::kBestSurplus: return "bid";
    case OffloadPolicy::kRandom: return "random";
  }
  return "?";
}

namespace {

// Message structs (BidRequest, BidReply, OfferMsg, OfferReply) live in
// core/messages.hpp as MessageBody alternatives.
enum OffloadCategory : int {
  kMsgBidRequest = 11,
  kMsgBidReply = 12,
  kMsgOffer = 13,
  kMsgOfferReply = 14,
};

/// A dead site's oracle bid: sorts below every real surplus so live
/// members are always offered first.
constexpr double kDeadBid = -1e300;

class OffloadDriver {
 public:
  OffloadDriver(const Topology& topo, const OffloadConfig& cfg)
      : topo_(topo),
        cfg_(cfg),
        net_(sim_, topo_.site_count()),
        rng_(cfg.seed),
        alive_(topo.site_count(), 1) {
    const auto tables = phased_apsp(topo_, 2 * cfg_.sphere_radius_h);
    for (SiteId s = 0; s < topo_.site_count(); ++s) {
      pcs_.push_back(Pcs::build(tables, s, cfg_.sphere_radius_h));
      LocalSchedulerConfig sc = cfg_.sched;
      sc.computing_power = topo_.computing_power(s);
      scheds_.emplace_back(sc);
      net_.set_handler(s, [this, s](SiteId from, const MessageBody& payload) {
        on_message(s, from, payload);
      });
    }
    // Execution-plane faults (DESIGN.md §9) as ordinary simulator events.
    const fault::SiteTimeline timeline(cfg_.faults, topo_.site_count());
    for (const auto& ev : timeline.events()) {
      sim_.schedule_at(ev.at, [this, ev]() {
        ev.up ? recover(ev.site) : crash(ev.site);
      });
    }
  }

  RunMetrics run(const std::vector<JobArrival>& arrivals) {
    for (const auto& a : arrivals) {
      sim_.schedule_at(a.job->release,
                       [this, a]() { on_arrival(a.site, a.job); });
    }
    sim_.run();
    RTDS_CHECK_MSG(active_.empty(), "unfinished offload negotiations");
    for (const auto& [job, track] : accepted_) {
      if (track.failed) {
        ++metrics_.jobs_lost;
        ++metrics_.failed_jobs;
        continue;
      }
      metrics_.job_lateness.add(track.completion - track.deadline);
      RTDS_CHECK_MSG(time_le(track.completion, track.deadline),
                     "offload baseline missed deadline on job " << job);
    }
    metrics_.transport = net_.stats();
    return metrics_;
  }

 private:
  struct Initiation {
    SiteId initiator = kNoSite;
    std::shared_ptr<const Job> job;
    std::size_t bids_expected = 0;
    std::vector<std::pair<double, SiteId>> bids;  ///< (surplus, site)
    std::vector<SiteId> candidates;               ///< offer order
    std::size_t next_candidate = 0;
    std::size_t attempts = 0;
    std::size_t contacted = 0;
  };

  struct JobTrack {
    SiteId site = kNoSite;  ///< whole-DAG baselines commit on one site
    Time completion = 0.0;  ///< last task end, fixed at commit
    Time deadline = 0.0;
    bool failed = false;  ///< lost to a crash of its site
  };

  void crash(SiteId s) {
    if (!alive_[s]) return;
    alive_[s] = 0;
    LocalSchedulerConfig sc = cfg_.sched;
    sc.computing_power = topo_.computing_power(s);
    scheds_[s] = LocalScheduler(sc);
    // A task ending exactly now is still pending: crash events were
    // scheduled before any commit, so they run first at a tied instant.
    for (auto& [job, track] : accepted_)
      if (track.site == s && track.completion >= sim_.now())
        track.failed = true;
    // Negotiations this site was driving die with it; their jobs still
    // need decisions.
    for (auto it = active_.begin(); it != active_.end();) {
      if (it->second.initiator == s) {
        decide(s, *it->second.job, JobOutcome::kRejected,
               RejectReason::kSiteDown, it->second.contacted);
        it = active_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void recover(SiteId s) { alive_[s] = 1; }

  void send(SiteId from, SiteId to, MessageBody payload, int category,
            JobId job) {
    const auto& pcs = pcs_[from];
    const auto hops = pcs.hops(from, to);
    job_messages_[job] += hops;
    net_.send_routed(from, to, pcs.delay(from, to), hops, std::move(payload),
                     category);
  }

  /// Commits a locally feasible DAG at `site`; returns true on success.
  bool try_local(SiteId site, const Job& job) {
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

  void decide(SiteId initiator, const Job& job, JobOutcome outcome,
              RejectReason reason, std::size_t contacted) {
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

  void on_arrival(SiteId site, std::shared_ptr<const Job> job) {
    if (!alive_[site]) {
      decide(site, *job, JobOutcome::kRejected, RejectReason::kSiteDown, 0);
      return;
    }
    if (try_local(site, *job)) {
      decide(site, *job, JobOutcome::kAcceptedLocal, RejectReason::kNone, 0);
      return;
    }
    const auto& pcs = pcs_[site];
    if (pcs.size() <= 1) {
      decide(site, *job, JobOutcome::kRejected, RejectReason::kNoCandidates, 0);
      return;
    }
    Initiation init;
    init.initiator = site;
    init.job = job;
    if (cfg_.policy == OffloadPolicy::kRandom) {
      // One uniformly random sphere member.
      std::vector<SiteId> others;
      for (const auto& m : pcs.members())
        if (m.site != site) others.push_back(m.site);
      const auto pick = others[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(others.size()) - 1))];
      init.candidates.push_back(pick);
      active_[job->id] = std::move(init);
      make_offer(site, job->id);
    } else {
      // BID: collect surpluses from the whole sphere first.
      init.bids_expected = pcs.size() - 1;
      active_[job->id] = std::move(init);
      for (const auto& m : pcs.members())
        if (m.site != site)
          send(site, m.site, BidRequest{job->id}, kMsgBidRequest, job->id);
    }
  }

  void make_offer(SiteId initiator, JobId job) {
    auto& init = active_.at(job);
    if (init.next_candidate >= init.candidates.size() ||
        init.attempts >= cfg_.max_attempts) {
      decide(initiator, *init.job, JobOutcome::kRejected,
             RejectReason::kOffloadRefused, init.contacted);
      active_.erase(job);
      return;
    }
    const SiteId target = init.candidates[init.next_candidate++];
    ++init.attempts;
    ++init.contacted;
    send(initiator, target, OfferMsg{job, init.job}, kMsgOffer, job);
  }

  void on_message(SiteId self, SiteId from, const MessageBody& payload) {
    // Reliable-control-plane idealization (DESIGN.md §9): a dead site's
    // RPC layer reports refusal instantly instead of hanging the caller —
    // the baselines get a perfect failure detector for free, which biases
    // every fault comparison against RTDS (whose detector is a timeout).
    if (!alive_[self]) {
      if (const auto* bid = std::get_if<BidRequest>(&payload)) {
        send(self, from, BidReply{bid->job, kDeadBid}, kMsgBidReply, bid->job);
      } else if (const auto* offer = std::get_if<OfferMsg>(&payload)) {
        send(self, from, OfferReply{offer->job, false}, kMsgOfferReply,
             offer->job);
      }
      // Replies addressed to a dead initiator: its negotiations were
      // already resolved at crash time.
      return;
    }
    if (const auto* bid = std::get_if<BidRequest>(&payload)) {
      scheds_[self].garbage_collect(sim_.now());
      send(self, from, BidReply{bid->job, scheds_[self].surplus(sim_.now())},
           kMsgBidReply, bid->job);
    } else if (const auto* reply = std::get_if<BidReply>(&payload)) {
      const auto it = active_.find(reply->job);
      if (it == active_.end()) return;  // resolved by a crash+recover cycle
      auto& init = it->second;
      init.bids.emplace_back(reply->surplus, from);
      if (init.bids.size() == init.bids_expected) {
        std::sort(init.bids.begin(), init.bids.end(),
                  [](const auto& a, const auto& b) {
                    if (a.first != b.first) return a.first > b.first;
                    return a.second < b.second;
                  });
        for (const auto& [surplus, site] : init.bids)
          init.candidates.push_back(site);
        make_offer(self, reply->job);
      }
    } else if (const auto* offer = std::get_if<OfferMsg>(&payload)) {
      const bool ok = try_local(self, *offer->job_data);
      send(self, from, OfferReply{offer->job, ok}, kMsgOfferReply, offer->job);
    } else if (const auto* oreply = std::get_if<OfferReply>(&payload)) {
      const auto it = active_.find(oreply->job);
      if (it == active_.end()) return;  // resolved by a crash+recover cycle
      auto& init = it->second;
      if (oreply->accepted) {
        decide(self, *init.job, JobOutcome::kAcceptedRemote,
               RejectReason::kNone, init.contacted);
        active_.erase(oreply->job);
      } else {
        make_offer(self, oreply->job);
      }
    } else {
      RTDS_CHECK_MSG(false, "unknown offload payload");
    }
  }

  const Topology& topo_;
  OffloadConfig cfg_;
  Simulator sim_;
  SimNetwork net_;
  Rng rng_;
  std::vector<char> alive_;
  std::vector<Pcs> pcs_;
  std::vector<LocalScheduler> scheds_;
  std::map<JobId, Initiation> active_;
  std::map<JobId, JobTrack> accepted_;
  std::map<JobId, std::uint64_t> job_messages_;
  RunMetrics metrics_;
};

}  // namespace

RunMetrics run_offload(const Topology& topo,
                       const std::vector<JobArrival>& arrivals,
                       const OffloadConfig& cfg) {
  OffloadDriver driver(topo, cfg);
  return driver.run(arrivals);
}

}  // namespace rtds
