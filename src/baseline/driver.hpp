// The shared simulated run of BID, RANDOM and BCAST.
//
// BaselineDriver owns what those families have in common: the Simulator
// and the SimNetwork over it, one LocalScheduler and one liveness flag per
// site, the whole-DAG offer loop, the committed jobs and the end-of-run
// deadline audit. It is the EventOwner of every baseline event, each a
// typed event (sim/event.hpp): ev::Fault for a site crash or recovery,
// ev::Arrival for an arrival and ev::StartNext for a family's per-site
// tick. A family derives from it and supplies its routes, whom to offer a
// job that failed its local test, and any messages of its own.
//
// Completion is fixed at commit (DESIGN.md §9): the whole-DAG list
// schedule knows every task end, so a job completes at the largest and no
// completion event is simulated. A crash loses the site's jobs whose
// completion is >= now: fault events are posted before any commit, so a
// task ending exactly at the crash instant is still pending.
//
// Control plane (DESIGN.md §9): reliable. A dead site refuses an offer at
// once, and a reply to a dead initiator is dropped: its offers were
// resolved when it crashed.
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "core/workload.hpp"
#include "fault/fault.hpp"
#include "sched/local_scheduler.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace rtds {

class BaselineDriver : public EventOwner {
 public:
  /// Posts every arrival at its job's release, in vector order, runs the
  /// simulation dry, audits every committed job and returns the metrics.
  RunMetrics run(const std::vector<JobArrival>& arrivals);

 protected:
  /// Builds one scheduler per site from `sched` at that site's computing
  /// power and posts the plan's site crashes and recoveries ahead of every
  /// other event. A job is offered to at most `max_attempts` sites; offers
  /// and their replies are charged to the two message categories.
  BaselineDriver(const Topology& topo, const LocalSchedulerConfig& sched,
                 const fault::FaultPlan& faults, std::size_t max_attempts,
                 int offer_category, int reply_category);

  /// A job its initiator is offloading.
  struct Initiation {
    SiteId initiator = kNoSite;
    std::shared_ptr<const Job> job;
    std::vector<std::pair<double, SiteId>> bids;  ///< BID: (surplus, site)
    std::vector<SiteId> candidates;               ///< offer order
    std::size_t contacted = 0;                    ///< offers made
  };

  /// A routed send's path delay and link-message charge.
  struct Route {
    Time delay;
    std::size_t hops;
  };

  /// Sends along route(from, to), charging the hops to `job`.
  void send(SiteId from, SiteId to, MessageBody payload, int category,
            JobId job);
  /// Makes the (surplus, site) pairs, by descending surplus and ties to
  /// the lower site, the offer order of `init`'s job and offers it.
  void offer_ranked(Initiation& init,
                    std::vector<std::pair<double, SiteId>>& ranked);
  /// Offers `job` to its next candidate, or rejects it when none is left
  /// or max_attempts offers were refused.
  void make_offer(JobId job);

  const Topology& topo_;
  Simulator sim_;
  SimNetwork net_;
  std::vector<char> alive_;
  std::vector<LocalScheduler> scheds_;
  std::map<JobId, Initiation> active_;

 private:
  struct JobTrack {
    SiteId site = kNoSite;  ///< kNoSite for a job with nothing to run
    Time completion = 0.0;  ///< last task end, fixed at commit
    Time deadline = 0.0;
    bool failed = false;  ///< lost to a crash of its site
  };

  virtual Route route(SiteId from, SiteId to) const = 0;
  /// Runs once the arrivals are posted (`last_release`: the latest, or 0).
  virtual void on_start(Time /*last_release*/) {}
  /// The local test failed on a live initiator: starts `init`'s offers, or
  /// returns false if there is no one to offer the job to.
  virtual bool offload(Initiation& init) = 0;
  /// A message other than an offer or its reply reached `self`.
  virtual void on_family_message(SiteId /*self*/, SiteId /*from*/,
                                 const MessageBody& /*payload*/) {
    RTDS_CHECK_MSG(false, "unknown baseline payload");
  }
  virtual void on_tick(SiteId) {}     ///< ev::StartNext
  virtual void on_crash(SiteId) {}    ///< just before a site goes down
  virtual void on_recover(SiteId) {}  ///< just before it comes back up

  void fire(Event& event) override;
  void arrive(SiteId site, std::shared_ptr<const Job> job);
  void crash(SiteId s);
  void on_message(SiteId self, SiteId from, const MessageBody& payload);
  /// Commits the whole DAG at `site` if its local test passes.
  bool try_local(SiteId site, const Job& job);
  void decide(SiteId initiator, const Job& job, JobOutcome outcome,
              RejectReason reason, std::size_t contacted = 0);

  std::size_t max_attempts_;
  int offer_category_;
  int reply_category_;
  std::map<JobId, JobTrack> accepted_;
  std::map<JobId, std::uint64_t> job_messages_;
  RunMetrics metrics_;
};

}  // namespace rtds
