#include "baseline/offload.hpp"

#include "baseline/driver.hpp"
#include "core/messages.hpp"
#include "routing/apsp.hpp"
#include "routing/pcs.hpp"
#include "util/rng.hpp"

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

class OffloadDriver final : public BaselineDriver {
 public:
  OffloadDriver(const Topology& topo, const OffloadConfig& cfg)
      : BaselineDriver(topo, cfg.sched, cfg.faults, cfg.max_attempts,
                       kMsgOffer, kMsgOfferReply),
        policy_(cfg.policy),
        rng_(cfg.seed) {
    const auto tables = phased_apsp(topo_, 2 * cfg.sphere_radius_h);
    for (SiteId s = 0; s < topo_.site_count(); ++s)
      pcs_.push_back(Pcs::build(tables, s, cfg.sphere_radius_h));
  }

 private:
  Route route(SiteId from, SiteId to) const override {
    return {pcs_[from].delay(from, to), pcs_[from].hops(from, to)};
  }

  bool offload(Initiation& init) override {
    const SiteId site = init.initiator;
    const JobId job = init.job->id;
    const auto& pcs = pcs_[site];
    if (pcs.size() <= 1) return false;
    if (policy_ == OffloadPolicy::kRandom) {
      // One uniformly random sphere member.
      std::vector<SiteId> others;
      for (const auto& m : pcs.members())
        if (m.site != site) others.push_back(m.site);
      init.candidates.push_back(others[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(others.size()) - 1))]);
      make_offer(job);
    } else {
      // BID: collect surpluses from the whole sphere first.
      for (const auto& m : pcs.members())
        if (m.site != site)
          send(site, m.site, BidRequest{job}, kMsgBidRequest, job);
    }
    return true;
  }

  void on_family_message(SiteId self, SiteId from,
                         const MessageBody& payload) override {
    if (const auto* bid = std::get_if<BidRequest>(&payload)) {
      // A dead site's RPC layer answers with a bid below every real one.
      double surplus = kDeadBid;
      if (alive_[self]) {
        scheds_[self].garbage_collect(sim_.now());
        surplus = scheds_[self].surplus(sim_.now());
      }
      return send(self, from, BidReply{bid->job, surplus}, kMsgBidReply,
                  bid->job);
    }
    const auto& reply = std::get<BidReply>(payload);  // BID's only other one
    const auto it = active_.find(reply.job);
    if (it == active_.end()) return;  // resolved when `self` crashed
    auto& init = it->second;
    init.bids.emplace_back(reply.surplus, from);
    if (init.bids.size() + 1 == pcs_[self].size())  // every other member
      offer_ranked(init, init.bids);
  }

  OffloadPolicy policy_;
  Rng rng_;
  std::vector<Pcs> pcs_;
};

}  // namespace

RunMetrics run_offload(const Topology& topo,
                       const std::vector<JobArrival>& arrivals,
                       const OffloadConfig& cfg) {
  return OffloadDriver(topo, cfg).run(arrivals);
}

}  // namespace rtds
