#include "sim/network.hpp"

#include <array>
#include <string>
#include <utility>

#include "obs/trace.hpp"

namespace rtds {

namespace {

/// The one table of message-category names, over the tree's closed set
/// (see the MessageStats comment): the protocol's MsgCategory values, the
/// baselines' and the APSP exchange's. Unknown categories read "catN".
/// Built once, so the trace and metric names are process-lived.
const auto& category_names() {
  static const auto names = [] {
    std::array<std::string, MessageStats::CategoryCounters::kCapacity> t;
    for (int c = 0; c < MessageStats::CategoryCounters::kCapacity; ++c) {
      const char* name = nullptr;
      switch (c) {
        case kMsgEnroll: name = "enroll"; break;
        case kMsgEnrollReply: name = "enroll_reply"; break;
        case kMsgUnlock: name = "unlock"; break;
        case kMsgValidate: name = "validate"; break;
        case kMsgValidateReply: name = "validate_reply"; break;
        case kMsgDispatch: name = "dispatch"; break;
        case kMsgDispatchAck: name = "dispatch_ack"; break;
        case 11: name = "bid_request"; break;
        case 12: name = "bid_reply"; break;
        case 13: name = "offer"; break;
        case 14: name = "offer_reply"; break;
        case 21: name = "surplus_flood"; break;
        case 22: name = "focused_offer"; break;
        case 23: name = "focused_reply"; break;
        case 100: name = "apsp"; break;
      }
      t[static_cast<std::size_t>(c)] =
          name != nullptr ? name : "cat" + std::to_string(c);
    }
    return t;
  }();
  return names;
}

}  // namespace

const char* msg_category_name(int category) {
  if (category < 0 || category >= MessageStats::CategoryCounters::kCapacity)
    return "cat?";
  return category_names()[static_cast<std::size_t>(category)].c_str();
}

#if RTDS_OBS_ENABLED
void obs_count_message(int category, std::uint64_t hops) {
  obs::Context* ctx = obs::current();
  if (ctx == nullptr || ctx->metrics == nullptr) return;
  struct Ids {
    obs::MetricId sends, links;
  };
  static const auto table = [] {
    std::array<Ids, MessageStats::CategoryCounters::kCapacity> t;
    auto& reg = obs::Registry::instance();
    for (int c = 0; c < MessageStats::CategoryCounters::kCapacity; ++c) {
      const std::string base = std::string("net.msg.") + msg_category_name(c);
      t[static_cast<std::size_t>(c)] = {reg.counter(base + ".sends"),
                                        reg.counter(base + ".link_messages")};
    }
    return t;
  }();
  static const obs::MetricId total_sends =
      obs::Registry::instance().counter("net.sends");
  static const obs::MetricId total_links =
      obs::Registry::instance().counter("net.link_messages");
  obs::MetricsBuffer& m = *ctx->metrics;
  if (category >= 0 &&
      category < MessageStats::CategoryCounters::kCapacity) {
    const Ids& ids = table[static_cast<std::size_t>(category)];
    m.add(ids.sends, 1);
    m.add(ids.links, hops);
  }
  m.add(total_sends, 1);
  m.add(total_links, hops);
}
#else
void obs_count_message(int, std::uint64_t) {}
#endif

SimNetwork::SimNetwork(Simulator& sim, std::size_t site_count)
    : sim_(sim), handlers_(site_count) {}

void SimNetwork::set_handler(SiteId site, Handler handler) {
  RTDS_REQUIRE(site < handlers_.size());
  RTDS_REQUIRE(handler != nullptr);
  handlers_[site] = std::move(handler);
}

void SimNetwork::set_fault_state(fault::FaultState* faults, DropHook on_drop) {
  faults_ = faults;
  on_drop_ = std::move(on_drop);
}

void SimNetwork::send_routed(SiteId from, SiteId to, Time path_delay,
                             std::size_t hops, MessageBody payload,
                             int category) {
  RTDS_REQUIRE(from < handlers_.size());
  RTDS_REQUIRE(to < handlers_.size());
  if (from == to) {
    stats_.record(category, 0);
    sim_.post_in(0.0, *this, ev::SelfDeliver{from, to, std::move(payload)});
    return;
  }
  RTDS_REQUIRE(path_delay >= 0.0);
  count_routed(from, to, hops, category);
  post_copies(to, path_delay, payload, [&](Time delay, bool duplicate) {
    sim_.post_in(delay, *this,
                 ev::Deliver{from, to,
                             duplicate ? MessageBody(payload)
                                       : std::move(payload)});
  });
}

void SimNetwork::count_routed(SiteId from, SiteId to, std::size_t hops,
                              int category) {
  RTDS_REQUIRE_MSG(hops >= 1, "multi-site route needs >= 1 hop");
  stats_.record(category, hops);
  if (auto* tr = obs::tracer())
    tr->instant("net", msg_category_name(category), sim_.now(), from, to,
                hops);
}

void SimNetwork::drop(SiteId to, const MessageBody& payload) {
  ++stats_.messages_dropped;
  RTDS_COUNT("net.dropped");
  if (on_drop_) on_drop_(to, payload);
}

void SimNetwork::land(SiteId from, SiteId to, const MessageBody& payload) {
  if (faults_ != nullptr && from != to && !faults_->site_up(to)) {
    drop(to, payload);
    return;
  }
  RTDS_CHECK_MSG(handlers_[to] != nullptr,
                 "no handler registered for site " << to);
  handlers_[to](from, payload);
}

void SimNetwork::fire(Event& event) {
  if (const auto* d = std::get_if<ev::Deliver>(&event)) {
    land(d->from, d->to, d->body);
  } else {
    const auto& self = std::get<ev::SelfDeliver>(event);
    land(self.from, self.to, self.body);
  }
}

}  // namespace rtds
