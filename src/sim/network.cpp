#include "sim/network.hpp"

#include <array>
#include <string>
#include <utility>

#include "fault/fault.hpp"
#include "obs/trace.hpp"

namespace rtds {

namespace {

/// Stable obs name for every category in the tree's closed set (see the
/// MessageStats comment: protocol 1–6, baselines 11–23, APSP 100).
/// msg_category_name only covers the protocol six; the baseline and APSP
/// constants are TU-local by design, so the accounting choke point names
/// them here. Unknown categories degrade to "catN", never fail.
std::string obs_category_name(int category) {
  switch (category) {
    case 1: return "enroll";
    case 2: return "enroll_reply";
    case 3: return "unlock";
    case 4: return "validate";
    case 5: return "validate_reply";
    case 6: return "dispatch";
    case 7: return "dispatch_ack";
    case 11: return "bid_request";
    case 12: return "bid_reply";
    case 13: return "offer";
    case 14: return "offer_reply";
    case 21: return "surplus_flood";
    case 22: return "focused_offer";
    case 23: return "focused_reply";
    case 100: return "apsp";
    default: return "cat" + std::to_string(category);
  }
}

}  // namespace

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
      const std::string base = "net.msg." + obs_category_name(c);
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

namespace {

/// Trace-name table for message instants: tracer events store the name
/// pointer, so the strings must be process-lived, not per-event.
const char* obs_category_cstr(int category) {
  static const auto& table = *[] {
    auto* t = new std::array<std::string,
                             MessageStats::CategoryCounters::kCapacity>();
    for (int c = 0; c < MessageStats::CategoryCounters::kCapacity; ++c)
      (*t)[static_cast<std::size_t>(c)] = obs_category_name(c);
    return t;
  }();
  if (category >= 0 && category < MessageStats::CategoryCounters::kCapacity)
    return table[static_cast<std::size_t>(category)].c_str();
  return "cat?";
}

}  // namespace

SimNetwork::SimNetwork(Simulator& sim, const Topology& topo)
    : sim_(sim), topo_(topo), handlers_(topo.site_count()) {}

void SimNetwork::set_handler(SiteId site, Handler handler) {
  RTDS_REQUIRE(site < handlers_.size());
  RTDS_REQUIRE(handler != nullptr);
  handlers_[site] = std::move(handler);
}

void SimNetwork::send_adjacent(SiteId from, SiteId to, MessageBody payload,
                               int category) {
  RTDS_REQUIRE_MSG(topo_.adjacent(from, to),
                   "send_adjacent requires a link " << from << "--" << to);
  stats_.record(category, 1);
  if (auto* tr = obs::tracer())
    tr->instant("net", obs_category_cstr(category), sim_.now(), from, to, 1);
  if (faults_ != nullptr && !faults_->link_up(from, to)) {
    ++stats_.messages_dropped;
    RTDS_COUNT("net.dropped");
    return;
  }
  deliver(from, to, topo_.link_delay(from, to), std::move(payload));
}

void SimNetwork::send_routed(SiteId from, SiteId to, Time path_delay,
                             std::size_t hops, MessageBody payload,
                             int category) {
  RTDS_REQUIRE(from < handlers_.size());
  RTDS_REQUIRE(to < handlers_.size());
  if (from == to) {
    stats_.record(category, 0);
    deliver(from, to, 0.0, std::move(payload));
    return;
  }
  RTDS_REQUIRE(path_delay >= 0.0);
  count_routed(from, to, hops, category);
  deliver(from, to, path_delay, std::move(payload));
}

void SimNetwork::count_routed(SiteId from, SiteId to, std::size_t hops,
                              int category) {
  RTDS_REQUIRE_MSG(hops >= 1, "multi-site route needs >= 1 hop");
  stats_.record(category, hops);
  if (auto* tr = obs::tracer())
    tr->instant("net", obs_category_cstr(category), sim_.now(), from, to,
                hops);
}

void SimNetwork::send_local(SiteId site, Time delay, MessageBody payload,
                            int category) {
  RTDS_REQUIRE(site < handlers_.size());
  RTDS_REQUIRE(delay >= 0.0);
  stats_.record(category, 0);
  deliver(site, site, delay, std::move(payload));
}

void SimNetwork::deliver(SiteId from, SiteId to, Time delay,
                         MessageBody payload) {
  if (faults_ != nullptr) {
    if (faults_->sample_drop()) {
      ++stats_.messages_dropped;
      RTDS_COUNT("net.dropped");
      return;
    }
    // Fixed draw order per send — drop, dup, then per-copy (extra delay,
    // reorder jitter) — so enabling one fault process never shifts the
    // stream another process reads.
    const Time base = delay;
    const bool dup = faults_->sample_duplicate();
    delay += faults_->sample_extra_delay() + faults_->sample_reorder_delay();
    if (dup) {
      ++stats_.messages_duplicated;
      RTDS_COUNT("net.duplicated");
      const Time dup_delay = base + faults_->sample_extra_delay() +
                             faults_->sample_reorder_delay();
      schedule_delivery(from, to, dup_delay, MessageBody(payload));
    }
  }
  schedule_delivery(from, to, delay, std::move(payload));
}

void SimNetwork::schedule_delivery(SiteId from, SiteId to, Time delay,
                                   MessageBody payload) {
  auto fire = [this, from, to, p = std::move(payload)]() {
    // Arrival-time fault check: the destination must be up when the
    // message lands, not merely when it was sent.
    if (faults_ != nullptr && !faults_->site_up(to)) {
      ++stats_.messages_dropped;
      RTDS_COUNT("net.dropped");
      return;
    }
    RTDS_CHECK_MSG(handlers_[to] != nullptr,
                   "no handler registered for site " << to);
    handlers_[to](from, p);
  };
  static_assert(EventFn::stores_inline<decltype(fire)>(),
                "delivery closure must fit EventFn's inline buffer");
  sim_.schedule_in(delay, std::move(fire));
}

}  // namespace rtds
