// The closed message set of the simulated network.
//
// Payloads used to travel as std::any — one heap allocation per message
// plus RTTI-driven dispatch. MessageBody is a std::variant over every
// message type in the tree: the §8–§11 RTDS protocol structs
// (core/protocol.hpp), the §7.2 APSP table exchange, the two
// message-passing baselines, and std::string as the tests' debug payload.
// A send moves the body into its typed delivery event's slab slot
// (sim/event.hpp), so enqueue/deliver does zero heap allocation; bulky
// immutable data (DAGs, trial mappings, routing-table snapshots) still
// rides shared_ptr-to-const exactly as before.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>

#include "core/protocol.hpp"
#include "routing/routing_table.hpp"

namespace rtds {

/// §7.2 — one phase-stamped routing-table snapshot, exchanged between
/// immediate neighbours during the interrupted APSP build. The snapshot
/// rides shared_ptr-to-const like the other bulky immutable payloads: one
/// phase-start copy is shared by every neighbour send of that phase, and
/// the message stays small enough to ride by value in a Deliver event now
/// that RoutingTable carries its sphere-local slot map.
struct ApspTableMsg {
  std::size_t phase = 0;
  std::shared_ptr<const RoutingTable> table;
};

// --- baselines: BID's bids (baseline/offload.cpp) and the whole-DAG offer
// BID, RANDOM and BCAST make (baseline/driver.cpp) ---

struct BidRequest {
  JobId job = 0;
};
struct BidReply {
  JobId job = 0;
  double surplus = 0.0;
};
struct OfferMsg {
  JobId job = 0;
  std::shared_ptr<const Job> job_data;
};
struct OfferReply {
  JobId job = 0;
  bool accepted = false;
};

using MessageBody =
    std::variant<std::monostate,
                 // RTDS protocol (§8–§11, + §12 hardening ack)
                 EnrollRequest, EnrollReply, UnlockMsg, ValidateRequest,
                 ValidateReply, DispatchMsg, DispatchAck,
                 // routing (§7.2)
                 ApspTableMsg,
                 // baselines
                 BidRequest, BidReply, OfferMsg, OfferReply,
                 // tests / debug
                 std::string>;

}  // namespace rtds
