// Typed simulator events: every event the library posts, as plain data
// (DESIGN.md §7, §14).
//
// Each event the RTDS protocol and the simulated baselines schedule, and
// every message delivery in the tree, is one alternative of Event: its kind
// plus only the fields that kind reads. The simulator stores the value in
// its queue and, when it fires, hands it back to the EventOwner that posted
// it (RtdsSystem for node, fault and arrival kinds; the baseline driver,
// baseline/driver.hpp, for BID's, RANDOM's and BCAST's; the delivery core,
// sim/network.hpp, for the delivery kinds of every message in the tree; the
// contended transport built on it for its hop chain), which runs it through
// one visit. Because the pending events are data, a checkpoint writes them
// straight from the queue and a restore posts the decoded values back — no
// closure ever has to be rebuilt. Closures (Simulator::schedule_at) remain
// only for tests and benchmarks; a checkpoint refuses them.
//
// The baselines reuse kinds: ev::Fault is a site crash or recovery,
// ev::Arrival an arrival, ev::StartNext BCAST's flood tick. No baseline run
// is checkpointed, so the snapshot fields stay the RTDS ones.
//
// The alternative index is the event kind byte of the snapshot format,
// except that an arrival is kind 2 in a closed run and 3 in an open one,
// so the kinds after Arrival sit one above their index (snap/snapshot.cpp
// maps them): append new kinds, never reorder.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>

#include "core/messages.hpp"
#include "fault/fault.hpp"

namespace rtds {
namespace ev {

// --- RtdsSystem (and the baseline driver) ---
struct Fault {  ///< apply_fault
  fault::FaultEvent fault;
};
struct Arrival {  ///< submit the job, then post the run's next arrival
  SiteId site;
  std::shared_ptr<const Job> job;
};

// --- RtdsNode entry points, dispatched by RtdsSystem ---
struct EnrollTimeout {
  SiteId site;
  JobId job;
};
struct Mapper {
  SiteId site;
  JobId job;
};
struct ValidateTimeout {
  SiteId site;
  JobId job;
};
struct RetryTimer {
  SiteId site;
  SiteId peer;
  JobId job;
  std::uint64_t gen;
  Time rto;
};
struct Completion {
  SiteId site;
  TaskId task;
  JobId job;
  Time end;
  std::uint64_t epoch;
};
struct LeaseExpiry {
  SiteId site;
  std::uint64_t lock_seq;
};
struct StartNext {  ///< the next step of a per-site loop
  SiteId site;
};

// --- the delivery core (SimNetwork) and the contended transport ---
struct SelfDeliver {  ///< self-send: the handler runs, no liveness check
  SiteId from;
  SiteId to;
  MessageBody body;
};
struct Deliver {  ///< routed send: liveness checked when it lands
  SiteId from;
  SiteId to;
  MessageBody body;
};
struct ContendedInject {  ///< perturbed injection into the hop chain
  SiteId from;
  SiteId to;
  double size_units;
  std::shared_ptr<const MessageBody> body;
};
struct ContendedHop {  ///< store-and-forward: arrives at `cur`
  SiteId origin;
  SiteId cur;
  SiteId dest;
  double size_units;
  std::shared_ptr<const MessageBody> body;
};

}  // namespace ev

using Event =
    std::variant<std::monostate, ev::Fault, ev::Arrival, ev::EnrollTimeout,
                 ev::Mapper, ev::ValidateTimeout, ev::RetryTimer,
                 ev::Completion, ev::LeaseExpiry, ev::StartNext,
                 ev::SelfDeliver, ev::Deliver, ev::ContendedInject,
                 ev::ContendedHop>;

/// Runs the events it posted (Simulator::post_at) when they fire.
class EventOwner {
 protected:
  ~EventOwner() = default;

 private:
  friend class Simulator;
  virtual void fire(Event& event) = 0;
};

}  // namespace rtds
