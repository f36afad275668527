// Out-of-run replays that time one layer on the traced run's own inputs:
// the event queue, the transport and routing repair. Each replay has a
// fidelity check, so its number measures the input the run really saw.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "fault/invariants.hpp"
#include "routing/apsp.hpp"

namespace rtds::perfbench {

/// One routed send of the traced run, rebuilt from its "net" trace instant
/// (send time, sender, receiver, hops, category). `size` is the message
/// volume the contended transport charges: validation and dispatch carry
/// the job's tasks, everything else one unit.
struct LoggedSend {
  Time at = 0.0;
  SiteId from = 0;
  SiteId to = 0;
  std::uint32_t hops = 0;
  int category = 0;
  double size = 1.0;
};

/// The arrival side of a replay: release times, and whether the run staged
/// them up front (closed) or chained each from its predecessor (open).
struct ArrivalTimes {
  std::vector<Time> at;
  bool chained = false;
};

/// Replays a fault plan's topology events through FaultState::apply, then
/// ApspRepairer::repair, then (when `check` and the case runs the checker)
/// InvariantChecker::on_repair — the calls RtdsSystem makes per event.
class RepairReplay {
 public:
  RepairReplay(const RtdsCase& c, std::vector<RoutingTable> tables,
               bool check);

  /// Applies one plan event, timing the repair and the check.
  void apply(const fault::FaultEvent& ev);

  const std::vector<RoutingTable>& tables() const { return tables_; }
  double repair_s() const { return repair_s_; }
  double check_s() const { return check_s_; }

 private:
  const RtdsCase& case_;
  std::vector<RoutingTable> tables_;
  fault::FaultState state_;
  std::unique_ptr<ApspRepairer> repairer_;
  fault::InvariantChecker checker_;
  bool check_;
  double repair_s_ = 0.0;
  double check_s_ = 0.0;
};

struct QueueReplay {
  double wall_s = 0.0;
  std::uint64_t events = 0;
};

/// A bare Simulator with empty callables: the arrivals, plus each logged
/// send's delivery scheduled at its send time (from an event firing then)
/// for the route's delay.
QueueReplay replay_queue(const ArrivalTimes& arrivals,
                         const std::vector<LoggedSend>& sends,
                         const std::vector<Time>& delays);

struct TransportReplay {
  double wall_s = 0.0;  ///< excluding the interleaved repairs
  std::uint64_t delivered = 0;
  std::uint64_t link_messages = 0;
};

/// The same schedule, but every send goes through a fresh transport of the
/// case's model over the construction-time tables; fault-plan topology
/// events repair those tables at their instants, as in the run.
TransportReplay replay_transport(const RtdsCase& c,
                                 const std::vector<RoutingTable>& tables,
                                 const ArrivalTimes& arrivals,
                                 const std::vector<LoggedSend>& sends);

/// Route-for-route equality of two table sets (live lines only).
bool same_routes(const std::vector<RoutingTable>& a,
                 const std::vector<RoutingTable>& b);

}  // namespace rtds::perfbench
