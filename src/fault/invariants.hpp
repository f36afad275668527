// Runtime safety-invariant checker (DESIGN.md §12). The paper's guarantees
// are safety properties — a guaranteed job is never double-promised, locks
// never leak, the simulation clock never runs backwards — and under the
// adversarial network model (duplication, reordering, partitions) they are
// exactly what the hardening must preserve. RtdsSystem registers one
// checker per run when enabled. The per-event hooks are O(1) (the
// decision and seq maps are hashed); on_repair is incremental — a table
// diff plus changed lines × degree, full only on its first call — and
// violations are counted into RunMetrics::invariant_violations and
// reported through the obs layer (an "invariant" counter plus a trace
// instant). In fatal mode (the tests' default) the first violation
// throws, so a chaos soak cannot quietly pass with a broken invariant.
//
// Catalog:
//   monotone-time      simulator events execute at non-decreasing times
//   delivery-liveness  no message is handed to a crashed site
//   at-most-one        every job gets at most one decision (one guarantee)
//   job-conservation   decided == submitted at end of run (accepted_local +
//                      accepted_remote + rejected == arrived, exactly)
//   lock-conservation  no site still holds a PCS lock after the run drains
//   seq-monotone       per-(sender,receiver) protocol sequence numbers are
//                      strictly increasing — the dedup window's contract
//   repair-consistency after every routing repair each live route crosses a
//                      live link and agrees with its next hop's table
//                      (Bellman triangle: dist = link delay + next-hop dist)
//   shed-conservation  bounded-queue accounting balances: every enqueue is
//                      matched by a dequeue/shed/crash-clear, and node-level
//                      shed events equal the kShed rejections in RunMetrics
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dag/dag.hpp"
#include "net/topology.hpp"
#include "routing/routing_table.hpp"
#include "util/flat_map.hpp"
#include "util/time.hpp"

namespace rtds {
struct RunMetrics;
}

namespace rtds::fault {
class FaultState;
}

namespace rtds::snap {
struct Access;  // checkpoint serialization (snap/)
}

namespace rtds::fault {

/// Process-wide enable switch (`--check-invariants` in both CLIs; tests set
/// it directly). Per-run SystemConfig::check_invariants OR-s with this, so
/// a scenario can force checking on regardless of the CLI flag.
void set_check_invariants(bool on);
bool check_invariants_enabled();

/// When fatal, the first violation throws ContractViolation instead of
/// only counting — the test-suite mode.
void set_invariants_fatal(bool on);
bool invariants_fatal();

class InvariantChecker {
 public:
  /// Post-event simulator hook: the clock must never run backwards.
  void on_event(Time now);
  /// Transport-delivery hook: `up` is the receiving node's liveness at the
  /// moment the handler would run.
  void on_delivery(SiteId to, bool up, Time now);
  /// Decision hook: at most one guarantee/rejection per job, ever.
  void on_decision(JobId job, Time now);
  void on_submitted(std::uint64_t count) { submitted_ += count; }
  /// Send hook: the per-(sender,receiver) protocol sequence stamp must be
  /// strictly increasing, crashes included — the dedup window's contract.
  void on_send_seq(SiteId from, SiteId to, std::uint64_t seq, Time now);
  /// Post-repair hook: every live route must cross a live link and agree
  /// with its next hop's table (dist = link delay + next-hop dist, hops =
  /// next-hop hops + 1). Catches under-dirtied incremental repairs.
  ///
  /// Incremental (DESIGN.md §12): after a full first audit, a call
  /// re-checks only the lines whose inputs changed — found by diffing the
  /// tables and link liveness against a shadow of the last audit, never
  /// from the repairer's dirty set — plus the last audit's violators, with
  /// exactly a full audit's counts, first fatal message and obs output.
  void on_repair(const std::vector<RoutingTable>& tables, const Topology& topo,
                 const FaultState& faults, Time now);
  /// Bounded admission-queue accounting hooks (shed-conservation).
  void on_queue_push(SiteId site, Time now);
  void on_queue_remove(SiteId site, Time now);
  void on_shed(SiteId site, Time now);
  /// End-of-run audit: job conservation, lock conservation, and shed-queue
  /// accounting (queued jobs all left the queue; node-level shed events
  /// match the kShed rejections recorded in metrics).
  void finish(const RunMetrics& metrics, std::size_t locks_held, Time now);

  std::uint64_t violations() const { return violations_; }

 private:
  void violate(const std::string& what, Time now, SiteId site);
  /// repair-consistency verdict for one live line; true when it violated.
  bool check_line(const std::vector<RoutingTable>& tables, const Topology& topo,
                  const FaultState& faults, SiteId s, SiteId dest,
                  const RouteLine& line, Time now);
  /// Queues line (s, dest) for the incremental audit.
  void recheck(SiteId s, SiteId dest);
  /// Queues line (s, dest) and every neighbour's line to `dest` routed
  /// through s: the lines whose inputs include line (s, dest).
  void recheck_dependents(const std::vector<RoutingTable>& tables,
                          const Topology& topo, SiteId s, SiteId dest);

  Time last_event_time_ = 0.0;
  std::uint64_t submitted_ = 0;
  std::uint64_t violations_ = 0;
  FlatSet<JobId> decided_;
  FlatMap<std::uint64_t, std::uint64_t> last_seq_;  ///< (from<<32|to) -> seq
  std::uint64_t queue_pushed_ = 0;
  std::uint64_t queue_removed_ = 0;
  std::uint64_t sheds_ = 0;

  /// on_repair's shadow of the routing state at its last complete audit.
  /// Derived state: never serialized, cleared on snapshot restore.
  bool shadow_valid_ = false;
  const Topology* shadow_topo_ = nullptr;
  std::vector<RoutingTable> shadow_tables_;
  std::vector<char> shadow_live_;  ///< by Topology::links() index
  std::vector<std::pair<SiteId, SiteId>> violators_;  ///< (site, dest)
  /// Scratch: destinations to re-check per site, and the sites queued.
  std::vector<std::vector<SiteId>> recheck_;
  std::vector<SiteId> recheck_sites_;

  friend struct snap::Access;  // checkpoints restore the audit counters
};

}  // namespace rtds::fault
