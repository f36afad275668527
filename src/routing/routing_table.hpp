// Distance-vector routing tables (§7.1): route lines
// <destination, distance, next hop> maintained per site, updated by merging
// tables received from immediate neighbours (Bertsekas–Gallager distributed
// Bellman–Ford). We additionally track the hop length of the recorded path,
// which the PCS needs both for membership (hop radius h) and for charging
// routed sends with the correct number of link-messages.
//
// Storage is sphere-local and sparse (DESIGN.md §10): after the interrupted
// (2h-phase) APSP a table only ever holds routes inside the owner's
// ≤(2h+1)-hop ball, so dense per-destination arrays over the whole topology
// would cost O(sites) memory and O(sites) initialization *per site* —
// quadratic in total, and the reason the pre-PR-5 simulator stopped scaling
// past a few hundred sites. Lines live in slot-dense arrays over the
// reached destinations only, kept sorted by destination id — an invariant
// every mutation path maintains (ascending appends in the bulk build,
// sorted inserts in the merge path, one sorted merge pass in
// apply_updates) — so the id→slot lookup is a branchless binary search
// over a few cache lines. Withdrawn lines (incremental repair) are
// compacted away by apply_updates' merge pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/topology.hpp"
#include "util/error.hpp"
#include "util/time.hpp"

namespace rtds::fault {
class FaultState;
}

namespace rtds::snap {
struct Access;  // checkpoint serialization (snap/)
}

namespace rtds {

struct RouteLine {
  Time dist = kInfiniteTime;
  SiteId next_hop = kNoSite;
  std::uint32_t hops = 0;
};

class RoutingTable {
 public:
  RoutingTable() = default;
  explicit RoutingTable(SiteId owner);

  SiteId owner() const { return owner_; }

  /// Destinations the table spans (the whole topology once built). Routes
  /// exist only for the sphere-local subset actually reached; probe with
  /// has_route / find.
  std::size_t site_count() const { return site_count_; }

  /// Installs the trivial route to self plus one-hop routes to neighbours —
  /// the §7.1 start condition. With a fault view, only *live* links seed
  /// routes (the repair path of DESIGN.md §9).
  void init_from_neighbors(const Topology& topo,
                           const fault::FaultState* faults = nullptr);

  /// Prepares an empty table spanning `site_count` destinations, reserving
  /// slot space for `expected_routes` lines (degree-based hints from the
  /// topology keep the build allocation-light).
  void reset(std::size_t site_count, std::size_t expected_routes);

  bool has_route(SiteId dest) const { return find(dest) != nullptr; }
  const RouteLine& route(SiteId dest) const;

  /// route() without the contract check: nullptr when unreachable. For
  /// tight loops (PCS construction, transport sends) that probe many pairs.
  const RouteLine* find(SiteId dest) const {
    const std::size_t slot = slot_of(dest);
    if (slot == kNoSlot) return nullptr;
    const RouteLine& line = lines_[slot];
    return line.dist == kInfiniteTime ? nullptr : &line;
  }

  /// Merges a neighbour's table received over a link with the given delay:
  /// candidate distance = link delay + neighbour's distance. Shorter delay
  /// wins; on (FP-tolerant) ties, fewer hops, then smaller next-hop id, so
  /// every site converges to a *unique* minimum-delay path as §6 requires.
  /// Returns true if any line changed.
  bool merge_from(SiteId neighbor, Time link_delay, const RoutingTable& other);

  /// Number of destinations with a live route (the paper's table volume).
  std::size_t size() const { return live_; }

  /// Installs (or overwrites) the line for `dest`.
  void set_line(SiteId dest, const RouteLine& line);

  /// Build fast path: appends the line for a destination greater than
  /// every destination already held — the bulk build visits destinations
  /// in ascending order, so sortedness is free.
  void append_line(SiteId dest, const RouteLine& line);

  /// One line-update of a repair batch: a finite distance installs (or
  /// overwrites) the route, an infinite one withdraws it.
  struct DestLine {
    SiteId dest = kNoSite;
    RouteLine line;
  };

  /// Reusable merge buffers for apply_updates. After each call the scratch
  /// holds the table's previous arrays (swapped out), so a repair loop
  /// recycles capacity instead of allocating per table per event.
  struct MergeScratch {
    std::vector<RouteLine> lines;
    std::vector<SiteId> dests;
  };

  /// Applies a batch of updates sorted by ascending destination (each
  /// destination at most once) in a single merge pass — the incremental
  /// repair path, where per-line binary searches and insertions would
  /// dominate. Tombstoned slots are compacted away in the same pass.
  void apply_updates(std::span<const DestLine> updates, MergeScratch& scratch);

  /// Slot-space iteration over reached destinations, in ascending
  /// destination order. Includes tombstones — skip lines with infinite
  /// distance.
  std::size_t slot_count() const { return dests_.size(); }
  SiteId dest_at(std::size_t slot) const { return dests_[slot]; }
  const RouteLine& line_at(std::size_t slot) const { return lines_[slot]; }
  /// The whole slot arrays, for bulk comparison (the invariant checker
  /// diffs tables against its shadow with one memcmp each).
  std::span<const SiteId> dests() const { return dests_; }
  std::span<const RouteLine> lines() const { return lines_; }

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// Branchless binary search over the sorted destination array; the
  /// sphere-local tables span a handful of cache lines, so this beats
  /// both a hash probe (no second array to touch) and a dense index.
  std::size_t slot_of(SiteId dest) const {
    const SiteId* base = dests_.data();
    std::size_t len = dests_.size();
    if (len == 0) return kNoSlot;
    while (len > 1) {
      const std::size_t half = len / 2;
      base += (base[half - 1] < dest) ? half : 0;
      len -= half;
    }
    return *base == dest ? static_cast<std::size_t>(base - dests_.data())
                         : kNoSlot;
  }

  /// Slot holding `dest`, inserting a tombstone slot (shifting the tail to
  /// keep the array sorted) on first touch.
  std::size_t slot_for(SiteId dest);

  SiteId owner_ = kNoSite;
  std::uint32_t site_count_ = 0;
  std::vector<RouteLine> lines_;  ///< slot-dense route lines
  std::vector<SiteId> dests_;     ///< slot → destination id, ascending
  std::uint32_t live_ = 0;        ///< non-tombstone line count

  /// Checkpoints restore tombstoned slots verbatim — the public mutators
  /// cannot reproduce them (snap/).
  friend struct snap::Access;
};

}  // namespace rtds
