// Communication network model (§2): an arbitrary connected graph of sites
// with bidirectional weighted links. Link weights are communication delays
// (propagation); they need not satisfy the triangle inequality. The paper
// assumes faithful loss-less links and faultless sites; the Topology
// object stays immutable once built, and dynamic faults (site crashes,
// link outages — DESIGN.md §9) are layered on top as fault::FaultState
// masks over this static graph.
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/time.hpp"

namespace rtds {

/// Dense 0-based site identifier.
using SiteId = std::uint32_t;

inline constexpr SiteId kNoSite = static_cast<SiteId>(-1);

struct Link {
  SiteId a = 0;
  SiteId b = 0;
  Time delay = 0.0;        ///< Propagation delay, > 0.
  double throughput = 0.0; ///< Optional §13 decoration; 0 = ignore volumes.
};

struct Neighbor {
  SiteId site = 0;
  std::uint32_t link = 0;  ///< index of the link in Topology::links()
  Time delay = 0.0;
  double throughput = 0.0;
};

/// Immutable-after-build weighted undirected graph.
class Topology {
 public:
  Topology() = default;

  /// Adds a site; optional computing power for the §13 "uniform machines"
  /// extension (execution time = cost / power). Power must be positive.
  SiteId add_site(double computing_power = 1.0);

  /// Adds a bidirectional link with positive delay. Parallel links and
  /// self-loops are rejected.
  void add_link(SiteId a, SiteId b, Time delay, double throughput = 0.0);

  std::size_t site_count() const { return power_.size(); }
  std::size_t link_count() const { return links_.size(); }

  double computing_power(SiteId s) const { return power_.at(s); }

  const std::vector<Link>& links() const { return links_; }
  const std::vector<Neighbor>& neighbors(SiteId s) const {
    return adjacency_.at(s);
  }

  bool adjacent(SiteId a, SiteId b) const;

  /// a's adjacency entry for b (link index, delay, throughput), or nullptr
  /// when a and b share no link. Requires a < site_count().
  const Neighbor* neighbor(SiteId a, SiteId b) const;

  /// Delay of the direct link a—b; requires adjacency.
  Time link_delay(SiteId a, SiteId b) const;

  /// True if every site can reach every other site.
  bool connected() const;

 private:
  std::vector<double> power_;
  std::vector<Link> links_;
  std::vector<std::vector<Neighbor>> adjacency_;
};

}  // namespace rtds
