#include "net/topology.hpp"

#include <vector>

namespace rtds {

SiteId Topology::add_site(double computing_power) {
  RTDS_REQUIRE_MSG(computing_power > 0.0,
                   "computing power must be positive, got " << computing_power);
  power_.push_back(computing_power);
  adjacency_.emplace_back();
  return static_cast<SiteId>(power_.size() - 1);
}

void Topology::add_link(SiteId a, SiteId b, Time delay, double throughput) {
  RTDS_REQUIRE(a < site_count());
  RTDS_REQUIRE(b < site_count());
  RTDS_REQUIRE_MSG(a != b, "self-link on site " << a);
  RTDS_REQUIRE_MSG(delay > 0.0, "link delay must be positive, got " << delay);
  RTDS_REQUIRE(throughput >= 0.0);
  RTDS_REQUIRE_MSG(!adjacent(a, b), "parallel link " << a << "--" << b);
  const auto link = static_cast<std::uint32_t>(links_.size());
  links_.push_back(Link{a, b, delay, throughput});
  adjacency_[a].push_back(Neighbor{b, link, delay, throughput});
  adjacency_[b].push_back(Neighbor{a, link, delay, throughput});
}

bool Topology::adjacent(SiteId a, SiteId b) const {
  RTDS_REQUIRE(a < site_count());
  RTDS_REQUIRE(b < site_count());
  for (const auto& n : adjacency_[a])
    if (n.site == b) return true;
  return false;
}

Time Topology::link_delay(SiteId a, SiteId b) const {
  RTDS_REQUIRE(a < site_count());
  for (const auto& n : adjacency_[a])
    if (n.site == b) return n.delay;
  RTDS_REQUIRE_MSG(false, "sites " << a << " and " << b << " not adjacent");
  return 0.0;
}

bool Topology::connected() const {
  if (site_count() == 0) return true;
  std::vector<bool> seen(site_count(), false);
  std::vector<SiteId> stack{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const SiteId s = stack.back();
    stack.pop_back();
    for (const auto& n : adjacency_[s]) {
      if (!seen[n.site]) {
        seen[n.site] = true;
        ++visited;
        stack.push_back(n.site);
      }
    }
  }
  return visited == site_count();
}

}  // namespace rtds
