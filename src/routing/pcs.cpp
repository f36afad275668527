#include "routing/pcs.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rtds {

bool Pcs::contains(SiteId s) const { return member_index_.contains(s); }

const PcsMember& Pcs::member(SiteId s) const { return members_[index_of(s)]; }

Time Pcs::delay(SiteId a, SiteId b) const {
  return pair_delay_[index_of(a) * members_.size() + index_of(b)];
}

std::size_t Pcs::hops(SiteId a, SiteId b) const {
  return pair_hops_[index_of(a) * members_.size() + index_of(b)];
}

Time Pcs::delay_diameter() const {
  Time best = 0.0;
  for (Time d : pair_delay_) best = std::max(best, d);
  return best;
}

std::size_t Pcs::hop_diameter() const {
  std::size_t best = 0;
  for (std::size_t h : pair_hops_) best = std::max(best, h);
  return best;
}

Time Pcs::delay_diameter_of(const std::vector<SiteId>& subset) const {
  const auto m = members_.size();
  Time best = 0.0;
  for (SiteId a : subset) {
    const Time* row = pair_delay_.data() + index_of(a) * m;
    for (SiteId b : subset) best = std::max(best, row[index_of(b)]);
  }
  return best;
}

std::size_t Pcs::hop_diameter_of(const std::vector<SiteId>& subset) const {
  const auto m = members_.size();
  std::size_t best = 0;
  for (SiteId a : subset) {
    const std::size_t* row = pair_hops_.data() + index_of(a) * m;
    for (SiteId b : subset) best = std::max(best, row[index_of(b)]);
  }
  return best;
}

Pcs Pcs::build(const std::vector<RoutingTable>& tables, SiteId root,
               std::size_t radius_h) {
  RTDS_REQUIRE(root < tables.size());
  Pcs pcs;
  pcs.root_ = root;
  pcs.radius_ = radius_h;

  // Scan the root's sphere-local slots only (never the whole topology).
  // Slots are sorted by destination id — a RoutingTable invariant — so
  // members_ comes out sorted by site id, as documented.
  const RoutingTable& root_table = tables[root];
  pcs.members_.reserve(root_table.size());
  for (std::size_t slot = 0; slot < root_table.slot_count(); ++slot) {
    const RouteLine& line = root_table.line_at(slot);
    if (line.dist != kInfiniteTime && line.hops <= radius_h)
      pcs.members_.push_back(
          PcsMember{root_table.dest_at(slot), line.dist,
                    static_cast<std::size_t>(line.hops)});
  }
  pcs.member_index_.reserve(pcs.members_.size());
  for (std::size_t i = 0; i < pcs.members_.size(); ++i)
    pcs.member_index_[pcs.members_[i].site] = static_cast<std::uint32_t>(i);

  const auto m = pcs.members_.size();
  pcs.pair_delay_.assign(m * m, 0.0);
  pcs.pair_hops_.assign(m * m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const RoutingTable& table = tables[pcs.members_[i].site];
    const auto dests = table.dests();
    // members_ and the table's slots both ascend by site id, so one
    // forward walk per row finds every member instead of a search each.
    std::size_t slot = 0;
    for (std::size_t j = 0; j < m; ++j) {
      if (i == j) continue;
      const SiteId b = pcs.members_[j].site;
      while (slot < dests.size() && dests[slot] < b) ++slot;
      const bool routed = slot < dests.size() && dests[slot] == b &&
                          table.line_at(slot).dist != kInfiniteTime;
      if (routed) {
        pcs.pair_delay_[i * m + j] = table.line_at(slot).dist;
        pcs.pair_hops_[i * m + j] = table.line_at(slot).hops;
      } else {
        // Relay through the root: always possible inside the sphere and a
        // safe over-estimate (the paper only needs an upper bound ω).
        pcs.pair_delay_[i * m + j] =
            pcs.members_[i].delay + pcs.members_[j].delay;
        pcs.pair_hops_[i * m + j] = pcs.members_[i].hops + pcs.members_[j].hops;
      }
    }
  }
  return pcs;
}

}  // namespace rtds
