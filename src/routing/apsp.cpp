#include "routing/apsp.hpp"

#include <algorithm>
#include <utility>

#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "sim/network.hpp"

namespace rtds {

namespace {

/// Scratch for the per-destination layered relaxation: O(sites) arrays
/// allocated once and reused across every destination via version stamps,
/// so one full build touches O(sites · ball) memory, never O(sites²).
struct ApspScratch {
  /// A site whose line changed last phase, with its phase-end snapshot
  /// (synchronous §7.2 semantics: offers read phase-start state, so the
  /// values ride in the frontier, not in the live arrays).
  struct Src {
    SiteId site = kNoSite;
    Time dist = 0.0;
    std::uint32_t hops = 0;
  };

  ApspScratch(const Topology& topo, const fault::FaultState* faults)
      : dist(topo.site_count()),
        hops(topo.site_count()),
        via(topo.site_count()),
        seen(topo.site_count(), 0),
        chg_stamp(topo.site_count(), 0) {
    rebuild_live(topo, faults);
  }

  /// (Re)builds the *live* CSR adjacency: with a fault view, dead links
  /// (and with them every edge of a dead site) are filtered out up front,
  /// so the relaxation never consults FaultState per edge — the per-edge
  /// link_up binary search used to dominate the whole repair. One O(links)
  /// counting pass over Topology::links() (whose order per site matches
  /// adjacency order: add_link appends to both in the same call), not a
  /// per-pair lookup per edge. Reuses all capacity, so the per-event
  /// refresh of a long fault run allocates nothing in steady state.
  void rebuild_live(const Topology& topo, const fault::FaultState* faults) {
    const auto n = topo.site_count();
    const auto& links = topo.links();
    const auto live = [&](std::size_t i) {
      return faults == nullptr ||
             (faults->link_index_up(i) && faults->site_up(links[i].a) &&
              faults->site_up(links[i].b));
    };
    adj_off.assign(n + 1, 0);
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (!live(i)) continue;
      ++adj_off[links[i].a + 1];
      ++adj_off[links[i].b + 1];
    }
    for (std::size_t s = 1; s <= n; ++s) adj_off[s] += adj_off[s - 1];
    adj_site.resize(adj_off[n]);
    adj_delay.resize(adj_off[n]);
    adj_cursor.assign(adj_off.begin(), adj_off.end() - 1);
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (!live(i)) continue;
      const Link& l = links[i];
      adj_site[adj_cursor[l.a]] = l.b;
      adj_delay[adj_cursor[l.a]++] = l.delay;
      adj_site[adj_cursor[l.b]] = l.a;
      adj_delay[adj_cursor[l.b]++] = l.delay;
    }
  }

  std::vector<std::uint32_t> adj_off;  ///< live CSR offsets, one per site + 1
  std::vector<SiteId> adj_site;        ///< live CSR neighbour ids
  std::vector<Time> adj_delay;         ///< live CSR link delays
  std::vector<std::uint32_t> adj_cursor;  ///< rebuild_live scatter cursors
  std::vector<Time> dist;
  std::vector<std::uint32_t> hops;
  std::vector<SiteId> via;
  std::vector<std::uint64_t> seen;       ///< == tag: line exists this dest
  std::vector<std::uint64_t> chg_stamp;  ///< == tag+p: changed this phase
  std::vector<Src> cur;
  std::vector<SiteId> changed;  ///< sites improved during the current phase
  std::vector<SiteId> reached;  ///< sites with a line, first-reach order
  std::uint64_t version = 0;
};

/// Hop levels for the repair's pruned relaxation: `level[s]` is s's static
/// hop distance from the changed set, and a site the relaxation may offer
/// to at phase p is skipped when `level[s] + p > budget` (DESIGN.md §10).
struct PruneBudget {
  const std::uint32_t* level = nullptr;
  std::uint32_t budget = 0;
  bool skip(SiteId s, std::size_t p) const { return level[s] + p > budget; }
};

/// Runs the §7.2 phase recurrence for one destination `d` over the live
/// topology: after `phases` phases, site s's line for d is exactly the
/// interrupted-APSP table line. Offers carry phase-start snapshots (the
/// synchronous semantics of the neighbour-table exchange) and use the same
/// strict (dist, hops, next-hop-id) `better` test, so every phase computes
/// the same per-destination minimum as the merge loop; offers the merge
/// loop would re-send for lines that did not change are dropped — a
/// re-offer can never win the strict test.
///
/// kPruned (the repair path) also drops offers the budget rules out. Lines
/// outside the budget are then left unset, but every line inside it is
/// exact. The build instantiates the unpruned loop and pays nothing. Out
/// of line: inlined into phased_apsp's destination sweep it ran no faster.
template <bool kPruned>
[[gnu::noinline]] std::uint64_t relax_dest(SiteId d, std::size_t phases,
                                           const fault::FaultState* faults,
                                           ApspScratch& sc,
                                           PruneBudget prune = {}) {
  sc.reached.clear();
  sc.cur.clear();
  const std::uint64_t tag = sc.version + 1;
  sc.version += phases + 2;  // distinct change stamps for every phase

  // A dead destination seeds nothing: every line to it is withdrawn. (Dead
  // links — including every edge of a dead site — are already absent from
  // the live CSR, so this is the only liveness probe the relaxation makes.)
  if (faults != nullptr && !faults->site_up(d)) return tag;

  // Phase 0 — the §7.1 start condition, seen from destination d: d itself
  // plus every site with a live direct link to d.
  sc.seen[d] = tag;
  sc.dist[d] = 0.0;
  sc.hops[d] = 0;
  sc.via[d] = d;
  sc.reached.push_back(d);
  sc.cur.push_back({d, 0.0, 0});
  for (std::uint32_t e = sc.adj_off[d]; e < sc.adj_off[d + 1]; ++e) {
    const SiteId nb = sc.adj_site[e];
    if constexpr (kPruned)
      if (prune.skip(nb, 0)) continue;
    sc.seen[nb] = tag;
    sc.dist[nb] = sc.adj_delay[e];
    sc.hops[nb] = 1;
    sc.via[nb] = d;
    sc.reached.push_back(nb);
    sc.cur.push_back({nb, sc.adj_delay[e], 1});
  }

  for (std::size_t p = 1; p <= phases; ++p) {
    // Scatter: every phase-(p-1) change offers itself over each live link
    // once. The per-line minimum is order-independent (the tie-break is a
    // total preference over candidate values), so source-major scatter
    // computes exactly what a per-site fold over neighbour tables would.
    const std::uint64_t phase_tag = tag + p;
    sc.changed.clear();
    for (const ApspScratch::Src& src : sc.cur) {
      const std::uint32_t end = sc.adj_off[src.site + 1];
      for (std::uint32_t e = sc.adj_off[src.site]; e < end; ++e) {
        const SiteId s = sc.adj_site[e];
        if (s == d) continue;
        if constexpr (kPruned)
          if (prune.skip(s, p)) continue;
        const Time cand_dist = sc.adj_delay[e] + src.dist;
        const std::uint32_t cand_hops = src.hops + 1;
        if (sc.seen[s] == tag) {
          const Time cd = sc.dist[s];
          const bool better =
              time_lt(cand_dist, cd) ||
              (time_eq(cand_dist, cd) &&
               (cand_hops < sc.hops[s] ||
                (cand_hops == sc.hops[s] && src.site < sc.via[s])));
          if (!better) continue;
        } else {
          sc.seen[s] = tag;
          sc.reached.push_back(s);
        }
        sc.dist[s] = cand_dist;
        sc.hops[s] = cand_hops;
        sc.via[s] = src.site;
        if (sc.chg_stamp[s] != phase_tag) {
          sc.chg_stamp[s] = phase_tag;
          sc.changed.push_back(s);
        }
      }
    }
    RTDS_HIST("apsp.frontier", sc.changed.size());
    if (sc.changed.empty()) break;  // converged; further phases are no-ops
    // Phase-end snapshot of every changed line — next phase's offers.
    sc.cur.clear();
    for (const SiteId s : sc.changed)
      sc.cur.push_back({s, sc.dist[s], sc.hops[s]});
  }
  return tag;
}

/// Static CSR adjacency (no delays, no fault filtering) for the repair
/// path's levelled BFS: static hop distances lower-bound every live one
/// (faults only remove links), which is what makes them a safe dirtying
/// rule.
struct StaticCsr {
  explicit StaticCsr(const Topology& topo) {
    const auto n = topo.site_count();
    const auto& links = topo.links();
    off.assign(n + 1, 0);
    for (const Link& l : links) {
      ++off[l.a + 1];
      ++off[l.b + 1];
    }
    for (std::size_t s = 1; s <= n; ++s) off[s] += off[s - 1];
    site.resize(off[n]);
    std::vector<std::uint32_t> cursor(off.begin(), off.end() - 1);
    for (const Link& l : links) {
      site[cursor[l.a]++] = l.b;
      site[cursor[l.b]++] = l.a;
    }
  }
  std::vector<std::uint32_t> off;
  std::vector<SiteId> site;
};

}  // namespace

std::vector<RoutingTable> phased_apsp(const Topology& topo,
                                      std::size_t phases,
                                      const fault::FaultState* faults) {
  const auto n = topo.site_count();
  const auto site_live = [&](SiteId s) {
    return faults == nullptr || faults->site_up(s);
  };
  std::vector<RoutingTable> tables;
  tables.reserve(n);
  for (SiteId s = 0; s < n; ++s) {
    tables.emplace_back(s);
    // A down site keeps an empty table: it routes nothing until it
    // recovers and the next repair re-seeds it.
    if (phases == 0 && site_live(s)) tables.back().init_from_neighbors(topo, faults);
  }
  if (n == 0 || phases == 0) return tables;

  // Degree-based ball-size hint: a (phases+1)-hop ball on a degree-d
  // graph holds at most 1 + d·(phases+1)·(phases+2)/2 sites when growth is
  // polynomial (grids, meshes); clamping to n covers expander-like
  // topologies. Overshooting slightly costs idle capacity, undershooting
  // costs mid-build reallocations of every table.
  for (SiteId s = 0; s < n; ++s) {
    const std::size_t deg = topo.neighbors(s).size();
    const std::size_t hint =
        std::min<std::size_t>(n, 1 + deg * (phases + 1) * (phases + 2) / 2);
    tables[s].reset(n, hint);
  }

  // Destination-major sweep: each destination's lines spread at most one
  // hop per phase, so the whole build costs O(sites · ball · degree).
  // Ascending destinations leave every table's slots in ascending
  // destination order — sorted by construction, so the id→slot binary
  // search needs no per-line bookkeeping at all.
  RTDS_COUNT("apsp.build.calls");
  RTDS_COUNT_N("apsp.build.destinations", n);
  ApspScratch sc(topo, faults);
  for (SiteId d = 0; d < n; ++d) {
    relax_dest<false>(d, phases, faults, sc);
    RTDS_HIST("apsp.build.ball", sc.reached.size());
    for (const SiteId s : sc.reached)
      tables[s].append_line(d, RouteLine{sc.dist[s], sc.via[s], sc.hops[s]});
  }
  return tables;
}

struct ApspRepairer::Impl {
  /// Level of a site past the levelled BFS's depth.
  static constexpr std::uint32_t kFar = 1u << 30;

  Impl(const Topology& t, std::size_t p, fault::InjectedBug b)
      : topo(t), phases(p), bug(b), sc(t, nullptr), csr(t),
        level(t.site_count(), kFar) {}

  /// Multi-source BFS over the static topology from `changed`, `depth`
  /// levels deep: fills `level` (kFar beyond the depth), `order` (visited
  /// sites by ascending level) and `level_end` (level_end[k] = number of
  /// sites at level ≤ k, for every k ≤ depth).
  void level_sites(std::span<const SiteId> changed, std::size_t depth) {
    for (const SiteId s : order) level[s] = kFar;
    order.clear();
    for (const SiteId s : changed) {
      if (level[s] == 0) continue;  // a partition repeats shared endpoints
      level[s] = 0;
      order.push_back(s);
    }
    level_end.resize(depth + 1);
    level_end[0] = static_cast<std::uint32_t>(order.size());
    std::size_t head = 0;
    for (std::uint32_t k = 1; k <= depth; ++k) {
      for (const std::size_t end = order.size(); head < end; ++head) {
        const SiteId at = order[head];
        for (std::uint32_t e = csr.off[at]; e < csr.off[at + 1]; ++e) {
          const SiteId nb = csr.site[e];
          if (level[nb] != kFar) continue;
          level[nb] = k;
          order.push_back(nb);
        }
      }
      level_end[k] = static_cast<std::uint32_t>(order.size());
    }
  }

  const Topology& topo;
  const std::size_t phases;
  const fault::InjectedBug bug;
  ApspScratch sc;
  const StaticCsr csr;  ///< static adjacency: a property of the topology
  // Per-repair buffers, reused across events.
  std::vector<std::uint32_t> level;  ///< static hops from the change
  std::vector<SiteId> order;         ///< levelled BFS order
  std::vector<std::uint32_t> level_end;
  std::vector<SiteId> dirty;
  struct Update {
    SiteId site;
    RoutingTable::DestLine dl;
  };
  std::vector<Update> updates;
  std::vector<RoutingTable::DestLine> sorted;
  std::vector<std::uint32_t> counts;
  std::vector<std::uint32_t> cursor;
  RoutingTable::MergeScratch merge_scratch;
};

ApspRepairer::ApspRepairer(const Topology& topo, std::size_t phases,
                           fault::InjectedBug bug)
    : impl_(std::make_unique<Impl>(topo, phases, bug)) {}

ApspRepairer::~ApspRepairer() = default;

void ApspRepairer::repair(std::vector<RoutingTable>& tables,
                          const fault::FaultState* faults,
                          std::span<const SiteId> changed) {
  Impl& im = *impl_;
  const auto n = im.topo.site_count();
  const std::size_t phases = im.phases;
  RTDS_REQUIRE_MSG(tables.size() == n, "repair needs one table per site");
  if (n == 0) return;
  ApspScratch& sc = im.sc;
  sc.rebuild_live(im.topo, faults);

  // Pairwise dirtying rule (DESIGN.md §10). After `phases` phases a line
  // (s → d) is a function of the ≤(phases+1)-hop walks from s to d, so it
  // can change only if one of them runs through the change. With lvl(x)
  // the static hop distance from x to the changed set:
  //  * crashed/recovered site c: a walk s → … → c → … → d spans at least
  //    lvl(s) + lvl(d) hops;
  //  * flapped link (a, b), or every cut link of a partition (both
  //    endpoints in the changed set): s → … → a – b → … → d spans at least
  //    lvl(s) + 1 + lvl(d) hops;
  // so only lines with lvl(s) + lvl(d) ≤ R can change: R = phases + 1 for
  // a single site (callers pass it alone), R = phases for link endpoints.
  // The dirty destinations are the sites with lvl ≤ R.
  std::size_t radius = changed.size() == 1 ? phases + 1 : phases;
  if (im.bug == fault::InjectedBug::kRepairRadiusOffByOne && radius > 0)
    --radius;  // mutation-test target: under-dirty by one ring
  // Levels run `phases` past R: beyond that every site fails every
  // destination's pruning budget below, so kFar serves as its level.
  im.level_sites(changed, radius + phases);
  im.dirty.assign(im.order.begin(), im.order.begin() + im.level_end[radius]);
  std::sort(im.dirty.begin(), im.dirty.end());
  RTDS_COUNT("apsp.repair.calls");
  RTDS_COUNT_N("apsp.repair.dirty_destinations", im.dirty.size());
  RTDS_HIST("apsp.repair.scope", im.dirty.size());

  // Batch every line update (dest-major, so each site's batch comes out
  // sorted by destination) and apply them per table in one merge pass —
  // scattered per-line searches and insertions would dominate otherwise.
  im.updates.clear();
  for (const SiteId d : im.dirty) {
    // Candidate holders are the sites with lvl ≤ slack, the BFS-order
    // prefix up to level_end[slack]; each gets its new line or a
    // withdrawal. A phase-p line travels phases − p more hops, so only a
    // site with lvl + p ≤ slack + phases can still reach a holder.
    const std::uint32_t slack =
        static_cast<std::uint32_t>(radius) - im.level[d];
    const std::uint64_t tag = relax_dest<true>(
        d, phases, faults, sc,
        {im.level.data(), slack + static_cast<std::uint32_t>(phases)});
    const std::uint32_t holders = im.level_end[slack];
    for (std::uint32_t i = 0; i < holders; ++i) {
      const SiteId s = im.order[i];
      if (sc.seen[s] == tag)
        im.updates.push_back(
            {s, {d, RouteLine{sc.dist[s], sc.via[s], sc.hops[s]}}});
      else
        im.updates.push_back({s, {d, RouteLine{}}});  // withdraw if held
    }
  }

  RTDS_COUNT_N("apsp.repair.line_updates", im.updates.size());
  // Stable counting sort by site: per-site runs stay dest-ascending.
  im.counts.assign(n + 1, 0);
  for (const Impl::Update& u : im.updates) ++im.counts[u.site + 1];
  for (std::size_t s = 1; s <= n; ++s) im.counts[s] += im.counts[s - 1];
  im.sorted.resize(im.updates.size());
  im.cursor.assign(im.counts.begin(), im.counts.end() - 1);
  for (const Impl::Update& u : im.updates)
    im.sorted[im.cursor[u.site]++] = u.dl;
  for (const SiteId s : im.dirty) {
    const std::uint32_t begin = im.counts[s], end = im.counts[s + 1];
    if (begin != end)
      tables[s].apply_updates(
          std::span<const RoutingTable::DestLine>(im.sorted.data() + begin,
                                                  end - begin),
          im.merge_scratch);
  }
}

void repair_apsp(std::vector<RoutingTable>& tables, const Topology& topo,
                 std::size_t phases, const fault::FaultState* faults,
                 std::span<const SiteId> changed) {
  ApspRepairer(topo, phases).repair(tables, faults, changed);
}

namespace {

/// Per-site protocol state for the distributed run. The payload exchanged
/// between neighbours is ApspTableMsg (core/messages.hpp): the sender's
/// table as of the start of its current phase.
struct ApspSite {
  RoutingTable table;
  std::size_t phase = 0;               // next phase to send
  std::size_t received_this_phase = 0; // neighbour tables absorbed
  /// Future-phase messages, buffered until this site catches up.
  std::vector<std::pair<std::size_t, std::shared_ptr<const RoutingTable>>>
      early;
  /// (sender, phase) pairs already counted — the APSP handler's dedup
  /// guard (DESIGN.md §12): table merges are idempotent min-merges, but a
  /// duplicated neighbour table must not double-count toward
  /// received_this_phase. Bounded by neighbours × phases; linear scan is
  /// fine at that size.
  std::vector<std::pair<SiteId, std::size_t>> seen;
  bool done = false;

  /// True the first time (from, phase) is recorded, false on a duplicate.
  bool first_delivery(SiteId from, std::size_t phase) {
    for (const auto& [s, p] : seen)
      if (s == from && p == phase) return false;
    seen.emplace_back(from, phase);
    return true;
  }
};

}  // namespace

DistributedApspResult distributed_apsp(const Topology& topo,
                                       std::size_t phases) {
  const auto n = topo.site_count();
  DistributedApspResult result;

  std::vector<ApspSite> sites(n);
  for (SiteId s = 0; s < n; ++s) {
    sites[s].table = RoutingTable(s);
    sites[s].table.init_from_neighbors(topo);
  }
  if (phases == 0 || n == 0) {
    for (auto& st : sites) result.tables.push_back(std::move(st.table));
    return result;
  }

  Simulator sim;
  SimNetwork net(sim, n);
  std::size_t finished = 0;

  // send_phase(s): broadcast s's current table stamped with its phase.
  // One phase-start snapshot is shared across all neighbour sends.
  std::function<void(SiteId)> send_phase = [&](SiteId s) {
    auto& st = sites[s];
    const auto snapshot = std::make_shared<const RoutingTable>(st.table);
    for (const auto& nb : topo.neighbors(s)) {
      result.route_lines += st.table.size();
      net.send_routed(s, nb.site, nb.delay, 1,
                      ApspTableMsg{st.phase, snapshot}, kApspMessageCategory);
    }
  };

  std::function<void(SiteId)> maybe_advance = [&](SiteId s) {
    auto& st = sites[s];
    while (!st.done &&
           st.received_this_phase == topo.neighbors(s).size()) {
      st.received_this_phase = 0;
      ++st.phase;
      if (st.phase >= phases) {
        st.done = true;
        ++finished;
        if (finished == n) result.completion_time = sim.now();
        break;
      }
      send_phase(s);
      // Absorb any messages for the new phase that arrived early.
      auto& early = st.early;
      for (std::size_t i = 0; i < early.size();) {
        if (early[i].first == st.phase) {
          const SiteId from = early[i].second->owner();
          st.table.merge_from(from, topo.link_delay(s, from),
                              *early[i].second);
          ++st.received_this_phase;
          early.erase(early.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
    }
  };

  for (SiteId s = 0; s < n; ++s) {
    net.set_handler(s, [&, s](SiteId from, const MessageBody& payload) {
      const auto& msg = std::get<ApspTableMsg>(payload);
      auto& st = sites[s];
      if (st.done) return;
      if (!st.first_delivery(from, msg.phase)) return;  // network duplicate
      if (msg.phase == st.phase) {
        st.table.merge_from(from, topo.link_delay(s, from), *msg.table);
        ++st.received_this_phase;
        maybe_advance(s);
      } else {
        // Neighbour is ahead (asynchronous links): buffer until we get
        // there. A behind-phase table is impossible — the phase lockstep
        // only advances once every neighbour's table for the current phase
        // arrived, and duplicates were filtered above.
        RTDS_CHECK_MSG(msg.phase > st.phase,
                       "duplicate phase " << msg.phase << " at site " << s);
        st.early.emplace_back(msg.phase, msg.table);
      }
    });
  }

  for (SiteId s = 0; s < n; ++s) send_phase(s);
  // Degenerate sites with no neighbours (n == 1) complete immediately.
  for (SiteId s = 0; s < n; ++s) maybe_advance(s);
  sim.run();
  result.messages = net.stats().total_link_messages;

  RTDS_CHECK_MSG(finished == n, "APSP did not complete on all sites");
  result.tables.reserve(n);
  for (auto& st : sites) result.tables.push_back(std::move(st.table));
  return result;
}

}  // namespace rtds
