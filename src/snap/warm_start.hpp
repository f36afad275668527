// Warm-start cache for sphere construction (DESIGN.md §14).
//
// Every RtdsSystem pays an O(sites · ball · 2h) APSP build plus one
// Pcs::build per site before the first event fires. A parameter sweep
// re-pays that bring-up for every (condition, seed) trial even though the
// tables and spheres depend on nothing but the topology and the radius h.
// This cache keys the *serialized* post-bring-up tables + spheres by
// (topology content hash, h): the first trial on a topology builds and
// stores, every later trial deserializes fresh copies.
//
// Bit-identity by construction: a hit hands back objects decoded from the
// exact bytes a cold build would produce (the store serializes the freshly
// built state through the same snap format the checkpoints use), so warm
// and cold runs are byte-identical — pinned by tests/warm_start_test.cpp
// over every registered scenario digest. Deserializing on every hit (never
// sharing live objects) also keeps trials isolated under --jobs N: workers
// only ever touch their own copies, and the cache itself is mutex-guarded.
//
// Off by default: each run opts in through RunContext::warm_start
// (rtds_exp/rtds_cli --warm-start, exp::RunOptions::context), because a
// cache that outlives a run is a liability in memory-bounded soaks. The
// cache itself is process-wide; only its use is per run.
#pragma once

#include <cstddef>
#include <vector>

namespace rtds {
class Topology;
class RoutingTable;
class Pcs;
}  // namespace rtds

namespace rtds::snap {

/// Cache lookup for (topology, h). On a hit, fills `tables` and `spheres`
/// with fresh deserialized copies and returns true. On a miss returns
/// false; the caller builds and should call warm_start_store.
bool warm_start_acquire(const Topology& topo, std::size_t h,
                        std::vector<RoutingTable>& tables,
                        std::vector<Pcs>& spheres);

/// Serializes the freshly built bring-up state into the cache. Later
/// acquire() calls for the same (topology, h) decode copies of it.
void warm_start_store(const Topology& topo, std::size_t h,
                      const std::vector<RoutingTable>& tables,
                      const std::vector<Pcs>& spheres);

/// Drops every cached entry (tests; long-lived processes between sweeps).
void warm_start_clear();

/// Cache statistics since process start (sweep reporting).
std::size_t warm_start_hits();
std::size_t warm_start_misses();

}  // namespace rtds::snap
