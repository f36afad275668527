// Task-graph generators.
//
// `paper_example()` is the exact 5-task instance of §12/Fig. 2, recovered
// from Table 1 (see DESIGN.md §4). The rest are standard synthetic families
// used by the evaluation benches (E1–E5): random layered DAGs, fork-joins,
// trees, plus structured application graphs (LU elimination wavefronts, FFT
// butterflies, stencils) of the kind the paper's motivation cites.
#pragma once

#include <cstdint>

#include "dag/dag.hpp"
#include "util/rng.hpp"

namespace rtds {

/// Cost model for random generators: uniform in [min_cost, max_cost].
struct CostRange {
  Time min_cost = 1.0;
  Time max_cost = 10.0;

  Time sample(Rng& rng) const { return rng.uniform(min_cost, max_cost); }
};

/// The exact task graph of Fig. 2: tasks 1..5 with costs {6,4,4,2,5} and
/// arcs 1→3, 2→3, 1→4, 2→4, 3→5, 4→5 (0-based ids 0..4 here).
Dag paper_example();

/// n tasks in a single precedence chain.
Dag make_chain(std::size_t n, CostRange costs, Rng& rng);

/// Fork-join: source → n parallel tasks → sink (n + 2 tasks).
Dag make_fork_join(std::size_t parallel_tasks, CostRange costs, Rng& rng);

/// Diamond lattice of the given width and depth (grid with down-right arcs).
Dag make_diamond(std::size_t width, std::size_t depth, CostRange costs,
                 Rng& rng);

/// Random layered DAG: `layer_count` layers of `layer_width` tasks each;
/// every task gets at least one predecessor in the previous layer and extra
/// arcs with probability `edge_prob` (classic STG-style generator).
Dag make_layered(std::size_t layer_count, std::size_t layer_width,
                 double edge_prob, CostRange costs, Rng& rng);

/// Erdős–Rényi DAG: arc i→j (i < j in a random permutation) with
/// probability p. Isolated ordering keeps it acyclic by construction.
Dag make_random_dag(std::size_t n, double p, CostRange costs, Rng& rng);

/// Complete binary in-tree (reduction): leaves feed towards a single sink.
Dag make_in_tree(std::size_t levels, CostRange costs, Rng& rng);

/// Complete binary out-tree (broadcast): a single source fans out.
Dag make_out_tree(std::size_t levels, CostRange costs, Rng& rng);

/// Gaussian-elimination style wavefront DAG for an n×n system: task (k)
/// pivots feed column updates, the classic LU task graph (n(n+1)/2 tasks).
Dag make_lu(std::size_t n, CostRange costs, Rng& rng);

/// FFT butterfly of 2^log2n points: (log2n + 1) ranks of 2^log2n tasks.
Dag make_fft(std::size_t log2n, CostRange costs, Rng& rng);

/// 2-D stencil wavefront over a w×h grid: each cell depends on its left and
/// upper neighbours.
Dag make_stencil(std::size_t w, std::size_t h, CostRange costs, Rng& rng);

/// `dag` (finalized) with a uniform random data volume in [lo, hi) on
/// every arc, drawn in arc order (the §13 decoration both workload
/// generators apply). Volumes change no structure, so the adjacency, order
/// and levels already built carry over unchanged.
Dag decorate_volumes(Dag dag, double lo, double hi, Rng& rng);

/// Catalogue of DAG shapes for mixed workloads.
enum class DagShape {
  kChain,
  kForkJoin,
  kDiamond,
  kLayered,
  kRandom,
  kInTree,
  kOutTree,
  kLu,
  kFft,
  kStencil,
};

const char* to_string(DagShape shape);

/// Draws a DAG of the given shape with roughly `approx_tasks` tasks.
Dag make_shape(DagShape shape, std::size_t approx_tasks, CostRange costs,
               Rng& rng);

}  // namespace rtds
