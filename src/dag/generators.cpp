#include "dag/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/inline_vec.hpp"

namespace rtds {

Dag paper_example() {
  Dag dag;
  const TaskId t1 = dag.add_task(6.0, "t1");
  const TaskId t2 = dag.add_task(4.0, "t2");
  const TaskId t3 = dag.add_task(4.0, "t3");
  const TaskId t4 = dag.add_task(2.0, "t4");
  const TaskId t5 = dag.add_task(5.0, "t5");
  dag.add_arc(t1, t3);
  dag.add_arc(t2, t3);
  dag.add_arc(t1, t4);
  dag.add_arc(t2, t4);
  dag.add_arc(t3, t5);
  dag.add_arc(t4, t5);
  dag.finalize();
  return dag;
}

// Task ids are dense and handed out in add order, so each generator names
// its tasks by position arithmetic instead of keeping id tables, and
// reserves the exact task and arc counts before adding any.

Dag make_chain(std::size_t n, CostRange costs, Rng& rng) {
  RTDS_REQUIRE(n >= 1);
  Dag dag;
  dag.reserve(n, n - 1);
  TaskId prev = dag.add_task(costs.sample(rng));
  for (std::size_t i = 1; i < n; ++i) {
    const TaskId cur = dag.add_task(costs.sample(rng));
    dag.add_arc(prev, cur);
    prev = cur;
  }
  dag.finalize();
  return dag;
}

Dag make_fork_join(std::size_t parallel_tasks, CostRange costs, Rng& rng) {
  RTDS_REQUIRE(parallel_tasks >= 1);
  Dag dag;
  dag.reserve(parallel_tasks + 2, 2 * parallel_tasks);
  const TaskId src = dag.add_task(costs.sample(rng), "fork");
  for (std::size_t i = 0; i < parallel_tasks; ++i)
    dag.add_task(costs.sample(rng));
  const TaskId sink = dag.add_task(costs.sample(rng), "join");
  for (TaskId t = src + 1; t < sink; ++t) {
    dag.add_arc(src, t);
    dag.add_arc(t, sink);
  }
  dag.finalize();
  return dag;
}

Dag make_diamond(std::size_t width, std::size_t depth, CostRange costs,
                 Rng& rng) {
  RTDS_REQUIRE(width >= 1 && depth >= 1);
  Dag dag;
  dag.reserve(width * depth, (depth - 1) * (2 * width - 1));
  for (std::size_t i = 0; i < width * depth; ++i)
    dag.add_task(costs.sample(rng));
  const auto id = [width](std::size_t r, std::size_t c) {
    return static_cast<TaskId>(r * width + c);
  };
  for (std::size_t r = 1; r < depth; ++r) {
    for (std::size_t c = 0; c < width; ++c) {
      dag.add_arc(id(r - 1, c), id(r, c));
      if (c + 1 < width) dag.add_arc(id(r - 1, c), id(r, c + 1));
    }
  }
  dag.finalize();
  return dag;
}

/// Adds `arcs` (drawn before the count was known) with one reservation.
template <std::size_t N>
void add_arcs(Dag& dag, const InlineVec<Arc, N>& arcs) {
  dag.reserve(dag.task_count(), arcs.size());
  for (const Arc& a : arcs) dag.add_arc(a.from, a.to);
}

Dag make_layered(std::size_t layer_count, std::size_t layer_width,
                 double edge_prob, CostRange costs, Rng& rng) {
  RTDS_REQUIRE(layer_count >= 1 && layer_width >= 1);
  RTDS_REQUIRE(edge_prob >= 0.0 && edge_prob <= 1.0);
  Dag dag;
  dag.reserve(layer_count * layer_width, 0);
  for (std::size_t i = 0; i < layer_count * layer_width; ++i)
    dag.add_task(costs.sample(rng));
  const auto id = [layer_width](std::size_t l, std::size_t i) {
    return static_cast<TaskId>(l * layer_width + i);
  };
  InlineVec<Arc, 64> arcs;
  for (std::size_t l = 1; l < layer_count; ++l) {
    for (std::size_t i = 0; i < layer_width; ++i) {
      bool has_pred = false;
      for (std::size_t p = 0; p < layer_width; ++p) {
        if (rng.bernoulli(edge_prob)) {
          arcs.push_back(Arc{id(l - 1, p), id(l, i)});
          has_pred = true;
        }
      }
      if (!has_pred) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(layer_width) - 1));
        arcs.push_back(Arc{id(l - 1, pick), id(l, i)});
      }
    }
  }
  add_arcs(dag, arcs);
  dag.finalize();
  return dag;
}

Dag make_random_dag(std::size_t n, double p, CostRange costs, Rng& rng) {
  RTDS_REQUIRE(n >= 1);
  RTDS_REQUIRE(p >= 0.0 && p <= 1.0);
  Dag dag;
  dag.reserve(n, 0);
  for (std::size_t i = 0; i < n; ++i) dag.add_task(costs.sample(rng));
  // Random topological order; arcs only forward along it.
  std::vector<TaskId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  InlineVec<Arc, 64> arcs;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.bernoulli(p)) arcs.push_back(Arc{order[i], order[j]});
  add_arcs(dag, arcs);
  dag.finalize();
  return dag;
}

Dag make_in_tree(std::size_t levels, CostRange costs, Rng& rng) {
  RTDS_REQUIRE(levels >= 1);
  Dag dag;
  const std::size_t total = (std::size_t{1} << levels) - 1;
  dag.reserve(total, total - 1);
  // Built per level, leaves first; level l has 2^(levels-1-l) tasks, and
  // task i of a level feeds task i/2 of the next.
  std::size_t prev_first = 0, prev_size = 0;
  for (std::size_t l = 0; l < levels; ++l) {
    const std::size_t n = std::size_t{1} << (levels - 1 - l);
    const std::size_t first = dag.task_count();
    for (std::size_t i = 0; i < n; ++i) dag.add_task(costs.sample(rng));
    for (std::size_t i = 0; i < prev_size; ++i)
      dag.add_arc(static_cast<TaskId>(prev_first + i),
                  static_cast<TaskId>(first + i / 2));
    prev_first = first;
    prev_size = n;
  }
  dag.finalize();
  return dag;
}

Dag make_out_tree(std::size_t levels, CostRange costs, Rng& rng) {
  RTDS_REQUIRE(levels >= 1);
  Dag dag;
  const std::size_t total = (std::size_t{1} << levels) - 1;
  dag.reserve(total, total - 1);
  // Level l has 2^l tasks starting at id 2^l - 1; task i of a level hangs
  // off task i/2 of the one above.
  for (std::size_t l = 0; l < levels; ++l) {
    const std::size_t first = (std::size_t{1} << l) - 1;
    for (std::size_t i = 0; i <= first; ++i) {
      dag.add_task(costs.sample(rng));
      if (l > 0)
        dag.add_arc(static_cast<TaskId>((first - 1) / 2 + i / 2),
                    static_cast<TaskId>(first + i));
    }
  }
  dag.finalize();
  return dag;
}

Dag make_lu(std::size_t n, CostRange costs, Rng& rng) {
  RTDS_REQUIRE(n >= 1);
  Dag dag;
  // Task (k, j) with k <= j < n: pivot tasks are (k, k); update task (k, j)
  // depends on pivot (k, k) and on the same-column task of the previous
  // step. Row k's tasks follow rows 0..k-1, which hold sum (n - q) tasks.
  dag.reserve(n * (n + 1) / 2, n * (n - 1));
  for (std::size_t i = 0; i < n * (n + 1) / 2; ++i)
    dag.add_task(costs.sample(rng));
  const auto id = [n](std::size_t k, std::size_t j) {
    return static_cast<TaskId>(k * n - k * (k - 1) / 2 + (j - k));
  };
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = k + 1; j < n; ++j) {
      dag.add_arc(id(k, k), id(k, j));      // pivot feeds updates
      dag.add_arc(id(k, j), id(k + 1, j));  // next step, same column
    }
  }
  dag.finalize();
  return dag;
}

Dag make_fft(std::size_t log2n, CostRange costs, Rng& rng) {
  RTDS_REQUIRE(log2n >= 1);
  const std::size_t n = std::size_t{1} << log2n;
  Dag dag;
  // Rank r holds ids r*n .. r*n + n - 1.
  dag.reserve(n * (log2n + 1), 2 * n * log2n);
  for (std::size_t i = 0; i < n; ++i) dag.add_task(costs.sample(rng));
  for (std::size_t stage = 0; stage < log2n; ++stage) {
    for (std::size_t i = 0; i < n; ++i) dag.add_task(costs.sample(rng));
    const std::size_t prev = stage * n, cur = prev + n;
    const std::size_t stride = std::size_t{1} << stage;
    for (std::size_t i = 0; i < n; ++i) {
      dag.add_arc(static_cast<TaskId>(prev + i), static_cast<TaskId>(cur + i));
      dag.add_arc(static_cast<TaskId>(prev + (i ^ stride)),  // butterfly
                  static_cast<TaskId>(cur + i));
    }
  }
  dag.finalize();
  return dag;
}

Dag make_stencil(std::size_t w, std::size_t h, CostRange costs, Rng& rng) {
  RTDS_REQUIRE(w >= 1 && h >= 1);
  Dag dag;
  dag.reserve(w * h, (h - 1) * w + h * (w - 1));
  for (std::size_t i = 0; i < w * h; ++i) dag.add_task(costs.sample(rng));
  const auto id = [w](std::size_t r, std::size_t c) {
    return static_cast<TaskId>(r * w + c);
  };
  for (std::size_t r = 0; r < h; ++r) {
    for (std::size_t c = 0; c < w; ++c) {
      if (r > 0) dag.add_arc(id(r - 1, c), id(r, c));
      if (c > 0) dag.add_arc(id(r, c - 1), id(r, c));
    }
  }
  dag.finalize();
  return dag;
}

Dag decorate_volumes(Dag dag, double lo, double hi, Rng& rng) {
  RTDS_REQUIRE(dag.finalized());
  RTDS_REQUIRE(lo >= 0.0);
  Arc* const arcs = reinterpret_cast<Arc*>(dag.graph_.get());
  for (std::size_t i = 0; i < dag.m_; ++i)
    arcs[i].data_volume = rng.uniform(lo, hi);
  return dag;
}

const char* to_string(DagShape shape) {
  switch (shape) {
    case DagShape::kChain: return "chain";
    case DagShape::kForkJoin: return "fork_join";
    case DagShape::kDiamond: return "diamond";
    case DagShape::kLayered: return "layered";
    case DagShape::kRandom: return "random";
    case DagShape::kInTree: return "in_tree";
    case DagShape::kOutTree: return "out_tree";
    case DagShape::kLu: return "lu";
    case DagShape::kFft: return "fft";
    case DagShape::kStencil: return "stencil";
  }
  return "?";
}

Dag make_shape(DagShape shape, std::size_t approx_tasks, CostRange costs,
               Rng& rng) {
  RTDS_REQUIRE(approx_tasks >= 1);
  const auto n = approx_tasks;
  switch (shape) {
    case DagShape::kChain:
      return make_chain(n, costs, rng);
    case DagShape::kForkJoin:
      return make_fork_join(n > 2 ? n - 2 : 1, costs, rng);
    case DagShape::kDiamond: {
      const auto side = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::lround(std::sqrt(double(n)))));
      return make_diamond(side, side, costs, rng);
    }
    case DagShape::kLayered: {
      const auto width = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::lround(std::sqrt(double(n)))));
      const auto layer_count = std::max<std::size_t>(1, n / width);
      return make_layered(layer_count, width, 0.4, costs, rng);
    }
    case DagShape::kRandom:
      return make_random_dag(n, std::min(1.0, 4.0 / double(n ? n : 1)), costs,
                             rng);
    case DagShape::kInTree: {
      std::size_t levels = 1;
      while (((std::size_t{1} << levels) - 1) < n) ++levels;
      return make_in_tree(levels, costs, rng);
    }
    case DagShape::kOutTree: {
      std::size_t levels = 1;
      while (((std::size_t{1} << levels) - 1) < n) ++levels;
      return make_out_tree(levels, costs, rng);
    }
    case DagShape::kLu: {
      std::size_t side = 1;
      while (side * (side + 1) / 2 < n) ++side;
      return make_lu(side, costs, rng);
    }
    case DagShape::kFft: {
      std::size_t log2n = 1;
      while ((std::size_t{1} << log2n) * (log2n + 1) < n) ++log2n;
      return make_fft(log2n, costs, rng);
    }
    case DagShape::kStencil: {
      const auto side = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::lround(std::sqrt(double(n)))));
      return make_stencil(side, side, costs, rng);
    }
  }
  RTDS_CHECK(false);
  return Dag{};
}

}  // namespace rtds
