#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <set>
#include <span>
#include <sstream>
#include <string>

#include "dag/analysis.hpp"
#include "dag/dot.hpp"
#include "dag/generators.hpp"

// Every heap block in this binary goes through the replacements below, so
// the DagHeap cases can count what a Dag allocates and holds. Each block
// carries its size in a header; the suite is single-threaded.
namespace {
struct HeapCount {
  std::size_t blocks = 0;  // live
  std::size_t bytes = 0;   // live
  std::size_t allocations = 0;  // ever made
};
HeapCount g_heap;
constexpr std::size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
}  // namespace

void* operator new(std::size_t size) {
  auto* const p = static_cast<unsigned char*>(std::malloc(size + kHeader));
  if (p == nullptr) throw std::bad_alloc();
  std::memcpy(p, &size, sizeof size);
  ++g_heap.blocks;
  ++g_heap.allocations;
  g_heap.bytes += size;
  return p + kHeader;
}
void operator delete(void* ptr) noexcept {
  if (ptr == nullptr) return;
  auto* const p = static_cast<unsigned char*>(ptr) - kHeader;
  std::size_t size = 0;
  std::memcpy(&size, p, sizeof size);
  --g_heap.blocks;
  g_heap.bytes -= size;
  std::free(p);
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete[](void* ptr) noexcept { operator delete(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { operator delete(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept {
  operator delete(ptr);
}

namespace rtds {
namespace {

// ----------------------------------------------------------------- dag ----

TEST(Dag, BuildAndQuery) {
  Dag dag;
  const TaskId a = dag.add_task(1.0, "a");
  const TaskId b = dag.add_task(2.0);
  const TaskId c = dag.add_task(3.0);
  dag.add_arc(a, b);
  dag.add_arc(b, c);
  dag.add_arc(a, c);
  dag.add_arc(a, c);  // duplicate is idempotent
  dag.finalize();
  EXPECT_EQ(dag.task_count(), 3u);
  EXPECT_EQ(dag.arc_count(), 3u);
  EXPECT_EQ(std::vector<TaskId>(dag.successors(a).begin(), dag.successors(a).end()), (std::vector<TaskId>{b, c}));
  EXPECT_EQ(std::vector<TaskId>(dag.predecessors(c).begin(), dag.predecessors(c).end()), (std::vector<TaskId>{a, b}));
  EXPECT_TRUE(std::ranges::equal(dag.topological_order(),
                                 std::vector<TaskId>{a, b, c}));
  EXPECT_DOUBLE_EQ(dag.total_work(), 6.0);
  EXPECT_TRUE(dag.reaches(a, c));
  EXPECT_FALSE(dag.reaches(c, a));
  EXPECT_FALSE(dag.reaches(a, a));
}

TEST(Dag, LabelsAreOptionalPerTask) {
  Dag dag;
  dag.add_task(1.0);
  dag.add_task(2.0, "load data");
  dag.add_task(3.0);
  dag.add_task(4.0, "x");
  dag.add_arc(0, 1);
  EXPECT_EQ(dag.label(1), "load data");  // readable while building
  EXPECT_THROW(dag.add_task(1.0, "two\nlines"), ContractViolation);
  dag.finalize();
  const Dag copy = dag;
  for (const Dag* d : std::initializer_list<const Dag*>{&dag, &copy}) {
    EXPECT_EQ(d->label(0), "");
    EXPECT_EQ(d->label(1), "load data");
    EXPECT_EQ(d->label(2), "");
    EXPECT_EQ(d->label(3), "x");
  }
  Dag unlabelled;
  unlabelled.add_task(1.0);
  unlabelled.finalize();
  EXPECT_EQ(unlabelled.label(0), "");
}

TEST(Dag, MovedFromDagIsEmpty) {
  Dag dag = paper_example();
  const Dag moved = std::move(dag);
  EXPECT_EQ(moved.task_count(), 5u);
  EXPECT_EQ(moved.label(4), "t5");
  EXPECT_EQ(dag.task_count(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(dag.finalized());
}

TEST(Dag, CycleDetected) {
  Dag dag;
  const TaskId a = dag.add_task(1.0);
  const TaskId b = dag.add_task(1.0);
  dag.add_arc(a, b);
  dag.add_arc(b, a);
  EXPECT_THROW(dag.finalize(), ContractViolation);
}

TEST(Dag, InvalidInputsRejected) {
  Dag dag;
  EXPECT_THROW(dag.add_task(0.0), ContractViolation);
  EXPECT_THROW(dag.add_task(-1.0), ContractViolation);
  const TaskId a = dag.add_task(1.0);
  EXPECT_THROW(dag.add_arc(a, a), ContractViolation);
  EXPECT_THROW(dag.add_arc(a, 5), ContractViolation);
  EXPECT_THROW(dag.predecessors(a), ContractViolation);  // not finalized
  dag.finalize();
  EXPECT_THROW(dag.add_task(1.0), ContractViolation);  // frozen
  EXPECT_THROW(dag.finalize(), ContractViolation);     // double finalize
}

TEST(Dag, DataVolumes) {
  Dag dag;
  const TaskId a = dag.add_task(1.0);
  const TaskId b = dag.add_task(1.0);
  dag.add_arc(a, b, 12.5);
  dag.finalize();
  EXPECT_DOUBLE_EQ(dag.data_volume(a, b), 12.5);
  EXPECT_THROW(dag.data_volume(b, a), ContractViolation);
}

// ------------------------------------------------------------ analysis ----

TEST(Analysis, ChainLevels) {
  Rng rng(1);
  const Dag dag = make_chain(4, CostRange{2.0, 2.0}, rng);
  const auto bl = bottom_levels(dag);
  const auto tl = top_levels(dag);
  EXPECT_DOUBLE_EQ(bl[0], 8.0);
  EXPECT_DOUBLE_EQ(bl[3], 2.0);
  EXPECT_DOUBLE_EQ(tl[0], 0.0);
  EXPECT_DOUBLE_EQ(tl[3], 6.0);
  EXPECT_DOUBLE_EQ(critical_path_length(dag), 8.0);
  EXPECT_EQ(critical_path_task_count(dag), 4u);
  EXPECT_EQ(depth(dag), 4u);
  EXPECT_EQ(width(dag), 1u);
}

TEST(Analysis, ForkJoinShape) {
  Rng rng(2);
  const Dag dag = make_fork_join(5, CostRange{1.0, 1.0}, rng);
  EXPECT_EQ(dag.task_count(), 7u);
  EXPECT_DOUBLE_EQ(critical_path_length(dag), 3.0);
  EXPECT_EQ(critical_path_task_count(dag), 3u);
  EXPECT_EQ(depth(dag), 3u);
  EXPECT_EQ(width(dag), 5u);
  const auto s = summarize(dag);
  EXPECT_DOUBLE_EQ(s.total_work, 7.0);
  EXPECT_NEAR(s.parallelism, 7.0 / 3.0, 1e-12);
}

TEST(Analysis, CriticalPathTasksIsAPath) {
  Rng rng(3);
  const Dag dag = make_layered(5, 4, 0.5, CostRange{1.0, 9.0}, rng);
  const auto path = critical_path_tasks(dag);
  ASSERT_FALSE(path.empty());
  Time length = 0.0;
  for (std::size_t i = 0; i < path.size(); ++i) {
    length += dag.cost(path[i]);
    if (i > 0) {
      const auto& preds = dag.predecessors(path[i]);
      EXPECT_NE(std::find(preds.begin(), preds.end(), path[i - 1]),
                preds.end())
          << "consecutive critical tasks must be linked";
    }
  }
  EXPECT_NEAR(length, critical_path_length(dag), 1e-9);
}

TEST(Analysis, EtaOnDiamond) {
  // Diamond a -> {b, c} -> d with heavy b: critical path a,b,d (3 tasks).
  Dag dag;
  const auto a = dag.add_task(1.0);
  const auto b = dag.add_task(5.0);
  const auto c = dag.add_task(1.0);
  const auto d = dag.add_task(1.0);
  dag.add_arc(a, b);
  dag.add_arc(a, c);
  dag.add_arc(b, d);
  dag.add_arc(c, d);
  dag.finalize();
  EXPECT_DOUBLE_EQ(critical_path_length(dag), 7.0);
  EXPECT_EQ(critical_path_task_count(dag), 3u);
}

TEST(Analysis, EtaCountsLongestWhenTied) {
  // Two critical paths with different task counts: a->z (6+1) and
  // a->b->c->z would tie if costs align. Build: src cost 3 then either one
  // task of 4 or two tasks of 2 each, then sink 1. Both paths length 8.
  Dag dag;
  const auto src = dag.add_task(3.0);
  const auto big = dag.add_task(4.0);
  const auto s1 = dag.add_task(2.0);
  const auto s2 = dag.add_task(2.0);
  const auto sink = dag.add_task(1.0);
  dag.add_arc(src, big);
  dag.add_arc(src, s1);
  dag.add_arc(s1, s2);
  dag.add_arc(big, sink);
  dag.add_arc(s2, sink);
  dag.finalize();
  EXPECT_DOUBLE_EQ(critical_path_length(dag), 8.0);
  EXPECT_EQ(critical_path_task_count(dag), 4u);  // src, s1, s2, sink
}

// ---------------------------------------------------------- generators ----

struct ShapeCase {
  DagShape shape;
  std::size_t approx;
};

class GeneratorShapes : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(GeneratorShapes, ProducesValidDagOfRoughlyRequestedSize) {
  Rng rng(77);
  const auto [shape, approx] = GetParam();
  const Dag dag = make_shape(shape, approx, CostRange{1.0, 5.0}, rng);
  EXPECT_TRUE(dag.finalized());
  EXPECT_GE(dag.task_count(), 1u);
  // Generators honour the approximate size within a generous factor.
  EXPECT_LE(dag.task_count(), 6 * approx + 8);
  // All costs in range.
  for (TaskId t = 0; t < dag.task_count(); ++t) {
    EXPECT_GE(dag.cost(t), 1.0);
    EXPECT_LE(dag.cost(t), 5.0);
  }
  // Topological order is consistent (finalize already proved acyclicity).
  std::vector<std::size_t> pos(dag.task_count());
  for (std::size_t i = 0; i < dag.topological_order().size(); ++i)
    pos[dag.topological_order()[i]] = i;
  for (const auto& arc : dag.arcs()) EXPECT_LT(pos[arc.from], pos[arc.to]);
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, GeneratorShapes,
    ::testing::Values(ShapeCase{DagShape::kChain, 8},
                      ShapeCase{DagShape::kForkJoin, 10},
                      ShapeCase{DagShape::kDiamond, 16},
                      ShapeCase{DagShape::kLayered, 20},
                      ShapeCase{DagShape::kRandom, 15},
                      ShapeCase{DagShape::kInTree, 15},
                      ShapeCase{DagShape::kOutTree, 15},
                      ShapeCase{DagShape::kLu, 15},
                      ShapeCase{DagShape::kFft, 24},
                      ShapeCase{DagShape::kStencil, 16}),
    [](const auto& info) { return to_string(info.param.shape); });

TEST(Generators, ChainIsAChain) {
  Rng rng(4);
  const Dag dag = make_chain(6, CostRange{1.0, 2.0}, rng);
  EXPECT_EQ(dag.task_count(), 6u);
  EXPECT_EQ(dag.arc_count(), 5u);
  EXPECT_EQ(width(dag), 1u);
  EXPECT_EQ(depth(dag), 6u);
}

TEST(Generators, LayeredAlwaysConnectedToPreviousLayer) {
  Rng rng(5);
  const Dag dag = make_layered(6, 5, 0.05, CostRange{1.0, 2.0}, rng);
  // Even with tiny edge probability every non-first-layer task has a pred.
  std::size_t no_pred = 0;
  for (TaskId t = 0; t < dag.task_count(); ++t)
    if (dag.predecessors(t).empty()) ++no_pred;
  EXPECT_EQ(no_pred, 5u);  // exactly the first layer
}

TEST(Generators, InTreeHasSingleSink) {
  Rng rng(6);
  const Dag dag = make_in_tree(4, CostRange{1.0, 2.0}, rng);
  EXPECT_EQ(dag.task_count(), 15u);
  EXPECT_EQ(dag.sinks().size(), 1u);
  EXPECT_EQ(dag.sources().size(), 8u);
}

TEST(Generators, OutTreeHasSingleSource) {
  Rng rng(7);
  const Dag dag = make_out_tree(4, CostRange{1.0, 2.0}, rng);
  EXPECT_EQ(dag.task_count(), 15u);
  EXPECT_EQ(dag.sources().size(), 1u);
  EXPECT_EQ(dag.sinks().size(), 8u);
}

TEST(Generators, FftButterflyStructure) {
  Rng rng(8);
  const Dag dag = make_fft(3, CostRange{1.0, 1.0}, rng);
  EXPECT_EQ(dag.task_count(), 8u * 4u);
  EXPECT_EQ(depth(dag), 4u);
  // Every non-input task has exactly two predecessors.
  for (TaskId t = 8; t < dag.task_count(); ++t)
    EXPECT_EQ(dag.predecessors(t).size(), 2u);
}

TEST(Generators, StencilDependencies) {
  Rng rng(9);
  const Dag dag = make_stencil(3, 3, CostRange{1.0, 1.0}, rng);
  EXPECT_EQ(dag.task_count(), 9u);
  EXPECT_EQ(dag.sources().size(), 1u);
  EXPECT_EQ(dag.sinks().size(), 1u);
  EXPECT_EQ(depth(dag), 5u);  // Manhattan diagonal
}

TEST(Generators, LuTaskCount) {
  Rng rng(10);
  const Dag dag = make_lu(4, CostRange{1.0, 1.0}, rng);
  EXPECT_EQ(dag.task_count(), 10u);  // n(n+1)/2
  EXPECT_EQ(dag.sinks().size(), 1u);
}

TEST(Generators, RandomDagEdgeMonotone) {
  Rng rng(11);
  const Dag sparse = make_random_dag(30, 0.05, CostRange{1.0, 2.0}, rng);
  const Dag dense = make_random_dag(30, 0.6, CostRange{1.0, 2.0}, rng);
  EXPECT_LT(sparse.arc_count(), dense.arc_count());
}

// Every field a finalized Dag exposes, doubles in hexfloat: costs, labels,
// arcs with their volumes, the pred/succ CSR rows, the topological order,
// sources, sinks, bottom levels and the critical path.
std::string describe(const Dag& dag) {
  std::ostringstream os;
  os << std::hexfloat << dag.task_count() << ':';
  for (TaskId t = 0; t < dag.task_count(); ++t)
    os << dag.cost(t) << '/' << dag.label(t) << ',';
  os << '|';
  for (const auto& a : dag.arcs())
    os << a.from << '>' << a.to << '=' << a.data_volume << ',';
  for (TaskId t = 0; t < dag.task_count(); ++t) {
    os << "|p";
    for (TaskId p : dag.predecessors(t)) os << p << ',';
    os << 's';
    for (TaskId s : dag.successors(t)) os << s << ',';
  }
  const auto list = [&os](const char* tag, std::span<const TaskId> ids) {
    os << tag;
    for (TaskId t : ids) os << t << ',';
  };
  list("|topo", dag.topological_order());
  list("|src", dag.sources());
  list("|snk", dag.sinks());
  os << "|bl";
  for (Time b : dag.bottom_levels()) os << b << ',';
  os << "|cp" << dag.critical_path() << '\n';
  return os.str();
}

// FNV-1a over the description of every generated DAG: each shape at 1–16
// requested tasks and 20 seeds, the volume-decorated copy of each, and
// make_random_dag directly (its arcs are not in id order). Pins the
// generators and finalize() byte for byte.
TEST(Generators, GeneratedDagsArePinned) {
  std::uint64_t h = 14695981039346656037ull;
  const auto feed = [&h](const Dag& dag) {
    for (const unsigned char c : describe(dag)) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  feed(paper_example());
  for (int s = 0; s <= static_cast<int>(DagShape::kStencil); ++s) {
    for (std::size_t n = 1; n <= 16; ++n) {
      for (std::uint64_t seed = 0; seed < 20; ++seed) {
        Rng rng(seed * 131 + n);
        const Dag dag =
            make_shape(static_cast<DagShape>(s), n, CostRange{1.0, 9.0}, rng);
        feed(dag);
        feed(decorate_volumes(dag, 0.5, 4.0, rng));
      }
    }
  }
  for (std::size_t n = 1; n <= 16; ++n) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      Rng rng(seed * 977 + n);
      for (const double p : {0.0, 0.3, 0.8})
        feed(make_random_dag(n, p, CostRange{1.0, 9.0}, rng));
    }
  }
  EXPECT_EQ(h, 10114931922485299920ull);
}

// ---------------------------------------------------------- heap blocks --

// A finalized DAG's exact footprint: costs and bottom levels in one block;
// arcs, the CSR offsets and ids, the topological order, sources, sinks
// and, when labelled, the label ends and characters in the other.
std::size_t exact_bytes(const Dag& dag) {
  const std::size_t n = dag.task_count(), m = dag.arc_count();
  std::size_t label_chars = 0;
  for (TaskId t = 0; t < n; ++t) label_chars += dag.label(t).size();
  const std::size_t words = 2 * (n + 1) + 2 * m + n + dag.sources().size() +
                            dag.sinks().size() + (label_chars ? n : 0);
  return 2 * sizeof(Time) * n + sizeof(Arc) * m +
         sizeof(std::uint32_t) * words + label_chars;
}

TEST(DagHeap, GeneratedDagsOwnAtMostTwoExactBlocks) {
  for (int s = 0; s <= static_cast<int>(DagShape::kStencil); ++s) {
    for (const std::size_t n : {1, 7, 40}) {
      const auto shape = static_cast<DagShape>(s);
      Rng rng(n);
      const HeapCount before = g_heap;
      const Dag dag = make_shape(shape, n, CostRange{1.0, 9.0}, rng);
      EXPECT_LE(g_heap.blocks - before.blocks, 2u) << to_string(shape) << n;
      EXPECT_EQ(g_heap.bytes - before.bytes, exact_bytes(dag))
          << to_string(shape) << n;

      const HeapCount copied = g_heap;
      const Dag copy = dag;  // copies are exact too
      EXPECT_LE(g_heap.blocks - copied.blocks, 2u) << to_string(shape) << n;
      EXPECT_EQ(g_heap.bytes - copied.bytes, exact_bytes(dag))
          << to_string(shape) << n;
    }
  }
}

TEST(DagHeap, UnlabelledDagAllocatesNoLabelStorage) {
  // With exact reserves the build makes three allocations: the cost block,
  // the arc block, and the finalized graph block that replaces the latter.
  const auto build = [](const char* label) {
    Dag dag;
    dag.reserve(3, 2);
    dag.add_task(1.0);
    dag.add_task(2.0, label);
    dag.add_task(3.0);
    dag.add_arc(0, 1);
    dag.add_arc(1, 2);
    dag.finalize();
    return dag;
  };
  HeapCount before = g_heap;
  const Dag plain = build("");
  EXPECT_EQ(g_heap.allocations - before.allocations, 3u);
  EXPECT_EQ(g_heap.blocks - before.blocks, 2u);
  EXPECT_EQ(g_heap.bytes - before.bytes, exact_bytes(plain));

  before = g_heap;
  const Dag labelled = build("load");  // labels are staged, then packed
  EXPECT_GT(g_heap.allocations - before.allocations, 3u);
  EXPECT_EQ(g_heap.blocks - before.blocks, 2u);
  EXPECT_EQ(g_heap.bytes - before.bytes, exact_bytes(plain) + 3 * 4 + 4);
}

// ----------------------------------------------------------------- dot ----

TEST(Dot, ContainsTasksAndArcs) {
  const Dag dag = paper_example();
  const std::string dot = to_dot(dag, "fig2");
  EXPECT_NE(dot.find("digraph fig2"), std::string::npos);
  EXPECT_NE(dot.find("t0 -> t2"), std::string::npos);
  EXPECT_NE(dot.find("c=6"), std::string::npos);
}

TEST(Dot, LabelsAreEscaped) {
  Dag dag;
  dag.add_task(2.0, "say \"hi\"");
  dag.add_task(3.0, "a\\b");
  dag.finalize();
  const std::string dot = to_dot(dag, "g");
  EXPECT_NE(dot.find("t0 [label=\"say \\\"hi\\\"\\nc=2\"];"),
            std::string::npos)
      << dot;
  EXPECT_NE(dot.find("t1 [label=\"a\\\\b\\nc=3\"];"), std::string::npos)
      << dot;
}

}  // namespace
}  // namespace rtds
