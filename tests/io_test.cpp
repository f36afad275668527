// Serialization round-trips (dag/net/trace text formats) and strict-parse
// error behaviour.
#include <gtest/gtest.h>

#include "core/trace_io.hpp"
#include "dag/analysis.hpp"
#include "dag/generators.hpp"
#include "dag/io.hpp"
#include "net/generators.hpp"
#include "net/io.hpp"

namespace rtds {
namespace {

// ----------------------------------------------------------------- dag ----

void expect_same_dag(const Dag& a, const Dag& b) {
  ASSERT_EQ(a.task_count(), b.task_count());
  ASSERT_EQ(a.arc_count(), b.arc_count());
  for (TaskId t = 0; t < a.task_count(); ++t) {
    EXPECT_DOUBLE_EQ(a.cost(t), b.cost(t));
    EXPECT_EQ(a.label(t), b.label(t));
    EXPECT_EQ(std::vector<TaskId>(a.predecessors(t).begin(), a.predecessors(t).end()),
              std::vector<TaskId>(b.predecessors(t).begin(), b.predecessors(t).end()));
    EXPECT_EQ(std::vector<TaskId>(a.successors(t).begin(), a.successors(t).end()),
              std::vector<TaskId>(b.successors(t).begin(), b.successors(t).end()));
  }
  for (const auto& arc : a.arcs())
    EXPECT_DOUBLE_EQ(a.data_volume(arc.from, arc.to),
                     b.data_volume(arc.from, arc.to));
}

TEST(DagIo, RoundTripPaperExample) {
  const Dag dag = paper_example();
  const Dag copy = dag_from_string(dag_to_string(dag));
  expect_same_dag(dag, copy);
  EXPECT_TRUE(copy.finalized());
}

class DagIoShapes : public ::testing::TestWithParam<DagShape> {};

TEST_P(DagIoShapes, RoundTripPreservesStructureAndAnalysis) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 99);
  const Dag dag = make_shape(GetParam(), 17, CostRange{0.5, 9.5}, rng);
  const Dag copy = dag_from_string(dag_to_string(dag));
  expect_same_dag(dag, copy);
  EXPECT_DOUBLE_EQ(critical_path_length(dag), critical_path_length(copy));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DagIoShapes,
    ::testing::Values(DagShape::kChain, DagShape::kForkJoin, DagShape::kLayered,
                      DagShape::kRandom, DagShape::kLu, DagShape::kFft),
    [](const auto& info) { return to_string(info.param); });

TEST(DagIo, DataVolumesSurviveRoundTrip) {
  Dag dag;
  const auto a = dag.add_task(1.0, "producer");
  const auto b = dag.add_task(2.0, "consumer");
  dag.add_arc(a, b, 123.456);
  dag.finalize();
  const Dag copy = dag_from_string(dag_to_string(dag));
  EXPECT_DOUBLE_EQ(copy.data_volume(0, 1), 123.456);
  EXPECT_EQ(copy.label(0), "producer");
}

TEST(DagIo, LabelWithSpacesSurvivesRoundTrip) {
  Dag dag;
  dag.add_task(1.0, "load data");
  dag.add_task(2.0, " padded ");
  dag.add_task(3.0);
  dag.add_arc(0, 1);
  dag.finalize();
  const Dag copy = dag_from_string(dag_to_string(dag));
  expect_same_dag(dag, copy);
  EXPECT_EQ(copy.label(0), "load data");
  EXPECT_EQ(copy.label(1), " padded ");
  EXPECT_EQ(copy.label(2), "");
  // Hand-written input: everything after the cost's separator is the label.
  const Dag read = dag_from_string(
      "dag v1\ntasks 1\ntask 0 1.5 load data\narcs 0\nend\n");
  EXPECT_EQ(read.label(0), "load data");
  EXPECT_THROW(dag_from_string("dag v1\ntasks 1\ntask 0 1.5x\narcs 0\nend\n"),
               ContractViolation);
}

TEST(DagIo, MalformedInputRejectedWithLineInfo) {
  EXPECT_THROW(dag_from_string("bogus"), ContractViolation);
  EXPECT_THROW(dag_from_string("dag v2\ntasks 0\narcs 0\nend\n"),
               ContractViolation);
  EXPECT_THROW(dag_from_string("dag v1\ntasks 1\ntask 0 -3\narcs 0\nend\n"),
               ContractViolation);
  EXPECT_THROW(dag_from_string("dag v1\ntasks 1\ntask 5 1.0\narcs 0\nend\n"),
               ContractViolation);
  EXPECT_THROW(
      dag_from_string("dag v1\ntasks 2\ntask 0 1\ntask 1 1\narcs 1\n"
                      "arc 0 7 0\nend\n"),
      ContractViolation);
  // Cycle: finalize() rejects it.
  EXPECT_THROW(
      dag_from_string("dag v1\ntasks 2\ntask 0 1\ntask 1 1\narcs 2\n"
                      "arc 0 1 0\narc 1 0 0\nend\n"),
      ContractViolation);
  // Truncated input.
  EXPECT_THROW(dag_from_string("dag v1\ntasks 2\ntask 0 1\n"),
               ContractViolation);
}

TEST(DagIo, CommentsAndBlankLinesIgnored) {
  const Dag copy = dag_from_string(
      "# a comment\ndag v1\n# another\ntasks 1\ntask 0 2.5\narcs 0\nend\n");
  EXPECT_EQ(copy.task_count(), 1u);
  EXPECT_DOUBLE_EQ(copy.cost(0), 2.5);
}

// ----------------------------------------------------------------- net ----

void expect_same_topology(const Topology& a, const Topology& b) {
  ASSERT_EQ(a.site_count(), b.site_count());
  ASSERT_EQ(a.link_count(), b.link_count());
  for (SiteId s = 0; s < a.site_count(); ++s)
    EXPECT_DOUBLE_EQ(a.computing_power(s), b.computing_power(s));
  for (const auto& l : a.links()) {
    EXPECT_TRUE(b.adjacent(l.a, l.b));
    EXPECT_DOUBLE_EQ(b.link_delay(l.a, l.b), l.delay);
  }
}

class NetIoShapes : public ::testing::TestWithParam<NetShape> {};

TEST_P(NetIoShapes, RoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 7);
  const Topology topo = make_net(GetParam(), 18, DelayRange{0.5, 3.0}, rng);
  const Topology copy = topology_from_string(topology_to_string(topo));
  expect_same_topology(topo, copy);
  EXPECT_TRUE(copy.connected());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NetIoShapes,
    ::testing::Values(NetShape::kRing, NetShape::kGrid, NetShape::kTree,
                      NetShape::kGeometric, NetShape::kScaleFree),
    [](const auto& info) { return to_string(info.param); });

TEST(NetIo, HeterogeneousPowersSurvive) {
  Topology topo;
  topo.add_site(1.0);
  topo.add_site(2.5);
  topo.add_link(0, 1, 3.25, 10.0);
  const Topology copy = topology_from_string(topology_to_string(topo));
  EXPECT_DOUBLE_EQ(copy.computing_power(1), 2.5);
  EXPECT_DOUBLE_EQ(copy.links()[0].throughput, 10.0);
}

TEST(NetIo, MalformedInputRejected) {
  EXPECT_THROW(topology_from_string("net v1\nsites 1\nsite 0 0.0\nlinks 0\nend\n"),
               ContractViolation);  // zero power
  EXPECT_THROW(topology_from_string("net v1\nsites 2\nsite 0 1\nsite 1 1\n"
                                    "links 1\nlink 0 5 1 0\nend\n"),
               ContractViolation);  // out-of-range link
  EXPECT_THROW(topology_from_string(""), ContractViolation);
}

// --------------------------------------------------------------- trace ----

TEST(TraceIo, RoundTripWorkload) {
  WorkloadConfig wl;
  wl.arrival_rate_per_site = 0.05;
  wl.horizon = 100.0;
  wl.seed = 3;
  const auto arrivals = generate_workload(6, wl);
  ASSERT_FALSE(arrivals.empty());
  const auto copy = trace_from_string(trace_to_string(arrivals));
  ASSERT_EQ(copy.size(), arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(copy[i].site, arrivals[i].site);
    EXPECT_EQ(copy[i].job->id, arrivals[i].job->id);
    EXPECT_DOUBLE_EQ(copy[i].job->release, arrivals[i].job->release);
    EXPECT_DOUBLE_EQ(copy[i].job->deadline, arrivals[i].job->deadline);
    expect_same_dag(copy[i].job->dag, arrivals[i].job->dag);
  }
}

TEST(TraceIo, EmptyTrace) {
  const auto copy = trace_from_string(trace_to_string({}));
  EXPECT_TRUE(copy.empty());
}

TEST(TraceIo, MalformedRejected) {
  EXPECT_THROW(trace_from_string("nope"), ContractViolation);
  EXPECT_THROW(trace_from_string("trace v1\njobs 1\nend\n"), ContractViolation);
}

}  // namespace
}  // namespace rtds
