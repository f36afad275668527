// Exact reproduction of the paper's worked example (§12, §12.1, §12.2):
// Figure 2 (the task graph), Figure 3 (schedule S, makespan M = 33),
// Figure 4 (schedule S*, makespan M* = 19) and every cell of Table 1.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/mapper.hpp"
#include "dag/analysis.hpp"
#include "dag/generators.hpp"

namespace rtds {
namespace {

MapperInput paper_input(const Dag& dag) {
  MapperInput in;
  in.dag = &dag;
  in.release = 0.0;   // "for sake of simplicity its release is r = 0"
  in.deadline = 66.0; // "we consider the deadline of the job is d = 66"
  in.surpluses = {0.5, 0.4};  // I1 = 0.5, I2 = 0.4
  in.comm_diameter = 3.0;     // "computed diameter of the ACS is equal to 3"
  return in;
}

TEST(PaperExample, Figure2Structure) {
  const Dag dag = paper_example();
  ASSERT_EQ(dag.task_count(), 5u);
  ASSERT_EQ(dag.arc_count(), 6u);
  EXPECT_DOUBLE_EQ(dag.cost(0), 6.0);
  EXPECT_DOUBLE_EQ(dag.cost(1), 4.0);
  EXPECT_DOUBLE_EQ(dag.cost(2), 4.0);
  EXPECT_DOUBLE_EQ(dag.cost(3), 2.0);
  EXPECT_DOUBLE_EQ(dag.cost(4), 5.0);
  EXPECT_EQ(std::vector<TaskId>(dag.predecessors(2).begin(), dag.predecessors(2).end()), (std::vector<TaskId>{0, 1}));
  EXPECT_EQ(std::vector<TaskId>(dag.predecessors(3).begin(), dag.predecessors(3).end()), (std::vector<TaskId>{0, 1}));
  EXPECT_EQ(std::vector<TaskId>(dag.predecessors(4).begin(), dag.predecessors(4).end()), (std::vector<TaskId>{2, 3}));
  EXPECT_TRUE(std::ranges::equal(dag.sources(), std::vector<TaskId>{0, 1}));
  EXPECT_TRUE(std::ranges::equal(dag.sinks(), std::vector<TaskId>{4}));
}

TEST(PaperExample, Figure3ScheduleS) {
  const Dag dag = paper_example();
  const auto m = build_trial_mapping(paper_input(dag));
  ASSERT_TRUE(m.has_value());

  // M = 33 ("M = 33 and the scaling factor is (d-r)/M = 2").
  EXPECT_NEAR(m->makespan, 33.0, 1e-9);

  // Table 1 columns r_i / d_i: the schedule S of Figure 3.
  const std::vector<double> ri = {0, 0, 13, 15, 23};
  const std::vector<double> di = {12, 10, 21, 20, 33};
  for (TaskId t = 0; t < 5; ++t) {
    EXPECT_NEAR(m->s_start[t], ri[t], 1e-9) << "r_" << (t + 1);
    EXPECT_NEAR(m->s_finish[t], di[t], 1e-9) << "d_" << (t + 1);
  }

  // Mapping: p0 <- {t1, t3, t5}, p1 <- {t2, t4} (1-based task names).
  EXPECT_EQ(m->used_processors, 2u);
  EXPECT_EQ(m->assignment[0], m->assignment[2]);
  EXPECT_EQ(m->assignment[2], m->assignment[4]);
  EXPECT_EQ(m->assignment[1], m->assignment[3]);
  EXPECT_NE(m->assignment[0], m->assignment[1]);
  // t1's processor is the higher-surplus one (I = 0.5).
  EXPECT_DOUBLE_EQ(m->surpluses[m->assignment[0]], 0.5);
  EXPECT_DOUBLE_EQ(m->surpluses[m->assignment[1]], 0.4);
}

TEST(PaperExample, Figure4ScheduleStar) {
  const Dag dag = paper_example();
  const auto m = build_trial_mapping(paper_input(dag));
  ASSERT_TRUE(m.has_value());

  // S*: same mapping at 100% surplus. M* = 19 is the lower bound of M.
  EXPECT_NEAR(m->makespan_full, 19.0, 1e-9);
  const std::vector<double> star_start = {0, 0, 7, 9, 14};
  const std::vector<double> star_finish = {6, 4, 11, 11, 19};
  for (TaskId t = 0; t < 5; ++t) {
    EXPECT_NEAR(m->star_start[t], star_start[t], 1e-9) << "t" << (t + 1);
    EXPECT_NEAR(m->star_finish[t], star_finish[t], 1e-9) << "t" << (t + 1);
  }
}

TEST(PaperExample, Table1AdjustedWindows) {
  const Dag dag = paper_example();
  const auto m = build_trial_mapping(paper_input(dag));
  ASSERT_TRUE(m.has_value());

  // M = 33 <= d - r = 66: case (ii), scaling factor exactly 2.
  EXPECT_EQ(m->adjustment, AdjustmentCase::kStretch);

  // Table 1: ti | ri | di | r(ti) | d(ti).
  struct Row {
    double ri, di, r_adj, d_adj;
  };
  const std::vector<Row> table1 = {
      {0, 12, 0, 24}, {0, 10, 0, 20}, {13, 21, 24, 42},
      {15, 20, 27, 40}, {23, 33, 43, 66},
  };
  for (TaskId t = 0; t < 5; ++t) {
    EXPECT_NEAR(m->s_start[t], table1[t].ri, 1e-9) << "row " << (t + 1);
    EXPECT_NEAR(m->s_finish[t], table1[t].di, 1e-9) << "row " << (t + 1);
    EXPECT_NEAR(m->release[t], table1[t].r_adj, 1e-9) << "row " << (t + 1);
    EXPECT_NEAR(m->deadline[t], table1[t].d_adj, 1e-9) << "row " << (t + 1);
  }
}

TEST(PaperExample, AdjustedWindowsAreExecutable) {
  const Dag dag = paper_example();
  const auto m = build_trial_mapping(paper_input(dag));
  ASSERT_TRUE(m.has_value());
  // Every window holds its task at full speed, and precedence + the ACS
  // diameter are respected between windows on different processors.
  for (TaskId t = 0; t < 5; ++t) {
    EXPECT_LE(m->release[t] + dag.cost(t), m->deadline[t] + 1e-9);
    for (TaskId p : dag.predecessors(t)) {
      const double omega = m->assignment[p] == m->assignment[t] ? 0.0 : 3.0;
      EXPECT_GE(m->release[t] + 1e-9, m->deadline[p] + omega);
    }
  }
}

TEST(PaperExample, CaseIRejection) {
  // Same instance with a deadline below M* = 19: case (i), rejected.
  const Dag dag = paper_example();
  MapperInput in = paper_input(dag);
  in.deadline = 18.0;
  AdjustmentCase failure = AdjustmentCase::kStretch;
  EXPECT_FALSE(build_trial_mapping(in, {}, &failure).has_value());
  EXPECT_EQ(failure, AdjustmentCase::kReject);
}

TEST(PaperExample, CaseIIIBetweenBounds) {
  // Deadline between M* = 19 and M = 33 exercises case (iii).
  const Dag dag = paper_example();
  MapperInput in = paper_input(dag);
  in.deadline = 28.0;
  const auto m = build_trial_mapping(in);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->adjustment, AdjustmentCase::kLaxity);
  for (TaskId t = 0; t < 5; ++t) {
    EXPECT_LE(m->release[t] + dag.cost(t), m->deadline[t] + 1e-9)
        << "t" << (t + 1);
    EXPECT_LE(m->deadline[t], in.deadline + 1e-9);
    EXPECT_GE(m->release[t] + 1e-9, in.release);
  }
  // Sink deadline pinned to d (eq. 4 first branch).
  EXPECT_NEAR(m->deadline[4], 28.0, 1e-9);
}

TEST(PaperExample, CriticalPathPriorities) {
  // §12: priority of t is the longest node-weighted path to a sink,
  // t included: {15, 13, 9, 7, 5}.
  const Dag dag = paper_example();
  const auto bl = bottom_levels(dag);
  const std::vector<double> expected = {15, 13, 9, 7, 5};
  for (TaskId t = 0; t < 5; ++t) EXPECT_NEAR(bl[t], expected[t], 1e-9);
}

}  // namespace
}  // namespace rtds
