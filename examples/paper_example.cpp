// Walks through the paper's §12 worked example step by step, printing every
// intermediate quantity with the formula that produced it — a companion to
// reading the paper. `rtds_exp --report=fig2_table1` prints the same
// artifacts in table form; this example narrates them.
#include <iostream>

#include "core/mapper.hpp"
#include "dag/analysis.hpp"
#include "dag/generators.hpp"

using namespace rtds;

int main() {
  const Dag dag = paper_example();

  std::cout << "The job (Fig. 2): 5 tasks, costs c = {6, 4, 4, 2, 5}\n";
  std::cout << "arcs: t1->t3 t2->t3 t1->t4 t2->t4 t3->t5 t4->t5\n\n";

  std::cout << "List-scheduling priorities (longest node-weighted path to a "
               "sink, task included):\n";
  const auto bl = bottom_levels(dag);
  for (TaskId t = 0; t < dag.task_count(); ++t)
    std::cout << "  priority(t" << t + 1 << ") = " << bl[t] << "\n";

  MapperInput in;
  in.dag = &dag;
  in.release = 0.0;
  in.deadline = 66.0;
  in.surpluses = {0.5, 0.4};
  in.comm_diameter = 3.0;
  std::cout << "\nMapper inputs: surpluses I1 = 0.5, I2 = 0.4; ACS diameter "
               "omega = 3; job window [0, 66]\n\n";

  const auto m = build_trial_mapping(in);
  if (!m) {
    std::cerr << "unexpected rejection\n";
    return 1;
  }

  std::cout << "Schedule S (execution time = c(t)/I, start >= preds' d + "
               "omega when crossing processors):\n";
  for (TaskId t = 0; t < dag.task_count(); ++t)
    std::cout << "  t" << t + 1 << " on p" << m->assignment[t] + 1 << ": r_"
              << t + 1 << " = " << m->s_start[t] << ", d_" << t + 1 << " = "
              << m->s_finish[t] << "   (duration " << dag.cost(t) << "/"
              << m->surpluses[m->assignment[t]] << ")\n";
  std::cout << "  makespan M = " << m->makespan << "\n\n";

  std::cout << "Schedule S* (same mapping, surpluses = 100%):\n";
  for (TaskId t = 0; t < dag.task_count(); ++t)
    std::cout << "  t" << t + 1 << ": [" << m->star_start[t] << ", "
              << m->star_finish[t] << ")\n";
  std::cout << "  makespan M* = " << m->makespan_full
            << "  (lower bound of M for this mapping)\n\n";

  std::cout << "Case analysis (§12.2): M* = " << m->makespan_full
            << " <= d - r = 66 and M = " << m->makespan
            << " <= d - r, so case (ii): stretch by (d-r)/M = "
            << 66.0 / m->makespan << "\n\n";

  std::cout << "Adjusted windows (eq. 3 then eq. 5) — Table 1:\n";
  std::cout << "  ti   ri   di   r(ti)   d(ti)\n";
  for (TaskId t = 0; t < dag.task_count(); ++t)
    std::cout << "  t" << t + 1 << "    " << m->s_start[t] << "    "
              << m->s_finish[t] << "    " << m->release[t] << "    "
              << m->deadline[t] << "\n";

  std::cout << "\nThese windows are what the ACS sites validate against "
               "their exact idle intervals (§10); the maximum coupling then "
               "binds logical processors p1, p2 to physical sites.\n";
  return 0;
}
