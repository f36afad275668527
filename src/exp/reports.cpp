// Report scenarios: deterministic printed artifacts that are not sweeps —
// the Figure 1 protocol trace, the Figure 2/3/4 + Table 1 worked example,
// and the E4a mapper case-boundary table, run by `rtds_exp --report=NAME`.
// Bodies moved verbatim from the retired per-experiment bench binaries.
#include <ostream>

#include "core/mapper.hpp"
#include "core/rtds_system.hpp"
#include "dag/dot.hpp"
#include "dag/generators.hpp"
#include "exp/scenario.hpp"
#include "net/generators.hpp"
#include "sched/gantt.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace rtds::exp {

namespace {

// --------------------------------------------------- Figure 1: trace ----

void fig1_protocol(std::ostream& os, const RunContext& ctx) {
  // The sink captures `os` by reference; restore on every exit path so a
  // throwing run can't leave a dangling-stream sink installed globally.
  struct LogGuard {
    ~LogGuard() {
      Log::set_sink(nullptr);
      Log::set_level(LogLevel::kOff);
    }
  } guard;
  Log::set_level(LogLevel::kTrace);
  Log::set_sink([&os](LogLevel, const std::string& msg) {
    os << "  | " << msg << "\n";
  });

  Rng rng(7);
  Topology topo = make_grid(3, 3, DelayRange{0.5, 1.0}, rng);
  SystemConfig cfg;
  cfg.node.sphere_radius_h = 2;
  cfg.context = ctx;
  RtdsSystem system(std::move(topo), cfg);

  os << "=== Figure 1: RTDS phase flow (traced run) ===\n";
  os << "network: 3x3 grid, h=2; job = paper Figure 2 DAG\n\n";

  // Pre-load the arrival site so the §5 local test fails.
  auto filler = std::make_shared<Job>();
  filler->id = 1;
  filler->dag = paper_example();
  filler->release = 0.0;
  filler->deadline = 1000.0;

  auto job = std::make_shared<Job>();
  job->id = 2;
  job->dag = paper_example();
  job->release = 0.5;
  job->deadline = 0.5 + 1.6 * job->dag.total_work();

  os << "[phase] job 1 arrives at site 4 (filler, accepted locally)\n";
  os << "[phase] job 2 arrives at site 4: local test -> ACS -> "
        "mapping -> validation -> coupling -> execution\n\n";
  system.run({{4, filler}, {4, job}});

  os << "\n=== outcome ===\n";
  Table t({"job", "outcome", "ACS size", "link messages", "decision time"});
  for (const auto& d : system.decisions())
    t.add_row({std::to_string(d.job), to_string(d.outcome),
               Table::num(d.acs_size),
               Table::num(std::size_t{d.link_messages}),
               Table::num(d.decision_time, 2)});
  t.print(os);

  os << "\nmessage budget by category:\n";
  Table cat({"category", "sends", "link messages"});
  for (const auto& [category, entry] : system.metrics().transport.by_category)
    cat.add_row({msg_category_name(category),
                 Table::num(std::size_t{entry.sends}),
                 Table::num(std::size_t{entry.link_messages})});
  cat.print(os);
}

// --------------------------------- Figure 2/3/4 + Table 1: worked example ----

void print_schedule(std::ostream& os, const char* title, const Dag& dag,
                    const TrialMapping& m, const std::vector<Time>& start,
                    const std::vector<Time>& finish) {
  os << title << "\n";
  Table t({"task", "processor", "start", "finish"});
  for (TaskId task = 0; task < dag.task_count(); ++task)
    t.add_row({"t" + std::to_string(task + 1),
               "p" + std::to_string(m.assignment[task] + 1),
               Table::num(start[task], 1), Table::num(finish[task], 1)});
  t.print(os);
  // Gantt view, one row per logical processor (as drawn in the paper).
  std::vector<GanttRow> rows(m.used_processors);
  Time horizon = 0.0;
  for (TaskId task = 0; task < dag.task_count(); ++task) {
    auto& row = rows[m.assignment[task]];
    row.label = "p" + std::to_string(m.assignment[task] + 1);
    row.reservations.push_back(
        Reservation{0, task, start[task], finish[task]});
    horizon = std::max(horizon, finish[task]);
  }
  os << "\n" << render_gantt(rows, 0.0, horizon) << "\n";
}

void fig2_table1(std::ostream& os, const RunContext&) {
  const Dag dag = paper_example();

  os << "=== Figure 2: task graph instance ===\n";
  Table fig2({"task", "c(ti)", "successors"});
  for (TaskId t = 0; t < dag.task_count(); ++t) {
    std::string succs;
    for (TaskId s : dag.successors(t)) {
      if (!succs.empty()) succs += ", ";
      succs += "t" + std::to_string(s + 1);
    }
    fig2.add_row({"t" + std::to_string(t + 1), Table::num(dag.cost(t), 0),
                  succs.empty() ? "-" : succs});
  }
  fig2.print(os);
  os << "\nDOT:\n" << to_dot(dag, "figure2") << "\n";

  MapperInput in;
  in.dag = &dag;
  in.release = 0.0;
  in.deadline = 66.0;
  in.surpluses = {0.5, 0.4};
  in.comm_diameter = 3.0;
  const auto m = build_trial_mapping(in);
  RTDS_CHECK_MSG(m.has_value(),
                 "mapper unexpectedly rejected the paper instance");

  os << "parameters: I1=0.5  I2=0.4  omega(ACS diameter)=3  r=0  d=66\n\n";
  print_schedule(os, "=== Figure 3: schedule S (surplus-degraded) ===", dag,
                 *m, m->s_start, m->s_finish);
  os << "makespan M = " << m->makespan << "   (paper: 33)\n\n";
  print_schedule(os, "=== Figure 4: schedule S* (100% surplus) ===", dag, *m,
                 m->star_start, m->star_finish);
  os << "makespan M* = " << m->makespan_full << "   (paper: 19)\n\n";

  os << "=== Table 1: adjusted r(ti) and d(ti) ===\n";
  os << "adjustment: case " << to_string(m->adjustment)
     << ", scaling factor (d-r)/M = "
     << (in.deadline - in.release) / m->makespan << "\n";
  Table t1({"ti", "ri", "di", "r(ti)", "d(ti)"});
  for (TaskId t = 0; t < dag.task_count(); ++t)
    t1.add_row({std::to_string(t + 1), Table::num(m->s_start[t], 0),
                Table::num(m->s_finish[t], 0), Table::num(m->release[t], 0),
                Table::num(m->deadline[t], 0)});
  t1.print(os);
  os << "\npaper Table 1:   (0,12,0,24) (0,10,0,20) (13,21,24,42) "
        "(15,20,27,40) (23,33,43,66)\n";
}

// -------------------------------------- E4a: mapper case boundaries ----

void e4a_case_boundaries(std::ostream& os, const RunContext&) {
  const Dag dag = paper_example();
  Table t({"d - r", "case", "accepted windows"});
  for (double window : {15.0, 19.0, 22.0, 28.0, 32.999, 33.0, 40.0, 66.0}) {
    MapperInput in;
    in.dag = &dag;
    in.release = 0.0;
    in.deadline = window;
    in.surpluses = {0.5, 0.4};
    in.comm_diameter = 3.0;
    AdjustmentCase failure = AdjustmentCase::kReject;
    const auto m = build_trial_mapping(in, {}, &failure);
    t.add_row({Table::num(window, 3),
               m ? to_string(m->adjustment) : to_string(failure),
               m ? "yes" : "no"});
  }
  t.print(os);
}

}  // namespace

void register_builtin_reports() {
  auto& registry = Registry::instance();
  registry.add_report(
      "fig1_protocol",
      "Figure 1 regenerated as a live traced protocol run (3x3 grid)",
      fig1_protocol);
  registry.add_report(
      "fig2_table1",
      "Figures 2-4 and Table 1 worked example, cell-for-cell",
      fig2_table1);
  registry.add_report(
      "e4a_case_boundaries",
      "E4a: §12.2 case boundaries on the paper instance (M* = 19, M = 33)",
      e4a_case_boundaries);
}

}  // namespace rtds::exp
