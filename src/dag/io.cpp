#include "dag/io.hpp"

#include <cctype>
#include <istream>
#include <ostream>
#include <sstream>

namespace rtds {

namespace {

[[noreturn]] void parse_fail(std::size_t line, const std::string& what) {
  RTDS_REQUIRE_MSG(false, "dag parse error at line " << line << ": " << what);
  std::abort();  // unreachable
}

}  // namespace

void write_dag(const Dag& dag, std::ostream& os) {
  RTDS_REQUIRE(dag.finalized());
  os << "dag v1\n";
  os << "tasks " << dag.task_count() << "\n";
  os.precision(17);
  for (TaskId t = 0; t < dag.task_count(); ++t) {
    os << "task " << t << ' ' << dag.cost(t);
    if (!dag.label(t).empty()) os << ' ' << dag.label(t);
    os << "\n";
  }
  os << "arcs " << dag.arc_count() << "\n";
  for (const auto& a : dag.arcs())
    os << "arc " << a.from << ' ' << a.to << ' ' << a.data_volume << "\n";
  os << "end\n";
}

std::string dag_to_string(const Dag& dag) {
  std::ostringstream os;
  write_dag(dag, os);
  return os.str();
}

Dag read_dag(std::istream& is) {
  Dag dag;
  std::string line;
  std::size_t lineno = 0;
  auto next_line = [&]() -> std::istringstream {
    while (std::getline(is, line)) {
      ++lineno;
      if (!line.empty() && line[0] != '#') return std::istringstream(line);
    }
    parse_fail(lineno, "unexpected end of input");
  };

  {
    auto ls = next_line();
    std::string word, version;
    ls >> word >> version;
    if (word != "dag" || version != "v1")
      parse_fail(lineno, "expected header 'dag v1'");
  }
  std::size_t task_count = 0;
  {
    auto ls = next_line();
    std::string word;
    ls >> word >> task_count;
    if (word != "tasks" || ls.fail()) parse_fail(lineno, "expected 'tasks <n>'");
  }
  for (std::size_t i = 0; i < task_count; ++i) {
    auto ls = next_line();
    std::string word, label;
    std::size_t id = 0;
    double cost = 0.0;
    ls >> word >> id >> cost;
    if (word != "task" || ls.fail()) parse_fail(lineno, "expected 'task <id> <cost>'");
    // The optional label is the rest of the line after the one whitespace
    // character that ends the cost, so it may contain spaces.
    const int next = ls.peek();
    if (next != std::char_traits<char>::eof()) {
      if (!std::isspace(next)) parse_fail(lineno, "malformed task cost");
      ls.get();
      std::getline(ls, label);
    }
    if (id != i) parse_fail(lineno, "task ids must be dense and in order");
    if (cost <= 0.0) parse_fail(lineno, "task cost must be positive");
    dag.add_task(cost, label);
  }
  std::size_t arc_count = 0;
  {
    auto ls = next_line();
    std::string word;
    ls >> word >> arc_count;
    if (word != "arcs" || ls.fail()) parse_fail(lineno, "expected 'arcs <m>'");
  }
  for (std::size_t i = 0; i < arc_count; ++i) {
    auto ls = next_line();
    std::string word;
    std::size_t from = 0, to = 0;
    double volume = 0.0;
    ls >> word >> from >> to >> volume;
    if (word != "arc" || ls.fail())
      parse_fail(lineno, "expected 'arc <from> <to> <volume>'");
    if (from >= task_count || to >= task_count)
      parse_fail(lineno, "arc endpoint out of range");
    dag.add_arc(static_cast<TaskId>(from), static_cast<TaskId>(to), volume);
  }
  {
    auto ls = next_line();
    std::string word;
    ls >> word;
    if (word != "end") parse_fail(lineno, "expected 'end'");
  }
  dag.finalize();  // throws on cycles
  return dag;
}

Dag dag_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_dag(is);
}

}  // namespace rtds
