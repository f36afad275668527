#include "dag/dot.hpp"

#include <sstream>

namespace rtds {

void write_dot(const Dag& dag, std::ostream& os, const std::string& graph_name) {
  os << "digraph " << graph_name << " {\n";
  os << "  rankdir=TB;\n  node [shape=circle];\n";
  for (TaskId t = 0; t < dag.task_count(); ++t) {
    os << "  t" << t << " [label=\"";
    if (dag.label(t).empty()) os << 't' << (t + 1);
    for (const char c : dag.label(t)) {
      if (c == '"' || c == '\\') os << '\\';  // DOT quoted-string escapes
      os << c;
    }
    os << "\\nc=" << dag.cost(t) << "\"];\n";
  }
  for (const auto& a : dag.arcs()) {
    os << "  t" << a.from << " -> t" << a.to;
    if (a.data_volume > 0.0) os << " [label=\"" << a.data_volume << "\"]";
    os << ";\n";
  }
  os << "}\n";
}

std::string to_dot(const Dag& dag, const std::string& graph_name) {
  std::ostringstream os;
  write_dot(dag, os, graph_name);
  return os.str();
}

}  // namespace rtds
