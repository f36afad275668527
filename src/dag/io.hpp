// Plain-text serialization of task graphs.
//
// Line-oriented format, stable across versions of this library:
//   dag v1
//   tasks <n>
//   task <id> <cost> [label]   (the label runs to the end of the line)
//   arcs <m>
//   arc <from> <to> <data_volume>
//   end
// Parsing is strict: any malformed line throws ContractViolation with the
// offending line number, so corrupted experiment artifacts fail loudly.
#pragma once

#include <iosfwd>
#include <string>

#include "dag/dag.hpp"

namespace rtds {

void write_dag(const Dag& dag, std::ostream& os);
std::string dag_to_string(const Dag& dag);

/// Reads a DAG in the format above; the result is finalized.
Dag read_dag(std::istream& is);
Dag dag_from_string(const std::string& text);

}  // namespace rtds
