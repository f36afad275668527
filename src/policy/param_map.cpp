#include "policy/param_map.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/error.hpp"

namespace rtds::policy {

const char* to_string(ParamType type) {
  switch (type) {
    case ParamType::kInt: return "int";
    case ParamType::kDouble: return "double";
    case ParamType::kBool: return "bool";
    case ParamType::kEnum: return "enum";
  }
  return "?";
}

void ParamSchema::add(ParamSpec spec, const ParamValue& def) {
  RTDS_REQUIRE_MSG(find(spec.key) == nullptr,
                   "duplicate param key " << spec.key);
  RTDS_REQUIRE(def.type == spec.type);
  switch (spec.type) {
    case ParamType::kInt:
      spec.default_value = std::to_string(def.integer);
      break;
    case ParamType::kDouble: {
      std::ostringstream os;
      os << def.real;
      spec.default_value = os.str();
      break;
    }
    case ParamType::kBool:
      spec.default_value = def.integer != 0 ? "true" : "false";
      break;
    case ParamType::kEnum: {
      const auto index = static_cast<std::size_t>(def.integer);
      RTDS_REQUIRE_MSG(index < spec.enum_values.size(),
                       "enum default of " << spec.key
                                          << " not among its values");
      spec.default_value = spec.enum_values[index];
      break;
    }
  }
  specs_.push_back(std::move(spec));
}

const ParamSpec* ParamSchema::find(const std::string& key) const {
  for (const auto& spec : specs_)
    if (spec.key == key) return &spec;
  return nullptr;
}

std::string ParamSchema::describe() const {
  std::ostringstream os;
  for (const auto& spec : specs_) {
    os << "  " << spec.key << " (";
    if (spec.type == ParamType::kEnum) {
      for (std::size_t i = 0; i < spec.enum_values.size(); ++i)
        os << (i ? "|" : "") << spec.enum_values[i];
    } else {
      os << to_string(spec.type);
    }
    os << ", default " << spec.default_value << ") — " << spec.description
       << "\n";
  }
  return os.str();
}

namespace {

constexpr std::int64_t kNoMax = std::numeric_limits<std::int64_t>::max();

[[noreturn]] void param_error(const ParamSchema& schema,
                              const std::string& what) {
  std::ostringstream os;
  os << what << "\nvalid params:\n" << schema.describe();
  throw ContractViolation(os.str());
}

std::int64_t parse_int(const ParamSchema& schema, const std::string& key,
                       const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const auto v = std::strtoll(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value.empty() || errno == ERANGE)
    param_error(schema, "param " + key + " expects an integer, got '" +
                            value + "'");
  return v;
}

double parse_double(const ParamSchema& schema, const std::string& key,
                    const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0' || value.empty() ||
      (errno == ERANGE && std::isinf(v)))
    param_error(schema,
                "param " + key + " expects a number, got '" + value + "'");
  return v;
}

bool parse_bool(const ParamSchema& schema, const std::string& key,
                const std::string& value) {
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  param_error(schema,
              "param " + key + " expects a boolean, got '" + value + "'");
}

}  // namespace

ParamMap ParamMap::parse_pairs(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    const ParamSchema& schema) {
  ParamMap map;
  for (const auto& [key, value] : pairs) {
    const ParamSpec* spec = schema.find(key);
    if (spec == nullptr) param_error(schema, "unknown param '" + key + "'");

    ParamValue v;
    v.type = spec->type;
    switch (spec->type) {
      case ParamType::kInt:
        v.integer = parse_int(schema, key, value);
        if (v.integer < spec->min_int || v.integer > spec->max_int)
          param_error(schema, "param " + key + " expects an integer in [" +
                                  std::to_string(spec->min_int) + ", " +
                                  (spec->max_int == kNoMax
                                       ? std::string("max")
                                       : std::to_string(spec->max_int)) +
                                  "], got '" + value + "'");
        break;
      case ParamType::kDouble:
        v.real = parse_double(schema, key, value);
        break;
      case ParamType::kBool:
        v.integer = parse_bool(schema, key, value) ? 1 : 0;
        break;
      case ParamType::kEnum: {
        const auto it = std::find(spec->enum_values.begin(),
                                  spec->enum_values.end(), value);
        if (it == spec->enum_values.end())
          param_error(schema, "param " + key + " has no value '" + value +
                                  "' (see the valid labels below)");
        v.integer = static_cast<std::int64_t>(it - spec->enum_values.begin());
        break;
      }
    }

    // Later assignments override earlier ones in place.
    const auto existing =
        std::find_if(map.entries_.begin(), map.entries_.end(),
                     [&](const auto& e) { return e.first == key; });
    if (existing != map.entries_.end())
      existing->second = v;
    else
      map.entries_.emplace_back(key, v);
  }
  return map;
}

ParamMap ParamMap::parse(const std::vector<std::string>& assignments,
                         const ParamSchema& schema) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const auto& assignment : assignments) {
    const auto eq = assignment.find('=');
    if (eq == std::string::npos)
      param_error(schema, "malformed param assignment '" + assignment +
                              "' (expected key=value)");
    pairs.emplace_back(assignment.substr(0, eq), assignment.substr(eq + 1));
  }
  return parse_pairs(pairs, schema);
}

const ParamValue* ParamMap::find(const std::string& key) const {
  for (const auto& [k, v] : entries_)
    if (k == key) return &v;
  return nullptr;
}

std::vector<std::string> ParamMap::keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.first);
  return out;
}

}  // namespace rtds::policy
