// Typed key=value parameters for the unified Policy API.
//
// A ParamTable<T> binds `--set` keys to the members of one config struct:
// each row gives the key, the member (a member pointer, or a chain of them
// into nested structs), the doc string and, for enums, the labels. The
// table is the only place a knob is declared; from it derive
//  * the ParamSchema rows — the type follows from the member's type and
//    the default is read off a default-constructed T, so a listed default
//    can never drift from the struct default (DESIGN.md §8), and
//  * the decoder — apply()/decode() copy every explicitly set key into its
//    member, so an empty ParamMap decodes to exactly T{}.
//
// A ParamMap holds a *validated* set of overrides against one schema.
// Validation is strict and loud: unknown keys, malformed values,
// out-of-range enum labels and integers outside the bound member's type
// (a negative value for an unsigned member) all throw ContractViolation
// with the full schema appended, so a typo in `--set broadcst_period=10`
// fails with the list of spellings that would have worked instead of
// silently running the defaults.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace rtds::policy {

/// Value types a parameter can declare. kBool parses true/false/1/0/yes/no;
/// kEnum parses one of the declared labels and reads back as its index.
enum class ParamType { kInt, kDouble, kBool, kEnum };

/// Lower-case type name ("int", "double", "bool", "enum") for messages.
const char* to_string(ParamType type);

/// One parsed value: kDouble in `real`, every other type in `integer`
/// (bool as 0/1, enum as the label's index).
struct ParamValue {
  ParamType type = ParamType::kDouble;
  std::int64_t integer = 0;
  double real = 0.0;
  bool operator==(const ParamValue&) const = default;
};

/// One parameter declaration: its key, type, default and documentation.
struct ParamSpec {
  std::string key;
  ParamType type = ParamType::kDouble;
  std::string description;
  std::string default_value;             ///< rendered default, for listings
  std::vector<std::string> enum_values;  ///< kEnum only: the valid labels
  /// kInt only: the accepted range, the bound member type's range.
  std::int64_t min_int = std::numeric_limits<std::int64_t>::min();
  std::int64_t max_int = std::numeric_limits<std::int64_t>::max();
};

/// Ordered parameter declarations for one policy. Insertion order is the
/// listing order (keep related keys together).
class ParamSchema {
 public:
  /// Adds one declaration, rendering `def` as its listed default.
  /// Duplicate keys and an enum default outside the labels throw.
  void add(ParamSpec spec, const ParamValue& def);

  const ParamSpec* find(const std::string& key) const;  ///< nullptr if absent
  /// All declarations, in insertion (listing) order.
  const std::vector<ParamSpec>& specs() const { return specs_; }

  /// Human-readable one-line-per-param rendering, used in listings and
  /// appended to every validation error.
  std::string describe() const;

 private:
  std::vector<ParamSpec> specs_;
};

/// A validated bag of overrides for one schema. Construct via parse();
/// a default-constructed map is empty (every table decodes its defaults).
class ParamMap {
 public:
  ParamMap() = default;

  /// Validates `key=value` assignments against `schema`. Throws
  /// ContractViolation (message includes schema.describe()) on an unknown
  /// key, a value that does not parse as the declared type, an integer
  /// outside the declared range, or an enum label not in the declared set.
  /// Later assignments override earlier ones for the same key.
  static ParamMap parse(const std::vector<std::string>& assignments,
                        const ParamSchema& schema);
  /// Same, from already-split (key, value) pairs. (A distinct name: an
  /// overload would make single-element brace lists ambiguous.)
  static ParamMap parse_pairs(
      const std::vector<std::pair<std::string, std::string>>& pairs,
      const ParamSchema& schema);

  /// The value `key` was set to, or nullptr when it was not set.
  const ParamValue* find(const std::string& key) const;
  /// True iff `key` was explicitly set.
  bool has(const std::string& key) const { return find(key) != nullptr; }

  /// Keys explicitly set, in first-set order (stable for labels/logs).
  std::vector<std::string> keys() const;

 private:
  std::vector<std::pair<std::string, ParamValue>> entries_;
};

namespace detail {

template <class S>
constexpr S& member_at(S& s) {
  return s;
}
template <class S, class C, class M, class... Rest>
constexpr auto& member_at(S& s, M C::*member, Rest... rest) {
  return member_at(s.*member, rest...);
}

template <class M>
constexpr ParamType param_type_of() {
  if constexpr (std::is_same_v<M, bool>) return ParamType::kBool;
  else if constexpr (std::is_enum_v<M>) return ParamType::kEnum;
  else if constexpr (std::is_floating_point_v<M>) return ParamType::kDouble;
  else {
    static_assert(std::is_integral_v<M>, "a knob binds a bool, enum, "
                                         "floating-point or integer member");
    return ParamType::kInt;
  }
}

template <class M>
ParamValue to_value(M v) {
  if constexpr (std::is_floating_point_v<M>)
    return {ParamType::kDouble, 0, static_cast<double>(v)};
  else
    return {param_type_of<M>(), static_cast<std::int64_t>(v), 0.0};
}

template <class M>
M from_value(const ParamValue& v) {
  if constexpr (std::is_floating_point_v<M>) return static_cast<M>(v.real);
  else if constexpr (std::is_same_v<M, bool>) return v.integer != 0;
  else return static_cast<M>(v.integer);
}

}  // namespace detail

/// The binding table of config struct T: one row per `--set` key.
template <class T>
class ParamTable {
 public:
  struct Row {
    ParamSpec spec;  ///< spec.default_value is rendered by ParamSchema::add
    ParamValue def;  ///< the default, read off a default-constructed struct
    /// Reads / writes the bound member in ParamValue form. Both are empty
    /// for a listed row (see list()), which this table does not decode.
    std::function<ParamValue(const T&)> get;
    std::function<void(T&, const ParamValue&)> set;
  };

  /// Binds `key` to the bool, floating-point or integer member reached
  /// from T through `path`. An integer knob accepts exactly the member
  /// type's range, so an unsigned member rejects negative values.
  template <class... Path>
  ParamTable& bind(std::string key, std::string doc, Path... path) {
    return add({}, std::move(key), std::move(doc), path...);
  }
  /// Binds an enum member; `labels` name its enumerators in order.
  template <class... Path>
  ParamTable& bind_enum(std::string key, std::vector<std::string> labels,
                        std::string doc, Path... path) {
    return add(std::move(labels), std::move(key), std::move(doc), path...);
  }
  /// Binds an unsigned member whose all-ones value means "no limit": the
  /// knob renders and accepts that value as -1.
  template <class... Path>
  ParamTable& bind_limit(std::string key, std::string doc, Path... path) {
    add({}, std::move(key), std::move(doc), path...);
    RTDS_REQUIRE_MSG(rows_.back().spec.min_int == 0,
                     "param " << rows_.back().spec.key << " is not unsigned");
    rows_.back().spec.min_int = -1;
    return *this;
  }

  /// Appends every row of `sub`, the table of the member reached from T
  /// through `path` (no path: `sub` binds T itself).
  template <class U, class... Path>
  ParamTable& include(const ParamTable<U>& sub, Path... path) {
    for (const auto& row : sub.rows()) {
      Row r{row.spec, row.def, {}, {}};
      if (row.set) {
        r.get = [get = row.get, path...](const T& t) {
          return get(detail::member_at(t, path...));
        };
        r.set = [set = row.set, path...](T& t, const ParamValue& v) {
          set(detail::member_at(t, path...), v);
        };
      }
      rows_.push_back(std::move(r));
    }
    return *this;
  }

  /// Lists the keys of another struct's table at this point of the schema
  /// without binding them here: they decode through their own table.
  template <class U>
  ParamTable& list(const ParamTable<U>& other) {
    for (const auto& row : other.rows())
      rows_.push_back(Row{row.spec, row.def, {}, {}});
    return *this;
  }

  const std::vector<Row>& rows() const { return rows_; }

  /// The schema the rows derive, in row order.
  ParamSchema schema() const {
    ParamSchema schema;
    for (const auto& row : rows_) schema.add(row.spec, row.def);
    return schema;
  }

  /// Copies every key set in `params` into its bound member of `target`.
  void apply(const ParamMap& params, T& target) const {
    for (const auto& row : rows_) {
      const ParamValue* v = row.set ? params.find(row.spec.key) : nullptr;
      if (v == nullptr) continue;
      RTDS_CHECK_MSG(v->type == row.spec.type,
                     "param " << row.spec.key << " bound as "
                              << to_string(row.spec.type) << " but set as "
                              << to_string(v->type));
      row.set(target, *v);
    }
  }
  /// The default-constructed struct with every set key applied.
  T decode(const ParamMap& params) const {
    T target{};
    apply(params, target);
    return target;
  }

 private:
  template <class... Path>
  ParamTable& add(std::vector<std::string> labels, std::string key,
                  std::string doc, Path... path) {
    using M = std::remove_cvref_t<decltype(detail::member_at(
        std::declval<T&>(), path...))>;
    Row row;
    row.spec.key = std::move(key);
    row.spec.type = detail::param_type_of<M>();
    row.spec.description = std::move(doc);
    row.spec.enum_values = std::move(labels);
    RTDS_REQUIRE_MSG(std::is_enum_v<M> == !row.spec.enum_values.empty(),
                     "param " << row.spec.key
                              << ": labels go with enum members only");
    if constexpr (detail::param_type_of<M>() == ParamType::kInt) {
      row.spec.min_int = std::numeric_limits<M>::min();
      row.spec.max_int = static_cast<std::int64_t>(std::min<std::uint64_t>(
          std::numeric_limits<M>::max(),
          std::numeric_limits<std::int64_t>::max()));
    }
    row.get = [path...](const T& t) {
      return detail::to_value(detail::member_at(t, path...));
    };
    row.set = [path...](T& t, const ParamValue& v) {
      detail::member_at(t, path...) = detail::from_value<M>(v);
    };
    row.def = row.get(T{});
    rows_.push_back(std::move(row));
    return *this;
  }

  std::vector<Row> rows_;
};

/// The schema of the table `Table()` returns, derived once per process.
template <auto Table>
const ParamSchema& schema_of() {
  static const ParamSchema schema = Table().schema();
  return schema;
}

}  // namespace rtds::policy
