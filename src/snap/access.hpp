// The one friend of every checkpointable class, and the archive idiom its
// serializers are written in (DESIGN.md §14).
//
// Serialization lives OUTSIDE the classes it captures: each state-bearing
// class declares `friend struct snap::Access;` and nothing else — no
// serialize() members, no format knowledge leaking into core/, routing/ or
// sched/. Access reads and restores the private fields directly, so the
// capture is exact (tombstoned routing slots, RNG stream words, Welford
// accumulator bits) where a public-API reconstruction would be lossy or
// slow.
//
// One io per type. Every serialized type has exactly one function,
// `template <class Ar> static void io(Ar&, Ref<Ar, T>)`, instantiated for
// Ar = Writer (Ref = const T&) and Ar = Reader (Ref = T&). The same field
// calls encode and decode, so the wire order is written once and the two
// directions cannot drift apart. Field calls go through the overloads
// below: primitives by exact type, the int/enum narrowing adaptors, bulk
// arrays, vectors, optionals, sorted maps and interned shared pointers.
// Every decoded element count is checked against the bytes left in the
// section before anything is allocated. An `if constexpr (kLoading<Ar>)`
// block inside an io may only validate, rebuild derived state or post
// events; it never reads a field.
//
// Philosophy (PhoenixOS-style): capture *live* state, recompute *derived*
// state. Anything a fresh construction rebuilds deterministically from the
// config — sphere membership, CSR adjacency, interned metric ids — is not
// in the format; loading starts from a freshly constructed object and
// overwrites only what the run mutated.
#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "snap/io.hpp"
#include "util/flat_map.hpp"
#include "util/time.hpp"

namespace rtds {
class Rng;
class RunningStat;
class RoutingTable;
class Pcs;
class Topology;
class SchedulingPlan;
class RtdsNode;
class RtdsSystem;
struct SystemConfig;
struct RunMetrics;
struct MessageStats;
struct Job;
struct TrialMapping;
struct JobDecision;
}  // namespace rtds
namespace rtds::fault {
class FaultState;
class InvariantChecker;
class DedupWindow;
}  // namespace rtds::fault
namespace rtds::load {
class ArrivalSource;
class QuantileSketch;
class SteadyStateCollector;
}  // namespace rtds::load
namespace rtds::obs {
class MetricsBuffer;
}  // namespace rtds::obs

namespace rtds::snap {

template <class Ar>
inline constexpr bool kLoading = std::is_same_v<Ar, Reader>;

/// What an io function receives: `const T&` when writing, `T&` when reading.
template <class Ar, class T>
using Ref = std::conditional_t<kLoading<Ar>, T&, const T&>;

/// Shared-pointer interning: bulky immutable payloads (Jobs, TrialMappings)
/// are shared across node queues, active initiations and pending events.
/// The first encounter serializes the body and assigns the next dense
/// index; later encounters serialize the index only — so the restored
/// object graph shares exactly like the live one, and a job referenced from
/// five places costs one body.
template <class Ar, class T>
using InternTable = std::conditional_t<kLoading<Ar>,
                                       std::vector<std::shared_ptr<const T>>,
                                       std::vector<const T*>>;

/// One interning table per payload type, for one save or one load.
template <class Ar>
using Context =
    std::tuple<InternTable<Ar, Job>, InternTable<Ar, TrialMapping>>;

struct Access {
  // --- util ---
  template <class Ar> static void io(Ar&, Ref<Ar, Rng>);
  template <class Ar> static void io(Ar&, Ref<Ar, RunningStat>);
  template <class Ar> static void io(Ar&, Ref<Ar, FlatSet<std::uint64_t>>);

  // --- routing ---
  template <class Ar> static void io(Ar&, Ref<Ar, RoutingTable>);
  template <class Ar> static void io(Ar&, Ref<Ar, Pcs>);

  // --- fault ---
  template <class Ar> static void io(Ar&, Ref<Ar, fault::FaultState>);
  template <class Ar> static void io(Ar&, Ref<Ar, fault::InvariantChecker>);
  template <class Ar> static void io(Ar&, Ref<Ar, fault::DedupWindow>);

  // --- sched ---
  template <class Ar> static void io(Ar&, Ref<Ar, SchedulingPlan>);

  // --- load/ (open-system measurement and arrival generation) ---
  template <class Ar> static void io(Ar&, Ref<Ar, load::QuantileSketch>);
  template <class Ar>
  static void io(Ar&, Ref<Ar, load::SteadyStateCollector>);
  /// Forwards to the source's own save_state/load_state.
  template <class Ar> static void io(Ar&, Ref<Ar, load::ArrivalSource>);

  // --- obs (serialized by metric NAME: interned ids are process order) ---
  template <class Ar> static void io(Ar&, Ref<Ar, obs::MetricsBuffer>);

  // --- core value types and the interned payload bodies ---
  template <class Ar> static void io(Ar&, Ref<Ar, MessageStats>);
  template <class Ar> static void io(Ar&, Ref<Ar, RunMetrics>);
  template <class Ar> static void io(Ar&, Ref<Ar, JobDecision>);
  template <class Ar> static void io(Ar&, Ref<Ar, Job>);
  template <class Ar> static void io(Ar&, Ref<Ar, TrialMapping>);

  // --- node / system (snapshot.cpp) ---
  template <class Ar>
  static void io(Ar&, Context<Ar>&, Ref<Ar, RtdsNode>);
  /// The sections clock, tables, fault, checker, nodes, transport, system
  /// and events: every pending typed event with its time, in execution
  /// order. Loading validates each event and posts it back to its owner.
  template <class Ar>
  static void io(Ar&, Context<Ar>&, Ref<Ar, RtdsSystem>);

  // --- identity hashes ---
  /// Content hash of the static graph (sites, powers, links).
  static std::uint64_t topology_hash(const Topology& topo);
  /// Hash of everything a snapshot's validity depends on: the topology
  /// plus the determinism-relevant SystemConfig fields.
  static std::uint64_t config_hash(const Topology& topo,
                                   const SystemConfig& cfg);
  /// config_hash over a live system's own topology and config.
  static std::uint64_t config_hash_of(const RtdsSystem& sys);
};

// ------------------------------------------------------ archive idiom ----

template <class Ar, class V>
void field(Ar& ar, V&& v);

template <class Ar, class... V>
void fields(Ar& ar, V&&... v) {
  (field(ar, std::forward<V>(v)), ...);
}

/// A value that travels as the wire primitive W: an int as i64, an enum
/// or a char as u8. Loading rejects enum values above `Last`.
template <class W, class T, auto Last = 0>
struct As {
  T& v;
  const char* what;
  template <class Ar>
  void io(Ar& ar) const {
    W wire = static_cast<W>(v);
    field(ar, wire);
    if constexpr (kLoading<Ar>) {
      if constexpr (std::is_enum_v<T>) {
        if (wire > static_cast<W>(Last))
          ar.fail(std::string(what) + " " + std::to_string(wire) +
                  " out of range");
      }
      v = static_cast<T>(wire);
    }
  }
};
template <class T>
As<std::int64_t, T> as_i64(T& v) {
  return {v, "integer"};
}
template <auto Last, class T>
As<std::uint8_t, T, Last> as_u8(T& v, const char* what) {
  return {v, what};
}
template <class T>
As<std::uint8_t, T> as_u8(T& v) {
  return {v, "byte"};
}

/// An element count (u64). Loading rejects a count whose elements, at
/// `width` bytes each at the least, would not fit in the rest of the
/// section — before the caller allocates anything.
template <class Ar>
std::size_t count(Ar& ar, std::size_t n, std::size_t width) {
  std::uint64_t wire = n;
  field(ar, wire);
  if constexpr (kLoading<Ar>) {
    if (wire > ar.section_remaining() / width)
      ar.fail("element count " + std::to_string(wire) +
              " exceeds the remaining section body");
  }
  return static_cast<std::size_t>(wire);
}

/// A value the loading side already knows (a site count, a presence flag,
/// the transport model): loading fails with `mismatch` when the stored
/// value differs from `here`.
template <class Ar, class T>
T agreed(Ar& ar, T here, const std::string& mismatch) {
  T stored = here;
  field(ar, stored);
  if constexpr (kLoading<Ar>) {
    if (stored != here) ar.fail(mismatch);
  }
  return stored;
}

/// A vector: checked count, then every element through `each`.
template <class Ar, class V, class F>
void sequence(Ar& ar, V& v, std::size_t width, F&& each) {
  const std::size_t n = count(ar, v.size(), width);
  if constexpr (kLoading<Ar>) {
    v.clear();
    v.resize(n);
  }
  for (auto& x : v) each(x);
}

/// An optional: presence flag, then the value through `each`.
template <class Ar, class O, class F>
void maybe(Ar& ar, O& o, F&& each) {
  bool has = o.has_value();
  field(ar, has);
  if constexpr (kLoading<Ar>) {
    o.reset();
    if (has) o.emplace();
  }
  if (has) each(*o);
}

/// A std::map or FlatMap: checked count, then (key, value) pairs in
/// ascending key order — FlatMap's probe order never reaches the wire.
/// int keys travel as i64.
template <class Ar, class M, class F>
void entries(Ar& ar, M& m, std::size_t width, F&& value) {
  using Map = std::remove_const_t<M>;
  using K = typename Map::key_type;
  const auto key = [&](auto& k) {
    if constexpr (std::is_same_v<K, int>) field(ar, as_i64(k));
    else field(ar, k);
  };
  const std::size_t n = count(ar, m.size(), width);
  if constexpr (kLoading<Ar>) {
    m = Map{};
    if constexpr (requires { m.reserve(n); }) m.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      K k{};
      key(k);
      value(m[k]);
    }
  } else if constexpr (requires { m.sorted_items(); }) {
    for (const auto& [k, v] : m.sorted_items()) {
      key(k);
      value(v);
    }
  } else {
    for (const auto& [k, v] : m) {
      key(k);
      value(v);
    }
  }
}
template <class Ar, class M>
void entries(Ar& ar, M& m, std::size_t width) {
  entries(ar, m, width, [&](auto& v) { field(ar, v); });
}

/// Interned shared pointer: u8 marker (null / inline body / back-reference
/// by u64 index into `table`).
template <class T, class Ar>
void interned(Ar& ar, InternTable<Ar, T>& table,
              Ref<Ar, std::shared_ptr<const T>> p) {
  constexpr std::uint8_t kNull = 0, kInline = 1, kBackRef = 2;
  std::uint8_t marker = kNull;
  std::uint64_t index = 0;
  if constexpr (!kLoading<Ar>) {
    if (p != nullptr) {
      while (index < table.size() && table[index] != p.get()) ++index;
      marker = index < table.size() ? kBackRef : kInline;
    }
  }
  field(ar, marker);
  if (marker == kBackRef) {
    field(ar, index);
    if constexpr (kLoading<Ar>) {
      if (index >= table.size()) ar.fail("pointer back-reference out of range");
      p = table[index];
    }
  } else if (marker == kInline) {
    if constexpr (kLoading<Ar>) {
      auto fresh = std::make_shared<T>();
      field(ar, *fresh);
      p = std::move(fresh);
      table.push_back(p);
    } else {
      table.push_back(p.get());
      field(ar, *p);
    }
  } else if constexpr (kLoading<Ar>) {
    if (marker != kNull) ar.fail("bad pointer marker");
    p = nullptr;
  }
}

/// A shared Job or TrialMapping pointer, interned through `ctx`.
template <class C, class P>
struct InternedRef {
  C& ctx;
  P& p;
  template <class Ar>
  void io(Ar& ar) const {
    using E =
        std::remove_const_t<typename std::remove_const_t<P>::element_type>;
    interned<E>(ar, std::get<InternTable<Ar, E>>(ctx), p);
  }
};
template <class C, class P>
InternedRef<C, P> in(C& ctx, P& p) {
  return {ctx, p};
}

template <class T>
inline constexpr bool kPrimitive =
    std::is_same_v<T, bool> || std::is_same_v<T, std::uint8_t> ||
    std::is_same_v<T, std::uint32_t> || std::is_same_v<T, std::uint64_t> ||
    std::is_same_v<T, std::int64_t> || std::is_same_v<T, double>;

/// The six wire primitives, by exact C++ type.
template <class T>
T get(Reader& r) {
  if constexpr (std::is_same_v<T, bool>) return r.b();
  else if constexpr (std::is_same_v<T, std::uint8_t>) return r.u8();
  else if constexpr (std::is_same_v<T, std::uint32_t>) return r.u32();
  else if constexpr (std::is_same_v<T, std::uint64_t>) return r.u64();
  else if constexpr (std::is_same_v<T, std::int64_t>) return r.i64();
  else return r.f64();
}
inline void put(Writer& w, bool v) { w.b(v); }
inline void put(Writer& w, std::uint8_t v) { w.u8(v); }
inline void put(Writer& w, std::uint32_t v) { w.u32(v); }
inline void put(Writer& w, std::uint64_t v) { w.u64(v); }
inline void put(Writer& w, std::int64_t v) { w.i64(v); }
inline void put(Writer& w, double v) { w.f64(v); }

/// The one field entry point: adaptors, primitives by exact type, strings,
/// pairs, fixed arrays, vectors, and everything with an Access::io.
template <class Ar, class V>
void field(Ar& ar, V&& v) {
  using T = std::remove_cvref_t<V>;
  constexpr bool load = kLoading<Ar>;
  static_assert(!load || !std::is_const_v<std::remove_reference_t<V>>,
                "a Reader needs a mutable target");
  if constexpr (requires { v.io(ar); }) {
    v.io(ar);
  } else if constexpr (kPrimitive<T>) {
    if constexpr (load) v = get<T>(ar);
    else put(ar, v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    if constexpr (load) v = ar.str();
    else ar.str(v);
  } else if constexpr (requires { v.first; v.second; }) {
    fields(ar, v.first, v.second);
  } else if constexpr (std::is_array_v<T> ||
                       requires { std::tuple_size<T>::value; } ||
                       requires(T& t) { t.resize(0); }) {
    // Fixed arrays travel bare; vectors are preceded by a checked count.
    using E = std::remove_cvref_t<decltype(v[0])>;
    if constexpr (requires(T& t) { t.resize(0); }) {
      const std::size_t n = count(ar, v.size(), kPrimitive<E> ? sizeof(E) : 1);
      if constexpr (load) {
        v.clear();
        v.resize(n);
      }
    }
    if constexpr (kBulk<E>) ar.array(std::data(v), std::size(v));
    else for (auto& x : v) field(ar, x);
  } else {
    Access::io(ar, v);
  }
}

/// A section: opened (and on load checksum-verified), `body`, closed (and
/// on load required to be fully consumed).
template <class Ar, class F>
void section(Ar& ar, std::string_view name, F&& body) {
  if constexpr (kLoading<Ar>) ar.expect_section(name);
  else ar.begin_section(name);
  body();
  ar.end_section();
}

/// Explicit instantiations for both directions of one Access::io overload
/// (the definitions live in .cpp files).
#define RTDS_SNAP_INSTANTIATE(T)                                   \
  template void Access::io<Writer>(Writer&, Ref<Writer, T>);       \
  template void Access::io<Reader>(Reader&, Ref<Reader, T>)

}  // namespace rtds::snap
