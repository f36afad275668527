// The unified scheduler Policy API.
//
// Every scheduler family in the repo — the paper's RTDS protocol and all
// five comparison baselines (LOCAL, CENTRAL, BCAST, BID, RANDOM) — is one
// Policy: a name, a ParamSchema describing its knobs, and a pure
// run(topology, arrivals, params, context) -> RunMetrics whose output
// depends on those arguments alone, never on process state. Policies are
// registered in the string-keyed PolicyRegistry, so experiments, the
// rtds_exp / rtds_cli front ends and tests all select schedulers as
// `(policy name, param overrides)` *data* instead of calling per-family
// free functions with per-family config structs. A new protocol variant
// plugs in by registering itself; nothing in src/exp needs to change.
//
// Contract (pinned by tests/policy_test.cpp): with an empty ParamMap a
// policy's RunMetrics is bit-identical to the legacy entry point it wraps
// (RtdsSystem::run, run_local_only, run_centralized, run_broadcast,
// run_offload) called with the corresponding default config struct.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/run_context.hpp"
#include "core/workload.hpp"
#include "net/topology.hpp"
#include "policy/param_map.hpp"

namespace rtds::policy {

/// One scheduler family. Implementations are stateless façades: identity
/// (name/description), a schema of typed knobs, and a pure run().
class Policy {
 public:
  virtual ~Policy() = default;

  /// Registry key, stable across releases (e.g. "rtds", "bcast").
  virtual std::string name() const = 0;
  /// One-line human description, shown by `rtds_exp --list`.
  virtual std::string description() const = 0;
  /// The parameters this policy understands. Must return the same schema
  /// object every call (callers keep references across runs).
  virtual const ParamSchema& describe_params() const = 0;

  /// Runs the whole workload to completion. Pure: all state is local to
  /// the call and every run setting arrives in `ctx` (checker mode,
  /// seeded mutant, warm start), so concurrent runs of the same Policy
  /// object are safe. Families without an RtdsSystem ignore `ctx`.
  virtual RunMetrics run(const Topology& topo,
                         const std::vector<JobArrival>& arrivals,
                         const ParamMap& params,
                         const RunContext& ctx = {}) const = 0;

  /// Convenience: validate `key=value` assignments against this policy's
  /// schema.
  ParamMap parse_params(const std::vector<std::string>& assignments) const {
    return ParamMap::parse(assignments, describe_params());
  }
};

/// Constructs a fresh Policy instance (factories run at create() time, so
/// registration itself is cheap and order-independent).
using PolicyFactory = std::function<std::unique_ptr<Policy>()>;

/// Process-wide policy registry. Policies self-register via PolicyRegistrar
/// (see the bottom of rtds_policy.cpp / baseline_policies.cpp);
/// register_builtin_policies() guarantees the built-in six are installed
/// even when the static library's registrar objects would otherwise be
/// dropped by the linker.
class PolicyRegistry {
 public:
  /// The process-wide registry (static-initialization safe).
  static PolicyRegistry& instance();

  /// Registers a factory under `name`. Throws ContractViolation on a
  /// duplicate name — two families must never shadow each other.
  void add(std::string name, PolicyFactory factory);

  /// Instantiates the named policy. Throws ContractViolation listing every
  /// registered name when `name` is unknown.
  std::unique_ptr<Policy> create(const std::string& name) const;

  /// True iff `name` is registered (no instantiation).
  bool contains(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> names() const;

 private:
  std::vector<std::pair<std::string, PolicyFactory>> factories_;
};

/// `static PolicyRegistrar r{"name", [] { return std::make_unique<P>(); }};`
struct PolicyRegistrar {
  PolicyRegistrar(std::string name, PolicyFactory factory) {
    PolicyRegistry::instance().add(std::move(name), std::move(factory));
  }
};

/// Installs the six built-in families (rtds, local, central, bcast, bid,
/// random). Idempotent; call before touching the registry from a binary.
void register_builtin_policies();

}  // namespace rtds::policy
