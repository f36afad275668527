// Unified Policy API tests: every registered policy runs from schema
// defaults and reproduces its legacy free-function entry point bit for
// bit; ParamMap validation fails loudly on unknown keys, wrong types and
// out-of-range enum labels; the registry errors list valid names.
#include <gtest/gtest.h>

#include "baseline/broadcast.hpp"
#include "baseline/centralized.hpp"
#include "baseline/local_only.hpp"
#include "baseline/offload.hpp"
#include "core/rtds_system.hpp"
#include "exp/condition.hpp"
#include "fault/fault_params.hpp"
#include "load/load_params.hpp"
#include "policy/policy.hpp"
#include "policy/rtds_params.hpp"
#include "snap/io.hpp"
#include "util/error.hpp"

namespace rtds::policy {
namespace {

class PolicyApi : public ::testing::Test {
 protected:
  void SetUp() override { register_builtin_policies(); }
};

// ---------------------------------------------------------- registry ----

TEST_F(PolicyApi, AllSixFamiliesRegistered) {
  register_builtin_policies();  // idempotent
  auto& registry = PolicyRegistry::instance();
  for (const char* name :
       {"rtds", "local", "central", "bcast", "bid", "random"}) {
    ASSERT_TRUE(registry.contains(name)) << name;
    const auto policy = registry.create(name);
    EXPECT_EQ(policy->name(), name);
    EXPECT_FALSE(policy->description().empty());
    EXPECT_FALSE(policy->describe_params().specs().empty());
  }
}

TEST_F(PolicyApi, UnknownPolicyErrorListsRegisteredNames) {
  try {
    PolicyRegistry::instance().create("bogus");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    for (const char* name :
         {"rtds", "local", "central", "bcast", "bid", "random"})
      EXPECT_NE(what.find(name), std::string::npos) << name;
  }
}

TEST_F(PolicyApi, DescribedSchemasArePinned) {
  // FNV-1a of each family's `--describe` params listing, plus its key count
  // (the `params` column of `rtds_exp --list`). Key order, types, rendered
  // defaults and docs are CLI surface: a refactor of how knobs are declared
  // must keep every pin.
  struct Pin {
    const char* name;
    std::size_t keys;
    std::uint64_t digest;
  };
  for (const Pin& pin : {Pin{"rtds", 43, 0xfec95228e3074b2dull},
                         Pin{"local", 11, 0xb4e089b43a748ccaull},
                         Pin{"central", 12, 0x701bd0f8dd21205bull},
                         Pin{"bcast", 15, 0x637a5df48de0b6a1ull},
                         Pin{"bid", 14, 0x5d8989e4d9e83628ull},
                         Pin{"random", 14, 0x5d8989e4d9e83628ull}}) {
    const auto policy = PolicyRegistry::instance().create(pin.name);
    const ParamSchema& schema = policy->describe_params();
    const std::string text = schema.describe();
    EXPECT_EQ(schema.specs().size(), pin.keys) << pin.name;
    EXPECT_EQ(snap::fnv1a(text.data(), text.size()), pin.digest)
        << pin.name << ":\n" << text;
  }
}

// ------------------------------------------- bit-identity vs legacy ----

/// The E2 comparison condition, scaled down to run all six families in a
/// test: 4x4 grid, offload-regime windows.
exp::Condition small_e2_condition() {
  exp::ConditionSpec cs = exp::offload_regime();
  cs.net = NetShape::kGrid;
  cs.sites = 16;
  cs.rate = 0.03;
  cs.horizon = 200.0;
  cs.seed = 42;
  return exp::make_condition(cs);
}

void expect_stat_identical(const RunningStat& a, const RunningStat& b,
                           const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
  EXPECT_EQ(a.sum(), b.sum()) << what;
  if (a.count() > 0 && b.count() > 0) {
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
  }
}

/// Bit-identical across every field the sinks and scenario tables can
/// read: exact integer counts, exact double-compare on the accumulators.
void expect_metrics_identical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.accepted_local, b.accepted_local);
  EXPECT_EQ(a.accepted_remote, b.accepted_remote);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.dispatch_failures, b.dispatch_failures);
  EXPECT_EQ(a.failed_jobs, b.failed_jobs);
  EXPECT_EQ(a.reject_by_reason, b.reject_by_reason);
  EXPECT_EQ(a.adjustment_cases, b.adjustment_cases);
  expect_stat_identical(a.decision_latency, b.decision_latency,
                        "decision_latency");
  expect_stat_identical(a.acs_size, b.acs_size, "acs_size");
  expect_stat_identical(a.msgs_per_job, b.msgs_per_job, "msgs_per_job");
  expect_stat_identical(a.job_lateness, b.job_lateness, "job_lateness");
  EXPECT_EQ(a.transport.total_sends, b.transport.total_sends);
  EXPECT_EQ(a.transport.total_link_messages, b.transport.total_link_messages);
  auto it_a = a.transport.by_category.begin();
  auto it_b = b.transport.by_category.begin();
  for (; it_a != a.transport.by_category.end() &&
         it_b != b.transport.by_category.end();
       ++it_a, ++it_b) {
    EXPECT_EQ((*it_a).first, (*it_b).first);
    EXPECT_EQ((*it_a).second.sends, (*it_b).second.sends);
    EXPECT_EQ((*it_a).second.link_messages, (*it_b).second.link_messages);
  }
  EXPECT_EQ(it_a != a.transport.by_category.end(),
            it_b != b.transport.by_category.end());
  EXPECT_EQ(a.pcs_build_messages, b.pcs_build_messages);
  EXPECT_EQ(a.pcs_size_max, b.pcs_size_max);
  EXPECT_EQ(a.pcs_hop_diameter_max, b.pcs_hop_diameter_max);
}

RunMetrics run_via_registry(const std::string& name, const exp::Condition& c,
                            const std::vector<std::string>& sets = {}) {
  const auto policy = PolicyRegistry::instance().create(name);
  return policy->run(c.topo, c.arrivals, policy->parse_params(sets));
}

TEST_F(PolicyApi, RtdsMatchesLegacyEntryPoint) {
  const exp::Condition c = small_e2_condition();
  RtdsSystem system(c.topo, SystemConfig{});
  system.run(c.arrivals);
  expect_metrics_identical(run_via_registry("rtds", c), system.metrics());
}

TEST_F(PolicyApi, LocalMatchesLegacyEntryPoint) {
  const exp::Condition c = small_e2_condition();
  expect_metrics_identical(
      run_via_registry("local", c),
      run_local_only(c.topo, c.arrivals, LocalSchedulerConfig{}));
}

TEST_F(PolicyApi, CentralMatchesLegacyEntryPoint) {
  const exp::Condition c = small_e2_condition();
  expect_metrics_identical(
      run_via_registry("central", c),
      run_centralized(c.topo, c.arrivals, CentralizedConfig{}));
}

TEST_F(PolicyApi, BcastMatchesLegacyEntryPoint) {
  const exp::Condition c = small_e2_condition();
  expect_metrics_identical(run_via_registry("bcast", c),
                           run_broadcast(c.topo, c.arrivals, BroadcastConfig{}));
}

TEST_F(PolicyApi, BidMatchesLegacyEntryPoint) {
  const exp::Condition c = small_e2_condition();
  expect_metrics_identical(run_via_registry("bid", c),
                           run_offload(c.topo, c.arrivals, OffloadConfig{}));
}

TEST_F(PolicyApi, RandomMatchesLegacyEntryPoint) {
  const exp::Condition c = small_e2_condition();
  OffloadConfig cfg;
  cfg.policy = OffloadPolicy::kRandom;
  expect_metrics_identical(run_via_registry("random", c),
                           run_offload(c.topo, c.arrivals, cfg));
}

TEST_F(PolicyApi, OverridesMatchLegacyConfigs) {
  // A non-default override through the ParamMap equals the same override
  // through the legacy config struct.
  const exp::Condition c = small_e2_condition();

  SystemConfig rtds_cfg;
  rtds_cfg.node.sphere_radius_h = 3;
  rtds_cfg.node.enroll_gate = EnrollGate::kProtocolAware;
  RtdsSystem system(c.topo, rtds_cfg);
  system.run(c.arrivals);
  expect_metrics_identical(
      run_via_registry("rtds", c, {"h=3", "gate=protocol_aware"}),
      system.metrics());

  BroadcastConfig bcfg;
  bcfg.broadcast_period = 10.0;
  bcfg.surplus_window = 50.0;
  expect_metrics_identical(
      run_via_registry("bcast", c,
                       {"broadcast_period=10", "surplus_window=50"}),
      run_broadcast(c.topo, c.arrivals, bcfg));

  CentralizedConfig ccfg;
  ccfg.sphere_radius_h = 1;
  expect_metrics_identical(run_via_registry("central", c, {"h=1"}),
                           run_centralized(c.topo, c.arrivals, ccfg));
}

TEST_F(PolicyApi, EveryRegisteredPolicyRunsFromDefaults) {
  // Registry-completeness sweep: whatever is registered must run the small
  // E2 condition from an all-defaults ParamMap and produce sound counts.
  const exp::Condition c = small_e2_condition();
  for (const auto& name : PolicyRegistry::instance().names()) {
    const RunMetrics m = run_via_registry(name, c);
    EXPECT_EQ(m.arrived, c.arrivals.size()) << name;
    EXPECT_EQ(m.arrived, m.accepted() + m.rejected) << name;
    EXPECT_EQ(m.deadline_misses, 0u) << name;
  }
}

// ----------------------------------------------------------- ParamMap ----

enum class ProbeMode { kSlow, kFast };

struct Probe {
  std::int64_t count = 3;
  double rate = 0.5;
  bool flag = false;
  ProbeMode mode = ProbeMode::kSlow;
};

const ParamTable<Probe>& probe_table() {
  static const ParamTable<Probe> table =
      ParamTable<Probe>{}
          .bind("count", "an int", &Probe::count)
          .bind("rate", "a double", &Probe::rate)
          .bind("flag", "a bool", &Probe::flag)
          .bind_enum("mode", {"slow", "fast"}, "an enum", &Probe::mode);
  return table;
}

ParamSchema probe_schema() { return probe_table().schema(); }

TEST(ParamMapTest, DefaultsAndOverrides) {
  const ParamSchema schema = probe_schema();
  EXPECT_EQ(schema.describe(),
            "  count (int, default 3) — an int\n"
            "  rate (double, default 0.5) — a double\n"
            "  flag (bool, default false) — a bool\n"
            "  mode (slow|fast, default slow) — an enum\n");
  const Probe defaults = probe_table().decode(ParamMap{});
  EXPECT_EQ(defaults.count, 3);
  EXPECT_EQ(defaults.rate, 0.5);
  EXPECT_FALSE(defaults.flag);
  EXPECT_EQ(defaults.mode, ProbeMode::kSlow);

  const ParamMap map = ParamMap::parse(
      {"count=7", "rate=0.25", "flag=true", "mode=fast"}, schema);
  const Probe set = probe_table().decode(map);
  EXPECT_EQ(set.count, 7);
  EXPECT_EQ(set.rate, 0.25);
  EXPECT_TRUE(set.flag);
  EXPECT_EQ(set.mode, ProbeMode::kFast);
  EXPECT_TRUE(map.has("count"));
  EXPECT_FALSE(map.has("missing"));
}

TEST(ParamMapTest, LaterAssignmentWins) {
  const ParamMap map =
      ParamMap::parse({"count=1", "count=9"}, probe_schema());
  EXPECT_EQ(probe_table().decode(map).count, 9);
  EXPECT_EQ(map.keys().size(), 1u);
}

TEST(ParamMapTest, UnknownKeyReportsSchema) {
  try {
    ParamMap::parse({"cnt=7"}, probe_schema());
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown param 'cnt'"), std::string::npos) << what;
    // The error carries the full valid schema.
    for (const char* key : {"count", "rate", "flag", "mode"})
      EXPECT_NE(what.find(key), std::string::npos) << key;
  }
}

TEST(ParamMapTest, WrongTypeReportsSchema) {
  for (const char* bad : {"count=seven", "count=7.5", "rate=fast",
                          "flag=maybe", "count=",
                          "count=99999999999999999999999", "rate=1e999"}) {
    try {
      ParamMap::parse({bad}, probe_schema());
      FAIL() << "expected ContractViolation for " << bad;
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("valid params"), std::string::npos) << bad;
    }
  }
}

TEST(ParamMapTest, OutOfRangeEnumReportsLabels) {
  try {
    ParamMap::parse({"mode=medium"}, probe_schema());
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mode"), std::string::npos);
    EXPECT_NE(what.find("slow|fast"), std::string::npos) << what;
  }
}

TEST(ParamMapTest, MalformedAssignmentRejected) {
  EXPECT_THROW(ParamMap::parse({"count"}, probe_schema()), ContractViolation);
}

TEST(ParamMapTest, MismatchedAccessorOnSetKeyThrows) {
  // A table decoding a key under another type than the schema parsed it.
  struct Other {
    double count = 0.0;
  };
  ParamTable<Other> other;
  other.bind("count", "a double", &Other::count);
  const ParamMap map = ParamMap::parse({"count=7"}, probe_schema());
  EXPECT_THROW(other.decode(map), ContractViolation);
}

TEST(ParamMapTest, SchemaRejectsDuplicateKeysAndBadEnumDefault) {
  ParamTable<Probe> dup;
  dup.bind("k", "", &Probe::count).bind("k", "", &Probe::rate);
  EXPECT_THROW(dup.schema(), ContractViolation);
  struct Fast {
    ProbeMode mode = ProbeMode::kFast;
  };
  ParamTable<Fast> bad_default;  // the default has no label
  bad_default.bind_enum("m", {"slow"}, "", &Fast::mode);
  EXPECT_THROW(bad_default.schema(), ContractViolation);
  ParamTable<Probe> labels_on_int;
  EXPECT_THROW(labels_on_int.bind_enum("c", {"a"}, "", &Probe::count),
               ContractViolation);
}

TEST(ParamMapTest, NegativeValueForUnsignedKnobRejected) {
  // An unsigned member takes no negative value: the parse fails with the
  // schema appended instead of wrapping the value round.
  register_builtin_policies();
  for (const auto& [name, assignment] :
       std::vector<std::pair<std::string, std::string>>{
           {"rtds", "h=-1"},
           {"bid", "h=-1"},
           {"rtds", "shed.cap=-1"},
           {"rtds", "exact_max_tasks=-1"},
           {"central", "h=-2"}}) {
    const auto policy = PolicyRegistry::instance().create(name);
    try {
      policy->parse_params({assignment});
      ADD_FAILURE() << name << " accepted " << assignment;
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("valid params"), std::string::npos) << what;
    }
  }
}

TEST(ParamMapTest, CentralRadiusMinusOneIsTheWholeNetwork) {
  register_builtin_policies();
  const auto central = PolicyRegistry::instance().create("central");
  EXPECT_EQ(central_table().decode(central->parse_params({"h=-1"}))
                .sphere_radius_h,
            CentralizedConfig::kNoRadiusLimit);
  EXPECT_EQ(central_table().decode(central->parse_params({"h=4"}))
                .sphere_radius_h,
            4u);
}

/// A value of `spec`'s type other than `def`, spelled for --set.
std::string non_default(const ParamSpec& spec, const ParamValue& def) {
  switch (spec.type) {
    case ParamType::kInt: return std::to_string(def.integer + 1);
    case ParamType::kDouble: return std::to_string(def.real + 1.5);
    case ParamType::kBool: return def.integer != 0 ? "false" : "true";
    case ParamType::kEnum:
      return spec.enum_values[(def.integer + 1) % spec.enum_values.size()];
  }
  return "";
}

/// For every bound row of `table`: the listed default decodes to the
/// default-constructed struct, and a non-default value changes that row's
/// member and no other row's.
template <class T>
void expect_rows_bind_their_members(const std::string& name,
                                    const ParamTable<T>& table) {
  const ParamSchema schema = table.schema();
  const T defaults{};
  for (const auto& row : table.rows()) {
    if (!row.set) continue;  // a listed key decodes through its own table
    SCOPED_TRACE(name + " " + row.spec.key);
    const ParamSpec& spec = *schema.find(row.spec.key);
    const T same = table.decode(
        ParamMap::parse_pairs({{spec.key, spec.default_value}}, schema));
    const ParamMap map = ParamMap::parse_pairs(
        {{spec.key, non_default(spec, row.def)}}, schema);
    const T changed = table.decode(map);
    EXPECT_FALSE(row.get(changed) == row.def);
    EXPECT_TRUE(row.get(changed) == *map.find(spec.key));
    for (const auto& other : table.rows()) {
      if (!other.get) continue;
      EXPECT_TRUE(other.get(same) == other.get(defaults)) << other.spec.key;
      if (&other != &row) {
        EXPECT_TRUE(other.get(changed) == other.get(defaults))
            << other.spec.key << " moved too";
      }
    }
  }
}

TEST(ParamMapTest, EveryTableRowBindsExactlyItsMember) {
  expect_rows_bind_their_members("sched", sched_table());
  expect_rows_bind_their_members("rtds", rtds_table());
  expect_rows_bind_their_members("local", local_table());
  expect_rows_bind_their_members("central", central_table());
  expect_rows_bind_their_members("bcast", bcast_table());
  expect_rows_bind_their_members("offload", offload_table());
  expect_rows_bind_their_members("faults", fault::fault_table());
  expect_rows_bind_their_members("crash", fault::crash_table());
  expect_rows_bind_their_members("workload", load::workload_table());
}

}  // namespace
}  // namespace rtds::policy
