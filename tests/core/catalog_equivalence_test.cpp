// The catalog layer's two determinism contracts (see core/catalog_run.hpp):
//
//  1. A single-object catalog with full replication is byte-identical to a
//     direct run_simulation of the template config — across every update
//     method, with reliable delivery on or off, and under a non-trivial
//     fault plan. The catalog is a strict generalization: N=1 must not
//     change a single bit of the paper experiments.
//  2. A multi-object run is byte-identical for every lane count and every
//     worker-thread count (objects partition into lanes by ring position,
//     but each object's inputs are keyed by object id alone).
#include "core/catalog_run.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "consistency/infrastructure.hpp"
#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "trace/game_generator.hpp"
#include "util/rng.hpp"

namespace cdnsim::core {
namespace {

using consistency::InfrastructureKind;
using consistency::UpdateMethod;

constexpr std::size_t kServers = 20;

Scenario test_scenario() {
  ScenarioConfig cfg;
  cfg.server_count = kServers;
  cfg.seed = 7;
  return build_scenario(cfg);
}

trace::UpdateTrace test_trace() {
  trace::GameTraceConfig cfg;
  cfg.bursty = false;
  cfg.pre_game_s = 20;
  cfg.periods = 2;
  cfg.period_s = 300;
  cfg.break_s = 120;
  cfg.post_game_s = 40;
  cfg.in_play_mean_gap_s = 15;
  util::Rng rng(5);
  return trace::generate_game_trace(cfg, rng);
}

consistency::EngineConfig method_config(UpdateMethod method,
                                        InfrastructureKind infra) {
  consistency::EngineConfig ec;
  ec.method.method = method;
  ec.method.server_ttl_s = 15.0;
  ec.infrastructure.kind = infra;
  ec.infrastructure.cluster_count = 5;
  ec.users_per_server = 3;
  ec.user_poll_period_s = 12.0;
  ec.seed = 4242;
  return ec;
}

/// Hardened variant: reliable delivery on, plus a fault plan that actually
/// fires (loss, duplication, jitter) — the catalog must forward both to the
/// per-object engines untouched.
consistency::EngineConfig hardened(consistency::EngineConfig ec) {
  ec.reliable.enabled = true;
  ec.fault.enabled = true;
  ec.fault.loss_probability = 0.05;
  ec.fault.duplicate_probability = 0.02;
  ec.fault.extra_delay_max_s = 0.5;
  return ec;
}

/// Exact comparison on purpose: the contract is byte identity, not
/// numerical closeness.
void expect_identical(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.server_inconsistency_s, b.server_inconsistency_s);
  EXPECT_EQ(a.user_inconsistency_s, b.user_inconsistency_s);
  EXPECT_EQ(a.per_server_max_user_inconsistency_s,
            b.per_server_max_user_inconsistency_s);
  EXPECT_EQ(a.avg_server_inconsistency_s, b.avg_server_inconsistency_s);
  EXPECT_EQ(a.avg_user_inconsistency_s, b.avg_user_inconsistency_s);
  EXPECT_EQ(a.traffic.cost_km_kb, b.traffic.cost_km_kb);
  EXPECT_EQ(a.traffic.load_km_update, b.traffic.load_km_update);
  EXPECT_EQ(a.traffic.load_km_light, b.traffic.load_km_light);
  EXPECT_EQ(a.traffic.update_messages, b.traffic.update_messages);
  EXPECT_EQ(a.traffic.light_messages, b.traffic.light_messages);
  EXPECT_EQ(a.provider_traffic.cost_km_kb, b.provider_traffic.cost_km_kb);
  EXPECT_EQ(a.provider_traffic.update_messages,
            b.provider_traffic.update_messages);
  EXPECT_EQ(a.user_observed_inconsistency_fraction,
            b.user_observed_inconsistency_fraction);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.simulated_time_s, b.simulated_time_s);
  EXPECT_EQ(a.failures_injected, b.failures_injected);
  EXPECT_EQ(a.converged_server_fraction, b.converged_server_fraction);
  // The full metric registry, serialized: every counter and gauge.
  EXPECT_EQ(a.metrics.to_json(), b.metrics.to_json());
}

struct MethodCase {
  const char* name;
  UpdateMethod method;
  InfrastructureKind infra;
};

// gtest prints the parameter into the ctest name; print the name alone so
// the test names do not depend on the struct's bytes (pointer included).
void PrintTo(const MethodCase& m, std::ostream* os) { *os << m.name; }

const MethodCase kMethods[] = {
    {"Ttl", UpdateMethod::kTtl, InfrastructureKind::kUnicast},
    {"Push", UpdateMethod::kPush, InfrastructureKind::kUnicast},
    {"Invalidation", UpdateMethod::kInvalidation, InfrastructureKind::kUnicast},
    {"SelfAdaptive", UpdateMethod::kSelfAdaptive, InfrastructureKind::kUnicast},
    {"Hat", UpdateMethod::kSelfAdaptive, InfrastructureKind::kHybridSupernode},
};

class CatalogEquivalenceTest : public ::testing::TestWithParam<MethodCase> {};

/// A catalog that degenerates to the paper's setup: one object, replicated
/// to every server.
CatalogRunConfig single_object_config(const consistency::EngineConfig& ec) {
  CatalogRunConfig cfg;
  cfg.catalog.object_count = 1;
  cfg.catalog.policy = cdn::ReplicaPolicy::kFixed;
  cfg.catalog.replica_budget = static_cast<double>(kServers);
  cfg.engine = ec;
  return cfg;
}

TEST_P(CatalogEquivalenceTest, SingleObjectMatchesLegacyEngine) {
  const MethodCase& m = GetParam();
  const auto scenario = test_scenario();
  const auto updates = test_trace();
  const auto ec = method_config(m.method, m.infra);

  const SimulationResult direct = run_simulation(*scenario.nodes, updates, ec);
  const CatalogRunResult catalog =
      run_catalog(*scenario.nodes, updates, single_object_config(ec));

  ASSERT_EQ(catalog.objects.size(), 1u);
  ASSERT_EQ(catalog.objects[0].replica_set.size(), kServers);
  // Full replication, ascending: the sub-scenario IS the source registry.
  for (topology::NodeId s = 0; s < static_cast<topology::NodeId>(kServers); ++s) {
    EXPECT_EQ(catalog.objects[0].replica_set[static_cast<std::size_t>(s)], s);
  }
  EXPECT_EQ(catalog.objects[0].users_per_replica, ec.users_per_server);
  expect_identical(catalog.objects[0].sim, direct);
  // The aggregates collapse to the single object's numbers (weight == 1).
  EXPECT_EQ(catalog.weighted_server_inconsistency_s,
            direct.avg_server_inconsistency_s);
  EXPECT_EQ(catalog.traffic.cost_km_kb, direct.traffic.cost_km_kb);
  EXPECT_EQ(catalog.events_processed, direct.events_processed);
}

TEST_P(CatalogEquivalenceTest, SingleObjectMatchesUnderReliableAndFaults) {
  const MethodCase& m = GetParam();
  const auto scenario = test_scenario();
  const auto updates = test_trace();
  const auto ec = hardened(method_config(m.method, m.infra));

  const SimulationResult direct = run_simulation(*scenario.nodes, updates, ec);
  const CatalogRunResult catalog =
      run_catalog(*scenario.nodes, updates, single_object_config(ec));

  ASSERT_EQ(catalog.objects.size(), 1u);
  expect_identical(catalog.objects[0].sim, direct);
}

INSTANTIATE_TEST_SUITE_P(FiveSystems, CatalogEquivalenceTest,
                         ::testing::ValuesIn(kMethods),
                         [](const ::testing::TestParamInfo<MethodCase>& info) {
                           return std::string(info.param.name);
                         });

void expect_identical_runs(const CatalogRunResult& a,
                           const CatalogRunResult& b) {
  ASSERT_EQ(a.objects.size(), b.objects.size());
  for (std::size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_EQ(a.objects[i].id, b.objects[i].id);
    EXPECT_EQ(a.objects[i].rank, b.objects[i].rank);
    EXPECT_EQ(a.objects[i].weight, b.objects[i].weight);
    EXPECT_EQ(a.objects[i].replica_set, b.objects[i].replica_set);
    EXPECT_EQ(a.objects[i].users_per_replica, b.objects[i].users_per_replica);
    expect_identical(a.objects[i].sim, b.objects[i].sim);
  }
  EXPECT_EQ(a.weighted_server_inconsistency_s,
            b.weighted_server_inconsistency_s);
  EXPECT_EQ(a.weighted_user_inconsistency_s, b.weighted_user_inconsistency_s);
  EXPECT_EQ(a.traffic.cost_km_kb, b.traffic.cost_km_kb);
  EXPECT_EQ(a.traffic.update_messages, b.traffic.update_messages);
  EXPECT_EQ(a.traffic.light_messages, b.traffic.light_messages);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.total_replicas, b.total_replicas);
}

CatalogRunConfig multi_object_config() {
  CatalogRunConfig cfg;
  cfg.catalog.object_count = 12;
  cfg.catalog.zipf_s = 0.9;
  cfg.catalog.policy = cdn::ReplicaPolicy::kProportional;
  cfg.catalog.replica_budget = 4.0;
  cfg.engine = method_config(UpdateMethod::kPush, InfrastructureKind::kUnicast);
  return cfg;
}

TEST(CatalogLaneInvarianceTest, OutputIdenticalAcrossLaneAndThreadCounts) {
  const auto scenario = test_scenario();
  const auto updates = test_trace();

  CatalogRunConfig serial = multi_object_config();
  serial.lanes = 1;
  serial.threads = 1;
  const auto baseline = run_catalog(*scenario.nodes, updates, serial);

  struct Split {
    int lanes;
    std::size_t threads;
  };
  for (const Split split : {Split{3, 2}, Split{5, 4}, Split{12, 0},
                            Split{CatalogRunConfig::kAutoLanes, 0}}) {
    CatalogRunConfig cfg = multi_object_config();
    cfg.lanes = split.lanes;
    cfg.threads = split.threads;
    const auto run = run_catalog(*scenario.nodes, updates, cfg);
    expect_identical_runs(baseline, run);
  }
}

TEST(CatalogLaneInvarianceTest, HardenedConfigStillLaneInvariant) {
  const auto scenario = test_scenario();
  const auto updates = test_trace();

  CatalogRunConfig serial = multi_object_config();
  serial.engine = hardened(serial.engine);
  serial.lanes = 1;
  serial.threads = 1;
  const auto baseline = run_catalog(*scenario.nodes, updates, serial);

  CatalogRunConfig parallel_cfg = serial;
  parallel_cfg.lanes = 4;
  parallel_cfg.threads = 4;
  const auto run = run_catalog(*scenario.nodes, updates, parallel_cfg);
  expect_identical_runs(baseline, run);
}

TEST(CatalogEngineConfigTest, SeedSubstreamKeyedByObjectIdOnly) {
  const cdn::Catalog catalog({.object_count = 5}, kServers);
  const auto tmpl =
      method_config(UpdateMethod::kTtl, InfrastructureKind::kUnicast);
  const auto c0 = catalog_engine_config(tmpl, catalog, 0, kServers);
  EXPECT_EQ(c0.seed, tmpl.seed);  // object 0 keeps the template seed
  const auto c1 = catalog_engine_config(tmpl, catalog, 1, kServers);
  const auto c2 = catalog_engine_config(tmpl, catalog, 2, kServers);
  EXPECT_NE(c1.seed, tmpl.seed);
  EXPECT_NE(c1.seed, c2.seed);
  // Stable across calls — no hidden state.
  EXPECT_EQ(c1.seed, catalog_engine_config(tmpl, catalog, 1, kServers).seed);
}

TEST(CatalogEngineConfigTest, InfrastructureClampedToReplicaSet) {
  const cdn::Catalog catalog({.object_count = 5}, kServers);
  auto tmpl = method_config(UpdateMethod::kSelfAdaptive,
                            InfrastructureKind::kHybridSupernode);
  tmpl.infrastructure.cluster_count = 5;
  // A 3-replica object cannot host 5 clusters; the derivation clamps.
  const auto small = catalog_engine_config(tmpl, catalog, 1, 3);
  EXPECT_EQ(small.infrastructure.cluster_count, 3u);
  // A full-replication object keeps the template untouched.
  const auto full = catalog_engine_config(tmpl, catalog, 1, kServers);
  EXPECT_EQ(full.infrastructure.cluster_count, 5u);
}

TEST(CatalogRunTest, SmallReplicaSetsRunHybridInfrastructure) {
  // End-to-end guard for the clamp: a proportional catalog whose tail has
  // fewer replicas than the template's cluster count must still run on the
  // hybrid infrastructures without tripping engine preconditions.
  const auto scenario = test_scenario();
  const auto updates = test_trace();
  CatalogRunConfig cfg = multi_object_config();
  cfg.engine = method_config(UpdateMethod::kSelfAdaptive,
                             InfrastructureKind::kHybridSupernode);
  const auto run = run_catalog(*scenario.nodes, updates, cfg);
  ASSERT_EQ(run.objects.size(), 12u);
  for (const auto& o : run.objects) {
    EXPECT_GE(o.replica_set.size(), 1u);
    EXPECT_GT(o.sim.events_processed, 0u);
  }
}

}  // namespace
}  // namespace cdnsim::core
