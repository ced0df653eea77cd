// Property-based tests: invariants that must hold across parameter sweeps
// (TEST_P over methods, infrastructures, TTLs, seeds).
#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "core/simulation.hpp"
#include "trace/game_generator.hpp"
#include "util/stats.hpp"

namespace cdnsim {
namespace {

using consistency::InfrastructureKind;
using consistency::UpdateMethod;

trace::UpdateTrace property_trace(std::uint64_t seed) {
  trace::GameTraceConfig cfg;
  cfg.bursty = false;  // Section 4 regime: individually delivered updates
  cfg.pre_game_s = 15;
  cfg.period_s = 300;
  cfg.break_s = 120;
  cfg.post_game_s = 30;
  cfg.in_play_mean_gap_s = 14;
  util::Rng rng(seed);
  return trace::generate_game_trace(cfg, rng);
}

// ---------------------------------------------------------------------------
// Sweep 1: every (method x infrastructure) combination upholds the core
// engine invariants.
// ---------------------------------------------------------------------------

using Combo = std::tuple<UpdateMethod, InfrastructureKind>;

class MethodInfraProperty : public ::testing::TestWithParam<Combo> {};

TEST_P(MethodInfraProperty, InvariantsHold) {
  const auto [method, infra] = GetParam();
  core::ScenarioConfig sc;
  sc.server_count = 36;
  const auto scenario = core::build_scenario(sc);
  const auto game = property_trace(7);

  consistency::EngineConfig ec;
  ec.method.method = method;
  ec.method.server_ttl_s = 12.0;
  // Bound adaptive TTL growth and give deep multicast chains enough tail to
  // drain the final update through every layer.
  ec.method.adaptive_max_ttl_s = 40.0;
  ec.tail_s = 400.0;
  ec.infrastructure.kind = infra;
  ec.infrastructure.cluster_count = 9;
  ec.user_poll_period_s = 6.0;

  sim::Simulator simulator;
  consistency::UpdateEngine engine(simulator, *scenario.nodes, game, ec);
  engine.run();

  // Invariant 1: every server converges to the final version (there are
  // users on every server, so even Invalidation catches up).
  for (topology::NodeId s = 0; s < 36; ++s) {
    EXPECT_EQ(engine.recorder(s).current_version(), game.update_count())
        << "server " << s;
  }

  // Invariant 2: acquisition never precedes the origin update
  // (no time travel), for every server and version.
  trace::UpdateTrace shifted = [&] {
    std::vector<sim::SimTime> times;
    for (auto t : game.times()) times.push_back(t + ec.trace_offset_s);
    return trace::UpdateTrace(times);
  }();
  for (topology::NodeId s = 0; s < 36; ++s) {
    for (double len : engine.recorder(s).inconsistency_lengths(shifted)) {
      EXPECT_GE(len, 0.0);
    }
  }

  // Invariant 3: users never observe a version above the final one, and
  // serve_time >= request_time.
  const auto& logs = engine.user_logs();
  for (std::size_t u = 0; u < logs.user_count(); ++u) {
    for (const auto& obs : logs.log(static_cast<cdn::UserId>(u)).observations()) {
      EXPECT_LE(obs.version, game.update_count());
      EXPECT_GE(obs.serve_time, obs.request_time);
    }
  }

  // Invariant 4: traffic accounting is self-consistent.
  const auto totals = engine.meter().totals();
  EXPECT_GE(totals.cost_km_kb, 0.0);
  EXPECT_EQ(totals.total_messages(), totals.update_messages + totals.light_messages);
  if (method != UpdateMethod::kPush) {
    EXPECT_GT(totals.light_messages, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, MethodInfraProperty,
    ::testing::Combine(::testing::Values(UpdateMethod::kTtl, UpdateMethod::kPush,
                                         UpdateMethod::kInvalidation,
                                         UpdateMethod::kAdaptiveTtl,
                                         UpdateMethod::kSelfAdaptive),
                       ::testing::Values(InfrastructureKind::kUnicast,
                                         InfrastructureKind::kMulticastTree,
                                         InfrastructureKind::kHybridSupernode)),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             std::string(to_string(std::get<1>(info.param)));
    });

// ---------------------------------------------------------------------------
// Sweep 2: TTL/2 law across TTL values (Section 3.4.1's E[I] = TTL/2).
// ---------------------------------------------------------------------------

class TtlLawProperty : public ::testing::TestWithParam<double> {};

TEST_P(TtlLawProperty, MeanInconsistencyIsHalfTtl) {
  const double ttl = GetParam();
  core::ScenarioConfig sc;
  sc.server_count = 50;
  const auto scenario = core::build_scenario(sc);
  // Updates much sparser than the TTL so windows never overlap.
  std::vector<sim::SimTime> times;
  for (int i = 1; i <= 25; ++i) times.push_back(i * (3.0 * ttl + 7.0));
  const trace::UpdateTrace updates(times);

  consistency::EngineConfig ec;
  ec.method.method = UpdateMethod::kTtl;
  ec.method.server_ttl_s = ttl;
  ec.users_per_server = 1;
  const auto r = core::run_simulation(*scenario.nodes, updates, ec);
  EXPECT_NEAR(r.avg_server_inconsistency_s, ttl / 2.0, 0.15 * ttl + 0.6);
}

INSTANTIATE_TEST_SUITE_P(TtlSweep, TtlLawProperty,
                         ::testing::Values(4.0, 10.0, 20.0, 40.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "Ttl" + std::to_string(
                                              static_cast<int>(info.param));
                         });

// ---------------------------------------------------------------------------
// Sweep 3: determinism across seeds — different seeds change numbers,
// same seed reproduces them exactly, for every method.
// ---------------------------------------------------------------------------

// The method, wrapped so gtest prints its name rather than the enum's raw
// bytes into the ctest name. (A PrintTo for UpdateMethod itself would also
// rename the AllCombos tests, which print their tuple element by element.)
struct SeedCase {
  UpdateMethod method;
};

void PrintTo(const SeedCase& c, std::ostream* os) { *os << to_string(c.method); }

class SeedProperty : public ::testing::TestWithParam<SeedCase> {};

TEST_P(SeedProperty, SameSeedReproducesDifferentSeedPerturbs) {
  const auto method = GetParam().method;
  core::ScenarioConfig sc;
  sc.server_count = 24;
  const auto scenario = core::build_scenario(sc);
  const auto game = property_trace(3);

  auto run_seed = [&](std::uint64_t seed) {
    consistency::EngineConfig ec;
    ec.method.method = method;
    ec.seed = seed;
    return core::run_simulation(*scenario.nodes, game, ec);
  };
  const auto a1 = run_seed(42);
  const auto a2 = run_seed(42);
  const auto b = run_seed(43);
  EXPECT_EQ(a1.avg_server_inconsistency_s, a2.avg_server_inconsistency_s);
  EXPECT_EQ(a1.events_processed, a2.events_processed);
  if (method != UpdateMethod::kPush) {
    // Push has no randomized polling phases; others must perturb.
    EXPECT_NE(a1.avg_server_inconsistency_s, b.avg_server_inconsistency_s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedProperty,
                         ::testing::Values(SeedCase{UpdateMethod::kTtl},
                                           SeedCase{UpdateMethod::kPush},
                                           SeedCase{UpdateMethod::kInvalidation},
                                           SeedCase{UpdateMethod::kSelfAdaptive}),
                         [](const ::testing::TestParamInfo<SeedCase>& info) {
                           return std::string(to_string(info.param.method));
                         });

// ---------------------------------------------------------------------------
// Sweep 4: multicast fanout — deeper trees (smaller d) amplify TTL
// inconsistency monotonically.
// ---------------------------------------------------------------------------

class FanoutProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FanoutProperty, InconsistencyBoundedByDepthTimesTtl) {
  const std::size_t fanout = GetParam();
  core::ScenarioConfig sc;
  sc.server_count = 40;
  const auto scenario = core::build_scenario(sc);
  std::vector<sim::SimTime> times;
  for (int i = 1; i <= 10; ++i) times.push_back(i * 150.0);
  const trace::UpdateTrace updates(times);

  consistency::EngineConfig ec;
  ec.method.method = UpdateMethod::kTtl;
  ec.method.server_ttl_s = 8.0;
  ec.infrastructure.kind = InfrastructureKind::kMulticastTree;
  ec.infrastructure.tree_fanout = fanout;

  sim::Simulator simulator;
  consistency::UpdateEngine engine(simulator, *scenario.nodes, updates, ec);
  engine.run();
  const auto inc = engine.server_avg_inconsistency();
  const auto& infra = engine.infrastructure();
  for (topology::NodeId s = 0; s < 40; ++s) {
    const double depth = static_cast<double>(infra.depth_of(s));
    // A node at depth m sees at most ~m TTL windows of delay.
    EXPECT_LE(inc[static_cast<std::size_t>(s)], depth * 8.0 + 2.0)
        << "fanout " << fanout << " server " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, FanoutProperty, ::testing::Values(1u, 2u, 4u, 8u),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "d" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Sweep 5: the headline orderings are not seed artifacts — they hold across
// scenario seeds, trace seeds, and engine seeds simultaneously.
// ---------------------------------------------------------------------------

class OrderingAcrossSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderingAcrossSeeds, ConsistencyAndCostOrderingsHold) {
  const std::uint64_t seed = GetParam();
  core::ScenarioConfig sc;
  sc.server_count = 40;
  sc.seed = seed;
  const auto scenario = core::build_scenario(sc);
  const auto game = property_trace(seed ^ 0xbeef);

  auto run_method = [&](UpdateMethod m) {
    consistency::EngineConfig ec;
    ec.method.method = m;
    // TTL longer than the update gap: the aggregation regime in which the
    // paper's Fig. 22 message ordering (Invalidation > TTL) holds.
    ec.method.server_ttl_s = 40.0;
    ec.seed = seed + 1;
    return core::run_simulation(*scenario.nodes, game, ec);
  };
  const auto push = run_method(UpdateMethod::kPush);
  const auto inval = run_method(UpdateMethod::kInvalidation);
  const auto ttl = run_method(UpdateMethod::kTtl);

  // Fig. 14's consistency ordering.
  EXPECT_LT(push.avg_server_inconsistency_s, inval.avg_server_inconsistency_s);
  EXPECT_LT(inval.avg_server_inconsistency_s, ttl.avg_server_inconsistency_s);
  // Fig. 22's message ordering.
  EXPECT_GT(push.traffic.update_messages, inval.traffic.update_messages);
  EXPECT_GT(inval.traffic.update_messages, ttl.traffic.update_messages);
  // Fig. 16's cost ordering under frequent updates.
  EXPECT_LT(push.traffic.cost_km_kb, ttl.traffic.cost_km_kb);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingAcrossSeeds,
                         ::testing::Values(11u, 222u, 3333u, 44444u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace cdnsim
