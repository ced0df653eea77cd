#include "core/simulation.hpp"

#include <gtest/gtest.h>

#include "trace/game_generator.hpp"

namespace cdnsim::core {
namespace {

trace::UpdateTrace small_trace() {
  std::vector<sim::SimTime> times;
  for (int i = 1; i <= 15; ++i) times.push_back(i * 20.0);
  return trace::UpdateTrace(times);
}

TEST(SimulationTest, ReturnsPerServerAndPerUserSeries) {
  ScenarioConfig sc;
  sc.server_count = 20;
  const auto scenario = build_scenario(sc);
  consistency::EngineConfig ec;
  ec.method.method = consistency::UpdateMethod::kTtl;
  const auto r = run_simulation(*scenario.nodes, small_trace(), ec);
  EXPECT_EQ(r.server_inconsistency_s.size(), 20u);
  EXPECT_EQ(r.user_inconsistency_s.size(), 100u);  // 5 users/server
  EXPECT_EQ(r.per_server_max_user_inconsistency_s.size(), 20u);
  EXPECT_GT(r.avg_server_inconsistency_s, 0.0);
  EXPECT_GT(r.avg_user_inconsistency_s, r.avg_server_inconsistency_s);
  EXPECT_GT(r.events_processed, 1000u);
  EXPECT_GT(r.simulated_time_s, 300.0);
}

TEST(SimulationTest, DnsUsersHaveNoPerServerMaximum) {
  ScenarioConfig sc;
  sc.server_count = 10;
  const auto scenario = build_scenario(sc);
  consistency::EngineConfig ec;
  ec.method.method = consistency::UpdateMethod::kTtl;
  ec.user_attachment = consistency::UserAttachment::kDnsCache;
  ec.users_per_server = 2;
  ec.dns_user_count = 60;  // more than users_per_server x servers
  const auto r = run_simulation(*scenario.nodes, small_trace(), ec);
  EXPECT_EQ(r.user_inconsistency_s.size(), 60u);
  EXPECT_TRUE(r.per_server_max_user_inconsistency_s.empty());
  EXPECT_GT(r.avg_user_inconsistency_s, 0.0);
}

TEST(SimulationTest, TrafficSplitsProviderShare) {
  ScenarioConfig sc;
  sc.server_count = 20;
  const auto scenario = build_scenario(sc);
  consistency::EngineConfig ec;
  ec.method.method = consistency::UpdateMethod::kPush;
  const auto r = run_simulation(*scenario.nodes, small_trace(), ec);
  // Unicast push: everything comes from the provider.
  EXPECT_EQ(r.traffic.update_messages, r.provider_traffic.update_messages);
  EXPECT_EQ(r.traffic.update_messages, 20u * 15u);
}

TEST(SimulationTest, MethodOrderingHoldsThroughFacade) {
  ScenarioConfig sc;
  sc.server_count = 25;
  const auto scenario = build_scenario(sc);
  auto run_method = [&](consistency::UpdateMethod m) {
    consistency::EngineConfig ec;
    ec.method.method = m;
    ec.method.server_ttl_s = 10.0;
    return run_simulation(*scenario.nodes, small_trace(), ec);
  };
  const auto push = run_method(consistency::UpdateMethod::kPush);
  const auto inval = run_method(consistency::UpdateMethod::kInvalidation);
  const auto ttl = run_method(consistency::UpdateMethod::kTtl);
  EXPECT_LT(push.avg_server_inconsistency_s, inval.avg_server_inconsistency_s);
  EXPECT_LT(inval.avg_server_inconsistency_s, ttl.avg_server_inconsistency_s);
}

TEST(SimulationTest, AbsencesIncreaseInconsistency) {
  ScenarioConfig sc;
  sc.server_count = 30;
  const auto scenario = build_scenario(sc);
  consistency::EngineConfig ec;
  ec.method.method = consistency::UpdateMethod::kTtl;

  const auto clean = run_simulation(*scenario.nodes, small_trace(), ec);

  std::vector<trace::AbsenceSchedule> absences(30);
  for (auto& a : absences) a.add(100.0, 250.0);  // everyone down mid-trace
  const auto faulty =
      run_simulation(*scenario.nodes, small_trace(), ec, std::move(absences));
  EXPECT_GT(faulty.avg_server_inconsistency_s, clean.avg_server_inconsistency_s);
}

TEST(SimulationTest, DeterministicAcrossCalls) {
  ScenarioConfig sc;
  sc.server_count = 15;
  const auto scenario = build_scenario(sc);
  consistency::EngineConfig ec;
  ec.method.method = consistency::UpdateMethod::kSelfAdaptive;
  const auto a = run_simulation(*scenario.nodes, small_trace(), ec);
  const auto b = run_simulation(*scenario.nodes, small_trace(), ec);
  EXPECT_EQ(a.avg_server_inconsistency_s, b.avg_server_inconsistency_s);
  EXPECT_EQ(a.traffic.total_messages(), b.traffic.total_messages());
  EXPECT_EQ(a.events_processed, b.events_processed);
}

}  // namespace
}  // namespace cdnsim::core
