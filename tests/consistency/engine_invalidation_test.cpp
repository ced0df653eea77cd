#include <gtest/gtest.h>

#include "engine_test_util.hpp"
#include "util/stats.hpp"

namespace cdnsim::consistency {
namespace {

using testutil::base_config;
using testutil::regular_trace;
using testutil::run;
using testutil::small_scenario;

TEST(EngineInvalidationTest, InconsistencyBetweenPushAndTtl) {
  const auto scenario = small_scenario(40);
  const auto updates = regular_trace(25.0, 20);
  const auto rp = run(*scenario.nodes, updates, base_config(UpdateMethod::kPush));
  const auto ri = run(*scenario.nodes, updates,
                      base_config(UpdateMethod::kInvalidation));
  const auto rt = run(*scenario.nodes, updates, base_config(UpdateMethod::kTtl));
  const double push = util::mean(rp->engine->server_avg_inconsistency());
  const double inval = util::mean(ri->engine->server_avg_inconsistency());
  const double ttl = util::mean(rt->engine->server_avg_inconsistency());
  EXPECT_LT(push, inval);
  EXPECT_LT(inval, ttl);
}

TEST(EngineInvalidationTest, OneNoticePerUpdatePerServer) {
  const auto scenario = small_scenario(20);
  const auto updates = regular_trace(25.0, 10);
  auto cfg = base_config(UpdateMethod::kInvalidation);
  cfg.users_per_server = 0;  // nobody fetches
  const auto r = run(*scenario.nodes, updates, cfg);
  EXPECT_EQ(r->engine->meter().totals().light_messages, 20u * 10u);
  EXPECT_EQ(r->engine->meter().totals().update_messages, 0u);
}

TEST(EngineInvalidationTest, NoVisitsMeansNoContentTransfers) {
  const auto scenario = small_scenario(15);
  const auto updates = regular_trace(25.0, 8);
  auto cfg = base_config(UpdateMethod::kInvalidation);
  cfg.users_per_server = 0;
  const auto r = run(*scenario.nodes, updates, cfg);
  for (topology::NodeId s = 0; s < 15; ++s) {
    EXPECT_EQ(r->engine->recorder(s).current_version(), 0);
  }
}

TEST(EngineInvalidationTest, VisitTriggersFetchAndFreshServe) {
  const auto scenario = small_scenario(15);
  const auto updates = regular_trace(25.0, 8);
  auto cfg = base_config(UpdateMethod::kInvalidation);
  cfg.users_per_server = 2;
  const auto r = run(*scenario.nodes, updates, cfg);
  for (topology::NodeId s = 0; s < 15; ++s) {
    EXPECT_EQ(r->engine->recorder(s).current_version(), 8);
  }
  // Users always get post-fetch content: no user ever sees regression.
  EXPECT_LT(r->engine->user_observed_inconsistency_fraction(), 0.01);
}

TEST(EngineInvalidationTest, UsersWaitingForFetchAreServedFreshContent) {
  const auto scenario = small_scenario(10);
  const auto updates = regular_trace(30.0, 6);
  auto cfg = base_config(UpdateMethod::kInvalidation);
  cfg.user_poll_period_s = 5.0;
  cfg.record_user_logs = true;
  const auto r = run(*scenario.nodes, updates, cfg);
  // Every observation after a version's update+transport must be >= it.
  const auto& logs = r->engine->user_logs();
  std::size_t checked = 0;
  for (std::size_t u = 0; u < logs.user_count(); ++u) {
    for (const auto& obs : logs.log(static_cast<cdn::UserId>(u)).observations()) {
      if (!obs.answered) continue;
      // serve_time >= request_time always.
      EXPECT_GE(obs.serve_time, obs.request_time);
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST(EngineInvalidationTest, RareVisitsCutTrafficVsPush) {
  // Fig. 18's regime: infrequent visits on frequently updated content.
  const auto scenario = small_scenario(25);
  const auto updates = regular_trace(5.0, 60);
  auto inval = base_config(UpdateMethod::kInvalidation);
  inval.users_per_server = 1;
  inval.user_poll_period_s = 120.0;
  inval.update_packet_kb = 20.0;
  auto push = base_config(UpdateMethod::kPush);
  push.users_per_server = 1;
  push.user_poll_period_s = 120.0;
  push.update_packet_kb = 20.0;
  const auto ri = run(*scenario.nodes, updates, inval);
  const auto rp = run(*scenario.nodes, updates, push);
  EXPECT_LT(ri->engine->meter().totals().cost_km_kb,
            rp->engine->meter().totals().cost_km_kb);
}

TEST(EngineInvalidationTest, LongerUserTtlIncreasesServerInconsistency) {
  const auto scenario = small_scenario(30);
  const auto updates = regular_trace(40.0, 15);
  auto fast = base_config(UpdateMethod::kInvalidation);
  fast.user_poll_period_s = 10.0;
  auto slow = base_config(UpdateMethod::kInvalidation);
  slow.user_poll_period_s = 60.0;
  slow.user_start_window_s = 50.0;
  const auto rf = run(*scenario.nodes, updates, fast);
  const auto rs = run(*scenario.nodes, updates, slow);
  EXPECT_LT(util::mean(rf->engine->server_avg_inconsistency()),
            util::mean(rs->engine->server_avg_inconsistency()));
}

TEST(EngineInvalidationTest, MulticastRecursiveFetchConverges) {
  const auto scenario = small_scenario(40);
  const auto updates = regular_trace(30.0, 10);
  const auto r = run(*scenario.nodes, updates,
                     base_config(UpdateMethod::kInvalidation,
                                 InfrastructureKind::kMulticastTree));
  for (topology::NodeId s = 0; s < 40; ++s) {
    EXPECT_EQ(r->engine->recorder(s).current_version(), 10)
        << "server " << s << " did not converge";
  }
}

}  // namespace
}  // namespace cdnsim::consistency
