// Message-accounting invariants: for each method the meter's update/light
// split must satisfy exact conservation laws derivable from the protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "engine_test_util.hpp"

namespace cdnsim::consistency {
namespace {

using testutil::base_config;
using testutil::regular_trace;
using testutil::run;
using testutil::short_game;
using testutil::small_scenario;

// (server, time, version, answered): what a poll row records of one request.
using PollRow = std::tuple<topology::NodeId, sim::SimTime, trace::Version, bool>;

std::vector<PollRow> sorted_poll_rows(const trace::PollLog& log) {
  std::vector<PollRow> rows;
  for (const auto& o : log.observations()) {
    rows.emplace_back(o.server, o.time, o.version, o.answered);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// The user logs seen as poll rows: a request is observed when it is served
// (or fails), so its poll row carries the serve time.
std::vector<PollRow> sorted_user_rows(const cdn::UserPopulationLog& logs) {
  std::vector<PollRow> rows;
  for (std::size_t u = 0; u < logs.user_count(); ++u) {
    for (const auto& o : logs.log(static_cast<cdn::UserId>(u)).observations()) {
      rows.emplace_back(o.server, o.serve_time, o.version, o.answered);
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// With both logs on, every user observation is also a poll row, including
// requests that fail while waiting on a fetch.
void expect_poll_log_matches_user_logs(const UpdateEngine& engine) {
  const auto poll = sorted_poll_rows(engine.poll_log());
  const auto user = sorted_user_rows(engine.user_logs());
  EXPECT_EQ(poll.size(), user.size());
  EXPECT_TRUE(poll == user) << "poll log and user logs hold different requests";
}

TEST(EngineAccountingTest, TtlEveryRequestHasExactlyOneResponse) {
  // Pure TTL: light messages are exactly the poll requests; every request
  // produces one response (fresh or noop), both counted as update messages
  // under the Section 5.3 accounting. So light == update.
  const auto scenario = small_scenario(25);
  const auto updates = regular_trace(25.0, 15);
  auto cfg = base_config(UpdateMethod::kTtl);
  cfg.users_per_server = 0;  // no fetch traffic
  const auto r = run(*scenario.nodes, updates, cfg);
  const auto t = r->engine->meter().totals();
  EXPECT_EQ(t.light_messages, t.update_messages);
  EXPECT_GT(t.light_messages, 0u);
}

TEST(EngineAccountingTest, PushHasNoLightTraffic) {
  const auto scenario = small_scenario(25);
  const auto updates = regular_trace(25.0, 15);
  const auto r = run(*scenario.nodes, updates, base_config(UpdateMethod::kPush));
  const auto t = r->engine->meter().totals();
  EXPECT_EQ(t.light_messages, 0u);
  EXPECT_EQ(t.update_messages, 25u * 15u);
  EXPECT_DOUBLE_EQ(t.load_km_light, 0.0);
}

TEST(EngineAccountingTest, InvalidationBalanceSheet) {
  // Unicast Invalidation: light = notices (n_servers x n_updates) + fetch
  // requests; update = fetch responses; requests == responses (reliable
  // transport, no failures).
  const auto scenario = small_scenario(20);
  const auto updates = regular_trace(30.0, 12);
  auto cfg = base_config(UpdateMethod::kInvalidation);
  cfg.user_poll_period_s = 5.0;  // visits frequent: every update fetched
  const auto r = run(*scenario.nodes, updates, cfg);
  const auto t = r->engine->meter().totals();
  const std::uint64_t notices = 20u * 12u;
  ASSERT_GE(t.light_messages, notices);
  const std::uint64_t fetch_requests = t.light_messages - notices;
  EXPECT_EQ(fetch_requests, t.update_messages);  // one response per request
  EXPECT_GT(t.update_messages, 0u);
  // At this visit rate, nearly every update triggers its own fetch.
  EXPECT_GE(t.update_messages, notices / 2);
}

TEST(EngineAccountingTest, ProviderSendsOnlyResponsesInUnicastTtl) {
  // In unicast TTL, everything the provider sends is a poll response, and
  // everything the servers send is a poll request.
  const auto scenario = small_scenario(15);
  const auto updates = regular_trace(25.0, 10);
  auto cfg = base_config(UpdateMethod::kTtl);
  cfg.users_per_server = 0;
  const auto r = run(*scenario.nodes, updates, cfg);
  const auto provider = r->engine->meter().sender_totals(topology::kProviderNode);
  const auto total = r->engine->meter().totals();
  EXPECT_EQ(provider.light_messages, 0u);
  EXPECT_EQ(provider.update_messages, total.update_messages);
}

TEST(EngineAccountingTest, CostEqualsKmTimesKbForUniformSizes) {
  // With every packet 1 KB, cost (km*KB) must equal total km.
  const auto scenario = small_scenario(20);
  const auto updates = regular_trace(25.0, 10);
  auto cfg = base_config(UpdateMethod::kTtl);
  cfg.update_packet_kb = 1.0;
  cfg.light_packet_kb = 1.0;
  const auto r = run(*scenario.nodes, updates, cfg);
  const auto t = r->engine->meter().totals();
  EXPECT_NEAR(t.cost_km_kb, t.load_km_total(), 1e-6 * t.cost_km_kb);
}

TEST(EngineAccountingTest, MulticastTotalsMatchUnicastCountsForPush) {
  // One push per server per update regardless of infrastructure; only the
  // km distribution changes.
  const auto scenario = small_scenario(30);
  const auto updates = regular_trace(25.0, 10);
  const auto ru = run(*scenario.nodes, updates, base_config(UpdateMethod::kPush));
  const auto rm = run(*scenario.nodes, updates,
                      base_config(UpdateMethod::kPush,
                                  InfrastructureKind::kMulticastTree));
  EXPECT_EQ(ru->engine->meter().totals().update_messages,
            rm->engine->meter().totals().update_messages);
  EXPECT_LT(rm->engine->meter().totals().load_km_update,
            ru->engine->meter().totals().load_km_update);
}

TEST(EngineAccountingTest, SelfAdaptiveSwitchNoticesAreLight) {
  // A trace with one silence: each server sends >= 1 switch notice; light
  // messages exceed poll requests alone.
  const auto scenario = small_scenario(15);
  std::vector<sim::SimTime> times{10.0, 18.0, 1200.0};
  const trace::UpdateTrace updates{times};
  auto sa = base_config(UpdateMethod::kSelfAdaptive);
  sa.users_per_server = 1;
  auto ttl = base_config(UpdateMethod::kTtl);
  ttl.users_per_server = 1;
  const auto rs = run(*scenario.nodes, updates, sa);
  const auto ts = rs->engine->meter().totals();
  // Light traffic exists and includes non-poll messages: update responses
  // are far fewer than light messages (notices + switches + polls).
  EXPECT_GT(ts.light_messages, ts.update_messages);
}

TEST(EngineAccountingTest, PollLogHoldsRequestsFailedByFetchGiveUps) {
  const auto scenario = small_scenario(20);
  const auto updates = short_game();
  auto cfg = base_config(UpdateMethod::kInvalidation);
  cfg.fault.enabled = true;
  cfg.fault.loss_probability = 0.3;
  cfg.reliable.enabled = true;
  cfg.reliable.max_retries = 0;
  cfg.record_poll_log = true;
  cfg.record_user_logs = true;
  const auto r = run(*scenario.nodes, updates, cfg);
  auto metrics = r->engine->metrics();  // counter() is non-const (registers)
  ASSERT_GT(metrics.counter("reliable.give_ups").value, 0u)
      << "no fetch was given up";
  expect_poll_log_matches_user_logs(*r->engine);
}

TEST(EngineAccountingTest, PollLogHoldsRequestsFailedByCrashes) {
  const auto scenario = small_scenario(20);
  const auto updates = short_game();
  auto cfg = base_config(UpdateMethod::kInvalidation);
  cfg.churn.failures_per_hour = 600.0;
  cfg.churn.downtime_mean_s = 30.0;
  // Without reliable delivery a lost fetch wedges its server until the
  // server crashes, so crashes catch users waiting on fetches.
  cfg.fault.enabled = true;
  cfg.fault.loss_probability = 0.1;
  cfg.record_poll_log = true;
  cfg.record_user_logs = true;
  const auto r = run(*scenario.nodes, updates, cfg);
  ASSERT_GT(r->engine->failures_injected(), 0u);
  expect_poll_log_matches_user_logs(*r->engine);
}

}  // namespace
}  // namespace cdnsim::consistency
