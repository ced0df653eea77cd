// Engine behaviour with DNS-attached users (the Section 3.3 redirection
// mechanism driving Fig. 4) and with server-switching users (Fig. 24).
#include <gtest/gtest.h>

#include "analysis/user_metrics.hpp"
#include "engine_test_util.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace cdnsim::consistency {
namespace {

using testutil::base_config;
using testutil::regular_trace;
using testutil::run;
using testutil::small_scenario;

TEST(EngineDnsTest, DnsUsersGetRegisteredAndServed) {
  const auto scenario = small_scenario(40);
  const auto updates = regular_trace(20.0, 15);
  auto cfg = base_config(UpdateMethod::kTtl);
  cfg.user_attachment = UserAttachment::kDnsCache;
  cfg.record_user_logs = true;
  cfg.dns_user_count = 30;
  const auto r = run(*scenario.nodes, updates, cfg);
  EXPECT_EQ(r->engine->user_count(), 30u);
  std::size_t total_obs = 0;
  for (std::size_t u = 0; u < 30; ++u) {
    total_obs += r->engine->user_logs().log(static_cast<cdn::UserId>(u)).size();
  }
  EXPECT_GT(total_obs, 30u * 20u);
}

TEST(EngineDnsTest, RedirectionFractionInExpectedBand) {
  const auto scenario = small_scenario(60);
  const auto updates = regular_trace(20.0, 20);
  auto cfg = base_config(UpdateMethod::kTtl);
  cfg.user_attachment = UserAttachment::kDnsCache;
  cfg.record_user_logs = true;
  cfg.dns_user_count = 50;
  const auto r = run(*scenario.nodes, updates, cfg);
  const auto fractions = analysis::redirection_fractions(r->engine->user_logs());
  ASSERT_GT(fractions.size(), 30u);
  const double mean = util::mean(fractions);
  // 60 s DNS cache, 10 s visits, 8 candidates -> ~14-15% redirected.
  EXPECT_GT(mean, 0.05);
  EXPECT_LT(mean, 0.30);
}

TEST(EngineDnsTest, SwitchingUsersSeeRegressionsUnderTtlButNotPush) {
  // Regressions need the user period to be shorter than the server TTL:
  // a server polled within the last user-period is always at least as fresh
  // as anything the user saw (the Fig. 24 end-user-TTL mechanism).
  const auto scenario = small_scenario(40);
  const auto updates = regular_trace(20.0, 20);
  auto ttl = base_config(UpdateMethod::kTtl);
  ttl.method.server_ttl_s = 60.0;
  ttl.user_attachment = UserAttachment::kSwitchEveryVisit;
  auto push = base_config(UpdateMethod::kPush);
  push.user_attachment = UserAttachment::kSwitchEveryVisit;
  const auto rt = run(*scenario.nodes, updates, ttl);
  const auto rp = run(*scenario.nodes, updates, push);
  EXPECT_GT(rt->engine->user_observed_inconsistency_fraction(), 0.01);
  EXPECT_LT(rp->engine->user_observed_inconsistency_fraction(), 0.005);
}

TEST(EngineDnsTest, PinnedUsersNeverSeeRegressions) {
  // A single server's version is monotone, so a pinned user can never
  // observe content older than previously seen.
  const auto scenario = small_scenario(25);
  const auto updates = regular_trace(15.0, 25);
  for (auto method : {UpdateMethod::kTtl, UpdateMethod::kInvalidation,
                      UpdateMethod::kSelfAdaptive}) {
    const auto r = run(*scenario.nodes, updates, base_config(method));
    EXPECT_DOUBLE_EQ(r->engine->user_observed_inconsistency_fraction(), 0.0)
        << to_string(method);
  }
}

TEST(EngineDnsTest, PerServerUserMaximumRejectsDnsUsers) {
  // More DNS users than users_per_server x servers: a per-server fold by
  // user id would index past the last server.
  const auto scenario = small_scenario(10);
  const auto updates = regular_trace(20.0, 10);
  auto cfg = base_config(UpdateMethod::kTtl);
  cfg.user_attachment = UserAttachment::kDnsCache;
  cfg.users_per_server = 2;
  cfg.dns_user_count = 60;
  const auto r = run(*scenario.nodes, updates, cfg);
  const std::vector<double> per_user = r->engine->user_avg_inconsistency();
  EXPECT_EQ(per_user.size(), 60u);
  EXPECT_THROW(r->engine->per_server_max_user_inconsistency(per_user),
               cdnsim::PreconditionError);
  EXPECT_THROW(r->engine->per_server_max_user_inconsistency(),
               cdnsim::PreconditionError);
}

TEST(EngineDnsTest, RecordsPollLogWhenEnabled) {
  const auto scenario = small_scenario(10);
  const auto updates = regular_trace(20.0, 10);
  auto cfg = base_config(UpdateMethod::kTtl);
  cfg.record_poll_log = true;
  cfg.record_user_logs = false;
  const auto r = run(*scenario.nodes, updates, cfg);
  EXPECT_GT(r->engine->poll_log().size(), 500u);
  // User logs suppressed.
  std::size_t total_obs = 0;
  for (std::size_t u = 0; u < r->engine->user_count(); ++u) {
    total_obs += r->engine->user_logs().log(static_cast<cdn::UserId>(u)).size();
  }
  EXPECT_EQ(total_obs, 0u);
}

}  // namespace
}  // namespace cdnsim::consistency
