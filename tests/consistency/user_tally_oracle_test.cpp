// Oracle for the engine's user-perspective results: the per-user average
// first-seen inconsistency (Figs. 14b/15b), its per-server maximum (Fig. 20)
// and the fraction of observations older than content the user already saw
// (Fig. 24). The engine folds them into per-user tallies as it goes; the
// accessors must equal, bit for bit, the row scans below run over the same
// engine's user-log rows, and a second run that records no rows must give
// the same values. Checked across the five paper systems, clean and with
// loss + reliable delivery + server absences, in every execution mode that
// writes user observations: the batched walk, the per-visit path, switching
// users, DNS-attached users and a 2-lane sharded run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "consistency/engine.hpp"
#include "consistency/engine_test_util.hpp"
#include "trace/absence.hpp"
#include "util/error.hpp"

namespace cdnsim::consistency {
namespace {

using testutil::base_config;
using testutil::run;
using testutil::short_game;
using testutil::small_scenario;

struct System {
  const char* name;
  UpdateMethod method;
  InfrastructureKind infra;
};

// Prints the case name alone, so ctest names do not embed the struct bytes.
void PrintTo(const System& s, std::ostream* os) { *os << s.name; }

const System kSystems[] = {
    {"Ttl", UpdateMethod::kTtl, InfrastructureKind::kUnicast},
    {"Push", UpdateMethod::kPush, InfrastructureKind::kUnicast},
    {"Invalidation", UpdateMethod::kInvalidation, InfrastructureKind::kUnicast},
    {"SelfAdaptive", UpdateMethod::kSelfAdaptive, InfrastructureKind::kUnicast},
    {"Hat", UpdateMethod::kSelfAdaptive, InfrastructureKind::kHybridSupernode},
};

// --- the row scans ---------------------------------------------------------

// Per user: the mean over versions v of (first serve time showing >= v) -
// (v's update time), in row order; 0 for a user who saw no update.
std::vector<double> oracle_user_avg(const cdn::UserPopulationLog& logs,
                                    const trace::UpdateTrace& shifted) {
  std::vector<double> out;
  const trace::Version final_version = shifted.update_count();
  for (std::size_t u = 0; u < logs.user_count(); ++u) {
    double sum = 0;
    std::size_t count = 0;
    trace::Version next_needed = 1;
    for (const auto& obs : logs.log(static_cast<cdn::UserId>(u)).observations()) {
      if (!obs.answered) continue;
      while (next_needed <= obs.version && next_needed <= final_version) {
        sum += obs.serve_time - shifted.update_time(next_needed);
        ++next_needed;
        ++count;
      }
    }
    out.push_back(count == 0 ? 0.0 : sum / static_cast<double>(count));
  }
  return out;
}

// Largest per-user average among each server's pinned users.
std::vector<double> oracle_per_server_max(const std::vector<double>& per_user,
                                          std::size_t servers,
                                          std::size_t users_per_server) {
  std::vector<double> out(servers, 0.0);
  for (std::size_t i = 0; i < per_user.size(); ++i) {
    const std::size_t server = i / users_per_server;
    out[server] = std::max(out[server], per_user[i]);
  }
  return out;
}

// Answered observations showing a version below one the same user saw
// earlier, over all answered observations.
double oracle_stale_fraction(const cdn::UserPopulationLog& logs) {
  std::uint64_t total = 0;
  std::uint64_t stale = 0;
  for (std::size_t u = 0; u < logs.user_count(); ++u) {
    trace::Version max_seen = 0;
    for (const auto& obs : logs.log(static_cast<cdn::UserId>(u)).observations()) {
      if (!obs.answered) continue;
      ++total;
      if (obs.version < max_seen) ++stale;
      max_seen = std::max(max_seen, obs.version);
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(stale) / static_cast<double>(total);
}

// --- cases -----------------------------------------------------------------

enum class Mode { kBatched, kPerVisit, kSwitching, kDns, kSharded };

trace::UpdateTrace shifted_trace(const trace::UpdateTrace& updates,
                                 sim::SimTime offset) {
  std::vector<sim::SimTime> times;
  for (const sim::SimTime t : updates.times()) times.push_back(t + offset);
  return trace::UpdateTrace(std::move(times));
}

std::vector<trace::AbsenceSchedule> random_absences(std::size_t servers) {
  trace::AbsenceConfig config;
  config.absences_per_hour = 4.0;
  util::Rng rng(11);
  std::vector<trace::AbsenceSchedule> out;
  for (std::size_t i = 0; i < servers; ++i) {
    out.push_back(trace::generate_absences(config, 3000.0, rng));
  }
  return out;
}

EngineConfig case_config(const System& sys, Mode mode, bool faulty) {
  EngineConfig ec = base_config(sys.method, sys.infra);
  if (faulty) {
    ec.fault.enabled = true;
    ec.fault.loss_probability = 0.15;
    ec.reliable.enabled = true;
    ec.reliable.max_retries = 1;  // some fetches give up: failed requests
  }
  switch (mode) {
    case Mode::kBatched:
      break;
    case Mode::kPerVisit:
      ec.visit_batching = false;
      break;
    case Mode::kSwitching:
      ec.user_attachment = UserAttachment::kSwitchEveryVisit;
      break;
    case Mode::kDns:
      ec.user_attachment = UserAttachment::kDnsCache;
      ec.dns_user_count = 40;
      break;
    case Mode::kSharded:
      ec.shard.shards = 2;
      ec.shard.workers = 1;
      break;
  }
  return ec;
}

void expect_accessors_match_oracle(const System& sys, Mode mode) {
  const auto scenario = small_scenario();
  const auto updates = short_game();
  const std::size_t servers = scenario.nodes->server_count();
  for (const bool faulty : {false, true}) {
    SCOPED_TRACE(std::string(sys.name) + (faulty ? " faulty" : " clean"));
    EngineConfig rows = case_config(sys, mode, faulty);
    rows.record_user_logs = true;
    EngineConfig no_rows = rows;
    no_rows.record_user_logs = false;
    const auto absences = [&] {
      return faulty ? random_absences(servers)
                    : std::vector<trace::AbsenceSchedule>{};
    };
    const auto with_rows = run(*scenario.nodes, updates, rows, absences());
    const auto again = run(*scenario.nodes, updates, no_rows, absences());
    const UpdateEngine& a = *with_rows->engine;
    const UpdateEngine& b = *again->engine;

    const cdn::UserPopulationLog& logs = a.user_logs();
    std::size_t row_count = 0;
    std::size_t unanswered = 0;
    for (std::size_t u = 0; u < logs.user_count(); ++u) {
      for (const auto& obs :
           logs.log(static_cast<cdn::UserId>(u)).observations()) {
        ++row_count;
        if (!obs.answered) ++unanswered;
      }
    }
    ASSERT_GT(row_count, logs.user_count()) << "the run recorded no rows";
    if (faulty) {
      EXPECT_GT(unanswered, 0u) << "no failed request was recorded";
    }
    for (std::size_t u = 0; u < b.user_logs().user_count(); ++u) {
      EXPECT_TRUE(b.user_logs().log(static_cast<cdn::UserId>(u)).empty())
          << "user " << u << " has rows although none were asked for";
    }

    const std::vector<double> user_avg =
        oracle_user_avg(logs, shifted_trace(updates, rows.trace_offset_s));
    ASSERT_TRUE(std::any_of(user_avg.begin(), user_avg.end(),
                            [](double v) { return v > 0; }));
    const double stale = oracle_stale_fraction(logs);

    EXPECT_EQ(a.user_avg_inconsistency(), user_avg);
    EXPECT_EQ(b.user_avg_inconsistency(), user_avg);
    EXPECT_EQ(a.user_observed_inconsistency_fraction(), stale);
    EXPECT_EQ(b.user_observed_inconsistency_fraction(), stale);
    if (mode == Mode::kDns) {
      // DNS users belong to no server.
      EXPECT_THROW(b.per_server_max_user_inconsistency(),
                   cdnsim::PreconditionError);
    } else {
      const std::vector<double> per_server =
          oracle_per_server_max(user_avg, servers, rows.users_per_server);
      EXPECT_EQ(a.per_server_max_user_inconsistency(), per_server);
      EXPECT_EQ(b.per_server_max_user_inconsistency(), per_server);
      EXPECT_EQ(b.per_server_max_user_inconsistency(b.user_avg_inconsistency()),
                per_server);
    }
  }
}

class UserTallyOracleTest : public ::testing::TestWithParam<System> {};

TEST_P(UserTallyOracleTest, BatchedWalk) {
  expect_accessors_match_oracle(GetParam(), Mode::kBatched);
}

TEST_P(UserTallyOracleTest, PerVisitPath) {
  expect_accessors_match_oracle(GetParam(), Mode::kPerVisit);
}

TEST_P(UserTallyOracleTest, SwitchEveryVisit) {
  expect_accessors_match_oracle(GetParam(), Mode::kSwitching);
}

TEST_P(UserTallyOracleTest, DnsCache) {
  expect_accessors_match_oracle(GetParam(), Mode::kDns);
}

TEST_P(UserTallyOracleTest, TwoLaneSharded) {
  expect_accessors_match_oracle(GetParam(), Mode::kSharded);
}

INSTANTIATE_TEST_SUITE_P(FiveSystems, UserTallyOracleTest,
                         ::testing::ValuesIn(kSystems),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace cdnsim::consistency
