// Stress tests for the precomputed visit schedule against a naive
// one-event-per-visit model.
//
// The batched visit path in the engine trusts trace::build_visit_schedule
// to reproduce the legacy PeriodicTimer arrivals bit for bit. Here the
// schedule is checked against the real thing: per-user periodic timers run
// on a Simulator, recording every (time, user) arrival. The regimes cover
// empty schedules, all visits inside one start window, visits landing
// exactly on the horizon (dropped, matching the engine's `now >= end`
// stop), and u32 user-index limits. Walking a built schedule must not
// allocate (the engine's catch-up loop runs inside the hot event path).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "support/alloc_counter.hpp"
#include "trace/visit_schedule.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cdnsim::trace {
namespace {

struct Arrival {
  sim::SimTime time;
  std::uint32_t user;
  bool operator==(const Arrival& o) const {
    return time == o.time && user == o.user;  // bit-exact on purpose
  }
};

// The reference model: one PeriodicTimer per user, phases drawn in user-id
// order from an identically seeded RNG — exactly the legacy engine's visit
// loop. Produces per-server arrival lists sorted by (time, user); the
// simulator pops equal-time events FIFO and users start in id order, so the
// tie-break falls out of event order.
std::vector<std::vector<Arrival>> naive_arrivals(std::size_t server_count,
                                                 std::size_t users_per_server,
                                                 sim::SimTime period_s,
                                                 sim::SimTime start_window_s,
                                                 sim::SimTime end_time_s,
                                                 util::Rng& rng) {
  sim::Simulator sim;
  std::vector<std::vector<Arrival>> out(server_count);
  std::vector<std::unique_ptr<sim::PeriodicTimer>> timers;
  const std::size_t total_users = server_count * users_per_server;
  for (std::size_t u = 0; u < total_users; ++u) {
    const std::size_t server = u / users_per_server;
    auto timer = std::make_unique<sim::PeriodicTimer>(
        sim, period_s, [&sim, &out, server, u, end_time_s] {
          if (sim.now() >= end_time_s) return;
          out[server].push_back(
              {sim.now(), static_cast<std::uint32_t>(u)});
        });
    timer->start_after(rng.uniform(0.0, start_window_s));
    timers.push_back(std::move(timer));
  }
  sim.at(end_time_s, [&timers] {
    for (auto& t : timers) t->stop();
  });
  sim.run();
  return out;
}

void expect_matches_naive(std::size_t server_count,
                          std::size_t users_per_server, sim::SimTime period_s,
                          sim::SimTime start_window_s,
                          sim::SimTime end_time_s, std::uint64_t seed) {
  util::Rng schedule_rng(seed);
  util::Rng naive_rng(seed);
  const VisitSchedule schedule =
      build_visit_schedule(server_count, users_per_server, period_s,
                           start_window_s, end_time_s, schedule_rng);
  const auto reference =
      naive_arrivals(server_count, users_per_server, period_s, start_window_s,
                     end_time_s, naive_rng);
  // Both paths must consume the identical RNG prefix.
  EXPECT_EQ(schedule_rng.uniform(0.0, 1.0), naive_rng.uniform(0.0, 1.0));

  ASSERT_EQ(schedule.servers.size(), server_count);
  std::size_t total = 0;
  for (std::size_t s = 0; s < server_count; ++s) {
    const auto& ps = schedule.servers[s];
    ASSERT_EQ(ps.times.size(), ps.users.size());
    ASSERT_EQ(ps.times.size(), reference[s].size())
        << "server " << s << " visit count diverges from the naive model";
    for (std::size_t k = 0; k < ps.times.size(); ++k) {
      EXPECT_EQ(ps.times[k], reference[s][k].time)
          << "server " << s << " visit " << k;
      EXPECT_EQ(ps.users[k], reference[s][k].user)
          << "server " << s << " visit " << k;
    }
    total += ps.times.size();
  }
  EXPECT_EQ(schedule.total_visits, total);
}

TEST(VisitBatchStressTest, RandomizedRegimesMatchNaivePerVisitModel) {
  util::Rng meta(0x5eed);
  for (int round = 0; round < 30; ++round) {
    const std::size_t servers = 1 + meta.index(6);
    const std::size_t users = 1 + meta.index(5);
    const double period = meta.uniform(0.5, 30.0);
    const double window = meta.uniform(0.0, 60.0);
    const double end = meta.uniform(1.0, 200.0);
    SCOPED_TRACE("round " + std::to_string(round) + ": servers=" +
                 std::to_string(servers) + " users=" + std::to_string(users) +
                 " period=" + std::to_string(period) + " window=" +
                 std::to_string(window) + " end=" + std::to_string(end));
    expect_matches_naive(servers, users, period, window, end,
                         0x1000 + static_cast<std::uint64_t>(round));
  }
}

TEST(VisitBatchStressTest, EmptySchedulesWhenAllPhasesPastHorizon) {
  // Horizon at 0: every phase lands at or past it, so nobody ever visits
  // and every per-server array stays empty. Then the partial case: a wide
  // start window with an earlier horizon drops only the late starters.
  util::Rng rng(9);
  const VisitSchedule schedule = build_visit_schedule(4, 3, 10.0,
                                                      /*start_window_s=*/100.0,
                                                      /*end_time_s=*/0.0, rng);
  EXPECT_EQ(schedule.total_visits, 0u);
  for (const auto& ps : schedule.servers) EXPECT_TRUE(ps.times.empty());
  expect_matches_naive(4, 3, 10.0, 100.0, 40.0, 11);
}

TEST(VisitBatchStressTest, AllVisitsInsideOneWindow) {
  // Period longer than the horizon: each user visits exactly once, at its
  // phase, all inside the single [0, window) epoch.
  util::Rng rng(21);
  const VisitSchedule schedule =
      build_visit_schedule(3, 4, /*period_s=*/1000.0, /*start_window_s=*/5.0,
                           /*end_time_s=*/5.0, rng);
  EXPECT_EQ(schedule.total_visits, 12u);
  for (const auto& ps : schedule.servers) {
    ASSERT_EQ(ps.times.size(), 4u);
    for (std::size_t k = 1; k < ps.times.size(); ++k) {
      EXPECT_LE(ps.times[k - 1], ps.times[k]) << "not sorted";
    }
  }
  expect_matches_naive(3, 4, 1000.0, 5.0, 5.0, 22);
}

TEST(VisitBatchStressTest, VisitExactlyAtHorizonIsDropped) {
  // Zero start window puts every phase at exactly 0; with period 2.5 and
  // horizon 10 the arrivals are {0, 2.5, 5, 7.5} — the t == 10 visit is
  // dropped by the strict < comparison, as the engine drops it.
  util::Rng rng(5);
  const VisitSchedule schedule = build_visit_schedule(
      2, 1, /*period_s=*/2.5, /*start_window_s=*/0.0, /*end_time_s=*/10.0, rng);
  for (const auto& ps : schedule.servers) {
    ASSERT_EQ(ps.times.size(), 4u);
    EXPECT_EQ(ps.times.front(), 0.0);
    EXPECT_EQ(ps.times.back(), 7.5);
  }
  expect_matches_naive(2, 1, 2.5, 0.0, 10.0, 5);
}

TEST(VisitBatchStressTest, UserIndicesBeyond16BitsSurvive) {
  // 70k users on one server: indices overflow u16 but must fit u32 intact.
  util::Rng rng(77);
  const VisitSchedule schedule = build_visit_schedule(
      1, 70000, /*period_s=*/100.0, /*start_window_s=*/1.0,
      /*end_time_s=*/1.5, rng);
  EXPECT_EQ(schedule.total_visits, 70000u);
  std::uint32_t max_user = 0;
  for (const std::uint32_t u : schedule.servers[0].users) {
    max_user = std::max(max_user, u);
  }
  EXPECT_EQ(max_user, 69999u);
}

TEST(VisitBatchStressTest, RejectsUserPopulationsBeyond32Bits) {
  util::Rng rng(1);
  const std::size_t half =
      std::size_t{std::numeric_limits<std::uint32_t>::max()} / 2 + 1;
  EXPECT_THROW(build_visit_schedule(half, 3, 10.0, 1.0, 0.0, rng),
               PreconditionError);
}

TEST(VisitBatchStressTest, WalkingASchedulePerformsNoAllocations) {
#if CDNSIM_ALLOC_COUNTING
  util::Rng rng(123);
  const VisitSchedule schedule =
      build_visit_schedule(8, 5, 3.0, 50.0, 400.0, rng);
  ASSERT_GT(schedule.total_visits, 0u);
  // The engine's catch-up loop is exactly this shape: advance a cursor over
  // the SoA arrays, reading times/users. It must stay off the
  // heap — the loop runs inside the hot event path.
  double sink = 0.0;
  const std::uint64_t before = testsupport::allocation_count();
  for (const auto& ps : schedule.servers) {
    for (std::size_t k = 0; k < ps.times.size(); ++k) {
      sink += ps.times[k] + static_cast<double>(ps.users[k]);
    }
  }
  const std::uint64_t after = testsupport::allocation_count();
  EXPECT_EQ(after - before, 0u) << "schedule walk allocated";
  EXPECT_GT(sink, 0.0);
#else
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
}

}  // namespace
}  // namespace cdnsim::trace
