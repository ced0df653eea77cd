// Property tests for Section 3's inconsistency-length algebra.
//
// Rather than pinning single examples, these generate randomized poll logs
// (servers with random staleness lags against a random update trace) and
// assert the invariants the algebra must satisfy for *every* input:
//  - the union of a server's inconsistency intervals never exceeds the
//    observation window, even when the summed per-snapshot lengths do (a
//    laggard skipping versions double-counts overlapping supersessions);
//  - merged_total is independent of interval order;
//  - the whole pipeline is independent of poll-log observation order;
//  - zero updates means zero inconsistency and a perfect consistency ratio.
#include "analysis/inconsistency.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace cdnsim::analysis {
namespace {

constexpr sim::SimTime kWindow = 600.0;
constexpr sim::SimTime kPollPeriod = 10.0;

/// A random update trace within [0, kWindow): version v appears at
/// update_time(v); version 0 exists from time 0.
trace::UpdateTrace random_updates(util::Rng& rng) {
  std::vector<sim::SimTime> times;
  sim::SimTime t = 0;
  while (true) {
    t += rng.exponential(40.0);
    if (t >= kWindow) break;
    times.push_back(t);
  }
  return trace::UpdateTrace(std::move(times));
}

/// Poll log for `server_count` servers polling every kPollPeriod: each
/// server serves the newest version older than its own random lag, so slow
/// servers naturally skip versions.
trace::PollLog random_log(const trace::UpdateTrace& updates, util::Rng& rng,
                          std::size_t server_count) {
  trace::PollLog log;
  for (std::size_t s = 0; s < server_count; ++s) {
    const double lag = rng.uniform(0.0, 120.0);
    for (sim::SimTime t = kPollPeriod; t < kWindow; t += kPollPeriod) {
      if (rng.chance(0.05)) {  // occasional unanswered poll
        log.add({static_cast<net::NodeId>(s), t, 0, false});
        continue;
      }
      trace::Version v = 0;
      for (trace::Version cand = updates.update_count(); cand >= 1; --cand) {
        if (updates.update_time(cand) <= t - lag) {
          v = cand;
          break;
        }
      }
      log.add({static_cast<net::NodeId>(s), t, v, true});
    }
  }
  return log;
}

TEST(InconsistencyProperty, MergedTotalNeverExceedsObservationWindow) {
  util::Rng rng(71);
  for (int trial = 0; trial < 20; ++trial) {
    const auto updates = random_updates(rng);
    const SnapshotTimeline timeline(updates, 0.0);
    const auto log = random_log(updates, rng, 6);
    for (net::NodeId server : log.servers()) {
      const auto obs = log.for_server(server);
      const auto intervals = server_inconsistency_intervals(obs, timeline);
      const double merged = merged_total(intervals);
      EXPECT_LE(merged, kWindow) << "trial " << trial << " server " << server;
      // ... and the union can never exceed the per-snapshot sum.
      const auto lengths = server_inconsistency_lengths(obs, timeline);
      double sum = 0;
      for (double x : lengths) sum += x;
      EXPECT_LE(merged, sum + 1e-9);
      // The intervals' lengths ARE the per-snapshot lengths.
      double interval_sum = 0;
      for (const auto& iv : intervals) interval_sum += iv.end - iv.start;
      EXPECT_NEAR(interval_sum, sum, 1e-9);
    }
  }
}

TEST(InconsistencyProperty, SummedLengthsCanExceedWindowButUnionCannot) {
  // Construct the pathological laggard explicitly: versions 1..9 appear one
  // second apart, the server serves version 0 the whole window and "reveals"
  // it at the end. Each supersession interval overlaps the others almost
  // entirely, so the sum blows past the window while the union stays inside.
  std::vector<sim::SimTime> times;
  std::vector<trace::Observation> obs;
  for (int v = 1; v <= 9; ++v) times.push_back(static_cast<double>(v));
  const trace::UpdateTrace updates(std::move(times));
  const SnapshotTimeline timeline(updates, 0.0);
  trace::PollLog log;
  for (int v = 0; v <= 9; ++v) {
    // The server lingers on every version until t=100: beta_s(v) = 100.
    obs.push_back({0, 100.0, static_cast<trace::Version>(v), true});
  }
  const auto lengths = server_inconsistency_lengths(obs, timeline);
  double sum = 0;
  for (double x : lengths) sum += x;
  EXPECT_GT(sum, 100.0);  // the paper clamps the ratio for exactly this case
  EXPECT_LE(merged_total(server_inconsistency_intervals(obs, timeline)),
            100.0);
  // consistency_ratio survives the blow-up thanks to its clamp.
  const double ratio = consistency_ratio(obs, timeline, 100.0);
  EXPECT_GE(ratio, 0.0);
  EXPECT_LE(ratio, 1.0);
}

TEST(InconsistencyProperty, MergedTotalIsOrderIndependent) {
  util::Rng rng(72);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Interval> intervals;
    const int n = static_cast<int>(rng.uniform_int(0, 12));
    for (int i = 0; i < n; ++i) {
      const double a = rng.uniform(0.0, 100.0);
      const double b = rng.uniform(-5.0, 30.0);
      intervals.push_back({a, a + b});  // some intentionally empty
    }
    const double reference = merged_total(intervals);
    for (int shuffle = 0; shuffle < 5; ++shuffle) {
      rng.shuffle(intervals);
      EXPECT_DOUBLE_EQ(merged_total(intervals), reference) << "trial " << trial;
    }
  }
}

TEST(InconsistencyProperty, PipelineIsPollOrderIndependent) {
  util::Rng rng(73);
  const auto updates = random_updates(rng);
  const auto ordered_log = random_log(updates, rng, 5);

  // Re-insert the same observations in shuffled order.
  std::vector<trace::Observation> shuffled = ordered_log.observations();
  rng.shuffle(shuffled);
  trace::PollLog shuffled_log;
  for (const auto& o : shuffled) shuffled_log.add(o);

  // Inferred timelines agree on every version's first appearance...
  const SnapshotTimeline a(ordered_log), b(shuffled_log);
  ASSERT_EQ(a.max_version(), b.max_version());
  for (trace::Version v = 0; v <= a.max_version(); ++v) {
    EXPECT_EQ(a.first_appearance(v), b.first_appearance(v)) << "version " << v;
    EXPECT_EQ(a.superseded_at(v), b.superseded_at(v)) << "version " << v;
  }
  // ...and the per-server aggregates are identical (for_server() re-sorts
  // is NOT promised — the beta-map and interval union are order-free).
  for (net::NodeId server : ordered_log.servers()) {
    const auto obs_a = ordered_log.for_server(server);
    auto obs_b = shuffled_log.for_server(server);
    std::sort(obs_b.begin(), obs_b.end(),
              [](const trace::Observation& x, const trace::Observation& y) {
                return x.time < y.time;
              });
    const auto len_a = server_inconsistency_lengths(obs_a, a);
    const auto len_b = server_inconsistency_lengths(obs_b, b);
    EXPECT_EQ(len_a, len_b);
    EXPECT_DOUBLE_EQ(
        merged_total(server_inconsistency_intervals(obs_a, a)),
        merged_total(server_inconsistency_intervals(obs_b, b)));
    EXPECT_DOUBLE_EQ(consistency_ratio(obs_a, a, kWindow),
                     consistency_ratio(obs_b, b, kWindow));
  }
}

TEST(InconsistencyProperty, ZeroUpdatesMeansZeroInconsistency) {
  util::Rng rng(74);
  const trace::UpdateTrace updates(std::vector<sim::SimTime>{});
  const SnapshotTimeline timeline(updates, 0.0);
  const auto log = random_log(updates, rng, 4);
  const auto lengths = request_inconsistency_lengths(log, timeline);
  EXPECT_TRUE(std::all_of(lengths.begin(), lengths.end(),
                          [](double x) { return x == 0.0; }))
      << "without updates no request can be stale";
  for (net::NodeId server : log.servers()) {
    const auto obs = log.for_server(server);
    EXPECT_TRUE(server_inconsistency_lengths(obs, timeline).empty());
    EXPECT_TRUE(server_inconsistency_intervals(obs, timeline).empty());
    EXPECT_DOUBLE_EQ(consistency_ratio(obs, timeline, kWindow), 1.0);
  }
}

TEST(InconsistencyProperty, ConsistencyRatioStaysInUnitInterval) {
  util::Rng rng(75);
  for (int trial = 0; trial < 20; ++trial) {
    const auto updates = random_updates(rng);
    const SnapshotTimeline timeline(updates, 0.0);
    const auto log = random_log(updates, rng, 4);
    for (net::NodeId server : log.servers()) {
      const double ratio =
          consistency_ratio(log.for_server(server), timeline, kWindow);
      EXPECT_GE(ratio, 0.0);
      EXPECT_LE(ratio, 1.0);
    }
  }
}

TEST(InconsistencyProperty, RequestLengthsAreNonNegative) {
  util::Rng rng(76);
  const auto updates = random_updates(rng);
  const SnapshotTimeline timeline(updates, 0.0);
  const auto log = random_log(updates, rng, 5);
  for (double x : request_inconsistency_lengths(log, timeline)) {
    EXPECT_GE(x, 0.0);
  }
}

}  // namespace
}  // namespace cdnsim::analysis
