// Equivalence of the Section 3 analysis kernels with direct oracles.
//
// The kernels in analysis/inconsistency.cpp are sweeps and binary searches;
// the oracles below are the definitions written as plain scans. About 200
// seeded random logs go through both, and every comparison is exact
// (EXPECT_EQ, never NEAR): the kernels promise bit-identical results, not
// close ones. The logs are built to hit the cases the fast paths could get
// wrong: unanswered rows, equal-time rows with different versions on one
// server, row order shuffled across servers, servers silent for whole
// rounds, rounds past the last poll, rows landing exactly on a round
// boundary, and laggards that reveal an old version after a newer one, so
// that alpha is not monotone in the version.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include "analysis/inconsistency.hpp"
#include "util/rng.hpp"

namespace cdnsim::analysis {
namespace {

using trace::Observation;
using trace::PollLog;
using trace::Version;

struct RandomLog {
  PollLog log;       // each server's rows in time order, servers interleaved
  PollLog shuffled;  // the same rows in a fully random order
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  sim::SimTime round = 10.0;  // the polling round, and the absence period
};

RandomLog random_log(std::uint64_t seed) {
  util::Rng rng(seed);
  RandomLog out;
  const std::size_t servers = 1 + rng.index(10);
  const double update_gap = rng.uniform(8.0, 40.0);
  // Rounds that are not exact in binary drift when accumulated, so
  // start + k * round differs from the kernels' t += round in the last ulp.
  out.round = std::array{10.0, 10.1, 9.7, 0.1 * 97}[rng.index(4)];
  out.start = rng.chance(0.5) ? std::floor(rng.uniform(0.0, 30.0))
                              : rng.uniform(0.0, 30.0);
  const double horizon = out.start + rng.uniform(60.0, 400.0);

  // Sparse, distinct, unordered ids: grouping must not assume 0..n-1.
  std::vector<net::NodeId> ids;
  for (net::NodeId id = -32; id < 300; id += 7) ids.push_back(id);
  rng.shuffle(ids);

  std::vector<std::vector<Observation>> per_server;
  for (std::size_t i = 0; i < servers; ++i) {
    const net::NodeId id = ids[i];
    const double delay = rng.uniform(0.0, 45.0);    // how far this server lags
    const bool skips_odd = rng.chance(0.4);         // a fast server that skips
    const double silent_from = rng.uniform(out.start, horizon);
    const double silent_len = rng.chance(0.3) ? rng.uniform(10.0, 60.0) : 0.0;
    std::vector<Observation> rows;
    // A third of the servers poll exactly at the accumulated round times,
    // a third on a 0.5 s grid (landing on integer round times and window
    // edges), and a third at random offsets.
    const std::size_t mode = rng.index(3);
    double t = mode == 0   ? out.start + out.round
               : mode == 1 ? out.start + 0.5 * static_cast<double>(rng.index(20))
                           : out.start + rng.uniform(0.0, out.round);
    while (t < horizon) {
      Observation obs;
      obs.server = id;
      obs.time = t;
      obs.version = std::max<Version>(
          0, static_cast<Version>(std::floor((t - out.start - delay) / update_gap)));
      if (skips_odd && obs.version % 2 == 1 && !rng.chance(0.2)) ++obs.version;
      if (rng.chance(0.05) && obs.version > 0) --obs.version;  // a laggard row
      obs.answered = !(t >= silent_from && t < silent_from + silent_len) &&
                     !rng.chance(0.08);
      rows.push_back(obs);
      if (rng.chance(0.1)) {
        // Same time, another version: the first in log order must win.
        Observation twin = obs;
        twin.version = obs.version + 1 + static_cast<Version>(rng.index(2));
        twin.answered = rng.chance(0.8);
        rows.push_back(twin);
      }
      if (mode == 0) {
        t += out.round;
        continue;
      }
      const double step =
          rng.chance(0.5) ? out.round : rng.uniform(2.0, 2.0 * out.round);
      t += mode == 1 ? std::round(step * 2.0) / 2.0 : step;
    }
    per_server.push_back(std::move(rows));
  }
  // Past the last poll: trailing rounds see every server as silent.
  out.end = horizon + (rng.chance(0.5) ? rng.uniform(0.0, 50.0) : 0.0);

  // Interleave the servers randomly, each server's rows staying in order.
  std::vector<std::size_t> next(servers, 0);
  std::vector<Observation> all;
  for (;;) {
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < servers; ++i) {
      if (next[i] < per_server[i].size()) open.push_back(i);
    }
    if (open.empty()) break;
    const std::size_t i = open[rng.index(open.size())];
    all.push_back(per_server[i][next[i]++]);
  }
  for (const auto& obs : all) out.log.add(obs);
  rng.shuffle(all);
  for (const auto& obs : all) out.shuffled.add(obs);
  return out;
}

// alpha by its definition: the earliest answered time of each version.
std::map<Version, sim::SimTime> alpha_oracle(const PollLog& log) {
  std::map<Version, sim::SimTime> alpha;
  for (const auto& obs : log.observations()) {
    if (!obs.answered) continue;
    const auto it = alpha.find(obs.version);
    if (it == alpha.end() || obs.time < it->second) alpha[obs.version] = obs.time;
  }
  return alpha;
}

// superseded_at by its definition: a scan over every later version.
std::optional<sim::SimTime> superseded_oracle(
    const std::map<Version, sim::SimTime>& alpha, Version v) {
  auto it = alpha.upper_bound(v);
  if (it == alpha.end()) return std::nullopt;
  sim::SimTime best = it->second;
  for (; it != alpha.end(); ++it) best = std::min(best, it->second);
  return best;
}

// The arithmetic mean of the single-round fraction over the same rounds.
double average_oracle(const PollLog& log, const SnapshotTimeline& timeline,
                      sim::SimTime start, sim::SimTime end, sim::SimTime round_s) {
  double sum = 0;
  std::size_t rounds = 0;
  for (sim::SimTime t = start + round_s; t <= end; t += round_s) {
    sum += inconsistent_server_fraction(log, timeline, t, round_s);
    ++rounds;
  }
  return rounds == 0 ? 0.0 : sum / static_cast<double>(rounds);
}

// Absences one server at a time through PollLog::for_server.
std::vector<AbsenceEvent> absences_oracle(const PollLog& log,
                                          const SnapshotTimeline& timeline,
                                          sim::SimTime poll_period) {
  std::vector<AbsenceEvent> out;
  for (net::NodeId server : log.servers()) {
    const Observation* prev = nullptr;
    const auto rows = log.for_server(server);
    for (const auto& obs : rows) {
      if (!obs.answered) continue;
      if (prev != nullptr) {
        const double gap = obs.time - prev->time - poll_period;
        if (gap > poll_period / 2) {
          const auto superseded = timeline.superseded_at(obs.version);
          out.push_back({server, obs.time, gap,
                         superseded ? std::max(0.0, obs.time - *superseded) : -1.0});
        }
      }
      prev = &obs;
    }
  }
  return out;
}

void expect_same_timeline(const SnapshotTimeline& got,
                          const std::map<Version, sim::SimTime>& alpha,
                          std::uint64_t seed) {
  const Version top = alpha.empty() ? 0 : alpha.rbegin()->first;
  EXPECT_EQ(got.max_version(), top) << "seed " << seed;
  for (Version v = -1; v <= top + 1; ++v) {
    const auto it = alpha.find(v);
    EXPECT_EQ(got.first_appearance(v),
              it == alpha.end() ? std::nullopt : std::optional(it->second))
        << "seed " << seed << " version " << v;
    EXPECT_EQ(got.superseded_at(v), superseded_oracle(alpha, v))
        << "seed " << seed << " version " << v;
  }
}

constexpr std::uint64_t kSeeds = 200;

TEST(AnalysisKernelEquivalence, SupersededAtMatchesLinearScan) {
  bool saw_non_monotone_alpha = false;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const RandomLog r = random_log(seed);
    const auto alpha = alpha_oracle(r.log);
    expect_same_timeline(SnapshotTimeline(r.log), alpha, seed);
    expect_same_timeline(SnapshotTimeline(r.shuffled), alpha, seed);
    for (auto it = alpha.begin(); it != alpha.end() && std::next(it) != alpha.end();
         ++it) {
      if (std::next(it)->second < it->second) saw_non_monotone_alpha = true;
    }
  }
  // The generator must actually produce the laggard case.
  EXPECT_TRUE(saw_non_monotone_alpha);
}

TEST(AnalysisKernelEquivalence, SweepEqualsMeanOfPerRoundFractions) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const RandomLog r = random_log(seed);
    const SnapshotTimeline timeline(r.log);
    const double expected = average_oracle(r.log, timeline, r.start, r.end, r.round);
    EXPECT_EQ(average_inconsistent_server_fraction(r.log, timeline, r.start, r.end,
                                                   r.round),
              expected)
        << "seed " << seed;
    // The sweep sorts each server's rows itself, so log order across and
    // within servers matters only through the equal-time tie rule.
    EXPECT_EQ(average_inconsistent_server_fraction(r.shuffled, timeline, r.start,
                                                   r.end, r.round),
              average_oracle(r.shuffled, timeline, r.start, r.end, r.round))
        << "seed " << seed;
  }
}

TEST(AnalysisKernelEquivalence, ExtractAbsencesMatchesPerServerScan) {
  std::size_t events = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const RandomLog r = random_log(seed);
    const SnapshotTimeline timeline(r.log);
    const auto got = extract_absences(r.log, timeline, r.round);
    const auto expected = absences_oracle(r.log, timeline, r.round);
    ASSERT_EQ(got.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].server, expected[i].server) << "seed " << seed;
      EXPECT_EQ(got[i].return_time, expected[i].return_time) << "seed " << seed;
      EXPECT_EQ(got[i].absence_length, expected[i].absence_length) << "seed " << seed;
      EXPECT_EQ(got[i].inconsistency_after_return,
                expected[i].inconsistency_after_return)
          << "seed " << seed;
    }
    events += got.size();
  }
  EXPECT_GT(events, kSeeds);  // the generator must produce absences
}

TEST(AnalysisKernelEquivalence, UnionOfPartsEqualsConcatenatedLog) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const RandomLog r = random_log(seed);
    // Split the rows into up to four parts (some possibly empty) by server,
    // as the ISP analysis does, and build one timeline per part.
    util::Rng rng(seed ^ 0x5eed);
    const std::size_t part_count = 1 + rng.index(4);
    std::map<net::NodeId, std::size_t> part_of;
    std::vector<PollLog> parts(part_count);
    for (const auto& obs : r.shuffled.observations()) {
      const auto [it, inserted] = part_of.try_emplace(obs.server, 0);
      if (inserted) it->second = rng.index(part_count);
      parts[it->second].add(obs);
    }
    std::vector<SnapshotTimeline> timelines;
    for (const auto& part : parts) timelines.emplace_back(part);
    std::vector<const SnapshotTimeline*> pointers;
    for (const auto& tl : timelines) pointers.push_back(&tl);
    expect_same_timeline(SnapshotTimeline(pointers), alpha_oracle(r.log), seed);
  }
  // No parts: the empty timeline.
  const SnapshotTimeline none(std::vector<const SnapshotTimeline*>{});
  EXPECT_EQ(none.max_version(), 0);
  EXPECT_FALSE(none.superseded_at(0).has_value());
  EXPECT_FALSE(none.first_appearance(0).has_value());
}

}  // namespace
}  // namespace cdnsim::analysis
