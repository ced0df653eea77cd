#include "analysis/inconsistency.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "util/error.hpp"

namespace cdnsim::analysis {
namespace {

using trace::Observation;
using trace::PollLog;

// Two servers polling every 10 s; updates become visible at 100 (v1) and
// 200 (v2). Server 0 is prompt, server 1 lags.
PollLog two_server_log() {
  PollLog log;
  for (double t = 80; t <= 260; t += 10) {
    Observation a{0, t, 0, true};
    if (t >= 100) a.version = 1;
    if (t >= 200) a.version = 2;
    log.add(a);
    Observation b{1, t + 1, 0, true};
    if (t + 1 >= 130) b.version = 1;   // 30 s late on v1
    if (t + 1 >= 215) b.version = 2;   // 15 s late on v2
    log.add(b);
  }
  return log;
}

TEST(SnapshotTimelineTest, FirstAppearanceFromLog) {
  const SnapshotTimeline tl(two_server_log());
  EXPECT_DOUBLE_EQ(*tl.first_appearance(0), 80.0);
  EXPECT_DOUBLE_EQ(*tl.first_appearance(1), 100.0);
  EXPECT_DOUBLE_EQ(*tl.first_appearance(2), 200.0);
  EXPECT_FALSE(tl.first_appearance(3).has_value());
  EXPECT_EQ(tl.max_version(), 2);
}

TEST(SnapshotTimelineTest, SupersededAt) {
  const SnapshotTimeline tl(two_server_log());
  EXPECT_DOUBLE_EQ(*tl.superseded_at(0), 100.0);
  EXPECT_DOUBLE_EQ(*tl.superseded_at(1), 200.0);
  EXPECT_FALSE(tl.superseded_at(2).has_value());
}

TEST(SnapshotTimelineTest, FromGroundTruth) {
  const trace::UpdateTrace updates({10, 20});
  const SnapshotTimeline tl(updates, 60.0);
  EXPECT_DOUBLE_EQ(*tl.first_appearance(1), 70.0);
  EXPECT_DOUBLE_EQ(*tl.superseded_at(1), 80.0);
}

TEST(SnapshotTimelineTest, UnansweredObservationsIgnored) {
  PollLog log;
  log.add({0, 5.0, 7, false});
  log.add({0, 9.0, 1, true});
  const SnapshotTimeline tl(log);
  EXPECT_FALSE(tl.first_appearance(7).has_value());
  EXPECT_TRUE(tl.first_appearance(1).has_value());
}

TEST(RequestInconsistencyTest, MeasuresAgeOfOutdatedContent) {
  const auto log = two_server_log();
  const SnapshotTimeline tl(log);
  const auto lengths = request_inconsistency_lengths(log, tl);
  ASSERT_EQ(lengths.size(), log.size());
  // Server 1 shows v0 until t=121 while v1 appeared at 100: its last stale
  // observation of v0 is 21 s outdated, the overall maximum in this log.
  double max_len = 0;
  for (double x : lengths) {
    EXPECT_GE(x, 0.0);
    max_len = std::max(max_len, x);
  }
  EXPECT_NEAR(max_len, 21.0, 1e-9);
}

TEST(ServerInconsistencyTest, PerSnapshotLengths) {
  const auto log = two_server_log();
  const SnapshotTimeline tl(log);
  const auto s1 = log.for_server(1);
  const auto lengths = server_inconsistency_lengths(s1, tl);
  // Server 1 served v0 last at 121 (v1 appeared 100): length 21.
  // Served v1 last at 211 (v2 appeared 200): length 11.
  ASSERT_EQ(lengths.size(), 2u);
  EXPECT_DOUBLE_EQ(lengths[0], 21.0);
  EXPECT_DOUBLE_EQ(lengths[1], 11.0);
}

TEST(ServerInconsistencyTest, PromptServerHasSmallLengths) {
  const auto log = two_server_log();
  const SnapshotTimeline tl(log);
  const auto s0 = log.for_server(0);
  const auto lengths = server_inconsistency_lengths(s0, tl);
  // Server 0 last served v0 at t=90, before v1 appeared: no positive length.
  for (double x : lengths) EXPECT_LE(x, 0.0 + 1e-9);
}

TEST(ConsistencyRatioTest, PerfectServerIsOne) {
  const auto log = two_server_log();
  const SnapshotTimeline tl(log);
  EXPECT_NEAR(consistency_ratio(log.for_server(0), tl, 180.0), 1.0, 1e-9);
  EXPECT_NEAR(consistency_ratio(log.for_server(1), tl, 180.0),
              1.0 - 32.0 / 180.0, 1e-9);
}

TEST(InconsistentFractionTest, CountsStaleServers) {
  const auto log = two_server_log();
  const SnapshotTimeline tl(log);
  // At t=115: server 0 shows v1 (fresh), server 1 shows v0 (stale).
  EXPECT_DOUBLE_EQ(inconsistent_server_fraction(log, tl, 115.0, 20.0), 0.5);
  // At t=95 both show v0, still current.
  EXPECT_DOUBLE_EQ(inconsistent_server_fraction(log, tl, 95.0, 20.0), 0.0);
}

TEST(InconsistentFractionTest, AverageOverWindow) {
  const auto log = two_server_log();
  const SnapshotTimeline tl(log);
  const double avg =
      average_inconsistent_server_fraction(log, tl, 80.0, 260.0, 10.0);
  EXPECT_GT(avg, 0.0);
  EXPECT_LT(avg, 0.5);
}

TEST(ExtractAbsencesTest, FindsGapsAndPostReturnInconsistency) {
  PollLog log;
  // Server polls at 10 s period with a gap from 50 to 120 (absence ~60 s).
  for (double t = 10; t <= 50; t += 10) log.add({0, t, 1, true});
  for (double t = 120; t <= 160; t += 10) log.add({0, t, 1, true});
  // Another server reveals v2 at t=100 so post-return content is stale.
  log.add({1, 100.0, 2, true});
  const SnapshotTimeline tl(log);
  const auto events = extract_absences(log, tl, 10.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].server, 0);
  EXPECT_DOUBLE_EQ(events[0].absence_length, 60.0);
  EXPECT_DOUBLE_EQ(events[0].return_time, 120.0);
  EXPECT_DOUBLE_EQ(events[0].inconsistency_after_return, 20.0);
}

TEST(ExtractAbsencesTest, UnansweredPollsCreateGaps) {
  PollLog log;
  for (double t = 10; t <= 100; t += 10) {
    const bool up = t < 40 || t > 80;
    log.add({0, t, 1, up});
  }
  log.add({1, 5.0, 1, true});
  const SnapshotTimeline tl(log);
  const auto events = extract_absences(log, tl, 10.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].absence_length, 50.0);
}

TEST(ExtractAbsencesTest, JitterDoesNotTriggerFalsePositives) {
  PollLog log;
  for (double t = 10; t <= 200; t += 10) log.add({0, t + 0.4, 1, true});
  const SnapshotTimeline tl(log);
  EXPECT_TRUE(extract_absences(log, tl, 10.0).empty());
}

TEST(ExtractAbsencesTest, OutOfOrderServerRowsThrowNamingServerAndTimes) {
  // A hand-edited CSV whose server 7 goes back in time. Its gaps would be
  // meaningless, so the extraction refuses the log instead of guessing.
  PollLog log;
  log.add({3, 10.0, 1, true});
  log.add({7, 10.0, 1, true});
  log.add({7, 80.5, 1, true});
  log.add({3, 20.0, 1, true});
  log.add({7, 40.25, 1, true});  // earlier than the 80.5 before it
  const std::string path = testing::TempDir() + "/cdnsim_absence_unordered.csv";
  log.save_csv(path);
  const PollLog loaded = PollLog::load_csv(path);
  std::remove(path.c_str());
  const SnapshotTimeline tl(loaded);
  try {
    extract_absences(loaded, tl, 10.0);
    FAIL() << "expected cdnsim::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("server 7"), std::string::npos) << what;
    EXPECT_NE(what.find("40.25"), std::string::npos) << what;
    EXPECT_NE(what.find("80.5"), std::string::npos) << what;
  }
  // Unanswered rows carry no state, so their times are not checked.
  PollLog with_unanswered;
  with_unanswered.add({7, 10.0, 1, true});
  with_unanswered.add({7, 5.0, 1, false});
  with_unanswered.add({7, 20.0, 1, true});
  EXPECT_NO_THROW(extract_absences(with_unanswered, tl, 10.0));
}

}  // namespace
}  // namespace cdnsim::analysis
