#include "trace/poll_log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "util/error.hpp"

namespace cdnsim::trace {
namespace {

PollLog make_log() {
  PollLog log;
  log.add({0, 10.0, 1, true});
  log.add({1, 10.5, 0, true});
  log.add({0, 20.0, 2, true});
  log.add({1, 20.5, 1, false});
  log.add({2, 30.0, 2, true});
  return log;
}

TEST(PollLogTest, ForServerFiltersAndPreservesOrder) {
  const auto log = make_log();
  const auto s0 = log.for_server(0);
  ASSERT_EQ(s0.size(), 2u);
  EXPECT_DOUBLE_EQ(s0[0].time, 10.0);
  EXPECT_DOUBLE_EQ(s0[1].time, 20.0);
}

TEST(PollLogTest, ServersListsDistinctIds) {
  const auto log = make_log();
  EXPECT_EQ(log.servers(), (std::vector<net::NodeId>{0, 1, 2}));
}

TEST(PollLogTest, WindowIsHalfOpen) {
  const auto log = make_log();
  const auto w = log.window(10.5, 30.0);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.observations().front().time, 10.5);
  EXPECT_DOUBLE_EQ(w.observations().back().time, 20.5);
}

TEST(PollLogTest, CsvRoundTrip) {
  const std::string path = testing::TempDir() + "/cdnsim_polllog_test.csv";
  const auto log = make_log();
  log.save_csv(path);
  const auto loaded = PollLog::load_csv(path);
  ASSERT_EQ(loaded.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(loaded.observations()[i].server, log.observations()[i].server);
    EXPECT_DOUBLE_EQ(loaded.observations()[i].time, log.observations()[i].time);
    EXPECT_EQ(loaded.observations()[i].version, log.observations()[i].version);
    EXPECT_EQ(loaded.observations()[i].answered, log.observations()[i].answered);
  }
  std::remove(path.c_str());
}

TEST(PollLogTest, EmptyLog) {
  const PollLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_TRUE(log.servers().empty());
  EXPECT_TRUE(log.window(0, 100).empty());
}

// Regression: load_csv used bare std::stol/stod/stoll, which threw a
// context-free std::invalid_argument on bad cells and silently *accepted*
// trailing garbage ("12abc" -> 12). It now reports file, row and column.
TEST(PollLogTest, LoadCsvReportsMalformedCellWithContext) {
  const std::string path = testing::TempDir() + "/cdnsim_polllog_bad.csv";
  {
    std::ofstream out(path);
    out << "server,time_s,version,answered\n"
        << "0,1.5,2,1\n"
        << "0,bogus,3,1\n";
  }
  try {
    PollLog::load_csv(path);
    FAIL() << "malformed cell should throw";
  } catch (const cdnsim::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    EXPECT_NE(what.find("time_s"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("row 3"), std::string::npos) << what;
    EXPECT_NE(what.find("column 2"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(PollLogTest, LoadCsvRejectsTrailingGarbageAndEmptyCells) {
  const std::string path = testing::TempDir() + "/cdnsim_polllog_bad2.csv";
  {
    std::ofstream out(path);
    out << "server,time_s,version,answered\n"
        << "12abc,1.5,2,1\n";
  }
  EXPECT_THROW(PollLog::load_csv(path), cdnsim::Error);
  {
    std::ofstream out(path);
    out << "server,time_s,version,answered\n"
        << "0,,2,1\n";
  }
  EXPECT_THROW(PollLog::load_csv(path), cdnsim::Error);
  std::remove(path.c_str());
}

TEST(PollLogTest, LoadCsvRejectsNonBinaryAnsweredAndShortRows) {
  const std::string path = testing::TempDir() + "/cdnsim_polllog_bad3.csv";
  {
    std::ofstream out(path);
    out << "server,time_s,version,answered\n"
        << "0,1.5,2,7\n";
  }
  try {
    PollLog::load_csv(path);
    FAIL() << "non-binary answered should throw";
  } catch (const cdnsim::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("answered"), std::string::npos) << what;
    EXPECT_NE(what.find("row 2"), std::string::npos) << what;
  }
  {
    std::ofstream out(path);
    out << "server,time_s,version,answered\n"
        << "0,1.5,2\n";
  }
  try {
    PollLog::load_csv(path);
    FAIL() << "short row should throw";
  } catch (const cdnsim::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("row 2"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 4 fields"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(PollLogTest, LoadCsvRejectsNonFiniteTimes) {
  const std::string path = testing::TempDir() + "/cdnsim_polllog_bad4.csv";
  for (const char* time : {"nan", "inf", "-inf"}) {
    {
      std::ofstream out(path);
      out << "server,time_s,version,answered\n"
          << "0,1.5,2,1\n"
          << "0," << time << ",3,1\n";
    }
    try {
      PollLog::load_csv(path);
      FAIL() << time << " time should throw";
    } catch (const cdnsim::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("time_s"), std::string::npos) << what;
      EXPECT_NE(what.find("row 3"), std::string::npos) << what;
      EXPECT_NE(what.find("finite"), std::string::npos) << what;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cdnsim::trace
