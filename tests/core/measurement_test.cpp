#include "core/measurement_study.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/ttl_inference.hpp"
#include "measurement_test_util.hpp"
#include "util/cdf.hpp"
#include "util/stats.hpp"

namespace cdnsim::core {
namespace {

class MeasurementStudyTest : public ::testing::Test {
 protected:
  static const MeasurementResults& results() {
    static const MeasurementResults r =
        run_measurement_study(small_measurement_config());
    return r;
  }
};

TEST_F(MeasurementStudyTest, ProducesRequestInconsistencySamples) {
  EXPECT_GT(results().total_requests, 1000u);
  // With TTL = 60 s polling, average per-snapshot staleness ~ TTL/2 plus
  // other causes (Section 3.4.1 derives >= 30 s).
  EXPECT_GT(results().overall_avg_request_inconsistency, 15.0);
  EXPECT_LT(results().overall_avg_request_inconsistency, 60.0);
}

TEST_F(MeasurementStudyTest, InconsistentServerFractionPerDayIsPositive) {
  ASSERT_EQ(results().daily_inconsistent_server_fraction.size(), 3u);
  for (double f : results().daily_inconsistent_server_fraction) {
    EXPECT_GT(f, 0.02);
    EXPECT_LT(f, 0.95);
  }
}

TEST_F(MeasurementStudyTest, TtlInferenceRecoversServerTtl) {
  // The headline Section 3.4.1 result: the inferred TTL is the configured
  // 60 s (the study's own polling TTL), recovered from lengths alone.
  const auto& lengths = results().inner_cluster_inconsistency;
  ASSERT_GT(lengths.size(), 500u);
  const double inferred = analysis::infer_ttl(lengths);
  EXPECT_GT(inferred, 35.0);
  EXPECT_LT(inferred, 80.0);
}

TEST_F(MeasurementStudyTest, ProviderFarMoreConsistentThanCdn) {
  const auto& provider = results().provider_request_inconsistency;
  ASSERT_FALSE(provider.empty());
  // Fig. 7 plots requests observing outdated content.
  std::vector<double> positive;
  for (double x : provider) {
    if (x > 0) positive.push_back(x);
  }
  ASSERT_FALSE(positive.empty());
  const double provider_avg = util::mean(positive);
  EXPECT_LT(provider_avg, 0.5 * results().overall_avg_request_inconsistency);
  EXPECT_NEAR(provider_avg, 3.4, 2.5);
  // 90% of provider requests under 10 s (Fig. 7).
  const util::Cdf cdf(positive);
  EXPECT_GT(cdf.fraction_at_or_below(10.0), 0.80);
}

TEST_F(MeasurementStudyTest, DistanceBarelyCorrelatesWithConsistency) {
  const auto& rings = results().distance_consistency;
  ASSERT_GT(rings.size(), 3u);
  std::vector<double> dist, ratio;
  for (const auto& r : rings) {
    dist.push_back(r.distance_km);
    ratio.push_back(r.avg_consistency_ratio);
    // The ratio level depends on update burstiness relative to TTL; the
    // figure's finding is flatness vs distance, checked below.
    EXPECT_GT(r.avg_consistency_ratio, 0.15);
    EXPECT_LE(r.avg_consistency_ratio, 1.0);
  }
  EXPECT_LT(std::abs(util::pearson(dist, ratio)), 0.6);
}

TEST_F(MeasurementStudyTest, InterIspExceedsIntraIsp) {
  const auto& intra = results().intra_isp_by_cluster;
  const auto& inter = results().inter_isp_by_cluster;
  ASSERT_EQ(intra.size(), inter.size());
  double intra_mean = 0, inter_mean = 0;
  std::size_t n = 0;
  for (std::size_t c = 0; c < intra.size(); ++c) {
    if (intra[c].samples < 20 || inter[c].samples < 20) continue;
    intra_mean += intra[c].mean;
    inter_mean += inter[c].mean;
    ++n;
  }
  ASSERT_GT(n, 0u);
  EXPECT_GT(inter_mean / n, intra_mean / n);
}

TEST_F(MeasurementStudyTest, ResponseTimesInPaperRange) {
  const util::Cdf cdf(results().provider_response_times);
  EXPECT_GT(cdf.min(), 0.3);
  EXPECT_LT(cdf.max(), 3.5);
  EXPECT_GT(cdf.fraction_at_or_below(1.5), 0.7);
}

TEST_F(MeasurementStudyTest, AbsenceEventsExtracted) {
  EXPECT_GT(results().absence_events.size(), 10u);
  for (const auto& ev : results().absence_events) {
    EXPECT_GT(ev.absence_length, 0.0);
  }
}

TEST_F(MeasurementStudyTest, DailyMatricesHaveExpectedShape) {
  ASSERT_EQ(results().daily_server_avg.size(), 3u);
  ASSERT_EQ(results().daily_server_max.size(), 3u);
  EXPECT_EQ(results().daily_server_avg[0].size(), 120u);
  ASSERT_EQ(results().daily_cluster_avg.size(), 3u);
  EXPECT_EQ(results().daily_cluster_avg[0].size(),
            results().geo_clusters.cluster_count());
}

TEST_F(MeasurementStudyTest, NoStaticTreeSignature) {
  // Rank instability across days must be far from a static hierarchy.
  EXPECT_GT(analysis::rank_instability(results().daily_server_avg), 0.08);
}

TEST_F(MeasurementStudyTest, MostServersBelowTtlBound) {
  // Fig. 12: the majority of per-server max inconsistencies sit below TTL,
  // contradicting a multicast tree.
  for (const auto& day : results().daily_server_max) {
    EXPECT_GT(analysis::fraction_below_ttl(day, 60.0), 0.5);
  }
}

TEST(MeasurementStudyThreads, ParallelStudyIsByteIdenticalToSerial) {
  // MeasurementConfig::threads promises identical results for every value:
  // day inputs derive serially, days simulate in isolation, outputs merge in
  // day order. Compare a serial run against a 4-thread run exactly.
  MeasurementConfig cfg = small_measurement_config();
  cfg.scenario.server_count = 60;  // keep the double-run cheap
  cfg.days = 2;
  cfg.threads = 1;
  const auto serial = run_measurement_study(cfg);
  cfg.threads = 4;
  const auto parallel = run_measurement_study(cfg);

  EXPECT_EQ(serial.request_inconsistency, parallel.request_inconsistency);
  EXPECT_EQ(serial.daily_inconsistent_server_fraction,
            parallel.daily_inconsistent_server_fraction);
  EXPECT_EQ(serial.inner_cluster_inconsistency,
            parallel.inner_cluster_inconsistency);
  EXPECT_EQ(serial.provider_request_inconsistency,
            parallel.provider_request_inconsistency);
  EXPECT_EQ(serial.intra_isp_inconsistency, parallel.intra_isp_inconsistency);
  EXPECT_EQ(serial.intra_isp_by_cluster, parallel.intra_isp_by_cluster);
  EXPECT_EQ(serial.inter_isp_by_cluster, parallel.inter_isp_by_cluster);
  EXPECT_EQ(serial.distance_consistency, parallel.distance_consistency);
  EXPECT_EQ(serial.daily_cluster_avg, parallel.daily_cluster_avg);
  EXPECT_EQ(serial.daily_server_avg, parallel.daily_server_avg);
  EXPECT_EQ(serial.daily_server_max, parallel.daily_server_max);
  EXPECT_EQ(serial.provider_response_times, parallel.provider_response_times);
  EXPECT_EQ(serial.overall_avg_request_inconsistency,
            parallel.overall_avg_request_inconsistency);
  EXPECT_EQ(serial.total_requests, parallel.total_requests);
  ASSERT_EQ(serial.absence_events.size(), parallel.absence_events.size());
  for (std::size_t i = 0; i < serial.absence_events.size(); ++i) {
    EXPECT_EQ(serial.absence_events[i].server,
              parallel.absence_events[i].server);
    EXPECT_EQ(serial.absence_events[i].return_time,
              parallel.absence_events[i].return_time);
    EXPECT_EQ(serial.absence_events[i].absence_length,
              parallel.absence_events[i].absence_length);
    EXPECT_EQ(serial.absence_events[i].inconsistency_after_return,
              parallel.absence_events[i].inconsistency_after_return);
  }
}

TEST(UserPerspectiveTest, RedirectionAndContinuousTimes) {
  UserPerspectiveConfig cfg;
  cfg.base = small_measurement_config();
  cfg.base.days = 1;
  cfg.user_count = 40;
  const auto r = run_user_perspective_study(cfg);
  ASSERT_GT(r.redirection_fractions.size(), 20u);
  const double avg_redirect = util::mean(r.redirection_fractions);
  EXPECT_GT(avg_redirect, 0.05);
  EXPECT_LT(avg_redirect, 0.35);
  EXPECT_FALSE(r.continuous_consistency.empty());
  EXPECT_FALSE(r.continuous_inconsistency.empty());
  EXPECT_GT(r.avg_inconsistent_server_fraction, 0.0);
}

}  // namespace
}  // namespace cdnsim::core
