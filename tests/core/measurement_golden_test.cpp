// Golden pins for the Section 3 measurement study.
//
// Two fixed studies (60 servers for one day, 120 servers for two days) are
// reduced to one FNV-1a digest each over every output the analysis kernels
// produce: the per-request lengths, the daily inconsistent-server fraction,
// the inner-cluster and intra-ISP lengths, both per-ISP percentile tables,
// the distance rings and every absence event. Doubles are hashed by their
// bit patterns, so any change to a kernel's result — even in the last ulp,
// or in the order values are pooled — changes the digest. The values were
// recorded from the reference toolchain (GCC/libstdc++, IEEE-754 doubles);
// if a change is intentional, regenerate them and say so in the commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core/measurement_study.hpp"
#include "measurement_test_util.hpp"

namespace cdnsim::core {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (x >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    add(bits);
  }
  void add(const std::vector<double>& xs) {
    add(static_cast<std::uint64_t>(xs.size()));
    for (double x : xs) add(x);
  }
  void add(const std::vector<ClusterPercentiles>& table) {
    add(static_cast<std::uint64_t>(table.size()));
    for (const auto& p : table) {
      add(p.p5);
      add(p.median);
      add(p.p95);
      add(p.mean);
      add(static_cast<std::uint64_t>(p.samples));
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t study_digest(const MeasurementResults& r) {
  Fnv1a h;
  h.add(r.request_inconsistency);
  h.add(r.daily_inconsistent_server_fraction);
  h.add(r.inner_cluster_inconsistency);
  h.add(r.intra_isp_inconsistency);
  h.add(r.intra_isp_by_cluster);
  h.add(r.inter_isp_by_cluster);
  h.add(static_cast<std::uint64_t>(r.distance_consistency.size()));
  for (const auto& ring : r.distance_consistency) {
    h.add(ring.distance_km);
    h.add(ring.avg_consistency_ratio);
    h.add(static_cast<std::uint64_t>(ring.servers));
  }
  h.add(static_cast<std::uint64_t>(r.absence_events.size()));
  for (const auto& ev : r.absence_events) {
    h.add(static_cast<std::uint64_t>(ev.server));
    h.add(ev.return_time);
    h.add(ev.absence_length);
    h.add(ev.inconsistency_after_return);
  }
  return h.value();
}

TEST(MeasurementGoldenTest, SixtyServersOneDay) {
  MeasurementConfig cfg = small_measurement_config();
  cfg.scenario.server_count = 60;
  cfg.days = 1;
  const auto r = run_measurement_study(cfg);
  ASSERT_FALSE(r.absence_events.empty());  // the digest covers absences too
  EXPECT_EQ(study_digest(r), 0xd8180519caa307dbull);
}

TEST(MeasurementGoldenTest, HundredTwentyServersTwoDays) {
  MeasurementConfig cfg = small_measurement_config();
  cfg.days = 2;
  const auto r = run_measurement_study(cfg);
  ASSERT_FALSE(r.absence_events.empty());
  EXPECT_EQ(study_digest(r), 0xe041ff1458c40039ull);
}

TEST(MeasurementGoldenTest, UserPerspectiveInconsistentServerFraction) {
  UserPerspectiveConfig cfg;
  cfg.base = small_measurement_config();
  cfg.base.days = 1;
  cfg.user_count = 40;
  const auto r = run_user_perspective_study(cfg);
  // %.17g round-trips doubles exactly, so this comparison is bit-exact.
  EXPECT_EQ(r.avg_inconsistent_server_fraction, 0.33031272324210031);
}

}  // namespace
}  // namespace cdnsim::core
