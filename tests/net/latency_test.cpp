#include "net/latency_model.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "topology/node.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cdnsim::net {
namespace {

const GeoPoint kAtlanta{33.75, -84.39};
const GeoPoint kSeattle{47.61, -122.33};
const GeoPoint kTokyo{35.68, 139.69};

std::vector<GeoPoint> grid_sites() {
  // A deliberately awkward mix: the three named cities, a provider-like
  // origin, antipodal-ish points, duplicates, and a pole.
  return {kAtlanta,          kSeattle,        kTokyo,
          GeoPoint{0.0, 0.0}, GeoPoint{51.51, -0.13}, GeoPoint{-33.87, 151.21},
          GeoPoint{90.0, 0.0}, kAtlanta /* duplicate site */,
          GeoPoint{-0.0, 135.0}};
}

GeoPoint random_point(util::Rng& rng) {
  return {rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)};
}

TEST(LatencyTest, PropagationIncludesBaseDelay) {
  LatencyConfig cfg;
  cfg.base_delay_s = 0.002;
  const LatencyModel model(cfg);
  EXPECT_DOUBLE_EQ(model.propagation(kAtlanta, kAtlanta), 0.002);
}

TEST(LatencyTest, PropagationScalesWithDistance) {
  const LatencyModel model(LatencyConfig{});
  const double near = model.propagation(kAtlanta, kSeattle);
  const double far = model.propagation(kAtlanta, kTokyo);
  EXPECT_GT(far, near);
}

TEST(LatencyTest, PropagationMatchesSpeedAndStretch) {
  LatencyConfig cfg;
  cfg.signal_speed_km_per_s = 200000;
  cfg.route_stretch = 1.5;
  cfg.base_delay_s = 0;
  const LatencyModel model(cfg);
  const double km = haversine_km(kAtlanta, kSeattle);
  EXPECT_NEAR(model.propagation(kAtlanta, kSeattle), km * 1.5 / 200000, 1e-9);
}

TEST(LatencyTest, NoJitterNoPenaltyIsDeterministic) {
  const LatencyModel model(LatencyConfig{});
  util::Rng rng(1);
  const double a = model.one_way(kAtlanta, kTokyo, false, rng);
  const double b = model.one_way(kAtlanta, kTokyo, false, rng);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_DOUBLE_EQ(a, model.propagation(kAtlanta, kTokyo));
}

TEST(LatencyTest, InterIspPenaltyIncreasesMeanDelay) {
  LatencyConfig cfg;
  cfg.inter_isp_penalty_mean_s = 0.5;
  const LatencyModel model(cfg);
  util::Rng rng(2);
  double intra = 0;
  double inter = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    intra += model.one_way(kAtlanta, kSeattle, false, rng);
    inter += model.one_way(kAtlanta, kSeattle, true, rng);
  }
  EXPECT_NEAR(inter / n - intra / n, 0.5, 0.05);
}

TEST(LatencyTest, JitterPreservesFloorAndRoughMean) {
  LatencyConfig cfg;
  cfg.jitter_fraction = 0.25;
  const LatencyModel model(cfg);
  util::Rng rng(3);
  const double base = model.propagation(kAtlanta, kTokyo);
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const double d = model.one_way(kAtlanta, kTokyo, false, rng);
    EXPECT_GE(d, base);           // multiplicative jitter never shrinks
    EXPECT_LE(d, base * 1.5 + 1e-12);
    sum += d;
  }
  EXPECT_NEAR(sum / n, base * 1.25, base * 0.02);
}

TEST(LatencyTest, InvalidConfigThrows) {
  LatencyConfig bad;
  bad.route_stretch = 0.5;
  EXPECT_THROW(LatencyModel{bad}, cdnsim::PreconditionError);
  LatencyConfig bad2;
  bad2.signal_speed_km_per_s = 0;
  EXPECT_THROW(LatencyModel{bad2}, cdnsim::PreconditionError);
}

TEST(LatencyTest, CrossAtlanticLatencyIsPlausible) {
  // One-way NYC-London should be tens of milliseconds, not seconds.
  const LatencyModel model(LatencyConfig{});
  const GeoPoint nyc{40.71, -74.01};
  const GeoPoint london{51.51, -0.13};
  const double d = model.propagation(nyc, london);
  EXPECT_GT(d, 0.02);
  EXPECT_LT(d, 0.1);
}

TEST(LatencyTest, NonFiniteConfigThrowsNamingTheField) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto expect_rejected = [](LatencyConfig cfg, const char* field) {
    try {
      LatencyModel model(cfg);
      ADD_FAILURE() << field << " accepted";
    } catch (const cdnsim::PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  for (const double bad : {inf, -inf, nan}) {
    LatencyConfig cfg;
    cfg.signal_speed_km_per_s = bad;
    expect_rejected(cfg, "signal_speed_km_per_s");
    cfg = LatencyConfig{};
    cfg.route_stretch = bad;
    expect_rejected(cfg, "route_stretch");
    cfg = LatencyConfig{};
    cfg.base_delay_s = bad;
    expect_rejected(cfg, "base_delay_s");
    cfg = LatencyConfig{};
    cfg.inter_isp_penalty_mean_s = bad;
    expect_rejected(cfg, "inter_isp_penalty_mean_s");
    cfg = LatencyConfig{};
    cfg.jitter_fraction = bad;
    expect_rejected(cfg, "jitter_fraction");
  }
  LatencyConfig negative_penalty;
  negative_penalty.inter_isp_penalty_mean_s = -0.1;
  EXPECT_THROW(LatencyModel{negative_penalty}, cdnsim::PreconditionError);
  LatencyConfig infinite_delay;
  infinite_delay.base_delay_s = inf;
  EXPECT_THROW(LatencyModel{infinite_delay}, cdnsim::PreconditionError);
}

TEST(LatencyTest, PropagationIsBitSymmetric) {
  // LinkCache keys a link by its unordered site pair and serves both
  // directions, and the traffic meter, from one entry; symmetry of the
  // propagation and of the km must hold exactly for that to be an
  // identity-preserving optimisation.
  const LatencyModel model(LatencyConfig{});
  const std::vector<GeoPoint> sites = grid_sites();
  for (const GeoPoint& a : sites) {
    for (const GeoPoint& b : sites) {
      EXPECT_EQ(model.propagation(a, b), model.propagation(b, a));
    }
  }
  util::Rng rng(2024);
  for (int i = 0; i < 5000; ++i) {
    const GeoPoint a = random_point(rng);
    const GeoPoint b = random_point(rng);
    ASSERT_EQ(model.live_propagation(a, b), model.live_propagation(b, a))
        << "(" << a.lat_deg << ", " << a.lon_deg << ") <-> (" << b.lat_deg
        << ", " << b.lon_deg << ")";
    ASSERT_EQ(haversine_km(a, b), haversine_km(b, a))
        << "(" << a.lat_deg << ", " << a.lon_deg << ") <-> (" << b.lat_deg
        << ", " << b.lon_deg << ")";
  }
}

// --- per-lane link cache ----------------------------------------------------

std::vector<LatencyConfig> sampling_configs() {
  std::vector<LatencyConfig> configs(4);
  configs[1].jitter_fraction = 0.25;
  configs[2].inter_isp_penalty_mean_s = 0.5;
  configs[3].inter_isp_penalty_mean_s = 0.2;
  configs[3].jitter_fraction = 0.3;
  return configs;
}

// Cached propagation for sites i and j of `sites` (site id = index).
double cached(LinkCache& cache, const LatencyModel& model,
              const std::vector<GeoPoint>& sites, std::size_t i, std::size_t j) {
  return cache
      .lookup(model, static_cast<std::uint32_t>(i), sites[i],
              static_cast<std::uint32_t>(j), sites[j])
      .propagation_s;
}

TEST(LinkCacheTest, HitsAndFillsMatchPropagationInBothOrders) {
  const std::vector<GeoPoint> sites = grid_sites();
  for (const LatencyConfig& cfg : sampling_configs()) {
    const LatencyModel model(cfg);
    LinkCache cache;
    // Pass 0 fills each link in (i, j) order and hits it again as (j, i);
    // pass 1 is all hits. Bit-identical, not approximately equal: the cache
    // must not move golden pins by even one ulp.
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < sites.size(); ++i) {
        for (std::size_t j = 0; j < sites.size(); ++j) {
          EXPECT_EQ(cached(cache, model, sites, i, j),
                    model.propagation(sites[i], sites[j]))
              << "pass " << pass << " sites " << i << ", " << j;
        }
      }
      EXPECT_EQ(cache.size(), sites.size() * (sites.size() + 1) / 2);
    }
  }
}

TEST(LinkCacheTest, SamplingConsumesRngLikeOneWay) {
  const std::vector<GeoPoint> sites = grid_sites();
  for (const LatencyConfig& cfg : sampling_configs()) {
    const LatencyModel model(cfg);
    const LatencyModel reference(cfg);
    LinkCache cache;
    // Identically seeded streams must consume draws in lockstep: the cache
    // may not change how many random numbers a sample uses.
    util::Rng rng_cache(42);
    util::Rng rng_reference(42);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < sites.size(); ++i) {
        for (std::size_t j = 0; j < sites.size(); ++j) {
          for (const bool crosses_isp : {false, true}) {
            EXPECT_EQ(model.sample(cached(cache, model, sites, i, j),
                                   crosses_isp, rng_cache),
                      reference.one_way(sites[i], sites[j], crosses_isp,
                                        rng_reference));
          }
        }
      }
    }
    EXPECT_EQ(rng_cache.engine()(), rng_reference.engine()());
  }
}

TEST(LinkCacheTest, DuplicateSitesKeepTheirOwnLinks) {
  // Sites 0 and 7 share a point, as servers placed on the same world site
  // do. Their links are distinct entries holding the same bits.
  const std::vector<GeoPoint> sites = grid_sites();
  ASSERT_EQ(sites[0], sites[7]);
  const LatencyModel model(LatencyConfig{});
  LinkCache cache;
  EXPECT_EQ(cached(cache, model, sites, 0, 7), model.propagation(kAtlanta, kAtlanta));
  EXPECT_EQ(cached(cache, model, sites, 2, 0), cached(cache, model, sites, 7, 2));
  EXPECT_EQ(cached(cache, model, sites, 0, 2), model.propagation(kAtlanta, kTokyo));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(LinkCacheTest, HoldsMoreThan8192DistinctSites) {
  // A star from the provider plus a chain through every server, past the
  // 8,192 sites fig20 --large outgrows: the table grows many times and
  // every entry must survive the rehashes intact.
  constexpr std::size_t kSites = 9000;
  util::Rng rng(77);
  std::vector<GeoPoint> sites;
  sites.reserve(kSites);
  for (std::size_t i = 0; i < kSites; ++i) sites.push_back(random_point(rng));
  const LatencyModel model(LatencyConfig{});
  LinkCache cache;
  for (std::size_t s = 1; s < kSites; ++s) {
    ASSERT_EQ(cached(cache, model, sites, 0, s), model.propagation(sites[0], sites[s]));
    ASSERT_EQ(cached(cache, model, sites, s, s - 1),
              model.propagation(sites[s], sites[s - 1]));
  }
  // Site 1's chain link is its star link: 2 * (kSites - 1) - 1 links.
  EXPECT_EQ(cache.size(), 2 * (kSites - 1) - 1);
  for (std::size_t s = 1; s < kSites; ++s) {
    ASSERT_EQ(cached(cache, model, sites, s, 0), model.propagation(sites[s], sites[0]));
    ASSERT_EQ(cached(cache, model, sites, s - 1, s),
              model.propagation(sites[s - 1], sites[s]));
  }
  EXPECT_EQ(cache.size(), 2 * (kSites - 1) - 1);
}

TEST(LinkCacheTest, ScenarioPlacementsMatchPropagation) {
  // Real placements put many servers on one world site, so this covers
  // duplicate points at scale. Site id = node id + 1, as in the engine.
  for (const std::size_t servers : {std::size_t{600}, std::size_t{2550}}) {
    core::ScenarioConfig sc;
    sc.server_count = servers;
    const core::Scenario scenario = core::build_scenario(sc);
    std::vector<GeoPoint> sites;
    sites.push_back(scenario.nodes->location(topology::kProviderNode));
    for (const topology::NodeId id : scenario.nodes->server_ids()) {
      sites.push_back(scenario.nodes->location(id));
    }
    const LatencyModel model(LatencyConfig{});
    LinkCache cache;
    util::Rng rng(servers);
    for (std::size_t k = 0; k < 4 * servers; ++k) {
      const std::size_t i = k < servers ? 0 : rng.index(sites.size());
      const std::size_t j = k < servers ? k + 1 : rng.index(sites.size());
      ASSERT_EQ(cached(cache, model, sites, i, j),
                model.propagation(sites[i], sites[j]))
          << servers << " servers, sites " << i << ", " << j;
      ASSERT_EQ(cached(cache, model, sites, j, i),
                model.propagation(sites[j], sites[i]))
          << servers << " servers, sites " << j << ", " << i;
    }
  }
}

TEST(LinkCacheTest, ScenarioKmMatchesRegistryDistance) {
  // The engine meters every message with the km its link-cache lookup
  // returns, so that km must be the registry's distance_km in the send
  // direction, bit for bit, or the traffic totals would move.
  for (const std::size_t servers : {std::size_t{600}, std::size_t{2550}}) {
    core::ScenarioConfig sc;
    sc.server_count = servers;
    const core::Scenario scenario = core::build_scenario(sc);
    const topology::NodeRegistry& nodes = *scenario.nodes;
    const LatencyModel model(LatencyConfig{});
    LinkCache cache;
    const auto km = [&](topology::NodeId from, topology::NodeId to) {
      return cache
          .lookup(model, static_cast<std::uint32_t>(from + 1), nodes.location(from),
                  static_cast<std::uint32_t>(to + 1), nodes.location(to))
          .km;
    };
    util::Rng rng(servers + 1);
    const auto node_count = static_cast<topology::NodeId>(servers);
    for (std::size_t k = 0; k < 4 * servers; ++k) {
      const auto from = k < servers ? topology::kProviderNode
                                    : static_cast<topology::NodeId>(rng.index(servers + 1)) - 1;
      const auto to = k < servers ? static_cast<topology::NodeId>(k)
                                  : static_cast<topology::NodeId>(rng.index(servers + 1)) - 1;
      ASSERT_LT(to, node_count);
      ASSERT_EQ(km(from, to), nodes.distance_km(from, to))
          << servers << " servers, " << from << " -> " << to;
      ASSERT_EQ(km(to, from), nodes.distance_km(to, from))
          << servers << " servers, " << to << " -> " << from;
    }
  }
}

TEST(LinkCacheTest, RejectsTheReservedSiteIdPair) {
  // The all-ones key marks an empty slot, so (max, max) cannot be stored;
  // every other pair, max included, can.
  const LatencyModel model(LatencyConfig{});
  LinkCache cache;
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  EXPECT_THROW(cache.lookup(model, kMax, kAtlanta, kMax, kAtlanta),
               cdnsim::PreconditionError);
  EXPECT_EQ(cache.lookup(model, kMax, kAtlanta, 0, kTokyo).propagation_s,
            model.propagation(kAtlanta, kTokyo));
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace cdnsim::net
