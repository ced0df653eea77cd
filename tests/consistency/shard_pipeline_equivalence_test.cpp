// Equivalence battery for the sharded driver and auto shard selection.
//
// 1. The sharded driver must be byte-identical to the retired lockstep
//    reference driver, which ran every round to quiescence and then drained
//    the merge queue serially: same result vectors, same full metrics JSON
//    — sim.* gauges included — across all five paper systems, reliable
//    delivery off/on, and a nonzero fault plan. The lockstep runs survive
//    as FNV-1a digests of their fingerprints (kLockstepPins), recorded while
//    both drivers still agreed byte for byte. The driver must also stay
//    invariant across lane and worker counts, and reject negative ones.
// 2. `ShardConfig::kAuto` must (a) resolve lane counts by the documented
//    size/hardware model, (b) degrade to classic execution on configurations
//    the sharded driver does not support instead of tripping its
//    preconditions, and (c) never change results: an auto engine is
//    byte-identical to `shards = 1` whatever it resolves to.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "consistency/engine.hpp"
#include "consistency/engine_test_util.hpp"
#include "obs/profiler.hpp"

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

// gtest prints the parameter into the ctest name; print the name alone so
// the test names do not depend on the struct's bytes (pointer included).
void PrintTo(const System& s, std::ostream* os) { *os << s.name; }

const System kSystems[] = {
    {"Ttl", UpdateMethod::kTtl, InfrastructureKind::kUnicast},
    {"Push", UpdateMethod::kPush, InfrastructureKind::kUnicast},
    {"Invalidation", UpdateMethod::kInvalidation, InfrastructureKind::kUnicast},
    {"SelfAdaptive", UpdateMethod::kSelfAdaptive, InfrastructureKind::kUnicast},
    {"Hat", UpdateMethod::kSelfAdaptive, InfrastructureKind::kHybridSupernode},
};

// fingerprint_digest() of the lockstep reference driver's run for each
// system, indexed [faulty][reliable] (4 lanes, 2 workers). A mismatch means
// the sharded driver's output changed.
struct LockstepPin {
  const char* system;
  std::uint64_t digest[2][2];
};

const LockstepPin kLockstepPins[] = {
    {"Ttl",
     {{0x8e18b041213b5358ull, 0x8e18b041213b5358ull},
      {0x05196dc4cd53ca67ull, 0x05196dc4cd53ca67ull}}},
    {"Push",
     {{0x1c8f4198855c6d01ull, 0x53b75287af02991dull},
      {0x60367993b10781edull, 0x2e8f7d17633a7d38ull}}},
    {"Invalidation",
     {{0x5af4c50a02feab01ull, 0x6224a143cb9fcfb1ull},
      {0x7b0ecf1348d4e8c0ull, 0xf5188073a897e6ccull}}},
    {"SelfAdaptive",
     {{0x04d6e3d21e7eb47dull, 0x7cc75452791da00aull},
      {0x634001d1b3fa004cull, 0x9a7553ed0c29e03full}}},
    {"Hat",
     {{0x5e7cc58e49cc3d7aull, 0x33bd212921fe2a34ull},
      {0x4c913f13db2e3de5ull, 0x3478994f7f08c583ull}}},
};

std::uint64_t lockstep_pin(const std::string& system, bool faulty,
                           bool reliable) {
  for (const LockstepPin& pin : kLockstepPins) {
    if (system == pin.system) return pin.digest[faulty][reliable];
  }
  ADD_FAILURE() << "no lockstep pin for " << system;
  return 0;
}

fault::FaultPlan nonzero_fault_plan() {
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.loss_probability = 0.05;
  plan.duplicate_probability = 0.02;
  plan.extra_delay_max_s = 0.4;
  return plan;
}

// Everything a run exposes to callers, as comparable strings/vectors.
struct Fingerprint {
  std::vector<double> server_avg;
  std::vector<double> user_avg;
  std::vector<double> per_server_max_user;
  double observed_fraction = 0.0;
  std::string metrics_json;
};

Fingerprint fingerprint(const UpdateEngine& engine) {
  Fingerprint fp;
  fp.server_avg = engine.server_avg_inconsistency();
  fp.user_avg = engine.user_avg_inconsistency();
  fp.per_server_max_user = engine.per_server_max_user_inconsistency();
  fp.observed_fraction = engine.user_observed_inconsistency_fraction();
  fp.metrics_json = engine.metrics().to_json();
  return fp;
}

// operator== on doubles is bit-exact here (no NaNs in these outputs), which
// is the equivalence the pipelined driver promises.
void expect_identical(const Fingerprint& a, const Fingerprint& b) {
  EXPECT_EQ(a.server_avg, b.server_avg);
  EXPECT_EQ(a.user_avg, b.user_avg);
  EXPECT_EQ(a.per_server_max_user, b.per_server_max_user);
  EXPECT_EQ(a.observed_fraction, b.observed_fraction);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

// FNV-1a over every fingerprint field: doubles by bit pattern, vectors and
// the metrics JSON length-prefixed, so a pin changes with any output byte.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      const auto b = static_cast<unsigned char>(v >> (8 * i));
      bytes(&b, 1);
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void f64s(const std::vector<double>& vs) {
    u64(vs.size());
    for (double v : vs) f64(v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t fingerprint_digest(const Fingerprint& fp) {
  Fnv1a h;
  h.f64s(fp.server_avg);
  h.f64s(fp.user_avg);
  h.f64s(fp.per_server_max_user);
  h.f64(fp.observed_fraction);
  h.u64(fp.metrics_json.size());
  h.bytes(fp.metrics_json.data(), fp.metrics_json.size());
  return h.value();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

class ShardPipelineEquivalenceTest : public ::testing::TestWithParam<System> {};

TEST_P(ShardPipelineEquivalenceTest, OverlapMatchesLockstepReference) {
  const System& sys = GetParam();
  const auto scenario = small_scenario();
  const auto updates = short_game();
  for (const bool faulty : {false, true}) {
    for (const bool reliable : {false, true}) {
      EngineConfig ec = base_config(sys.method, sys.infra);
      if (faulty) ec.fault = nonzero_fault_plan();
      ec.reliable.enabled = reliable;
      ec.shard.shards = 4;
      ec.shard.workers = 2;
      const auto r = run(*scenario.nodes, updates, ec);
      SCOPED_TRACE(std::string(sys.name) + (faulty ? " faulty" : " clean") +
                   (reliable ? " reliable" : " best-effort"));
      EXPECT_EQ(hex(fingerprint_digest(fingerprint(*r->engine))),
                hex(lockstep_pin(sys.name, faulty, reliable)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FiveSystems, ShardPipelineEquivalenceTest,
                         ::testing::ValuesIn(kSystems),
                         [](const auto& info) { return info.param.name; });

TEST(ShardPipelineDriverTest, OverlapInvariantAcrossWorkerAndLaneCounts) {
  // Decomposition invariance: one fingerprint for every (shards, workers)
  // combination.
  const auto scenario = small_scenario();
  const auto updates = short_game();
  Fingerprint reference;
  bool have_reference = false;
  for (const int shards : {1, 3, 8}) {
    for (const int workers : {1, 4}) {
      EngineConfig ec = base_config(UpdateMethod::kSelfAdaptive,
                                    InfrastructureKind::kHybridSupernode);
      ec.fault = nonzero_fault_plan();
      ec.reliable.enabled = true;
      ec.shard.shards = shards;
      ec.shard.workers = workers;
      const auto r = run(*scenario.nodes, updates, ec);
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " workers=" + std::to_string(workers));
      const Fingerprint fp = fingerprint(*r->engine);
      if (!have_reference) {
        reference = fp;
        have_reference = true;
      } else {
        expect_identical(reference, fp);
      }
    }
  }
}

TEST(ShardPipelineDriverTest, NegativeWorkerCountIsRejected) {
  const auto scenario = small_scenario();
  const auto updates = short_game();
  EngineConfig ec = base_config(UpdateMethod::kPush);
  ec.shard.shards = 2;
  ec.shard.workers = -1;
  sim::Simulator simulator;
  EXPECT_THROW(UpdateEngine(simulator, *scenario.nodes, updates, ec),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// Auto shard selection
// ---------------------------------------------------------------------------

EngineConfig shardable_config() {
  EngineConfig ec = base_config(UpdateMethod::kPush);
  ec.shard.shards = EngineConfig::ShardConfig::kAuto;
  return ec;
}

TEST(ShardAutoSelectionTest, ResolvesByServerCountAndHardwareThreads) {
  const EngineConfig ec = shardable_config();
  // Size-limited: one lane per kAutoMinServersPerLane (24) servers.
  EXPECT_EQ(resolved_shard_count(ec, 48, /*hardware_threads=*/8), 2);
  EXPECT_EQ(resolved_shard_count(ec, 96, /*hardware_threads=*/8), 4);
  // Hardware-limited once the scenario is big enough.
  EXPECT_EQ(resolved_shard_count(ec, 960, /*hardware_threads=*/8), 8);
  EXPECT_EQ(resolved_shard_count(ec, 960, /*hardware_threads=*/2), 2);
  // Tiny scenarios and single-thread hosts stay at one lane, never zero:
  // classic execution has different message timing (no epoch grid), and
  // auto's output must stay byte-identical to every explicit --shards N.
  EXPECT_EQ(resolved_shard_count(ec, 30, /*hardware_threads=*/8), 1);
  EXPECT_EQ(resolved_shard_count(ec, 3, /*hardware_threads=*/16), 1);
  EXPECT_EQ(resolved_shard_count(ec, 960, /*hardware_threads=*/1), 1);
}

TEST(ShardAutoSelectionTest, ExplicitCountsClampAndZeroDisables) {
  EngineConfig ec = shardable_config();
  ec.shard.shards = 5;
  EXPECT_EQ(resolved_shard_count(ec, 3), 3);   // clamped to server count
  EXPECT_EQ(resolved_shard_count(ec, 100), 5);
  ec.shard.shards = 0;
  EXPECT_EQ(resolved_shard_count(ec, 100), 0);  // off means off
}

TEST(ShardAutoSelectionTest, AutoDegradesToClassicWhenUnsupported) {
  // Each of these configurations would trip the sharded constructor's
  // preconditions; auto must resolve to classic execution (0) instead.
  {
    EngineConfig ec = shardable_config();
    ec.record_trace_events = true;
    EXPECT_EQ(resolved_shard_count(ec, 960, 8), 0);
  }
  {
    EngineConfig ec = shardable_config();
    ec.churn.failures_per_hour = 1.0;
    EXPECT_EQ(resolved_shard_count(ec, 960, 8), 0);
  }
  {
    EngineConfig ec = shardable_config();
    ec.visit_batching = false;
    EXPECT_EQ(resolved_shard_count(ec, 960, 8), 0);
  }
  {
    EngineConfig ec = shardable_config();
    ec.record_poll_log = true;
    EXPECT_EQ(resolved_shard_count(ec, 960, 8), 0);
  }
  {
    EngineConfig ec = shardable_config();
    obs::Profiler profiler;
    ec.profiler = &profiler;
    EXPECT_EQ(resolved_shard_count(ec, 960, 8), 0);
  }
}

TEST(ShardAutoSelectionTest, AutoRunMatchesShardsOne) {
  // Whatever lane count auto resolves to on this host, results are
  // byte-identical to an explicit single lane — the invariance the benches'
  // default (--shards auto) rides on.
  const auto scenario = small_scenario();
  const auto updates = short_game();
  EngineConfig auto_cfg = base_config(UpdateMethod::kInvalidation);
  auto_cfg.fault = nonzero_fault_plan();
  auto_cfg.shard.shards = EngineConfig::ShardConfig::kAuto;
  EngineConfig one_cfg = auto_cfg;
  one_cfg.shard.shards = 1;
  const auto auto_run = run(*scenario.nodes, updates, auto_cfg);
  const auto one_run = run(*scenario.nodes, updates, one_cfg);
  expect_identical(fingerprint(*auto_run->engine),
                   fingerprint(*one_run->engine));
}

TEST(ShardAutoSelectionTest, AutoOnUnsupportedConfigRunsClassic) {
  // An auto engine over an unsupported configuration (churn here) must run —
  // on the classic driver — and match an explicitly classic engine exactly.
  const auto scenario = small_scenario();
  const auto updates = short_game();
  EngineConfig auto_cfg = base_config(UpdateMethod::kTtl);
  auto_cfg.churn.failures_per_hour = 2.0;
  auto_cfg.shard.shards = EngineConfig::ShardConfig::kAuto;
  EngineConfig classic_cfg = auto_cfg;
  classic_cfg.shard.shards = 0;
  const auto auto_run = run(*scenario.nodes, updates, auto_cfg);
  const auto classic_run = run(*scenario.nodes, updates, classic_cfg);
  expect_identical(fingerprint(*auto_run->engine),
                   fingerprint(*classic_run->engine));
}

}  // namespace
}  // namespace cdnsim::consistency
