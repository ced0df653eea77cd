// Golden pins for the five reference systems, plus the faulty transport.
//
// Each test runs a fixed 20-server scenario against a fixed game trace
// (derived through the batch runner's substream rule, so these values also
// freeze the substream_seed contract) and compares against values recorded
// from the reference toolchain (GCC/libstdc++, IEEE-754 doubles). Any change
// to event ordering, RNG consumption, traffic accounting or the seed
// derivation rule shows up here as an exact-value diff — if a change is
// intentional, regenerate the constants and say so in the commit.
//
// The faulty-transport rows add message loss, duplication and delay jitter,
// so the pins also cover duplicate copies, reliable retransmits and
// flow-controlled pub/sub transmits, each on the classic driver and on one
// sharded lane (whose epoch-quantized arrivals give different values).
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "core/batch_runner.hpp"

namespace cdnsim::core {
namespace {

using consistency::InfrastructureKind;
using consistency::UpdateMethod;

constexpr std::uint64_t kGoldenSeed = 424242;

struct Golden {
  const char* name;
  UpdateMethod method;
  InfrastructureKind infra;
  double avg_server_inconsistency_s;
  double avg_user_inconsistency_s;
  double traffic_cost_km_kb;
  std::uint64_t update_messages;
  std::uint64_t light_messages;
  std::size_t events_processed;
};

// A golden row run over the faulty transport: loss 0.1, duplication 0.05
// and jitter up to 0.02 s.
struct FaultyGolden {
  Golden pins;
  bool reliable;
  std::uint32_t flow_window;
  int shards;
};

// gtest prints the parameter into the ctest name; print the name alone so
// the test names do not depend on the struct's bytes (pointer included).
void PrintTo(const Golden& g, std::ostream* os) { *os << g.name; }
void PrintTo(const FaultyGolden& f, std::ostream* os) { *os << f.pins.name; }

// Recorded 2026-08 from the reference build; %.17g round-trips doubles
// exactly, so the comparisons below are bit-exact. events_processed was
// re-pinned when batched visit processing replaced per-visit events (all
// doubles and message counts stayed bit-identical across that change).
// The faulty-transport rows were recorded 2026-10 the same way.
const Golden kGoldens[] = {
    {"Ttl", UpdateMethod::kTtl, InfrastructureKind::kUnicast,
     7.6584398462394789, 13.657092600881546, 18570071.204144694, 2069, 2069,
     7798},
    {"Push", UpdateMethod::kPush, InfrastructureKind::kUnicast,
     0.039825174294060003, 6.147392575374715, 5021359.3613106804, 1120, 0,
     2715},
    {"Invalidation", UpdateMethod::kInvalidation, InfrastructureKind::kUnicast,
     3.364820363159454, 6.15472453414288, 13391967.212470967, 946, 2066,
     5361},
    {"SelfAdaptive", UpdateMethod::kSelfAdaptive, InfrastructureKind::kUnicast,
     5.8508709133204295, 10.507243533261128, 15473283.326287987, 1306, 2184,
     6294},
    // HAT: the paper's hybrid — self-adaptive switching on the supernode
    // infrastructure.
    {"Hat", UpdateMethod::kSelfAdaptive, InfrastructureKind::kHybridSupernode,
     4.4947092624907565, 9.6993203854935413, 11306881.763750417, 1262, 1643,
     5409},
};

const FaultyGolden kFaultyGoldens[] = {
    {{"PushRetry", UpdateMethod::kPush, InfrastructureKind::kUnicast,
      0.25141673655114471, 6.3223925753747166, 11840480.576375511, 1353, 1283,
      5393},
     true, 0, 0},
    {{"PushRetrySharded", UpdateMethod::kPush, InfrastructureKind::kUnicast,
      0.38905107275759809, 6.4545354325175728, 11956259.731119147, 1378, 1302,
      5443},
     true, 0, 1},
    {{"InvalidationFlow", UpdateMethod::kInvalidation,
      InfrastructureKind::kMulticastTree, 1.1256201013070435,
      2.8884378190136504, 2497755.10506998, 32, 1390, 9766},
     false, 2, 0},
    {{"InvalidationFlowSharded", UpdateMethod::kInvalidation,
      InfrastructureKind::kMulticastTree, 1.7591166274407066,
      3.0772502747712385, 2754529.3966049287, 26, 1459, 9889},
     false, 2, 1},
    {{"HybridPushRetryFlow", UpdateMethod::kPush,
      InfrastructureKind::kHybridSupernode, 0.50305837398921616,
      6.5616782896604322, 10299447.483569888, 1352, 1312, 5408},
     true, 2, 0},
    {{"HybridPushRetryFlowSharded", UpdateMethod::kPush,
      InfrastructureKind::kHybridSupernode, 0.98868395839913314,
      7.0545354325175742, 10352741.823935553, 1357, 1302, 5374},
     true, 2, 1},
};

BatchJob golden_job(const Golden& g) {
  BatchJob job;
  ScenarioConfig sc;
  sc.server_count = 20;
  sc.seed = 7;
  job.scenario = sc;
  trace::GameTraceConfig game;
  game.bursty = false;
  game.pre_game_s = 60;
  game.period_s = 600;
  game.break_s = 120;
  game.post_game_s = 60;
  job.game = game;
  job.engine.method.method = g.method;
  job.engine.method.server_ttl_s = 15.0;
  job.engine.infrastructure.kind = g.infra;
  job.engine.infrastructure.cluster_count = 5;
  job.engine.users_per_server = 3;
  job.engine.user_poll_period_s = 12.0;
  job.label = g.name;
  return job;
}

BatchJob golden_job(const FaultyGolden& f) {
  BatchJob job = golden_job(f.pins);
  job.engine.fault.enabled = true;
  job.engine.fault.loss_probability = 0.1;
  job.engine.fault.duplicate_probability = 0.05;
  job.engine.fault.extra_delay_max_s = 0.02;
  job.engine.reliable.enabled = f.reliable;
  job.engine.pubsub.flow_window = f.flow_window;
  job.engine.shard.shards = f.shards;
  return job;
}

void expect_pinned(const SimulationResult& s, const Golden& g) {
  EXPECT_DOUBLE_EQ(s.avg_server_inconsistency_s, g.avg_server_inconsistency_s);
  EXPECT_DOUBLE_EQ(s.avg_user_inconsistency_s, g.avg_user_inconsistency_s);
  EXPECT_DOUBLE_EQ(s.traffic.cost_km_kb, g.traffic_cost_km_kb);
  EXPECT_EQ(s.traffic.update_messages, g.update_messages);
  EXPECT_EQ(s.traffic.light_messages, g.light_messages);
  EXPECT_EQ(s.events_processed, g.events_processed);
  // No churn configured in the golden scenario.
  EXPECT_EQ(s.failures_injected, 0u);
}

// Observability must be a pure observer: metrics are always collected (the
// pins already run with them), and switching trace recording on must
// reproduce the exact same pinned values while actually recording events.
void expect_trace_does_not_perturb(BatchJob job, const Golden& g) {
  job.engine.record_trace_events = true;
  const auto r = BatchRunner::run_job(job, kGoldenSeed, 0);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_DOUBLE_EQ(r.sim.avg_server_inconsistency_s,
                   g.avg_server_inconsistency_s);
  EXPECT_DOUBLE_EQ(r.sim.traffic.cost_km_kb, g.traffic_cost_km_kb);
  EXPECT_EQ(r.sim.events_processed, g.events_processed);
  EXPECT_FALSE(r.sim.trace.empty());
  EXPECT_FALSE(r.sim.metrics.empty());
  // Cross-check: every acquisition span in the trace has a counted update.
  const std::size_t spans =
      static_cast<std::size_t>(std::count_if(r.sim.trace.events().begin(),
                                             r.sim.trace.events().end(),
                                             [](const obs::TraceEvent& e) {
                                               return e.ph == 'X';
                                             }));
  // Sum over all methods: e.g. HAT servers count as SelfAdaptive while
  // their supernodes acquire as Push.
  auto metrics = r.sim.metrics;  // counter() is non-const (registers)
  std::uint64_t acquired = 0;
  for (const UpdateMethod m :
       {UpdateMethod::kTtl, UpdateMethod::kAdaptiveTtl, UpdateMethod::kPush,
        UpdateMethod::kInvalidation, UpdateMethod::kSelfAdaptive,
        UpdateMethod::kRateAdaptive}) {
    acquired += metrics
                    .counter("engine.updates_acquired." +
                             std::string(to_string(m)))
                    .value;
  }
  EXPECT_EQ(acquired, spans);
}

class SimulationGoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(SimulationGoldenTest, MatchesRecordedReferenceValues) {
  const Golden& g = GetParam();
  const auto r = BatchRunner::run_job(golden_job(g), kGoldenSeed, 0);
  ASSERT_TRUE(r.ok()) << r.error;
  expect_pinned(r.sim, g);
}

TEST_P(SimulationGoldenTest, TraceRecordingDoesNotPerturbPinnedValues) {
  const Golden& g = GetParam();
  expect_trace_does_not_perturb(golden_job(g), g);
}

INSTANTIATE_TEST_SUITE_P(FiveSystems, SimulationGoldenTest,
                         ::testing::ValuesIn(kGoldens),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(info.param.name);
                         });

class FaultyTransportGoldenTest
    : public ::testing::TestWithParam<FaultyGolden> {};

TEST_P(FaultyTransportGoldenTest, MatchesRecordedReferenceValues) {
  const FaultyGolden& f = GetParam();
  const auto r = BatchRunner::run_job(golden_job(f), kGoldenSeed, 0);
  ASSERT_TRUE(r.ok()) << r.error;
  expect_pinned(r.sim, f.pins);
  // The rows pin the paths they were added for only if those fire.
  auto metrics = r.sim.metrics;  // counter() is non-const (registers)
  EXPECT_GT(metrics.counter("fault.messages_dropped").value, 0u)
      << "a loss probability of 0.1 dropped no message";
  EXPECT_GT(metrics.counter("fault.messages_duplicated").value, 0u)
      << "a duplication probability of 0.05 copied no message";
  if (f.reliable) {
    EXPECT_GT(metrics.counter("reliable.retries").value, 0u)
        << "the reliable row never retransmitted";
  }
  // Under a credit window every live delivery is a flow-controlled transmit.
  if (f.flow_window > 0) {
    EXPECT_GT(metrics.counter("pubsub.live_deliveries").value, 0u)
        << "the flow-controlled row made no live delivery";
  }
}

TEST_P(FaultyTransportGoldenTest, TraceRecordingDoesNotPerturbPinnedValues) {
  const FaultyGolden& f = GetParam();
  if (f.shards > 0) {
    GTEST_SKIP() << "sharded engines reject record_trace_events";
  }
  expect_trace_does_not_perturb(golden_job(f), f.pins);
}

INSTANTIATE_TEST_SUITE_P(
    FaultyTransport, FaultyTransportGoldenTest,
    ::testing::ValuesIn(kFaultyGoldens),
    [](const ::testing::TestParamInfo<FaultyGolden>& info) {
      return std::string(info.param.pins.name);
    });

// The goldens double as a cross-method ordering check: the paper's Fig. 16
// ranking (push freshest, TTL stalest, HAT cheaper than plain unicast
// self-adaptive) must hold on the pinned values themselves.
TEST(SimulationGoldenTest, PinnedValuesPreserveThePapersOrdering) {
  const auto& ttl = kGoldens[0];
  const auto& push = kGoldens[1];
  const auto& inval = kGoldens[2];
  const auto& self_adaptive = kGoldens[3];
  const auto& hat = kGoldens[4];
  EXPECT_LT(push.avg_server_inconsistency_s, inval.avg_server_inconsistency_s);
  EXPECT_LT(inval.avg_server_inconsistency_s, ttl.avg_server_inconsistency_s);
  EXPECT_LT(hat.traffic_cost_km_kb, self_adaptive.traffic_cost_km_kb);
  EXPECT_LT(hat.avg_server_inconsistency_s,
            self_adaptive.avg_server_inconsistency_s);
}

}  // namespace
}  // namespace cdnsim::core
