// Satellite: ISP-pair partition strands a subscriber mid-game; on heal, the
// flow-controlled catch-up path re-tails exactly the missed range — no
// double counting across the repeated give-up/re-tail cycles the partition
// forces — and the whole scenario is byte-identical across batch thread
// counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "engine_test_util.hpp"
#include "net/geo.hpp"
#include "obs/metrics.hpp"
#include "topology/node.hpp"

namespace cdnsim::consistency {
namespace {

using testutil::regular_trace;
using testutil::run;

// Provider plus three servers in ISP 0, one stranded server in ISP 1. The
// stranded server attaches to its nearest ISP-0 member, so the ISP-pair
// partition cuts exactly one subscription edge.
topology::NodeRegistry star_registry() {
  topology::NodeRegistry nodes({net::GeoPoint{0, 0}, 0});
  nodes.add_server({net::GeoPoint{1, 0}, 0});
  nodes.add_server({net::GeoPoint{0, 1}, 0});
  nodes.add_server({net::GeoPoint{1, 1}, 0});
  nodes.add_server({net::GeoPoint{40, 40}, 1});  // the stranded one
  return nodes;
}

constexpr topology::NodeId kStranded = 3;
constexpr int kUpdates = 8;
// Updates at trace t = 10..80; the engine's default trace_offset_s = 60
// shifts them to sim t = 70..140.
constexpr double kGap = 10.0;

EngineConfig partitioned_config(std::size_t log_capacity) {
  EngineConfig cfg = testutil::base_config(UpdateMethod::kPush,
                                           InfrastructureKind::kMulticastTree);
  cfg.infrastructure.tree_fanout = 16;
  cfg.pubsub.flow_window = 1;
  cfg.pubsub.log_capacity = log_capacity;
  cfg.reliable.enabled = true;
  cfg.reliable.ack_timeout_s = 0.5;
  cfg.reliable.max_retries = 2;
  cfg.fault.enabled = true;
  // Window opens after update 1 (sim t = 70) is confirmed and closes after
  // the last update (sim t = 140): versions 2..8 are published into the
  // partition, none after it.
  cfg.fault.partitions.push_back({0, 1, 75.0, 300.0});
  cfg.tail_s = 400.0;
  return cfg;
}

TEST(PubsubCatchupTest, HealedSubscriberReTailsExactlyTheMissedRange) {
  const auto nodes = star_registry();
  const auto updates = regular_trace(kGap, kUpdates);
  const auto r =
      run(nodes, updates, partitioned_config(pubsub::Topic::kDefaultLogCapacity));

  // The stranded server missed versions 2..8 but converges after the heal.
  EXPECT_EQ(r->engine->recorder(kStranded).current_version(),
            static_cast<std::uint64_t>(kUpdates));
  for (topology::NodeId s = 0; s < 4; ++s) {
    EXPECT_EQ(r->engine->recorder(s).current_version(),
              static_cast<std::uint64_t>(kUpdates))
        << "server " << s;
  }

  obs::MetricsRegistry m = r->engine->metrics();
  // Every dead transmission exhausted its retry budget at least once.
  EXPECT_GT(m.counter("reliable.give_ups").value, 0u);
  EXPECT_GT(m.counter("fault.partition_dropped").value, 0u);
  // Exactly-once re-tail: the missed range (1, 8] is seven versions, all
  // retained in the default-capacity log, and no matter how many catch-up
  // attempts died inside the partition the confirmed gap is accounted once.
  EXPECT_EQ(m.counter("pubsub.catch_up_reads").value,
            static_cast<std::uint64_t>(kUpdates - 1));
  EXPECT_EQ(m.counter("pubsub.skipped_ahead").value, 0u);
  // The subscriber left the lagging set when its cursor reached the head.
  EXPECT_EQ(m.gauge("pubsub.lagging_subscribers").value, 0.0);
  EXPECT_EQ(m.counter("pubsub.lagging_enter").value,
            m.counter("pubsub.lagging_exit").value);
}

TEST(PubsubCatchupTest, TinyLogConvertsTrimmedVersionsToSkippedAhead) {
  const auto nodes = star_registry();
  const auto updates = regular_trace(kGap, kUpdates);
  const auto r = run(nodes, updates, partitioned_config(/*log_capacity=*/2));

  EXPECT_EQ(r->engine->recorder(kStranded).current_version(),
            static_cast<std::uint64_t>(kUpdates));
  obs::MetricsRegistry m = r->engine->metrics();
  const std::uint64_t reads = m.counter("pubsub.catch_up_reads").value;
  const std::uint64_t skipped = m.counter("pubsub.skipped_ahead").value;
  // A two-entry ring retains at most the newest two versions, so the bulk
  // of the missed range is a bounded-staleness skip, not a log read.
  EXPECT_LE(reads, 2u);
  EXPECT_GT(skipped, 0u);
  EXPECT_EQ(reads + skipped, static_cast<std::uint64_t>(kUpdates - 1));
}

// The last live push reaches the stranded server, but the partition opens
// before its ack leaves, so the ack and both retransmits die and the relay
// gives up after the horizon. The give-up must still re-tail the log once:
// the partition has healed by then, the catch-up confirms, and the
// subscriber leaves the lagging set.
TEST(PubsubCatchupTest, GiveUpPastTheHorizonStillReTails) {
  const auto nodes = star_registry();
  const auto updates = regular_trace(kGap, kUpdates);
  EngineConfig cfg = partitioned_config(pubsub::Topic::kDefaultLogCapacity);
  cfg.tail_s = 1.0;  // horizon at sim t = 141
  // Last publish at sim t = 140; retries end in a give-up near t = 143.5.
  cfg.fault.partitions[0] = {0, 1, 140.02, 143.0};
  const auto r = run(nodes, updates, cfg);

  EXPECT_GT(r->engine->final_time(), r->engine->end_time())
      << "the give-up no longer lands past the horizon";
  EXPECT_EQ(r->engine->recorder(kStranded).current_version(),
            static_cast<std::uint64_t>(kUpdates));
  obs::MetricsRegistry m = r->engine->metrics();
  EXPECT_GT(m.counter("reliable.give_ups").value, 0u)
      << "the scenario no longer ends in a reliable give-up";
  EXPECT_GT(m.counter("pubsub.catch_up_messages").value, 0u);
  EXPECT_EQ(m.counter("pubsub.lagging_enter").value,
            m.counter("pubsub.lagging_exit").value)
      << "a give-up past the horizon left the subscriber lagging";
  EXPECT_EQ(m.gauge("pubsub.lagging_subscribers").value, 0.0);
}

// Same shape with a dead ack link instead of a healing partition: the
// post-horizon re-tail is lost the same way, and as a catch-up it does not
// re-tail again, so the run still terminates.
TEST(PubsubCatchupTest, DeadAckLinkPastTheHorizonTerminates) {
  const auto nodes = star_registry();
  const auto updates = regular_trace(kGap, kUpdates);
  EngineConfig cfg = partitioned_config(pubsub::Topic::kDefaultLogCapacity);
  cfg.tail_s = 1.0;
  cfg.fault.partitions.clear();
  // Every server is a direct child of the provider (fan-out 16).
  cfg.fault.link_overrides.push_back(
      {kStranded, net::kProviderNode, 1.0, 0.0, 0.0});
  const auto r = run(nodes, updates, cfg);
  ASSERT_EQ(r->engine->infrastructure().parent_of(kStranded),
            net::kProviderNode);

  EXPECT_EQ(r->engine->recorder(kStranded).current_version(),
            static_cast<std::uint64_t>(kUpdates));
  obs::MetricsRegistry m = r->engine->metrics();
  EXPECT_GT(m.counter("reliable.give_ups").value, 0u);
  // No ack ever returns, so the subscriber ends the run still lagging.
  EXPECT_EQ(m.gauge("pubsub.lagging_subscribers").value, 1.0)
      << "with no ack ever returning the subscriber must stay lagging";
}

TEST(PubsubCatchupTest, PartitionRunsAreByteIdenticalAcrossJobCounts) {
  std::vector<core::BatchJob> jobs;
  for (const std::size_t cap : {pubsub::Topic::kDefaultLogCapacity,
                                std::size_t{2}}) {
    core::BatchJob job;
    core::ScenarioConfig sc;
    sc.server_count = 24;
    sc.seed = 23;
    job.scenario = sc;
    trace::GameTraceConfig game;
    game.bursty = false;
    game.pre_game_s = 10;
    game.periods = 1;
    game.period_s = 100;
    game.break_s = 0;
    game.post_game_s = 30;
    game.in_play_mean_gap_s = 5;
    job.game = game;
    job.engine = partitioned_config(cap);
    // Game updates land in sim t ~ [70, 170] after the trace offset. The
    // seed-23 scenario's multicast tree has two relay edges crossing the
    // ISP pair (6, 1), so that pair is the one worth severing.
    job.engine.fault.partitions[0] = {6, 1, 80.0, 250.0};
    job.label = "partition/log=" + std::to_string(cap);
    jobs.push_back(std::move(job));
  }
  const core::BatchRunner serial({.threads = 1, .master_seed = 3});
  const core::BatchRunner parallel({.threads = 8, .master_seed = 3});
  const auto a = serial.run(jobs);
  const auto b = parallel.run(jobs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(a[i].ok()) << a[i].error;
    ASSERT_TRUE(b[i].ok()) << b[i].error;
    SCOPED_TRACE(jobs[i].label);
    EXPECT_EQ(a[i].sim.server_inconsistency_s, b[i].sim.server_inconsistency_s);
    EXPECT_EQ(a[i].sim.metrics.to_json(), b[i].sim.metrics.to_json());
    obs::MetricsRegistry m = a[i].sim.metrics;
    EXPECT_GT(m.counter("fault.partition_dropped").value, 0u);
  }
}

}  // namespace
}  // namespace cdnsim::consistency
