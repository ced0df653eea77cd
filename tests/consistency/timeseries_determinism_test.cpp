// Decomposition invariance and reconciliation for the engine's time-series
// sampling. Named *ShardPipeline* so the tier-1 TSan stage picks the suite
// up: the sampler interleaves with the sharded driver's epoch loop (barrier
// clamping, closing sample), which is exactly where a data race or a
// decomposition leak would live.
//
// 1. The deterministic timeseries section must be byte-identical across
//    every lane count and every worker count — including the edge grids
//    (sample interval beyond the horizon, samples landing exactly on event
//    times). Classic execution is its own timing domain (no epoch grid —
//    see the auto selection notes in shard_pipeline_equivalence_test.cpp),
//    so the reference is a single sharded lane on one worker, the same
//    contract the tier-1 --shards 1/2/8/auto grid pins on the artifact
//    files.
// 2. Delta-column interval sums must telescope to the final MetricsRegistry
//    counters, and the closing sample must reproduce the end-of-run
//    converged_server_fraction exactly — the contract check_obs.py
//    --timeseries and the ext_convergence_curves shape checks ride on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "consistency/engine.hpp"
#include "consistency/engine_test_util.hpp"
#include "core/simulation.hpp"

namespace cdnsim::consistency {
namespace {

using testutil::base_config;
using testutil::regular_trace;
using testutil::short_game;
using testutil::small_scenario;

fault::FaultPlan nonzero_fault_plan() {
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.loss_probability = 0.05;
  plan.duplicate_probability = 0.02;
  plan.extra_delay_max_s = 0.4;
  return plan;
}

std::string timeseries_json(const topology::NodeRegistry& nodes,
                            const trace::UpdateTrace& updates,
                            EngineConfig config, int shards, int workers) {
  config.shard.shards = shards;
  config.shard.workers = workers;
  const core::SimulationResult r =
      core::run_simulation(nodes, updates, config);
  EXPECT_FALSE(r.timeseries.empty());
  return r.timeseries.deterministic_json();
}

void expect_invariant_across_decompositions(const trace::UpdateTrace& updates,
                                            EngineConfig config) {
  const auto scenario = small_scenario();
  const std::string reference = timeseries_json(
      *scenario.nodes, updates, config, /*shards=*/1, /*workers=*/1);
  for (const int shards : {1, 2, 4}) {
    for (const int workers : {1, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " workers=" + std::to_string(workers));
      EXPECT_EQ(
          timeseries_json(*scenario.nodes, updates, config, shards, workers),
          reference);
    }
  }
}

TEST(TimeSeriesShardPipelineTest, ByteIdenticalAcrossDriversLanesWorkers) {
  EngineConfig config =
      base_config(UpdateMethod::kSelfAdaptive, InfrastructureKind::kUnicast);
  config.fault = nonzero_fault_plan();
  config.reliable.enabled = true;
  config.timeseries_sample_s = 25.0;
  expect_invariant_across_decompositions(short_game(), config);
}

TEST(TimeSeriesShardPipelineTest, IntervalBeyondHorizonYieldsOneClosingRow) {
  // One sample interval longer than the whole run: the only row is the
  // closing sample, and it still must not depend on the decomposition.
  EngineConfig config = base_config(UpdateMethod::kPush);
  config.timeseries_sample_s = 1e6;
  const auto scenario = small_scenario();
  const auto updates = short_game();
  for (const int shards : {0, 1, 2}) {
    config.shard.shards = shards;
    const core::SimulationResult r =
        core::run_simulation(*scenario.nodes, updates, config);
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ASSERT_EQ(r.timeseries.rows.size(), 1u);
    EXPECT_DOUBLE_EQ(r.timeseries.rows[0][0], 1e6);
  }
  expect_invariant_across_decompositions(updates, config);
}

TEST(TimeSeriesShardPipelineTest, EventsExactlyOnTheSampleGrid) {
  // Updates published exactly at t = k * sample_s: sample k covers events
  // strictly before its timestamp, so a grid-aligned publish lands in the
  // *next* interval — on every driver identically.
  EngineConfig config = base_config(UpdateMethod::kTtl);
  config.timeseries_sample_s = 10.0;
  expect_invariant_across_decompositions(regular_trace(10.0, 20), config);
}

TEST(TimeSeriesShardPipelineTest, ZeroUpdateRunStillSamples) {
  EngineConfig config = base_config(UpdateMethod::kInvalidation);
  config.timeseries_sample_s = 50.0;
  const auto scenario = small_scenario();
  const trace::UpdateTrace updates((std::vector<sim::SimTime>{}));
  const core::SimulationResult r =
      core::run_simulation(*scenario.nodes, updates, config);
  ASSERT_FALSE(r.timeseries.empty());
  EXPECT_TRUE(r.timeseries.spans.empty());
  for (std::size_t c = 0; c < r.timeseries.names.size(); ++c) {
    if (r.timeseries.names[c] == "consistency.updates_published") {
      EXPECT_DOUBLE_EQ(r.timeseries.totals[c], 0.0);
    }
  }
}

TEST(TimeSeriesShardPipelineTest, DeltaTotalsReconcileWithFinalCounters) {
  EngineConfig config = base_config(UpdateMethod::kPush);
  config.fault = nonzero_fault_plan();
  config.reliable.enabled = true;
  config.timeseries_sample_s = 30.0;
  const auto scenario = small_scenario();
  const core::SimulationResult r =
      core::run_simulation(*scenario.nodes, short_game(), config);
  const obs::TimeSeriesReport& ts = r.timeseries;

  // Property over every delta column: the per-interval values telescope to
  // the reported total.
  ASSERT_EQ(ts.totals.size(), ts.names.size());
  for (std::size_t c = 0; c < ts.names.size(); ++c) {
    double sum = 0;
    for (const auto& row : ts.rows) sum += row[c + 1];
    if (ts.kinds[c] == obs::SeriesKind::kDelta) {
      EXPECT_DOUBLE_EQ(sum, ts.totals[c]) << ts.names[c];
    } else {
      EXPECT_DOUBLE_EQ(ts.rows.back()[c + 1], ts.totals[c]) << ts.names[c];
    }
  }

  // Spot-check against the final registry: delta columns are named exactly
  // like their counter slots.
  obs::MetricsRegistry m = r.metrics;
  const auto total_of = [&](const std::string& name) {
    for (std::size_t c = 0; c < ts.names.size(); ++c) {
      if (ts.names[c] == name) return ts.totals[c];
    }
    ADD_FAILURE() << "column missing: " << name;
    return -1.0;
  };
  for (const char* name :
       {"engine.user_visits", "fault.messages_dropped", "reliable.retries"}) {
    EXPECT_DOUBLE_EQ(total_of(name),
                     static_cast<double>(m.counter(name).value))
        << name;
  }
}

TEST(TimeSeriesShardPipelineTest, ClosingSampleMatchesConvergedFraction) {
  for (const auto method : {UpdateMethod::kTtl, UpdateMethod::kPush,
                            UpdateMethod::kInvalidation}) {
    EngineConfig config = base_config(method);
    config.fault = nonzero_fault_plan();
    config.timeseries_sample_s = 40.0;
    const auto scenario = small_scenario();
    const core::SimulationResult r =
        core::run_simulation(*scenario.nodes, short_game(), config);
    const obs::TimeSeriesReport& ts = r.timeseries;
    double stale = -1;
    for (std::size_t c = 0; c < ts.names.size(); ++c) {
      if (ts.names[c] == "consistency.stale_replicas") {
        stale = ts.rows.back()[c + 1];
      }
    }
    ASSERT_GE(stale, 0.0);
    // The closing sample lands strictly after the last event, where the
    // latest-published cursor has caught up: the fraction is exact, not
    // approximate.
    EXPECT_DOUBLE_EQ(1.0 - stale / static_cast<double>(ts.replica_count),
                     r.converged_server_fraction);
  }
}

TEST(TimeSeriesShardPipelineTest, SpansAccountForEveryPublishedVersion) {
  EngineConfig config = base_config(UpdateMethod::kPush);
  config.timeseries_sample_s = 25.0;
  const auto scenario = small_scenario();
  const auto updates = short_game();
  const core::SimulationResult r =
      core::run_simulation(*scenario.nodes, updates, config);
  std::uint64_t published = 0;
  std::uint64_t reached_all = 0;
  for (const auto& s : r.timeseries.spans) {
    EXPECT_LE(s.reached_all, s.applied_versions);
    EXPECT_LE(s.applied_versions, s.published);
    published += s.published;
    reached_all += s.reached_all;
  }
  EXPECT_EQ(published, static_cast<std::uint64_t>(updates.update_count()));
  // Lossless push delivers every version to every replica.
  EXPECT_EQ(reached_all, static_cast<std::uint64_t>(updates.update_count()));
}

}  // namespace
}  // namespace cdnsim::consistency
