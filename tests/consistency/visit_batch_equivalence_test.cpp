// Equivalence battery for batched user-visit processing and intra-run
// sharding.
//
// 1. Batched visits (the default) must be observationally byte-identical to
//    the legacy one-event-per-visit path: same recorder contents, same
//    inconsistency vectors and CDFs, same traffic meter, same counters and
//    histograms. The only sanctioned difference is the sim.* gauge family,
//    which reports the (far fewer) events the batched run actually fires.
//    Checked across all five paper systems, with reliable delivery off and
//    on, under a nonzero fault plan. With a poll log on, the batched run
//    must rebuild the per-visit path's poll log row for row, including
//    under server absences and in the Section 3 study's own shape.
// 2. A sharded run must be a pure function of the simulated history: the
//    full metrics JSON — sim.* gauges included — and every result vector
//    must be byte-identical across shard counts {1, 2, 8} and across
//    worker counts for a fixed shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "consistency/engine.hpp"
#include "consistency/engine_test_util.hpp"
#include "trace/absence.hpp"
#include "util/cdf.hpp"
#include "util/error.hpp"

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
  std::vector<double> cdf_quantiles;
  std::string metrics_json;
};

// Removes the "sim.NAME":VALUE gauge entries (and one adjoining comma) from
// a metrics JSON string. Gauge values are flat numbers, so scanning to the
// next ',' or '}' is exact.
std::string strip_sim_gauges(std::string json) {
  const std::string needle = "\"sim.";
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    std::size_t end = json.find_first_of(",}", pos);
    std::size_t begin = pos;
    if (json[end] == ',') {
      ++end;  // eat the trailing comma
    } else if (begin > 0 && json[begin - 1] == ',') {
      --begin;  // last entry: eat the leading comma instead
    }
    json.erase(begin, end - begin);
  }
  return json;
}

Fingerprint fingerprint(const UpdateEngine& engine) {
  Fingerprint fp;
  fp.server_avg = engine.server_avg_inconsistency();
  fp.user_avg = engine.user_avg_inconsistency();
  fp.per_server_max_user = engine.per_server_max_user_inconsistency();
  fp.observed_fraction = engine.user_observed_inconsistency_fraction();
  util::Cdf cdf(std::vector<double>(fp.server_avg));
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    fp.cdf_quantiles.push_back(cdf.value_at_quantile(q));
  }
  fp.metrics_json = engine.metrics().to_json();
  return fp;
}

// operator== on doubles is bit-exact here (no NaNs in these outputs), which
// is the equivalence the batched path promises.
void expect_identical(const Fingerprint& a, const Fingerprint& b,
                      bool including_sim_gauges) {
  EXPECT_EQ(a.server_avg, b.server_avg);
  EXPECT_EQ(a.user_avg, b.user_avg);
  EXPECT_EQ(a.per_server_max_user, b.per_server_max_user);
  EXPECT_EQ(a.observed_fraction, b.observed_fraction);
  EXPECT_EQ(a.cdf_quantiles, b.cdf_quantiles);
  if (including_sim_gauges) {
    EXPECT_EQ(a.metrics_json, b.metrics_json);
  } else {
    EXPECT_EQ(strip_sim_gauges(a.metrics_json),
              strip_sim_gauges(b.metrics_json));
  }
}

// Poll-log rows with the time as its bit pattern, so equality is bitwise.
using PollRowBits =
    std::tuple<topology::NodeId, std::uint64_t, trace::Version, bool>;

std::vector<PollRowBits> poll_rows(const UpdateEngine& engine) {
  std::vector<PollRowBits> rows;
  for (const auto& o : engine.poll_log().observations()) {
    rows.emplace_back(o.server, std::bit_cast<std::uint64_t>(o.time),
                      o.version, o.answered);
  }
  return rows;
}

// A few absences per server over the run, so the walk records unanswered
// runs and the poll log holds answered=false rows.
std::vector<trace::AbsenceSchedule> random_absences(std::size_t servers) {
  trace::AbsenceConfig config;
  config.absences_per_hour = 4.0;
  util::Rng rng(11);
  std::vector<trace::AbsenceSchedule> out;
  for (std::size_t i = 0; i < servers; ++i) {
    out.push_back(trace::generate_absences(config, 3000.0, rng));
  }
  return out;
}

class VisitBatchEquivalenceTest
    : public ::testing::TestWithParam<System> {};

TEST_P(VisitBatchEquivalenceTest, BatchedMatchesLegacyPerVisitPath) {
  const System& sys = GetParam();
  const auto scenario = small_scenario();
  const auto updates = short_game();
  for (const bool reliable : {false, true}) {
    EngineConfig batched = base_config(sys.method, sys.infra);
    batched.fault = nonzero_fault_plan();
    batched.reliable.enabled = reliable;
    batched.visit_batching = true;
    EngineConfig legacy = batched;
    legacy.visit_batching = false;

    const auto batched_run = run(*scenario.nodes, updates, batched);
    const auto legacy_run = run(*scenario.nodes, updates, legacy);
    SCOPED_TRACE(std::string(sys.name) +
                 (reliable ? " reliable" : " best-effort"));
    expect_identical(fingerprint(*batched_run->engine),
                     fingerprint(*legacy_run->engine),
                     /*including_sim_gauges=*/false);
    // Batching must actually batch: fewer events than one per visit.
    EXPECT_LT(batched_run->engine->events_processed(),
              legacy_run->engine->events_processed());
  }
}

TEST_P(VisitBatchEquivalenceTest, PollLogMatchesLegacyPerVisitPath) {
  const System& sys = GetParam();
  const auto scenario = small_scenario();
  const auto updates = short_game();
  const std::size_t servers = scenario.nodes->server_count();
  for (const bool faulty : {false, true}) {
    EngineConfig batched = base_config(sys.method, sys.infra);
    batched.record_poll_log = true;
    if (faulty) {
      batched.fault = nonzero_fault_plan();
      batched.reliable.enabled = true;
    }
    EngineConfig legacy = batched;
    legacy.visit_batching = false;

    const auto batched_run =
        run(*scenario.nodes, updates, batched, random_absences(servers));
    const auto legacy_run =
        run(*scenario.nodes, updates, legacy, random_absences(servers));
    SCOPED_TRACE(std::string(sys.name) + (faulty ? " faulty" : " clean"));
    const auto rows = poll_rows(*batched_run->engine);
    EXPECT_EQ(rows, poll_rows(*legacy_run->engine));
    EXPECT_TRUE(std::any_of(rows.begin(), rows.end(),
                            [](const auto& r) { return !std::get<3>(r); }))
        << "the absences left no unanswered poll row";
    expect_identical(fingerprint(*batched_run->engine),
                     fingerprint(*legacy_run->engine),
                     /*including_sim_gauges=*/false);
    EXPECT_LT(batched_run->engine->events_processed(),
              legacy_run->engine->events_processed());
  }
}

TEST_P(VisitBatchEquivalenceTest, EpochLengthDoesNotChangeResults) {
  const System& sys = GetParam();
  const auto scenario = small_scenario();
  const auto updates = short_game();
  EngineConfig coarse = base_config(sys.method, sys.infra);
  coarse.visit_batch_epoch_s = 120.0;
  EngineConfig fine = base_config(sys.method, sys.infra);
  fine.visit_batch_epoch_s = 1.5;
  const auto coarse_run = run(*scenario.nodes, updates, coarse);
  const auto fine_run = run(*scenario.nodes, updates, fine);
  SCOPED_TRACE(sys.name);
  // The flush cadence is an execution knob; even the event counts may
  // differ, but every observable result must not.
  expect_identical(fingerprint(*coarse_run->engine),
                   fingerprint(*fine_run->engine),
                   /*including_sim_gauges=*/false);
}

TEST_P(VisitBatchEquivalenceTest, ShardCountDoesNotChangeResults) {
  const System& sys = GetParam();
  const auto scenario = small_scenario();
  const auto updates = short_game();
  Fingerprint reference;
  bool have_reference = false;
  for (const int shards : {1, 2, 8}) {
    EngineConfig ec = base_config(sys.method, sys.infra);
    ec.fault = nonzero_fault_plan();
    ec.shard.shards = shards;
    ec.shard.workers = 2;
    const auto r = run(*scenario.nodes, updates, ec);
    SCOPED_TRACE(std::string(sys.name) + " shards=" + std::to_string(shards));
    const Fingerprint fp = fingerprint(*r->engine);
    if (!have_reference) {
      reference = fp;
      have_reference = true;
    } else {
      expect_identical(reference, fp, /*including_sim_gauges=*/true);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FiveSystems, VisitBatchEquivalenceTest,
                         ::testing::ValuesIn(kSystems),
                         [](const auto& info) { return info.param.name; });

// The Section 3 study's engine shape: TTL 60 s, one observer per server
// polling every 10 s, a poll log and no user logs. A zero start window makes
// every observer poll at the same instants, so the log's order among equal
// times (server id, as the per-visit path's timers fired) is checked too.
TEST(VisitBatchPollLogTest, MeasurementStudyShapeMatchesLegacyPerVisitPath) {
  const auto scenario = small_scenario();
  const auto updates = short_game();
  const std::size_t servers = scenario.nodes->server_count();
  for (const double start_window_s : {10.0, 0.0}) {
    EngineConfig batched = base_config(UpdateMethod::kTtl);
    batched.method.server_ttl_s = 60.0;
    batched.users_per_server = 1;
    batched.user_poll_period_s = 10.0;
    batched.user_start_window_s = start_window_s;
    batched.tail_s = 60.0;
    batched.record_poll_log = true;
    batched.record_user_logs = false;
    EngineConfig legacy = batched;
    legacy.visit_batching = false;
    const auto batched_run =
        run(*scenario.nodes, updates, batched, random_absences(servers));
    const auto legacy_run =
        run(*scenario.nodes, updates, legacy, random_absences(servers));
    SCOPED_TRACE("start window " + std::to_string(start_window_s));
    EXPECT_EQ(poll_rows(*batched_run->engine), poll_rows(*legacy_run->engine));
    EXPECT_EQ(batched_run->engine->server_avg_inconsistency(),
              legacy_run->engine->server_avg_inconsistency());
    EXPECT_EQ(strip_sim_gauges(batched_run->engine->metrics().to_json()),
              strip_sim_gauges(legacy_run->engine->metrics().to_json()));
    EXPECT_LT(batched_run->engine->events_processed(),
              legacy_run->engine->events_processed());
  }
}

// Poll rows written during the run come from every lane into one log, so
// sharding rejects a poll log: auto resolves to classic, and an explicit
// lane count fails construction.
TEST(VisitBatchShardingTest, PollLogRejectsExplicitSharding) {
  const auto scenario = small_scenario();
  const auto updates = short_game();
  EngineConfig ec = base_config(UpdateMethod::kTtl);
  ec.record_poll_log = true;
  ec.shard.shards = EngineConfig::ShardConfig::kAuto;
  EXPECT_EQ(resolved_shard_count(ec, scenario.nodes->server_count(), 4), 0);
  ec.shard.shards = 2;
  sim::Simulator simulator;
  EXPECT_THROW(UpdateEngine(simulator, *scenario.nodes, updates, ec),
               cdnsim::PreconditionError);
}

TEST(VisitBatchShardingTest, WorkerCountDoesNotChangeResults) {
  const auto scenario = small_scenario();
  const auto updates = short_game();
  Fingerprint reference;
  bool have_reference = false;
  for (const int workers : {1, 4, 8}) {
    EngineConfig ec = base_config(UpdateMethod::kSelfAdaptive,
                                  InfrastructureKind::kHybridSupernode);
    ec.fault = nonzero_fault_plan();
    ec.reliable.enabled = true;
    ec.shard.shards = 4;
    ec.shard.workers = workers;
    const auto r = run(*scenario.nodes, updates, ec);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const Fingerprint fp = fingerprint(*r->engine);
    if (!have_reference) {
      reference = fp;
      have_reference = true;
    } else {
      expect_identical(reference, fp, /*including_sim_gauges=*/true);
    }
  }
}

TEST(VisitBatchShardingTest, ShardCountClampsToServerCount) {
  const auto scenario = small_scenario(3, 42);
  const auto updates = testutil::regular_trace(25.0, 8);
  EngineConfig wide = base_config(UpdateMethod::kTtl);
  wide.shard.shards = 64;  // clamped to the 3 servers
  EngineConfig narrow = base_config(UpdateMethod::kTtl);
  narrow.shard.shards = 2;
  const auto wide_run = run(*scenario.nodes, updates, wide);
  const auto narrow_run = run(*scenario.nodes, updates, narrow);
  expect_identical(fingerprint(*wide_run->engine),
                   fingerprint(*narrow_run->engine),
                   /*including_sim_gauges=*/true);
}

TEST(VisitBatchShardingTest, RepeatedShardedRunsAreDeterministic) {
  const auto scenario = small_scenario();
  const auto updates = short_game();
  EngineConfig ec = base_config(UpdateMethod::kInvalidation);
  ec.fault = nonzero_fault_plan();
  ec.shard.shards = 8;
  const auto first = run(*scenario.nodes, updates, ec);
  const auto second = run(*scenario.nodes, updates, ec);
  expect_identical(fingerprint(*first->engine), fingerprint(*second->engine),
                   /*including_sim_gauges=*/true);
}

}  // namespace
}  // namespace cdnsim::consistency
