// Micro-benchmarks (google-benchmark) for the hot substrate paths: the
// event queue, the latency model, the Hilbert encoder, tree construction,
// and a whole small engine run. These bound the cost of scaling the
// simulator toward the paper's 3000-server crawl.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cdn/ring.hpp"
#include "consistency/engine.hpp"
#include "core/catalog_run.hpp"
#include "core/scenario.hpp"
#include "net/latency_model.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "pubsub/pubsub.hpp"
#include "sim/shard_merge.hpp"
#include "sim/simulator.hpp"
#include "trace/update_trace.hpp"
#include "topology/hilbert.hpp"
#include "topology/multicast_tree.hpp"
#include "trace/game_generator.hpp"

namespace {

using namespace cdnsim;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < n; ++i) {
      simulator.at(static_cast<double>((i * 7919) % n), [&sink] { ++sink; });
    }
    simulator.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void BM_HaversineLatency(benchmark::State& state) {
  const net::LatencyModel model(net::LatencyConfig{});
  const net::GeoPoint a{33.75, -84.39};
  const net::GeoPoint b{35.68, 139.69};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.propagation(a, b));
  }
}
BENCHMARK(BM_HaversineLatency);

// A primed site set shaped like the engine's: a provider plus ~1000 servers
// at arbitrary coordinates. The queried pair sits mid-set so the hash path
// (not a lucky first probe) is what gets measured.
std::vector<net::GeoPoint> primed_sites() {
  util::Rng rng(11);
  std::vector<net::GeoPoint> sites;
  sites.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    sites.push_back({rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0)});
  }
  return sites;
}

void BM_HaversineLatencyPrimed(benchmark::State& state) {
  net::LatencyModel model(net::LatencyConfig{});
  const auto sites = primed_sites();
  model.prime(sites);
  const net::GeoPoint a = sites[17];
  const net::GeoPoint b = sites[911];
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.propagation(a, b));
  }
}
BENCHMARK(BM_HaversineLatencyPrimed);

void BM_HaversineLatencyPrimedIndexed(benchmark::State& state) {
  net::LatencyModel model(net::LatencyConfig{});
  model.prime(primed_sites());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.propagation_between(17, 911));
  }
}
BENCHMARK(BM_HaversineLatencyPrimedIndexed);

void BM_HilbertNumber(benchmark::State& state) {
  const net::GeoPoint p{48.86, 2.35};
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::hilbert_number(p, 16));
  }
}
BENCHMARK(BM_HilbertNumber);

void BM_TreeBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::ScenarioConfig sc;
  sc.server_count = n;
  const auto scenario = core::build_scenario(sc);
  for (auto _ : state) {
    topology::MulticastTree tree(*scenario.nodes, 4);
    tree.build(scenario.nodes->server_ids());
    benchmark::DoNotOptimize(tree.max_depth());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TreeBuild)->Arg(170)->Arg(850);

void BM_EngineGameDay(benchmark::State& state) {
  core::ScenarioConfig sc;
  sc.server_count = static_cast<std::size_t>(state.range(0));
  const auto scenario = core::build_scenario(sc);
  trace::GameTraceConfig game_cfg;
  game_cfg.period_s = 600;
  game_cfg.break_s = 200;
  util::Rng rng(3);
  const auto game = trace::generate_game_trace(game_cfg, rng);
  for (auto _ : state) {
    sim::Simulator simulator;
    consistency::EngineConfig ec;
    ec.method.method = consistency::UpdateMethod::kTtl;
    consistency::UpdateEngine engine(simulator, *scenario.nodes, game, ec);
    engine.run();
    benchmark::DoNotOptimize(simulator.events_processed());
    state.counters["events"] = static_cast<double>(simulator.events_processed());
  }
}
BENCHMARK(BM_EngineGameDay)->Arg(50)->Arg(170)->Unit(benchmark::kMillisecond);

// ~100k batched user visits against a sparse trace: the visit walk (not
// update propagation) dominates, so this isolates the sim.visit_batch path
// the batched engine replaced per-visit events with. 1000 users polling
// every 10 s over ~1080 s of simulated time = ~108k visits per iteration.
void BM_VisitBatch(benchmark::State& state) {
  core::ScenarioConfig sc;
  sc.server_count = 100;
  const auto scenario = core::build_scenario(sc);
  const trace::UpdateTrace updates(
      std::vector<sim::SimTime>{100.0, 500.0, 900.0});
  std::uint64_t visits = 0;
  for (auto _ : state) {
    sim::Simulator simulator;
    consistency::EngineConfig ec;
    ec.method.method = consistency::UpdateMethod::kTtl;
    ec.users_per_server = 10;
    ec.user_poll_period_s = 10.0;
    consistency::UpdateEngine engine(simulator, *scenario.nodes, updates, ec);
    engine.run();
    obs::MetricsRegistry m = engine.metrics();  // registry is copyable
    visits = m.counter("engine.user_visits").value;
    benchmark::DoNotOptimize(visits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(visits));
  state.counters["visits"] = static_cast<double>(visits);
}
BENCHMARK(BM_VisitBatch)->Name("visit_batch_100k")->Unit(benchmark::kMillisecond);

// 100k cross-lane messages through the epoch pipeline's staging protocol:
// emit into 8 per-lane rows, flip the generations, and consume the 8 sorted
// per-target columns — the exact per-round sequence the sharded driver runs
// between epochs. Bounds the merge-queue cost of pushing cross-lane traffic
// at thousands-of-servers scale.
void BM_ShardMergeDrain(benchmark::State& state) {
  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kMessages = 100000;
  // One pre-built population, re-emitted every iteration: the queue is the
  // thing under test, not the message construction.
  struct Proto {
    double arrival;
    std::int32_t sender;
    std::uint64_t seq;
    std::uint32_t target;
  };
  std::vector<Proto> protos;
  protos.reserve(kMessages);
  {
    util::Rng rng(0x5A4D);
    std::vector<std::uint64_t> next_seq(64, 0);
    for (std::size_t i = 0; i < kMessages; ++i) {
      const auto sender = static_cast<std::int32_t>(rng.index(64));
      protos.push_back({static_cast<double>(rng.index(32)) * 0.25, sender,
                        next_seq[static_cast<std::size_t>(sender)]++,
                        static_cast<std::uint32_t>(rng.index(kLanes))});
    }
  }
  std::size_t consumed = 0;
  for (auto _ : state) {
    sim::ShardMergeQueue queue(kLanes);
    for (std::size_t i = 0; i < kMessages; ++i) {
      sim::ShardMergeQueue::Message m;
      m.arrival = protos[i].arrival;
      m.sender = protos[i].sender;
      m.seq = protos[i].seq;
      m.target_lane = protos[i].target;
      queue.emit(i % kLanes, std::move(m));
    }
    queue.flip();
    consumed = 0;
    for (std::size_t t = 0; t < kLanes; ++t) {
      consumed += queue.take_incoming(t).size();
    }
    benchmark::DoNotOptimize(consumed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(consumed));
}
BENCHMARK(BM_ShardMergeDrain)
    ->Name("shard_merge_drain_100k")
    ->Unit(benchmark::kMillisecond);

// 100k replica-set lookups on the placement ring (170 servers x 64 vnodes,
// the paper-scale CDN): the per-object cost the catalog layer pays before
// any simulation runs. Bounds placement overhead at million-object scale.
void BM_RingLookup(benchmark::State& state) {
  cdn::ConsistentHashRing ring(64);
  for (topology::NodeId s = 0; s < 170; ++s) ring.add_server(s);
  constexpr std::size_t kLookups = 100000;
  std::size_t sink = 0;
  for (auto _ : state) {
    sink = 0;
    for (std::uint64_t k = 0; k < kLookups; ++k) {
      sink += ring.replicas_for(cdn::object_point(k), 3).size();
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLookups));
}
BENCHMARK(BM_RingLookup)
    ->Name("ring_lookup_100k")
    ->Unit(benchmark::kMillisecond);

// A whole small catalog run: 12 Zipf objects, proportional replication,
// TTL maintenance on 40 servers — the ext_catalog_scale --small workload's
// unit grid point, serial lanes. Bounds the per-grid-point cost of the
// catalog sweeps.
void BM_CatalogSmall(benchmark::State& state) {
  core::ScenarioConfig sc;
  sc.server_count = 40;
  const auto scenario = core::build_scenario(sc);
  trace::GameTraceConfig game_cfg;
  game_cfg.period_s = 600;
  game_cfg.break_s = 200;
  util::Rng rng(3);
  const auto game = trace::generate_game_trace(game_cfg, rng);
  core::CatalogRunConfig cfg;
  cfg.catalog.object_count = 12;
  cfg.catalog.policy = cdn::ReplicaPolicy::kProportional;
  cfg.catalog.replica_budget = 4.0;
  cfg.engine.method.method = consistency::UpdateMethod::kTtl;
  cfg.lanes = 1;
  cfg.threads = 1;
  for (auto _ : state) {
    const auto run = core::run_catalog(*scenario.nodes, game, cfg);
    benchmark::DoNotOptimize(run.events_processed);
    state.counters["events"] = static_cast<double>(run.events_processed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 12);
}
BENCHMARK(BM_CatalogSmall)
    ->Name("catalog_small")
    ->Unit(benchmark::kMillisecond);

// 100k sampler rollups on an engine-shaped column set (~54 series): stage
// every column, then take_sample — the per-interval work sample_timeseries()
// adds on top of the engine's own state scan. Bounds the --timeseries-out
// cost of sampling at second resolution over long horizons.
void BM_TimeSeriesSample(benchmark::State& state) {
  constexpr std::size_t kSamples = 100000;
  std::size_t rows = 0;
  for (auto _ : state) {
    obs::TimeSeries ts(1.0);
    std::vector<obs::SeriesId> deltas;
    std::vector<obs::SeriesId> gauges;
    for (int i = 0; i < 40; ++i) {
      deltas.push_back(ts.add_delta("d" + std::to_string(i)));
    }
    for (int i = 0; i < 14; ++i) {
      gauges.push_back(ts.add_gauge("g" + std::to_string(i)));
    }
    double running = 0;
    for (std::size_t s = 0; s < kSamples; ++s) {
      for (const obs::SeriesId id : deltas) ts.stage(id, running += 1.0);
      for (const obs::SeriesId id : gauges) {
        ts.stage(id, static_cast<double>(s % 7));
      }
      ts.take_sample();
    }
    rows = ts.row_count();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSamples));
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_TimeSeriesSample)
    ->Name("timeseries_sample_100k")
    ->Unit(benchmark::kMillisecond);

// One full fan-out round trip over a million-subscriber topic: publish a
// sequence through the credit-window walker, settle every live delivery,
// then publish again so half the credits are busy and the walker takes the
// suppress-and-mark-lagging path too. Pure pubsub state machine — no events,
// no transport — so this bounds the per-copy bookkeeping cost the delivery
// layer adds at ext_fanout_scale's top count.
void BM_FanoutWalk1M(benchmark::State& state) {
  constexpr std::size_t kSubscribers = 1000000;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    pubsub::Topic topic;
    for (std::size_t i = 0; i < kSubscribers; ++i) {
      topic.add(static_cast<std::int32_t>(i), /*gated=*/false);
    }
    const pubsub::FlowController flow(1);
    pubsub::FanoutStats stats;
    pubsub::Fanout fanout(topic, &flow, stats);
    const auto all = [](const pubsub::Subscriber&) { return true; };
    fanout.publish(1, 0.0, all,
                   [](pubsub::SubscriberId, pubsub::Subscriber&) {});
    // Settle even ids only: update 2 then delivers to half the topic and
    // suppresses the other half (both walker branches stay hot).
    for (pubsub::SubscriberId id = 0; id < kSubscribers; id += 2) {
      fanout.settle(id, 1, /*ok=*/true, /*catch_up=*/false);
    }
    fanout.publish(2, 1.0, all,
                   [](pubsub::SubscriberId, pubsub::Subscriber&) {});
    sink = stats.live_deliveries + stats.suppressed_deliveries;
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sink));
  state.counters["deliveries"] = static_cast<double>(sink);
}
BENCHMARK(BM_FanoutWalk1M)
    ->Name("fanout_1m")
    ->Unit(benchmark::kMillisecond);

// Console output as usual, plus one bench-json record per benchmark run.
class JsonAppendingReporter : public benchmark::ConsoleReporter {
 public:
  JsonAppendingReporter(std::string path, std::string config)
      : path_(std::move(path)), config_(std::move(config)) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double wall_s =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations)
              : 0.0;
      double items_per_s = 0.0;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) items_per_s = static_cast<double>(it->second);
      bench::append_bench_record(path_, run.benchmark_name(), config_, wall_s,
                                 items_per_s);
    }
  }

 private:
  std::string path_;
  std::string config_;
};

}  // namespace

// BENCHMARK_MAIN() plus our own flags, stripped before benchmark::Initialize
// so ReportUnrecognizedArguments does not reject them:
//   --bench-json PATH     append per-benchmark records to PATH (JSON lines)
//   --bench-config LABEL  config tag stored in each record (default "default")
int main(int argc, char** argv) {
  std::string bench_json;
  std::string config = "default";
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench-json" && i + 1 < argc) {
      bench_json = argv[++i];
    } else if (arg.rfind("--bench-json=", 0) == 0) {
      bench_json = arg.substr(std::string("--bench-json=").size());
    } else if (arg == "--bench-config" && i + 1 < argc) {
      config = argv[++i];
    } else if (arg.rfind("--bench-config=", 0) == 0) {
      config = arg.substr(std::string("--bench-config=").size());
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  if (bench_json.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    JsonAppendingReporter reporter(std::move(bench_json), std::move(config));
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  return 0;
}
