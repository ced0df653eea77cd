// cdnsim_bench: the repo benchmark's driver (benchmark/README.md).
//
//   cdnsim_bench run   --workload W --seed N [--smoke]
//   cdnsim_bench trace --workload W --seed N --job J [--smoke]
//
// `run` is one untraced repeat, meant to be a fresh process: it builds the
// workload's inputs from the seed (timed repeatedly: setup_s), runs one pass
// of the job list through the library's entry point (BatchRunner::run, or
// run_measurement_study per day: run_s), checks every output and hashes it.
// `trace` re-executes job J through the public call into each layer, timing
// each call, between two untraced executions of the same job (a warm-up and
// the overhead reference) whose output must equal the traced one. For the
// measurement study, job J is its game day rebuilt from public calls, and
// the untraced executions are the library's own run_measurement_study.
//
// Each invocation prints one JSON object on stdout; benchmark/run.py
// aggregates them.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/inconsistency.hpp"
#include "analysis/timesync.hpp"
#include "consistency/engine.hpp"
#include "consistency/infrastructure.hpp"
#include "core/batch_runner.hpp"
#include "core/measurement_study.hpp"
#include "core/scenario.hpp"
#include "net/latency_model.hpp"
#include "obs/timeseries.hpp"
#include "topology/cluster.hpp"
#include "trace/absence.hpp"
#include "trace/game_generator.hpp"
#include "trace/visit_schedule.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace cdnsim;
using consistency::EngineConfig;
using consistency::InfrastructureKind;
using consistency::UpdateMethod;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Set-up takes well under a millisecond to a few milliseconds, so one
// process times it repeatedly and reports every sample; run.py takes the
// median.
constexpr std::size_t kSetupRepeats = 5;
constexpr double kSetupMinSeconds = 0.2;

// ---------------------------------------------------------------------------
// Host-speed probe
// ---------------------------------------------------------------------------

/// The probe's median duration on the reference host (4-core x86-64, quiet).
constexpr double kProbeReferenceSeconds = 0.08;

volatile double probe_sink = 0;  // keeps the probe's loop from being elided

/// Fixed work that depends on nothing in the library: a hold model on a
/// binary heap (200k live entries, 600k pop+push pairs), the shape of the
/// simulator's event queue. On a shared VM the host's speed drifts by
/// 10-60 % over minutes; the probe drifts with it, so time divided by the
/// probe's time stays steady while raw time does not.
double probe_seconds() {
  const auto t0 = Clock::now();
  std::priority_queue<double, std::vector<double>, std::greater<>> heap;
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x % 1000) * 0.01;
  };
  for (int i = 0; i < 200000; ++i) heap.push(next());
  double now = 0;
  for (int i = 0; i < 600000; ++i) {
    now = heap.top();
    heap.pop();
    heap.push(now + next());
  }
  const double elapsed = since(t0);
  probe_sink = now;
  return elapsed;
}

// ---------------------------------------------------------------------------
// Seeds: every input is derived from --seed through util::substream_seed,
// one stream per input kind.
// ---------------------------------------------------------------------------

enum Stream : std::uint64_t { kGameStream = 1, kScenarioStream, kEngineStream };

std::uint64_t derive(std::uint64_t seed, Stream stream, std::uint64_t index) {
  return util::substream_seed(util::substream_seed(seed, stream), index);
}

// ---------------------------------------------------------------------------
// Output hashing and validity
// ---------------------------------------------------------------------------

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ull;
    }
  }
  void str(const std::string& s) { bytes(s.data(), s.size()); }
  void num(double x) { bytes(&x, sizeof x); }
  void nums(const std::vector<double>& xs) {
    bytes(xs.data(), xs.size() * sizeof(double));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

bool bad_value(double x) { return !std::isfinite(x) || x < 0; }

bool any_bad(const std::vector<double>& xs) {
  for (double x : xs) {
    if (bad_value(x)) return true;
  }
  return false;
}

/// Hash of one grid job's outputs: its metrics JSON and result doubles.
std::string digest_of(const core::SimulationResult& r) {
  Fnv1a h;
  h.str(r.metrics.to_json());
  h.nums(r.server_inconsistency_s);
  h.nums(r.user_inconsistency_s);
  h.nums(r.per_server_max_user_inconsistency_s);
  h.num(r.avg_server_inconsistency_s);
  h.num(r.avg_user_inconsistency_s);
  h.num(r.user_observed_inconsistency_fraction);
  h.num(r.converged_server_fraction);
  h.num(r.simulated_time_s);
  const auto events = r.events_processed;
  h.bytes(&events, sizeof events);
  return h.hex();
}

/// Validity of one grid job; an empty string means valid.
std::string problem_of(const core::SimulationResult& r) {
  if (any_bad(r.server_inconsistency_s) || any_bad(r.user_inconsistency_s) ||
      any_bad(r.per_server_max_user_inconsistency_s) ||
      bad_value(r.avg_server_inconsistency_s) ||
      bad_value(r.avg_user_inconsistency_s) ||
      bad_value(r.user_observed_inconsistency_fraction) ||
      bad_value(r.simulated_time_s)) {
    return "non-finite or negative result";
  }
  if (r.converged_server_fraction != 1.0) {
    return "converged_server_fraction " +
           std::to_string(r.converged_server_fraction) + " != 1";
  }
  obs::MetricsRegistry m = r.metrics;  // counter() is non-const
  if (m.counter("pubsub.lagging_enter").value !=
          m.counter("pubsub.lagging_exit").value ||
      m.gauge("pubsub.lagging_subscribers").value != 0) {
    return "pub/sub lagging subscribers left at end of run";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Minimal JSON writing
// ---------------------------------------------------------------------------

std::string quoted(const std::string& s) { return "\"" + obs::json_escape(s) + "\""; }

std::string number(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

template <class T, class F>
std::string array(const std::vector<T>& xs, F&& f) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ",";
    out += f(xs[i]);
  }
  return out + "]";
}

std::string object(const std::map<std::string, double>& kv) {
  std::string out = "{";
  for (const auto& [k, v] : kv) {
    if (out.size() > 1) out += ",";
    out += quoted(k) + ":" + number(v);
  }
  return out + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct JobSpec {
  std::size_t servers;
  EngineConfig engine;
  std::string label;
};

/// A grid workload: a job list run on a 1-thread BatchRunner.
struct GridSpec {
  trace::GameTraceConfig game;
  std::vector<JobSpec> jobs;
};

const char* method_name(UpdateMethod m) {
  switch (m) {
    case UpdateMethod::kPush: return "Push";
    case UpdateMethod::kInvalidation: return "Invalidation";
    default: return "TTL";
  }
}

const char* infra_name(InfrastructureKind k) {
  switch (k) {
    case InfrastructureKind::kUnicast: return "unicast";
    case InfrastructureKind::kMulticastTree: return "multicast";
    default: return "hybrid";
  }
}

/// fig20's Section 4 settings (bench/bench_evaluation.hpp section4_config
/// plus fig20's 100 KB updates over 12,500 KB/s uplinks).
EngineConfig section4(UpdateMethod method, InfrastructureKind infra) {
  EngineConfig ec;
  ec.method.method = method;
  ec.method.server_ttl_s = 10.0;
  ec.infrastructure.kind = infra;
  ec.infrastructure.tree_fanout = 2;
  ec.infrastructure.cluster_count = 20;
  ec.infrastructure.supernode_fanout = 4;
  ec.users_per_server = 5;
  ec.user_poll_period_s = 10.0;
  ec.update_packet_kb = 100.0;
  ec.provider_uplink_kbps = 12500.0;
  ec.server_uplink_kbps = 12500.0;
  // The default 120 s tail let polling stop before the last version reached
  // the deepest TTL replicas of a multicast tree (depth x 10 s TTL) on 4 of
  // seeds 1-60; with 300 s every job converges on seeds 1-100.
  ec.tail_s = 300.0;
  return ec;
}

/// Section 4's non-bursty game (individually delivered updates ~24.5 s
/// apart) with the play periods and the break cut to a quarter: a pass of
/// each grid workload then takes about 3 s, so one benchmark run holds
/// enough fresh-process repeats for a steady median on a noisy host. The
/// update regime, and so each method's behaviour, is unchanged.
trace::GameTraceConfig section4_game(bool smoke) {
  trace::GameTraceConfig g;
  g.bursty = false;
  g.period_s = smoke ? 300 : 945;
  g.break_s = smoke ? 60 : 225;
  return g;
}

void add_job(GridSpec& spec, std::size_t servers, EngineConfig ec) {
  const std::string label = std::string(infra_name(ec.infrastructure.kind)) +
                            "/" + std::to_string(servers) + "/" +
                            method_name(ec.method.method);
  spec.jobs.push_back({servers, std::move(ec), label});
}

// The Fig. 20 grid: {unicast, multicast d=2} x {Push, Invalidation, TTL} x
// the paper's network sizes, classic driver, one thread.
GridSpec section4_grid(bool smoke) {
  GridSpec spec;
  spec.game = section4_game(smoke);
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{40, 80}
            : std::vector<std::size_t>{170, 340, 510, 680, 850};
  for (auto infra : {InfrastructureKind::kUnicast, InfrastructureKind::kMulticastTree}) {
    for (std::size_t n : sizes) {
      for (auto m : {UpdateMethod::kPush, UpdateMethod::kInvalidation,
                     UpdateMethod::kTtl}) {
        EngineConfig ec = section4(m, infra);
        ec.shard.shards = 0;
        add_job(spec, n, ec);
      }
    }
  }
  return spec;
}

// fig20 --large's third size (3x the paper's largest network) at one user
// per server: tree and hybrid fan-out on the sharded driver with 4 lanes and
// 4 workers. The only multi-lane workload, and the one where the engine's
// O(n^2) construction (tree build, latency-matrix priming) is a large share.
GridSpec large_multicast(bool smoke) {
  GridSpec spec;
  spec.game = section4_game(smoke);
  const std::size_t n = smoke ? 200 : 2550;
  for (auto infra :
       {InfrastructureKind::kMulticastTree, InfrastructureKind::kHybridSupernode}) {
    for (auto m : {UpdateMethod::kPush, UpdateMethod::kInvalidation}) {
      EngineConfig ec = section4(m, infra);
      ec.users_per_server = 1;
      ec.shard.shards = 4;
      ec.shard.workers = 4;
      add_job(spec, n, ec);
    }
  }
  return spec;
}

// Hard-state methods over a 15 %-loss network with reliable delivery and
// pub/sub flow control, on the lane driver with one lane: retransmits,
// cancelled ack timers, suppressed and catch-up deliveries.
GridSpec lossy_reliable(bool smoke) {
  GridSpec spec;
  spec.game = section4_game(smoke);
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{60} : std::vector<std::size_t>{340, 680};
  for (auto infra : {InfrastructureKind::kUnicast, InfrastructureKind::kMulticastTree,
                     InfrastructureKind::kHybridSupernode}) {
    for (auto m : {UpdateMethod::kPush, UpdateMethod::kInvalidation}) {
      for (std::size_t n : sizes) {
        EngineConfig ec = section4(m, infra);
        ec.update_packet_kb = 1.0;
        ec.provider_uplink_kbps = 2500.0;
        ec.server_uplink_kbps = 2500.0;
        ec.fault.enabled = true;
        ec.fault.loss_probability = 0.15;
        ec.reliable.enabled = true;
        // Constant 2 s ack timeouts with 16 retries, so every job converges
        // on every seed tried (1-100). With doubling timeouts, 4 retries
        // failed a check on 1 of seeds 1-10 and 8 retries on 3 of seeds
        // 1-60: a last notice retried past the horizon, after which no user
        // visit fetches it, or a give-up left a pub/sub subscriber lagging.
        ec.reliable.ack_timeout_s = 2.0;
        ec.reliable.backoff_factor = 1.0;
        ec.reliable.max_retries = 16;
        ec.pubsub.flow_window = 4;
        ec.shard.shards = 1;
        ec.shard.workers = 1;
        add_job(spec, n, ec);
      }
    }
  }
  return spec;
}

// The Section 3 study: classic driver on the per-visit path with a poll log
// and absences, then the full analysis. One 600-server CDN measured on two
// game days, one single-day study call per day, so each day is a job timed
// on its own.
std::vector<core::MeasurementConfig> measurement_study(std::uint64_t seed, bool smoke) {
  std::vector<core::MeasurementConfig> days(smoke ? 1 : 2);
  for (std::size_t j = 0; j < days.size(); ++j) {
    core::MeasurementConfig& cfg = days[j];
    cfg.scenario.server_count = smoke ? 60 : 600;
    cfg.scenario.seed = derive(seed, kScenarioStream, cfg.scenario.server_count);
    cfg.days = 1;
    if (smoke) {
      cfg.game.period_s = 300;
      cfg.game.break_s = 60;
    }
    cfg.threads = 1;
    cfg.seed = derive(seed, kEngineStream, j);
  }
  return days;
}

bool is_grid(const std::string& workload) { return workload != "measurement_study"; }

GridSpec grid_spec(const std::string& workload, bool smoke) {
  if (workload == "section4_grid") return section4_grid(smoke);
  if (workload == "large_multicast") return large_multicast(smoke);
  if (workload == "lossy_reliable") return lossy_reliable(smoke);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

// ---------------------------------------------------------------------------
// Grid inputs (the set-up that setup_s times)
// ---------------------------------------------------------------------------

/// Every job has its own CDN placement and game trace, so a seed's inputs
/// vary independently across the job list and the pass time varies less
/// from seed to seed than with one shared input.
struct GridInputs {
  std::vector<core::Scenario> scenarios;  // one per job
  std::vector<trace::UpdateTrace> games;  // one per job
  std::vector<core::BatchJob> jobs;       // borrow `scenarios` and `games`
};

core::Scenario scenario(const GridSpec& spec, std::uint64_t seed, std::size_t j) {
  core::ScenarioConfig sc;
  sc.server_count = spec.jobs[j].servers;
  sc.seed = derive(seed, kScenarioStream, j);
  return core::build_scenario(sc);
}

trace::UpdateTrace game_trace(const GridSpec& spec, std::uint64_t seed, std::size_t j) {
  util::Rng rng(derive(seed, kGameStream, j));
  return trace::generate_game_trace(spec.game, rng);
}

EngineConfig job_engine(const GridSpec& spec, std::uint64_t seed, std::size_t j) {
  EngineConfig ec = spec.jobs[j].engine;
  ec.seed = derive(seed, kEngineStream, j);
  return ec;
}

// Heap-allocated: the jobs point into the struct, so it must not move.
std::unique_ptr<GridInputs> build_inputs(const GridSpec& spec, std::uint64_t seed) {
  auto in = std::make_unique<GridInputs>();
  in->scenarios.reserve(spec.jobs.size());
  in->games.reserve(spec.jobs.size());
  for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
    in->scenarios.push_back(scenario(spec, seed, j));
    in->games.push_back(game_trace(spec, seed, j));
  }
  for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
    core::BatchJob job;
    job.shared_nodes = in->scenarios[j].nodes.get();
    job.shared_trace = &in->games[j];
    job.engine = job_engine(spec, seed, j);
    job.label = spec.jobs[j].label;
    in->jobs.push_back(std::move(job));
  }
  return in;
}

// ---------------------------------------------------------------------------
// `run`: one untraced repeat
// ---------------------------------------------------------------------------

struct RunReport {
  std::vector<double> probe_s;  // host-speed probe, around the timed work
  std::vector<double> setup_s;
  double run_s = 0;         // wall of the pass
  double server_hours = 0;  // servers x simulated hours, summed over jobs
  std::vector<std::string> problems;  // one per failed job
  std::vector<std::string> job_digests;

  void check(const std::string& label, const std::string& digest,
             const std::string& problem) {
    job_digests.push_back(digest);
    if (!problem.empty()) problems.push_back(label + ": " + problem);
  }
};

/// Times `setup` at least kSetupRepeats times and for at least
/// kSetupMinSeconds, so the median is taken over enough samples.
template <class F>
void time_setup(RunReport& rep, F&& setup) {
  const auto start = Clock::now();
  while (rep.setup_s.size() < kSetupRepeats || since(start) < kSetupMinSeconds) {
    const auto t0 = Clock::now();
    setup();
    rep.setup_s.push_back(since(t0));
  }
}

/// Times the probe twice before the set-up and twice after the pass.
template <class F>
RunReport probed(F&& work) {
  RunReport rep;
  for (int k = 0; k < 2; ++k) rep.probe_s.push_back(probe_seconds());
  work(rep);
  for (int k = 0; k < 2; ++k) rep.probe_s.push_back(probe_seconds());
  return rep;
}

void run_grid(const GridSpec& spec, std::uint64_t seed, RunReport& rep) {
  std::unique_ptr<GridInputs> in;
  time_setup(rep, [&] {
    in.reset();
    in = build_inputs(spec, seed);
  });
  const core::BatchRunner runner({.threads = 1});
  const auto t0 = Clock::now();
  const std::vector<core::BatchResult> results = runner.run(in->jobs);
  rep.run_s = since(t0);
  for (std::size_t j = 0; j < results.size(); ++j) {
    const core::BatchResult& r = results[j];
    if (!r.ok()) {
      rep.check(r.label, "", "threw: " + r.error);
      continue;
    }
    rep.check(r.label, digest_of(r.sim), problem_of(r.sim));
    rep.server_hours +=
        static_cast<double>(spec.jobs[j].servers) * r.sim.simulated_time_s / 3600.0;
  }
}

void run_study(const std::vector<core::MeasurementConfig>& days, RunReport& rep) {
  // The study builds its own CDN inside the call; the benchmark's set-up is
  // the same CDN, built to state the workload size and check the per-server
  // outputs against.
  std::size_t servers = 0;
  time_setup(rep, [&] {
    servers = core::build_scenario(days.front().scenario).nodes->server_count();
  });
  const auto t0 = Clock::now();
  for (std::size_t j = 0; j < days.size(); ++j) {
    const std::string label = "study/day" + std::to_string(j);
    core::MeasurementResults res;
    std::string problem;
    try {
      res = core::run_measurement_study(days[j]);
    } catch (const std::exception& e) {
      problem = std::string("threw: ") + e.what();
    }
    if (!problem.empty()) {
      rep.check(label, "", problem);
      continue;
    }
    if (res.total_requests == 0 || bad_value(res.overall_avg_request_inconsistency)) {
      problem = "no requests or a non-finite average";
    } else if (res.daily_inconsistent_server_fraction.size() != 1 ||
               res.daily_server_avg.size() != 1) {
      problem = "results for " + std::to_string(res.daily_server_avg.size()) +
                " days, expected 1";
    } else if (res.daily_server_avg.front().size() != servers) {
      problem = "per-server averages for " +
                std::to_string(res.daily_server_avg.front().size()) + " servers, expected " +
                std::to_string(servers);
    } else if (const double f = res.daily_inconsistent_server_fraction.front();
               !(f >= 0 && f <= 1)) {
      problem = "daily inconsistent fraction " + std::to_string(f) + " outside [0, 1]";
    }
    Fnv1a h;
    h.str(res.metrics.to_json());
    h.nums(res.daily_inconsistent_server_fraction);
    h.nums(res.request_inconsistency);
    h.num(res.overall_avg_request_inconsistency);
    h.bytes(&res.total_requests, sizeof res.total_requests);
    for (const auto& e : res.absence_events) {
      h.num(e.absence_length);
      h.num(e.inconsistency_after_return);
    }
    rep.check(label, h.hex(), problem);
    rep.server_hours += static_cast<double>(servers) *
                        res.metrics.gauge("sim.end_time_s").value / 3600.0;
  }
  rep.run_s = since(t0);
}

void print_run(const std::string& workload, std::uint64_t seed, const RunReport& rep) {
  std::cout << "{\"mode\":\"run\",\"workload\":" << quoted(workload)
            << ",\"seed\":" << seed << ",\"attempted\":" << rep.job_digests.size()
            << ",\"failed\":" << rep.problems.size()
            << ",\"problems\":" << array(rep.problems, quoted)
            << ",\"probe_s\":" << array(rep.probe_s, number)
            << ",\"probe_reference_s\":" << number(kProbeReferenceSeconds)
            << ",\"setup_s\":" << array(rep.setup_s, number)
            << ",\"run_s\":" << number(rep.run_s)
            << ",\"server_hours\":" << number(rep.server_hours)
            << ",\"peak_rss_mb\":" << number(peak_rss_mb())
            << ",\"job_digests\":" << array(rep.job_digests, quoted) << "}\n";
}

// ---------------------------------------------------------------------------
// `trace`: one job through the public call into each layer
// ---------------------------------------------------------------------------

/// Accumulates wall time per layer name around public calls.
class Spans {
 public:
  template <class F>
  decltype(auto) time(const std::string& layer, F&& f) {
    const Stop stop{layers_[layer], Clock::now()};
    return f();
  }

  const std::map<std::string, double>& layers() const { return layers_; }

 private:
  struct Stop {
    double& slot;
    Clock::time_point t0;
    ~Stop() { slot += since(t0); }
  };
  std::map<std::string, double> layers_;
};

struct TraceReport {
  std::string label;
  std::size_t jobs = 0;
  double wall_traced = 0;
  double wall_untraced = 0;
  /// Traced time spent in standalone re-runs of work the engine also does
  /// internally (infrastructure and visit-schedule builds): excluded from
  /// the overhead comparison, included in the layer sum.
  double standalone_s = 0;
  std::map<std::string, double> layers;  // top-level calls: sum to the wall
  std::map<std::string, double> waits;   // host time inside one of the layers
  std::map<std::string, double> counts;  // deterministic: equal on every run
  std::string digest_traced;
  std::string digest_untraced;
  std::string problem;
};

/// run_simulation's result assembly, from the engine's public getters.
core::SimulationResult assemble(consistency::UpdateEngine& engine,
                                std::size_t servers, const trace::UpdateTrace& game) {
  core::SimulationResult r;
  r.server_inconsistency_s = engine.server_avg_inconsistency();
  r.user_inconsistency_s = engine.user_avg_inconsistency();
  r.per_server_max_user_inconsistency_s =
      engine.per_server_max_user_inconsistency(r.user_inconsistency_s);
  r.avg_server_inconsistency_s = util::mean(r.server_inconsistency_s);
  r.avg_user_inconsistency_s = util::mean(r.user_inconsistency_s);
  r.user_observed_inconsistency_fraction = engine.user_observed_inconsistency_fraction();
  r.events_processed = engine.events_processed();
  r.simulated_time_s = engine.final_time();
  std::size_t converged = 0;
  for (std::size_t s = 0; s < servers; ++s) {
    if (engine.recorder(static_cast<topology::NodeId>(s)).current_version() ==
        game.update_count()) {
      ++converged;
    }
  }
  r.converged_server_fraction =
      servers == 0 ? 0.0 : static_cast<double>(converged) / static_cast<double>(servers);
  r.metrics = engine.metrics();
  return r;
}

void count_engine_metrics(const obs::MetricsRegistry& metrics,
                          std::map<std::string, double>& counts) {
  obs::MetricsRegistry m = metrics;
  for (const char* g : {"sim.events_fired", "sim.events_scheduled",
                        "sim.events_cancelled", "net.messages_update",
                        "net.messages_light"}) {
    counts[g] = m.gauge(g).value;
  }
  for (const char* c : {"fault.messages_dropped", "reliable.retries",
                        "pubsub.live_deliveries", "pubsub.suppressed_deliveries",
                        "pubsub.catch_up_messages"}) {
    counts[c] = static_cast<double>(m.counter(c).value);
  }
}

void traced_grid_job(const GridSpec& spec, std::uint64_t seed, std::size_t j,
                     TraceReport& rep) {
  Spans sp;
  const JobSpec& js = spec.jobs[j];
  const auto t0 = Clock::now();
  const core::Scenario cdn =
      sp.time("core.build_scenario_s", [&] { return scenario(spec, seed, j); });
  const topology::NodeRegistry& nodes = *cdn.nodes;
  const trace::UpdateTrace game =
      sp.time("trace.generate_game_trace_s", [&] { return game_trace(spec, seed, j); });
  EngineConfig ec = job_engine(spec, seed, j);

  // Standalone re-runs of the two builds the engine does internally, with
  // this job's inputs, so their cost shows as a layer of its own.
  const auto s0 = Clock::now();
  sp.time("topology.build_infrastructure_s", [&] {
    util::Rng rng(ec.seed);
    return consistency::build_infrastructure(nodes, ec.infrastructure, ec.method, rng);
  });
  const double horizon = ec.trace_offset_s + game.duration() + ec.tail_s;
  const std::size_t visits = sp.time("trace.build_visit_schedule_s", [&] {
    util::Rng rng(ec.seed);
    return trace::build_visit_schedule(js.servers, ec.users_per_server,
                                       ec.user_poll_period_s, ec.user_start_window_s,
                                       horizon, rng)
        .total_visits;
  });
  rep.standalone_s = since(s0);
  rep.counts["trace.visits"] = static_cast<double>(visits);

  const bool sharded = consistency::resolved_shard_count(ec, js.servers) > 0;
  // Sharded: one time-series sample past the horizon yields the driver's
  // shard-health record (barrier wait, per-lane events) for the whole run.
  obs::TimeSeries ts(10.0 * horizon);
  if (sharded) {
    ec.timeseries_sample_s = 10.0 * horizon;
    ec.timeseries = &ts;
  }
  sim::Simulator simulator;
  auto engine = sp.time("engine.construct_s", [&] {
    return std::make_unique<consistency::UpdateEngine>(simulator, nodes, game, ec);
  });
  if (sharded) {
    sp.time("engine.run_s", [&] { engine->run(); });
  } else {
    sp.time("engine.prepare_s", [&] { engine->prepare(); });
    sp.time("sim.run_s", [&] { simulator.run(); });
    sp.time("engine.publish_s", [&] { engine->publish_run_stats(); });
  }
  const core::SimulationResult result = sp.time(
      "engine.results_s", [&] { return assemble(*engine, js.servers, game); });
  sp.time("engine.teardown_s", [&] { engine.reset(); });
  rep.wall_traced = since(t0);
  rep.layers = sp.layers();

  rep.digest_traced = digest_of(result);
  rep.problem = problem_of(result);
  count_engine_metrics(result.metrics, rep.counts);
  if (sharded) {
    const obs::TimeSeriesReport tsr = ts.report();
    if (!tsr.shard_samples.empty()) {
      const auto& last = tsr.shard_samples.back();
      rep.waits["shard.barrier_wait_s"] =
          static_cast<double>(last.barrier_wait_ns) * 1e-9;
      std::uint64_t total = 0, peak = 0;
      for (std::uint64_t e : last.lane_events) {
        total += e;
        peak = std::max(peak, e);
      }
      rep.counts["shard.lane_imbalance"] =
          total == 0 ? 0.0
                     : static_cast<double>(peak) *
                           static_cast<double>(last.lane_events.size()) /
                           static_cast<double>(total);
    }
  }
}

void untraced_grid_job(const GridSpec& spec, std::uint64_t seed, std::size_t j,
                       TraceReport& rep) {
  const auto t0 = Clock::now();
  const core::Scenario cdn = scenario(spec, seed, j);
  const trace::UpdateTrace game = game_trace(spec, seed, j);
  core::BatchJob job;
  job.shared_nodes = cdn.nodes.get();
  job.shared_trace = &game;
  job.engine = job_engine(spec, seed, j);
  const core::BatchResult r = core::BatchRunner::run_job(job, 42, 0);
  rep.wall_untraced = since(t0);
  rep.digest_untraced = r.ok() ? digest_of(r.sim) : "";
  if (!r.ok()) rep.problem = "threw: " + r.error;
}

/// What one game day of the study yields, in the form a single-day
/// run_measurement_study reports it.
struct StudyDay {
  std::string metrics_json;
  std::vector<double> server_avg;
  std::vector<double> cluster_avg;    // per geo cluster
  std::vector<double> inner_lengths;  // inner-cluster, positive only
  std::vector<double> intra_lengths;  // pooled in ISP-cluster order
  std::vector<double> inter_means;    // per ISP cluster
  double fraction = 0;
  std::vector<analysis::AbsenceEvent> absences;
};

std::string digest_of(const StudyDay& d) {
  Fnv1a h;
  h.str(d.metrics_json);
  h.nums(d.server_avg);
  h.nums(d.cluster_avg);
  h.nums(d.inner_lengths);
  h.nums(d.intra_lengths);
  h.nums(d.inter_means);
  h.num(d.fraction);
  for (const auto& e : d.absences) {
    h.num(e.return_time);
    h.num(e.absence_length);
    h.num(e.inconsistency_after_return);
  }
  return h.hex();
}

/// The first output in which the rebuilt day differs from the library's
/// study of the same day; empty when they agree.
std::string study_mismatch(const StudyDay& rebuilt, const StudyDay& library) {
  const auto same_event = [](const analysis::AbsenceEvent& a,
                             const analysis::AbsenceEvent& b) {
    return a.server == b.server && a.return_time == b.return_time &&
           a.absence_length == b.absence_length &&
           a.inconsistency_after_return == b.inconsistency_after_return;
  };
  if (rebuilt.metrics_json != library.metrics_json) return "metrics JSON";
  if (rebuilt.server_avg != library.server_avg) return "per-server averages";
  if (rebuilt.cluster_avg != library.cluster_avg) return "geo-cluster averages";
  if (rebuilt.inner_lengths != library.inner_lengths) return "inner-cluster lengths";
  if (rebuilt.intra_lengths != library.intra_lengths) return "intra-ISP lengths";
  if (rebuilt.inter_means != library.inter_means) return "inter-ISP means";
  if (rebuilt.fraction != library.fraction) return "daily inconsistent fraction";
  if (!std::equal(rebuilt.absences.begin(), rebuilt.absences.end(),
                  library.absences.begin(), library.absences.end(), same_event)) {
    return "absence events";
  }
  return "";
}

/// The day as the library computes it: a single-day run_measurement_study.
/// It also does the study-wide steps the rebuilt day leaves out (Fig. 7's
/// provider polling, Fig. 8's distance rings, Fig. 10(a)'s response times).
StudyDay library_day(const core::MeasurementConfig& cfg) {
  const core::MeasurementResults res = core::run_measurement_study(cfg);
  if (res.daily_server_avg.size() != 1 || res.daily_cluster_avg.size() != 1 ||
      res.daily_inconsistent_server_fraction.size() != 1) {
    throw std::runtime_error("run_measurement_study returned results for " +
                             std::to_string(res.daily_server_avg.size()) +
                             " days, expected 1");
  }
  StudyDay d;
  d.metrics_json = res.metrics.to_json();
  d.server_avg = res.daily_server_avg.front();
  d.cluster_avg = res.daily_cluster_avg.front();
  d.inner_lengths = res.inner_cluster_inconsistency;
  d.intra_lengths = res.intra_isp_inconsistency;
  for (const auto& p : res.inter_isp_by_cluster) d.inter_means.push_back(p.mean);
  d.fraction = res.daily_inconsistent_server_fraction.front();
  d.absences = res.absence_events;
  return d;
}

/// One day of the study rebuilt from public calls: inputs as
/// run_measurement_study derives them (day_engine_config's settings), the
/// day's simulation, then the per-day analysis in the study's order. Its
/// outputs must equal library_day's.
StudyDay study_day(const core::MeasurementConfig& cfg, Spans& sp,
                   std::map<std::string, double>& counts) {
  const core::Scenario scenario = sp.time("core.build_scenario_s",
                                          [&] { return core::build_scenario(cfg.scenario); });
  const topology::NodeRegistry& nodes = *scenario.nodes;
  const std::size_t n = nodes.server_count();
  util::Rng rng(cfg.seed);

  const auto [geo, isp] = sp.time("analysis.cluster_lengths_s", [&] {
    return std::pair{topology::cluster_by_grid(nodes, 0.5), topology::cluster_by_isp(nodes)};
  });
  const net::LatencyModel latency(cfg.latency);
  const analysis::OffsetMap true_offsets = sp.time("analysis.clock_skew_s", [&] {
    analysis::OffsetMap offsets;
    util::Rng skew_rng = rng.fork(0x5c3);
    for (topology::NodeId s : nodes.server_ids()) {
      offsets[s] = skew_rng.normal(0.0, cfg.clock_skew_stddev_s);
    }
    return offsets;
  });
  const analysis::OffsetMap estimated = sp.time("analysis.clock_skew_s", [&] {
    std::unordered_map<net::NodeId, double> rtts;
    for (topology::NodeId s : nodes.server_ids()) {
      rtts[s] = 2.0 * latency.propagation(nodes.location(topology::kProviderNode),
                                          nodes.location(s));
    }
    util::Rng probe_rng = rng.fork(0x9b0);
    return analysis::estimate_offsets(nodes.server_ids(), true_offsets, rtts, cfg.probe,
                                      probe_rng);
  });

  util::Rng game_rng = rng.fork(0xda7).fork(0);
  const trace::UpdateTrace game = sp.time("trace.generate_game_trace_s", [&] {
    return trace::generate_game_trace(cfg.game, game_rng);
  });
  EngineConfig ec;
  ec.method.method = UpdateMethod::kTtl;
  ec.method.server_ttl_s = cfg.server_ttl_s;
  ec.infrastructure.kind = InfrastructureKind::kUnicast;
  ec.users_per_server = 1;
  ec.user_poll_period_s = cfg.observer_period_s;
  ec.user_attachment = consistency::UserAttachment::kPinnedLocal;
  ec.user_start_window_s = cfg.observer_period_s;
  ec.trace_offset_s = 60.0;
  ec.tail_s = 60.0;
  ec.provider.staleness_mean_s = cfg.provider_server_staleness_mean_s;
  ec.latency = cfg.latency;
  ec.provider_uplink_kbps = cfg.provider_uplink_kbps;
  ec.server_uplink_kbps = cfg.server_uplink_kbps;
  ec.record_poll_log = true;
  ec.record_user_logs = false;
  ec.seed = game_rng.fork(1).seed();
  const double horizon = ec.trace_offset_s + game.duration() + ec.tail_s;
  std::vector<trace::AbsenceSchedule> absences = sp.time("trace.generate_game_trace_s", [&] {
    util::Rng absence_rng = game_rng.fork(2);
    std::vector<trace::AbsenceSchedule> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(trace::generate_absences(cfg.absence, horizon, absence_rng));
    }
    return out;
  });

  sim::Simulator simulator;
  auto engine = sp.time("engine.construct_s", [&] {
    return std::make_unique<consistency::UpdateEngine>(simulator, nodes, game, ec,
                                                       std::move(absences));
  });
  sp.time("engine.prepare_s", [&] { engine->prepare(); });
  sp.time("sim.run_s", [&] { simulator.run(); });
  sp.time("engine.publish_s", [&] { engine->publish_run_stats(); });
  StudyDay day;
  const obs::MetricsRegistry metrics =
      sp.time("engine.results_s", [&] { return engine->metrics(); });
  day.metrics_json = metrics.to_json();
  const trace::PollLog& log = engine->poll_log();
  counts["trace.poll_log_rows"] = static_cast<double>(log.size());
  count_engine_metrics(metrics, counts);

  const trace::PollLog corrected = sp.time("analysis.clock_skew_s", [&] {
    return analysis::correct_clock_skew(analysis::inject_clock_skew(log, true_offsets),
                                        estimated);
  });
  sp.time("engine.teardown_s", [&] { engine.reset(); });
  const analysis::SnapshotTimeline timeline =
      sp.time("analysis.timeline_s", [&] { return analysis::SnapshotTimeline(corrected); });

  std::unordered_map<net::NodeId, std::vector<trace::Observation>> by_server;
  day.server_avg.assign(n, 0.0);
  sp.time("analysis.server_lengths_s", [&] {
    for (const auto& o : corrected.observations()) by_server[o.server].push_back(o);
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = by_server.find(static_cast<net::NodeId>(i));
      if (it == by_server.end()) continue;
      const auto lengths = analysis::server_inconsistency_lengths(it->second, timeline);
      double sum = 0;
      for (double len : lengths) sum += len;
      day.server_avg[i] =
          lengths.empty() ? 0.0 : sum / static_cast<double>(lengths.size());
    }
  });

  sp.time("analysis.cluster_lengths_s", [&] {
    for (const auto& members : geo.members) {
      double sum = 0;
      for (net::NodeId s : members) sum += day.server_avg[static_cast<std::size_t>(s)];
      day.cluster_avg.push_back(members.empty()
                                    ? 0.0
                                    : sum / static_cast<double>(members.size()));
    }
    for (const auto& members : geo.members) {
      if (members.size() < 3) continue;
      trace::PollLog cluster_log;
      for (net::NodeId s : members) {
        const auto it = by_server.find(s);
        if (it == by_server.end()) continue;
        for (const auto& o : it->second) cluster_log.add(o);
      }
      const analysis::SnapshotTimeline local(cluster_log);
      for (net::NodeId s : members) {
        const auto it = by_server.find(s);
        if (it == by_server.end()) continue;
        for (double len : analysis::server_inconsistency_lengths(it->second, local)) {
          if (len > 0) day.inner_lengths.push_back(len);
        }
      }
    }
    for (std::size_t c = 0; c < isp.cluster_count(); ++c) {
      trace::PollLog cluster_log;
      trace::PollLog complement_log;
      for (const auto& o : corrected.observations()) {
        const std::size_t oc = isp.cluster_of[static_cast<std::size_t>(o.server)];
        (oc == c ? cluster_log : complement_log).add(o);
      }
      const analysis::SnapshotTimeline local(cluster_log);
      const analysis::SnapshotTimeline other(complement_log);
      std::vector<double> inter;
      for (net::NodeId s : isp.members[c]) {
        const auto it = by_server.find(s);
        if (it == by_server.end()) continue;
        for (double len : analysis::server_inconsistency_lengths(it->second, local)) {
          day.intra_lengths.push_back(len);
        }
        for (double len : analysis::server_inconsistency_lengths(it->second, other)) {
          inter.push_back(len);
        }
      }
      day.inter_means.push_back(util::mean(inter));
    }
  });

  day.fraction = sp.time("analysis.inconsistent_fraction_s", [&] {
    return analysis::average_inconsistent_server_fraction(
        corrected, timeline, ec.trace_offset_s, ec.trace_offset_s + game.duration(),
        cfg.observer_period_s);
  });
  day.absences = sp.time("analysis.extract_absences_s", [&] {
    return analysis::extract_absences(corrected, timeline, cfg.observer_period_s);
  });
  if (!(day.fraction >= 0 && day.fraction <= 1) || corrected.empty()) {
    throw std::runtime_error("study day: empty poll log or fraction outside [0, 1]");
  }
  return day;
}

TraceReport trace_job(const std::string& workload, std::uint64_t seed, std::size_t j,
                      bool smoke) {
  TraceReport rep;
  std::function<void()> traced;
  std::function<void()> untraced;
  GridSpec spec;
  std::vector<core::MeasurementConfig> days;
  StudyDay rebuilt;
  StudyDay library;
  if (is_grid(workload)) {
    spec = grid_spec(workload, smoke);
    rep.jobs = spec.jobs.size();
    if (j >= rep.jobs) throw std::invalid_argument("job index out of range");
    rep.label = spec.jobs[j].label;
    traced = [&] { traced_grid_job(spec, seed, j, rep); };
    untraced = [&] { untraced_grid_job(spec, seed, j, rep); };
  } else {
    days = measurement_study(seed, smoke);
    rep.jobs = days.size();
    if (j >= rep.jobs) throw std::invalid_argument("job index out of range");
    rep.label = "study/day" + std::to_string(j);
    traced = [&] {
      Spans sp;
      const auto t0 = Clock::now();
      rebuilt = study_day(days[j], sp, rep.counts);
      rep.wall_traced = since(t0);
      rep.layers = sp.layers();
      rep.digest_traced = digest_of(rebuilt);
    };
    untraced = [&] {
      const auto t0 = Clock::now();
      library = library_day(days[j]);
      rep.wall_untraced = since(t0);
      rep.digest_untraced = digest_of(library);
    };
  }
  // A first untraced execution takes the process's lazy set-up and heap
  // growth, so the two timed executions compare like with like.
  untraced();
  traced();
  untraced();
  if (!is_grid(workload)) {
    const std::string diff = study_mismatch(rebuilt, library);
    if (!diff.empty()) {
      rep.problem = "rebuilt day differs from run_measurement_study in " + diff;
    }
  }
  return rep;
}

void print_trace(const std::string& workload, std::size_t j, const TraceReport& rep) {
  std::cout << "{\"mode\":\"trace\",\"workload\":" << quoted(workload)
            << ",\"job\":" << j << ",\"jobs\":" << rep.jobs
            << ",\"label\":" << quoted(rep.label)
            << ",\"wall_traced\":" << number(rep.wall_traced)
            << ",\"wall_untraced\":" << number(rep.wall_untraced)
            << ",\"standalone_s\":" << number(rep.standalone_s)
            << ",\"layers\":" << object(rep.layers)
            << ",\"waits\":" << object(rep.waits)
            << ",\"counts\":" << object(rep.counts)
            << ",\"digest_traced\":" << quoted(rep.digest_traced)
            << ",\"digest_untraced\":" << quoted(rep.digest_untraced)
            << ",\"problem\":" << quoted(rep.problem) << "}\n";
}

// ---------------------------------------------------------------------------

int usage() {
  std::cerr << "usage: cdnsim_bench run --workload W --seed N [--smoke]\n"
               "       cdnsim_bench trace --workload W --seed N --job J [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload;
  std::uint64_t seed = 7;
  std::size_t job = 0;
  bool smoke = false;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--smoke") {
        smoke = true;
      } else if (arg == "--workload" && has_value) {
        workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        seed = std::stoull(argv[++i]);
      } else if (arg == "--job" && has_value) {
        job = std::stoull(argv[++i]);
      } else {
        return usage();
      }
    }
    if (mode == "run") {
      const RunReport rep = probed([&](RunReport& r) {
        if (is_grid(workload)) {
          run_grid(grid_spec(workload, smoke), seed, r);
        } else {
          run_study(measurement_study(seed, smoke), r);
        }
      });
      print_run(workload, seed, rep);
    } else if (mode == "trace") {
      print_trace(workload, job, trace_job(workload, seed, job, smoke));
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "cdnsim_bench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
