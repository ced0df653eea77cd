// One-call simulation facade: the library's main public entry point.
//
//   auto scenario = core::build_scenario({.server_count = 170});
//   consistency::EngineConfig engine;
//   engine.method.method = consistency::UpdateMethod::kPush;
//   auto result = core::run_simulation(*scenario.nodes, game_trace, engine);
//   std::cout << result.avg_server_inconsistency_s << "\n";
//
// run_simulation wires a Simulator and an UpdateEngine, runs the trace to
// completion, and returns a flat result struct. For raw access (recorders,
// logs, the meter) construct an UpdateEngine directly.
#pragma once

#include <vector>

#include "consistency/engine.hpp"
#include "core/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_recorder.hpp"
#include "trace/update_trace.hpp"

namespace cdnsim::core {

struct SimulationResult {
  // Per-server average inconsistency, indexed by server id.
  std::vector<double> server_inconsistency_s;
  // Per-user average first-seen inconsistency.
  std::vector<double> user_inconsistency_s;
  // Largest per-user average on each server; empty for kDnsCache users,
  // who belong to no server.
  std::vector<double> per_server_max_user_inconsistency_s;

  double avg_server_inconsistency_s = 0;
  double avg_user_inconsistency_s = 0;

  net::TrafficTotals traffic;           // all maintenance traffic
  net::TrafficTotals provider_traffic;  // sent by the content provider

  double user_observed_inconsistency_fraction = 0;
  std::uint64_t events_processed = 0;
  sim::SimTime simulated_time_s = 0;

  // Churn outcomes (trivial when churn is disabled: 0 failures, fraction 1
  // whenever every server holds the final version).
  std::size_t failures_injected = 0;
  /// Fraction of servers whose replica ended the run at the trace's final
  /// version (the convergence measure of the churn-robustness experiments).
  double converged_server_fraction = 0;

  /// Snapshot of the engine's metric registry (sim-time derived only, so
  /// byte-identical for a fixed seed regardless of --jobs).
  obs::MetricsRegistry metrics;
  /// Trace events, empty unless EngineConfig::record_trace_events.
  obs::TraceRecorder trace;
  /// Hierarchical profile, empty unless BatchJob::profile. Scope counts and
  /// sim-time coverage are deterministic; wall times are host noise.
  obs::ProfileReport profile;
  /// Time-resolved telemetry, empty unless
  /// EngineConfig::timeseries_sample_s > 0. run_simulation owns the sampler
  /// per run (jobs never share one); rows/spans/totals are deterministic,
  /// the shard-health samples are host-only.
  obs::TimeSeriesReport timeseries;
};

/// Runs one trace through one engine configuration on the given CDN.
SimulationResult run_simulation(const topology::NodeRegistry& nodes,
                                const trace::UpdateTrace& updates,
                                const consistency::EngineConfig& engine_config,
                                std::vector<trace::AbsenceSchedule> absences = {});

}  // namespace cdnsim::core
