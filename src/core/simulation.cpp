#include "core/simulation.hpp"

#include "obs/profiler.hpp"
#include "util/stats.hpp"

namespace cdnsim::core {

SimulationResult run_simulation(const topology::NodeRegistry& nodes,
                                const trace::UpdateTrace& updates,
                                const consistency::EngineConfig& engine_config,
                                std::vector<trace::AbsenceSchedule> absences) {
  sim::Simulator simulator;
  // The engine borrows its TimeSeries; own one here per run so batch jobs
  // and catalog objects never share a sampler. Callers opt in through
  // EngineConfig::timeseries_sample_s alone (an explicit pointer — e.g.
  // from a test — is respected as-is).
  std::unique_ptr<obs::TimeSeries> timeseries;
  consistency::EngineConfig config = engine_config;
  if (config.timeseries_sample_s > 0 && config.timeseries == nullptr) {
    timeseries = std::make_unique<obs::TimeSeries>(config.timeseries_sample_s);
    config.timeseries = timeseries.get();
  }
  consistency::UpdateEngine engine(simulator, nodes, updates, config,
                                   std::move(absences));
  engine.run();

  // Result assembly walks every recorder and log once; under a profiler it
  // gets its own scope so the per-event simulate cost stays separable.
  obs::ProfileScope collect(engine_config.profiler, "job.collect_results");
  SimulationResult result;
  result.server_inconsistency_s = engine.server_avg_inconsistency();
  result.user_inconsistency_s = engine.user_avg_inconsistency();
  // DNS-attached users belong to no server: no per-server maximum.
  if (config.user_attachment != consistency::UserAttachment::kDnsCache) {
    result.per_server_max_user_inconsistency_s =
        engine.per_server_max_user_inconsistency(result.user_inconsistency_s);
  }
  result.avg_server_inconsistency_s = util::mean(result.server_inconsistency_s);
  result.avg_user_inconsistency_s = util::mean(result.user_inconsistency_s);
  result.traffic = engine.meter().totals();
  result.provider_traffic = engine.meter().sender_totals(topology::kProviderNode);
  result.user_observed_inconsistency_fraction =
      engine.user_observed_inconsistency_fraction();
  // Through the engine, not the simulator: a sharded engine runs on its own
  // internal per-lane simulators and the external one stays empty.
  result.events_processed = engine.events_processed();
  result.simulated_time_s = engine.final_time();
  result.failures_injected = engine.failures_injected();
  const auto n = static_cast<topology::NodeId>(nodes.server_count());
  std::size_t converged = 0;
  for (topology::NodeId s = 0; s < n; ++s) {
    if (engine.recorder(s).current_version() == updates.update_count()) {
      ++converged;
    }
  }
  result.converged_server_fraction =
      n == 0 ? 0.0 : static_cast<double>(converged) / static_cast<double>(n);
  result.metrics = engine.metrics();
  result.trace = engine.trace_events();
  if (config.timeseries != nullptr) {
    result.timeseries = config.timeseries->report();
  }
  return result;
}

}  // namespace cdnsim::core
