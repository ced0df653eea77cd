#include "core/portfolio.hpp"

#include "util/error.hpp"
#include "util/stats.hpp"

namespace cdnsim::core {

namespace {

SimulationResult collect(const consistency::UpdateEngine& engine,
                         const consistency::EngineConfig& config,
                         const sim::Simulator& simulator) {
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
  result.events_processed = simulator.events_processed();
  result.simulated_time_s = simulator.now();
  return result;
}

}  // namespace

PortfolioResult run_portfolio(const topology::NodeRegistry& nodes,
                              const std::vector<ContentSpec>& contents,
                              double provider_uplink_kbps) {
  CDNSIM_EXPECTS(!contents.empty(), "portfolio must contain at least one content");
  sim::Simulator simulator;
  net::Uplink shared_uplink(provider_uplink_kbps);

  std::vector<std::unique_ptr<consistency::UpdateEngine>> engines;
  engines.reserve(contents.size());
  for (const auto& spec : contents) {
    engines.push_back(std::make_unique<consistency::UpdateEngine>(
        simulator, nodes, spec.updates, spec.engine,
        std::vector<trace::AbsenceSchedule>{}, &shared_uplink));
  }
  for (auto& engine : engines) engine->prepare();
  simulator.run();
  // Counters/meters accumulate per lane during the run; fold them into each
  // engine's registry before reading metrics or meters.
  for (auto& engine : engines) engine->publish_run_stats();

  PortfolioResult out;
  out.provider_uplink_kb = shared_uplink.total_kb_sent();
  out.events_processed = simulator.events_processed();
  for (std::size_t i = 0; i < contents.size(); ++i) {
    out.contents.push_back({contents[i].name, collect(*engines[i], contents[i].engine, simulator)});
  }
  return out;
}

}  // namespace cdnsim::core
