#include "core/measurement_study.hpp"

#include <algorithm>
#include <exception>
#include <unordered_map>

#include "analysis/user_metrics.hpp"
#include "cdn/provider.hpp"
#include "net/latency_model.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace cdnsim::core {

namespace {

consistency::EngineConfig day_engine_config(const MeasurementConfig& cfg,
                                            std::uint64_t day_seed) {
  consistency::EngineConfig ec;
  ec.method.method = consistency::UpdateMethod::kTtl;
  ec.method.server_ttl_s = cfg.server_ttl_s;
  ec.infrastructure.kind = consistency::InfrastructureKind::kUnicast;
  ec.users_per_server = 1;  // one crawler observer per content server
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
  ec.record_trace_events = cfg.record_trace_events;
  ec.seed = day_seed;
  return ec;
}

/// Everything one day needs to simulate, derived serially (fork() consumes
/// generator state, so derivation order is part of the seed contract and
/// must not depend on the thread count).
struct DayInput {
  trace::UpdateTrace game;
  consistency::EngineConfig ec;
  std::vector<trace::AbsenceSchedule> absences;
};

/// Everything one day contributes to the study, in the exact order the
/// serial loop used to accumulate it, so the merge is bit-identical.
struct DayOutput {
  std::vector<double> day_server_avg;
  std::vector<double> day_server_max;
  std::vector<double> cluster_avg;
  double inconsistent_fraction = 0;
  std::vector<double> request_lengths;  // per-server order, as pooled
  std::vector<double> server_day_sum;   // per server
  std::vector<double> inner_cluster_lengths;
  std::vector<std::vector<double>> intra_by_cluster;  // [isp cluster]
  std::vector<std::vector<double>> inter_by_cluster;
  std::vector<analysis::AbsenceEvent> absence_events;
  double observed_time = 0;
  obs::MetricsRegistry metrics;  // the day engine's sim-time metrics
  obs::TraceRecorder trace;      // empty unless config.record_trace_events
};

ClusterPercentiles percentiles_of(const std::vector<double>& xs) {
  ClusterPercentiles p;
  p.samples = xs.size();
  if (xs.empty()) return p;
  p.p5 = util::percentile(xs, 0.05);
  p.median = util::percentile(xs, 0.50);
  p.p95 = util::percentile(xs, 0.95);
  p.mean = util::mean(xs);
  return p;
}

}  // namespace

MeasurementResults run_measurement_study(const MeasurementConfig& config) {
  CDNSIM_EXPECTS(config.days >= 1, "study needs at least one day");
  const Scenario scenario = build_scenario(config.scenario);
  const topology::NodeRegistry& nodes = *scenario.nodes;
  util::Rng rng(config.seed);

  MeasurementResults results;
  results.geo_clusters = topology::cluster_by_grid(nodes, 0.5);
  results.isp_clusters = topology::cluster_by_isp(nodes);
  for (topology::NodeId s : nodes.server_ids()) {
    results.server_provider_distance_km.push_back(
        nodes.distance_km(topology::kProviderNode, s));
  }

  // True clock offsets per server, and their RTT/2-probe estimates
  // (Section 3.1). The residual estimation error stays in the corrected log,
  // exactly as it would in the real measurement.
  const net::LatencyModel latency(config.latency);
  std::unordered_map<net::NodeId, double> true_offsets;
  std::unordered_map<net::NodeId, double> rtts;
  util::Rng skew_rng = rng.fork(0x5c3);
  for (topology::NodeId s : nodes.server_ids()) {
    true_offsets[s] = skew_rng.normal(0.0, config.clock_skew_stddev_s);
    rtts[s] = 2.0 * latency.propagation(nodes.location(topology::kProviderNode),
                                        nodes.location(s));
  }
  util::Rng probe_rng = rng.fork(0x9b0);
  const analysis::OffsetMap estimated = analysis::estimate_offsets(
      nodes.server_ids(), true_offsets, rtts, config.probe, probe_rng);

  // Per-server accumulators across days (Fig. 8 consistency ratio).
  const std::size_t n = nodes.server_count();
  std::vector<double> server_total_inconsistency(n, 0.0);
  double total_observed_time = 0;
  // Per-ISP-cluster pooled lengths across days (Fig. 9).
  const std::size_t isp_count = results.isp_clusters.cluster_count();
  std::vector<std::vector<double>> intra_by_cluster(isp_count);
  std::vector<std::vector<double>> inter_by_cluster(isp_count);

  double request_sum = 0;

  // Phase 1 (serial): derive every day's inputs in day order.
  util::Rng day_rng = rng.fork(0xda7);
  std::vector<DayInput> day_inputs;
  day_inputs.reserve(config.days);
  for (std::size_t day = 0; day < config.days; ++day) {
    util::Rng game_rng = day_rng.fork(day);
    DayInput in;
    in.game = trace::generate_game_trace(config.game, game_rng);
    in.ec = day_engine_config(config, game_rng.fork(1).seed());
    const sim::SimTime horizon = in.ec.trace_offset_s + in.game.duration() +
                                 in.ec.tail_s;
    util::Rng absence_rng = game_rng.fork(2);
    in.absences.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      in.absences.push_back(
          trace::generate_absences(config.absence, horizon, absence_rng));
    }
    day_inputs.push_back(std::move(in));
  }

  // Phase 2 (parallelisable): each day simulates and analyses in isolation —
  // only its own DayInput plus the read-only study context.
  auto run_day = [&](DayInput& in) -> DayOutput {
    DayOutput out;
    sim::Simulator simulator;
    consistency::UpdateEngine engine(simulator, nodes, in.game, in.ec,
                                     std::move(in.absences));
    engine.run();
    out.metrics = engine.metrics();
    out.trace = engine.trace_events();

    // Inject per-server clock skew and remove it with the probe estimates —
    // the corrected log is what the paper's pipeline would actually see.
    const trace::PollLog corrected = analysis::correct_clock_skew(
        analysis::inject_clock_skew(engine.poll_log(), true_offsets), estimated);
    const analysis::SnapshotTimeline timeline(corrected);

    // Group observations by server once for this day.
    std::unordered_map<net::NodeId, std::vector<trace::Observation>> by_server;
    for (const auto& obs : corrected.observations()) {
      by_server[obs.server].push_back(obs);
    }

    out.day_server_avg.assign(n, 0.0);
    out.day_server_max.assign(n, 0.0);
    out.server_day_sum.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = by_server.find(static_cast<net::NodeId>(i));
      if (it == by_server.end()) continue;
      const auto lengths = analysis::server_inconsistency_lengths(it->second, timeline);
      double sum = 0;
      double mx = 0;
      for (double len : lengths) {
        sum += len;
        mx = std::max(mx, len);
        out.request_lengths.push_back(len);
      }
      out.server_day_sum[i] = sum;
      out.day_server_avg[i] =
          lengths.empty() ? 0.0 : sum / static_cast<double>(lengths.size());
      out.day_server_max[i] = mx;
    }

    // Per-geo-cluster averages for the tree-existence statistics.
    out.cluster_avg.reserve(results.geo_clusters.cluster_count());
    for (const auto& members : results.geo_clusters.members) {
      double sum = 0;
      std::size_t count = 0;
      for (net::NodeId s : members) {
        sum += out.day_server_avg[static_cast<std::size_t>(s)];
        ++count;
      }
      out.cluster_avg.push_back(count == 0 ? 0.0
                                           : sum / static_cast<double>(count));
    }

    // Fig. 4(b): fraction of servers with superseded content per round.
    const sim::SimTime window_start = in.ec.trace_offset_s;
    const sim::SimTime window_end = in.ec.trace_offset_s + in.game.duration();
    out.inconsistent_fraction = analysis::average_inconsistent_server_fraction(
        corrected, timeline, window_start, window_end, config.observer_period_s);

    // Cluster-local alpha: the earliest appearance among the members' rows.
    const auto local_timeline = [&](const std::vector<net::NodeId>& members) {
      trace::PollLog cluster_log;
      for (net::NodeId s : members) {
        const auto it = by_server.find(s);
        if (it == by_server.end()) continue;
        for (const auto& obs : it->second) cluster_log.add(obs);
      }
      return analysis::SnapshotTimeline(cluster_log);
    };

    // Inner-cluster lengths with cluster-local alpha (Fig. 5).
    for (const auto& members : results.geo_clusters.members) {
      if (members.size() < 3) continue;
      const analysis::SnapshotTimeline local = local_timeline(members);
      for (net::NodeId s : members) {
        const auto it = by_server.find(s);
        if (it == by_server.end()) continue;
        for (double len : analysis::server_inconsistency_lengths(it->second, local)) {
          if (len > 0) out.inner_cluster_lengths.push_back(len);
        }
      }
    }

    // ISP analysis (Fig. 9): intra uses the cluster-local alpha, inter uses
    // the earliest appearance among all *other* clusters — the union of
    // their local timelines, since the ISP clusters partition the servers.
    std::vector<analysis::SnapshotTimeline> isp_local;
    isp_local.reserve(isp_count);
    for (const auto& members : results.isp_clusters.members) {
      isp_local.push_back(local_timeline(members));
    }
    out.intra_by_cluster.resize(isp_count);
    out.inter_by_cluster.resize(isp_count);
    std::vector<const analysis::SnapshotTimeline*> others;
    for (std::size_t c = 0; c < isp_count; ++c) {
      others.clear();
      for (std::size_t o = 0; o < isp_count; ++o) {
        if (o != c) others.push_back(&isp_local[o]);
      }
      const analysis::SnapshotTimeline other(others);
      for (net::NodeId s : results.isp_clusters.members[c]) {
        const auto it = by_server.find(s);
        if (it == by_server.end()) continue;
        for (double len :
             analysis::server_inconsistency_lengths(it->second, isp_local[c])) {
          out.intra_by_cluster[c].push_back(len);
        }
        for (double len : analysis::server_inconsistency_lengths(it->second, other)) {
          out.inter_by_cluster[c].push_back(len);
        }
      }
    }

    // Absence events (Fig. 10).
    out.absence_events =
        analysis::extract_absences(corrected, timeline, config.observer_period_s);

    out.observed_time = window_end - window_start;
    return out;
  };

  std::vector<DayOutput> day_outputs(config.days);
  std::vector<std::exception_ptr> day_errors(config.days);
  const std::size_t threads = config.threads == 0
                                  ? util::ThreadPool::hardware_threads()
                                  : config.threads;
  if (threads <= 1 || config.days <= 1) {
    for (std::size_t d = 0; d < config.days; ++d) {
      day_outputs[d] = run_day(day_inputs[d]);
    }
  } else {
    util::ThreadPool pool(std::min(threads, config.days));
    for (std::size_t d = 0; d < config.days; ++d) {
      pool.submit([&, d] {
        try {
          day_outputs[d] = run_day(day_inputs[d]);
        } catch (...) {
          day_errors[d] = std::current_exception();
        }
      });
    }
    pool.wait_idle();
    for (auto& err : day_errors) {
      if (err) std::rethrow_exception(err);
    }
  }

  // Phase 3 (serial): merge in day order, with the same per-element
  // accumulation order as the old serial loop — results are bit-identical
  // for any thread count.
  for (std::size_t day = 0; day < config.days; ++day) {
    DayOutput& out = day_outputs[day];
    for (double len : out.request_lengths) {
      results.request_inconsistency.push_back(len);
      request_sum += len;
    }
    for (std::size_t i = 0; i < n; ++i) {
      server_total_inconsistency[i] += out.server_day_sum[i];
    }
    results.daily_server_avg.push_back(std::move(out.day_server_avg));
    results.daily_server_max.push_back(std::move(out.day_server_max));
    results.daily_cluster_avg.push_back(std::move(out.cluster_avg));
    results.daily_inconsistent_server_fraction.push_back(
        out.inconsistent_fraction);
    for (double len : out.inner_cluster_lengths) {
      results.inner_cluster_inconsistency.push_back(len);
    }
    for (std::size_t c = 0; c < isp_count; ++c) {
      for (double len : out.intra_by_cluster[c]) {
        intra_by_cluster[c].push_back(len);
        results.intra_isp_inconsistency.push_back(len);
      }
      for (double len : out.inter_by_cluster[c]) {
        inter_by_cluster[c].push_back(len);
      }
    }
    results.absence_events.insert(results.absence_events.end(),
                                  out.absence_events.begin(),
                                  out.absence_events.end());
    total_observed_time += out.observed_time;
    results.metrics.merge_from(out.metrics);
    results.trace.append(out.trace, static_cast<std::int32_t>(day));
  }

  // Fig. 8: distance rings -> average consistency ratio.
  const auto rings = topology::cluster_by_provider_distance(nodes, 500.0);
  for (const auto& members : rings.members) {
    if (members.empty()) continue;
    double ratio_sum = 0;
    double dist_sum = 0;
    for (net::NodeId s : members) {
      const double inc = server_total_inconsistency[static_cast<std::size_t>(s)];
      ratio_sum += 1.0 - std::min(1.0, inc / total_observed_time);
      dist_sum += results.server_provider_distance_km[static_cast<std::size_t>(s)];
    }
    results.distance_consistency.push_back(
        {dist_sum / static_cast<double>(members.size()),
         ratio_sum / static_cast<double>(members.size()), members.size()});
  }
  std::sort(results.distance_consistency.begin(), results.distance_consistency.end(),
            [](const auto& a, const auto& b) { return a.distance_km < b.distance_km; });

  for (std::size_t c = 0; c < isp_count; ++c) {
    results.intra_isp_by_cluster.push_back(percentiles_of(intra_by_cluster[c]));
    results.inter_isp_by_cluster.push_back(percentiles_of(inter_by_cluster[c]));
  }

  // Fig. 7: polling the provider directly — origin staleness only.
  {
    util::Rng provider_rng = rng.fork(0xf19);
    trace::UpdateTrace game = trace::generate_game_trace(config.game, provider_rng);
    cdn::ProviderConfig pc;
    pc.staleness_mean_s = config.provider_staleness_mean_s;
    cdn::Provider provider(game, pc, provider_rng.fork(1));
    for (sim::SimTime t = 0; t < game.duration(); t += config.observer_period_s) {
      const trace::Version v = provider.served_version_at(t);
      if (v >= game.update_count()) {
        results.provider_request_inconsistency.push_back(0.0);
        continue;
      }
      const sim::SimTime superseded = game.update_time(v + 1);
      results.provider_request_inconsistency.push_back(
          superseded <= t ? t - superseded : 0.0);
    }
  }

  // Fig. 10(a): provider response-time model — two propagation trips plus
  // origin processing and a clipped heavy tail; exercises the latency path.
  {
    util::Rng rt_rng = rng.fork(0x47e);
    const auto servers = nodes.server_ids();
    for (int i = 0; i < 5000; ++i) {
      const topology::NodeId s = servers[rt_rng.index(servers.size())];
      const double one_way = latency.propagation(
          nodes.location(s), nodes.location(topology::kProviderNode));
      const double processing = rt_rng.uniform(0.35, 0.65);
      const double tail = std::min(rt_rng.exponential(0.12), 1.0);
      results.provider_response_times.push_back(2.0 * one_way + processing + tail);
    }
  }

  results.total_requests = results.request_inconsistency.size();
  results.overall_avg_request_inconsistency =
      results.total_requests == 0
          ? 0.0
          : request_sum / static_cast<double>(results.total_requests);
  return results;
}

UserPerspectiveResults run_user_perspective_study(
    const UserPerspectiveConfig& config) {
  const Scenario scenario = build_scenario(config.base.scenario);
  const topology::NodeRegistry& nodes = *scenario.nodes;
  util::Rng rng(config.base.seed ^ 0x95e5);

  util::Rng game_rng = rng.fork(1);
  const trace::UpdateTrace game =
      trace::generate_game_trace(config.base.game, game_rng);

  consistency::EngineConfig ec =
      day_engine_config(config.base, rng.fork(2).seed());
  ec.user_attachment = consistency::UserAttachment::kDnsCache;
  ec.dns_user_count = config.user_count;
  ec.user_poll_period_s = config.user_poll_period_s;
  ec.record_user_logs = true;
  ec.record_poll_log = true;

  const sim::SimTime horizon = ec.trace_offset_s + game.duration() + ec.tail_s;
  std::vector<trace::AbsenceSchedule> absences;
  util::Rng absence_rng = rng.fork(3);
  for (std::size_t i = 0; i < nodes.server_count(); ++i) {
    absences.push_back(
        trace::generate_absences(config.base.absence, horizon, absence_rng));
  }

  sim::Simulator simulator;
  consistency::UpdateEngine engine(simulator, nodes, game, ec, std::move(absences));
  engine.run();

  const analysis::SnapshotTimeline timeline(engine.poll_log());

  UserPerspectiveResults out;
  out.metrics = engine.metrics();
  out.redirection_fractions = analysis::redirection_fractions(engine.user_logs());
  const auto times =
      analysis::pooled_continuous_times(engine.user_logs(), timeline);
  out.continuous_consistency = times.consistency;
  out.continuous_inconsistency = times.inconsistency;
  out.avg_inconsistent_server_fraction =
      analysis::average_inconsistent_server_fraction(
          engine.poll_log(), timeline, ec.trace_offset_s,
          ec.trace_offset_s + game.duration(), config.user_poll_period_s);
  return out;
}

}  // namespace cdnsim::core
