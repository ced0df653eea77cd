// The Section 3 measurement study, reproduced end to end.
//
// Simulates the paper's crawl: a TTL(60 s)-unicast CDN serving a live-game
// content, one observer per content server polling every 10 s for the game
// window of each of 15 days, server absences, provider origin staleness,
// per-server clock skew (injected, then removed with the RTT/2 probe exactly
// as Section 3.1 does), and the full analysis: per-request and per-server
// inconsistency, geographic and ISP clustering, distance rings, absence
// correlation, TTL inference, and the multicast-tree existence statistics.
#pragma once

#include <vector>

#include "analysis/inconsistency.hpp"
#include "analysis/timesync.hpp"
#include "analysis/tree_existence.hpp"
#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "trace/absence.hpp"
#include "trace/game_generator.hpp"

namespace cdnsim::core {

struct MeasurementConfig {
  ScenarioConfig scenario = [] {
    ScenarioConfig cfg;
    cfg.server_count = 600;
    return cfg;
  }();
  trace::GameTraceConfig game;
  std::size_t days = 15;
  sim::SimTime observer_period_s = 10.0;  // the crawler's poll period
  sim::SimTime server_ttl_s = 60.0;       // the TTL the study infers back
  trace::AbsenceConfig absence{.absences_per_hour = 0.6};
  /// Origin staleness seen by *external* crawlers polling the provider's
  /// public, load-balanced frontends (Section 3.4.2 measures 3.43 s).
  double provider_staleness_mean_s = 3.4;
  /// Origin staleness seen by *content servers* pulling from the origin
  /// backend. The paper finds the providers' contribution to CDN-server
  /// inconsistency negligible, so the backend path is modelled much
  /// fresher than the public frontends.
  double provider_server_staleness_mean_s = 0.4;
  double clock_skew_stddev_s = 3.0;        // injected server clock offsets
  analysis::ProbeConfig probe;
  net::LatencyConfig latency{.inter_isp_penalty_mean_s = 0.3,
                             .jitter_fraction = 0.15};
  double provider_uplink_kbps = 12500.0;  // 100 Mbit/s
  double server_uplink_kbps = 12500.0;
  /// Record per-day trace events (version acquisitions, churn) into
  /// MeasurementResults::trace, pid = day index. Off by default: tracing a
  /// full study allocates one event per server-version acquisition.
  bool record_trace_events = false;
  std::uint64_t seed = 7;
  /// Worker threads for the per-day simulations (0 = hardware concurrency,
  /// 1 = serial). Results are identical for every value: day inputs are
  /// derived serially up front, each day simulates and analyses in
  /// isolation, and outputs merge in day order.
  std::size_t threads = 1;
};

struct ClusterPercentiles {
  double p5 = 0;
  double median = 0;
  double p95 = 0;
  double mean = 0;
  std::size_t samples = 0;

  bool operator==(const ClusterPercentiles&) const = default;
};

struct MeasurementResults {
  // Fig. 3: positive per-request inconsistency lengths, pooled over days.
  std::vector<double> request_inconsistency;
  // Fig. 4(b): average fraction of inconsistent servers, one value per day.
  std::vector<double> daily_inconsistent_server_fraction;
  // Fig. 5/6: inner-cluster (geo) positive request lengths, pooled.
  std::vector<double> inner_cluster_inconsistency;
  // Fig. 7: per-request inconsistency when polling the provider directly.
  std::vector<double> provider_request_inconsistency;
  // Fig. 8: distance ring -> average consistency ratio.
  struct DistanceRatio {
    double distance_km;
    double avg_consistency_ratio;
    std::size_t servers;

    bool operator==(const DistanceRatio&) const = default;
  };
  std::vector<DistanceRatio> distance_consistency;
  // Fig. 9: pooled intra-ISP lengths plus per-ISP-cluster percentiles.
  std::vector<double> intra_isp_inconsistency;
  std::vector<ClusterPercentiles> intra_isp_by_cluster;
  std::vector<ClusterPercentiles> inter_isp_by_cluster;
  // Fig. 10(a): provider response times (synthetic request RTTs).
  std::vector<double> provider_response_times;
  // Fig. 10(b-d): absence events with post-return inconsistency.
  std::vector<analysis::AbsenceEvent> absence_events;
  // Fig. 11: per-day per-cluster and per-server average inconsistency.
  std::vector<std::vector<double>> daily_cluster_avg;  // [day][geo cluster]
  std::vector<std::vector<double>> daily_server_avg;   // [day][server]
  // Fig. 12: per-day per-server maximum inconsistency.
  std::vector<std::vector<double>> daily_server_max;   // [day][server]

  topology::Clustering geo_clusters;
  topology::Clustering isp_clusters;
  std::vector<double> server_provider_distance_km;  // per server

  double overall_avg_request_inconsistency = 0;
  std::uint64_t total_requests = 0;

  /// Engine/sim metrics merged over all simulated days in day order
  /// (counters add, histograms merge bucket-wise, gauges keep the last
  /// day's value). Sim-time derived only, so byte-identical for any
  /// `threads` count.
  obs::MetricsRegistry metrics;
  /// Per-day trace events (empty unless config.record_trace_events),
  /// appended in day order with pid = day index. Same determinism contract
  /// as `metrics`.
  obs::TraceRecorder trace;
};

/// Runs the full multi-day study. Deterministic in config.seed.
MeasurementResults run_measurement_study(const MeasurementConfig& config);

/// Section 3.3's user-perspective study: DNS-attached users revisiting the
/// content every `user_poll_period_s` during one game day.
struct UserPerspectiveConfig {
  MeasurementConfig base;
  std::size_t user_count = 200;
  sim::SimTime user_poll_period_s = 10.0;
};

struct UserPerspectiveResults {
  std::vector<double> redirection_fractions;  // per user (Fig. 4a)
  std::vector<double> continuous_consistency;    // pooled run durations (4c)
  std::vector<double> continuous_inconsistency;  // pooled run durations (4d)
  double avg_inconsistent_server_fraction = 0;   // the ~11% of Sec. 3.3
  obs::MetricsRegistry metrics;                  // the single day's engine metrics
};

UserPerspectiveResults run_user_perspective_study(const UserPerspectiveConfig& config);

}  // namespace cdnsim::core
