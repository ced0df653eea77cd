// Figure 9: the effect of inter-ISP traffic on inconsistency.
//  (a) CDF of intra-ISP inconsistency (slightly better than Fig. 3)
//  (b,c) per-ISP-cluster 5th/median/95th percentiles, intra vs inter
//  (d) per-cluster averages: inter-ISP exceeds intra-ISP by a few to ~20 s
// --bench-json PATH appends the whole study's wall time (fig09_small under
// --small), which the tier-1 perf gate tracks.
#include "bench_common.hpp"
#include "bench_measurement.hpp"
#include "bench_obs.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace cdnsim;
  const bench::Flags flags(argc, argv);
  bench::banner("Figure 9: intra-ISP vs inter-ISP inconsistency");

  auto cfg = bench::measurement_config(flags);
  bench::ObsSession obs(argc, argv, flags, cfg.seed);
  cfg.record_trace_events = obs.trace_enabled();
  const bench::WallTimer study_timer;
  const auto results = core::run_measurement_study(cfg);
  if (const std::string bench_json = flags.bench_json(); !bench_json.empty()) {
    // The whole study — simulation plus the Section 3 analysis — so the
    // perf gate (check_bench_regression.py) sees the analysis kernels.
    const double wall_s = study_timer.seconds();
    const std::string config = std::string(flags.small() ? "small" : "full") +
                               "/jobs=" + std::to_string(cfg.threads);
    const double server_days =
        static_cast<double>(cfg.scenario.server_count * cfg.days);
    bench::append_bench_record(bench_json,
                               flags.small() ? "fig09_small" : "fig09_isp/study",
                               config, wall_s, server_days / wall_s);
  }

  std::cout << "\n--- (a) CDF of intra-ISP inconsistency ---\n";
  std::vector<double> positive;
  for (double x : results.intra_isp_inconsistency) {
    if (x > 0) positive.push_back(x);
  }
  util::Cdf cdf(positive);
  bench::print_cdf("inconsistency_s", cdf, {1, 10, 20, 30, 40, 50, 60, 80});

  std::cout << "\n--- (b,c,d) per ISP cluster ---\n";
  util::TextTable table({"cluster", "n_intra", "intra_p5", "intra_med", "intra_p95",
                         "intra_avg", "inter_avg", "delta_avg"});
  double clusters_with_gap = 0;
  double clusters_total = 0;
  std::vector<double> deltas;
  for (std::size_t c = 0; c < results.intra_isp_by_cluster.size(); ++c) {
    const auto& intra = results.intra_isp_by_cluster[c];
    const auto& inter = results.inter_isp_by_cluster[c];
    if (intra.samples < 50 || inter.samples < 50) continue;
    table.add_row({static_cast<double>(c), static_cast<double>(intra.samples),
                   intra.p5, intra.median, intra.p95, intra.mean, inter.mean,
                   inter.mean - intra.mean},
                  2);
    clusters_total += 1;
    if (inter.mean > intra.mean) clusters_with_gap += 1;
    deltas.push_back(inter.mean - intra.mean);
  }
  table.print(std::cout);
  std::cout << "\navg inter-minus-intra = " << util::mean(deltas)
            << " s  (paper: +3.69 to +23.2 s)\n";

  util::ShapeCheck check("fig9");
  check.expect_greater(clusters_total, 3.0, "enough populated ISP clusters");
  check.expect_greater(clusters_with_gap / std::max(1.0, clusters_total), 0.7,
                       "inter-ISP exceeds intra-ISP in most clusters");
  check.expect_in_range(util::mean(deltas), 0.5, 30.0,
                        "average inter-ISP penalty in the paper's range");
  obs.write_study("fig09", results.metrics, &results.trace);
  return bench::finish(check);
}
