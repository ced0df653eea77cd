// Shared support for the figure-reproduction binaries.
//
// Every bench binary prints:
//   1. a banner naming the paper figure(s) it regenerates,
//   2. the figure's data series as aligned tables (the same rows the paper
//      plots),
//   3. a shape-check block asserting the paper's qualitative findings.
// Exit status is non-zero when a shape check fails, so a plain
// `for b in build/bench/*; do $b; done` doubles as a reproduction report.
#pragma once

#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "util/cdf.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace cdnsim::bench {

/// Whole-string numeric parse (std::from_chars): rejects empty cells,
/// non-numeric text and trailing garbage ("12abc"), and never throws —
/// callers report the offending flag themselves.
template <typename T>
bool parse_number(const std::string& raw, T& out) {
  const auto [ptr, ec] =
      std::from_chars(raw.data(), raw.data() + raw.size(), out);
  return ec == std::errc{} && ptr == raw.data() + raw.size();
}

/// Hard usage error naming the malformed flag (exit 2): a typo'd value
/// silently falling back to a default would invalidate an A/B run.
[[noreturn]] inline void flag_usage_error(const std::string& key,
                                          const std::string& raw,
                                          const std::string& expected) {
  std::cerr << "error: --" << key << " expects " << expected << ", got '"
            << raw << "'\n";
  std::exit(2);
}

/// Minimal --flag value parser: `Flags f(argc, argv); f.get("days", 15)`.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (key == "--small") {  // boolean: consumes no value
        small_ = true;
        continue;
      }
      if (key == "--large") {  // boolean: consumes no value
        large_ = true;
        continue;
      }
      if (key.rfind("--", 0) == 0 && i + 1 < argc) {
        values_.emplace_back(key.substr(2), argv[i + 1]);
        ++i;
        continue;
      }
      // Older bench invocations passed bare `key value` pairs; those now fall
      // through to here. Warn instead of silently running with defaults.
      std::cerr << "warning: ignoring argument '" << key
                << "' (expected --key value pairs or --small)\n";
    }
  }

  /// True when invoked with --small (used by CI-style quick runs).
  bool small() const { return small_; }

  /// True when invoked with --large (opt-in scaled-up grids; fig20 sweeps
  /// network sizes to 10x the paper's maximum).
  bool large() const { return large_; }

  /// `--jobs N`: worker threads for batch execution. N = 0 selects the
  /// hardware concurrency; the default is 1 (serial), so timing baselines
  /// stay comparable. Results are identical for every N — the batch runner
  /// derives each job's RNG stream from its submission index, not from
  /// scheduling.
  std::size_t jobs() const {
    const std::int64_t n = get_int("jobs", 1);
    if (n <= 0) return util::ThreadPool::hardware_threads();
    return static_cast<std::size_t>(n);
  }

  std::string get_str(const std::string& key, const std::string& fallback) const {
    for (const auto& [k, v] : values_) {
      if (k == key) return v;
    }
    return fallback;
  }

  /// `--bench-json PATH`: when non-empty, bench binaries append one JSON
  /// record per benchmark to PATH (see append_bench_record). Empty = off.
  std::string bench_json() const { return get_str("bench-json", ""); }

  /// `--metrics-out PATH`: write one JSONL metrics record per batch job
  /// (sim-time derived, byte-identical for any --jobs N). Empty = off.
  std::string metrics_out() const { return get_str("metrics-out", ""); }

  /// `--trace-out PATH`: write a Chrome trace-event JSON file (load in
  /// chrome://tracing or Perfetto; pid = job index, tid = node id).
  std::string trace_out() const { return get_str("trace-out", ""); }

  /// `--csv-out PATH`: write a per-job summary CSV (RFC 4180 quoted).
  std::string csv_out() const { return get_str("csv-out", ""); }

  /// `--profile-out PATH`: write the hierarchical profiler report —
  /// PATH (JSON, deterministic scope counts + host wall section) plus a
  /// collapsed-stack sibling (PATH with .json -> .folded) for
  /// flamegraph.pl / speedscope. Batch binaries only. Empty = off.
  std::string profile_out() const { return get_str("profile-out", ""); }

  /// `--heartbeat SECS`: opt-in batch progress heartbeat — one stderr line
  /// every SECS seconds (jobs done, events/s, ETA, steal count; plus
  /// per-lane events/s and merge-queue depth for sharded jobs). 0 = off.
  double heartbeat() const { return get("heartbeat", 0.0); }

  /// `--timeseries-out PATH`: write the time-resolved telemetry artifact —
  /// per-run deterministic sample rows/spans (byte-identical across
  /// --jobs/--shards) plus a host-only shard-health section — and a
  /// long-form CSV sibling (PATH with .json -> .csv). Empty = off.
  std::string timeseries_out() const { return get_str("timeseries-out", ""); }

  /// `--sample-s SECS`: sampling interval of --timeseries-out. Must be a
  /// positive number; anything else is a hard usage error (exit 2) — an
  /// interval of 0 would loop the sampler forever on one grid point.
  double sample_s(double fallback) const {
    const std::string raw = get_str("sample-s", "");
    if (raw.empty()) return fallback;
    double v = 0;
    if (!parse_number(raw, v) || !(v > 0) ||
        !(v < std::numeric_limits<double>::infinity())) {
      flag_usage_error("sample-s", raw, "a positive number of seconds");
    }
    return v;
  }

  /// `--shards auto|N`: lane count for the engine's intra-run sharded
  /// driver. "auto" picks per job from the server count and hardware
  /// threads (ShardConfig::kAuto); N >= 1 forces that many lanes. Output is
  /// byte-identical for every accepted value. Anything else — 0, negative,
  /// non-numeric, trailing garbage — is a hard usage error (exit 2): a
  /// typo'd shard count silently running classic would invalidate an A/B.
  int shards(int fallback) const {
    const std::string raw = get_str("shards", "");
    if (raw.empty()) return fallback;
    if (raw == "auto") return consistency::EngineConfig::ShardConfig::kAuto;
    long long n = 0;
    if (!parse_number(raw, n) || n < 1) {
      flag_usage_error("shards", raw, "'auto' or an integer >= 1");
    }
    return static_cast<int>(n);
  }

  /// `--epoch-s SECS`: barrier pitch of the sharded driver. Must be a
  /// positive number; anything else is a hard usage error (exit 2) — an
  /// epoch of 0 would spin the driver forever on the same grid point.
  double epoch_s(double fallback) const {
    const std::string raw = get_str("epoch-s", "");
    if (raw.empty()) return fallback;
    double v = 0;
    if (!parse_number(raw, v) || !(v > 0) ||
        !(v < std::numeric_limits<double>::infinity())) {
      flag_usage_error("epoch-s", raw, "a positive number of seconds");
    }
    return v;
  }

  double get(const std::string& key, double fallback) const {
    for (const auto& [k, v] : values_) {
      if (k == key) {
        double out = 0;
        if (!parse_number(v, out)) flag_usage_error(key, v, "a number");
        return out;
      }
    }
    return fallback;
  }

  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    for (const auto& [k, v] : values_) {
      if (k == key) {
        std::int64_t out = 0;
        if (!parse_number(v, out)) flag_usage_error(key, v, "an integer");
        return out;
      }
    }
    return fallback;
  }

 private:
  std::vector<std::pair<std::string, std::string>> values_;
  bool small_ = false;
  bool large_ = false;
};

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// Prints a CDF as (x, CDF) rows at the given x positions.
inline void print_cdf(const std::string& name, const util::Cdf& cdf,
                      const std::vector<double>& xs) {
  util::TextTable table({name, "CDF"});
  for (const auto& p : cdf.points_at(xs)) {
    table.add_row(std::vector<double>{p.x, p.cdf}, 3);
  }
  table.print(std::cout);
}

/// Peak resident set size of this process so far, in MB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Appends one machine-readable benchmark record to `path` (JSON lines —
/// one object per line, so successive runs accumulate a history):
///   {"bench": "...", "config": "...", "wall_s": ..., "items_per_s": ...,
///    "peak_rss_mb": ...}
/// `wall_s` is the wall-clock seconds per iteration (or per whole run for
/// aggregate records); `items_per_s` is 0 when the bench reports no item
/// throughput; `peak_rss_mb` is the process's peak resident set so far
/// (getrusage), so in a process that runs several benches it covers every
/// bench run before this record too. Used to track before/after numbers
/// for performance PRs.
inline void append_bench_record(const std::string& path,
                                const std::string& bench,
                                const std::string& config, double wall_s,
                                double items_per_s) {
  std::ofstream out(path, std::ios::app);
  if (!out) {
    std::cerr << "warning: cannot open bench-json file '" << path << "'\n";
    return;
  }
  std::ostringstream line;
  line.precision(12);
  line << "{\"bench\": \"" << json_escape(bench) << "\", \"config\": \""
       << json_escape(config) << "\", \"wall_s\": " << wall_s
       << ", \"items_per_s\": " << items_per_s
       << ", \"peak_rss_mb\": " << peak_rss_mb() << "}";
  out << line.str() << '\n';
}

/// Wall-clock stopwatch for batch speedup reporting.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Runs a batch, aborts loudly if any job failed, and prints the per-job and
/// aggregate wall-clock report: `speedup` is (sum of per-job wall clocks) /
/// (batch wall clock), i.e. how much the pool beat a serial loop of the same
/// jobs on this host.
inline std::vector<core::BatchResult> run_batch_reported(
    const core::BatchRunner& runner, const std::vector<core::BatchJob>& jobs,
    bool per_job_table = false, core::BatchRunStats* stats = nullptr) {
  const WallTimer timer;
  auto results = runner.run(jobs, stats);
  const double batch_wall = timer.seconds();
  double serial_wall = 0;
  for (const auto& r : results) {
    if (!r.ok()) {
      std::cerr << "batch job '" << r.label << "' failed: " << r.error << "\n";
      std::exit(2);
    }
    serial_wall += r.wall_s;
  }
  if (per_job_table) {
    util::TextTable table({"job", "wall_s"});
    for (const auto& r : results) {
      table.add_row(
          std::vector<std::string>{r.label, util::format_double(r.wall_s, 3)});
    }
    table.print(std::cout);
  }
  std::cout << "batch: " << jobs.size() << " jobs on " << runner.threads()
            << " thread(s): " << util::format_double(batch_wall, 2)
            << " s wall (sum of jobs " << util::format_double(serial_wall, 2)
            << " s, speedup " << util::format_double(serial_wall / batch_wall, 2)
            << "x)\n";
  return results;
}

/// Applies the --shards/--epoch-s selection (Flags::shards()/epoch_s()) to
/// every batch job whose configuration supports the sharded driver; the
/// rest stay on classic execution (e.g. churn sweeps, trace-recording
/// runs). Call AFTER ObsSession::apply() — tracing flips jobs to
/// unsupported. Returns a human-readable summary ("auto:2-4, 18/18 jobs")
/// for the run manifest, so an artifact records which lane counts actually
/// ran. Byte-identity contract: metrics/csv are identical for every
/// accepted --shards value, so the summary is provenance, not config.
inline std::string apply_shard_flags(std::vector<core::BatchJob>& jobs,
                                     int shards, double epoch_s) {
  constexpr int kAuto = consistency::EngineConfig::ShardConfig::kAuto;
  std::size_t applied = 0;
  int resolved_lo = std::numeric_limits<int>::max();
  int resolved_hi = 0;
  for (core::BatchJob& job : jobs) {
    job.engine.shard.epoch_s = epoch_s;
    const std::size_t servers =
        job.shared_nodes != nullptr ? job.shared_nodes->server_count() : 0;
    // Gate on config-level support (explicit counts would trip the engine's
    // sharding preconditions on an unsupported job; auto would not, but the
    // summary should still count the job as degraded-to-classic).
    if (!consistency::shard_supported(job.engine)) {
      job.engine.shard.shards = 0;
      continue;
    }
    job.engine.shard.shards = shards;
    const int resolved =
        consistency::resolved_shard_count(job.engine, servers);
    resolved_lo = std::min(resolved_lo, resolved);
    resolved_hi = std::max(resolved_hi, resolved);
    ++applied;
  }
  std::string summary = shards == kAuto ? "auto" : std::to_string(shards);
  if (shards == kAuto && applied > 0) {
    summary += ":" + std::to_string(resolved_lo);
    if (resolved_hi != resolved_lo) summary += "-" + std::to_string(resolved_hi);
  }
  summary += ", " + std::to_string(applied) + "/" +
             std::to_string(jobs.size()) + " jobs";
  return summary;
}

/// Prints the check block and returns the process exit code.
inline int finish(const util::ShapeCheck& check) {
  std::cout << '\n';
  check.print(std::cout);
  return check.all_passed() ? 0 : 1;
}

}  // namespace cdnsim::bench
