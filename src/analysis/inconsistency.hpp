// Section 3.1's inconsistency-length algebra.
//
// The paper's crawler cannot see origin update times; it infers them from
// the polls themselves: alpha(Ci) is the first time snapshot Ci appears
// anywhere in the trace ("since we poll a very large number of servers, the
// first time an update is observed should be close to the time of this
// update"); beta_s(Ci) is the last time server s served Ci. The
// inconsistency length of Ci on s is beta_s(Ci) - alpha(C_{i+1}) (how long s
// kept serving Ci after its successor existed), and a single request that
// observes Ci at time t is outdated by t - alpha(C_{i+1}) when positive.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <vector>

#include "trace/poll_log.hpp"
#include "trace/update_trace.hpp"

namespace cdnsim::analysis {

/// First-appearance times alpha(Ci) inferred from a poll log.
///
/// Stored as parallel arrays sorted by version plus a suffix minimum of
/// alpha, so every lookup is one binary search: O(log V) for V versions.
class SnapshotTimeline {
 public:
  explicit SnapshotTimeline(const trace::PollLog& log);

  /// Construct from ground truth instead of inference (for validation).
  SnapshotTimeline(const trace::UpdateTrace& updates, sim::SimTime offset);

  /// The union of timelines: alpha(v) is the earliest alpha of v in any
  /// part. Since alpha is a minimum over rows, this equals the timeline of
  /// the parts' logs concatenated, without building that log.
  explicit SnapshotTimeline(std::span<const SnapshotTimeline* const> parts);

  /// alpha of version v; nullopt when v never appeared.
  std::optional<sim::SimTime> first_appearance(trace::Version v) const;

  /// alpha of the earliest version strictly greater than v (the moment
  /// content v became outdated); nullopt if v is never superseded.
  /// Appearance times need not grow with the version (a laggard can reveal
  /// an old snapshot late), so this is the minimum over every later version.
  std::optional<sim::SimTime> superseded_at(trace::Version v) const;

  trace::Version max_version() const;

 private:
  void index(const std::map<trace::Version, sim::SimTime>& alpha);

  std::vector<trace::Version> versions_;  // ascending
  std::vector<sim::SimTime> alpha_;       // alpha_[i] = alpha(versions_[i])
  std::vector<sim::SimTime> later_min_;   // min(alpha_[i..])
};

/// Per-request inconsistency lengths: for every answered observation, how
/// long its content had been outdated at observation time (>= 0). Requests
/// serving content that was still current contribute 0. (Fig. 3 / Fig. 5 /
/// Fig. 7 CDFs.)
std::vector<double> request_inconsistency_lengths(const trace::PollLog& log,
                                                  const SnapshotTimeline& timeline);

/// Per-snapshot inconsistency lengths of one server:
/// beta_s(Ci) - alpha(C_{i+1}) for every snapshot the server served past its
/// supersession.
std::vector<double> server_inconsistency_lengths(
    const std::vector<trace::Observation>& server_observations,
    const SnapshotTimeline& timeline);

/// Section 3.4.3's consistency ratio:
/// 1 - sum(inconsistency lengths) / total trace time.
double consistency_ratio(const std::vector<trace::Observation>& server_observations,
                         const SnapshotTimeline& timeline, sim::SimTime total_time);

/// A half-open time interval [start, end); empty when end <= start.
struct Interval {
  sim::SimTime start = 0;
  sim::SimTime end = 0;
};

/// One server's per-snapshot inconsistency *intervals*:
/// [alpha(C_{i+1}), beta_s(Ci)) for every snapshot served past its
/// supersession. The per-snapshot lengths of server_inconsistency_lengths
/// are exactly these intervals' lengths; unlike the summed lengths the
/// intervals can be merged into a union, which bounds true stale time (a
/// laggard that skips versions double-counts overlapping supersessions in
/// the sum, never in the union).
std::vector<Interval> server_inconsistency_intervals(
    const std::vector<trace::Observation>& server_observations,
    const SnapshotTimeline& timeline);

/// Total measure of the union of (possibly overlapping, unordered)
/// intervals. Order-independent by construction; empty intervals count 0.
double merged_total(std::vector<Interval> intervals);

/// Fraction of servers serving outdated content at time t (Fig. 4b is its
/// average over all polling rounds of a day). A server's state is its
/// latest answered row in (t - poll_window, t]; among rows with that same
/// time, the first in log order. One scan of the log: O(rows).
double inconsistent_server_fraction(const trace::PollLog& log,
                                    const SnapshotTimeline& timeline, sim::SimTime t,
                                    sim::SimTime poll_window);

/// Average of inconsistent_server_fraction (window = round_s) over the
/// rounds t = start + round_s, start + 2 round_s, ... <= end, bit-identical
/// to that mean: t accumulates as t += round_s, and the fractions are summed
/// in round order. One sweep with a cursor per server:
/// O(rows log rows + rounds x servers). Row times must not be NaN.
double average_inconsistent_server_fraction(const trace::PollLog& log,
                                            const SnapshotTimeline& timeline,
                                            sim::SimTime start, sim::SimTime end,
                                            sim::SimTime round_s);

/// Server absences extracted from a poll log (gap between consecutive
/// answered polls minus the poll period), paired with the inconsistency of
/// the first content served after return. (Fig. 10b/10c.) Events come out
/// by ascending server, then in log order.
///
/// Each server's answered rows must be time-ordered in log order (the
/// simulator records every row at the time it serves it); a row earlier
/// than the server's previous answered row throws cdnsim::Error naming the
/// server and both times. One grouping pass: O(rows + servers log servers).
struct AbsenceEvent {
  net::NodeId server;
  sim::SimTime return_time;
  double absence_length;
  double inconsistency_after_return;  // -1 when not computable
};
std::vector<AbsenceEvent> extract_absences(const trace::PollLog& log,
                                           const SnapshotTimeline& timeline,
                                           sim::SimTime poll_period);

}  // namespace cdnsim::analysis
