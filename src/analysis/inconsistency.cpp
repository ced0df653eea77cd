#include "analysis/inconsistency.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/error.hpp"

namespace cdnsim::analysis {

namespace {

/// A log's answered rows grouped by server in one stable counting sort:
/// servers ascending, each server's rows in log order.
struct ServerRows {
  std::vector<net::NodeId> servers;  // ascending
  std::vector<std::size_t> offsets;  // servers[k] owns rows[offsets[k], offsets[k + 1])
  std::vector<const trace::Observation*> rows;
};

ServerRows group_answered_by_server(const trace::PollLog& log) {
  std::unordered_map<net::NodeId, std::size_t> next;  // row count, then cursor
  for (const auto& obs : log.observations()) {
    if (obs.answered) ++next[obs.server];
  }
  ServerRows g;
  g.servers.reserve(next.size());
  for (const auto& [server, count] : next) g.servers.push_back(server);
  std::sort(g.servers.begin(), g.servers.end());
  g.offsets.reserve(g.servers.size() + 1);
  std::size_t offset = 0;
  for (net::NodeId server : g.servers) {
    g.offsets.push_back(offset);
    offset += std::exchange(next[server], offset);
  }
  g.offsets.push_back(offset);
  g.rows.resize(offset);
  for (const auto& obs : log.observations()) {
    if (obs.answered) g.rows[next[obs.server]++] = &obs;
  }
  return g;
}

std::string format_time(sim::SimTime t) {
  std::ostringstream os;
  os.precision(9);
  os << t;
  return os.str();
}

}  // namespace

SnapshotTimeline::SnapshotTimeline(const trace::PollLog& log) {
  std::map<trace::Version, sim::SimTime> alpha;
  for (const auto& obs : log.observations()) {
    if (!obs.answered) continue;
    const auto [it, inserted] = alpha.try_emplace(obs.version, obs.time);
    if (!inserted && obs.time < it->second) it->second = obs.time;
  }
  index(alpha);
}

SnapshotTimeline::SnapshotTimeline(const trace::UpdateTrace& updates,
                                   sim::SimTime offset) {
  std::map<trace::Version, sim::SimTime> alpha;
  alpha[0] = 0;
  for (trace::Version v = 1; v <= updates.update_count(); ++v) {
    alpha[v] = updates.update_time(v) + offset;
  }
  index(alpha);
}

SnapshotTimeline::SnapshotTimeline(std::span<const SnapshotTimeline* const> parts) {
  std::map<trace::Version, sim::SimTime> alpha;
  for (const SnapshotTimeline* part : parts) {
    for (std::size_t i = 0; i < part->versions_.size(); ++i) {
      const auto [it, inserted] =
          alpha.try_emplace(part->versions_[i], part->alpha_[i]);
      if (!inserted && part->alpha_[i] < it->second) it->second = part->alpha_[i];
    }
  }
  index(alpha);
}

void SnapshotTimeline::index(const std::map<trace::Version, sim::SimTime>& alpha) {
  versions_.reserve(alpha.size());
  alpha_.reserve(alpha.size());
  for (const auto& [v, t] : alpha) {
    versions_.push_back(v);
    alpha_.push_back(t);
  }
  // min is exact, so the suffix minimum equals a scan over the later
  // versions at lookup time.
  later_min_ = alpha_;
  for (std::size_t i = later_min_.size(); i-- > 1;) {
    later_min_[i - 1] = std::min(later_min_[i - 1], later_min_[i]);
  }
}

std::optional<sim::SimTime> SnapshotTimeline::first_appearance(
    trace::Version v) const {
  const auto it = std::lower_bound(versions_.begin(), versions_.end(), v);
  if (it == versions_.end() || *it != v) return std::nullopt;
  return alpha_[static_cast<std::size_t>(it - versions_.begin())];
}

std::optional<sim::SimTime> SnapshotTimeline::superseded_at(trace::Version v) const {
  const auto it = std::upper_bound(versions_.begin(), versions_.end(), v);
  if (it == versions_.end()) return std::nullopt;
  return later_min_[static_cast<std::size_t>(it - versions_.begin())];
}

trace::Version SnapshotTimeline::max_version() const {
  return versions_.empty() ? 0 : versions_.back();
}

std::vector<double> request_inconsistency_lengths(const trace::PollLog& log,
                                                  const SnapshotTimeline& timeline) {
  std::vector<double> out;
  out.reserve(log.size());
  for (const auto& obs : log.observations()) {
    if (!obs.answered) continue;
    const auto superseded = timeline.superseded_at(obs.version);
    if (!superseded) {
      out.push_back(0.0);
      continue;
    }
    out.push_back(std::max(0.0, obs.time - *superseded));
  }
  return out;
}

std::vector<double> server_inconsistency_lengths(
    const std::vector<trace::Observation>& server_observations,
    const SnapshotTimeline& timeline) {
  // beta_s(v): last time this server served version v.
  std::map<trace::Version, sim::SimTime> beta;
  for (const auto& obs : server_observations) {
    if (!obs.answered) continue;
    auto& t = beta[obs.version];
    t = std::max(t, obs.time);
  }
  std::vector<double> out;
  out.reserve(beta.size());
  for (const auto& [v, last_seen] : beta) {
    const auto superseded = timeline.superseded_at(v);
    if (!superseded) continue;
    const double len = last_seen - *superseded;
    if (len > 0) out.push_back(len);
  }
  return out;
}

std::vector<Interval> server_inconsistency_intervals(
    const std::vector<trace::Observation>& server_observations,
    const SnapshotTimeline& timeline) {
  // beta_s(v): last time this server served version v (as in the lengths).
  std::map<trace::Version, sim::SimTime> beta;
  for (const auto& obs : server_observations) {
    if (!obs.answered) continue;
    auto& t = beta[obs.version];
    t = std::max(t, obs.time);
  }
  std::vector<Interval> out;
  out.reserve(beta.size());
  for (const auto& [v, last_seen] : beta) {
    const auto superseded = timeline.superseded_at(v);
    if (!superseded) continue;
    if (last_seen > *superseded) out.push_back({*superseded, last_seen});
  }
  return out;
}

double merged_total(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start || (a.start == b.start && a.end < b.end);
            });
  double total = 0;
  sim::SimTime covered_until = 0;
  bool open = false;
  for (const auto& iv : intervals) {
    if (iv.end <= iv.start) continue;  // empty
    if (!open || iv.start > covered_until) {
      total += iv.end - iv.start;
      covered_until = iv.end;
      open = true;
    } else if (iv.end > covered_until) {
      total += iv.end - covered_until;
      covered_until = iv.end;
    }
  }
  return total;
}

double consistency_ratio(const std::vector<trace::Observation>& server_observations,
                         const SnapshotTimeline& timeline, sim::SimTime total_time) {
  CDNSIM_EXPECTS(total_time > 0, "total trace time must be positive");
  const auto lengths = server_inconsistency_lengths(server_observations, timeline);
  double sum = 0;
  for (double x : lengths) sum += x;
  return 1.0 - std::min(1.0, sum / total_time);
}

double inconsistent_server_fraction(const trace::PollLog& log,
                                    const SnapshotTimeline& timeline, sim::SimTime t,
                                    sim::SimTime poll_window) {
  // A server's state at time t is its last observation in (t - window, t].
  std::unordered_map<net::NodeId, const trace::Observation*> latest;
  for (const auto& obs : log.observations()) {
    if (!obs.answered || obs.time > t || obs.time <= t - poll_window) continue;
    auto& slot = latest[obs.server];
    if (slot == nullptr || obs.time > slot->time) slot = &obs;
  }
  if (latest.empty()) return 0.0;
  std::size_t stale = 0;
  for (const auto& [server, obs] : latest) {
    const auto superseded = timeline.superseded_at(obs->version);
    if (superseded && *superseded <= t) ++stale;
  }
  return static_cast<double>(stale) / static_cast<double>(latest.size());
}

double average_inconsistent_server_fraction(const trace::PollLog& log,
                                            const SnapshotTimeline& timeline,
                                            sim::SimTime start, sim::SimTime end,
                                            sim::SimTime round_s) {
  CDNSIM_EXPECTS(round_s > 0 && end > start, "invalid averaging window");
  ServerRows g = group_answered_by_server(log);
  // Each server's rows in time order. The sort is stable and only the first
  // row of an equal-time run is kept, so the row a cursor lands on is the
  // one inconsistent_server_fraction picks: the latest, first in log order.
  std::vector<sim::SimTime> times;
  std::vector<sim::SimTime> superseded;  // +inf: never superseded
  std::vector<std::size_t> begin;
  times.reserve(g.rows.size());
  superseded.reserve(g.rows.size());
  begin.reserve(g.servers.size() + 1);
  for (std::size_t k = 0; k < g.servers.size(); ++k) {
    const auto first = g.rows.begin() + static_cast<std::ptrdiff_t>(g.offsets[k]);
    const auto last = g.rows.begin() + static_cast<std::ptrdiff_t>(g.offsets[k + 1]);
    std::stable_sort(first, last,
                     [](const trace::Observation* a, const trace::Observation* b) {
                       return a->time < b->time;
                     });
    begin.push_back(times.size());
    for (auto it = first; it != last; ++it) {
      const trace::Observation& obs = **it;
      if (times.size() > begin.back() && obs.time == times.back()) continue;
      times.push_back(obs.time);
      superseded.push_back(timeline.superseded_at(obs.version).value_or(
          std::numeric_limits<sim::SimTime>::infinity()));
    }
  }
  begin.push_back(times.size());

  // Walk the rounds in order; cursor[k] is one past server k's last row at
  // or before t, and only moves forward.
  std::vector<std::size_t> cursor(begin.begin(), begin.end() - 1);
  double sum = 0;
  std::size_t rounds = 0;
  for (sim::SimTime t = start + round_s; t <= end; t += round_s) {
    std::size_t present = 0;
    std::size_t stale = 0;
    for (std::size_t k = 0; k < g.servers.size(); ++k) {
      std::size_t& c = cursor[k];
      while (c < begin[k + 1] && times[c] <= t) ++c;
      if (c == begin[k] || times[c - 1] <= t - round_s) continue;
      ++present;
      if (superseded[c - 1] <= t) ++stale;
    }
    sum += present == 0 ? 0.0
                        : static_cast<double>(stale) / static_cast<double>(present);
    ++rounds;
  }
  return rounds == 0 ? 0.0 : sum / static_cast<double>(rounds);
}

std::vector<AbsenceEvent> extract_absences(const trace::PollLog& log,
                                           const SnapshotTimeline& timeline,
                                           sim::SimTime poll_period) {
  CDNSIM_EXPECTS(poll_period > 0, "poll period must be positive");
  const ServerRows g = group_answered_by_server(log);
  std::vector<AbsenceEvent> out;
  for (std::size_t k = 0; k < g.servers.size(); ++k) {
    const trace::Observation* prev = nullptr;
    for (std::size_t i = g.offsets[k]; i < g.offsets[k + 1]; ++i) {
      const trace::Observation& obs = *g.rows[i];
      if (prev != nullptr) {
        if (obs.time < prev->time) {
          throw Error("poll log rows of server " + std::to_string(obs.server) +
                      " go back in time: an answered poll at " +
                      format_time(obs.time) + " s follows one at " +
                      format_time(prev->time) +
                      " s (absences need each server's rows in time order)");
        }
        const double gap = obs.time - prev->time - poll_period;
        // Tolerate scheduling jitter of half a period before calling it an
        // absence (the paper computes t_{i+1} - t_i - 10 s).
        if (gap > poll_period / 2) {
          AbsenceEvent ev;
          ev.server = obs.server;
          ev.return_time = obs.time;
          ev.absence_length = gap;
          const auto superseded = timeline.superseded_at(obs.version);
          ev.inconsistency_after_return =
              superseded ? std::max(0.0, obs.time - *superseded) : -1.0;
          out.push_back(ev);
        }
      }
      prev = &obs;
    }
  }
  return out;
}

}  // namespace cdnsim::analysis
