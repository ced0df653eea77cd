#include "trace/visit_schedule.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace cdnsim::trace {
namespace {

// Head of one user's visit progression during the per-server k-way merge.
struct Head {
  sim::SimTime time;
  std::uint32_t k;  // local user index; user id = base + k, so ties merge by k
};

// Min-heap order for std::*_heap (which build max-heaps): "a after b".
bool head_after(const Head& a, const Head& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.k > b.k;
}

}  // namespace

VisitSchedule build_visit_schedule(std::size_t server_count,
                                   std::size_t users_per_server,
                                   sim::SimTime period_s,
                                   sim::SimTime start_window_s,
                                   sim::SimTime end_time_s, util::Rng& rng) {
  CDNSIM_EXPECTS(period_s > 0, "visit period must be positive");
  CDNSIM_EXPECTS(start_window_s >= 0, "start window must be non-negative");
  const std::size_t total_users = server_count * users_per_server;
  CDNSIM_EXPECTS(total_users <= std::numeric_limits<std::uint32_t>::max(),
                 "visit schedule user indices must fit in 32 bits");

  // All phases first, in user-id order: the exact draw sequence the legacy
  // per-user timer setup consumed, so callers can swap paths freely.
  std::vector<sim::SimTime> phases;
  phases.reserve(total_users);
  for (std::size_t u = 0; u < total_users; ++u) {
    phases.push_back(rng.uniform(0.0, start_window_s));
  }

  VisitSchedule out;
  out.servers.resize(server_count);
  // Each user's progression (phase, phase + P, phase + P + P, ...) is
  // non-decreasing, so a k-way merge across a server's users emits the
  // (time, user-id) sorted order directly — the merged order is unique
  // (the comparator is a strict total order on distinct rows), so this is
  // byte-identical to sorting the concatenation, at O(n log users_per_server)
  // instead of O(n log n).
  const std::size_t rounds_hint =
      static_cast<std::size_t>(end_time_s / period_s) + 2;
  std::vector<Head> heap;
  heap.reserve(users_per_server);
  for (std::size_t s = 0; s < server_count; ++s) {
    const std::size_t base = s * users_per_server;
    heap.clear();
    for (std::size_t k = 0; k < users_per_server; ++k) {
      const sim::SimTime phase = phases[base + k];
      if (phase < end_time_s) {
        heap.push_back({phase, static_cast<std::uint32_t>(k)});
      }
    }
    std::make_heap(heap.begin(), heap.end(), head_after);
    VisitSchedule::PerServer& ps = out.servers[s];
    ps.times.reserve(users_per_server * rounds_hint);
    ps.users.reserve(users_per_server * rounds_hint);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), head_after);
      Head h = heap.back();
      heap.pop_back();
      ps.times.push_back(h.time);
      ps.users.push_back(static_cast<std::uint32_t>(base + h.k));
      // Repeated addition, not phase + i * period: this is the arithmetic
      // PeriodicTimer::fire() performs, bit for bit.
      h.time += period_s;
      if (h.time < end_time_s) {
        heap.push_back(h);
        std::push_heap(heap.begin(), heap.end(), head_after);
      }
    }
    out.total_visits += ps.times.size();
  }
  return out;
}

}  // namespace cdnsim::trace
