// Precomputed per-server user-visit arrival arrays (SoA).
//
// The engine's end users poll on fixed-period timers with a uniformly random
// start phase. For the pinned attachment every visit is a pure read of the
// home server's state, so the whole arrival stream can be generated up front
// and walked in bulk (consistency::UpdateEngine's batched visit path)
// instead of paying one simulator event per visit.
//
// Determinism contract (pinned down by visit_batch_stress_test):
//  * phases are drawn in user-id order from the caller's RNG — exactly the
//    draws the legacy per-user PeriodicTimer setup made, so building a
//    schedule consumes the same stream prefix;
//  * successive visit times accumulate t += period (repeated addition, the
//    arithmetic PeriodicTimer::fire() performs), never phase + k * period —
//    the two differ in floating point and the engine pins the timer's bits;
//  * visits strictly before `end_time_s` are kept (a visit at exactly the
//    horizon is dropped, matching the engine's `now >= end_time` stop);
//  * per-server arrays are sorted by (time, user index) — simultaneous
//    visits (measure-zero for generic phases) order by user id.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace cdnsim::trace {

struct VisitSchedule {
  /// Parallel arrays: visit k on this server happens at times[k], by global
  /// user index users[k].
  struct PerServer {
    std::vector<sim::SimTime> times;
    std::vector<std::uint32_t> users;
  };
  std::vector<PerServer> servers;
  std::size_t total_visits = 0;
};

/// Builds the arrival arrays for `server_count` servers with
/// `users_per_server` users each (user i is pinned to server
/// i / users_per_server). Draws one uniform phase in [0, start_window_s)
/// per user, in user-id order, from `rng`.
VisitSchedule build_visit_schedule(std::size_t server_count,
                                   std::size_t users_per_server,
                                   sim::SimTime period_s,
                                   sim::SimTime start_window_s,
                                   sim::SimTime end_time_s, util::Rng& rng);

}  // namespace cdnsim::trace
