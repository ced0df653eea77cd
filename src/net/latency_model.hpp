// End-to-end message latency.
//
// latency = propagation (great-circle distance at ~2/3 c, the speed of light
// in fibre, plus a route-stretch factor) + transmission (handled by the
// sender's Uplink) + a base per-hop processing floor + optional inter-ISP
// penalty + optional jitter. The inter-ISP penalty models Section 3.4.3's
// finding that traffic crossing ISP boundaries competes for transit capacity
// and arrives later than intra-ISP traffic.
//
// Two ways to price a message:
//  * live_propagation(), propagation_over_km() and sample() are pure: no
//    mutable state, so any number of threads may share one model through
//    them. The engine prices every message this way, through a LinkCache
//    per execution lane.
//  * propagation()/one_way() add a one-entry (from, to) memo for callers
//    that price several messages between the same endpoints in a row (the
//    measurement study, micro-benchmarks). The memo makes these const
//    queries non-reentrant: do not call them on one model from several
//    threads at once.
// Every propagation is propagation_over_km(haversine_km(from, to)): one
// formula, whichever path a query takes.
//
// LinkCache memoizes each link's great-circle km and propagation. A
// simulation prices millions of messages, but they only travel on O(n)
// links (provider <-> server, parent <-> child, the supernode overlay,
// churn repairs), so each link's haversine is computed once, the first time
// a message uses it, and serves both the delay and the traffic meter's km.
// Entries hold exactly what haversine_km() and live_propagation() return,
// so caching can never change simulation output (enforced by latency_test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/geo.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace cdnsim::net {

struct LatencyConfig {
  double signal_speed_km_per_s = 200000.0;  // ~2/3 c in fibre
  double route_stretch = 1.5;               // paths are not great circles
  sim::SimTime base_delay_s = 0.002;        // NIC/stack/last-mile floor
  sim::SimTime inter_isp_penalty_mean_s = 0.0;  // extra mean delay across ISPs
  double jitter_fraction = 0.0;             // lognormal-ish multiplicative jitter
};

class LatencyModel {
 public:
  /// Throws cdnsim::PreconditionError naming the field when a config value
  /// is non-finite or out of range.
  explicit LatencyModel(LatencyConfig config);

  /// One-way propagation delay between two points (no jitter, no penalty),
  /// through the one-entry memo.
  sim::SimTime propagation(const GeoPoint& from, const GeoPoint& to) const;

  /// One-way delay sample including inter-ISP penalty and jitter, through
  /// the one-entry memo. `rng` may be shared; draws are only made when
  /// jitter/penalty are active.
  sim::SimTime one_way(const GeoPoint& from, const GeoPoint& to, bool crosses_isp,
                       util::Rng& rng) const;

  /// propagation() without the memo: pure, safe to call concurrently.
  sim::SimTime live_propagation(const GeoPoint& from, const GeoPoint& to) const;

  /// Propagation over a link of great-circle length `km`: base delay plus
  /// the stretched path at signal speed. Pure.
  sim::SimTime propagation_over_km(double km) const;

  /// Adds the inter-ISP penalty and jitter to a propagation delay; the rng
  /// draws are those of one_way(). Pure apart from `rng`.
  sim::SimTime sample(sim::SimTime propagation_s, bool crosses_isp,
                      util::Rng& rng) const;

  const LatencyConfig& config() const { return config_; }

 private:
  LatencyConfig config_;
  // One-entry (from, to) -> propagation memo. The stored value is what
  // live_propagation() returns (identical bits), so hits cannot perturb
  // results; mutable because it is a pure cache behind a const query.
  mutable GeoPoint memo_from_{};
  mutable GeoPoint memo_to_{};
  mutable sim::SimTime memo_s_ = 0;
  mutable bool memo_valid_ = false;
};

/// One link as the engine prices it: great-circle length and propagation.
struct LinkCost {
  double km = 0;                  // haversine_km between the endpoints
  sim::SimTime propagation_s = 0;  // LatencyModel::propagation_over_km(km)
};

/// Km and propagation per link, filled on first use. Keyed by the unordered
/// pair of site ids (the engine's site id is node id + 1), so both
/// directions share one entry. A fill computes haversine_km(higher id's
/// point, lower id's point); haversine is bit-symmetric, so the entry
/// equals haversine_km and LatencyModel::propagation in either order. Open
/// addressing with linear probing, power-of-two capacity, load factor
/// <= 1/2.
///
/// Not thread-safe: the engine gives each execution lane its own cache,
/// written only by events on that lane.
class LinkCache {
 public:
  LinkCache();

  /// The link between site `site_a` at point `a` and site `site_b` at point
  /// `b`: a table read on a hit, one haversine on a fill.
  LinkCost lookup(const LatencyModel& model, std::uint32_t site_a,
                  const GeoPoint& a, std::uint32_t site_b, const GeoPoint& b);

  /// Links filled so far.
  std::size_t size() const { return size_; }

 private:
  struct Entry {
    std::uint64_t key;
    LinkCost cost;
  };
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// Stores `e` in the first free slot of its probe sequence.
  void place(Entry e);

  std::vector<Entry> slots_;
  std::size_t size_ = 0;
};

}  // namespace cdnsim::net
