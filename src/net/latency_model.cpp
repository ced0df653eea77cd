#include "net/latency_model.hpp"

#include <cmath>

#include "util/error.hpp"

namespace cdnsim::net {

namespace {

// splitmix64 finalizer: good avalanche for the packed site-id pairs.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

LatencyModel::LatencyModel(LatencyConfig config) : config_(config) {
  // NaN fails every comparison below; the isfinite checks catch +inf, which
  // would schedule messages that never arrive.
  CDNSIM_EXPECTS(std::isfinite(config_.signal_speed_km_per_s) &&
                     config_.signal_speed_km_per_s > 0,
                 "signal_speed_km_per_s must be finite and positive");
  CDNSIM_EXPECTS(std::isfinite(config_.route_stretch) && config_.route_stretch >= 1.0,
                 "route_stretch must be finite and >= 1");
  CDNSIM_EXPECTS(std::isfinite(config_.base_delay_s) && config_.base_delay_s >= 0,
                 "base_delay_s must be finite and non-negative");
  CDNSIM_EXPECTS(std::isfinite(config_.inter_isp_penalty_mean_s) &&
                     config_.inter_isp_penalty_mean_s >= 0,
                 "inter_isp_penalty_mean_s must be finite and non-negative");
  CDNSIM_EXPECTS(std::isfinite(config_.jitter_fraction) && config_.jitter_fraction >= 0,
                 "jitter_fraction must be finite and non-negative");
}

sim::SimTime LatencyModel::propagation_over_km(double km) const {
  return config_.base_delay_s +
         km * config_.route_stretch / config_.signal_speed_km_per_s;
}

sim::SimTime LatencyModel::live_propagation(const GeoPoint& from,
                                            const GeoPoint& to) const {
  return propagation_over_km(haversine_km(from, to));
}

sim::SimTime LatencyModel::propagation(const GeoPoint& from,
                                       const GeoPoint& to) const {
  if (memo_valid_ && memo_from_ == from && memo_to_ == to) return memo_s_;
  const sim::SimTime s = live_propagation(from, to);
  memo_from_ = from;
  memo_to_ = to;
  memo_s_ = s;
  memo_valid_ = true;
  return s;
}

sim::SimTime LatencyModel::sample(sim::SimTime propagation_s, bool crosses_isp,
                                  util::Rng& rng) const {
  sim::SimTime d = propagation_s;
  if (crosses_isp && config_.inter_isp_penalty_mean_s > 0) {
    d += rng.exponential(config_.inter_isp_penalty_mean_s);
  }
  if (config_.jitter_fraction > 0) {
    // Multiplicative jitter, never negative: U[1, 1 + 2*jitter_fraction)
    // keeps the mean at (1 + jitter_fraction) * d.
    d *= rng.uniform(1.0, 1.0 + 2.0 * config_.jitter_fraction);
  }
  return d;
}

sim::SimTime LatencyModel::one_way(const GeoPoint& from, const GeoPoint& to,
                                   bool crosses_isp, util::Rng& rng) const {
  return sample(propagation(from, to), crosses_isp, rng);
}

LinkCache::LinkCache() : slots_(64, Entry{kEmpty, {}}) {}

LinkCost LinkCache::lookup(const LatencyModel& model, std::uint32_t site_a,
                           const GeoPoint& a, std::uint32_t site_b,
                           const GeoPoint& b) {
  const bool a_high = site_a >= site_b;
  const std::uint64_t key =
      a_high ? (std::uint64_t{site_a} << 32) | site_b
             : (std::uint64_t{site_b} << 32) | site_a;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t pos = mix64(key) & mask;; pos = (pos + 1) & mask) {
    const Entry& slot = slots_[pos];
    // Empty is tested first, so a key equal to kEmpty can never read as a
    // hit; the fill below rejects it.
    if (slot.key == kEmpty) break;
    if (slot.key == key) return slot.cost;
  }
  CDNSIM_EXPECTS(key != kEmpty, "LinkCache: site id out of range");
  // Higher site id first whatever the direction, so the stored bits never
  // depend on which end of the link sent first.
  const double km = a_high ? haversine_km(a, b) : haversine_km(b, a);
  const LinkCost cost{km, model.propagation_over_km(km)};
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<Entry> old(2 * slots_.size(), Entry{kEmpty, {}});
    old.swap(slots_);
    for (const Entry& e : old) {
      if (e.key != kEmpty) place(e);
    }
  }
  place({key, cost});
  ++size_;
  return cost;
}

void LinkCache::place(Entry e) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t pos = mix64(e.key) & mask;
  while (slots_[pos].key != kEmpty) pos = (pos + 1) & mask;
  slots_[pos] = e;
}

}  // namespace cdnsim::net
