// Traffic accounting.
//
// Three cost views, matching the paper's three cost figures:
//   * traffic cost  = sum over messages of distance_km * size_KB (Figs 16-17,
//     the km*KB metric of [41]);
//   * network load  = sum of distance_km, split into update vs light
//     messages (Fig. 23);
//   * message counts, overall and per sender (Figs 22a/22b count update
//     messages overall and from the content provider).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/message.hpp"

namespace cdnsim::net {

using NodeId = std::int32_t;
inline constexpr NodeId kProviderNode = -1;

struct TrafficTotals {
  double cost_km_kb = 0;         // km * KB
  double load_km_update = 0;     // km of content-carrying messages
  double load_km_light = 0;      // km of light messages
  std::uint64_t update_messages = 0;
  std::uint64_t light_messages = 0;

  std::uint64_t total_messages() const { return update_messages + light_messages; }
  double load_km_total() const { return load_km_update + load_km_light; }
};

class TrafficMeter {
 public:
  /// Record a consistency-maintenance message. End-user traffic (kUserRequest
  /// / kUserResponse) is ignored: the paper meters maintenance traffic only.
  /// Throws cdnsim::PreconditionError for a negative distance or size, or a
  /// sender id below kProviderNode.
  void record(MessageKind kind, NodeId sender, double distance_km, double size_kb);

  const TrafficTotals& totals() const { return totals_; }

  /// Messages sent by one node (e.g. the content provider, Fig. 22b).
  TrafficTotals sender_totals(NodeId sender) const;

  /// Count of every record() call per message kind, *including* the
  /// non-maintenance kinds the cost totals ignore — the obs layer exports
  /// these so a figure's traffic numbers can be decomposed by kind.
  const std::array<std::uint64_t, kMessageKindCount>& kind_counts() const {
    return kind_counts_;
  }

  /// Adds another meter's accounting into this one (totals, per-sender
  /// totals, kind counts). Used to fold per-lane meters of a sharded run
  /// into the engine's published meter.
  void merge_from(const TrafficMeter& other);

  /// Recomputes `totals()` as the sum of per-sender totals in ascending
  /// sender order. Per-sender totals are accumulated wholly within one
  /// lane (single-writer), so after a merge this makes the grand totals a
  /// pure function of the per-sender sums — independent of how many lanes
  /// the messages were recorded on or in which interleaving.
  void rebuild_totals_from_senders();

  void reset();

 private:
  TrafficTotals totals_;
  // Indexed by sender + 1 (the provider is slot 0), grown on first record:
  // node ids are dense, so this stays as long as the largest sender id.
  std::vector<TrafficTotals> by_sender_;
  std::array<std::uint64_t, kMessageKindCount> kind_counts_{};
};

}  // namespace cdnsim::net
