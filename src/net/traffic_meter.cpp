#include "net/traffic_meter.hpp"

#include "util/error.hpp"

namespace cdnsim::net {

namespace {
void add(TrafficTotals& into, const TrafficTotals& from) {
  into.cost_km_kb += from.cost_km_kb;
  into.load_km_update += from.load_km_update;
  into.load_km_light += from.load_km_light;
  into.update_messages += from.update_messages;
  into.light_messages += from.light_messages;
}

void apply(TrafficTotals& t, MessageKind kind, double distance_km, double size_kb) {
  t.cost_km_kb += distance_km * size_kb;
  if (counts_as_update(kind)) {
    t.load_km_update += distance_km;
    ++t.update_messages;
  } else {
    t.load_km_light += distance_km;
    ++t.light_messages;
  }
}
}  // namespace

void TrafficMeter::record(MessageKind kind, NodeId sender, double distance_km,
                          double size_kb) {
  CDNSIM_EXPECTS(distance_km >= 0, "distance must be non-negative");
  CDNSIM_EXPECTS(size_kb >= 0, "size must be non-negative");
  CDNSIM_EXPECTS(sender >= kProviderNode, "sender id must be >= kProviderNode");
  ++kind_counts_[static_cast<std::size_t>(kind)];
  if (!is_maintenance(kind)) return;
  apply(totals_, kind, distance_km, size_kb);
  const auto slot = static_cast<std::size_t>(std::int64_t{sender} + 1);
  if (slot >= by_sender_.size()) by_sender_.resize(slot + 1);
  apply(by_sender_[slot], kind, distance_km, size_kb);
}

TrafficTotals TrafficMeter::sender_totals(NodeId sender) const {
  if (sender < kProviderNode) return {};
  const auto slot = static_cast<std::size_t>(std::int64_t{sender} + 1);
  return slot < by_sender_.size() ? by_sender_[slot] : TrafficTotals{};
}

void TrafficMeter::merge_from(const TrafficMeter& other) {
  add(totals_, other.totals_);
  if (other.by_sender_.size() > by_sender_.size()) {
    by_sender_.resize(other.by_sender_.size());
  }
  for (std::size_t s = 0; s < other.by_sender_.size(); ++s) {
    add(by_sender_[s], other.by_sender_[s]);
  }
  for (std::size_t k = 0; k < kind_counts_.size(); ++k) {
    kind_counts_[k] += other.kind_counts_[k];
  }
}

// Slots of senders that never sent add exact zeros (every total is >= +0),
// so walking all slots sums the same bits as walking only the senders.
void TrafficMeter::rebuild_totals_from_senders() {
  TrafficTotals rebuilt;
  for (const TrafficTotals& t : by_sender_) add(rebuilt, t);
  totals_ = rebuilt;
}

void TrafficMeter::reset() {
  totals_ = {};
  by_sender_.clear();
  kind_counts_.fill(0);
}

}  // namespace cdnsim::net
