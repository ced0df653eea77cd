#include "sim/shard_merge.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace cdnsim::sim {

ShardMergeQueue::ShardMergeQueue(std::size_t lane_count) {
  CDNSIM_EXPECTS(lane_count > 0, "merge queue needs at least one lane");
  for (Generation& gen : generations_) {
    gen.resize(lane_count);
    for (Row& row : gen) row.buckets.resize(lane_count);
  }
}

void ShardMergeQueue::emit(std::size_t lane, Message msg) {
  Row& row = write_gen()[lane];
  if (msg.arrival < row.min_arrival) row.min_arrival = msg.arrival;
  row.buckets[msg.target_lane].messages.push_back(std::move(msg));
}

void ShardMergeQueue::flip() {
  // The previous read generation must be fully consumed before it can be
  // reused for staging; a leftover message here would silently time-travel
  // into a later round.
  for (Row& row : read_gen()) {
    for (const Bucket& bucket : row.buckets) {
      CDNSIM_EXPECTS(bucket.messages.empty(),
                     "flip() with unconsumed messages in the read generation");
    }
    row.min_arrival = std::numeric_limits<SimTime>::infinity();
  }
  write_index_ = 1 - write_index_;
}

std::size_t ShardMergeQueue::staged_count() const {
  std::size_t total = 0;
  for (const Row& row : write_gen()) {
    for (const Bucket& bucket : row.buckets) total += bucket.messages.size();
  }
  return total;
}

SimTime ShardMergeQueue::min_staged_arrival() const {
  SimTime min_arrival = std::numeric_limits<SimTime>::infinity();
  for (const Row& row : write_gen()) {
    if (row.min_arrival < min_arrival) min_arrival = row.min_arrival;
  }
  return min_arrival;
}

std::size_t ShardMergeQueue::incoming_count(std::size_t target) const {
  std::size_t total = 0;
  for (const Row& row : read_gen()) {
    total += row.buckets[target].messages.size();
  }
  return total;
}

std::vector<ShardMergeQueue::Message> ShardMergeQueue::take_incoming(
    std::size_t target) {
  // Touches only column-`target` buckets, so concurrent calls for distinct
  // targets share no mutable state (row.min_arrival is reset by the driver
  // in flip(), never here).
  std::vector<Message> merged;
  Generation& gen = read_gen();
  std::size_t total = 0;
  for (const Row& row : gen) total += row.buckets[target].messages.size();
  merged.reserve(total);
  for (Row& row : gen) {
    Bucket& bucket = row.buckets[target];
    for (Message& m : bucket.messages) merged.push_back(std::move(m));
    bucket.messages.clear();
  }
  // (sender, seq) pairs are unique, so this comparison is a strict total
  // order and the sort result does not depend on the pre-sort (thread
  // arrival) order of the concatenated buckets.
  std::sort(merged.begin(), merged.end(),
            [](const Message& a, const Message& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              if (a.sender != b.sender) return a.sender < b.sender;
              return a.seq < b.seq;
            });
  return merged;
}

}  // namespace cdnsim::sim
