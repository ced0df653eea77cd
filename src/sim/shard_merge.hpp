// Deterministic cross-shard message exchange.
//
// The sharded engine partitions nodes into lanes, each lane an independent
// Simulator driven to a common epoch barrier by a thread-pool worker. Any
// message that must hop between execution contexts is not delivered
// directly; the sender appends it to its *own lane's* staging row (wait-free,
// no cross-thread writes), and between epochs the driver flips the staging
// generation and hands each target lane its incoming column, sorted by the
// total order (arrival, sender, seq).
//
// The sort key is the determinism invariant (shard_merge_test): sender is
// the emitting NodeId and seq a per-sender emission counter, so the order —
// and therefore every downstream event sequence — is a pure function of the
// simulated history, never of which worker thread appended first. Arrival
// times are already epoch-quantized by the engine (>= the barrier after the
// send), which is what makes the per-lane histories independent within an
// epoch in the first place.
//
// Two generations let merge work overlap lane execution: while lanes run
// round k+1 (emitting into the write generation), each lane's worker also
// injects its round-k incoming messages from the read generation. The two
// never alias, and `take_incoming(t)` touches only column-t buckets, so
// per-target injection parallelizes without locks. Each target's column is
// sorted by the message keys alone, so a lane's injection order does not
// depend on which lanes the senders ran on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace cdnsim::sim {

class ShardMergeQueue {
 public:
  struct Message {
    SimTime arrival = 0;
    std::int32_t sender = 0;  ///< emitting node (providers < 0 allowed)
    std::uint64_t seq = 0;    ///< per-sender emission counter
    std::uint32_t target_lane = 0;
    EventTag tag = kUntaggedEvent;
    EventAction action;
  };

  explicit ShardMergeQueue(std::size_t lane_count);

  ShardMergeQueue(const ShardMergeQueue&) = delete;
  ShardMergeQueue& operator=(const ShardMergeQueue&) = delete;

  /// Appends to `lane`'s staging row in the write generation. Callers must
  /// only ever pass their own lane index — that is what makes emission
  /// wait-free and race-free.
  void emit(std::size_t lane, Message msg);

  /// Swaps the write and read generations. Driver-thread only, after the
  /// lanes have quiesced and after every `take_incoming` column of the
  /// previous read generation has been consumed.
  void flip();

  /// Total messages staged in the write generation. Driver-thread only,
  /// after the lanes have quiesced.
  std::size_t staged_count() const;

  /// Earliest arrival staged in the write generation, or +infinity when it
  /// is empty. Driver-thread only, after the lanes have quiesced. The
  /// sharded driver folds this into its epoch-barrier computation: staged
  /// messages count as pending events.
  SimTime min_staged_arrival() const;

  /// Messages bound for `target` in the read generation. Safe to call
  /// concurrently for distinct targets.
  std::size_t incoming_count(std::size_t target) const;

  /// Moves out the read generation's messages bound for `target`, sorted by
  /// (arrival, sender, seq). Safe to call concurrently for *distinct*
  /// targets: only column-`target` buckets are touched.
  std::vector<Message> take_incoming(std::size_t target);

  std::size_t lane_count() const { return generations_[0].size(); }

 private:
  // One cache line per bucket so concurrent `take_incoming` calls on
  // adjacent columns never false-share on the vector headers.
  struct alignas(64) Bucket {
    std::vector<Message> messages;
  };
  // One row per source lane; `min_arrival` is maintained by the emitting
  // lane alone and read by the driver after the quiesce barrier.
  struct alignas(64) Row {
    std::vector<Bucket> buckets;
    SimTime min_arrival = std::numeric_limits<SimTime>::infinity();
  };
  using Generation = std::vector<Row>;

  Generation& write_gen() { return generations_[write_index_]; }
  const Generation& write_gen() const { return generations_[write_index_]; }
  Generation& read_gen() { return generations_[1 - write_index_]; }
  const Generation& read_gen() const { return generations_[1 - write_index_]; }

  Generation generations_[2];
  int write_index_ = 0;
};

}  // namespace cdnsim::sim
