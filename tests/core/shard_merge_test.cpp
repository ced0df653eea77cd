// Determinism tests for the cross-shard merge queue.
//
// The sharded engine's byte-identical-for-any-shard-count guarantee rests on
// one invariant: the order take_incoming() hands a target lane its messages
// in is a pure function of (arrival, sender, seq) — never of lane
// assignment, emission interleaving, or which worker thread appended first.
// These tests drive the queue with randomized message sets, permute how the
// same logical messages are spread across lanes and interleaved, and require
// every column to equal a local oracle: the emitted keys bound for that
// target, std::sort-ed by (arrival, sender, seq). ShardMerge* runs under the
// TSan tier as well (tier1.sh) to certify the emit/flip/take handoff
// race-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/shard_merge.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cdnsim::sim {
namespace {

struct Key {
  SimTime arrival;
  std::int32_t sender;
  std::uint64_t seq;
  std::uint32_t target;
  bool operator==(const Key& o) const {
    return arrival == o.arrival && sender == o.sender && seq == o.seq &&
           target == o.target;
  }
};

Key key_of(const ShardMergeQueue::Message& m) {
  return {m.arrival, m.sender, m.seq, m.target_lane};
}

std::vector<Key> keys_of(const std::vector<ShardMergeQueue::Message>& msgs) {
  std::vector<Key> keys;
  for (const auto& m : msgs) keys.push_back(key_of(m));
  return keys;
}

// The oracle: each target's keys sorted by (arrival, sender, seq), columns
// concatenated in target order.
std::vector<Key> expected_columns(std::vector<Key> keys,
                                  std::size_t lane_count) {
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return std::tie(a.arrival, a.sender, a.seq) <
           std::tie(b.arrival, b.sender, b.seq);
  });
  std::vector<Key> out;
  for (std::uint32_t t = 0; t < lane_count; ++t) {
    for (const Key& k : keys) {
      if (k.target == t) out.push_back(k);
    }
  }
  return out;
}

bool holds_nothing(const ShardMergeQueue& q) {
  if (q.staged_count() != 0) return false;
  for (std::size_t t = 0; t < q.lane_count(); ++t) {
    if (q.incoming_count(t) != 0) return false;
  }
  return true;
}

// Flips the staged messages into the read generation and consumes every
// target's column, concatenated in target order.
std::vector<Key> take_all_keys(ShardMergeQueue& q) {
  q.flip();
  std::vector<Key> keys;
  for (std::size_t t = 0; t < q.lane_count(); ++t) {
    const std::size_t announced = q.incoming_count(t);
    const auto column = q.take_incoming(t);
    EXPECT_EQ(column.size(), announced)
        << "incoming_count() disagrees with take_incoming() for lane " << t;
    for (const auto& m : column) keys.push_back(key_of(m));
  }
  EXPECT_TRUE(holds_nothing(q));
  return keys;
}

// A deterministic message population: per-sender seq counters, arrivals
// drawn with heavy collisions so the sender/seq tie-breaks actually fire.
std::vector<ShardMergeQueue::Message> make_population(std::uint64_t seed,
                                                      std::size_t count) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> next_seq(7, 0);
  std::vector<ShardMergeQueue::Message> msgs;
  for (std::size_t i = 0; i < count; ++i) {
    ShardMergeQueue::Message m;
    // Few distinct arrival values: most messages collide in time.
    m.arrival = static_cast<SimTime>(rng.index(5)) * 0.25;
    m.sender = static_cast<std::int32_t>(rng.index(7)) - 1;  // provider = -1
    m.seq = next_seq[static_cast<std::size_t>(m.sender + 1)]++;
    m.target_lane = 0;
    msgs.push_back(std::move(m));
  }
  return msgs;
}

TEST(ShardMergeTest, DrainOrderIsSortedByArrivalSenderSeq) {
  ShardMergeQueue q(3);
  auto msgs = make_population(0xabc, 200);
  const std::vector<Key> expected = expected_columns(keys_of(msgs), 3);
  util::Rng lanes(99);
  for (auto& m : msgs) q.emit(lanes.index(3), std::move(m));
  EXPECT_EQ(q.staged_count(), expected.size());
  const auto keys = take_all_keys(q);
  ASSERT_EQ(keys.size(), expected.size());
  EXPECT_EQ(keys, expected);
}

TEST(ShardMergeTest, OrderIndependentOfLaneAssignmentAndInterleaving) {
  // The same logical messages, spread across lanes differently and emitted
  // in a different order each round, must drain identically: the order is a
  // function of the keys alone.
  std::vector<Key> reference;
  for (std::uint64_t round = 0; round < 8; ++round) {
    auto msgs = make_population(0xf00d, 300);
    util::Rng shuffle_rng(round * 7919 + 1);
    // Fisher-Yates with the round-local RNG: a different emission order
    // (and lane spread) every round.
    for (std::size_t i = msgs.size(); i > 1; --i) {
      std::swap(msgs[i - 1], msgs[shuffle_rng.index(i)]);
    }
    const std::size_t lane_count = 1 + static_cast<std::size_t>(round % 4);
    ShardMergeQueue q(lane_count);
    const std::vector<Key> expected =
        expected_columns(keys_of(msgs), lane_count);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      q.emit(i % lane_count, std::move(msgs[i]));
    }
    const auto keys = take_all_keys(q);
    EXPECT_EQ(keys, expected) << "round " << round;
    if (reference.empty()) {
      reference = keys;
    } else {
      EXPECT_EQ(keys, reference) << "round " << round;
    }
  }
}

TEST(ShardMergeTest, ConcurrentPerLaneEmissionIsRaceFreeAndDeterministic) {
  // The production shape: each worker appends only to its own lane, the
  // driver drains after quiescence. Run it hot under TSan; the drained
  // order must equal the single-threaded reference.
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kPerLane = 500;

  // Per-sender seq counters local to the lane: sender ids are disjoint
  // across lanes (sender = lane * 1000 + k % 3), matching the engine's
  // single-writer node-to-lane anchoring.
  auto lane_messages = [](std::size_t lane) {
    std::vector<ShardMergeQueue::Message> msgs;
    std::uint64_t seqs[3] = {0, 0, 0};
    util::Rng rng(0x515 + lane);
    for (std::size_t k = 0; k < kPerLane; ++k) {
      ShardMergeQueue::Message m;
      m.arrival = static_cast<SimTime>(rng.index(4)) * 0.5;
      const std::size_t s = k % 3;
      m.sender = static_cast<std::int32_t>(lane * 1000 + s);
      m.seq = seqs[s]++;
      m.target_lane = static_cast<std::uint32_t>(k % kLanes);
      msgs.push_back(std::move(m));
    }
    return msgs;
  };
  std::vector<Key> emitted;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    const auto keys = keys_of(lane_messages(lane));
    emitted.insert(emitted.end(), keys.begin(), keys.end());
  }
  const std::vector<Key> expected = expected_columns(emitted, kLanes);

  auto build = [&](ShardMergeQueue& q, bool threaded) {
    auto emit_lane = [&q, &lane_messages](std::size_t lane) {
      for (auto& m : lane_messages(lane)) q.emit(lane, std::move(m));
    };
    if (threaded) {
      util::ThreadPool pool(kLanes);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        pool.submit([emit_lane, lane] { emit_lane(lane); });
      }
      pool.wait_idle();
    } else {
      for (std::size_t lane = 0; lane < kLanes; ++lane) emit_lane(lane);
    }
  };

  ShardMergeQueue serial(kLanes);
  build(serial, /*threaded=*/false);
  const auto reference = take_all_keys(serial);
  ASSERT_EQ(reference.size(), kLanes * kPerLane);
  EXPECT_EQ(reference, expected);

  for (int round = 0; round < 3; ++round) {
    ShardMergeQueue q(kLanes);
    build(q, /*threaded=*/true);
    EXPECT_EQ(take_all_keys(q), reference) << "round " << round;
  }
}

TEST(ShardMergeTest, DrainResetsAndPreservesActions) {
  ShardMergeQueue q(2);
  std::atomic<int> fired{0};
  for (int i = 0; i < 10; ++i) {
    ShardMergeQueue::Message m;
    m.arrival = 1.0;
    m.sender = i;
    m.seq = 0;
    m.action = [&fired] { fired.fetch_add(1, std::memory_order_relaxed); };
    q.emit(i % 2, std::move(m));
  }
  EXPECT_FALSE(holds_nothing(q));
  q.flip();
  EXPECT_EQ(q.incoming_count(0), 10u);
  EXPECT_EQ(q.incoming_count(1), 0u);
  auto drained = q.take_incoming(0);
  EXPECT_TRUE(q.take_incoming(1).empty());
  EXPECT_TRUE(holds_nothing(q));
  ASSERT_EQ(drained.size(), 10u);
  for (auto& m : drained) m.action();
  EXPECT_EQ(fired.load(), 10);
  // A drained queue is immediately reusable.
  EXPECT_TRUE(take_all_keys(q).empty());
  ShardMergeQueue::Message again;
  again.sender = 42;
  again.target_lane = 1;
  q.emit(1, std::move(again));
  EXPECT_FALSE(holds_nothing(q));
  EXPECT_EQ(take_all_keys(q).size(), 1u);
}

}  // namespace
}  // namespace cdnsim::sim
