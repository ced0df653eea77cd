// Determinism tests for the epoch pipeline's merge-queue API.
//
// The sharded driver (engine.cpp run_sharded) exchanges cross-lane messages
// through double-buffered staging generations: lanes emit into the write
// generation while, concurrently, each lane's worker consumes its own column
// of the read generation via take_incoming(). The byte-identity guarantee
// survives only if
//   1. each take_incoming(t) column comes out sorted by (arrival, sender,
//      seq) and equals the target-t subsequence of a local oracle, the
//      emitted keys std::sort-ed by that order,
//   2. the handoff stays deterministic under randomized lane timing and
//      concurrent emission/injection — order must be a pure function of the
//      message keys, never of thread interleaving, and
//   3. flip() refuses to recycle a generation that still holds messages
//      (a leftover would silently time-travel into a later round).
// ShardPipeline* runs under the TSan tier as well (tier1.sh) to certify the
// emit / flip / take_incoming protocol race-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/shard_merge.hpp"
#include "util/error.hpp"
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

bool key_sorted(const Key& a, const Key& b) {
  return std::tie(a.arrival, a.sender, a.seq) <
         std::tie(b.arrival, b.sender, b.seq);
}

Key key_of(const ShardMergeQueue::Message& m) {
  return {m.arrival, m.sender, m.seq, m.target_lane};
}

// Message is move-only (it carries an InlineAction); the tests only care
// about the key fields, so a field-wise clone stands in for a copy.
ShardMergeQueue::Message clone(const ShardMergeQueue::Message& m) {
  ShardMergeQueue::Message c;
  c.arrival = m.arrival;
  c.sender = m.sender;
  c.seq = m.seq;
  c.target_lane = m.target_lane;
  return c;
}

// True when neither generation holds a message.
bool holds_nothing(const ShardMergeQueue& q) {
  if (q.staged_count() != 0) return false;
  for (std::size_t t = 0; t < q.lane_count(); ++t) {
    if (q.incoming_count(t) != 0) return false;
  }
  return true;
}

// A deterministic population with heavy arrival collisions (so sender/seq
// tie-breaks actually fire) and randomized target lanes.
std::vector<ShardMergeQueue::Message> make_population(std::uint64_t seed,
                                                      std::size_t count,
                                                      std::size_t lane_count) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> next_seq(9, 0);
  std::vector<ShardMergeQueue::Message> msgs;
  for (std::size_t i = 0; i < count; ++i) {
    ShardMergeQueue::Message m;
    m.arrival = static_cast<SimTime>(rng.index(5)) * 0.25;
    m.sender = static_cast<std::int32_t>(rng.index(9)) - 1;  // provider = -1
    m.seq = next_seq[static_cast<std::size_t>(m.sender + 1)]++;
    m.target_lane = static_cast<std::uint32_t>(rng.index(lane_count));
    msgs.push_back(std::move(m));
  }
  return msgs;
}

TEST(ShardPipelineTest, ColumnsEqualTargetSubsequencesOfGlobalDrain) {
  constexpr std::size_t kLanes = 4;
  const auto msgs = make_population(0x90ab, 400, kLanes);

  // Oracle: every emitted key, globally sorted.
  std::vector<Key> global_keys;
  for (const auto& m : msgs) global_keys.push_back(key_of(m));
  std::sort(global_keys.begin(), global_keys.end(), key_sorted);

  // Pipelined consumption: flip, then take each target's column.
  ShardMergeQueue piped(kLanes);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    piped.emit(i % kLanes, clone(msgs[i]));
  }
  piped.flip();
  std::size_t total = 0;
  for (std::uint32_t t = 0; t < kLanes; ++t) {
    std::vector<Key> expected;
    for (const Key& k : global_keys) {
      if (k.target == t) expected.push_back(k);
    }
    EXPECT_EQ(piped.incoming_count(t), expected.size());
    std::vector<Key> column;
    for (const auto& m : piped.take_incoming(t)) column.push_back(key_of(m));
    EXPECT_TRUE(std::is_sorted(column.begin(), column.end(), key_sorted));
    EXPECT_EQ(column, expected) << "target " << t;
    total += column.size();
  }
  EXPECT_EQ(total, msgs.size());
  EXPECT_TRUE(holds_nothing(piped));
}

TEST(ShardPipelineTest, OverlappedRoundsDeterministicUnderRandomizedTiming) {
  // The production shape, run hot: after each flip, every lane's worker
  // concurrently (a) consumes its own read-generation column and (b) emits
  // the next round's messages into its own write-generation row — with
  // randomized per-thread sleeps and yields so the interleaving differs run
  // to run. The per-target injection sequences must equal the
  // single-threaded reference every time.
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kRounds = 6;
  constexpr std::size_t kPerLane = 120;

  // Messages lane `lane` emits during round `round`: sender ids disjoint
  // across lanes (single-writer anchoring, like the engine), (sender, seq)
  // unique within the round's generation.
  auto lane_messages = [](std::size_t round, std::size_t lane) {
    util::Rng rng(0xc0de + round * 131 + lane);
    std::uint64_t seqs[2] = {0, 0};
    std::vector<ShardMergeQueue::Message> msgs;
    for (std::size_t k = 0; k < kPerLane; ++k) {
      ShardMergeQueue::Message m;
      m.arrival = static_cast<SimTime>(rng.index(4)) * 0.5;
      const std::size_t s = k % 2;
      m.sender = static_cast<std::int32_t>(lane * 100 + s);
      m.seq = seqs[s]++;
      m.target_lane = static_cast<std::uint32_t>(rng.index(kLanes));
      msgs.push_back(std::move(m));
    }
    return msgs;
  };

  // consumed[t] accumulates the injection order lane t would have seen.
  using Consumed = std::vector<std::vector<Key>>;
  auto run_once = [&](bool threaded, std::uint64_t timing_seed) {
    ShardMergeQueue q(kLanes);
    Consumed consumed(kLanes);
    // Round 0 is staged up front (the driver's first round has no incoming).
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      for (auto& m : lane_messages(0, lane)) q.emit(lane, std::move(m));
    }
    for (std::size_t round = 1; round <= kRounds; ++round) {
      q.flip();
      const bool emit_more = round < kRounds;
      if (threaded) {
        util::ThreadPool pool(kLanes);
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          pool.submit([&, lane] {
            util::Rng delay(timing_seed * 1000003 + round * 31 + lane);
            // Randomized start skew: some workers race ahead of others.
            std::this_thread::sleep_for(
                std::chrono::microseconds(delay.index(200)));
            auto col = q.take_incoming(lane);
            auto next = emit_more
                            ? lane_messages(round, lane)
                            : std::vector<ShardMergeQueue::Message>{};
            // Interleave consumption with emission of the next round.
            std::size_t e = 0;
            for (std::size_t i = 0; i < col.size(); ++i) {
              if (delay.index(16) == 0) std::this_thread::yield();
              consumed[lane].push_back(key_of(col[i]));
              while (e < next.size() && delay.index(3) == 0) {
                q.emit(lane, std::move(next[e++]));
              }
            }
            while (e < next.size()) q.emit(lane, std::move(next[e++]));
          });
        }
        pool.wait_idle();
      } else {
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          for (const auto& m : q.take_incoming(lane)) {
            consumed[lane].push_back(key_of(m));
          }
          if (emit_more) {
            for (auto& m : lane_messages(round, lane)) {
              q.emit(lane, std::move(m));
            }
          }
        }
      }
    }
    EXPECT_TRUE(holds_nothing(q));
    return consumed;
  };

  const Consumed reference = run_once(/*threaded=*/false, 0);
  std::size_t total = 0;
  for (const auto& column : reference) total += column.size();
  ASSERT_EQ(total, kRounds * kLanes * kPerLane);
  for (std::uint64_t round = 0; round < 3; ++round) {
    EXPECT_EQ(run_once(/*threaded=*/true, round + 1), reference)
        << "timing seed " << round + 1;
  }
}

TEST(ShardPipelineTest, StagingAccountingTracksEmitsAcrossFlips) {
  ShardMergeQueue q(2);
  EXPECT_EQ(q.staged_count(), 0u);
  EXPECT_EQ(q.min_staged_arrival(),
            std::numeric_limits<SimTime>::infinity());

  ShardMergeQueue::Message a;
  a.arrival = 2.5;
  a.sender = 0;
  a.seq = 0;
  a.target_lane = 1;
  q.emit(0, std::move(a));
  ShardMergeQueue::Message b;
  b.arrival = 0.75;
  b.sender = 1;
  b.seq = 0;
  b.target_lane = 0;
  q.emit(1, std::move(b));
  EXPECT_EQ(q.staged_count(), 2u);
  EXPECT_EQ(q.min_staged_arrival(), 0.75);

  q.flip();
  // Flipped messages are incoming, not staged: the write generation is
  // fresh, and the columns report per-target counts.
  EXPECT_EQ(q.staged_count(), 0u);
  EXPECT_EQ(q.min_staged_arrival(),
            std::numeric_limits<SimTime>::infinity());
  EXPECT_EQ(q.incoming_count(0), 1u);
  EXPECT_EQ(q.incoming_count(1), 1u);
  EXPECT_EQ(q.take_incoming(0).size(), 1u);
  EXPECT_EQ(q.take_incoming(1).size(), 1u);
  EXPECT_TRUE(holds_nothing(q));

  // min_staged_arrival resets after the round trip.
  ShardMergeQueue::Message c;
  c.arrival = 9.0;
  c.sender = 0;
  c.seq = 1;
  c.target_lane = 0;
  q.emit(0, std::move(c));
  EXPECT_EQ(q.min_staged_arrival(), 9.0);
}

TEST(ShardPipelineTest, FlipRefusesUnconsumedReadGeneration) {
  ShardMergeQueue q(2);
  ShardMergeQueue::Message m;
  m.arrival = 1.0;
  m.sender = 0;
  m.seq = 0;
  m.target_lane = 1;
  q.emit(0, std::move(m));
  q.flip();  // message now sits unconsumed in the read generation
  ShardMergeQueue::Message next;
  next.arrival = 2.0;
  next.sender = 0;
  next.seq = 1;
  next.target_lane = 0;
  q.emit(0, std::move(next));
  EXPECT_THROW(q.flip(), cdnsim::PreconditionError);
  // After consuming the column the flip goes through.
  EXPECT_EQ(q.take_incoming(1).size(), 1u);
  EXPECT_NO_THROW(q.flip());
  EXPECT_EQ(q.take_incoming(0).size(), 1u);
  EXPECT_TRUE(holds_nothing(q));
}

}  // namespace
}  // namespace cdnsim::sim
