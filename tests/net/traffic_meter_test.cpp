#include "net/traffic_meter.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace cdnsim::net {
namespace {

TEST(MessageTest, ContentCarriers) {
  EXPECT_TRUE(carries_content(MessageKind::kPushUpdate));
  EXPECT_TRUE(carries_content(MessageKind::kPollResponseFresh));
  EXPECT_TRUE(carries_content(MessageKind::kFetchResponse));
  EXPECT_FALSE(carries_content(MessageKind::kPollRequest));
  EXPECT_FALSE(carries_content(MessageKind::kInvalidation));
  EXPECT_FALSE(carries_content(MessageKind::kPollResponseNoop));
}

TEST(MessageTest, NoopPollResponseCountsAsUpdate) {
  // Section 5.3 counts all polling responses as update messages.
  EXPECT_TRUE(counts_as_update(MessageKind::kPollResponseNoop));
  EXPECT_TRUE(counts_as_update(MessageKind::kPushUpdate));
  EXPECT_FALSE(counts_as_update(MessageKind::kPollRequest));
  EXPECT_FALSE(counts_as_update(MessageKind::kSwitchNotice));
}

TEST(MessageTest, UserTrafficIsNotMaintenance) {
  EXPECT_FALSE(is_maintenance(MessageKind::kUserRequest));
  EXPECT_FALSE(is_maintenance(MessageKind::kUserResponse));
  EXPECT_TRUE(is_maintenance(MessageKind::kPollRequest));
  EXPECT_TRUE(is_maintenance(MessageKind::kTreeMaintenance));
}

TEST(MessageTest, ToStringIsNonEmptyForAllKinds) {
  for (int k = 0; k <= static_cast<int>(MessageKind::kUserResponse); ++k) {
    EXPECT_FALSE(to_string(static_cast<MessageKind>(k)).empty());
  }
}

TEST(TrafficMeterTest, AccumulatesCostAndCounts) {
  TrafficMeter meter;
  meter.record(MessageKind::kPushUpdate, kProviderNode, 1000.0, 2.0);
  meter.record(MessageKind::kPollRequest, 3, 500.0, 1.0);
  const auto& t = meter.totals();
  EXPECT_DOUBLE_EQ(t.cost_km_kb, 2500.0);
  EXPECT_EQ(t.update_messages, 1u);
  EXPECT_EQ(t.light_messages, 1u);
  EXPECT_DOUBLE_EQ(t.load_km_update, 1000.0);
  EXPECT_DOUBLE_EQ(t.load_km_light, 500.0);
  EXPECT_DOUBLE_EQ(t.load_km_total(), 1500.0);
  EXPECT_EQ(t.total_messages(), 2u);
}

TEST(TrafficMeterTest, UserTrafficIgnored) {
  TrafficMeter meter;
  meter.record(MessageKind::kUserRequest, 1, 100.0, 1.0);
  meter.record(MessageKind::kUserResponse, 1, 100.0, 1.0);
  EXPECT_EQ(meter.totals().total_messages(), 0u);
  EXPECT_DOUBLE_EQ(meter.totals().cost_km_kb, 0.0);
}

TEST(TrafficMeterTest, PerSenderBreakdown) {
  TrafficMeter meter;
  meter.record(MessageKind::kPushUpdate, kProviderNode, 100.0, 1.0);
  meter.record(MessageKind::kPushUpdate, kProviderNode, 100.0, 1.0);
  meter.record(MessageKind::kPushUpdate, 5, 100.0, 1.0);
  EXPECT_EQ(meter.sender_totals(kProviderNode).update_messages, 2u);
  EXPECT_EQ(meter.sender_totals(5).update_messages, 1u);
  EXPECT_EQ(meter.sender_totals(99).update_messages, 0u);
}

TEST(TrafficMeterTest, ResetClearsEverything) {
  TrafficMeter meter;
  meter.record(MessageKind::kPushUpdate, 1, 100.0, 1.0);
  meter.reset();
  EXPECT_EQ(meter.totals().total_messages(), 0u);
  EXPECT_EQ(meter.sender_totals(1).update_messages, 0u);
}

TEST(TrafficMeterTest, NegativeInputsThrow) {
  TrafficMeter meter;
  EXPECT_THROW(meter.record(MessageKind::kPushUpdate, 1, -1.0, 1.0),
               cdnsim::PreconditionError);
  EXPECT_THROW(meter.record(MessageKind::kPushUpdate, 1, 1.0, -1.0),
               cdnsim::PreconditionError);
}

TEST(TrafficMeterTest, SenderBelowTheProviderThrows) {
  // Per-sender totals are indexed by sender + 1; the provider (-1) is the
  // lowest valid id.
  TrafficMeter meter;
  EXPECT_THROW(meter.record(MessageKind::kPushUpdate, -2, 1.0, 1.0),
               cdnsim::PreconditionError);
  EXPECT_THROW(meter.record(MessageKind::kUserRequest, -7, 1.0, 1.0),
               cdnsim::PreconditionError);
  EXPECT_EQ(meter.totals().total_messages(), 0u);
  EXPECT_EQ(meter.sender_totals(-2).update_messages, 0u);
  meter.record(MessageKind::kPushUpdate, kProviderNode, 1.0, 1.0);
  EXPECT_EQ(meter.sender_totals(kProviderNode).update_messages, 1u);
}

TEST(TrafficMeterTest, MergeAndRebuildSumSendersInAscendingOrder) {
  // Lanes meter disjoint senders; the merged meter's per-sender totals are
  // the lane sums and its grand totals are rebuilt from them.
  TrafficMeter a;
  TrafficMeter b;
  a.record(MessageKind::kPushUpdate, 3, 0.1, 1.0);
  b.record(MessageKind::kPollRequest, kProviderNode, 0.2, 1.0);
  b.record(MessageKind::kPushUpdate, 40, 0.3, 2.0);
  TrafficMeter merged;
  merged.merge_from(a);
  merged.merge_from(b);
  merged.rebuild_totals_from_senders();
  EXPECT_EQ(merged.sender_totals(3).update_messages, 1u);
  EXPECT_EQ(merged.sender_totals(40).cost_km_kb, 0.6);
  EXPECT_EQ(merged.sender_totals(kProviderNode).light_messages, 1u);
  EXPECT_EQ(merged.sender_totals(41).total_messages(), 0u);
  EXPECT_EQ(merged.totals().load_km_update, 0.1 + 0.3);
  EXPECT_EQ(merged.totals().load_km_light, 0.2);
  EXPECT_EQ(merged.totals().cost_km_kb, (0.2 + 0.1) + 0.6);
  EXPECT_EQ(merged.totals().total_messages(), 3u);
}

}  // namespace
}  // namespace cdnsim::net
