// Direct unit/property tests of Infrastructure::fail_server /
// restore_server, independent of the engine: structural invariants must
// survive arbitrary fail/restore sequences on every infrastructure kind.
#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "engine_test_util.hpp"
#include "util/error.hpp"

namespace cdnsim::consistency {
namespace {

using testutil::small_scenario;

Infrastructure build(const topology::NodeRegistry& nodes, InfrastructureKind kind,
                     UpdateMethod method = UpdateMethod::kTtl) {
  util::Rng rng(5);
  MethodConfig mc;
  mc.method = method;
  InfrastructureConfig cfg;
  cfg.kind = kind;
  cfg.cluster_count = 8;
  return build_infrastructure(nodes, cfg, mc, rng);
}

/// Every live server must be reachable from the provider through live
/// nodes, have a consistent parent/children relationship, and appear in
/// exactly one children list.
void check_structure(const Infrastructure& infra, std::size_t n) {
  std::set<topology::NodeId> seen;
  std::vector<topology::NodeId> frontier{topology::kProviderNode};
  while (!frontier.empty()) {
    const auto node = frontier.back();
    frontier.pop_back();
    for (auto c : infra.children_of(node)) {
      ASSERT_TRUE(seen.insert(c).second) << "node " << c << " reached twice";
      ASSERT_FALSE(infra.is_failed(c)) << "failed node still attached";
      ASSERT_EQ(infra.parent_of(c), node);
      frontier.push_back(c);
    }
  }
  std::size_t live = 0;
  for (topology::NodeId s = 0; s < static_cast<topology::NodeId>(n); ++s) {
    if (!infra.is_failed(s)) ++live;
  }
  EXPECT_EQ(seen.size(), live) << "live node unreachable from provider";
}

// The kind, wrapped so gtest prints its name rather than the enum's raw
// bytes into the ctest name.
struct KindCase {
  InfrastructureKind kind;
};

void PrintTo(const KindCase& c, std::ostream* os) { *os << to_string(c.kind); }

class InfraChurnProperty : public ::testing::TestWithParam<KindCase> {};

TEST_P(InfraChurnProperty, RandomFailRestoreSequencePreservesStructure) {
  const auto scenario = small_scenario(40);
  auto infra =
      build(*scenario.nodes, GetParam().kind, UpdateMethod::kSelfAdaptive);
  util::Rng rng(99);
  std::set<topology::NodeId> down;
  for (int step = 0; step < 200; ++step) {
    const bool do_fail = down.size() < 20 && (down.empty() || rng.chance(0.5));
    if (do_fail) {
      topology::NodeId victim;
      do {
        victim = static_cast<topology::NodeId>(rng.index(40));
      } while (down.count(victim) > 0);
      infra.fail_server(victim, rng);
      down.insert(victim);
    } else {
      const auto it = down.begin();
      infra.restore_server(*it, rng);
      down.erase(it);
    }
    check_structure(infra, 40);
  }
  // Bring everyone back: the full structure must be restored.
  while (!down.empty()) {
    const auto it = down.begin();
    infra.restore_server(*it, rng);
    down.erase(it);
  }
  check_structure(infra, 40);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, InfraChurnProperty,
                         ::testing::Values(
                             KindCase{InfrastructureKind::kUnicast},
                             KindCase{InfrastructureKind::kMulticastTree},
                             KindCase{InfrastructureKind::kHybridSupernode}),
                         [](const ::testing::TestParamInfo<KindCase>& info) {
                           return std::string(to_string(info.param.kind));
                         });

TEST(InfraChurnTest, SupernodeFailurePromotesClusterMember) {
  const auto scenario = small_scenario(40);
  auto infra = build(*scenario.nodes, InfrastructureKind::kHybridSupernode,
                     UpdateMethod::kSelfAdaptive);
  util::Rng rng(3);
  const topology::NodeId old_sn = infra.cluster_supernode[0];
  const auto report = infra.fail_server(old_sn, rng);
  ASSERT_TRUE(report.promoted_supernode.has_value());
  const topology::NodeId new_sn = *report.promoted_supernode;
  EXPECT_NE(new_sn, old_sn);
  EXPECT_EQ(infra.clustering->cluster_of[static_cast<std::size_t>(new_sn)], 0u);
  EXPECT_TRUE(infra.is_supernode[static_cast<std::size_t>(new_sn)]);
  EXPECT_EQ(infra.method_of(new_sn), UpdateMethod::kPush);
  EXPECT_FALSE(infra.is_supernode[static_cast<std::size_t>(old_sn)]);
  // Live members of cluster 0 now attach to the new supernode.
  for (topology::NodeId m : infra.clustering->members[0]) {
    if (m == new_sn || infra.is_failed(m)) continue;
    EXPECT_EQ(infra.parent_of(m), new_sn);
  }
}

TEST(InfraChurnTest, ExSupernodeRejoinsAsMember) {
  const auto scenario = small_scenario(40);
  auto infra = build(*scenario.nodes, InfrastructureKind::kHybridSupernode,
                     UpdateMethod::kSelfAdaptive);
  util::Rng rng(4);
  const topology::NodeId old_sn = infra.cluster_supernode[2];
  infra.fail_server(old_sn, rng);
  const topology::NodeId new_sn = infra.cluster_supernode[2];
  const auto report = infra.restore_server(old_sn, rng);
  EXPECT_FALSE(report.promoted_supernode.has_value());
  EXPECT_EQ(infra.parent_of(old_sn), new_sn);
  EXPECT_EQ(infra.method_of(old_sn), UpdateMethod::kSelfAdaptive);
}

TEST(InfraChurnTest, WholeClusterDownThenFirstReturnerIsSupernode) {
  const auto scenario = small_scenario(32);
  auto infra = build(*scenario.nodes, InfrastructureKind::kHybridSupernode,
                     UpdateMethod::kTtl);
  util::Rng rng(6);
  const auto members = infra.clustering->members[1];
  for (topology::NodeId m : members) infra.fail_server(m, rng);
  EXPECT_LT(infra.cluster_supernode[1], 0);  // orphaned
  const auto report = infra.restore_server(members.front(), rng);
  ASSERT_TRUE(report.promoted_supernode.has_value());
  EXPECT_EQ(*report.promoted_supernode, members.front());
  EXPECT_EQ(infra.cluster_supernode[1], members.front());
}

TEST(InfraChurnTest, DoubleFailOrRestoreThrows) {
  const auto scenario = small_scenario(10);
  auto infra = build(*scenario.nodes, InfrastructureKind::kUnicast);
  util::Rng rng(7);
  infra.fail_server(3, rng);
  EXPECT_THROW(infra.fail_server(3, rng), cdnsim::PreconditionError);
  infra.restore_server(3, rng);
  EXPECT_THROW(infra.restore_server(3, rng), cdnsim::PreconditionError);
}

TEST(InfraChurnTest, MaintenanceEdgesReportedOnRepair) {
  const auto scenario = small_scenario(40);
  auto infra = build(*scenario.nodes, InfrastructureKind::kMulticastTree,
                     UpdateMethod::kPush);
  util::Rng rng(8);
  // Find an interior node (has children) and fail it.
  topology::NodeId interior = -1;
  for (topology::NodeId s = 0; s < 40; ++s) {
    if (!infra.children_of(s).empty()) {
      interior = s;
      break;
    }
  }
  ASSERT_NE(interior, -1);
  const std::size_t orphan_count = infra.children_of(interior).size();
  const auto report = infra.fail_server(interior, rng);
  EXPECT_EQ(report.new_edges.size(), orphan_count);
}

}  // namespace
}  // namespace cdnsim::consistency
