#include "topology/multicast_tree.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>

#include "net/sites.hpp"
#include "util/error.hpp"

namespace cdnsim::topology {
namespace {

NodeRegistry make_world_registry(std::size_t n, std::uint64_t seed) {
  NodeInfo provider;
  provider.location = net::atlanta_site().location;
  NodeRegistry reg(provider);
  util::Rng rng(seed);
  const auto placements = net::place_nodes(n, net::PlacementConfig{}, rng);
  for (const auto& p : placements) reg.add_server({p.location, 0, p.site_index});
  return reg;
}

void check_valid_tree(const MulticastTree& tree, const NodeRegistry& reg,
                      std::size_t n) {
  EXPECT_EQ(tree.size(), n);
  std::size_t total_children = tree.children_of(kProviderNode).size();
  for (NodeId id : reg.server_ids()) {
    ASSERT_TRUE(tree.contains(id));
    EXPECT_LE(tree.children_of(id).size(), tree.fanout());
    total_children += tree.children_of(id).size();
    EXPECT_GE(tree.depth_of(id), 1u);  // also detects cycles via EXPECTS
  }
  EXPECT_LE(tree.children_of(kProviderNode).size(), tree.fanout());
  EXPECT_EQ(total_children, n);  // every node has exactly one parent edge
}

TEST(TreeTest, BinaryTreeIsValidAndBalancedDepth) {
  const auto reg = make_world_registry(170, 1);
  MulticastTree tree(reg, 2);
  tree.build(reg.server_ids());
  check_valid_tree(tree, reg, 170);
  // A 2-ary tree over 170 nodes needs depth >= 7; greedy proximity join is
  // not balanced, but must stay within a sane multiple.
  EXPECT_GE(tree.max_depth(), 7u);
  EXPECT_LE(tree.max_depth(), 90u);
}

TEST(TreeTest, FanoutOneIsAChain) {
  const auto reg = make_world_registry(10, 2);
  MulticastTree tree(reg, 1);
  tree.build(reg.server_ids());
  check_valid_tree(tree, reg, 10);
  EXPECT_EQ(tree.max_depth(), 10u);
}

TEST(TreeTest, LargeFanoutFormsProximityChains) {
  // With unlimited capacity the greedy rule still attaches each joiner to
  // its *nearest* node (the paper's join rule), so the tree is a proximity
  // tree, not a star: the provider keeps few direct children.
  const auto reg = make_world_registry(50, 3);
  MulticastTree tree(reg, 64);
  tree.build(reg.server_ids());
  check_valid_tree(tree, reg, 50);
  EXPECT_LT(tree.children_of(kProviderNode).size(), 50u);
  EXPECT_GE(tree.max_depth(), 2u);
}

TEST(TreeTest, ProximityBuildHasShorterEdgesThanRandom) {
  const auto reg = make_world_registry(200, 4);
  MulticastTree proximity(reg, 4);
  proximity.build(reg.server_ids());

  MulticastTree random_tree(reg, 4);
  util::Rng rng(5);
  random_tree.build_random(reg.server_ids(), rng);

  check_valid_tree(random_tree, reg, 200);
  EXPECT_LT(proximity.total_edge_km(), 0.6 * random_tree.total_edge_km());
}

TEST(TreeTest, RemoveReattachesOrphans) {
  const auto reg = make_world_registry(60, 6);
  MulticastTree tree(reg, 2);
  tree.build(reg.server_ids());
  // Remove a node that has children.
  NodeId victim = -1;
  for (NodeId id : reg.server_ids()) {
    if (!tree.children_of(id).empty()) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, -1);
  const std::size_t changed = tree.remove(victim);
  EXPECT_GE(changed, 2u);  // victim's edge + at least one orphan rejoin
  EXPECT_FALSE(tree.contains(victim));
  EXPECT_EQ(tree.size(), 59u);
  // Remaining tree must still be fully valid.
  for (NodeId id : reg.server_ids()) {
    if (id == victim) continue;
    ASSERT_TRUE(tree.contains(id));
    EXPECT_NE(tree.parent_of(id), victim);
    EXPECT_GE(tree.depth_of(id), 1u);
  }
}

TEST(TreeTest, RemoveLeafChangesOneEdge) {
  const auto reg = make_world_registry(30, 7);
  MulticastTree tree(reg, 3);
  tree.build(reg.server_ids());
  NodeId leaf = -1;
  for (NodeId id : reg.server_ids()) {
    if (tree.children_of(id).empty()) {
      leaf = id;
      break;
    }
  }
  ASSERT_NE(leaf, -1);
  EXPECT_EQ(tree.remove(leaf), 1u);
}

TEST(TreeTest, SequentialJoinEqualsBuild) {
  const auto reg = make_world_registry(40, 8);
  MulticastTree a(reg, 3);
  a.build(reg.server_ids());
  MulticastTree b(reg, 3);
  for (NodeId id : reg.server_ids()) b.join(id);
  for (NodeId id : reg.server_ids()) {
    EXPECT_EQ(a.parent_of(id), b.parent_of(id));
  }
}

TEST(TreeTest, DoubleJoinThrows) {
  const auto reg = make_world_registry(5, 9);
  MulticastTree tree(reg, 2);
  tree.join(0);
  EXPECT_THROW(tree.join(0), cdnsim::PreconditionError);
}

TEST(TreeTest, JoinOutsideTheRegistryThrows) {
  // The tree indexes nodes densely by id; an id the registry never had must
  // be refused by name, not read past the end of those arrays.
  const auto reg = make_world_registry(5, 9);
  MulticastTree tree(reg, 2);
  for (const NodeId bad : {NodeId{5}, NodeId{1000}, NodeId{-2},
                           std::numeric_limits<NodeId>::max(),
                           std::numeric_limits<NodeId>::min()}) {
    try {
      tree.join(bad);
      ADD_FAILURE() << "join(" << bad << ") did not throw";
    } catch (const cdnsim::PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("outside the registry"), std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(tree.contains(bad));
    EXPECT_TRUE(tree.children_of(bad).empty());
  }
  EXPECT_THROW(tree.remove(1000), cdnsim::PreconditionError);
  EXPECT_EQ(tree.size(), 0u);
}

TEST(TreeTest, RemoveUnknownThrows) {
  const auto reg = make_world_registry(5, 10);
  MulticastTree tree(reg, 2);
  EXPECT_THROW(tree.remove(0), cdnsim::PreconditionError);
}

TEST(TreeTest, ChurnSequencePreservesInvariants) {
  const auto reg = make_world_registry(80, 11);
  MulticastTree tree(reg, 2);
  tree.build(reg.server_ids());
  util::Rng rng(12);
  std::set<NodeId> removed;
  for (int round = 0; round < 20; ++round) {
    // Remove a random present node...
    NodeId id;
    do {
      id = static_cast<NodeId>(rng.index(80));
    } while (removed.count(id) > 0);
    tree.remove(id);
    removed.insert(id);
    // ... and re-join a previously removed one (not the same).
    if (removed.size() > 1) {
      const NodeId back = *removed.begin();
      if (back != id) {
        tree.join(back);
        removed.erase(back);
      }
    }
    for (NodeId s : reg.server_ids()) {
      if (removed.count(s)) continue;
      ASSERT_TRUE(tree.contains(s));
      ASSERT_GE(tree.depth_of(s), 1u);
      ASSERT_LE(tree.children_of(s).size(), 2u);
    }
  }
}

}  // namespace
}  // namespace cdnsim::topology
