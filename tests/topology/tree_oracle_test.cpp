// MulticastTree against a linear-scan oracle.
//
// The oracle below is the plain greedy join: every candidate parent (the
// provider first, then members in join order) pays one distance_km, and a
// strictly smaller distance replaces the best so far.
// The tree under test must pick the same parent for every join, orphan
// rejoin and random attach, so trees built from the same inputs stay
// bit-identical. The registries stress the cases where a cheaper distance
// proxy could disagree with distance_km: exact ties between co-located
// servers, mirror-image candidates whose distances tie while their chords
// differ in the last bits, the poles, antipodes and duplicate points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/sites.hpp"
#include "topology/multicast_tree.hpp"
#include "util/error.hpp"

namespace cdnsim::topology {
namespace {

class LinearScanTree {
 public:
  LinearScanTree(const NodeRegistry& nodes, std::size_t fanout)
      : nodes_(&nodes), fanout_(fanout) {}

  void build(const std::vector<NodeId>& members) {
    for (NodeId id : members) join(id);
  }

  void build_random(const std::vector<NodeId>& members, util::Rng& rng) {
    for (NodeId id : members) {
      std::vector<NodeId> candidates;
      if (has_capacity(kProviderNode)) candidates.push_back(kProviderNode);
      for (NodeId m : members_) {
        if (has_capacity(m)) candidates.push_back(m);
      }
      attach(id, candidates[rng.index(candidates.size())]);
    }
  }

  void join(NodeId id) { attach(id, nearest_with_capacity(id, nullptr)); }

  void remove(NodeId id) {
    const NodeId parent = parent_.at(id);
    auto& siblings = children_[parent];
    siblings.erase(std::remove(siblings.begin(), siblings.end(), id), siblings.end());
    std::vector<NodeId> orphans = children_[id];
    children_.erase(id);
    parent_.erase(id);
    members_.erase(std::remove(members_.begin(), members_.end(), id), members_.end());
    for (NodeId c : orphans) {
      parent_.erase(c);
      members_.erase(std::remove(members_.begin(), members_.end(), c), members_.end());
    }
    std::sort(orphans.begin(), orphans.end(), [&](NodeId a, NodeId b) {
      return nodes_->distance_km(parent, a) < nodes_->distance_km(parent, b);
    });
    for (NodeId c : orphans) {
      std::unordered_set<NodeId> subtree;
      collect_subtree(c, subtree);
      attach(c, nearest_with_capacity(c, &subtree));
    }
  }

  bool contains(NodeId id) const { return parent_.count(id) > 0; }
  NodeId parent_of(NodeId id) const { return parent_.at(id); }
  const std::vector<NodeId>& children_of(NodeId id) const {
    const auto it = children_.find(id);
    return it == children_.end() ? empty_ : it->second;
  }
  const std::vector<NodeId>& members() const { return members_; }

 private:
  void attach(NodeId id, NodeId parent) {
    parent_[id] = parent;
    children_[parent].push_back(id);
    members_.push_back(id);
  }

  bool has_capacity(NodeId id) const { return children_of(id).size() < fanout_; }

  void collect_subtree(NodeId root, std::unordered_set<NodeId>& out) const {
    out.insert(root);
    for (NodeId c : children_of(root)) collect_subtree(c, out);
  }

  NodeId nearest_with_capacity(NodeId joiner,
                               const std::unordered_set<NodeId>* exclude) const {
    NodeId best = kProviderNode;
    double best_km = std::numeric_limits<double>::infinity();
    if (has_capacity(kProviderNode)) {
      best_km = nodes_->distance_km(kProviderNode, joiner);
    }
    for (NodeId m : members_) {
      if (!has_capacity(m)) continue;
      if (exclude != nullptr && exclude->count(m) > 0) continue;
      const double km = nodes_->distance_km(m, joiner);
      if (km < best_km) {
        best = m;
        best_km = km;
      }
    }
    return best;
  }

  const NodeRegistry* nodes_;
  std::size_t fanout_;
  std::unordered_map<NodeId, NodeId> parent_;
  std::unordered_map<NodeId, std::vector<NodeId>> children_;
  std::vector<NodeId> members_;
  std::vector<NodeId> empty_;
};

// Same members in the same join order, same parent and same child order
// for every node.
void expect_same_tree(const MulticastTree& tree, const LinearScanTree& oracle,
                      const NodeRegistry& reg) {
  ASSERT_EQ(tree.members(), oracle.members());
  ASSERT_EQ(tree.size(), oracle.members().size());
  ASSERT_EQ(tree.children_of(kProviderNode), oracle.children_of(kProviderNode));
  for (NodeId id : reg.server_ids()) {
    ASSERT_EQ(tree.contains(id), oracle.contains(id)) << "node " << id;
    if (!oracle.contains(id)) continue;
    ASSERT_EQ(tree.parent_of(id), oracle.parent_of(id)) << "node " << id;
    ASSERT_EQ(tree.children_of(id), oracle.children_of(id)) << "node " << id;
  }
}

NodeRegistry placed_registry(std::size_t n, double jitter_deg, std::uint64_t seed) {
  NodeInfo provider;
  provider.location = net::atlanta_site().location;
  NodeRegistry reg(provider);
  net::PlacementConfig cfg;
  cfg.jitter_deg = jitter_deg;
  util::Rng rng(seed);
  for (const auto& p : net::place_nodes(n, cfg, rng)) {
    reg.add_server({p.location, 0, p.site_index});
  }
  return reg;
}

// Clusters of mirror images: a centre and pairs at +-k degrees of longitude
// on its parallel (haversine distances to the centre tie exactly, chords
// need not), plus points on both poles, antipodes of earlier points and
// exact duplicates. The provider sits on the north pole.
NodeRegistry hand_placed_registry() {
  NodeInfo provider;
  provider.location = {90.0, 0.0};
  NodeRegistry reg(provider);
  auto add = [&](double lat, double lon) { reg.add_server({{lat, lon}, 0, 0}); };
  for (int c = 0; c < 12; ++c) {
    const double lat = -55.0 + 10.0 * c;
    const double lon = -165.0 + 30.0 * c;
    for (int k = 1; k <= 3; ++k) {
      add(lat, lon + k);
      add(lat, lon - k);
      add(lat, lon + 0.25 * k);
      add(lat, lon - 0.25 * k);
    }
    add(lat, lon);
    add(lat, lon);  // duplicate of the centre
  }
  for (int k = 0; k < 8; ++k) {
    add(90.0, -180.0 + 45.0 * k);
    add(-90.0, -180.0 + 45.0 * k);
    add(89.999999, 45.0 * k);
  }
  const std::size_t before = reg.server_count();
  for (std::size_t i = 0; i < before; i += 3) {
    const net::GeoPoint p = reg.location(static_cast<NodeId>(i));
    add(-p.lat_deg, p.lon_deg > 0 ? p.lon_deg - 180.0 : p.lon_deg + 180.0);
  }
  add(0.0, 180.0);
  add(0.0, -180.0);
  add(0.0, 0.0);
  add(0.0, 0.0);
  return reg;
}

std::vector<NodeId> shuffled_ids(const NodeRegistry& reg, std::uint64_t seed) {
  std::vector<NodeId> order = reg.server_ids();
  util::Rng rng(seed);
  rng.shuffle(order);
  return order;
}

// Builds both trees in a shuffled order, then runs seeded rounds of
// remove (orphans rejoin around their excluded subtrees) and join,
// comparing after every step.
void check_build_and_churn(const NodeRegistry& reg, std::size_t fanout,
                           std::uint64_t seed, int churn_rounds) {
  SCOPED_TRACE("fanout " + std::to_string(fanout) + ", " +
               std::to_string(reg.server_count()) + " servers, seed " +
               std::to_string(seed));
  const std::vector<NodeId> order = shuffled_ids(reg, seed);
  MulticastTree tree(reg, fanout);
  LinearScanTree oracle(reg, fanout);
  tree.build(order);
  oracle.build(order);
  expect_same_tree(tree, oracle, reg);

  util::Rng rng(seed + 1);
  std::vector<NodeId> absent;
  for (int round = 0; round < churn_rounds; ++round) {
    const std::vector<NodeId>& present = oracle.members();
    if (!present.empty() && (absent.empty() || rng.index(3) != 0)) {
      const NodeId victim = present[rng.index(present.size())];
      tree.remove(victim);
      oracle.remove(victim);
      absent.push_back(victim);
    } else {
      const std::size_t k = rng.index(absent.size());
      const NodeId back = absent[k];
      absent.erase(absent.begin() + static_cast<std::ptrdiff_t>(k));
      tree.join(back);
      oracle.join(back);
    }
    SCOPED_TRACE("after churn round " + std::to_string(round));
    expect_same_tree(tree, oracle, reg);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(TreeOracleTest, PlacedRegistriesMatchTheScan) {
  std::uint64_t seed = 100;
  for (const std::size_t n : {std::size_t{50}, std::size_t{170}, std::size_t{850}}) {
    const NodeRegistry reg = placed_registry(n, net::PlacementConfig{}.jitter_deg, n);
    for (const std::size_t fanout : {1u, 2u, 4u, 64u}) {
      check_build_and_churn(reg, fanout, ++seed, 40);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(TreeOracleTest, CoLocatedServersTieByJoinOrder) {
  // jitter_deg = 0 puts every server of a world site on the same point, so
  // distances tie exactly and the earliest joiner must win.
  std::uint64_t seed = 200;
  for (const std::size_t n : {std::size_t{50}, std::size_t{170}, std::size_t{850}}) {
    const NodeRegistry reg = placed_registry(n, 0.0, n + 1);
    for (const std::size_t fanout : {1u, 2u, 4u, 64u}) {
      check_build_and_churn(reg, fanout, ++seed, 40);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(TreeOracleTest, PolesAntipodesAndMirrorImagesMatchTheScan) {
  const NodeRegistry reg = hand_placed_registry();
  std::uint64_t seed = 300;
  for (const std::size_t fanout : {1u, 2u, 4u, 64u}) {
    for (int rep = 0; rep < 4; ++rep) {
      check_build_and_churn(reg, fanout, ++seed, 60);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(TreeOracleTest, FullScaleRegistriesMatchTheScan) {
  for (const double jitter : {net::PlacementConfig{}.jitter_deg, 0.0}) {
    const NodeRegistry reg = placed_registry(2550, jitter, 2550);
    check_build_and_churn(reg, 4, 400, 20);
    if (HasFatalFailure()) return;
  }
}

TEST(TreeOracleTest, BuildRandomMatchesForTheSameRng) {
  const NodeRegistry reg = placed_registry(170, net::PlacementConfig{}.jitter_deg, 7);
  for (const std::size_t fanout : {1u, 2u, 4u, 64u}) {
    const std::vector<NodeId> order = shuffled_ids(reg, fanout);
    MulticastTree tree(reg, fanout);
    LinearScanTree oracle(reg, fanout);
    util::Rng rng_tree(fanout + 10);
    util::Rng rng_oracle(fanout + 10);
    tree.build_random(order, rng_tree);
    oracle.build_random(order, rng_oracle);
    expect_same_tree(tree, oracle, reg);
    EXPECT_EQ(rng_tree.engine()(), rng_oracle.engine()());
  }
}

}  // namespace
}  // namespace cdnsim::topology
