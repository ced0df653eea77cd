// Proximity-aware d-ary multicast tree.
//
// The paper's multicast infrastructure (Section 4) connects geographically
// close nodes into a d-ary tree rooted at the content provider; Section 5.2
// uses the same construction for the supernode overlay ("newly-joined
// supernodes or supernodes having lost parents choose the nearest supernode
// that has fewer than k children as its parent"). We implement exactly that
// greedy join rule, plus failure repair (children of a failed node rejoin by
// the same rule) and a random (non-proximity) variant for the ablation.
//
// The join scans every member, so a build is O(n^2) candidate checks; each
// check is a dense-array read and a squared chord between precomputed unit
// vectors, and only candidates whose chord ties the nearest one (within a
// margin far above rounding error) pay a haversine, which decides. The
// chosen parent is therefore exactly the one a haversine-per-candidate scan
// would choose (tests/topology/tree_oracle_test.cpp holds that scan).
#pragma once

#include <cstdint>
#include <vector>

#include "topology/node.hpp"
#include "util/rng.hpp"

namespace cdnsim::topology {

class MulticastTree {
 public:
  /// `fanout` = d (max children per node, including the root). Positions
  /// are read from `nodes` here: servers added or moved afterwards cannot
  /// join (join() throws for an id outside the registry as it was).
  MulticastTree(const NodeRegistry& nodes, std::size_t fanout);

  /// Greedy proximity-aware join of all `members` in the given order.
  /// Members join one at a time; the first joiners attach to the root.
  void build(const std::vector<NodeId>& members);

  /// Same membership but parents chosen uniformly at random among nodes with
  /// spare capacity (ablation baseline: no proximity awareness).
  void build_random(const std::vector<NodeId>& members, util::Rng& rng);

  /// Join a single node by the greedy nearest-with-capacity rule.
  void join(NodeId id);

  /// Remove a node; its children rejoin greedily (closest first). Returns
  /// the number of tree-maintenance edges changed (for traffic accounting).
  std::size_t remove(NodeId id);

  bool contains(NodeId id) const;
  /// Parent in the tree; kProviderNode for first-layer nodes.
  NodeId parent_of(NodeId id) const;
  const std::vector<NodeId>& children_of(NodeId id) const;  // id may be provider
  /// Depth: first layer below the root is depth 1.
  std::size_t depth_of(NodeId id) const;
  std::size_t max_depth() const;
  std::size_t size() const { return members_.size(); }
  std::size_t fanout() const { return fanout_; }

  /// All member ids in join order.
  const std::vector<NodeId>& members() const { return members_; }

  /// Sum over edges of great-circle length, a tree-quality metric.
  double total_edge_km() const;

 private:
  struct UnitVector {
    double x, y, z;
  };
  /// Dense index of a node: the provider (kProviderNode = -1) is slot 0.
  static std::size_t slot(NodeId id) {
    return static_cast<std::size_t>(std::int64_t{id} + 1);
  }
  bool in_registry(NodeId id) const;

  void attach(NodeId id, NodeId parent);
  /// Nearest node with spare capacity; `exclude` (may be null, indexed by
  /// slot) marks nodes that must not be chosen (a rejoining orphan's own
  /// subtree). Ties go to the provider, then to the earliest joiner.
  NodeId nearest_with_capacity(NodeId joiner,
                               const std::vector<char>* exclude) const;
  void mark_subtree(NodeId root, std::vector<char>& marks) const;
  bool has_capacity(NodeId id) const { return children_[slot(id)].size() < fanout_; }

  const NodeRegistry* nodes_;
  std::size_t fanout_;
  // All indexed by slot and sized to the registry at construction.
  std::vector<UnitVector> unit_;
  std::vector<NodeId> parent_;  // kNotInTree for nodes outside the tree
  std::vector<std::vector<NodeId>> children_;
  std::vector<NodeId> members_;
  std::vector<NodeId> empty_;
};

}  // namespace cdnsim::topology
