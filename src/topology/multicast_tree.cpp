#include "topology/multicast_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cdnsim::topology {

namespace {

constexpr NodeId kNotInTree = std::numeric_limits<NodeId>::min();

// Slack on the nearest squared chord (unit sphere) within which a candidate
// still pays a haversine. Both the chord and the haversine's s term
// (chord^2 / 4) carry ~1e-15 relative error plus ~1e-15 * chord absolute
// error, so a candidate whose distance_km ties or beats the nearest chord's
// lies within ~1e-14 * (chord + chord^2) of it; these bounds sit orders of
// magnitude above that (1e-17 is a chord of ~2 cm) and still admit only
// near-exact ties.
constexpr double kChordRelSlack = 1e-8;
constexpr double kChordAbsSlack = 1e-17;

}  // namespace

MulticastTree::MulticastTree(const NodeRegistry& nodes, std::size_t fanout)
    : nodes_(&nodes),
      fanout_(fanout),
      parent_(nodes.server_count() + 1, kNotInTree),
      children_(nodes.server_count() + 1) {
  CDNSIM_EXPECTS(fanout_ >= 1, "tree fanout must be >= 1");
  unit_.reserve(nodes.server_count() + 1);
  for (NodeId id = kProviderNode; id < static_cast<NodeId>(nodes.server_count());
       ++id) {
    const net::GeoPoint& p = nodes.location(id);
    const double lat = net::deg_to_rad(p.lat_deg);
    const double lon = net::deg_to_rad(p.lon_deg);
    unit_.push_back({std::cos(lat) * std::cos(lon), std::cos(lat) * std::sin(lon),
                     std::sin(lat)});
  }
}

bool MulticastTree::in_registry(NodeId id) const {
  return id >= kProviderNode && slot(id) < unit_.size();
}

void MulticastTree::build(const std::vector<NodeId>& members) {
  for (NodeId id : members) join(id);
}

void MulticastTree::build_random(const std::vector<NodeId>& members, util::Rng& rng) {
  for (NodeId id : members) {
    CDNSIM_EXPECTS(in_registry(id), "MulticastTree: node id outside the registry");
    CDNSIM_EXPECTS(!contains(id) && id != kProviderNode, "node already in tree");
    // Collect nodes with spare capacity (root plus current members).
    std::vector<NodeId> candidates;
    if (has_capacity(kProviderNode)) candidates.push_back(kProviderNode);
    for (NodeId m : members_) {
      if (has_capacity(m)) candidates.push_back(m);
    }
    CDNSIM_EXPECTS(!candidates.empty(), "no node with spare capacity");
    attach(id, candidates[rng.index(candidates.size())]);
  }
}

void MulticastTree::join(NodeId id) {
  CDNSIM_EXPECTS(in_registry(id), "MulticastTree: node id outside the registry");
  CDNSIM_EXPECTS(!contains(id) && id != kProviderNode, "node already in tree");
  attach(id, nearest_with_capacity(id, nullptr));
}

std::size_t MulticastTree::remove(NodeId id) {
  CDNSIM_EXPECTS(contains(id), "cannot remove a node not in the tree");
  // Detach from parent.
  const NodeId parent = parent_[slot(id)];
  auto& siblings = children_[slot(parent)];
  siblings.erase(std::remove(siblings.begin(), siblings.end(), id), siblings.end());
  // Collect and detach children.
  std::vector<NodeId> orphans = std::move(children_[slot(id)]);
  children_[slot(id)].clear();
  parent_[slot(id)] = kNotInTree;
  // Detach orphans fully (parent link AND membership): a dangling orphan
  // must not be selectable as a parent while it has no path to the root,
  // or two orphans could adopt each other and form a cycle.
  for (NodeId c : orphans) parent_[slot(c)] = kNotInTree;
  members_.erase(std::remove_if(members_.begin(), members_.end(),
                                [&](NodeId m) { return !contains(m); }),
                 members_.end());

  // Each orphan rejoins with its whole subtree intact, picking its nearest
  // node with capacity (the paper's join rule). The orphan's own descendants
  // are still listed as members, so they must be excluded as candidate
  // parents or the orphan could attach below itself and form a cycle.
  // Process in ascending distance to the old parent so repairs stay local.
  std::sort(orphans.begin(), orphans.end(), [&](NodeId a, NodeId b) {
    return nodes_->distance_km(parent, a) < nodes_->distance_km(parent, b);
  });
  std::size_t edges_changed = 1;  // the removed node's own edge
  for (NodeId c : orphans) {
    std::vector<char> subtree(unit_.size(), 0);
    mark_subtree(c, subtree);
    attach(c, nearest_with_capacity(c, &subtree));
    ++edges_changed;
  }
  return edges_changed;
}

bool MulticastTree::contains(NodeId id) const {
  return id != kProviderNode && in_registry(id) && parent_[slot(id)] != kNotInTree;
}

NodeId MulticastTree::parent_of(NodeId id) const {
  CDNSIM_EXPECTS(contains(id), "node not in tree");
  return parent_[slot(id)];
}

const std::vector<NodeId>& MulticastTree::children_of(NodeId id) const {
  return in_registry(id) ? children_[slot(id)] : empty_;
}

std::size_t MulticastTree::depth_of(NodeId id) const {
  std::size_t depth = 0;
  NodeId cur = id;
  while (cur != kProviderNode) {
    cur = parent_of(cur);
    ++depth;
    CDNSIM_EXPECTS(depth <= size(), "cycle detected in tree");
  }
  return depth;
}

std::size_t MulticastTree::max_depth() const {
  std::size_t best = 0;
  for (NodeId id : members_) best = std::max(best, depth_of(id));
  return best;
}

double MulticastTree::total_edge_km() const {
  double km = 0;
  for (NodeId id : members_) km += nodes_->distance_km(id, parent_[slot(id)]);
  return km;
}

void MulticastTree::attach(NodeId id, NodeId parent) {
  parent_[slot(id)] = parent;
  children_[slot(parent)].push_back(id);
  members_.push_back(id);
}

void MulticastTree::mark_subtree(NodeId root, std::vector<char>& marks) const {
  marks[slot(root)] = 1;
  for (NodeId c : children_[slot(root)]) mark_subtree(c, marks);
}

// Two passes over the same candidates: the first finds the nearest squared
// chord, the second pays a haversine only for candidates within the slack
// of it and applies the linear scan's rule (strict <, provider first, then
// join order) to those. Chords and distance_km are both monotone in the
// true distance, so the haversine-nearest candidates, ties included, all
// fall inside the slack.
NodeId MulticastTree::nearest_with_capacity(NodeId joiner,
                                            const std::vector<char>* exclude) const {
  const UnitVector& j = unit_[slot(joiner)];
  const auto chord = [&](NodeId m) {
    const UnitVector& u = unit_[slot(m)];
    const double dx = u.x - j.x;
    const double dy = u.y - j.y;
    const double dz = u.z - j.z;
    return dx * dx + dy * dy + dz * dz;
  };
  const auto eligible = [&](NodeId m) {
    return has_capacity(m) && (exclude == nullptr || (*exclude)[slot(m)] == 0);
  };
  const bool provider_open = has_capacity(kProviderNode);
  double nearest = std::numeric_limits<double>::infinity();
  bool found = provider_open;
  if (provider_open) nearest = chord(kProviderNode);
  for (NodeId m : members_) {
    if (!eligible(m)) continue;
    nearest = std::min(nearest, chord(m));
    found = true;
  }
  CDNSIM_EXPECTS(found, "no node with spare capacity (fanout too small?)");

  const double bound = nearest + nearest * kChordRelSlack + kChordAbsSlack;
  NodeId best = kProviderNode;
  double best_km = std::numeric_limits<double>::infinity();
  if (provider_open && chord(kProviderNode) <= bound) {
    best_km = nodes_->distance_km(kProviderNode, joiner);
  }
  for (NodeId m : members_) {
    if (!eligible(m) || chord(m) > bound) continue;
    const double km = nodes_->distance_km(m, joiner);
    if (km < best_km) {
      best = m;
      best_km = km;
    }
  }
  return best;
}

}  // namespace cdnsim::topology
