// The string-keyed JoinTreeEnumerator that preceded the interned,
// level-ordered one in hypergraph/join_graph.cc, kept as the oracle of
// join_tree_enumerator_test. The search is unchanged: a (size,
// lexicographic) std::set frontier of sorted name vectors, a visited set of
// every set ever enqueued, and a union-find keyed by relation name. Its
// reads of JoinGraph's private index arrays are replaced by the public
// equivalents: Neighbors() lists a relation's JC edges in the same
// (incident-edge) order IncidentEdges() does, and the distance floor runs
// its BFS over names.

#ifndef EVE_TESTS_LEGACY_JOIN_TREE_ENUMERATOR_H_
#define EVE_TESTS_LEGACY_JOIN_TREE_ENUMERATOR_H_

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "hypergraph/join_graph.h"
#include "mkb/constraints.h"

namespace eve {
namespace legacy {

// Union-find over relation names.
class UnionFind {
 public:
  void Add(const std::string& x) { parent_.emplace(x, x); }
  std::string Find(const std::string& x) {
    std::string root = x;
    while (parent_.at(root) != root) root = parent_.at(root);
    // Path compression.
    std::string cur = x;
    while (parent_.at(cur) != root) {
      std::string next = parent_.at(cur);
      parent_[cur] = root;
      cur = next;
    }
    return root;
  }
  // Returns true if a merge happened (they were separate).
  bool Unite(const std::string& a, const std::string& b) {
    const std::string ra = Find(a);
    const std::string rb = Find(b);
    if (ra == rb) return false;
    parent_[ra] = rb;
    return true;
  }

 private:
  std::unordered_map<std::string, std::string> parent_;
};

class JoinTreeEnumerator {
 public:
  JoinTreeEnumerator(const JoinGraph& graph, std::set<std::string> required,
                     std::vector<JoinConstraint> mandatory_edges,
                     const JoinTreeSearchOptions& options)
      : graph_(&graph),
        required_(std::move(required)),
        mandatory_edges_(std::move(mandatory_edges)),
        token_(options.token) {
    if (required_.empty()) return;  // frontier stays empty: exhausted
    for (const std::string& rel : required_) {
      if (!graph_->HasRelation(rel)) return;  // relation gone
    }
    // Fail fast on unreachable requests: a spanning tree can only exist
    // inside one connected component, so there is no point growing sets.
    const std::string& first = *required_.begin();
    for (const std::string& rel : required_) {
      if (!graph_->SameComponent(first, rel)) return;
    }
    for (const JoinConstraint& edge : mandatory_edges_) {
      if (required_.count(edge.lhs) == 0 || required_.count(edge.rhs) == 0) {
        return;  // mandatory edge endpoint outside the required set
      }
    }
    for (const JoinConstraint& edge : mandatory_edges_) {
      mandatory_ids_.insert(edge.id);
    }
    max_relations_ = required_.size() + options.max_extra_relations;

    // Static size floor: the largest pairwise BFS distance plus one.
    min_tree_size_ = required_.size();
    for (const std::string& source : required_) {
      std::map<std::string, size_t> dist;
      std::deque<std::string> queue{source};
      dist[source] = 0;
      while (!queue.empty()) {
        const std::string at = queue.front();
        queue.pop_front();
        for (const JoinGraph::Neighbor& neighbor : graph_->Neighbors(at)) {
          if (dist.count(neighbor.relation) > 0) continue;
          dist[neighbor.relation] = dist[at] + 1;
          queue.push_back(neighbor.relation);
        }
      }
      for (const std::string& target : required_) {
        min_tree_size_ = std::max(min_tree_size_, dist.at(target) + 1);
      }
    }

    std::vector<std::string> seed(required_.begin(), required_.end());
    visited_.insert(seed);
    frontier_.insert(std::move(seed));
  }

  std::optional<JoinTree> Next() {
    if (interrupted_) return std::nullopt;
    while (!frontier_.empty()) {
      if (!token_.Spend(1)) {
        interrupted_ = true;
        return std::nullopt;
      }
      const auto top = frontier_.begin();
      const std::vector<std::string> chosen = *top;
      frontier_.erase(top);
      ++sets_expanded_;

      std::optional<JoinTree> tree = TryBuildTree(chosen);
      if (tree.has_value()) {
        ++trees_yielded_;
        return tree;
      }
      if (chosen.size() >= max_relations_) {
        ++sets_cut_;
        continue;
      }
      // Grow by any relation adjacent to the current set.
      std::set<std::string> neighbors;
      for (const std::string& rel : chosen) {
        for (const JoinGraph::Neighbor& neighbor : graph_->Neighbors(rel)) {
          if (!std::binary_search(chosen.begin(), chosen.end(),
                                  neighbor.relation)) {
            neighbors.insert(neighbor.relation);
          }
        }
      }
      for (const std::string& neighbor : neighbors) {
        std::vector<std::string> next;
        next.reserve(chosen.size() + 1);
        const auto pos =
            std::lower_bound(chosen.begin(), chosen.end(), neighbor);
        next.insert(next.end(), chosen.begin(), pos);
        next.push_back(neighbor);
        next.insert(next.end(), pos, chosen.end());
        if (visited_.insert(next).second) {
          frontier_.insert(std::move(next));
        }
      }
    }
    return std::nullopt;
  }

  size_t NextTreeSizeLowerBound() const {
    if (frontier_.empty()) return static_cast<size_t>(-1);
    return std::max(frontier_.begin()->size(), min_tree_size_);
  }

  bool Exhausted() const { return frontier_.empty(); }
  bool interrupted() const { return interrupted_; }
  size_t sets_expanded() const { return sets_expanded_; }
  size_t sets_cut() const { return sets_cut_; }
  size_t trees_yielded() const { return trees_yielded_; }

 private:
  std::optional<JoinTree> TryBuildTree(
      const std::vector<std::string>& chosen) const {
    UnionFind uf;
    for (const std::string& rel : chosen) uf.Add(rel);
    JoinTree tree;
    tree.relations = chosen;
    for (const JoinConstraint& edge : mandatory_edges_) {
      uf.Unite(edge.lhs, edge.rhs);
      tree.edges.push_back(edge);
    }
    for (const std::string& rel : chosen) {
      for (const JoinGraph::Neighbor& neighbor : graph_->Neighbors(rel)) {
        const JoinConstraint& jc = neighbor.edge;
        if (!std::binary_search(chosen.begin(), chosen.end(),
                                jc.Other(rel))) {
          continue;
        }
        // Skip a JC already included as mandatory.
        if (mandatory_ids_.count(jc.id) > 0) continue;
        if (uf.Unite(jc.lhs, jc.rhs)) tree.edges.push_back(jc);
      }
    }
    const std::string root = uf.Find(chosen.front());
    for (const std::string& rel : chosen) {
      if (uf.Find(rel) != root) return std::nullopt;
    }
    return tree;
  }

  const JoinGraph* graph_;
  std::set<std::string> required_;
  std::vector<JoinConstraint> mandatory_edges_;
  std::set<std::string> mandatory_ids_;
  size_t max_relations_ = 0;
  size_t min_tree_size_ = 0;
  DeadlineToken token_;
  bool interrupted_ = false;

  struct SizeLexLess {
    bool operator()(const std::vector<std::string>& a,
                    const std::vector<std::string>& b) const {
      if (a.size() != b.size()) return a.size() < b.size();
      return a < b;
    }
  };
  std::set<std::vector<std::string>, SizeLexLess> frontier_;
  std::set<std::vector<std::string>> visited_;

  size_t sets_expanded_ = 0;
  size_t sets_cut_ = 0;
  size_t trees_yielded_ = 0;
};

}  // namespace legacy
}  // namespace eve

#endif  // EVE_TESTS_LEGACY_JOIN_TREE_ENUMERATOR_H_
