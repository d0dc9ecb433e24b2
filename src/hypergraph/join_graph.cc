#include "hypergraph/join_graph.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "common/str_util.h"

namespace eve {

std::string JoinTree::ToString() const {
  if (relations.empty()) return "(empty)";
  std::ostringstream os;
  os << relations[0];
  // Render edges in order; each edge mentions both endpoints, so a linear
  // rendering lists relations via the edges.
  for (const JoinConstraint& edge : edges) {
    os << " ⋈[" << edge.id << "] (" << edge.lhs << "," << edge.rhs << ")";
  }
  return os.str();
}

JoinGraph JoinGraph::Build(const Mkb& mkb) {
  JoinGraph graph;
  graph.relations_ = mkb.catalog().RelationNames();
  graph.external_edges_ = &mkb.join_constraints();
  graph.IndexParts();
  return graph;
}

size_t JoinGraph::IndexOf(const std::string& relation) const {
  const auto it =
      std::lower_bound(relations_.begin(), relations_.end(), relation);
  if (it == relations_.end() || *it != relation) return kNpos;
  return static_cast<size_t>(it - relations_.begin());
}

void JoinGraph::IndexParts() {
  const std::vector<JoinConstraint>& edges = Edges();
  // Construction-time interning: hash each relation name once and each
  // edge endpoint once. The map is scratch — queries afterwards use
  // IndexOf's binary search over the sorted relations_.
  std::unordered_map<std::string, size_t> intern;
  intern.reserve(relations_.size());
  for (size_t i = 0; i < relations_.size(); ++i) {
    intern.emplace(relations_[i], i);
  }
  // A JC may mention a relation the catalog no longer lists; keep it a
  // node (the old string-keyed adjacency did implicitly).
  bool appended = false;
  for (const JoinConstraint& jc : edges) {
    for (const std::string* end : {&jc.lhs, &jc.rhs}) {
      if (intern.emplace(*end, relations_.size()).second) {
        relations_.push_back(*end);
        appended = true;
      }
    }
  }
  if (appended) {
    std::sort(relations_.begin(), relations_.end());
    intern.clear();
    for (size_t i = 0; i < relations_.size(); ++i) {
      intern.emplace(relations_[i], i);
    }
  }
  const size_t num_relations = relations_.size();
  endpoints_.resize(edges.size());
  std::vector<size_t> degree(num_relations, 0);
  for (size_t i = 0; i < edges.size(); ++i) {
    const size_t lhs = intern.at(edges[i].lhs);
    const size_t rhs = intern.at(edges[i].rhs);
    endpoints_[i] = {lhs, rhs};
    ++degree[lhs];
    ++degree[rhs];
  }
  adj_offsets_.assign(num_relations + 1, 0);
  for (size_t i = 0; i < num_relations; ++i) {
    adj_offsets_[i + 1] = adj_offsets_[i] + degree[i];
  }
  adj_edges_.resize(2 * edges.size());
  std::vector<size_t> cursor(adj_offsets_.begin(), adj_offsets_.end() - 1);
  for (size_t i = 0; i < edges.size(); ++i) {
    adj_edges_[cursor[endpoints_[i].first]++] = i;
    adj_edges_[cursor[endpoints_[i].second]++] = i;
  }
  // Connected components: BFS over relation indices.
  component_id_.assign(num_relations, kNpos);
  size_t next_id = 0;
  std::deque<size_t> frontier;
  for (size_t start = 0; start < num_relations; ++start) {
    if (component_id_[start] != kNpos) continue;
    const size_t id = next_id++;
    component_id_[start] = id;
    frontier.assign(1, start);
    while (!frontier.empty()) {
      const size_t current = frontier.front();
      frontier.pop_front();
      for (const size_t edge_index : IncidentEdges(current)) {
        const auto [lhs, rhs] = endpoints_[edge_index];
        const size_t other = lhs == current ? rhs : lhs;
        if (component_id_[other] == kNpos) {
          component_id_[other] = id;
          frontier.push_back(other);
        }
      }
    }
  }
}

std::vector<JoinGraph::Neighbor> JoinGraph::Neighbors(
    const std::string& relation) const {
  std::vector<Neighbor> out;
  const size_t index = IndexOf(relation);
  if (index == kNpos) return out;
  out.reserve(adj_offsets_[index + 1] - adj_offsets_[index]);
  const std::vector<JoinConstraint>& edges = Edges();
  for (const size_t edge_index : IncidentEdges(index)) {
    const auto [lhs, rhs] = endpoints_[edge_index];
    out.push_back(Neighbor{relations_[lhs == index ? rhs : lhs],
                           edges[edge_index]});
  }
  return out;
}

bool JoinGraph::SameComponent(const std::string& a,
                              const std::string& b) const {
  const size_t ia = IndexOf(a);
  const size_t ib = IndexOf(b);
  return ia != kNpos && ib != kNpos && component_id_[ia] == component_id_[ib];
}

std::vector<std::string> JoinGraph::ComponentOf(
    const std::string& relation) const {
  std::vector<std::string> component;
  const size_t index = IndexOf(relation);
  if (index == kNpos) return component;
  const size_t id = component_id_[index];
  // relations_ is sorted, so the output is too.
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (component_id_[i] == id) component.push_back(relations_[i]);
  }
  return component;
}

std::vector<std::vector<std::string>> JoinGraph::Components() const {
  std::vector<std::vector<std::string>> out;
  std::unordered_map<size_t, size_t> slot_of_id;
  for (size_t i = 0; i < relations_.size(); ++i) {
    const auto [it, inserted] = slot_of_id.emplace(component_id_[i], out.size());
    if (inserted) out.emplace_back();
    out[it->second].push_back(relations_[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

JoinGraph JoinGraph::EraseRelation(const std::string& relation) const {
  JoinGraph out;
  for (const std::string& rel : relations_) {
    if (rel != relation) out.relations_.push_back(rel);
  }
  for (const JoinConstraint& jc : Edges()) {
    if (!jc.Involves(relation)) out.owned_edges_.push_back(jc);
  }
  out.IndexParts();
  return out;
}

std::vector<JoinTree> JoinGraph::FindConnectingTrees(
    const std::set<std::string>& required,
    const std::vector<JoinConstraint>& mandatory_edges,
    const JoinTreeSearchOptions& options) const {
  std::vector<JoinTree> results;
  JoinTreeEnumerator enumerator(*this, required, mandatory_edges, options);
  while (results.size() < options.max_results) {
    std::optional<JoinTree> tree = enumerator.Next();
    if (!tree.has_value()) break;
    results.push_back(std::move(*tree));
  }
  return results;
}

JoinTreeEnumerator::JoinTreeEnumerator(
    const JoinGraph& graph, const std::set<std::string>& required,
    std::vector<JoinConstraint> mandatory_edges,
    const JoinTreeSearchOptions& options)
    : graph_(&graph),
      mandatory_edges_(std::move(mandatory_edges)),
      token_(options.token) {
  if (required.empty()) return;  // frontier stays empty: exhausted
  // `required` is name-sorted and so is relations_, so the seed comes out
  // sorted by index.
  std::vector<uint32_t> seed;
  seed.reserve(required.size());
  for (const std::string& rel : required) {
    const size_t index = graph_->IndexOf(rel);
    if (index == JoinGraph::kNpos) return;  // relation gone
    seed.push_back(static_cast<uint32_t>(index));
  }
  // Fail fast on unreachable requests: a spanning tree can only exist
  // inside one connected component, so there is no point growing sets.
  for (const uint32_t rel : seed) {
    if (graph_->component_id_[rel] != graph_->component_id_[seed.front()]) {
      return;
    }
  }
  for (const JoinConstraint& edge : mandatory_edges_) {
    const size_t lhs = graph_->IndexOf(edge.lhs);
    const size_t rhs = graph_->IndexOf(edge.rhs);
    if (!std::binary_search(seed.begin(), seed.end(), lhs) ||
        !std::binary_search(seed.begin(), seed.end(), rhs)) {
      return;  // mandatory edge endpoint outside the required set
    }
    mandatory_ends_.emplace_back(static_cast<uint32_t>(lhs),
                                 static_cast<uint32_t>(rhs));
    mandatory_ids_.push_back(edge.id);
  }
  std::sort(mandatory_ids_.begin(), mandatory_ids_.end());
  mandatory_ids_.erase(
      std::unique(mandatory_ids_.begin(), mandatory_ids_.end()),
      mandatory_ids_.end());
  max_relations_ = seed.size() + options.max_extra_relations;

  // Static size floor: a connecting tree contains a path between every
  // pair of required relations, so its relation count is at least the
  // largest pairwise BFS distance plus one. The uniform-cost frontier
  // starts at |required| no matter how far apart the required relations
  // lie; this floor is visible through NextTreeSizeLowerBound() before
  // any set is expanded. Distances are symmetric, so a BFS from each
  // required relation only needs to reach the required relations after
  // it, and stops once it has.
  min_tree_size_ = seed.size();
  if (seed.size() > 1) {
    constexpr uint32_t kUnseen = static_cast<uint32_t>(-1);
    std::vector<uint32_t> dist(graph_->relations_.size(), kUnseen);
    std::vector<uint32_t> queue;
    for (size_t source = 0; source + 1 < seed.size(); ++source) {
      size_t pending = seed.size() - source - 1;
      queue.assign(1, seed[source]);
      dist[seed[source]] = 0;
      for (size_t head = 0; head < queue.size() && pending > 0; ++head) {
        const uint32_t at = queue[head];
        for (const size_t edge_index : graph_->IncidentEdges(at)) {
          const auto [lhs, rhs] = graph_->endpoints_[edge_index];
          const uint32_t other = static_cast<uint32_t>(lhs == at ? rhs : lhs);
          if (dist[other] != kUnseen) continue;
          dist[other] = dist[at] + 1;
          queue.push_back(other);
          if (std::binary_search(seed.begin() + source + 1, seed.end(),
                                 other)) {
            min_tree_size_ =
                std::max(min_tree_size_, static_cast<size_t>(dist[other]) + 1);
            --pending;
          }
        }
      }
      for (const uint32_t visited : queue) dist[visited] = kUnseen;
    }
  }

  level_size_ = seed.size();
  level_ = std::move(seed);
}

size_t JoinTreeEnumerator::PositionIn(const uint32_t* chosen,
                                      size_t rel) const {
  const uint32_t* end = chosen + level_size_;
  const uint32_t* it = std::lower_bound(chosen, end, rel);
  return it != end && *it == rel ? static_cast<size_t>(it - chosen)
                                 : level_size_;
}

bool JoinTreeEnumerator::TryBuildTree(const uint32_t* chosen) {
  const size_t size = level_size_;
  parent_.resize(size);
  for (size_t i = 0; i < size; ++i) parent_[i] = static_cast<uint32_t>(i);
  auto find = [&](uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  };
  auto unite = [&](size_t a, size_t b) {
    const uint32_t ra = find(static_cast<uint32_t>(a));
    const uint32_t rb = find(static_cast<uint32_t>(b));
    if (ra == rb) return false;
    parent_[ra] = rb;
    return true;
  };
  // The set is connected once size - 1 merges happened; from then on no
  // further edge can merge anything, so the scan stops there.
  size_t merges = 0;
  for (const auto& [lhs, rhs] : mandatory_ends_) {
    if (unite(PositionIn(chosen, lhs), PositionIn(chosen, rhs))) ++merges;
  }
  tree_edges_.clear();
  const std::vector<JoinConstraint>& edges = graph_->Edges();
  for (size_t i = 0; i < size && merges + 1 < size; ++i) {
    for (const size_t edge_index : graph_->IncidentEdges(chosen[i])) {
      const auto [lhs, rhs] = graph_->endpoints_[edge_index];
      const size_t j = PositionIn(chosen, lhs == chosen[i] ? rhs : lhs);
      if (j == size) continue;
      // Skip a JC already included as mandatory.
      if (!mandatory_ids_.empty() &&
          std::binary_search(mandatory_ids_.begin(), mandatory_ids_.end(),
                             edges[edge_index].id)) {
        continue;
      }
      if (!unite(i, j)) continue;
      tree_edges_.push_back(static_cast<uint32_t>(edge_index));
      if (++merges + 1 == size) break;
    }
  }
  return merges + 1 == size;
}

JoinTree JoinTreeEnumerator::MakeTree(const uint32_t* chosen) const {
  JoinTree tree;
  tree.relations.reserve(level_size_);
  for (size_t i = 0; i < level_size_; ++i) {
    tree.relations.push_back(graph_->relations_[chosen[i]]);
  }
  tree.edges.reserve(mandatory_edges_.size() + tree_edges_.size());
  tree.edges = mandatory_edges_;
  const std::vector<JoinConstraint>& edges = graph_->Edges();
  for (const uint32_t edge_index : tree_edges_) {
    tree.edges.push_back(edges[edge_index]);
  }
  return tree;
}

void JoinTreeEnumerator::Expand(const uint32_t* chosen) {
  neighbors_.clear();
  for (size_t i = 0; i < level_size_; ++i) {
    for (const size_t edge_index : graph_->IncidentEdges(chosen[i])) {
      const auto [lhs, rhs] = graph_->endpoints_[edge_index];
      const size_t other = lhs == chosen[i] ? rhs : lhs;
      if (PositionIn(chosen, other) == level_size_) {
        neighbors_.push_back(static_cast<uint32_t>(other));
      }
    }
  }
  std::sort(neighbors_.begin(), neighbors_.end());
  neighbors_.erase(std::unique(neighbors_.begin(), neighbors_.end()),
                   neighbors_.end());
  const uint32_t* end = chosen + level_size_;
  for (const uint32_t neighbor : neighbors_) {
    const uint32_t* pos = std::lower_bound(chosen, end, neighbor);
    next_level_.insert(next_level_.end(), chosen, pos);
    next_level_.push_back(neighbor);
    next_level_.insert(next_level_.end(), pos, end);
  }
}

void JoinTreeEnumerator::PromoteNextLevel() {
  const size_t stride = level_size_ + 1;
  const uint32_t* sets = next_level_.data();
  order_.resize(next_level_.size() / stride);
  for (size_t k = 0; k < order_.size(); ++k) {
    order_[k] = static_cast<uint32_t>(k * stride);
  }
  std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(sets + a, sets + a + stride, sets + b,
                                        sets + b + stride);
  });
  level_.clear();
  for (const uint32_t offset : order_) {
    if (!level_.empty() &&
        std::equal(sets + offset, sets + offset + stride,
                   level_.end() - static_cast<std::ptrdiff_t>(stride))) {
      continue;  // grown from more than one set of the previous level
    }
    level_.insert(level_.end(), sets + offset, sets + offset + stride);
  }
  level_size_ = stride;
  level_next_ = 0;
  next_level_.clear();
}

std::optional<JoinTree> JoinTreeEnumerator::Next() {
  if (interrupted_) return std::nullopt;
  while (!Exhausted()) {
    if (level_next_ == level_.size()) PromoteNextLevel();
    // One frontier pop is the unit of logical work: spend it before
    // expanding, so a refused step leaves the frontier (and with it the
    // first-cut lower bound) untouched.
    if (!token_.Spend(1)) {
      interrupted_ = true;
      return std::nullopt;
    }
    const uint32_t* chosen = level_.data() + level_next_;
    level_next_ += level_size_;
    ++sets_expanded_;

    if (TryBuildTree(chosen)) {
      // Minimal connected superset found; don't grow it further.
      ++trees_yielded_;
      return MakeTree(chosen);
    }
    if (level_size_ >= max_relations_) {
      ++sets_cut_;  // disconnected set hit the bound: lost search subtree
      continue;
    }
    // Grow by any relation adjacent to the current set.
    Expand(chosen);
  }
  return std::nullopt;
}

size_t JoinTreeEnumerator::NextTreeSizeLowerBound() const {
  if (Exhausted()) return static_cast<size_t>(-1);
  // Both are admissible (the distance floor bounds every tree this
  // enumerator can ever yield, the frontier minimum bounds the remaining
  // ones), so their maximum is too.
  const size_t smallest =
      level_next_ < level_.size() ? level_size_ : level_size_ + 1;
  return std::max(smallest, min_tree_size_);
}

}  // namespace eve
