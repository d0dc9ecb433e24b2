#include "hypergraph/join_graph.h"

#include <algorithm>
#include <deque>
#include <mutex>
#include <optional>
#include <sstream>
#include <tuple>
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
  graph.edges_.reserve(mkb.join_constraints().size());
  for (const JoinConstraint& jc : mkb.join_constraints()) {
    graph.edges_.push_back(&jc);
  }
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
  const std::vector<const JoinConstraint*>& edges = Edges();
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
  for (const JoinConstraint* jc : edges) {
    for (const std::string* end : {&jc->lhs, &jc->rhs}) {
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
    const size_t lhs = intern.at(edges[i]->lhs);
    const size_t rhs = intern.at(edges[i]->rhs);
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
  const std::vector<const JoinConstraint*>& edges = Edges();
  for (const size_t edge_index : IncidentEdges(index)) {
    const auto [lhs, rhs] = endpoints_[edge_index];
    out.push_back(Neighbor{relations_[lhs == index ? rhs : lhs],
                           *edges[edge_index]});
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
  auto owned = std::make_shared<std::vector<JoinConstraint>>();
  for (const JoinConstraint* jc : Edges()) {
    if (!jc->Involves(relation)) owned->push_back(*jc);
  }
  for (const JoinConstraint& jc : *owned) out.edges_.push_back(&jc);
  out.owned_edges_ = std::move(owned);
  out.IndexParts();
  return out;
}

// What names a join-tree search: the required relations' indices (sorted,
// nonempty, one component), the relation pairs the mandatory edges join
// and their JC ids (both sorted, unique), and the relation bound. The
// search depends on nothing else.
struct JoinTreeSearchRequest {
  std::vector<uint32_t> seed;
  std::vector<std::pair<uint32_t, uint32_t>> mandatory_ends;
  std::vector<std::string> mandatory_ids;
  size_t max_relations = 0;

  bool operator<(const JoinTreeSearchRequest& other) const {
    return std::tie(seed, mandatory_ends, mandatory_ids, max_relations) <
           std::tie(other.seed, other.mandatory_ends, other.mandatory_ids,
                    other.max_relations);
  }
};

// One uniform-cost join-tree search over a JoinGraph and, when shared,
// the record of every frontier pop it has made. The search is the one a
// private JoinTreeEnumerator used to run, minus the token: pops are made
// on demand, one at a time, by the first cursor that asks for them. A
// shared log records each pop with what it did and the frontier bound
// after it, so later cursors replay it without searching, and serializes
// its cursors on mu_. A private log has one cursor, which asks for each
// pop exactly when it is made, so it records nothing and takes no lock.
class JoinTreeSearchLog {
 public:
  enum class Step : uint8_t { kTree, kCut, kGrown };

  JoinTreeSearchLog(const JoinGraph& graph, JoinTreeSearchRequest request,
                    bool shared);
  // Cursors hold the log's address.
  JoinTreeSearchLog(const JoinTreeSearchLog&) = delete;
  JoinTreeSearchLog& operator=(const JoinTreeSearchLog&) = delete;

  const JoinTreeSearchRequest& request() const { return request_; }
  // NextTreeSizeLowerBound() before the first pop.
  size_t initial_bound() const { return initial_bound_; }

  // Pop number `index` (0-based), made now if no cursor has reached it: a
  // cursor asks for its pops in order, and only while its bound shows the
  // search is not exhausted. Sets `*bound_after` to the frontier bound
  // after the pop. For a tree, calls on_tree(relations, num_relations,
  // edges, num_edges) with its relation indices and its non-mandatory edge
  // indices, which stay valid during the call only.
  template <typename OnTree>
  Step Replay(size_t index, size_t* bound_after, const OnTree& on_tree);

 private:
  struct Pop {
    Step step = Step::kGrown;
    uint32_t relations = 0;  // kTree: its relation count, and where its
    size_t tree_begin = 0;   // indices lie in trees_
    size_t tree_end = 0;
    size_t bound_after = 0;
  };

  // Makes the next pop. For a tree, `*chosen` points at its level_size_
  // relation indices and tree_edges_ holds its non-mandatory edges, both
  // until the next pop.
  Step MakePop(const uint32_t** chosen);
  bool Exhausted() const {
    return level_next_ == level_.size() && next_level_.empty();
  }
  // NextTreeSizeLowerBound() at the current frontier.
  size_t Bound() const;

  // Whether the JC edges among `chosen` (level_size_ sorted indices) span
  // it: mandatory edges first, then, relation by relation in index order,
  // every incident JC that merges two components. On success tree_edges_
  // holds the graph edge indices taken after the mandatory edges.
  bool TryBuildTree(const uint32_t* chosen);
  // Appends every one-relation extension of `chosen` to next_level_.
  void Expand(const uint32_t* chosen);
  // Makes next_level_, sorted and deduplicated, the current level.
  void PromoteNextLevel();
  // Position of relation index `rel` in `chosen`, or level_size_ if absent.
  size_t PositionIn(const uint32_t* chosen, size_t rel) const;

  const JoinGraph* graph_;
  // A private log moves the seed into the first level; only a shared log
  // keeps it, as part of its registry key.
  JoinTreeSearchRequest request_;
  const bool shared_;
  // Static size floor: max pairwise BFS distance among required + 1.
  size_t min_tree_size_ = 0;
  size_t initial_bound_ = 0;

  // In a shared log, mu_ guards everything below: the pops made so far
  // and the yielded trees' relation and edge indices back to back (both
  // kept by shared logs only), and the search state.
  std::mutex mu_;
  std::vector<Pop> pops_;
  std::vector<uint32_t> trees_;

  // The current level: its sets, each level_size_ indices long, back to
  // back in lexicographic order; level_next_ is the offset of the first
  // set not yet popped. next_level_ collects the sets (of size
  // level_size_ + 1) grown from popped sets, repeats included.
  std::vector<uint32_t> level_;
  size_t level_size_ = 0;
  size_t level_next_ = 0;
  std::vector<uint32_t> next_level_;

  // Buffers reused across sets: union-find parents over positions in the
  // set, the tree's non-mandatory edges, a set's outside neighbours, and
  // the sort order of a level being promoted.
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> tree_edges_;
  std::vector<uint32_t> neighbors_;
  std::vector<uint32_t> order_;
};

// The shared logs of one graph, sorted by request.
struct JoinGraph::SearchLogs {
  std::mutex mu;
  std::vector<std::shared_ptr<JoinTreeSearchLog>> logs;
};

void JoinGraph::ShareSearches() {
  shared_searches_.logs = std::make_shared<SearchLogs>();
}

JoinTreeSearchLog::JoinTreeSearchLog(const JoinGraph& graph,
                                     JoinTreeSearchRequest request,
                                     bool shared)
    : graph_(&graph), request_(std::move(request)), shared_(shared) {
  const std::vector<uint32_t>& seed = request_.seed;
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
  if (shared_) {
    level_ = seed;
  } else {
    level_ = std::move(request_.seed);
  }
  initial_bound_ = Bound();
}

size_t JoinTreeSearchLog::PositionIn(const uint32_t* chosen,
                                     size_t rel) const {
  const uint32_t* end = chosen + level_size_;
  const uint32_t* it = std::lower_bound(chosen, end, rel);
  return it != end && *it == rel ? static_cast<size_t>(it - chosen)
                                 : level_size_;
}

bool JoinTreeSearchLog::TryBuildTree(const uint32_t* chosen) {
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
  for (const auto& [lhs, rhs] : request_.mandatory_ends) {
    if (unite(PositionIn(chosen, lhs), PositionIn(chosen, rhs))) ++merges;
  }
  tree_edges_.clear();
  const std::vector<const JoinConstraint*>& edges = graph_->Edges();
  for (size_t i = 0; i < size && merges + 1 < size; ++i) {
    for (const size_t edge_index : graph_->IncidentEdges(chosen[i])) {
      const auto [lhs, rhs] = graph_->endpoints_[edge_index];
      const size_t j = PositionIn(chosen, lhs == chosen[i] ? rhs : lhs);
      if (j == size) continue;
      // Skip a JC already included as mandatory.
      const std::vector<std::string>& ids = request_.mandatory_ids;
      if (!ids.empty() &&
          std::binary_search(ids.begin(), ids.end(), edges[edge_index]->id)) {
        continue;
      }
      if (!unite(i, j)) continue;
      tree_edges_.push_back(static_cast<uint32_t>(edge_index));
      if (++merges + 1 == size) break;
    }
  }
  return merges + 1 == size;
}

void JoinTreeSearchLog::Expand(const uint32_t* chosen) {
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

void JoinTreeSearchLog::PromoteNextLevel() {
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

JoinTreeSearchLog::Step JoinTreeSearchLog::MakePop(const uint32_t** chosen) {
  if (level_next_ == level_.size()) PromoteNextLevel();
  *chosen = level_.data() + level_next_;
  level_next_ += level_size_;
  if (TryBuildTree(*chosen)) {
    return Step::kTree;  // minimal connected superset: don't grow it further
  }
  if (level_size_ >= request_.max_relations) {
    return Step::kCut;  // disconnected set hit the bound
  }
  Expand(*chosen);  // grow by any relation adjacent to the set
  return Step::kGrown;
}

size_t JoinTreeSearchLog::Bound() const {
  if (Exhausted()) return static_cast<size_t>(-1);
  // Both are admissible (the distance floor bounds every tree this search
  // can ever yield, the frontier minimum bounds the remaining ones), so
  // their maximum is too.
  const size_t smallest =
      level_next_ < level_.size() ? level_size_ : level_size_ + 1;
  return std::max(smallest, min_tree_size_);
}

template <typename OnTree>
JoinTreeSearchLog::Step JoinTreeSearchLog::Replay(size_t index,
                                                  size_t* bound_after,
                                                  const OnTree& on_tree) {
  const uint32_t* chosen = nullptr;
  if (!shared_) {
    const Step step = MakePop(&chosen);
    *bound_after = Bound();
    if (step == Step::kTree) {
      on_tree(chosen, level_size_, tree_edges_.data(), tree_edges_.size());
    }
    return step;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (index == pops_.size()) {
    Pop pop;
    pop.step = MakePop(&chosen);
    pop.bound_after = Bound();
    if (pop.step == Step::kTree) {
      pop.relations = static_cast<uint32_t>(level_size_);
      pop.tree_begin = trees_.size();
      trees_.insert(trees_.end(), chosen, chosen + level_size_);
      trees_.insert(trees_.end(), tree_edges_.begin(), tree_edges_.end());
      pop.tree_end = trees_.size();
    }
    pops_.push_back(pop);
  }
  const Pop& pop = pops_[index];
  *bound_after = pop.bound_after;
  if (pop.step == Step::kTree) {
    const uint32_t* tree = trees_.data() + pop.tree_begin;
    on_tree(tree, pop.relations, tree + pop.relations,
            pop.tree_end - pop.tree_begin - pop.relations);
  }
  return pop.step;
}

JoinTreeEnumerator::JoinTreeEnumerator(
    const JoinGraph& graph, const std::set<std::string>& required,
    std::vector<JoinConstraint> mandatory_edges,
    const JoinTreeSearchOptions& options)
    : graph_(&graph),
      mandatory_edges_(std::move(mandatory_edges)),
      token_(options.token) {
  if (required.empty()) return;  // nothing to search: exhausted
  // `required` is name-sorted and so is relations_, so the seed comes out
  // sorted by index.
  JoinTreeSearchRequest request;
  std::vector<uint32_t>& seed = request.seed;
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
  // The search only depends on which relation pairs the mandatory edges
  // join and which JC ids they hold, so both are normalized.
  std::vector<std::pair<uint32_t, uint32_t>>& ends = request.mandatory_ends;
  std::vector<std::string>& ids = request.mandatory_ids;
  for (const JoinConstraint& edge : mandatory_edges_) {
    const size_t lhs = graph_->IndexOf(edge.lhs);
    const size_t rhs = graph_->IndexOf(edge.rhs);
    if (!std::binary_search(seed.begin(), seed.end(), lhs) ||
        !std::binary_search(seed.begin(), seed.end(), rhs)) {
      return;  // mandatory edge endpoint outside the required set
    }
    ends.emplace_back(static_cast<uint32_t>(std::min(lhs, rhs)),
                      static_cast<uint32_t>(std::max(lhs, rhs)));
    ids.push_back(edge.id);
  }
  std::sort(ends.begin(), ends.end());
  ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  request.max_relations = seed.size() + options.max_extra_relations;

  JoinGraph::SearchLogs* shared = graph_->shared_searches_.logs.get();
  if (shared == nullptr) {
    log_ = std::make_shared<JoinTreeSearchLog>(*graph_, std::move(request),
                                               /*shared=*/false);
  } else {
    std::lock_guard<std::mutex> lock(shared->mu);
    std::vector<std::shared_ptr<JoinTreeSearchLog>>& logs = shared->logs;
    auto it = std::lower_bound(
        logs.begin(), logs.end(), request,
        [](const std::shared_ptr<JoinTreeSearchLog>& log,
           const JoinTreeSearchRequest& wanted) {
          return log->request() < wanted;
        });
    if (it == logs.end() || request < (*it)->request()) {
      it = logs.insert(it, std::make_shared<JoinTreeSearchLog>(
                               *graph_, std::move(request), /*shared=*/true));
    }
    log_ = *it;
  }
  bound_ = log_->initial_bound();
}

JoinTree JoinTreeEnumerator::Materialize(
    std::span<const uint32_t> relations,
    std::span<const uint32_t> edges) const {
  JoinTree tree;
  tree.relations.reserve(relations.size());
  for (const uint32_t relation : relations) {
    tree.relations.push_back(graph_->relations_[relation]);
  }
  tree.edges.reserve(mandatory_edges_.size() + edges.size());
  tree.edges = mandatory_edges_;
  const std::vector<const JoinConstraint*>& graph_edges = graph_->Edges();
  for (const uint32_t edge : edges) tree.edges.push_back(*graph_edges[edge]);
  return tree;
}

bool JoinTreeEnumerator::NextIndices(JoinTreeIndices* tree) {
  if (interrupted_) return false;
  while (!Exhausted()) {
    // One frontier pop is the unit of logical work, whether this cursor
    // makes it or replays it: spend it first, so a refused step leaves the
    // position (and with it the first-cut lower bound) untouched.
    if (!token_.Spend(1)) {
      interrupted_ = true;
      return false;
    }
    const JoinTreeSearchLog::Step step = log_->Replay(
        sets_expanded_, &bound_,
        [&](const uint32_t* relations, size_t num_relations,
            const uint32_t* edges, size_t num_edges) {
          tree->relations.assign(relations, relations + num_relations);
          tree->edges.assign(edges, edges + num_edges);
        });
    ++sets_expanded_;
    if (step == JoinTreeSearchLog::Step::kTree) {
      ++trees_yielded_;
      return true;
    }
    if (step == JoinTreeSearchLog::Step::kCut) {
      ++sets_cut_;  // disconnected set hit the bound: lost search subtree
    }
  }
  return false;
}

std::optional<JoinTree> JoinTreeEnumerator::Next() {
  JoinTreeIndices tree;
  if (!NextIndices(&tree)) return std::nullopt;
  return Materialize(tree.relations, tree.edges);
}

}  // namespace eve
