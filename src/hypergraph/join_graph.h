// JoinGraph: the relation-level view of H(MKB) — nodes are relations,
// (multi-)edges are join constraints. Because relation hyperedges meet only
// at JC-nodes, connectivity and join-chain enumeration on this graph are
// equivalent to the hypergraph formulation in the paper, and the sequence
// S1 ⋈_{JC} R1 ⋈ ... ⋈_{JC} S2 of Sec. 5 is a path here.
//
// Each JC edge is stored once. Construction interns every relation name to
// a dense index; adjacency lists, edge endpoints and connected-component
// ids are plain index arrays over that interning, so membership and
// component queries are O(1), traversals never hash a string, and a
// cross-component join-tree search fails fast.

#ifndef EVE_HYPERGRAPH_JOIN_GRAPH_H_
#define EVE_HYPERGRAPH_JOIN_GRAPH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "mkb/constraints.h"
#include "mkb/mkb.h"

namespace eve {

// A connected join expression: a set of relations plus the JC edges of a
// spanning tree over them (|edges| == |relations| - 1).
struct JoinTree {
  std::vector<std::string> relations;    // sorted
  std::vector<JoinConstraint> edges;

  // "R1 ⋈[JC1] R2 ⋈[JC4] R3".
  std::string ToString() const;
};

// A join tree on its graph's interned indices: the relations as sorted
// indices into JoinGraph::relations(), and the JC edges the tree takes
// after its mandatory edges, as indices into the graph's edge storage.
// JoinTreeEnumerator::Materialize turns it into the JoinTree.
struct JoinTreeIndices {
  std::vector<uint32_t> relations;
  std::vector<uint32_t> edges;
};

// One join-tree search (join_graph.cc); JoinTreeEnumerators are cursors
// over it.
class JoinTreeSearchLog;

// Options bounding the join-tree search of a JoinTreeEnumerator.
struct JoinTreeSearchOptions {
  // Maximum relations added beyond the required set (Steiner nodes).
  size_t max_extra_relations = 3;
  // Optional deadline scope. The enumerator spends one unit per frontier
  // set popped; when the token refuses, Next() stops at that safe point
  // (interrupted(), not Exhausted()). The null token is free.
  DeadlineToken token;
};

class JoinGraph {
 public:
  // Builds the relation-level graph from every catalog relation and JC.
  // The graph points at `mkb`'s join constraints (in registration order)
  // instead of copying them, so it must not outlive the Mkb (nor survive
  // a mutation of its constraint set). SyncContext already ties the two lifetimes together;
  // EraseRelation results own their edges and have no such dependency.
  static JoinGraph Build(const Mkb& mkb);

  const std::vector<std::string>& relations() const { return relations_; }
  bool HasRelation(const std::string& relation) const {
    return IndexOf(relation) != kNpos;
  }

  static constexpr size_t kNpos = static_cast<size_t>(-1);
  // Index of `relation` in relations() (binary search), or kNpos if absent.
  size_t IndexOf(const std::string& relation) const;

  // JC edges incident to `relation` (with the neighbor on the other side).
  struct Neighbor {
    std::string relation;
    JoinConstraint edge;
  };
  std::vector<Neighbor> Neighbors(const std::string& relation) const;

  // True if `a` and `b` lie in the same connected component.
  bool SameComponent(const std::string& a, const std::string& b) const;

  // All relations in the component of `relation` — the S_R(MKB) of the
  // paper's connected sub-hypergraph H_R(MKB). Sorted.
  std::vector<std::string> ComponentOf(const std::string& relation) const;

  // All maximal components, each sorted; components sorted among
  // themselves.
  std::vector<std::vector<std::string>> Components() const;

  // The graph with `relation` (and its incident edges) erased — the
  // relation-level H'_R(MKB').
  JoinGraph EraseRelation(const std::string& relation) const;

  // Shares the join-tree searches over this graph: from now on every
  // JoinTreeEnumerator built over this object with the same required
  // relations, mandatory edges and max_extra_relations replays one search
  // log (see JoinTreeEnumerator) instead of searching on its own. The logs
  // live as long as this object; a copy or move of the graph starts
  // without them. Call it before the graph is handed to other threads.
  void ShareSearches();

 private:
  friend class JoinTreeEnumerator;
  friend class JoinTreeSearchLog;

  // The shared search logs, sorted by request (join_graph.cc).
  struct SearchLogs;
  // Holds them. Every log walks this graph object, so a copied or moved
  // graph starts with none.
  struct SharedSearches {
    SharedSearches() = default;
    SharedSearches(const SharedSearches&) {}
    SharedSearches& operator=(const SharedSearches&) {
      logs.reset();
      return *this;
    }
    std::shared_ptr<SearchLogs> logs;
  };

  // Resolves edge endpoints to relation indices, builds the CSR adjacency
  // and assigns connected-component ids. Expects relations_ (sorted) and
  // the edge storage to be populated.
  void IndexParts();

  // Every JC edge once; adjacency lists hold indices into this vector.
  // Build() points at the Mkb's constraints; EraseRelation() at copies in
  // owned_edges_, a shared immutable vector, so default copy/move keep
  // both forms valid.
  const std::vector<const JoinConstraint*>& Edges() const { return edges_; }

  // Edge indices incident to relation index i:
  // adj_edges_[adj_offsets_[i] .. adj_offsets_[i+1]).
  struct EdgeSpan {
    const size_t* begin_;
    const size_t* end_;
    const size_t* begin() const { return begin_; }
    const size_t* end() const { return end_; }
  };
  EdgeSpan IncidentEdges(size_t relation_index) const {
    return {adj_edges_.data() + adj_offsets_[relation_index],
            adj_edges_.data() + adj_offsets_[relation_index + 1]};
  }

  std::vector<std::string> relations_;  // sorted
  std::vector<const JoinConstraint*> edges_;
  std::shared_ptr<const std::vector<JoinConstraint>> owned_edges_;
  // Per edge: (index of lhs, index of rhs) in relations_.
  std::vector<std::pair<size_t, size_t>> endpoints_;
  // CSR adjacency over relation indices (see IncidentEdges).
  std::vector<size_t> adj_offsets_;
  std::vector<size_t> adj_edges_;
  // Per relation index: connected-component id.
  std::vector<size_t> component_id_;
  SharedSearches shared_searches_;
};

// Resumable uniform-cost enumeration of the connecting join trees of a
// required relation set: the join trees that (a) span every relation in
// `required`, (b) include every edge in `mandatory_edges` (the surviving
// part of Min(H_R), per Def. 3 (III)), and (c) use at most
// options.max_extra_relations relations beyond `required`. None exists
// when `required` spans multiple components. Pull-driven: the caller
// decides how many trees to take. Trees are yielded in nondecreasing
// relation-count order (every JC edge has unit weight, and a tree over n
// relations has exactly n-1 edges, so relation count IS the tree's edge
// weight plus one); within one size, in lexicographic order of the sorted
// relation vector, which makes the emission sequence fully deterministic.
//
// The search runs on the graph's interned relation indices. A frontier set
// is a sorted run of indices, and the frontier is processed one size level
// at a time: a set of size s+1 only arises from expanding a set of size s,
// so the sets grown from one level are sorted and deduplicated once, when
// that level is used up, and no set of visited sets is kept. relations_ is
// sorted by name, so index order is name order and the pop order is the
// (size, lexicographic) order of the relation-name vectors. A caller that
// works on indices pulls trees with NextIndices() and builds names and JC
// copies with Materialize() only for the trees it keeps; Next() is the two
// calls in a row.
//
// The search itself is a JoinTreeSearchLog, and an enumerator is a cursor
// that replays it pop by pop, spending one token unit per pop. Over a
// graph that shares its searches (JoinGraph::ShareSearches), every
// enumerator with the same required relations, mandatory edges and
// max_extra_relations replays one log: the record of every frontier pop
// made so far, grown one pop at a time under the log's lock, and only
// when a cursor asks for a pop no cursor has made yet. A search that many
// views of one change need thus runs once. Otherwise each enumerator has
// a private log, which records nothing and takes no lock. A cursor's
// trees, their order, its counters, its bound and the pop at which its
// budget stops it depend on its pop count alone, so they are those of a
// private search either way.
//
// The enumerator borrows `graph` (and, via it, the Mkb's edge storage):
// it must not outlive either. Callers interleave Next() with
// NextTreeSizeLowerBound() to drive best-first merges across many
// enumerators without materializing any tree list.
class JoinTreeEnumerator {
 public:
  // A graph JC whose id is the id of a mandatory edge is never added to a
  // tree a second time.
  JoinTreeEnumerator(const JoinGraph& graph,
                     const std::set<std::string>& required,
                     std::vector<JoinConstraint> mandatory_edges,
                     const JoinTreeSearchOptions& options);

  // The next tree in nondecreasing size order, or nullopt when the search
  // space is exhausted: NextIndices(), then Materialize().
  std::optional<JoinTree> Next();

  // The index-level pull behind Next(): copies the next tree's relation and
  // edge indices into `*tree`, reusing its buffers, and returns true, or
  // returns false where Next() returns nullopt. Order, counters, bound and
  // token spending are those of Next(); no name or JC is copied.
  bool NextIndices(JoinTreeIndices* tree);

  // The JoinTree Next() yields for a tree NextIndices() returned: the
  // relation names, then the mandatory edges followed by the graph edges
  // `edges`.
  JoinTree Materialize(std::span<const uint32_t> relations,
                       std::span<const uint32_t> edges) const;

  // Admissible lower bound on the relation count of every tree not yet
  // yielded: the larger of the smallest frontier set's size and the
  // static distance floor (any connecting tree contains a path between
  // each pair of required relations, so it has at least max pairwise BFS
  // distance + 1 relations). SIZE_MAX once exhausted. The distance floor
  // is what lets a best-first merge across many enumerators rank a
  // far-flung required set as expensive before expanding a single set.
  size_t NextTreeSizeLowerBound() const { return bound_; }

  bool Exhausted() const { return bound_ == kExhausted; }

  // True once the search was stopped by options.token rather than by
  // draining the space: the frontier is intact, NextTreeSizeLowerBound()
  // still bounds the unexplored remainder (the "first-cut frontier
  // bound"), and every further Next() returns nullopt immediately.
  bool interrupted() const { return interrupted_; }

  // Frontier sets popped and examined so far.
  size_t sets_expanded() const { return sets_expanded_; }
  // Frontier sets discarded at the max_extra_relations bound before
  // becoming connected — each is a lost subtree of the search space, so a
  // nonzero count means the enumeration may be incomplete.
  size_t sets_cut() const { return sets_cut_; }
  size_t trees_yielded() const { return trees_yielded_; }

 private:
  static constexpr size_t kExhausted = static_cast<size_t>(-1);

  const JoinGraph* graph_;
  std::vector<JoinConstraint> mandatory_edges_;
  DeadlineToken token_;
  // Null when there is nothing to search (the enumerator is born
  // exhausted).
  std::shared_ptr<JoinTreeSearchLog> log_;
  // NextTreeSizeLowerBound() after the sets_expanded_ pops replayed.
  size_t bound_ = kExhausted;
  bool interrupted_ = false;

  size_t sets_expanded_ = 0;
  size_t sets_cut_ = 0;
  size_t trees_yielded_ = 0;
};

}  // namespace eve

#endif  // EVE_HYPERGRAPH_JOIN_GRAPH_H_
