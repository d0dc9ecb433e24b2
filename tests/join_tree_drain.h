// The first `max_trees` connecting join trees of a required relation set,
// drained from a JoinTreeEnumerator: the list the join-graph tests and the
// legacy candidate enumeration of legacy_candidate_stream.h take whole.

#ifndef EVE_TESTS_JOIN_TREE_DRAIN_H_
#define EVE_TESTS_JOIN_TREE_DRAIN_H_

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "hypergraph/join_graph.h"
#include "mkb/constraints.h"

namespace eve {
namespace testing_trees {

inline std::vector<JoinTree> DrainJoinTrees(
    const JoinGraph& graph, const std::set<std::string>& required,
    const std::vector<JoinConstraint>& mandatory_edges,
    const JoinTreeSearchOptions& options = {}, size_t max_trees = 64) {
  std::vector<JoinTree> trees;
  JoinTreeEnumerator enumerator(graph, required, mandatory_edges, options);
  while (trees.size() < max_trees) {
    std::optional<JoinTree> tree = enumerator.Next();
    if (!tree.has_value()) break;
    trees.push_back(std::move(*tree));
  }
  return trees;
}

}  // namespace testing_trees
}  // namespace eve

#endif  // EVE_TESTS_JOIN_TREE_DRAIN_H_
