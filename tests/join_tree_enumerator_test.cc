// Differential test of JoinTreeEnumerator against the string-keyed
// enumerator it replaced (legacy_join_tree_enumerator.h). Both run side by
// side on seeded random join graphs — chains with skip edges, grids,
// stars, parallel JCs, disconnected components, plain random graphs, and
// graphs with a relation erased — with random required sets, mandatory
// edges, growth bounds and work budgets. After every Next() the two must
// agree on the yielded tree (relations and edge ids, in order), the
// expansion and cut counters, NextTreeSizeLowerBound(), Exhausted() and
// interrupted(), so a budget stops both at the same step.
//
// The second half checks shared searches (JoinGraph::ShareSearches):
// enumerators replaying one search log must match, step by step, a
// private search of the same request — interleaved on one thread, racing
// from four threads, and stopped by every work budget the search admits.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "hypergraph/join_graph.h"
#include "join_tree_drain.h"
#include "legacy_join_tree_enumerator.h"
#include "mkb/mkb.h"

namespace eve {
namespace {

using Edge = std::pair<size_t, size_t>;

// Relation names in a seeded random order, so that name order (the
// interning order) differs from the order the generator numbers them in.
std::vector<std::string> RelationNames(size_t n, std::mt19937_64* rng) {
  std::vector<std::string> names;
  for (size_t i = 0; i < n; ++i) names.push_back("R" + std::to_string(i));
  std::shuffle(names.begin(), names.end(), *rng);
  return names;
}

// An Mkb whose JCs are `edges` over relations `names`. JC ids are shuffled
// too, so an edge's id order differs from its insertion (incident-edge)
// order. Parallel edges between one pair get distinct ids and links.
Mkb BuildMkb(const std::vector<std::string>& names,
             const std::vector<Edge>& edges, std::mt19937_64* rng) {
  std::vector<size_t> id_numbers(edges.size());
  for (size_t k = 0; k < edges.size(); ++k) id_numbers[k] = k;
  std::shuffle(id_numbers.begin(), id_numbers.end(), *rng);
  std::vector<std::vector<AttributeDef>> attrs(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    attrs[i].push_back({"P", DataType::kInt});
  }
  for (size_t k = 0; k < edges.size(); ++k) {
    const std::string link = "K" + std::to_string(k);
    attrs[edges[k].first].push_back({link, DataType::kInt});
    attrs[edges[k].second].push_back({link, DataType::kInt});
  }
  Mkb mkb;
  for (size_t i = 0; i < names.size(); ++i) {
    RelationDef def;
    def.source = "IS" + names[i];
    def.name = names[i];
    def.schema = Schema(std::move(attrs[i]));
    EXPECT_TRUE(mkb.AddRelation(std::move(def)).ok());
  }
  for (size_t k = 0; k < edges.size(); ++k) {
    const std::string link = "K" + std::to_string(k);
    JoinConstraint jc;
    jc.id = "J" + std::to_string(id_numbers[k]);
    jc.lhs = names[edges[k].first];
    jc.rhs = names[edges[k].second];
    jc.clauses.push_back(Expr::ColumnsEqual(AttributeRef{jc.lhs, link},
                                            AttributeRef{jc.rhs, link}));
    EXPECT_TRUE(mkb.AddJoinConstraint(std::move(jc)).ok());
  }
  return mkb;
}

enum class Family {
  kChain,
  kGrid,
  kStar,
  kParallel,
  kComponents,
  kRandom,
  kCount
};

const char* FamilyName(Family family) {
  switch (family) {
    case Family::kChain: return "chain";
    case Family::kGrid: return "grid";
    case Family::kStar: return "star";
    case Family::kParallel: return "parallel";
    case Family::kComponents: return "components";
    case Family::kRandom: return "random";
    case Family::kCount: break;
  }
  return "?";
}

// Random edges over `n` relations: a random spanning tree plus extras
// with probability `p` per pair.
void AddRandomGraph(size_t offset, size_t n, double p, std::mt19937_64* rng,
                    std::vector<Edge>* edges) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (size_t i = 1; i < n; ++i) {
    const size_t parent = std::uniform_int_distribution<size_t>(0, i - 1)(*rng);
    edges->emplace_back(offset + parent, offset + i);
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 2; j < n; ++j) {
      if (coin(*rng) < p) edges->emplace_back(offset + i, offset + j);
    }
  }
}

// Relation count and edges of one graph of `family`.
std::pair<size_t, std::vector<Edge>> MakeGraph(Family family,
                                               std::mt19937_64* rng) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  auto pick = [&](size_t lo, size_t hi) {
    return std::uniform_int_distribution<size_t>(lo, hi)(*rng);
  };
  std::vector<Edge> edges;
  size_t n = 0;
  switch (family) {
    case Family::kChain: {
      n = pick(3, 14);
      const double skip = coin(*rng);
      for (size_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
      for (size_t i = 0; i + 2 < n; ++i) {
        if (coin(*rng) < skip) edges.emplace_back(i, i + 2);
      }
      break;
    }
    case Family::kGrid: {
      const size_t rows = pick(2, 4);
      const size_t cols = pick(2, 4);
      n = rows * cols;
      for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < cols; ++c) {
          const size_t at = r * cols + c;
          if (c + 1 < cols) edges.emplace_back(at, at + 1);
          if (r + 1 < rows) edges.emplace_back(at, at + cols);
        }
      }
      break;
    }
    case Family::kStar: {
      n = pick(3, 12);
      for (size_t i = 1; i < n; ++i) edges.emplace_back(0, i);
      // A few rim edges between spokes.
      for (size_t i = 1; i + 1 < n; ++i) {
        if (coin(*rng) < 0.2) edges.emplace_back(i, i + 1);
      }
      break;
    }
    case Family::kParallel: {
      n = pick(3, 9);
      AddRandomGraph(0, n, 0.2, rng, &edges);
      const size_t base = edges.size();
      for (size_t k = 0; k < base; ++k) {
        const size_t copies = pick(0, 2);
        for (size_t c = 0; c < copies; ++c) edges.push_back(edges[k]);
      }
      std::shuffle(edges.begin(), edges.end(), *rng);
      break;
    }
    case Family::kComponents: {
      const size_t parts = pick(2, 3);
      for (size_t part = 0; part < parts; ++part) {
        const size_t size = pick(1, 6);
        AddRandomGraph(n, size, 0.25, rng, &edges);
        n += size;
      }
      // An isolated relation now and then.
      if (coin(*rng) < 0.5) ++n;
      break;
    }
    case Family::kRandom: {
      n = pick(4, 12);
      AddRandomGraph(0, n, coin(*rng) * 0.4, rng, &edges);
      break;
    }
    case Family::kCount:
      break;
  }
  // Random endpoint orientation: lhs is not always the smaller name.
  for (Edge& edge : edges) {
    if (coin(*rng) < 0.5) std::swap(edge.first, edge.second);
  }
  return {n, edges};
}

std::string TreeKey(const JoinTree& tree) {
  std::ostringstream os;
  for (const std::string& rel : tree.relations) os << rel << ",";
  os << "|";
  for (const JoinConstraint& edge : tree.edges) {
    os << edge.id << "(" << edge.lhs << "," << edge.rhs << ")";
  }
  return os.str();
}

// One join-tree request.
struct Request {
  std::set<std::string> required;
  std::vector<JoinConstraint> mandatory;
  size_t max_extra = 0;
};

// A random request over `graph`: one to four required relations, now and
// then one the graph lacks or none at all. Mandatory edges: graph JCs
// with both endpoints required, now and then one leaving the required
// set, and one JC the graph lacks between two required relations. Half of
// those reuse the id of a graph JC elsewhere, which no enumerator may then
// add.
Request RandomRequest(const JoinGraph& graph, std::mt19937_64* rng) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  auto pick = [&](size_t lo, size_t hi) {
    return std::uniform_int_distribution<size_t>(lo, hi)(*rng);
  };
  const std::vector<std::string>& relations = graph.relations();
  Request request;
  std::set<std::string>& required = request.required;
  const size_t want = pick(1, std::min<size_t>(4, relations.size()));
  while (required.size() < want) {
    required.insert(relations[pick(0, relations.size() - 1)]);
  }
  if (coin(*rng) < 0.03) required.insert("Ghost");  // not in the graph
  if (coin(*rng) < 0.02) required.clear();
  for (const std::string& rel : required) {
    if (!graph.HasRelation(rel)) continue;
    for (const JoinGraph::Neighbor& neighbor : graph.Neighbors(rel)) {
      if (required.count(neighbor.relation) > 0 && coin(*rng) < 0.3) {
        request.mandatory.push_back(neighbor.edge);
      }
    }
  }
  if (!required.empty() && coin(*rng) < 0.05 &&
      !graph.Neighbors(*required.begin()).empty()) {
    request.mandatory.push_back(graph.Neighbors(*required.begin()).front().edge);
  }
  if (required.size() >= 2 && coin(*rng) < 0.15) {
    JoinConstraint foreign;
    foreign.id = "X";
    const std::string& donor = relations[pick(0, relations.size() - 1)];
    if (coin(*rng) < 0.5 && !graph.Neighbors(donor).empty()) {
      foreign.id = graph.Neighbors(donor).back().edge.id;
    }
    foreign.lhs = *required.begin();
    foreign.rhs = *required.rbegin();
    request.mandatory.push_back(foreign);
  }
  request.max_extra = pick(0, 4);
  return request;
}

// One graph of the sweep, its family picked by case number. Every third
// graph loses a relation: enumerators then run on an EraseRelation result,
// which owns its edges. Held by pointer, since the graph borrows the Mkb's
// edge storage.
struct GraphCase {
  Mkb mkb;
  std::optional<JoinGraph> graph;
  std::string label;
};

std::unique_ptr<GraphCase> MakeGraphCase(size_t graph_case,
                                         std::mt19937_64* rng) {
  const Family family =
      static_cast<Family>(graph_case % static_cast<size_t>(Family::kCount));
  const auto [n, edges] = MakeGraph(family, rng);
  const std::vector<std::string> names = RelationNames(n, rng);
  auto sample = std::make_unique<GraphCase>();
  sample->mkb = BuildMkb(names, edges, rng);
  sample->graph.emplace(JoinGraph::Build(sample->mkb));
  sample->label =
      std::string(FamilyName(family)) + " #" + std::to_string(graph_case);
  if (graph_case % 3 == 2) {
    const std::string& gone =
        names[std::uniform_int_distribution<size_t>(0, n - 1)(*rng)];
    sample->graph.emplace(sample->graph->EraseRelation(gone));
    sample->label += " minus " + gone;
  }
  return sample;
}

struct Totals {
  size_t cases = 0;
  size_t trees = 0;
  size_t interrupted = 0;
  size_t cut = 0;
  size_t with_mandatory = 0;
  size_t floor_above_frontier = 0;
};

// Runs both enumerators to the end (or to their budget) and compares them
// after every step.
void CompareOne(const JoinGraph& graph, const std::set<std::string>& required,
                const std::vector<JoinConstraint>& mandatory,
                size_t max_extra, uint64_t budget, const std::string& label,
                Totals* totals) {
  JoinTreeSearchOptions options;
  options.max_extra_relations = max_extra;
  JoinTreeSearchOptions legacy_options = options;
  if (budget > 0) {
    options.token = DeadlineToken::Root({budget, 0});
    legacy_options.token = DeadlineToken::Root({budget, 0});
  }
  JoinTreeEnumerator current(graph, required, mandatory, options);
  legacy::JoinTreeEnumerator oracle(graph, required, mandatory,
                                    legacy_options);
  ++totals->cases;
  if (!mandatory.empty()) ++totals->with_mandatory;
  auto same_state = [&](size_t step) {
    SCOPED_TRACE(label + " step " + std::to_string(step));
    EXPECT_EQ(current.sets_expanded(), oracle.sets_expanded());
    EXPECT_EQ(current.sets_cut(), oracle.sets_cut());
    EXPECT_EQ(current.trees_yielded(), oracle.trees_yielded());
    EXPECT_EQ(current.NextTreeSizeLowerBound(),
              oracle.NextTreeSizeLowerBound());
    EXPECT_EQ(current.Exhausted(), oracle.Exhausted());
    EXPECT_EQ(current.interrupted(), oracle.interrupted());
    EXPECT_EQ(options.token.work_spent(), legacy_options.token.work_spent());
    return current.sets_expanded() == oracle.sets_expanded() &&
           current.Exhausted() == oracle.Exhausted();
  };
  if (!same_state(0)) return;
  if (!current.Exhausted() && current.sets_expanded() == 0 &&
      current.NextTreeSizeLowerBound() > required.size()) {
    ++totals->floor_above_frontier;
  }
  for (size_t step = 1; step <= 2000; ++step) {
    const std::optional<JoinTree> got = current.Next();
    const std::optional<JoinTree> want = oracle.Next();
    ASSERT_EQ(got.has_value(), want.has_value())
        << label << " step " << step;
    if (got.has_value()) {
      EXPECT_EQ(TreeKey(*got), TreeKey(*want)) << label << " step " << step;
      ++totals->trees;
    }
    if (!same_state(step)) return;
    if (!got.has_value()) {
      if (current.interrupted()) ++totals->interrupted;
      if (current.sets_cut() > 0) ++totals->cut;
      // A finished or stopped enumerator stays that way.
      EXPECT_FALSE(current.Next().has_value()) << label;
      EXPECT_FALSE(oracle.Next().has_value()) << label;
      same_state(step + 1);
      return;
    }
  }
  ADD_FAILURE() << label << ": did not finish within 2000 steps";
}

TEST(JoinTreeEnumeratorDifferential, MatchesLegacyEnumeratorStepByStep) {
  Totals totals;
  std::mt19937_64 rng(20261017);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (size_t graph_case = 0; graph_case < 600; ++graph_case) {
    const std::unique_ptr<GraphCase> sample = MakeGraphCase(graph_case, &rng);
    const JoinGraph& graph = *sample->graph;
    if (graph.relations().empty()) continue;
    for (size_t query = 0; query < 8; ++query) {
      const Request request = RandomRequest(graph, &rng);
      const uint64_t budget =
          coin(rng) < 0.35 ? std::uniform_int_distribution<uint64_t>(1, 30)(rng)
                           : 0;
      CompareOne(graph, request.required, request.mandatory, request.max_extra,
                 budget, sample->label + " query " + std::to_string(query),
                 &totals);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The sweep must reach every behaviour it is meant to compare.
  EXPECT_GE(totals.cases, 4000u);
  EXPECT_GE(totals.trees, 5000u);
  EXPECT_GE(totals.interrupted, 100u);
  EXPECT_GE(totals.cut, 500u);
  EXPECT_GE(totals.with_mandatory, 1000u);
  EXPECT_GE(totals.floor_above_frontier, 500u);
}

TEST(JoinTreeEnumeratorDifferential, DrainedTreesKeepTheLegacyOrder) {
  // A drain over a chain with skip edges: the same trees, in the same
  // order, as draining the legacy enumerator.
  std::mt19937_64 rng(7);
  std::vector<Edge> edges;
  for (size_t i = 0; i + 1 < 10; ++i) edges.emplace_back(i, i + 1);
  for (size_t i = 0; i + 2 < 10; ++i) edges.emplace_back(i, i + 2);
  const std::vector<std::string> names = RelationNames(10, &rng);
  const Mkb mkb = BuildMkb(names, edges, &rng);
  const JoinGraph graph = JoinGraph::Build(mkb);
  JoinTreeSearchOptions options;
  options.max_extra_relations = 3;
  const size_t max_trees = 40;
  const std::set<std::string> required{names[0], names[5]};
  const std::vector<JoinTree> trees =
      testing_trees::DrainJoinTrees(graph, required, {}, options, max_trees);
  legacy::JoinTreeEnumerator oracle(graph, required, {}, options);
  std::vector<std::string> want;
  while (want.size() < max_trees) {
    const std::optional<JoinTree> tree = oracle.Next();
    if (!tree.has_value()) break;
    want.push_back(TreeKey(*tree));
  }
  std::vector<std::string> got;
  for (const JoinTree& tree : trees) got.push_back(TreeKey(tree));
  EXPECT_EQ(got, want);
  EXPECT_GE(got.size(), 10u);
}

// What a caller sees after one Next() (or, for the first, before any).
struct Step {
  std::string tree;  // TreeKey of the yielded tree, "-" for nullopt
  size_t expanded = 0;
  size_t cut = 0;
  size_t yielded = 0;
  size_t bound = 0;
  bool exhausted = false;
  bool interrupted = false;
  uint64_t spent = 0;

  bool operator==(const Step&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Step& step) {
  return os << "{tree " << step.tree << ", expanded " << step.expanded
            << ", cut " << step.cut << ", yielded " << step.yielded
            << ", bound " << step.bound << ", exhausted " << step.exhausted
            << ", interrupted " << step.interrupted << ", spent "
            << step.spent << "}";
}

Step Observe(const JoinTreeEnumerator& enumerator,
             const std::optional<JoinTree>& tree, const DeadlineToken& token) {
  Step step;
  step.tree = tree.has_value() ? TreeKey(*tree) : "-";
  step.expanded = enumerator.sets_expanded();
  step.cut = enumerator.sets_cut();
  step.yielded = enumerator.trees_yielded();
  step.bound = enumerator.NextTreeSizeLowerBound();
  step.exhausted = enumerator.Exhausted();
  step.interrupted = enumerator.interrupted();
  step.spent = token.work_spent();
  return step;
}

// An enumerator for `request` with its own token (budget 0 = none).
struct Cursor {
  Cursor(const JoinGraph& graph, const Request& request, uint64_t budget)
      : token(budget > 0 ? DeadlineToken::Root({budget, 0}) : DeadlineToken()),
        enumerator(graph, request.required, request.mandatory, Options(request)) {}

  JoinTreeSearchOptions Options(const Request& request) const {
    JoinTreeSearchOptions options;
    options.max_extra_relations = request.max_extra;
    options.token = token;
    return options;
  }

  // Pulls once and returns what the caller sees. Done() once Next() has
  // returned nullopt twice (a finished or stopped enumerator stays so).
  Step Pull() {
    const std::optional<JoinTree> tree = enumerator.Next();
    if (!tree.has_value()) ++nullopts;
    return Observe(enumerator, tree, token);
  }
  bool Done() const { return nullopts >= 2; }

  DeadlineToken token;
  JoinTreeEnumerator enumerator;
  size_t nullopts = 0;
};

// The steps of `request` over `graph`: the state before the first Next(),
// then one per Next() until nullopt has come back twice.
std::vector<Step> Trajectory(const JoinGraph& graph, const Request& request,
                             uint64_t budget) {
  Cursor cursor(graph, request, budget);
  std::vector<Step> steps{Observe(cursor.enumerator, std::nullopt,
                                  cursor.token)};
  while (!cursor.Done() && steps.size() < 3000) steps.push_back(cursor.Pull());
  return steps;
}

// A random request whose search takes the most pops among a few draws,
// so that there is a search to share.
Request SearchingRequest(const JoinGraph& graph, std::mt19937_64* rng) {
  Request best;
  size_t best_pops = 0;
  for (size_t draw = 0; draw < 8; ++draw) {
    Request request = RandomRequest(graph, rng);
    const size_t pops = Trajectory(graph, request, 0).back().expanded;
    if (draw == 0 || pops > best_pops) {
      best = std::move(request);
      best_pops = pops;
    }
  }
  return best;
}

// A copy of `graph` that shares its searches.
std::unique_ptr<JoinGraph> SharingCopy(const JoinGraph& graph) {
  auto shared = std::make_unique<JoinGraph>(graph);
  shared->ShareSearches();
  return shared;
}

TEST(JoinTreeSearchSharing, InterleavedCursorsMatchPrivateSearches) {
  // Per graph: three distinct requests and eight cursors over them, some
  // with the mandatory edges in another order (the same search, another
  // tree edge order) and some with work budgets, pulled in a random
  // interleaving on one thread. Every step must be the private search's.
  std::mt19937_64 rng(20261018);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  size_t cursors_run = 0, trees = 0, interrupted = 0, cut = 0, replays = 0;
  for (size_t graph_case = 0; graph_case < 300; ++graph_case) {
    const std::unique_ptr<GraphCase> sample = MakeGraphCase(graph_case, &rng);
    const JoinGraph& graph = *sample->graph;
    if (graph.relations().empty()) continue;
    const std::unique_ptr<JoinGraph> shared = SharingCopy(graph);
    std::vector<Request> requests;
    for (size_t r = 0; r < 3; ++r) {
      requests.push_back(SearchingRequest(graph, &rng));
    }
    std::set<size_t> searched;  // requests some cursor asked for
    std::vector<std::vector<Step>> want;
    std::vector<std::unique_ptr<Cursor>> cursors;
    for (size_t c = 0; c < 8; ++c) {
      const size_t index = std::uniform_int_distribution<size_t>(0, 2)(rng);
      searched.insert(index);
      Request request = requests[index];
      if (coin(rng) < 0.3) {
        std::shuffle(request.mandatory.begin(), request.mandatory.end(), rng);
      }
      const uint64_t budget =
          coin(rng) < 0.4 ? std::uniform_int_distribution<uint64_t>(1, 12)(rng)
                          : 0;
      want.push_back(Trajectory(graph, request, budget));
      cursors.push_back(std::make_unique<Cursor>(*shared, request, budget));
      EXPECT_EQ(Observe(cursors.back()->enumerator, std::nullopt,
                        cursors.back()->token),
                want.back().front())
          << sample->label << " cursor " << c << " before the first pull";
    }
    std::vector<size_t> steps(cursors.size(), 0);
    std::vector<size_t> live(cursors.size());
    for (size_t c = 0; c < live.size(); ++c) live[c] = c;
    while (!live.empty()) {
      const size_t slot =
          std::uniform_int_distribution<size_t>(0, live.size() - 1)(rng);
      const size_t c = live[slot];
      const Step got = cursors[c]->Pull();
      const size_t step = ++steps[c];
      ASSERT_LT(step, want[c].size()) << sample->label << " cursor " << c;
      ASSERT_EQ(got, want[c][step])
          << sample->label << " cursor " << c << " step " << step;
      if (cursors[c]->Done()) {
        ASSERT_EQ(step + 1, want[c].size()) << sample->label;
        ++cursors_run;
        if (got.interrupted) ++interrupted;
        if (got.cut > 0) ++cut;
        trees += got.yielded;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(slot));
      }
    }
    // Cursors after the first of each request replayed its log.
    replays += cursors.size() - searched.size();
  }
  EXPECT_GE(cursors_run, 2000u);
  EXPECT_GE(trees, 8000u);
  EXPECT_GE(interrupted, 300u);
  EXPECT_GE(cut, 500u);
  EXPECT_GE(replays, 1200u);
}

TEST(JoinTreeSearchSharing, FourThreadsRacingOnOneLogMatchThePrivateSearch) {
  // Four threads build cursors for one request on a fresh shared graph at
  // the same moment and pull them to the end, so the log's growth races
  // with its replay. Each thread's steps must be the private search's.
  std::mt19937_64 rng(20261019);
  size_t races = 0;
  for (size_t graph_case = 0; graph_case < 120; ++graph_case) {
    const std::unique_ptr<GraphCase> sample = MakeGraphCase(graph_case, &rng);
    const JoinGraph& graph = *sample->graph;
    if (graph.relations().empty()) continue;
    const Request request = SearchingRequest(graph, &rng);
    const std::vector<Step> want = Trajectory(graph, request, 0);
    const std::unique_ptr<JoinGraph> shared = SharingCopy(graph);
    constexpr size_t kThreads = 4;
    std::vector<std::vector<Step>> got(kThreads);
    std::atomic<size_t> arrived{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        arrived.fetch_add(1);
        while (arrived.load() < kThreads) std::this_thread::yield();
        got[t] = Trajectory(*shared, request, 0);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t t = 0; t < kThreads; ++t) {
      ASSERT_EQ(got[t].size(), want.size()) << sample->label << " thread " << t;
      for (size_t step = 0; step < want.size(); ++step) {
        ASSERT_EQ(got[t][step], want[step])
            << sample->label << " thread " << t << " step " << step;
      }
    }
    if (want.back().expanded > 1) ++races;
  }
  EXPECT_GE(races, 70u);
}

TEST(JoinTreeSearchSharing, EveryBudgetStopsAtThePrivateSearchsPop) {
  // For every work budget from 1 to the exhaustive pop count, a budgeted
  // cursor stops at the same pop, with the same frontier bound and trees,
  // as a budgeted private search: both when it is the cursor making the
  // pops and when it replays a log another cursor already grew.
  std::mt19937_64 rng(20261020);
  size_t budgets_checked = 0;
  for (size_t graph_case = 0; graph_case < 60; ++graph_case) {
    const std::unique_ptr<GraphCase> sample = MakeGraphCase(graph_case, &rng);
    const JoinGraph& graph = *sample->graph;
    if (graph.relations().empty()) continue;
    const Request request = SearchingRequest(graph, &rng);
    const size_t pops = Trajectory(graph, request, 0).back().expanded;
    // A shared graph whose log an unbudgeted cursor has grown to the end.
    const std::unique_ptr<JoinGraph> grown = SharingCopy(graph);
    Trajectory(*grown, request, 0);
    for (uint64_t budget = 1; budget <= pops; ++budget) {
      const std::vector<Step> want = Trajectory(graph, request, budget);
      const std::vector<Step> leading =
          Trajectory(*SharingCopy(graph), request, budget);
      const std::vector<Step> replaying = Trajectory(*grown, request, budget);
      ASSERT_EQ(leading, want) << sample->label << " budget " << budget;
      ASSERT_EQ(replaying, want) << sample->label << " budget " << budget;
      EXPECT_EQ(want.back().interrupted, budget < pops)
          << sample->label << " budget " << budget;
      ++budgets_checked;
    }
  }
  EXPECT_GE(budgets_checked, 1500u);
}

}  // namespace
}  // namespace eve
