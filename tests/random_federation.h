// Seeded random federations and views for the differential tests of the
// CVS layer (candidate_stream_test, cvs_driver_equivalence_test): relation
// names that sort in a shuffled order and contain '|', parallel JCs, one to
// three covers per payload placed anywhere in the graph, identity,
// arithmetic and constant cover functions, PC constraints of every
// direction that certify the cover pair, a wrong pair or no pair, and
// views over one to three joined relations with random evolution
// parameters.

#ifndef EVE_TESTS_RANDOM_FEDERATION_H_
#define EVE_TESTS_RANDOM_FEDERATION_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cvs/cost_model.h"
#include "esql/view_definition.h"
#include "mkb/mkb.h"

namespace eve {
namespace testing_federation {

using Edge = std::pair<size_t, size_t>;

// A seeded random federation and the join edges it was built from.
struct World {
  Mkb mkb;
  std::vector<std::string> names;
  std::vector<Edge> edges;  // edge k joins names[first], names[second]
                            // on link attribute K<k>
};

inline AttributeRef Attr(const std::string& relation, const std::string& name) {
  return AttributeRef{relation, name};
}

inline World MakeWorld(std::mt19937_64* rng) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  auto pick = [&](size_t lo, size_t hi) {
    return std::uniform_int_distribution<size_t>(lo, hi)(*rng);
  };
  World world;
  const size_t n = pick(4, 9);
  for (size_t i = 0; i < n; ++i) {
    // Some names carry '|', which the old dedup key used as separator.
    world.names.push_back(i % 4 == 3 ? "R" + std::to_string(i - 1) + "|R" +
                                           std::to_string(i)
                                     : "R" + std::to_string(i));
  }
  std::shuffle(world.names.begin(), world.names.end(), *rng);
  for (size_t i = 1; i < n; ++i) world.edges.emplace_back(pick(0, i - 1), i);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (coin(*rng) < 0.2) world.edges.emplace_back(i, j);
    }
  }
  if (coin(*rng) < 0.5) {
    const Edge parallel = world.edges[pick(0, world.edges.size() - 1)];
    world.edges.push_back(parallel);
  }

  // Covers: each payload gets zero to three, anywhere in the graph.
  struct CoverPlan {
    size_t covered;
    std::string payload;
    size_t on;
    std::string attr;
  };
  std::vector<CoverPlan> covers;
  for (size_t i = 0; i < n; ++i) {
    for (const char* payload : {"P", "Q"}) {
      const size_t count = coin(*rng) < 0.3 ? 0 : pick(1, 3);
      for (size_t c = 0; c < count; ++c) {
        size_t on = pick(0, n - 2);
        if (on >= i) ++on;
        covers.push_back({i, payload, on,
                          "C" + std::to_string(covers.size())});
      }
    }
  }

  std::vector<std::vector<AttributeDef>> attrs(n);
  for (size_t i = 0; i < n; ++i) {
    attrs[i].push_back({"P", DataType::kInt});
    attrs[i].push_back({"Q", DataType::kInt});
  }
  for (size_t k = 0; k < world.edges.size(); ++k) {
    const std::string link = "K" + std::to_string(k);
    attrs[world.edges[k].first].push_back({link, DataType::kInt});
    attrs[world.edges[k].second].push_back({link, DataType::kInt});
  }
  for (const CoverPlan& cover : covers) {
    attrs[cover.on].push_back({cover.attr, DataType::kInt});
  }
  for (size_t i = 0; i < n; ++i) {
    RelationDef def;
    def.source = "IS" + std::to_string(i);
    def.name = world.names[i];
    def.schema = Schema(std::move(attrs[i]));
    EXPECT_TRUE(world.mkb.AddRelation(std::move(def)).ok());
  }
  for (size_t k = 0; k < world.edges.size(); ++k) {
    const std::string link = "K" + std::to_string(k);
    JoinConstraint jc;
    jc.id = "J" + std::to_string(k);
    jc.lhs = world.names[world.edges[k].first];
    jc.rhs = world.names[world.edges[k].second];
    jc.clauses.push_back(
        Expr::ColumnsEqual(Attr(jc.lhs, link), Attr(jc.rhs, link)));
    EXPECT_TRUE(world.mkb.AddJoinConstraint(std::move(jc)).ok());
  }

  constexpr SetRelation kRelations[] = {
      SetRelation::kEqual, SetRelation::kSuperset, SetRelation::kSubset,
      SetRelation::kProperSuperset, SetRelation::kProperSubset};
  size_t pc_count = 0;
  const auto add_pc = [&](const AttributeRef& a, const AttributeRef& b) {
    PCConstraint pc;
    pc.id = "PC" + std::to_string(pc_count++);
    const bool flip = coin(*rng) < 0.5;
    const AttributeRef& lhs = flip ? b : a;
    const AttributeRef& rhs = flip ? a : b;
    pc.lhs_relation = lhs.relation;
    pc.rhs_relation = rhs.relation;
    pc.lhs_attrs = {lhs};
    pc.rhs_attrs = {rhs};
    pc.relation = kRelations[pick(0, 4)];
    EXPECT_TRUE(world.mkb.AddPCConstraint(std::move(pc)).ok());
  };
  for (size_t c = 0; c < covers.size(); ++c) {
    const CoverPlan& cover = covers[c];
    const std::string& target_rel = world.names[cover.covered];
    const std::string& source_rel = world.names[cover.on];
    FunctionOfConstraint fc;
    fc.id = "F" + std::to_string(c);
    fc.target = Attr(target_rel, cover.payload);
    fc.source = Attr(source_rel, cover.attr);
    const double shape = coin(*rng);
    if (shape < 0.75) {
      fc.fn = Expr::Column(fc.source);
    } else if (shape < 0.92) {
      fc.fn = Expr::Binary(BinaryOp::kAdd, Expr::Column(fc.source),
                           Expr::Lit(Value::Int(1)));
    } else {
      fc.fn = Expr::Lit(Value::Int(7));  // no source column: no cover pair
    }
    EXPECT_TRUE(world.mkb.AddFunctionOf(std::move(fc)).ok());
    const double pc = coin(*rng);
    if (pc < 0.55) {
      add_pc(Attr(source_rel, cover.attr), Attr(target_rel, cover.payload));
    } else if (pc < 0.7) {
      // Between the right relations, certifying another pair.
      add_pc(Attr(source_rel, "P"), Attr(target_rel, "Q"));
    }
  }
  // PCs that can justify Steiner relations.
  for (size_t extra = pick(0, n); extra > 0; --extra) {
    const size_t a = pick(0, n - 1);
    size_t b = pick(0, n - 2);
    if (b >= a) ++b;
    add_pc(Attr(world.names[a], "P"), Attr(world.names[b], "P"));
  }
  return world;
}

inline EvolutionParams RandomParams(std::mt19937_64* rng) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  return EvolutionParams{coin(*rng) < 0.4, coin(*rng) < 0.85};
}

// A view over one to three relations connected by world edges: their
// payloads (and sometimes a sum of two), the link equalities, sometimes a
// filter, each component with random evolution parameters.
inline ViewDefinition MakeView(const World& world, std::mt19937_64* rng,
                        const std::string& name) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  auto pick = [&](size_t lo, size_t hi) {
    return std::uniform_int_distribution<size_t>(lo, hi)(*rng);
  };
  std::vector<size_t> chosen{pick(0, world.names.size() - 1)};
  std::vector<size_t> joins;  // edge indices
  const size_t size = pick(1, 3);
  while (chosen.size() < size) {
    std::vector<size_t> frontier;
    for (size_t k = 0; k < world.edges.size(); ++k) {
      const auto [a, b] = world.edges[k];
      const bool has_a =
          std::find(chosen.begin(), chosen.end(), a) != chosen.end();
      const bool has_b =
          std::find(chosen.begin(), chosen.end(), b) != chosen.end();
      if (has_a != has_b) frontier.push_back(k);
    }
    if (frontier.empty()) break;
    const size_t k = frontier[pick(0, frontier.size() - 1)];
    const auto [a, b] = world.edges[k];
    chosen.push_back(
        std::find(chosen.begin(), chosen.end(), a) != chosen.end() ? b : a);
    joins.push_back(k);
  }

  std::vector<ViewSelectItem> select;
  std::vector<ViewRelation> from;
  std::vector<ViewCondition> where;
  for (const size_t i : chosen) {
    const std::string& rel = world.names[i];
    from.push_back(ViewRelation{rel, RandomParams(rng)});
    select.push_back(ViewSelectItem{Expr::Column(Attr(rel, "P")),
                                    "P" + std::to_string(select.size()),
                                    RandomParams(rng)});
    if (coin(*rng) < 0.4) {
      select.push_back(ViewSelectItem{Expr::Column(Attr(rel, "Q")),
                                      "Q" + std::to_string(select.size()),
                                      RandomParams(rng)});
    }
    if (coin(*rng) < 0.2) {
      where.push_back(ViewCondition{
          Expr::Binary(BinaryOp::kGt, Expr::Column(Attr(rel, "Q")),
                       Expr::Lit(Value::Int(3))),
          RandomParams(rng)});
    }
  }
  if (chosen.size() > 1 && coin(*rng) < 0.3) {
    const std::string& a = world.names[chosen[0]];
    const std::string& b = world.names[chosen[1]];
    select.push_back(ViewSelectItem{
        Expr::Binary(BinaryOp::kAdd, Expr::Column(Attr(a, "Q")),
                     Expr::Column(Attr(b, "P"))),
        "S" + std::to_string(select.size()), RandomParams(rng)});
  }
  for (const size_t k : joins) {
    const std::string link = "K" + std::to_string(k);
    where.push_back(ViewCondition{
        Expr::ColumnsEqual(Attr(world.names[world.edges[k].first], link),
                           Attr(world.names[world.edges[k].second], link)),
        RandomParams(rng)});
  }
  return ViewDefinition(name, ViewExtent::kAny, std::move(select),
                        std::move(from), std::move(where));
}

// A model that charges nothing: every bound ties, so the heap order is
// the creation order alone.
inline RewritingCostModel FlatCostModel() {
  RewritingCostModel model;
  model.dropped_attribute_penalty = 0.0;
  model.dropped_condition_penalty = 0.0;
  model.extra_relation_penalty = 0.0;
  model.extent_directional_penalty = 0.0;
  model.extent_unknown_penalty = 0.0;
  return model;
}

}  // namespace testing_federation
}  // namespace eve

#endif  // EVE_TESTS_RANDOM_FEDERATION_H_
