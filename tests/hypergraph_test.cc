#include <gtest/gtest.h>

#include "hypergraph/hypergraph.h"
#include "hypergraph/join_graph.h"
#include "join_tree_drain.h"
#include "mkb/builder.h"
#include "mkb/evolution.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

using testing_trees::DrainJoinTrees;

// --- Hypergraph (Fig. 4 reproduction) ------------------------------------

TEST(HypergraphTest, Fig4NodeAndEdgeCounts) {
  const Mkb mkb = MakeTravelAgencyMkb().value();
  const Hypergraph graph = Hypergraph::Build(mkb);
  // 7 relations with 4+4+4+6+4+3+4 = 29 attributes.
  EXPECT_EQ(graph.NumNodes(), 29u);
  EXPECT_EQ(graph.NumEdges(HyperedgeKind::kRelation), 7u);
  EXPECT_EQ(graph.NumEdges(HyperedgeKind::kJoinConstraint), 6u);
  EXPECT_EQ(graph.NumEdges(HyperedgeKind::kFunctionOf), 7u);
}

TEST(HypergraphTest, Fig4TwoConnectedComponents) {
  const Mkb mkb = MakeTravelAgencyMkb().value();
  const auto components = Hypergraph::Build(mkb).RelationComponents();
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0],
            (std::vector<std::string>{"Accident-Ins", "Customer",
                                      "FlightRes", "Participant", "Tour"}));
  EXPECT_EQ(components[1],
            (std::vector<std::string>{"Hotels", "RentACar"}));
}

TEST(HypergraphTest, Fig4PrimeAfterDeletingCustomer) {
  // H'(MKB'): deleting Customer splits the big component.
  const Mkb mkb = MakeTravelAgencyMkb().value();
  const auto report =
      EvolveMkb(mkb, CapabilityChange::DeleteRelation("Customer")).value();
  const auto components =
      Hypergraph::Build(report.mkb).RelationComponents();
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[0],
            (std::vector<std::string>{"Accident-Ins", "FlightRes"}));
  EXPECT_EQ(components[1], (std::vector<std::string>{"Hotels", "RentACar"}));
  EXPECT_EQ(components[2], (std::vector<std::string>{"Participant", "Tour"}));
}

TEST(HypergraphTest, SummaryMentionsComponents) {
  const Mkb mkb = MakeTravelAgencyMkb().value();
  const std::string summary = Hypergraph::Build(mkb).Summary();
  EXPECT_NE(summary.find("29 attribute nodes"), std::string::npos);
  EXPECT_NE(summary.find("connected components (2)"), std::string::npos);
}

// --- JoinGraph -----------------------------------------------------------

class JoinGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mkb_ = MakeTravelAgencyMkb().MoveValue();
    graph_ = JoinGraph::Build(mkb_);
  }
  Mkb mkb_;
  JoinGraph graph_;
};

TEST_F(JoinGraphTest, NeighborsFollowJoinConstraints) {
  const auto neighbors = graph_.Neighbors("Customer");
  ASSERT_EQ(neighbors.size(), 3u);  // JC1, JC2, JC3
  std::vector<std::string> names;
  for (const auto& n : neighbors) names.push_back(n.relation);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"Accident-Ins", "FlightRes",
                                             "Participant"}));
}

TEST_F(JoinGraphTest, ComponentOfMatchesFig4) {
  EXPECT_EQ(graph_.ComponentOf("Customer"),
            (std::vector<std::string>{"Accident-Ins", "Customer",
                                      "FlightRes", "Participant", "Tour"}));
  EXPECT_EQ(graph_.ComponentOf("Hotels"),
            (std::vector<std::string>{"Hotels", "RentACar"}));
  EXPECT_TRUE(graph_.ComponentOf("Nowhere").empty());
}

TEST_F(JoinGraphTest, SameComponent) {
  EXPECT_TRUE(graph_.SameComponent("Customer", "Tour"));
  EXPECT_FALSE(graph_.SameComponent("Customer", "Hotels"));
}

TEST_F(JoinGraphTest, ComponentsAreSortedPartition) {
  const auto components = graph_.Components();
  ASSERT_EQ(components.size(), 2u);
  size_t total = 0;
  for (const auto& c : components) total += c.size();
  EXPECT_EQ(total, 7u);
}

TEST_F(JoinGraphTest, EraseRelationRemovesEdges) {
  const JoinGraph pruned = graph_.EraseRelation("Customer");
  EXPECT_FALSE(pruned.HasRelation("Customer"));
  EXPECT_TRUE(pruned.HasRelation("FlightRes"));
  // FlightRes keeps only JC6.
  const auto neighbors = pruned.Neighbors("FlightRes");
  ASSERT_EQ(neighbors.size(), 1u);
  EXPECT_EQ(neighbors[0].relation, "Accident-Ins");
  EXPECT_FALSE(pruned.SameComponent("FlightRes", "Participant"));
}

TEST_F(JoinGraphTest, ConnectingTreesSingleRelation) {
  const auto trees = DrainJoinTrees(graph_, {"FlightRes"}, {}, {});
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].relations, (std::vector<std::string>{"FlightRes"}));
  EXPECT_TRUE(trees[0].edges.empty());
}

TEST_F(JoinGraphTest, ConnectingTreesDirectEdge) {
  const auto trees =
      DrainJoinTrees(graph_, {"FlightRes", "Accident-Ins"}, {}, {});
  ASSERT_GE(trees.size(), 1u);
  EXPECT_EQ(trees[0].relations.size(), 2u);
  ASSERT_EQ(trees[0].edges.size(), 1u);
  EXPECT_EQ(trees[0].edges[0].id, "JC6");
}

TEST_F(JoinGraphTest, ConnectingTreesMultiHop) {
  // Tour to FlightRes requires Participant and Customer as Steiner nodes.
  JoinTreeSearchOptions options;
  options.max_extra_relations = 3;
  const auto trees =
      DrainJoinTrees(graph_, {"Tour", "FlightRes"}, {}, options);
  ASSERT_GE(trees.size(), 1u);
  const JoinTree& best = trees[0];
  EXPECT_EQ(best.relations.size(), 4u);
  EXPECT_EQ(best.edges.size(), 3u);
}

TEST_F(JoinGraphTest, ConnectingTreesRespectsBound) {
  JoinTreeSearchOptions options;
  options.max_extra_relations = 1;  // not enough for Tour—FlightRes
  const auto trees =
      DrainJoinTrees(graph_, {"Tour", "FlightRes"}, {}, options);
  EXPECT_TRUE(trees.empty());
}

TEST_F(JoinGraphTest, ConnectingTreesAcrossComponentsFails) {
  const auto trees =
      DrainJoinTrees(graph_, {"Customer", "Hotels"}, {}, {});
  EXPECT_TRUE(trees.empty());
}

TEST_F(JoinGraphTest, ConnectingTreesMissingRelationFails) {
  const auto trees = DrainJoinTrees(graph_, {"Ghost"}, {}, {});
  EXPECT_TRUE(trees.empty());
}

TEST_F(JoinGraphTest, MandatoryEdgesAreIncluded) {
  const JoinConstraint* jc4 = mkb_.GetJoinConstraint("JC4").value();
  const auto trees =
      DrainJoinTrees(graph_, {"Participant", "Tour", "Customer"}, {*jc4}, {});
  ASSERT_GE(trees.size(), 1u);
  bool found_jc4 = false;
  for (const JoinConstraint& edge : trees[0].edges) {
    if (edge.id == "JC4") found_jc4 = true;
  }
  EXPECT_TRUE(found_jc4);
  EXPECT_EQ(trees[0].edges.size(), 2u);  // JC4 + JC3
}

TEST_F(JoinGraphTest, MandatoryEdgeOutsideRequiredSetRejected) {
  const JoinConstraint* jc4 = mkb_.GetJoinConstraint("JC4").value();
  const auto trees =
      DrainJoinTrees(graph_, {"Customer", "FlightRes"}, {*jc4}, {});
  EXPECT_TRUE(trees.empty());
}

TEST(JoinGraphParallelEdgesTest, AlternativeJoinConstraintsBothUsable) {
  Mkb mkb;
  RelationDef r;
  r.source = "IS1";
  r.name = "R";
  r.schema = Schema({{"a", DataType::kInt}, {"b", DataType::kInt}});
  ASSERT_TRUE(mkb.AddRelation(r).ok());
  RelationDef s;
  s.source = "IS2";
  s.name = "S";
  s.schema = Schema({{"a", DataType::kInt}, {"b", DataType::kInt}});
  ASSERT_TRUE(mkb.AddRelation(s).ok());
  ASSERT_TRUE(AddJoinConstraintText(&mkb, "J1", "R", "S", "R.a = S.a").ok());
  ASSERT_TRUE(AddJoinConstraintText(&mkb, "J2", "R", "S", "R.b = S.b").ok());
  const JoinGraph graph = JoinGraph::Build(mkb);
  EXPECT_EQ(graph.Neighbors("R").size(), 2u);
  const auto trees = DrainJoinTrees(graph, {"R", "S"}, {}, {});
  ASSERT_EQ(trees.size(), 1u);  // one spanning tree per relation set
  EXPECT_EQ(trees[0].edges.size(), 1u);
}

TEST(JoinTreeTest, ToStringSmoke) {
  JoinTree tree;
  tree.relations = {"A", "B"};
  JoinConstraint jc;
  jc.id = "J";
  jc.lhs = "A";
  jc.rhs = "B";
  tree.edges.push_back(jc);
  EXPECT_NE(tree.ToString().find("J"), std::string::npos);
  EXPECT_EQ(JoinTree{}.ToString(), "(empty)");
}

}  // namespace
}  // namespace eve
