#include "workload/generator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/stable_hash.h"
#include "mkb/builder.h"

namespace eve {

namespace {

std::string RelName(size_t i) { return "R" + std::to_string(i); }
std::string LinkName(size_t i) { return "L" + std::to_string(i); }
std::string PayloadName(size_t i) { return "P" + std::to_string(i); }
std::string CoverName(size_t i) { return "C" + std::to_string(i); }

Status AddLinkJc(Mkb* mkb, const std::string& id, const std::string& a,
                 const std::string& b, const std::string& link) {
  JoinConstraint jc;
  jc.id = id;
  jc.lhs = a;
  jc.rhs = b;
  jc.clauses.push_back(
      Expr::ColumnsEqual(AttributeRef{a, link}, AttributeRef{b, link}));
  return mkb->AddJoinConstraint(std::move(jc));
}

Status AddCover(Mkb* mkb, size_t covered, const std::string& target,
                bool pc) {
  const std::string covered_rel = RelName(covered);
  EVE_RETURN_IF_ERROR(AddIdentityFunctionOf(
      mkb, "FC" + std::to_string(covered),
      AttributeRef{covered_rel, PayloadName(covered)},
      AttributeRef{target, CoverName(covered)}));
  if (pc) {
    EVE_RETURN_IF_ERROR(AddProjectionPC(
        mkb, "PCC" + std::to_string(covered), target, CoverName(covered),
        SetRelation::kSuperset, covered_rel, PayloadName(covered)));
  }
  return Status::OK();
}

}  // namespace

Result<Mkb> MakeChainMkb(const ChainMkbSpec& spec) {
  if (spec.length < 2) {
    return Status::InvalidArgument("chain length must be at least 2");
  }
  const size_t n = spec.length;
  Mkb mkb;

  // Plan attribute sets first: cover targets depend on the topology.
  std::vector<std::vector<AttributeDef>> attrs(n);
  for (size_t i = 0; i < n; ++i) {
    attrs[i].push_back({PayloadName(i), DataType::kInt});
    for (size_t k = 0; k < spec.extra_attributes; ++k) {
      attrs[i].push_back(
          {"X" + std::to_string(i) + "_" + std::to_string(k),
           DataType::kInt});
    }
    if (i > 0) attrs[i].push_back({LinkName(i - 1), DataType::kInt});
    if (i + 1 < n) attrs[i].push_back({LinkName(i), DataType::kInt});
    if (spec.skip_edges) {
      if (i + 2 < n) {
        attrs[i].push_back({"S" + std::to_string(i), DataType::kInt});
      }
      if (i >= 2) {
        attrs[i].push_back({"S" + std::to_string(i - 2), DataType::kInt});
      }
    }
  }
  std::vector<size_t> cover_target(n, n);  // n = no cover
  if (spec.cover_distance > 0) {
    for (size_t i = 0; i < n; ++i) {
      const size_t target = std::min(i + spec.cover_distance, n - 1);
      if (target == i) continue;  // cannot cover on itself
      cover_target[i] = target;
      attrs[target].push_back({CoverName(i), DataType::kInt});
    }
  }

  for (size_t i = 0; i < n; ++i) {
    RelationDef def;
    def.source = "IS" + std::to_string(i);
    def.name = RelName(i);
    def.schema = Schema(std::move(attrs[i]));
    EVE_RETURN_IF_ERROR(mkb.AddRelation(std::move(def)));
  }
  for (size_t i = 0; i + 1 < n; ++i) {
    EVE_RETURN_IF_ERROR(AddLinkJc(&mkb, "JL" + std::to_string(i), RelName(i),
                                  RelName(i + 1), LinkName(i)));
  }
  if (spec.skip_edges) {
    for (size_t i = 0; i + 2 < n; ++i) {
      EVE_RETURN_IF_ERROR(AddLinkJc(&mkb, "JS" + std::to_string(i),
                                    RelName(i), RelName(i + 2),
                                    "S" + std::to_string(i)));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (cover_target[i] < n) {
      EVE_RETURN_IF_ERROR(AddCover(&mkb, i, RelName(cover_target[i]),
                                   spec.pc_constraints));
    }
  }
  return mkb;
}

Result<Mkb> MakeCoverFanMkb(const CoverFanMkbSpec& spec) {
  if (spec.num_covers < 1) {
    return Status::InvalidArgument("cover fan needs at least one cover");
  }
  const size_t m = spec.num_covers;
  Mkb mkb;
  auto backbone = [](size_t i) { return "B" + std::to_string(i); };
  auto detour = [](size_t j) { return "D" + std::to_string(j); };

  // Victim R0.
  {
    RelationDef def;
    def.source = "IS_victim";
    def.name = "R0";
    def.schema = Schema({{"P0", DataType::kInt}, {"L0", DataType::kInt}});
    EVE_RETURN_IF_ERROR(mkb.AddRelation(std::move(def)));
  }
  // Anchor A0: joins the victim, heads the backbone, hosts the L0 cover
  // and the detour links.
  {
    std::vector<AttributeDef> attrs{{"PA", DataType::kInt},
                                    {"L0", DataType::kInt},
                                    {"CL", DataType::kInt},
                                    {"B0", DataType::kInt}};
    for (size_t j = 1; j <= spec.detours; ++j) {
      attrs.push_back({"E" + std::to_string(j), DataType::kInt});
    }
    RelationDef def;
    def.source = "IS_anchor";
    def.name = "A0";
    def.schema = Schema(std::move(attrs));
    EVE_RETURN_IF_ERROR(mkb.AddRelation(std::move(def)));
  }
  // Backbone B1..Bm, each carrying one cover attribute of R0.P0.
  for (size_t i = 1; i <= m; ++i) {
    std::vector<AttributeDef> attrs{
        {"C" + std::to_string(i), DataType::kInt},
        {"B" + std::to_string(i - 1), DataType::kInt}};
    if (i < m) attrs.push_back({"B" + std::to_string(i), DataType::kInt});
    RelationDef def;
    def.source = "IS_backbone";
    def.name = backbone(i);
    def.schema = Schema(std::move(attrs));
    EVE_RETURN_IF_ERROR(mkb.AddRelation(std::move(def)));
  }
  for (size_t j = 1; j <= spec.detours; ++j) {
    RelationDef def;
    def.source = "IS_detour";
    def.name = detour(j);
    def.schema = Schema({{"PD" + std::to_string(j), DataType::kInt},
                         {"E" + std::to_string(j), DataType::kInt}});
    EVE_RETURN_IF_ERROR(mkb.AddRelation(std::move(def)));
  }

  EVE_RETURN_IF_ERROR(AddLinkJc(&mkb, "JA0", "R0", "A0", "L0"));
  EVE_RETURN_IF_ERROR(AddLinkJc(&mkb, "JB0", "A0", backbone(1), "B0"));
  for (size_t i = 1; i < m; ++i) {
    EVE_RETURN_IF_ERROR(AddLinkJc(&mkb, "JB" + std::to_string(i),
                                  backbone(i), backbone(i + 1),
                                  "B" + std::to_string(i)));
  }
  for (size_t j = 1; j <= spec.detours; ++j) {
    EVE_RETURN_IF_ERROR(AddLinkJc(&mkb, "JD" + std::to_string(j), "A0",
                                  detour(j), "E" + std::to_string(j)));
  }

  // Covers: R0.P0 on every backbone node, R0.L0 on the anchor. The cover
  // PCs double as the Steiner-node justification for path candidates.
  const SetRelation pc_rel =
      spec.equal_pcs ? SetRelation::kEqual : SetRelation::kSuperset;
  for (size_t i = 1; i <= m; ++i) {
    EVE_RETURN_IF_ERROR(AddIdentityFunctionOf(
        &mkb, "FC" + std::to_string(i), AttributeRef{"R0", "P0"},
        AttributeRef{backbone(i), "C" + std::to_string(i)}));
    EVE_RETURN_IF_ERROR(AddProjectionPC(
        &mkb, "PCF" + std::to_string(i), backbone(i),
        "C" + std::to_string(i), pc_rel, "R0", "P0"));
  }
  EVE_RETURN_IF_ERROR(AddIdentityFunctionOf(&mkb, "FCL",
                                            AttributeRef{"R0", "L0"},
                                            AttributeRef{"A0", "CL"}));
  EVE_RETURN_IF_ERROR(
      AddProjectionPC(&mkb, "PCL", "A0", "CL", pc_rel, "R0", "L0"));
  return mkb;
}

Result<ViewDefinition> MakeCoverFanView(const Mkb& mkb) {
  if (!mkb.catalog().HasRelation("R0") || !mkb.catalog().HasRelation("A0")) {
    return Status::InvalidArgument("not a cover-fan MKB");
  }
  std::vector<ViewSelectItem> select;
  select.push_back(ViewSelectItem{Expr::Column(AttributeRef{"R0", "P0"}),
                                  "P0", EvolutionParams{false, true}});
  select.push_back(ViewSelectItem{Expr::Column(AttributeRef{"A0", "PA"}),
                                  "PA", EvolutionParams{false, true}});
  std::vector<ViewRelation> from{
      ViewRelation{"R0", EvolutionParams{false, true}},
      ViewRelation{"A0", EvolutionParams{false, true}}};
  std::vector<ViewCondition> where{
      ViewCondition{Expr::ColumnsEqual(AttributeRef{"R0", "L0"},
                                       AttributeRef{"A0", "L0"}),
                    EvolutionParams{false, true}}};
  return ViewDefinition("cover_fan_view", ViewExtent::kAny,
                        std::move(select), std::move(from),
                        std::move(where));
}

Result<Mkb> MakeStarMkb(size_t num_spokes) {
  if (num_spokes < 1) {
    return Status::InvalidArgument("star needs at least one spoke");
  }
  Mkb mkb;
  const size_t n = num_spokes + 1;  // R0 is the hub

  std::vector<std::vector<AttributeDef>> attrs(n);
  attrs[0].push_back({PayloadName(0), DataType::kInt});
  for (size_t spoke = 1; spoke < n; ++spoke) {
    attrs[0].push_back({LinkName(spoke), DataType::kInt});
    attrs[0].push_back({CoverName(spoke), DataType::kInt});
    attrs[spoke].push_back({PayloadName(spoke), DataType::kInt});
    attrs[spoke].push_back({LinkName(spoke), DataType::kInt});
  }
  attrs[1].push_back({CoverName(0), DataType::kInt});

  for (size_t i = 0; i < n; ++i) {
    RelationDef def;
    def.source = "IS" + std::to_string(i);
    def.name = RelName(i);
    def.schema = Schema(std::move(attrs[i]));
    EVE_RETURN_IF_ERROR(mkb.AddRelation(std::move(def)));
  }
  for (size_t spoke = 1; spoke < n; ++spoke) {
    EVE_RETURN_IF_ERROR(AddLinkJc(&mkb, "JL" + std::to_string(spoke),
                                  RelName(0), RelName(spoke),
                                  LinkName(spoke)));
    EVE_RETURN_IF_ERROR(AddCover(&mkb, spoke, RelName(0), true));
  }
  EVE_RETURN_IF_ERROR(AddCover(&mkb, 0, RelName(1), true));
  return mkb;
}

Result<Mkb> MakeGridMkb(size_t rows, size_t cols) {
  if (rows < 1 || cols < 2) {
    return Status::InvalidArgument("grid needs >= 1 row and >= 2 columns");
  }
  Mkb mkb;
  const size_t n = rows * cols;
  auto idx = [&](size_t r, size_t c) { return r * cols + c; };

  std::vector<std::vector<AttributeDef>> attrs(n);
  auto hlink = [](size_t r, size_t c) {
    return "H" + std::to_string(r) + "_" + std::to_string(c);
  };
  auto vlink = [](size_t r, size_t c) {
    return "V" + std::to_string(r) + "_" + std::to_string(c);
  };
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const size_t i = idx(r, c);
      attrs[i].push_back({PayloadName(i), DataType::kInt});
      if (c + 1 < cols) attrs[i].push_back({hlink(r, c), DataType::kInt});
      if (c > 0) attrs[i].push_back({hlink(r, c - 1), DataType::kInt});
      if (r + 1 < rows) attrs[i].push_back({vlink(r, c), DataType::kInt});
      if (r > 0) attrs[i].push_back({vlink(r - 1, c), DataType::kInt});
      // Cover of this payload on the right neighbor (wrapping).
      const size_t target = idx(r, (c + 1) % cols);
      if (target != i) attrs[target].push_back({CoverName(i), DataType::kInt});
    }
  }
  for (size_t i = 0; i < n; ++i) {
    RelationDef def;
    def.source = "IS" + std::to_string(i);
    def.name = RelName(i);
    def.schema = Schema(std::move(attrs[i]));
    EVE_RETURN_IF_ERROR(mkb.AddRelation(std::move(def)));
  }
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        EVE_RETURN_IF_ERROR(AddLinkJc(
            &mkb, "JH" + std::to_string(r) + "_" + std::to_string(c),
            RelName(idx(r, c)), RelName(idx(r, c + 1)), hlink(r, c)));
      }
      if (r + 1 < rows) {
        EVE_RETURN_IF_ERROR(AddLinkJc(
            &mkb, "JV" + std::to_string(r) + "_" + std::to_string(c),
            RelName(idx(r, c)), RelName(idx(r + 1, c)), vlink(r, c)));
      }
      const size_t i = idx(r, c);
      const size_t target = idx(r, (c + 1) % cols);
      if (target != i) {
        EVE_RETURN_IF_ERROR(AddCover(&mkb, i, RelName(target), true));
      }
    }
  }
  return mkb;
}

Result<Mkb> MakeRandomMkb(const RandomMkbSpec& spec) {
  if (spec.num_relations < 2) {
    return Status::InvalidArgument("random MKB needs at least 2 relations");
  }
  std::mt19937_64 rng(spec.seed);
  const size_t n = spec.num_relations;

  // Plan edges first: a random spanning tree (each node attaches to a
  // random earlier node) plus extra random pairs.
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t i = 1; i < n; ++i) {
    std::uniform_int_distribution<size_t> parent(0, i - 1);
    edges.emplace_back(parent(rng), i);
  }
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const bool in_tree =
          std::find(edges.begin(), edges.end(), std::make_pair(i, j)) !=
          edges.end();
      if (!in_tree && coin(rng) < spec.extra_edge_probability) {
        edges.emplace_back(i, j);
      }
    }
  }

  // Covers: relation i's payload mirrored on a random edge-neighbor.
  std::vector<int> cover_on(n, -1);
  auto neighbors_of = [&](size_t i) {
    std::vector<size_t> out;
    for (const auto& [a, b] : edges) {
      if (a == i) out.push_back(b);
      if (b == i) out.push_back(a);
    }
    return out;
  };
  for (size_t i = 0; i < n; ++i) {
    if (coin(rng) >= spec.cover_probability) continue;
    const std::vector<size_t> neighbors = neighbors_of(i);
    if (neighbors.empty()) continue;
    std::uniform_int_distribution<size_t> pick(0, neighbors.size() - 1);
    cover_on[i] = static_cast<int>(neighbors[pick(rng)]);
  }

  // Materialize attribute sets.
  std::vector<std::vector<AttributeDef>> attrs(n);
  for (size_t i = 0; i < n; ++i) {
    attrs[i].push_back({PayloadName(i), DataType::kInt});
  }
  for (size_t e = 0; e < edges.size(); ++e) {
    const std::string link = "E" + std::to_string(e);
    attrs[edges[e].first].push_back({link, DataType::kInt});
    attrs[edges[e].second].push_back({link, DataType::kInt});
  }
  for (size_t i = 0; i < n; ++i) {
    if (cover_on[i] >= 0) {
      attrs[static_cast<size_t>(cover_on[i])].push_back(
          {CoverName(i), DataType::kInt});
    }
  }

  Mkb mkb;
  for (size_t i = 0; i < n; ++i) {
    RelationDef def;
    def.source = "IS" + std::to_string(i);
    def.name = RelName(i);
    def.schema = Schema(std::move(attrs[i]));
    EVE_RETURN_IF_ERROR(mkb.AddRelation(std::move(def)));
  }
  for (size_t e = 0; e < edges.size(); ++e) {
    JoinConstraint jc;
    jc.id = "JE" + std::to_string(e);
    jc.lhs = RelName(edges[e].first);
    jc.rhs = RelName(edges[e].second);
    const std::string link = "E" + std::to_string(e);
    jc.clauses.push_back(Expr::ColumnsEqual(AttributeRef{jc.lhs, link},
                                            AttributeRef{jc.rhs, link}));
    EVE_RETURN_IF_ERROR(mkb.AddJoinConstraint(std::move(jc)));
  }
  for (size_t i = 0; i < n; ++i) {
    if (cover_on[i] >= 0) {
      EVE_RETURN_IF_ERROR(AddCover(
          &mkb, i, RelName(static_cast<size_t>(cover_on[i])), true));
    }
  }
  return mkb;
}

Result<ViewDefinition> MakeChainView(const Mkb& mkb, size_t start, size_t span,
                                     ViewExtent extent) {
  if (span < 1) return Status::InvalidArgument("span must be >= 1");
  std::vector<ViewSelectItem> select;
  std::vector<ViewRelation> from;
  std::vector<ViewCondition> where;
  for (size_t i = start; i < start + span; ++i) {
    const std::string rel = RelName(i);
    if (!mkb.catalog().HasRelation(rel)) {
      return Status::NotFound("chain relation missing: " + rel);
    }
    select.push_back(ViewSelectItem{
        Expr::Column(AttributeRef{rel, PayloadName(i)}), PayloadName(i),
        EvolutionParams{false, true}});
    from.push_back(ViewRelation{rel, EvolutionParams{false, true}});
    if (i > start) {
      where.push_back(ViewCondition{
          Expr::ColumnsEqual(AttributeRef{RelName(i - 1), LinkName(i - 1)},
                             AttributeRef{rel, LinkName(i - 1)}),
          EvolutionParams{false, true}});
    }
  }
  return ViewDefinition(
      "chain_view_" + std::to_string(start) + "_" + std::to_string(span),
      extent, std::move(select), std::move(from), std::move(where));
}

Result<ViewDefinition> MakeRandomConnectedView(const Mkb& mkb,
                                               std::mt19937_64* rng,
                                               size_t num_relations) {
  const std::vector<std::string> all = mkb.catalog().RelationNames();
  if (all.empty()) return Status::InvalidArgument("empty MKB");
  std::uniform_int_distribution<size_t> pick(0, all.size() - 1);

  // Start somewhere with at least one join constraint.
  std::string start;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::string candidate = all[pick(*rng)];
    if (!mkb.JoinConstraintsOf(candidate).empty()) {
      start = candidate;
      break;
    }
  }
  if (start.empty()) {
    return Status::FailedPrecondition("MKB has no joinable relation");
  }

  std::set<std::string> chosen{start};
  std::vector<ViewCondition> where;
  while (chosen.size() < num_relations) {
    // Collect frontier edges.
    std::vector<const JoinConstraint*> frontier;
    for (const std::string& rel : chosen) {
      for (const JoinConstraint* jc : mkb.JoinConstraintsOf(rel)) {
        if (chosen.count(jc->Other(rel)) == 0) frontier.push_back(jc);
      }
    }
    if (frontier.empty()) break;
    std::uniform_int_distribution<size_t> edge_pick(0, frontier.size() - 1);
    const JoinConstraint* jc = frontier[edge_pick(*rng)];
    chosen.insert(jc->lhs);
    chosen.insert(jc->rhs);
    for (const ExprPtr& clause : jc->clauses) {
      where.push_back(ViewCondition{clause, EvolutionParams{false, true}});
    }
  }

  std::vector<ViewSelectItem> select;
  std::vector<ViewRelation> from;
  for (const std::string& rel : chosen) {
    from.push_back(ViewRelation{rel, EvolutionParams{false, true}});
    const RelationDef& def = *mkb.catalog().GetRelation(rel).value();
    // Prefer the payload attribute; fall back to the first attribute.
    std::string attr = def.schema.attribute(0).name;
    for (const AttributeDef& a : def.schema.attributes()) {
      if (!a.name.empty() && a.name[0] == 'P') {
        attr = a.name;
        break;
      }
    }
    select.push_back(ViewSelectItem{Expr::Column(AttributeRef{rel, attr}),
                                    rel + "_" + attr,
                                    EvolutionParams{false, true}});
  }
  return ViewDefinition("random_view", ViewExtent::kAny, std::move(select),
                        std::move(from), std::move(where));
}

Result<std::vector<ViewDefinition>> MakeViewPool(const Mkb& mkb,
                                                 const ViewPoolSpec& spec) {
  if (spec.max_span < 1) {
    return Status::InvalidArgument("max_span must be >= 1");
  }
  // Chain length = contiguous R0..R{n-1} present in the catalog.
  size_t chain = 0;
  while (mkb.catalog().HasRelation(RelName(chain))) ++chain;
  if (chain == 0) {
    return Status::InvalidArgument("MKB has no chain relations R0..");
  }
  // Zipf CDF over chain positions: P(rank r) ∝ 1/(r+1)^s.
  std::vector<double> cdf(chain);
  double mass = 0.0;
  for (size_t r = 0; r < chain; ++r) {
    mass += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_s);
    cdf[r] = mass;
  }
  std::mt19937_64 rng(spec.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  std::vector<ViewDefinition> pool;
  pool.reserve(spec.num_views);
  for (size_t v = 0; v < spec.num_views; ++v) {
    const double target = unit(rng) * mass;
    const size_t anchor = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), target) - cdf.begin());
    const size_t span =
        std::min(1 + rng() % spec.max_span, chain - std::min(anchor, chain - 1));
    const size_t start = std::min(anchor, chain - span);

    std::string name = "wv" + std::to_string(v);

    std::vector<ViewSelectItem> select;
    std::vector<ViewRelation> from;
    std::vector<ViewCondition> where;
    for (size_t i = start; i < start + span; ++i) {
      select.push_back(ViewSelectItem{
          Expr::Column(AttributeRef{RelName(i), PayloadName(i)}),
          PayloadName(i), EvolutionParams{false, true}});
      from.push_back(ViewRelation{RelName(i), EvolutionParams{false, true}});
      if (i > start) {
        where.push_back(ViewCondition{
            Expr::ColumnsEqual(AttributeRef{RelName(i - 1), LinkName(i - 1)},
                               AttributeRef{RelName(i), LinkName(i - 1)}),
            EvolutionParams{false, true}});
      }
    }
    pool.push_back(ViewDefinition(std::move(name), ViewExtent::kAny,
                                  std::move(select), std::move(from),
                                  std::move(where)));
  }
  return pool;
}

Status PopulateSyntheticDatabase(const Mkb& mkb, Database* db,
                                 size_t rows_per_table, uint64_t seed) {
  EVE_RETURN_IF_ERROR(db->CreateAllTables(mkb.catalog()));
  std::mt19937_64 rng(seed);
  const int64_t domain =
      std::max<int64_t>(2, static_cast<int64_t>(rows_per_table) / 4);
  std::uniform_int_distribution<int64_t> value_dist(0, domain - 1);

  for (const std::string& rel : mkb.catalog().RelationNames()) {
    const RelationDef& def = *mkb.catalog().GetRelation(rel).value();
    for (size_t row = 0; row < rows_per_table; ++row) {
      Tuple tuple;
      tuple.reserve(def.schema.size());
      for (size_t i = 0; i < def.schema.size(); ++i) {
        tuple.push_back(Value::Int(value_dist(rng)));
      }
      EVE_RETURN_IF_ERROR(db->Insert(rel, std::move(tuple)));
    }
  }
  return Status::OK();
}

Status PopulateRelationSkewed(const Catalog& catalog,
                              const std::string& relation,
                              const SkewedDataSpec& spec, Database* db) {
  if (spec.value_domain <= 0) {
    return Status::InvalidArgument("value_domain must be positive");
  }
  if (spec.join_domain <= 0) {
    return Status::InvalidArgument("join_domain must be positive");
  }
  EVE_ASSIGN_OR_RETURN(const RelationDef* def, catalog.GetRelation(relation));
  if (!db->HasTable(relation)) {
    EVE_RETURN_IF_ERROR(db->CreateTable(catalog, relation));
  }
  EVE_ASSIGN_OR_RETURN(Table * table, db->GetTable(relation));
  table->Reserve(table->NumRows() + spec.rows);

  std::mt19937_64 rng(spec.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int64_t> hot_key(0, spec.join_domain - 1);
  std::uniform_int_distribution<int64_t> uniform_value(0,
                                                       spec.value_domain - 1);
  // Relation-unique negative range for non-joining keys: distinct
  // relations' cold keys never collide with each other or the hot domain.
  const int64_t cold_base =
      -1 - static_cast<int64_t>(StableHash64(relation) % (1u << 20)) *
               static_cast<int64_t>(spec.rows + 1);

  const size_t width = def->schema.size();
  for (size_t row = 0; row < spec.rows; ++row) {
    Tuple tuple;
    tuple.reserve(width);
    for (size_t i = 0; i < width; ++i) {
      const std::string& name = def->schema.attribute(i).name;
      if (!name.empty() && name[0] == 'L') {
        const bool hot = unit(rng) < spec.join_selectivity;
        tuple.push_back(Value::Int(
            hot ? hot_key(rng) : cold_base - static_cast<int64_t>(row)));
      } else if (spec.value_skew > 0.0) {
        const double u = unit(rng);
        const int64_t v = static_cast<int64_t>(
            static_cast<double>(spec.value_domain) *
            std::pow(u, 1.0 + spec.value_skew));
        tuple.push_back(
            Value::Int(std::min(v, spec.value_domain - 1)));
      } else {
        tuple.push_back(Value::Int(uniform_value(rng)));
      }
    }
    table->InsertUnchecked(std::move(tuple));
  }
  return Status::OK();
}

}  // namespace eve
