// Synthetic workload generators: parameterized MKB topologies (chain,
// star, grid), cover placement at controlled join distance, random
// connected views, and database states — the drivers for property tests
// and the E6/E7/E9 benchmarks.
//
// Naming scheme for generated elements (all integer-typed):
//   relation  R<i>            (source "IS<i>")
//   link      L<i>            shared by the two endpoint relations of an
//                             edge; JC "JL<i>": endpoints agree on L<i>
//   payload   P<i>            one payload attribute per relation
//   cover     C<i>            mirror of R<i>.P<i> on another relation,
//                             with identity F constraint "FC<i>"

#ifndef EVE_WORKLOAD_GENERATOR_H_
#define EVE_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/result.h"
#include "esql/view_definition.h"
#include "mkb/mkb.h"
#include "storage/database.h"

namespace eve {

struct ChainMkbSpec {
  size_t length = 10;
  // Adds JCs between R<i> and R<i+2> so deleting an interior relation
  // leaves the graph connected.
  bool skip_edges = true;
  // For every relation R<i>, place the mirror C<i> of its payload on the
  // relation `cover_distance` positions to the right (clamped); 0 disables
  // covers.
  size_t cover_distance = 1;
  // Extra payload attributes per relation beyond P<i>.
  size_t extra_attributes = 2;
  // Attach a PC constraint "π(cover side) ⊇ π(covered side)" for every
  // cover, justifying superset rewritings.
  bool pc_constraints = true;
};

// Chain R0 — R1 — ... — R{n-1}.
Result<Mkb> MakeChainMkb(const ChainMkbSpec& spec);

// Star: hub R0 joined to spokes R1..R{n}; every spoke payload mirrored on
// the hub and the hub payload mirrored on spoke R1.
Result<Mkb> MakeStarMkb(size_t num_spokes);

// Grid of rows x cols relations, adjacent horizontally and vertically;
// covers mirror each payload on the right neighbor (wrapping within the
// row).
Result<Mkb> MakeGridMkb(size_t rows, size_t cols);

// Cover fan: the enumeration-benchmark topology. A victim relation R0
// (payload P0, link L0) joins an anchor A0, which heads a backbone chain
// B1..B<m>. Cover i of R0.P0 sits on B<i> — at join distance i from the
// anchor — so after DELETE RELATION R0 the candidate rewritings have
// strictly increasing join widths (cover i costs an i-relation chain).
// R0.L0 is covered on A0 itself (width-neutral), and every cover carries a
// PC constraint justifying the rewriting extent; path Steiner nodes are
// justified by the same constraints. `detours` extra relations hang off
// the anchor with no PC constraints: they multiply the tree space with
// weakly-ranked (extent-unknown) candidates without adding good ones.
struct CoverFanMkbSpec {
  size_t num_covers = 8;  // backbone length m; one cover per node
  size_t detours = 0;     // PC-less relations joined to the anchor
  bool equal_pcs = true;  // EQUAL (vs SUPERSET) cover PC constraints
};

Result<Mkb> MakeCoverFanMkb(const CoverFanMkbSpec& spec);

// The victim view over a cover-fan MKB:
//   SELECT R0.P0, A0.PA FROM R0, A0 WHERE R0.L0 = A0.L0
// with every component (dispensable=false, replaceable=true).
Result<ViewDefinition> MakeCoverFanView(const Mkb& mkb);

struct RandomMkbSpec {
  size_t num_relations = 12;
  // Probability of a join constraint between each relation pair, on top of
  // a random spanning tree that keeps the federation connected.
  double extra_edge_probability = 0.15;
  // Probability that a relation's payload gets a cover on one of its
  // join-neighbors (with a SUPERSET PC constraint).
  double cover_probability = 0.7;
  uint64_t seed = 1;
};

// A connected random-graph federation: spanning tree + extra edges, link
// attributes per edge, one payload per relation, covers per spec. The
// same spec (incl. seed) always builds the same MKB.
Result<Mkb> MakeRandomMkb(const RandomMkbSpec& spec);

// A view over the chain relations R<start>..R<start+span-1>:
//   SELECT payloads FROM those relations WHERE the chain link equalities.
// Every component gets (dispensable=false, replaceable=true); VE = `extent`.
Result<ViewDefinition> MakeChainView(const Mkb& mkb, size_t start, size_t span,
                                     ViewExtent extent = ViewExtent::kAny);

// A random connected view: starts at a random relation and grows along
// randomly chosen join-constraint edges; SELECTs each relation's payload.
Result<ViewDefinition> MakeRandomConnectedView(const Mkb& mkb,
                                               std::mt19937_64* rng,
                                               size_t num_relations);

// Registration-workload generator: a pool of `num_views` small chain views
// ("wv<i>") over a chain MKB, with relation popularity drawn zipfian
// (rank = chain position, exponent `zipf_s`; 0 = uniform) so a few hot
// relations anchor most views — the realistic shape for affected-set
// experiments. Deterministic per spec (incl. seed); sized for
// million-view EveSystem::RegisterViews loads.
struct ViewPoolSpec {
  size_t num_views = 1000;
  double zipf_s = 1.0;
  // Views span 1..max_span chain relations (joined along the chain);
  // span-1 views bind cheapest, which is what bulk loads want.
  size_t max_span = 2;
  uint64_t seed = 1;
};

Result<std::vector<ViewDefinition>> MakeViewPool(const Mkb& mkb,
                                                 const ViewPoolSpec& spec);

// Fills every relation with `rows_per_table` tuples; link attributes draw
// from a small domain so joins hit, cover attributes C<i> replicate the
// covered payload domain so F constraints are statistically consistent.
Status PopulateSyntheticDatabase(const Mkb& mkb, Database* db,
                                 size_t rows_per_table, uint64_t seed);

// Per-relation bulk-data spec for executor-scale workloads (the
// bench_executor 10M-row sources). Deterministic: the same spec (incl.
// seed) always produces the same rows, in the same order.
struct SkewedDataSpec {
  size_t rows = 1000;
  // Non-link attributes draw from [0, value_domain). skew 0 = uniform;
  // skew > 0 concentrates mass near 0 via inverse-power sampling
  // (floor(domain * u^(1+skew)) for uniform u), approximating a zipfian
  // popularity curve without per-draw harmonic sums.
  int64_t value_domain = 1000;
  double value_skew = 0.0;
  // Attributes whose name starts with 'L' are join keys: a row's key is
  // drawn from the shared hot domain [0, join_domain) with probability
  // join_selectivity, else it gets a relation-unique negative value that
  // can never match another relation — so the fraction of rows surviving
  // an equi-join is directly controlled.
  int64_t join_domain = 64;
  double join_selectivity = 1.0;
  uint64_t seed = 1;
};

// Fills `relation` (creating its table if absent) with spec.rows tuples as
// above. Integer-typed schemas only (all generator MKBs qualify).
Status PopulateRelationSkewed(const Catalog& catalog,
                              const std::string& relation,
                              const SkewedDataSpec& spec, Database* db);

}  // namespace eve

#endif  // EVE_WORKLOAD_GENERATOR_H_
