// Columnar data plane at scale: Execute() vs the nested-loop oracle
// (tests/nested_loop_oracle.h), and incremental extent maintenance
// (IncrementalRefresh) vs full re-materialization for every CVS verdict.
//
// The workload is a two-relation chain join R0 ⋈ R1 with a 10M-row R0
// (EVE_BENCH_EXECUTOR_ROWS overrides; the in-tree default is 65536 so the
// CI smoke run stays fast) populated by PopulateRelationSkewed: 90% of R0
// rows carry a hot join key that matches ~1 R1 row, payloads draw from a
// skewed 1M-value domain. The three view shapes:
//
//   base           SELECT P0, P1 FROM R0, R1 WHERE R0.L0 = R1.L0
//   old_superset   base plus P0 < hi   (hi keeps ~99.9% of rows) — dropping
//                  the condition makes base a SUPERSET of it, and the
//                  delta ¬(P0 < hi) selects ~0.1% of the base scan
//   new_subset     base plus P0 < lo   — adding the condition makes it a
//                  SUBSET of base, maintainable by filtering the stored
//                  extent with no base scan at all
//
// Before any timing, the binary validates (and exits nonzero on failure):
//   1. Execute and the nested-loop oracle produce identical sets;
//   2. IncrementalRefresh is byte-identical to a full Refresh for the
//      Equal, Superset and Subset verdicts, AND actually took the delta
//      path (a silent fallback to kFull would make the timings a lie).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "algebra/executor.h"
#include "esql/evaluator.h"
#include "eve/materialization.h"
#include "nested_loop_oracle.h"
#include "workload/generator.h"

namespace eve {
namespace {

constexpr int64_t kValueDomain = 1000000;
constexpr size_t kDimRows = 4096;  // R1: one expected match per hot key
constexpr uint64_t kSeed = 7;

size_t BigRows() {
  if (const char* env = std::getenv("EVE_BENCH_EXECUTOR_ROWS");
      env != nullptr && *env != '\0') {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 65536;
}

struct Fixture {
  Mkb mkb;
  Database db;
  FunctionRegistry registry = FunctionRegistry::Default();
  ViewDefinition base;          // V: the join, no extra conditions
  ViewDefinition old_superset;  // V with the soon-to-be-dropped condition
  ViewDefinition new_subset;    // V with an added condition
  size_t rows = 0;
};

// P0 < threshold, the only condition shape the delta rules need here.
ViewCondition PayloadBelow(int64_t threshold) {
  return ViewCondition{
      Expr::Binary(BinaryOp::kLt,
                   Expr::Column(AttributeRef{"R0", "P0"}),
                   Expr::Lit(Value::Int(threshold))),
      EvolutionParams{false, true}};
}

std::unique_ptr<Fixture> MakeFixture(size_t rows) {
  auto f = std::make_unique<Fixture>();
  ChainMkbSpec spec;
  spec.length = 2;
  spec.skip_edges = false;
  spec.cover_distance = 0;
  spec.extra_attributes = 0;
  spec.pc_constraints = false;
  f->mkb = MakeChainMkb(spec).MoveValue();
  f->rows = rows;

  SkewedDataSpec fact;
  fact.rows = rows;
  fact.value_domain = kValueDomain;
  fact.value_skew = 0.5;
  fact.join_domain = static_cast<int64_t>(kDimRows);
  fact.join_selectivity = 0.9;
  fact.seed = kSeed;
  SkewedDataSpec dim = fact;
  dim.rows = kDimRows < rows ? kDimRows : rows;
  dim.value_skew = 0.0;
  dim.join_selectivity = 1.0;
  dim.seed = kSeed + 1;
  Status status =
      PopulateRelationSkewed(f->mkb.catalog(), "R0", fact, &f->db);
  if (status.ok()) {
    status = PopulateRelationSkewed(f->mkb.catalog(), "R1", dim, &f->db);
  }
  if (!status.ok()) {
    std::cerr << "fixture population failed: " << status << std::endl;
    std::exit(1);
  }

  f->base = MakeChainView(f->mkb, 0, 2).MoveValue();
  f->base.set_name("V");
  f->old_superset = f->base;
  f->old_superset.mutable_where()->push_back(
      PayloadBelow(kValueDomain - kValueDomain / 1000));  // keeps ~99.9%
  f->new_subset = f->base;
  f->new_subset.mutable_where()->push_back(
      PayloadBelow(kValueDomain / 8));
  return f;
}

// Fixtures are expensive to populate (BigRows() is 10M in the published
// numbers); build each row count once and share it across benchmarks.
Fixture& GetFixture(size_t rows) {
  static std::map<size_t, std::unique_ptr<Fixture>>* cache =
      new std::map<size_t, std::unique_ptr<Fixture>>();
  auto it = cache->find(rows);
  if (it == cache->end()) {
    it = cache->emplace(rows, MakeFixture(rows)).first;
  }
  return *it->second;
}

void Require(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "VALIDATION FAILED: " << what << std::endl;
    std::exit(1);
  }
}

// One incremental case: materialize the old view, incrementally bring it
// to the new definition under `verdict`, and demand (a) the expected
// delta path was taken and (b) the result is set-identical to a full
// refresh of the new view.
void CheckIncremental(Fixture& f, const ViewDefinition& old_view,
                      const ViewDefinition& new_view, ExtentRelation verdict,
                      RefreshPath want_path) {
  MaterializedViewStore store(&f.registry);
  Require(store.Refresh(old_view, f.db, f.mkb.catalog()).ok(),
          "materialize old view");
  Require(store
              .IncrementalRefresh(old_view, new_view, verdict, f.db,
                                  f.mkb.catalog())
              .ok(),
          "incremental refresh");
  Require(store.StatsFor("V").last_path == want_path,
          std::string("expected path ") + RefreshPathToString(want_path) +
              ", got " + RefreshPathToString(store.StatsFor("V").last_path));
  MaterializedViewStore full(&f.registry);
  Require(full.Refresh(new_view, f.db, f.mkb.catalog()).ok(),
          "full refresh of new view");
  Require(store.Extent("V").value()->SetEquals(*full.Extent("V").value()),
          std::string("incremental != full for verdict ") +
              std::string(ExtentRelationToString(verdict)));
}

void PrintReproduction() {
  Fixture& f = GetFixture(16384);
  const Result<Table> nested = oracle::ExecuteNestedLoop(
      ViewQuery(f.base), f.db, f.mkb.catalog(), &f.registry);
  const Result<Table> executed =
      EvaluateView(f.base, f.db, f.mkb.catalog(), &f.registry);
  Require(nested.ok() && executed.ok(), "view evaluation errored");
  Require(executed.value().SetEquals(nested.value()),
          "Execute != nested-loop oracle");

  CheckIncremental(f, f.base, f.base, ExtentRelation::kEqual,
                   RefreshPath::kReuseEqual);
  CheckIncremental(f, f.old_superset, f.base, ExtentRelation::kSuperset,
                   RefreshPath::kDeltaSuperset);
  CheckIncremental(f, f.base, f.new_subset, ExtentRelation::kSubset,
                   RefreshPath::kDeltaSubset);

  std::cout << "=== executor ablation ===\n"
            << "16384-row join: Execute agrees with the oracle ("
            << nested.value().NumRows() << " rows); incremental refresh "
            << "matches full refresh for Equal/Superset/Subset via the "
            << "delta paths\n"
            << "timed R0 rows: " << BigRows() << "\n\n";
}

// --- Query execution -----------------------------------------------------

// Times `evaluate(view, db, catalog, registry)` on the base view over a
// fixture with `rows` R0 rows.
template <typename Evaluate>
void RunQuery(benchmark::State& state, Evaluate evaluate, size_t rows) {
  Fixture& f = GetFixture(rows);
  size_t out_rows = 0;
  for (auto _ : state) {
    Result<Table> result =
        evaluate(f.base, f.db, f.mkb.catalog(), &f.registry);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    out_rows = result.value().NumRows();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * rows));
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["out_rows"] = static_cast<double>(out_rows);
}

// The oracle is O(|R0| x |R1|); timing it at the 10M scale is pointless,
// so it runs at a capped size where the quadratic blowup is visible but
// bounded.
void BM_QueryNestedLoop(benchmark::State& state) {
  RunQuery(
      state,
      [](const ViewDefinition& view, const Database& db,
         const Catalog& catalog, const FunctionRegistry* registry) {
        return oracle::ExecuteNestedLoop(ViewQuery(view), db, catalog,
                                         registry);
      },
      BigRows() < 8192 ? BigRows() : 8192);
}
BENCHMARK(BM_QueryNestedLoop)->Unit(benchmark::kMillisecond);

void BM_QueryExecute(benchmark::State& state) {
  RunQuery(
      state,
      [](const ViewDefinition& view, const Database& db,
         const Catalog& catalog, const FunctionRegistry* registry) {
        return EvaluateView(view, db, catalog, registry);
      },
      BigRows());
}
BENCHMARK(BM_QueryExecute)->Unit(benchmark::kMillisecond);

// --- Full vs incremental re-materialization ------------------------------

// The baseline every verdict competes against: recompute the rewritten
// view from the base tables.
void BM_FullRefresh(benchmark::State& state) {
  Fixture& f = GetFixture(BigRows());
  MaterializedViewStore store(&f.registry);
  for (auto _ : state) {
    const Status status = store.Refresh(f.base, f.db, f.mkb.catalog());
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
  }
  state.counters["rows"] = static_cast<double>(f.rows);
  state.counters["out_rows"] =
      static_cast<double>(store.Extent("V").value()->NumRows());
}
BENCHMARK(BM_FullRefresh)->Unit(benchmark::kMillisecond);

// Verdict Equal: the extent is adopted wholesale — O(columns), no scan.
void BM_IncrementalEqual(benchmark::State& state) {
  Fixture& f = GetFixture(BigRows());
  MaterializedViewStore store(&f.registry);
  Status status = store.Refresh(f.base, f.db, f.mkb.catalog());
  if (!status.ok()) {
    state.SkipWithError(status.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    status = store.IncrementalRefresh(f.base, f.base, ExtentRelation::kEqual,
                                      f.db, f.mkb.catalog());
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
  }
  if (store.StatsFor("V").last_path != RefreshPath::kReuseEqual) {
    state.SkipWithError("Equal rule fell back to full refresh");
    return;
  }
  state.counters["rows"] = static_cast<double>(f.rows);
  state.counters["out_rows"] =
      static_cast<double>(store.Extent("V").value()->NumRows());
}
BENCHMARK(BM_IncrementalEqual)->Unit(benchmark::kMillisecond);

// Verdicts Superset/Subset: each timed iteration starts from a freshly
// materialized OLD extent (restored outside the timer), then applies the
// delta rule. The paused restore dominates wall time at 10M rows but
// none of it is measured.
void RunIncremental(benchmark::State& state, const ViewDefinition& old_view,
                    const ViewDefinition& new_view, ExtentRelation verdict,
                    RefreshPath want_path) {
  Fixture& f = GetFixture(BigRows());
  MaterializedViewStore store(&f.registry);
  for (auto _ : state) {
    state.PauseTiming();
    Status status = store.Refresh(old_view, f.db, f.mkb.catalog());
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    state.ResumeTiming();
    status = store.IncrementalRefresh(old_view, new_view, verdict, f.db,
                                      f.mkb.catalog());
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
  }
  if (store.StatsFor("V").last_path != want_path) {
    state.SkipWithError("delta rule fell back to full refresh");
    return;
  }
  state.counters["rows"] = static_cast<double>(f.rows);
  state.counters["out_rows"] =
      static_cast<double>(store.Extent("V").value()->NumRows());
}

void BM_IncrementalSuperset(benchmark::State& state) {
  Fixture& f = GetFixture(BigRows());
  RunIncremental(state, f.old_superset, f.base, ExtentRelation::kSuperset,
                 RefreshPath::kDeltaSuperset);
}
BENCHMARK(BM_IncrementalSuperset)->Unit(benchmark::kMillisecond);

void BM_IncrementalSubset(benchmark::State& state) {
  Fixture& f = GetFixture(BigRows());
  RunIncremental(state, f.base, f.new_subset, ExtentRelation::kSubset,
                 RefreshPath::kDeltaSubset);
}
BENCHMARK(BM_IncrementalSubset)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace eve

int main(int argc, char** argv) {
  eve::PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
