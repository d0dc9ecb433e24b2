// Columnar data plane at scale: Execute() vs the nested-loop oracle
// (tests/nested_loop_oracle.h).
//
// The workload is the two-relation chain join
//   SELECT P0, P1 FROM R0, R1 WHERE R0.L0 = R1.L0
// with a 10M-row R0 (EVE_BENCH_EXECUTOR_ROWS overrides; the in-tree
// default is 65536 so the CI smoke run stays fast) populated by
// PopulateRelationSkewed: 90% of R0 rows carry a hot join key that matches
// ~1 R1 row, payloads draw from a skewed 1M-value domain.
//
// Before any timing, the binary validates (and exits nonzero on failure)
// that Execute and the nested-loop oracle produce identical sets.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "algebra/executor.h"
#include "esql/evaluator.h"
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
  ViewDefinition base;  // V: the join
  size_t rows = 0;
};

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

void PrintReproduction() {
  Fixture& f = GetFixture(16384);
  const Result<Table> nested = oracle::ExecuteNestedLoop(
      ViewQuery(f.base), f.db, f.mkb.catalog(), &f.registry);
  const Result<Table> executed =
      EvaluateView(f.base, f.db, f.mkb.catalog(), &f.registry);
  Require(nested.ok() && executed.ok(), "view evaluation errored");
  Require(executed.value().SetEquals(nested.value()),
          "Execute != nested-loop oracle");

  std::cout << "=== executor ablation ===\n"
            << "16384-row join: Execute agrees with the oracle ("
            << nested.value().NumRows() << " rows)\n"
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

}  // namespace
}  // namespace eve

int main(int argc, char** argv) {
  eve::PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
