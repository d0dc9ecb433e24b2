// Join ablation: the nested-loop oracle (tests/nested_loop_oracle.h) vs
// Execute() on the paper's Eq. 5 view. The empirical P3 check (E8)
// evaluates views over growing states; this bench measures how each
// scales with the number of customers and verifies both agree.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>

#include "esql/binder.h"
#include "esql/evaluator.h"
#include "nested_loop_oracle.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

struct Fixture {
  Mkb mkb;
  ViewDefinition view;
};

Fixture MakeFixture() {
  Fixture f;
  f.mkb = MakeTravelAgencyMkb().MoveValue();
  f.view = ParseAndBindView(CustomerPassengersAsiaSql(), f.mkb.catalog())
               .MoveValue();
  return f;
}

void PrintReproduction() {
  Fixture f = MakeFixture();
  Database db;
  Status status = PopulateTravelAgencyDatabase(f.mkb, &db, 200, 5);
  if (!status.ok()) {
    std::cerr << status << std::endl;
    std::exit(1);
  }
  const Result<Table> nested = oracle::ExecuteNestedLoop(
      ViewQuery(f.view), db, f.mkb.catalog());
  const Result<Table> executed = EvaluateView(f.view, db, f.mkb.catalog());
  if (!nested.ok() || !executed.ok()) {
    std::cerr << nested.status() << " / " << executed.status() << std::endl;
    std::exit(1);
  }
  const bool same = nested.value().SetEquals(executed.value());
  std::cout << "=== join ablation: oracle vs Execute ===\n"
            << "paper view over 200 customers: oracle rows = "
            << nested.value().NumRows()
            << ", Execute rows = " << executed.value().NumRows()
            << ", identical sets: " << (same ? "yes" : "NO") << "\n\n";
  if (!same) std::exit(1);
}

// Times `evaluate(view, db, catalog)` over a travel-agency database with
// state.range(0) customers.
template <typename Evaluate>
void RunEvaluation(benchmark::State& state, Evaluate evaluate) {
  Fixture f = MakeFixture();
  Database db;
  Status status = PopulateTravelAgencyDatabase(
      f.mkb, &db, static_cast<size_t>(state.range(0)), 5);
  if (!status.ok()) {
    state.SkipWithError(status.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate(f.view, db, f.mkb.catalog()));
  }
  state.SetComplexityN(state.range(0));
}

void BM_NestedLoop(benchmark::State& state) {
  RunEvaluation(state, [](const ViewDefinition& view, const Database& db,
                          const Catalog& catalog) {
    return oracle::ExecuteNestedLoop(ViewQuery(view), db, catalog);
  });
}
BENCHMARK(BM_NestedLoop)->RangeMultiplier(4)->Range(16, 1024)->Complexity();

void BM_Execute(benchmark::State& state) {
  RunEvaluation(state, [](const ViewDefinition& view, const Database& db,
                          const Catalog& catalog) {
    return EvaluateView(view, db, catalog);
  });
}
BENCHMARK(BM_Execute)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

}  // namespace
}  // namespace eve

int main(int argc, char** argv) {
  eve::PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
