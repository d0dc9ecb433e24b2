// Enumeration-pipeline benchmark: the lazy best-first candidate stream and
// the top-k synchronization driver against the pre-refactor eager
// cartesian-product enumeration, swept over candidate-space size (number
// of covers in a cover-fan MKB — candidates grow quadratically with it)
// and k. The validation pass asserts the top-k run returns byte-identical
// rewritings to the exhaustive run's prefix before any timing starts. The
// eager enumeration is the test oracle in tests/legacy_candidate_stream.h.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <iostream>
#include <optional>

#include "cvs/cvs.h"
#include "cvs/r_mapping.h"
#include "cvs/r_replacement.h"
#include "hypergraph/join_graph.h"
#include "legacy_candidate_stream.h"
#include "mkb/evolution.h"
#include "workload/generator.h"

namespace eve {
namespace {

struct Scenario {
  Mkb mkb;
  Mkb mkb_prime;
  ViewDefinition view;
  RMapping mapping;
  // Built against mkb_prime AFTER the scenario stops moving: the graph
  // borrows the Mkb's join-constraint vector.
  std::optional<JoinGraph> graph_prime;
  const JoinGraph& graph() const { return *graph_prime; }
};

std::unique_ptr<Scenario> MakeScenario(size_t covers) {
  CoverFanMkbSpec spec;
  spec.num_covers = covers;
  auto s = std::make_unique<Scenario>();
  s->mkb = MakeCoverFanMkb(spec).MoveValue();
  s->view = MakeCoverFanView(s->mkb).MoveValue();
  s->mkb_prime = EvolveMkb(s->mkb, CapabilityChange::DeleteRelation("R0"))
                     .MoveValue()
                     .mkb;
  s->mapping = ComputeRMapping(s->view, "R0", s->mkb).MoveValue();
  s->graph_prime.emplace(JoinGraph::Build(s->mkb_prime));
  return s;
}

// Caps wide enough that nothing truncates: the baseline really does
// materialize the whole candidate space.
RReplacementOptions WideOptions(size_t covers) {
  RReplacementOptions options;
  options.max_results = 1000000;
  options.max_cover_combinations = 1000000;
  options.max_extra_relations = covers;
  return options;
}

CvsOptions WideCvsOptions(size_t covers, size_t top_k) {
  CvsOptions options;
  options.replacement = WideOptions(covers);
  options.top_k = top_k;
  return options;
}

// The pre-refactor eager enumeration: every cover combination fully
// expanded, every join tree materialized, sorted afterwards.
void BM_EnumerateEager(benchmark::State& state) {
  const std::unique_ptr<Scenario> s = MakeScenario(state.range(0));
  const RReplacementOptions options = WideOptions(state.range(0));
  size_t candidates = 0;
  for (auto _ : state) {
    const auto result = legacy::ComputeRReplacementsEager(
        s->view, s->mapping, s->mkb, s->graph(), options);
    candidates = result.value().size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["candidates"] = static_cast<double>(candidates);
}
BENCHMARK(BM_EnumerateEager)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

// The streaming enumeration pulled only k candidates deep: the work the
// top-k driver actually pays for.
void BM_EnumerateLazyTopK(benchmark::State& state) {
  const std::unique_ptr<Scenario> s = MakeScenario(state.range(0));
  const RReplacementOptions options = WideOptions(state.range(0));
  const size_t k = state.range(1);
  const RewritingCostModel model = DefaultRankingCostModel();
  for (auto _ : state) {
    CandidateStream stream =
        CandidateStream::Create(s->view, s->mapping, s->mkb, s->graph(),
                                options, model)
            .MoveValue();
    for (size_t pulled = 0; pulled < k; ++pulled) {
      std::optional<ReplacementCandidate> candidate = stream.Next();
      if (!candidate.has_value()) break;
      benchmark::DoNotOptimize(candidate);
    }
  }
}
BENCHMARK(BM_EnumerateLazyTopK)
    ->Args({4, 4})
    ->Args({8, 4})
    ->Args({12, 4})
    ->Args({16, 1})
    ->Args({16, 4})
    ->Args({16, 8});

// End-to-end synchronization, exhaustive: every candidate spliced,
// legality-checked and ranked.
void BM_SynchronizeExhaustive(benchmark::State& state) {
  const std::unique_ptr<Scenario> s = MakeScenario(state.range(0));
  const CvsOptions options = WideCvsOptions(state.range(0), 0);
  size_t rewritings = 0;
  for (auto _ : state) {
    const auto result = SynchronizeDeleteRelation(s->view, "R0", s->mkb,
                                                  s->mkb_prime, options);
    rewritings = result.value().rewritings.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["rewritings"] = static_cast<double>(rewritings);
}
BENCHMARK(BM_SynchronizeExhaustive)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

// End-to-end synchronization with the top-k bound: stops pulling as soon
// as the stream provably cannot improve the k best.
void BM_SynchronizeTopK(benchmark::State& state) {
  const std::unique_ptr<Scenario> s = MakeScenario(state.range(0));
  const CvsOptions options = WideCvsOptions(state.range(0), state.range(1));
  size_t yielded = 0;
  for (auto _ : state) {
    const auto result = SynchronizeDeleteRelation(s->view, "R0", s->mkb,
                                                  s->mkb_prime, options);
    yielded = result.value().enumeration.candidates_yielded;
    benchmark::DoNotOptimize(result);
  }
  state.counters["pulled"] = static_cast<double>(yielded);
}
BENCHMARK(BM_SynchronizeTopK)
    ->Args({4, 4})
    ->Args({8, 4})
    ->Args({12, 4})
    ->Args({16, 1})
    ->Args({16, 4})
    ->Args({16, 8});

// Before timing anything: the top-k result must be byte-identical to the
// exhaustive run's k-prefix at every sweep point.
bool ValidateTopKEquivalence() {
  for (const size_t covers : {4u, 8u, 12u, 16u}) {
    const std::unique_ptr<Scenario> s = MakeScenario(covers);
    const auto full = SynchronizeDeleteRelation(
        s->view, "R0", s->mkb, s->mkb_prime, WideCvsOptions(covers, 0));
    for (const size_t k : {1u, 4u, 8u}) {
      const auto pruned = SynchronizeDeleteRelation(
          s->view, "R0", s->mkb, s->mkb_prime, WideCvsOptions(covers, k));
      if (!full.ok() || !pruned.ok()) return false;
      const size_t expect =
          std::min(k, full.value().rewritings.size());
      if (pruned.value().rewritings.size() != expect) return false;
      for (size_t i = 0; i < expect; ++i) {
        if (pruned.value().rewritings[i].view.ToString() !=
            full.value().rewritings[i].view.ToString()) {
          return false;
        }
      }
    }
  }
  return true;
}

void PrintReproduction() {
  std::cout << "# bench_enumeration: lazy best-first stream vs eager "
               "cartesian enumeration on cover-fan MKBs\n"
            << "# sweep: covers in {4,8,12,16} x k in {1,4,8}\n";
}

}  // namespace
}  // namespace eve

int main(int argc, char** argv) {
  eve::PrintReproduction();
  if (!eve::ValidateTopKEquivalence()) {
    std::cerr << "FATAL: top-k result differs from the exhaustive prefix\n";
    return 1;
  }
  std::cout << "# validated: top-k == exhaustive prefix at every sweep "
               "point\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
