// One EveSystem with full snapshots on the disjoint rename stream: ms per
// commit on a 16,512-view pool (with and without the report text eved
// sends), bulk registration in views per second, µs per view on the LOAD
// VIEWS path (one record and one version per load), and pinned-read
// latency (p50/p99) while a writer commits continuously.
//
// Each change in the stream renames the payload attribute of one of 16
// hot chain relations; each hot relation anchors 8 views, so a change
// rewrites 8 views and leaves the rest of the pool untouched. Every
// version still holds the whole pool, but a commit re-renders only the
// VIEWS buckets of the 8 rewritten views and shares the others, so a
// commit costs O(MKB + affected views) at any pool size.
//
// Before timing anything the binary replays the stream and checks the
// per-commit oracle after every commit: the tip's view text equals
// SaveViews of the live system, and exactly the rewritten views' buckets
// hold new segments. A mismatch aborts the binary without numbers.
//
// Set EVE_BENCH_MILLION=1 to also bulk-load a million views and time one
// commit on that pool (skipped by default to keep local runs quick).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/stable_hash.h"
#include "esql/binder.h"
#include "eve/eve_system.h"
#include "eve/view_pool_io.h"
#include "mkb/capability_change.h"
#include "workload/generator.h"

namespace eve {
namespace {

constexpr size_t kChain = 32;
// The stream renames payloads of the last kHotRels chain relations; each
// hot relation anchors kHotViews views. The rest of the pool is "cold":
// anchored on relations the stream never touches, so per-change CVS work
// is constant while the pool grows.
constexpr size_t kHotRels = 16;
constexpr size_t kHotViews = 8;

Mkb BenchMkb() {
  ChainMkbSpec spec;
  spec.length = kChain;
  spec.cover_distance = 0;   // renames need no covers; keep the MKB lean
  spec.extra_attributes = 0;
  Result<Mkb> mkb = MakeChainMkb(spec);
  if (!mkb.ok()) {
    std::cerr << "chain MKB failed: " << mkb.status() << "\n";
    std::abort();
  }
  return mkb.MoveValue();
}

ViewDefinition SingleRelationView(std::string name, size_t r) {
  const std::string rel = "R" + std::to_string(r);
  const std::string payload = "P" + std::to_string(r);
  std::vector<ViewSelectItem> select;
  select.push_back(ViewSelectItem{Expr::Column(AttributeRef{rel, payload}),
                                  payload, EvolutionParams{false, true}});
  std::vector<ViewRelation> from;
  from.push_back(ViewRelation{rel, EvolutionParams{false, true}});
  return ViewDefinition(std::move(name), ViewExtent::kAny, std::move(select),
                        std::move(from), {});
}

// `num_cold` cold views plus kHotRels * kHotViews hot views. The hot views
// keep the names earlier versions of this benchmark gave them (salted so
// that relation r's views hash to r mod 16), so the pool, and thus every
// number, compares with the earlier sixteen-way partitioned runs.
std::vector<ViewDefinition> StreamPool(size_t num_cold) {
  std::vector<ViewDefinition> pool;
  pool.reserve(num_cold + kHotRels * kHotViews);
  for (size_t v = 0; v < num_cold; ++v) {
    pool.push_back(
        SingleRelationView("cv" + std::to_string(v), v % (kChain - kHotRels)));
  }
  size_t h = 0;
  for (size_t r = kChain - kHotRels; r < kChain; ++r) {
    for (size_t k = 0; k < kHotViews; ++k, ++h) {
      std::string name = "hv" + std::to_string(h);
      for (uint64_t salt = 0; StableHash64(name) % 16 != r % 16; ++salt) {
        name = "hv" + std::to_string(h) + "_s" + std::to_string(salt);
      }
      pool.push_back(SingleRelationView(std::move(name), r));
    }
  }
  return pool;
}

// Change i of the stream renames a hot relation's payload attribute; the
// second lap renames it back, so the stream cycles forever without
// growing the MKB.
CapabilityChange StreamChange(size_t i) {
  const size_t r = kChain - kHotRels + (i % kHotRels);
  const std::string rel = "R" + std::to_string(r);
  const std::string payload = "P" + std::to_string(r);
  const bool forward = (i / kHotRels) % 2 == 0;
  return forward
             ? CapabilityChange::RenameAttribute(rel, payload, payload + "x")
             : CapabilityChange::RenameAttribute(rel, payload + "x", payload);
}

// `pool` bound against `mkb`, as the batch EveSystem::RegisterViews takes.
std::vector<RegisteredView> Bound(const Mkb& mkb,
                                  const std::vector<ViewDefinition>& pool) {
  std::vector<RegisteredView> batch(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    Result<ViewDefinition> bound =
        BindView(pool[i].ToParsedView(), mkb.catalog());
    if (!bound.ok()) {
      std::cerr << "binding " << pool[i].name() << " failed: "
                << bound.status() << "\n";
      std::abort();
    }
    batch[i].definition = bound.MoveValue();
  }
  return batch;
}

std::unique_ptr<EveSystem> FreshSystem(const Mkb& mkb,
                                       const std::vector<ViewDefinition>& pool) {
  auto system = std::make_unique<EveSystem>(mkb);
  const Status registered = system->RegisterViews(Bound(mkb, pool));
  if (!registered.ok()) {
    std::cerr << "bulk registration failed: " << registered << "\n";
    std::abort();
  }
  return system;
}

void Check(bool ok, const std::string& what) {
  if (ok) return;
  std::cerr << "per-commit oracle failed: " << what << "\n";
  std::abort();
}

// The per-commit oracle over four laps of the stream.
void ValidatePerCommitOracle() {
  const Mkb mkb = BenchMkb();
  std::unique_ptr<EveSystem> system = FreshSystem(mkb, StreamPool(256));
  Check(system->ViewsTextAt(system->current_version()).value() ==
            SaveViews(*system),
        "bulk registration");
  for (size_t i = 0; i < 4 * kHotRels; ++i) {
    const CapabilityChange change = StreamChange(i);
    const std::vector<std::string> affected = system->AffectedViews(change);
    const PinnedMkb before = system->PinTip();
    Check(system->ApplyChange(change).ok(), change.ToString());
    const PinnedMkb after = system->PinTip();
    Check(system->ViewsTextAt(after.id()).value() == SaveViews(*system),
          "views text after " + change.ToString());
    std::set<size_t> touched;
    for (const std::string& name : affected) touched.insert(ViewBucketOf(name));
    for (size_t b = 0; b < kViewBuckets; ++b) {
      const bool renewed =
          &before.version->view_bucket(b) != &after.version->view_bucket(b);
      Check(renewed == (touched.count(b) > 0),
            "bucket " + std::to_string(b) + " after " + change.ToString());
    }
  }
}

// Bulk registration throughput: binding a 4,224-view pool and one
// RegisterViews of it, committed as one full-snapshot version; items/s =
// views per second.
void BM_BulkRegistration(benchmark::State& state) {
  const Mkb mkb = BenchMkb();
  const std::vector<ViewDefinition> pool = StreamPool(4096);
  for (auto _ : state) {
    state.PauseTiming();
    auto system = std::make_unique<EveSystem>(mkb);
    state.ResumeTiming();
    if (!system->RegisterViews(Bound(mkb, pool)).ok()) std::abort();
    state.PauseTiming();
    system.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pool.size()));
  state.counters["views"] = static_cast<double>(pool.size());
}
BENCHMARK(BM_BulkRegistration)->Unit(benchmark::kMillisecond);

// The LOAD VIEWS path: LoadViews parses and binds the views of SaveViews
// text and registers them with one record and one version. The time is
// the whole load; us_per_view is its share per view (parse, bind, index,
// render the view's block).
void BM_LoadViews(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const Mkb mkb = BenchMkb();
  const size_t views = static_cast<size_t>(state.range(0));
  const std::string text =
      SaveViews(*FreshSystem(mkb, StreamPool(views - kHotRels * kHotViews)));
  double load_us = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    auto system = std::make_unique<EveSystem>(mkb);
    state.ResumeTiming();
    const Clock::time_point t0 = Clock::now();
    const Status loaded = LoadViews(text, system.get());
    load_us += std::chrono::duration<double, std::micro>(Clock::now() - t0)
                   .count();
    state.PauseTiming();
    if (!loaded.ok() || system->current_version() != 1 ||
        system->NumViews() != views) {
      std::cerr << "LoadViews failed: " << loaded << "\n";
      std::abort();
    }
    system.reset();
    state.ResumeTiming();
  }
  state.counters["views"] = static_cast<double>(views);
  state.counters["us_per_view"] =
      load_us / static_cast<double>(state.iterations()) /
      static_cast<double>(views);
}
BENCHMARK(BM_LoadViews)->Arg(1024)->Unit(benchmark::kMillisecond);

// ApplyChange on the 16,512-view pool, full snapshots: the time per
// iteration is ms per commit; items/s = commits per second. With
// `render_report` each iteration also renders the report's text, the path
// eved runs for every change (every other view listed as unaffected).
void DisjointCommits(benchmark::State& state, bool render_report) {
  const Mkb mkb = BenchMkb();
  const std::vector<ViewDefinition> pool = StreamPool(16384);
  std::unique_ptr<EveSystem> system = FreshSystem(mkb, pool);
  size_t i = 0;
  size_t report_bytes = 0;
  for (auto _ : state) {
    Result<ChangeReport> report = system->ApplyChange(StreamChange(i++));
    if (!report.ok()) {
      std::cerr << "commit failed: " << report.status() << "\n";
      std::abort();
    }
    if (render_report) report_bytes = report.value().ToString().size();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["views"] = static_cast<double>(pool.size());
  if (render_report) {
    state.counters["report_bytes"] = static_cast<double>(report_bytes);
  }
}

void BM_DisjointCommit(benchmark::State& state) {
  DisjointCommits(state, /*render_report=*/false);
}
BENCHMARK(BM_DisjointCommit)->Unit(benchmark::kMillisecond);

void BM_DisjointCommitWithReport(benchmark::State& state) {
  DisjointCommits(state, /*render_report=*/true);
}
BENCHMARK(BM_DisjointCommitWithReport)->Unit(benchmark::kMillisecond);

// Pinned reads while a writer commits the rename stream as fast as it
// can. Each iteration pins the tip version (PinTip) and reads through it;
// per-read latency is collected by hand so the counters can report
// p50/p99 and how many reads completed while a commit was in flight.
// Commits render outside the store mutex and take it only to append the
// finished version, so a read never waits for a commit's rendering.
void BM_PinnedReadDuringCommits(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const Mkb mkb = BenchMkb();
  std::unique_ptr<EveSystem> system = FreshSystem(mkb, StreamPool(2048));

  std::atomic<bool> stop{false};
  std::atomic<bool> in_commit{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> commit_ns{0};
  std::thread writer([&] {
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const CapabilityChange change = StreamChange(i++);
      const Clock::time_point t0 = Clock::now();
      in_commit.store(true, std::memory_order_release);
      if (!system->ApplyChange(change).ok()) std::abort();
      in_commit.store(false, std::memory_order_release);
      commit_ns.fetch_add(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count()));
      commits.fetch_add(1);
    }
  });

  std::vector<uint64_t> latencies;
  latencies.reserve(1 << 20);
  uint64_t reads_during_commit = 0;
  uint64_t version_floor = 0;
  for (auto _ : state) {
    const bool overlapped = in_commit.load(std::memory_order_acquire);
    const Clock::time_point t0 = Clock::now();
    const PinnedMkb pin = system->PinTip();
    // Read through the pin: the version must never run backwards.
    if (pin.id() < version_floor) std::abort();
    version_floor = pin.id();
    benchmark::DoNotOptimize(pin);
    latencies.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count()));
    if (overlapped) ++reads_during_commit;
  }
  stop.store(true);
  writer.join();

  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&latencies](double p) {
    if (latencies.empty()) return 0.0;
    const size_t idx = std::min(
        latencies.size() - 1,
        static_cast<size_t>(p * static_cast<double>(latencies.size())));
    return static_cast<double>(latencies[idx]);
  };
  state.counters["read_p50_ns"] = pct(0.50);
  state.counters["read_p99_ns"] = pct(0.99);
  state.counters["reads_during_commit"] =
      static_cast<double>(reads_during_commit);
  state.counters["commits_during_run"] =
      static_cast<double>(commits.load());
  state.counters["mean_commit_ns"] =
      commits.load() == 0
          ? 0.0
          : static_cast<double>(commit_ns.load()) /
                static_cast<double>(commits.load());
}
BENCHMARK(BM_PinnedReadDuringCommits)->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

// A million-view bulk load with full snapshots, then one stream commit on
// that pool (EVE_BENCH_MILLION=1). The time is the load; the commit's time
// is the commit_ms counter.
void BM_MillionViewLoadAndCommit(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  constexpr size_t kViews = 1000000;
  const Mkb mkb = BenchMkb();
  const std::vector<ViewDefinition> pool =
      StreamPool(kViews - kHotRels * kHotViews);
  double commit_ms = 0.0;
  double affected = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    auto system = std::make_unique<EveSystem>(mkb);
    state.ResumeTiming();
    if (!system->RegisterViews(Bound(mkb, pool)).ok()) std::abort();
    if (system->NumViews() != kViews) std::abort();
    state.PauseTiming();
    const Clock::time_point t0 = Clock::now();
    const Result<ChangeReport> report = system->ApplyChange(StreamChange(0));
    if (!report.ok()) std::abort();
    commit_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count();
    affected = static_cast<double>(report.value().outcomes.size());
    system.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kViews));
  state.counters["commit_ms"] = commit_ms;
  state.counters["commit_affected_views"] = affected;
}

}  // namespace
}  // namespace eve

int main(int argc, char** argv) {
  eve::ValidatePerCommitOracle();
  if (const char* million = std::getenv("EVE_BENCH_MILLION");
      million != nullptr && std::string(million) == "1") {
    ::benchmark::RegisterBenchmark("BM_MillionViewLoadAndCommit",
                                   &eve::BM_MillionViewLoadAndCommit)
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
