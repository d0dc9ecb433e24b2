// Cost of the versioned MKB: O(1) snapshot acquisition (tip pin) vs
// pinning an old version (reparse), what-if dry-run overhead vs a direct
// ApplyChange, and copy-on-write memory amplification across a 1k-version
// chain (retained vs logical bytes).
//
// Before timing anything the binary validates the dry-run contract: the
// dry-run report must be byte-identical to the report the real commit then
// produces, and the dry-run must leave the version chain untouched.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "eve/eve_system.h"
#include "mkb/capability_change.h"
#include "mkb/version_store.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

EveSystem FreshSystem() {
  EveSystem system(MakeTravelAgencyMkb().MoveValue());
  if (!system.RegisterViewText(CustomerPassengersAsiaSql()).ok()) {
    std::abort();
  }
  return system;
}

// Dry-run == commit, checked once up front; a mismatch is a correctness
// bug, so the whole benchmark binary refuses to produce numbers.
void ValidateDryRunContract() {
  EveSystem system = FreshSystem();
  const CapabilityChange change = CapabilityChange::DeleteRelation("Customer");
  const uint64_t version_before = system.current_version();
  const Result<DryRunReport> dry = system.DryRunChange(change);
  if (!dry.ok() || system.current_version() != version_before) {
    std::cerr << "dry-run validation failed: " << dry.status() << "\n";
    std::abort();
  }
  const Result<ChangeReport> applied = system.ApplyChange(change);
  if (!applied.ok() ||
      dry.value().report.ToString() != applied.value().ToString()) {
    std::cerr << "dry-run report does not match the committed report\n";
    std::abort();
  }
}

// O(1) snapshot: the tip pin is a shared_ptr copy under the store mutex.
void BM_PinTipSnapshot(benchmark::State& state) {
  EveSystem system = FreshSystem();
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.PinTip());
  }
}
BENCHMARK(BM_PinTipSnapshot);

// Pinning a non-tip version reparses its MISD segments — the price of
// time travel, for contrast with the O(1) tip pin.
void BM_PinOldVersion(benchmark::State& state) {
  EveSystem system = FreshSystem();
  if (!system.ApplyChange(CapabilityChange::DeleteRelation("RentACar"))
           .ok()) {
    std::abort();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.PinVersion(1));
  }
}
BENCHMARK(BM_PinOldVersion);

void BM_ApplyChangeDirect(benchmark::State& state) {
  for (auto _ : state) {
    EveSystem system = FreshSystem();
    benchmark::DoNotOptimize(
        system.ApplyChange(CapabilityChange::DeleteRelation("Customer")));
  }
}
BENCHMARK(BM_ApplyChangeDirect);

// The same change as a what-if: full prepare (evolution + CVS), no commit.
// The overhead vs BM_ApplyChangeDirect is the rehearsal tax; the saving is
// everything journal/commit-side.
void BM_DryRunChange(benchmark::State& state) {
  for (auto _ : state) {
    EveSystem system = FreshSystem();
    benchmark::DoNotOptimize(
        system.DryRunChange(CapabilityChange::DeleteRelation("Customer")));
  }
}
BENCHMARK(BM_DryRunChange);

// Dry-run-then-commit: the full rehearsed pipeline, for the end-to-end
// cost of habitually previewing every change.
void BM_DryRunThenCommit(benchmark::State& state) {
  for (auto _ : state) {
    EveSystem system = FreshSystem();
    const CapabilityChange change =
        CapabilityChange::DeleteRelation("Customer");
    benchmark::DoNotOptimize(system.DryRunChange(change));
    benchmark::DoNotOptimize(system.ApplyChange(change));
  }
}
BENCHMARK(BM_DryRunThenCommit);

// The version nodes' own tables: every node, plus every distinct bucket
// chunk the nodes point at (a commit copies only the chunks it changed).
uint64_t TableBytes(const MkbVersionStore& store) {
  const std::vector<std::shared_ptr<const MkbVersion>> versions =
      store.Versions();
  std::unordered_set<const MkbBucketChunk*> chunks;
  for (const auto& version : versions) {
    for (const auto& chunk : version->chunks) chunks.insert(chunk.get());
  }
  return chunks.size() * sizeof(MkbBucketChunk) +
         versions.size() * sizeof(MkbVersion);
}

// COW amplification across a long chain of view-pool-only commits (the
// slowly-evolving-MKB regime): each version re-renders one segment and
// shares the other four. Reports retained vs logical bytes and the
// amplification ratio logical/retained — the factor full snapshots would
// have cost — and table_bytes, what the version nodes' tables hold.
void BM_CowMemoryAmplification(benchmark::State& state) {
  const size_t versions = static_cast<size_t>(state.range(0));
  VersionByteStats bytes;
  uint64_t table_bytes = 0;
  for (auto _ : state) {
    EveSystem system = FreshSystem();
    for (size_t i = 0; i < versions; ++i) {
      const ViewState next =
          (i % 2 == 0) ? ViewState::kDisabled : ViewState::kActive;
      if (!system.SetViewState("CustomerPassengersAsia", next).ok()) {
        std::abort();
      }
    }
    bytes = system.versions().ByteStats();
    table_bytes = TableBytes(system.versions());
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["versions"] = static_cast<double>(versions);
  state.counters["retained_bytes"] = static_cast<double>(bytes.retained_bytes);
  state.counters["logical_bytes"] = static_cast<double>(bytes.logical_bytes);
  state.counters["table_bytes"] = static_cast<double>(table_bytes);
  state.counters["amplification"] =
      bytes.retained_bytes > 0
          ? static_cast<double>(bytes.logical_bytes) /
                static_cast<double>(bytes.retained_bytes)
          : 0.0;
}
BENCHMARK(BM_CowMemoryAmplification)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace eve

int main(int argc, char** argv) {
  eve::ValidateDryRunContract();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
