#!/usr/bin/env bash
# Runs the E7 scalability sweep and writes BENCH_cvs.json at the repo root:
# the current tree's numbers, merged with the recorded pre-PR baseline
# (bench/baseline_chain.json, captured from the seed tree before the
# indexed-MKB / SyncContext work landed) and per-size speedup ratios.
#
# Also runs the enumeration sweep (bench_enumeration: lazy best-first
# stream + top-k driver vs the eager cartesian baseline, which lives in
# the same binary) and writes BENCH_enumeration.json with per-sweep-point
# eager-vs-lazy speedup ratios, the admission sweep (bench_admission:
# deadline-token overhead vs the token-free search, plus p50/p99 bounded-
# queue batch latency under shedding) into BENCH_admission.json, and the
# versioning sweep (bench_versioning: O(1) tip-pin snapshot cost, dry-run
# overhead vs direct apply, COW byte amplification over 1k versions) into
# BENCH_versioning.json, and the one-system commit suite (bench_commit:
# ms per full-snapshot commit on the 16,512-view disjoint rename stream,
# bulk-registration throughput, pinned-read p50/p99 under concurrent
# commits, and the million-view load plus one commit) into
# BENCH_commit.json.
#
# The executor suite (bench_executor: Execute vs the nested-loop oracle
# on a 10M-row skewed join; EVE_BENCH_EXECUTOR_ROWS overrides the scale,
# e.g. under sanitizers) goes into BENCH_executor.json. The binary
# validates Execute == the oracle before timing anything, and exits
# nonzero on a mismatch.
#
# The server suite (bench_server: closed-loop chaos load against a forked
# eved serving loop — 10k concurrent sessions, ~3% running scripted
# disconnect/stall/flood faults; EVE_BENCH_SERVER_SESSIONS and
# EVE_BENCH_SERVER_SECONDS override the scale, e.g. under sanitizers)
# goes into BENCH_server.json. The binary exits nonzero if the server
# crashes, any well-behaved session sees a protocol violation, or the
# concurrent plateau falls short of the requested sessions.
#
# Every suite ends with one machine-readable line on stdout:
#   BENCHSUMMARY suite=<name> out=<json> key=value ...
# so CI (and humans grepping logs) can read each suite's headline numbers
# without parsing the JSON artifacts.
#
# Usage: bench/run_benchmarks.sh [--build-dir DIR] [--filter REGEX]
#                                [--min-time SECONDS]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$REPO_ROOT/build"
FILTER='BM_CvsChainMkbSize'
MIN_TIME='0.2'

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --filter)    FILTER="$2";    shift 2 ;;
    --min-time)  MIN_TIME="$2";  shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

BENCH="$BUILD_DIR/bench/bench_scalability"
if [[ ! -x "$BENCH" ]]; then
  echo "bench binary not found: $BENCH (build the repo first)" >&2
  exit 1
fi

CURRENT_JSON="$(mktemp)"
trap 'rm -f "$CURRENT_JSON"' EXIT

"$BENCH" --benchmark_filter="$FILTER" \
         --benchmark_min_time="${MIN_TIME}" \
         --benchmark_out="$CURRENT_JSON" \
         --benchmark_out_format=json > /dev/null

python3 - "$CURRENT_JSON" "$REPO_ROOT/bench/baseline_chain.json" \
          "$REPO_ROOT/BENCH_cvs.json" <<'PY'
import json
import sys

current_path, baseline_path, out_path = sys.argv[1:4]

def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return None

def times(doc):
    out = {}
    for bench in (doc or {}).get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        out[bench["name"]] = (bench["real_time"], bench["time_unit"])
    return out

current = load(current_path)
baseline = load(baseline_path)
current_times = times(current)
baseline_times = times(baseline)

comparison = []
for name, (now, unit) in sorted(current_times.items()):
    entry = {"name": name, "current": now, "time_unit": unit}
    if name in baseline_times:
        before, _ = baseline_times[name]
        entry["baseline"] = before
        entry["speedup"] = round(before / now, 2) if now > 0 else None
    comparison.append(entry)

doc = {
    "description": "E7 chain sweep: pre-PR baseline vs current tree "
                   "(indexed MKB lookups + shared SyncContext + batch "
                   "synchronization)",
    "context": (current or {}).get("context", {}),
    "comparison": comparison,
    "current": current,
    "baseline": baseline,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
for entry in comparison:
    speedup = entry.get("speedup")
    note = f"  {entry['current']:.0f} {entry['time_unit']}"
    if speedup is not None:
        note += f"  (baseline {entry['baseline']:.0f}, {speedup}x)"
    print(f"{entry['name']:<28}{note}")
speedups = [e["speedup"] for e in comparison if e.get("speedup") is not None]
print(f"BENCHSUMMARY suite=cvs out={out_path} points={len(comparison)}"
      f" min_speedup={min(speedups) if speedups else 'n/a'}"
      f" max_speedup={max(speedups) if speedups else 'n/a'}")
PY

ENUM_BENCH="$BUILD_DIR/bench/bench_enumeration"
if [[ ! -x "$ENUM_BENCH" ]]; then
  echo "bench binary not found: $ENUM_BENCH (build the repo first)" >&2
  exit 1
fi

ENUM_JSON="$(mktemp)"
trap 'rm -f "$CURRENT_JSON" "$ENUM_JSON"' EXIT

# The binary validates top-k == exhaustive-prefix at every sweep point
# before timing anything, and exits nonzero on a mismatch.
"$ENUM_BENCH" --benchmark_min_time="${MIN_TIME}" \
              --benchmark_out="$ENUM_JSON" \
              --benchmark_out_format=json

python3 - "$ENUM_JSON" "$REPO_ROOT/BENCH_enumeration.json" <<'PY'
import json
import sys

current_path, out_path = sys.argv[1:3]

with open(current_path) as f:
    doc = json.load(f)

times = {}
counters = {}
for bench in doc.get("benchmarks", []):
    if bench.get("run_type") == "aggregate":
        continue
    times[bench["name"]] = (bench["real_time"], bench["time_unit"])
    counters[bench["name"]] = {
        k: v for k, v in bench.items()
        if k in ("candidates", "rewritings", "pulled")
    }

# The eager baseline lives in the same binary, so the comparison is
# within-run: for each sweep point, pair the exhaustive and the top-k
# driver (end to end) and the eager and the lazy enumeration (stream
# only).
comparison = []
for pair_kind, base_fmt, lazy_fmt in (
    ("synchronize", "BM_SynchronizeExhaustive/{m}", "BM_SynchronizeTopK/{m}/{k}"),
    ("enumerate", "BM_EnumerateEager/{m}", "BM_EnumerateLazyTopK/{m}/{k}"),
):
    for m in (4, 8, 12, 16):
        base_name = base_fmt.format(m=m)
        if base_name not in times:
            continue
        base_time, unit = times[base_name]
        for k in (1, 4, 8):
            lazy_name = lazy_fmt.format(m=m, k=k)
            if lazy_name not in times:
                continue
            lazy_time, _ = times[lazy_name]
            comparison.append({
                "kind": pair_kind,
                "covers": m,
                "k": k,
                "eager_baseline": base_name,
                "lazy": lazy_name,
                "baseline": base_time,
                "current": lazy_time,
                "time_unit": unit,
                "speedup": round(base_time / lazy_time, 2)
                           if lazy_time > 0 else None,
                "counters": counters.get(lazy_name, {}),
            })

out = {
    "description": "Lazy best-first top-k enumeration vs eager cartesian "
                   "baseline on cover-fan MKBs (covers x k sweep); top-k "
                   "results validated byte-identical to the exhaustive "
                   "prefix before timing",
    "context": doc.get("context", {}),
    "comparison": comparison,
    "raw": doc,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
for entry in comparison:
    name = f"{entry['kind']} m={entry['covers']} k={entry['k']}"
    print(f"{name:<28}  {entry['current']:.0f} {entry['time_unit']}"
          f"  (eager {entry['baseline']:.0f}, {entry['speedup']}x)")
speedups = [e["speedup"] for e in comparison if e.get("speedup") is not None]
print(f"BENCHSUMMARY suite=enumeration out={out_path}"
      f" pairs={len(comparison)}"
      f" min_speedup={min(speedups) if speedups else 'n/a'}"
      f" max_speedup={max(speedups) if speedups else 'n/a'}")
PY

FED_BENCH="$BUILD_DIR/bench/bench_federation"
if [[ ! -x "$FED_BENCH" ]]; then
  echo "bench binary not found: $FED_BENCH (build the repo first)" >&2
  exit 1
fi

FED_JSON="$(mktemp)"
trap 'rm -f "$CURRENT_JSON" "$ENUM_JSON" "$FED_JSON"' EXIT

# Fault-regime sweep: every schedule must converge (the binary marks a
# non-converging run as an error) before its time means anything.
"$FED_BENCH" --benchmark_min_time="${MIN_TIME}" \
             --benchmark_out="$FED_JSON" \
             --benchmark_out_format=json > /dev/null

python3 - "$FED_JSON" "$REPO_ROOT/BENCH_federation.json" <<'PY'
import json
import sys

current_path, out_path = sys.argv[1:3]

with open(current_path) as f:
    doc = json.load(f)

times = {}
counters = {}
for bench in doc.get("benchmarks", []):
    if bench.get("run_type") == "aggregate":
        continue
    times[bench["name"]] = (bench["real_time"], bench["time_unit"])
    counters[bench["name"]] = {
        k: v for k, v in bench.items()
        if k in ("probes", "failed_probes", "sources")
    }

# The fault-free schedule is the in-run baseline: each fault regime's
# overhead ratio is its time over the clean run's.
comparison = []
base = times.get("BM_ScheduleFaultFree")
for name in ("BM_ScheduleFaultFree", "BM_ScheduleLoss5Percent",
             "BM_ScheduleLoss20Percent", "BM_ScheduleFlapAllSources"):
    if name not in times:
        continue
    now, unit = times[name]
    entry = {"name": name, "current": now, "time_unit": unit,
             "counters": counters.get(name, {})}
    if base is not None and now > 0:
        entry["baseline"] = base[0]
        entry["overhead"] = round(now / base[0], 2)
    comparison.append(entry)
for name in sorted(times):
    if name.startswith("BM_MonitorTick"):
        now, unit = times[name]
        comparison.append({"name": name, "current": now, "time_unit": unit,
                           "counters": counters.get(name, {})})

out = {
    "description": "Federation monitor under fault load: 400-tick "
                   "healed-within-lease schedules at 0%/5%/20% loss and "
                   "all-source flap (overhead vs the fault-free run), "
                   "plus raw monitor-tick throughput over synthetic "
                   "source counts",
    "context": doc.get("context", {}),
    "comparison": comparison,
    "raw": doc,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
for entry in comparison:
    note = f"  {entry['current']:.1f} {entry['time_unit']}"
    if "overhead" in entry:
        note += f"  ({entry['overhead']}x fault-free)"
    print(f"{entry['name']:<28}{note}")
overheads = [e["overhead"] for e in comparison if "overhead" in e]
print(f"BENCHSUMMARY suite=federation out={out_path}"
      f" regimes={len(overheads)}"
      f" max_overhead={max(overheads) if overheads else 'n/a'}")
PY

ADM_BENCH="$BUILD_DIR/bench/bench_admission"
if [[ ! -x "$ADM_BENCH" ]]; then
  echo "bench binary not found: $ADM_BENCH (build the repo first)" >&2
  exit 1
fi

ADM_JSON="$(mktemp)"
trap 'rm -f "$CURRENT_JSON" "$ENUM_JSON" "$FED_JSON" "$ADM_JSON"' EXIT

# The binary validates that a non-firing token leaves the synchronization
# result byte-identical before timing anything.
"$ADM_BENCH" --benchmark_min_time="${MIN_TIME}" \
             --benchmark_out="$ADM_JSON" \
             --benchmark_out_format=json

python3 - "$ADM_JSON" "$REPO_ROOT/BENCH_admission.json" <<'PY'
import json
import sys

current_path, out_path = sys.argv[1:3]

with open(current_path) as f:
    doc = json.load(f)

times = {}
counters = {}
for bench in doc.get("benchmarks", []):
    if bench.get("run_type") == "aggregate":
        continue
    times[bench["name"]] = (bench["real_time"], bench["time_unit"])
    counters[bench["name"]] = {
        k: v for k, v in bench.items()
        if k in ("p50_us", "p99_us", "shed_per_batch", "completed_per_batch")
    }

# Deadline-check overhead: the free-token search over the token-free one,
# per cover count. The budget is 2%; anything above is flagged (a warning,
# not a failure — CI machines are noisy).
overhead = []
for covers in (8, 16):
    bare = times.get(f"BM_SynchronizeNoToken/{covers}")
    tokened = times.get(f"BM_SynchronizeFreeToken/{covers}")
    if bare is None or tokened is None or bare[0] <= 0:
        continue
    ratio = tokened[0] / bare[0]
    overhead.append({
        "covers": covers,
        "no_token": bare[0],
        "free_token": tokened[0],
        "time_unit": bare[1],
        "overhead_percent": round((ratio - 1.0) * 100, 2),
        "within_2_percent_budget": ratio <= 1.02,
    })

latency = []
for name in sorted(times):
    if not name.startswith("BM_AdmissionBatch"):
        continue
    now, unit = times[name]
    entry = {"name": name, "current": now, "time_unit": unit}
    entry.update(counters.get(name, {}))
    latency.append(entry)

out = {
    "description": "Deadline-token overhead on the cover-fan search "
                   "(free token vs no token; 2% budget) and bounded-queue "
                   "admission cycles: p50/p99 enqueue+drain latency with "
                   "explicit shedding at queue limits 2/4/6 against 6 "
                   "submissions",
    "context": doc.get("context", {}),
    "overhead": overhead,
    "latency": latency,
    "raw": doc,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
for entry in overhead:
    flag = "ok" if entry["within_2_percent_budget"] else "OVER BUDGET"
    print(f"token overhead covers={entry['covers']:<3}"
          f"  {entry['overhead_percent']:+.2f}%  ({flag})")
for entry in latency:
    print(f"{entry['name']:<24}  p50 {entry.get('p50_us', 0):.0f} us"
          f"  p99 {entry.get('p99_us', 0):.0f} us"
          f"  shed {entry.get('shed_per_batch', 0):.0f}")
p99s = [e["p99_us"] for e in latency if "p99_us" in e]
print(f"BENCHSUMMARY suite=admission out={out_path}"
      f" within_budget={all(e['within_2_percent_budget'] for e in overhead)}"
      f" max_p99_us={max(p99s) if p99s else 'n/a'}")
PY

VER_BENCH="$BUILD_DIR/bench/bench_versioning"
if [[ ! -x "$VER_BENCH" ]]; then
  echo "bench binary not found: $VER_BENCH (build the repo first)" >&2
  exit 1
fi

VER_JSON="$(mktemp)"
trap 'rm -f "$CURRENT_JSON" "$ENUM_JSON" "$FED_JSON" "$ADM_JSON" "$VER_JSON"' EXIT

# The binary validates dry-run == commit (byte-identical reports, zero
# version churn) before timing anything, and aborts on a mismatch.
"$VER_BENCH" --benchmark_min_time="${MIN_TIME}" \
             --benchmark_out="$VER_JSON" \
             --benchmark_out_format=json > /dev/null

python3 - "$VER_JSON" "$REPO_ROOT/BENCH_versioning.json" <<'PY'
import json
import sys

current_path, out_path = sys.argv[1:3]

with open(current_path) as f:
    doc = json.load(f)

times = {}
counters = {}
for bench in doc.get("benchmarks", []):
    if bench.get("run_type") == "aggregate":
        continue
    times[bench["name"]] = (bench["real_time"], bench["time_unit"])
    counters[bench["name"]] = {
        k: v for k, v in bench.items()
        if k in ("versions", "retained_bytes", "logical_bytes",
                 "amplification")
    }

comparison = []
# Snapshot acquisition: the O(1) tip pin vs the reparse of an old version.
tip = times.get("BM_PinTipSnapshot")
old = times.get("BM_PinOldVersion")
if tip is not None:
    entry = {"name": "snapshot_acquisition", "tip_pin": tip[0],
             "time_unit": tip[1]}
    if old is not None and tip[0] > 0:
        entry["old_version_pin"] = old[0]
        entry["reparse_factor"] = round(old[0] / tip[0], 1)
    comparison.append(entry)
# Dry-run overhead vs the direct commit (in-run baseline).
direct = times.get("BM_ApplyChangeDirect")
for name in ("BM_DryRunChange", "BM_DryRunThenCommit"):
    if name not in times:
        continue
    now, unit = times[name]
    entry = {"name": name, "current": now, "time_unit": unit}
    if direct is not None and direct[0] > 0:
        entry["direct_apply"] = direct[0]
        entry["ratio_vs_direct"] = round(now / direct[0], 2)
    comparison.append(entry)
# COW amplification across the chain sweep.
for name in sorted(times):
    if not name.startswith("BM_CowMemoryAmplification"):
        continue
    now, unit = times[name]
    entry = {"name": name, "current": now, "time_unit": unit}
    entry.update(counters.get(name, {}))
    comparison.append(entry)

out = {
    "description": "Versioned MKB costs: O(1) tip-pin snapshot vs old-"
                   "version reparse, what-if dry-run vs direct apply "
                   "(dry-run reports validated byte-identical to the "
                   "commit before timing), and copy-on-write retained-vs-"
                   "logical byte amplification across 100/1000-version "
                   "chains",
    "context": doc.get("context", {}),
    "comparison": comparison,
    "raw": doc,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
for entry in comparison:
    name = entry["name"]
    if name == "snapshot_acquisition":
        print(f"{name:<32}  tip {entry['tip_pin']:.1f} {entry['time_unit']}"
              f"  (old-version x{entry.get('reparse_factor', '?')})")
    elif "ratio_vs_direct" in entry:
        print(f"{name:<32}  {entry['current']:.0f} {entry['time_unit']}"
              f"  ({entry['ratio_vs_direct']}x direct apply)")
    elif "amplification" in entry:
        print(f"{name:<32}  retained {entry['retained_bytes']:.0f} B"
              f"  logical {entry['logical_bytes']:.0f} B"
              f"  ({entry['amplification']:.2f}x saved)")
tip_entry = next((e for e in comparison
                  if e["name"] == "snapshot_acquisition"), {})
print(f"BENCHSUMMARY suite=versioning out={out_path}"
      f" tip_pin_{tip_entry.get('time_unit', 'ns')}="
      f"{round(tip_entry.get('tip_pin', 0), 1)}"
      f" reparse_factor={tip_entry.get('reparse_factor', 'n/a')}")
PY

COMMIT_BENCH="$BUILD_DIR/bench/bench_commit"
if [[ ! -x "$COMMIT_BENCH" ]]; then
  echo "bench binary not found: $COMMIT_BENCH (build the repo first)" >&2
  exit 1
fi

COMMIT_JSON="$(mktemp)"
trap 'rm -f "$CURRENT_JSON" "$ENUM_JSON" "$FED_JSON" "$ADM_JSON" "$VER_JSON" "$COMMIT_JSON"' EXIT

# The binary checks the per-commit oracle (tip view text == SaveViews, only
# touched buckets renewed) over the stream before timing anything; a
# violation aborts the run (and, via set -e, this script).
# EVE_BENCH_MILLION=1 also runs the million-view load plus one commit;
# export it as 0 to skip (e.g. under sanitizers).
EVE_BENCH_MILLION="${EVE_BENCH_MILLION:-1}" \
"$COMMIT_BENCH" --benchmark_min_time="${MIN_TIME}" \
                --benchmark_out="$COMMIT_JSON" \
                --benchmark_out_format=json > /dev/null

python3 - "$COMMIT_JSON" "$REPO_ROOT/BENCH_commit.json" <<'PY'
import json
import sys

current_path, out_path = sys.argv[1:3]

with open(current_path) as f:
    doc = json.load(f)

runs = {}
for bench in doc.get("benchmarks", []):
    if bench.get("run_type") == "aggregate":
        continue
    runs[bench["name"]] = bench

registration = runs.get("BM_BulkRegistration", {})
commit = runs.get("BM_DisjointCommit", {})
reads = {}
for name, bench in runs.items():
    if name.startswith("BM_PinnedReadDuringCommits"):
        reads = {
            "read_p50_ns": bench.get("read_p50_ns"),
            "read_p99_ns": bench.get("read_p99_ns"),
            "reads_during_commit": bench.get("reads_during_commit"),
            "commits_during_run": bench.get("commits_during_run"),
            "mean_commit_ns": bench.get("mean_commit_ns"),
        }
million = None
for name, bench in runs.items():
    if name.startswith("BM_MillionViewLoadAndCommit"):
        million = {
            "load_seconds": round(bench.get("real_time", 0.0), 2),
            "views_per_second": bench.get("items_per_second"),
            "commit_ms": bench.get("commit_ms"),
            "commit_affected_views": bench.get("commit_affected_views"),
        }

ms_per_commit = commit.get("real_time")
out = {
    "description": "One EveSystem with full snapshots on the disjoint "
                   "rename stream (each change rewrites 8 views): ms per "
                   "commit on a 16,512-view pool, bulk registration in "
                   "views per second, pinned-read latency while a writer "
                   "commits continuously, and a million-view load plus "
                   "one commit. The per-commit oracle is checked over the "
                   "stream before timing.",
    "context": doc.get("context", {}),
    "per_commit_oracle": True,  # checked by the binary pre-timing
    "commit": {
        "pool_views": commit.get("views"),
        "ms_per_commit": ms_per_commit,
        "commits_per_second": commit.get("items_per_second"),
        "meets_0_5_ms_target": ms_per_commit is not None
                               and ms_per_commit <= 0.5,
    },
    "registration": {
        "views": registration.get("views"),
        "views_per_second": registration.get("items_per_second"),
    },
    "pinned_reads_under_commits": reads,
    "million_view_load_and_commit": million,
    "raw": doc,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
if ms_per_commit is not None:
    print(f"commit  {ms_per_commit:.3f} ms on {commit.get('views', 0):.0f} views")
if reads:
    print(f"pinned reads  p50 {reads['read_p50_ns']:.0f} ns"
          f"  p99 {reads['read_p99_ns']:.0f} ns"
          f"  during-commit {reads['reads_during_commit']:.0f}")
if million:
    print(f"million-view load {million['load_seconds']:.1f} s,"
          f" one commit {million['commit_ms']:.1f} ms")
print(f"BENCHSUMMARY suite=commit out={out_path}"
      f" ms_per_commit={ms_per_commit}"
      f" read_p99_ns={reads.get('read_p99_ns', 'n/a')}"
      f" per_commit_oracle=True")
PY

EXEC_BENCH="$BUILD_DIR/bench/bench_executor"
if [[ ! -x "$EXEC_BENCH" ]]; then
  echo "bench binary not found: $EXEC_BENCH (build the repo first)" >&2
  exit 1
fi

EXEC_JSON="$(mktemp)"
trap 'rm -f "$CURRENT_JSON" "$ENUM_JSON" "$FED_JSON" "$ADM_JSON" "$VER_JSON" "$COMMIT_JSON" "$EXEC_JSON"' EXIT

# The binary validates Execute == the nested-loop oracle before timing
# anything, and exits nonzero on a mismatch (aborting this script via
# set -e).
# EVE_BENCH_EXECUTOR_ROWS sets the R0 scale; the 10M default is the
# ISSUE-target configuration — export a smaller value under sanitizers.
EVE_BENCH_EXECUTOR_ROWS="${EVE_BENCH_EXECUTOR_ROWS:-10000000}" \
"$EXEC_BENCH" --benchmark_min_time="${MIN_TIME}" \
              --benchmark_out="$EXEC_JSON" \
              --benchmark_out_format=json

python3 - "$EXEC_JSON" "$REPO_ROOT/BENCH_executor.json" <<'PY'
import json
import sys

current_path, out_path = sys.argv[1:3]

with open(current_path) as f:
    doc = json.load(f)

runs = {}
for bench in doc.get("benchmarks", []):
    if bench.get("run_type") == "aggregate":
        continue
    runs[bench["name"]] = bench

def time_of(name):
    bench = runs.get(name)
    return (bench["real_time"], bench["time_unit"]) if bench else None

rows = None

# Query execution: Execute at the full scale, and the nested-loop oracle
# at a capped size (its time is reported but not a fair ratio).
queries = []
for name in ("BM_QueryNestedLoop", "BM_QueryExecute"):
    t = time_of(name)
    if t is None:
        continue
    bench = runs[name]
    entry = {"name": name, "current": t[0], "time_unit": t[1],
             "rows": bench.get("rows"), "out_rows": bench.get("out_rows")}
    if name == "BM_QueryExecute":
        rows = bench.get("rows")
    queries.append(entry)

out = {
    "description": "Columnar data plane: Execute vs the nested-loop "
                   "oracle on a skewed two-relation join. The binary "
                   "validates Execute == oracle before timing.",
    "context": doc.get("context", {}),
    "rows": rows,
    "queries": queries,
    "raw": doc,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
for entry in queries:
    print(f"{entry['name']:<24}  {entry['current']:.1f} {entry['time_unit']}")
print(f"BENCHSUMMARY suite=executor out={out_path}"
      f" rows={rows}")
PY

SERVER_BENCH="$BUILD_DIR/bench/bench_server"
if [[ ! -x "$SERVER_BENCH" ]]; then
  echo "bench binary not found: $SERVER_BENCH (build the repo first)" >&2
  exit 1
fi

# Not a google-benchmark microbench: bench_server forks an eved serving
# loop, drives EVE_BENCH_SERVER_SESSIONS concurrent closed-loop sessions
# (~3% running scripted disconnect/stall/flood faults), writes
# BENCH_server.json itself, and prints its own BENCHSUMMARY line. It
# exits nonzero — aborting this script via set -e — if the server
# crashes, a well-behaved session sees a protocol violation, or the
# concurrent plateau falls short.
"$SERVER_BENCH" --sessions "${EVE_BENCH_SERVER_SESSIONS:-10000}" \
                --duration-seconds "${EVE_BENCH_SERVER_SECONDS:-8}" \
                --out "$REPO_ROOT/BENCH_server.json"

REPL_BENCH="$BUILD_DIR/bench/bench_repl"
if [[ ! -x "$REPL_BENCH" ]]; then
  echo "bench binary not found: $REPL_BENCH (build the repo first)" >&2
  exit 1
fi

# Also not a microbench: bench_repl runs a 3-node replicated cluster as
# real processes under closed-loop semi-sync load, SIGKILLs the primary,
# then partitions (SIGSTOP) its successor. It writes BENCH_repl.json
# itself and exits nonzero — aborting this script via set -e — on a
# missed promotion budget, any lost acked commit, non-identical
# converged state, or a dirty scrub.
"$REPL_BENCH" --writers "${EVE_BENCH_REPL_WRITERS:-2}" \
              --out "$REPO_ROOT/BENCH_repl.json"
