#!/usr/bin/env bash
# Linker audit of src/: lists the eve:: functions that the eve_* libraries
# define and that no production binary links, and checks that list against
# tools/src_audit.allow.
#
# The seven production targets (eved, evectl and the five examples) are
# built at -O0 with one section per function and linked with
# --gc-sections, so a binary keeps exactly the functions it can reach. A
# strong text symbol (nm type T) of a libeve_*.a that no binary keeps is
# reported by its demangled name, without parameters or destructors.
# Header-inline functions are weak symbols (type W), so the audit cannot
# see them.
#
# Each line of the allowlist is a category and a name:
#   test-seam          a hook tests drive (failpoint counters, printers)
#   paper-bench E<n>   an entry point the paper bench for experiment E<n>
#                      calls (EXPERIMENTS.md)
#   evebench           what evebench/ calls
# Blank lines and lines starting with '#' are comments.
#
# Usage: tools/src_audit.sh   (builds into build-audit/ at the repo root)
# Exits 1 when an unlinked name is not allowlisted, when an allowlisted
# name is linked or gone, or when an allowlist line has no category.
set -euo pipefail
export LC_ALL=C

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/build-audit"
allow="$root/tools/src_audit.allow"
binaries=(tools/eved tools/evectl examples/quickstart examples/travel_agency
          examples/warehouse_churn examples/federation_sim
          examples/source_onboarding)
targets=("${binaries[@]##*/}")

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
cmake --build "$build" -j"$(nproc)" --target "${targets[@]}" >/dev/null

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

find "$build/src" -name 'libeve_*.a' -print0 |
  xargs -0 nm --defined-only -g |
  awk '$2 == "T" { print $3 }' | sort -u >"$work/defined"
for binary in "${binaries[@]}"; do
  nm --defined-only "$build/$binary"
done | awk '{ print $NF }' | sort -u >"$work/linked"
comm -23 "$work/defined" "$work/linked" | c++filt -p |
  sed 's/\[abi:cxx11\]//g' | grep '^eve::' | grep -v '::~' |
  sort -u >"$work/unlinked"

status=0
: >"$work/allowed"
while IFS= read -r line; do
  [[ -z "${line//[[:space:]]/}" || "$line" == \#* ]] && continue
  if [[ "$line" =~ ^(test-seam|evebench|paper-bench\ E[0-9]+)[[:space:]]+(eve::.+)$ ]]; then
    echo "${BASH_REMATCH[2]}" >>"$work/allowed"
  else
    echo "src_audit: allowlist line without a category: $line" >&2
    status=1
  fi
done <"$allow"
sort -u -o "$work/allowed" "$work/allowed"

echo "unlinked eve:: functions: $(wc -l <"$work/unlinked")"
cat "$work/unlinked"
while IFS= read -r name; do
  echo "src_audit: unlinked and not allowlisted: $name" >&2
  status=1
done < <(comm -23 "$work/unlinked" "$work/allowed")
while IFS= read -r name; do
  echo "src_audit: allowlisted but no longer unlinked: $name" >&2
  status=1
done < <(comm -13 "$work/unlinked" "$work/allowed")
exit "$status"
