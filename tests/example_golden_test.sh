#!/usr/bin/env bash
# Runs one example binary and diffs its stdout with the golden file, as a
# ctest:
#
#   example_golden_test.sh <example binary> <golden file>
#
# The goldens in tests/golden/examples/ pin what the examples print (view
# extents among it) byte for byte. When a change is meant to alter that
# output, regenerate the file from the build directory:
#
#   ./examples/<name> > ../tests/golden/examples/<name>.out
set -u

EXAMPLE="$1"; GOLDEN="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Run from a temporary directory so nothing the example writes lands in the
# tree.
(cd "$WORK" && "$EXAMPLE") > "$WORK/stdout" \
    || { echo "FAIL: $EXAMPLE exited nonzero" >&2; exit 1; }
diff -u "$GOLDEN" "$WORK/stdout" \
    || { echo "FAIL: $EXAMPLE output differs from $GOLDEN" >&2; exit 1; }
