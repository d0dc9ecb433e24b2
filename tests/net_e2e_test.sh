#!/usr/bin/env bash
# End-to-end tests for the eved network front end, driven as ctests:
#
#   net_e2e_test.sh <mode> <evectl> <eved> <srcdir>
#
# Modes:
#   identity       The demo script's stdout and stderr over eved +
#                  `evectl --connect` are byte-identical to a local evectl
#                  run, and SIGTERM drains eved to a clean exit 0. So are
#                  those of a generated script of edge statements (quoted
#                  paths holding a space or a quote, integer refusals,
#                  session controls, malformed change phrases) run against
#                  a fresh eved.
#   crash_recover  kill -9 eved mid-load, then RECOVER from the surviving
#                  checkpoint + journal must land on a whole version and
#                  scrub clean (exit 0). When EVE_CRASH_FAILPOINTS is set
#                  (the nightly chaos matrix), those crash-mode sites are
#                  armed on eved instead, so the death comes from the
#                  serving path itself; kill -9 stays as the fallback if
#                  the site never fires.
#   stress_failline  With an injected admission fault, evectl must exit
#                  nonzero and report the failing statement as
#                  <script>:<line>: error (the script-diagnostic contract).
#   flags          A numeric eved flag or an evectl --connect endpoint whose
#                  value does not fit its field (a sign, trailing bytes, an
#                  overflow, a port past 65535) exits 2 with an error line
#                  before anything starts: eved writes no port file and
#                  evectl runs no statement.
set -u

MODE="$1"; EVECTL="$2"; EVED="$3"; SRCDIR="$4"
WORK="$(mktemp -d)"
EVED_PID=""

cleanup() {
  if [ -n "$EVED_PID" ] && kill -0 "$EVED_PID" 2>/dev/null; then
    kill -9 "$EVED_PID" 2>/dev/null
    wait "$EVED_PID" 2>/dev/null
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

die() { echo "FAIL($MODE): $*" >&2; exit 1; }

# Starts eved (cwd = SRCDIR so scripts resolve tools/demo.misd), waits for
# the port file, and sets EVED_PID / PORT.
start_eved() {
  rm -f "$WORK/port"
  (cd "$SRCDIR" && \
      EVE_FAILPOINTS="${EVED_FAILPOINTS:-}" \
      exec "$EVED" --port 0 --port-file "$WORK/port" "$@" \
      > "$WORK/eved.out" 2> "$WORK/eved.err") &
  EVED_PID=$!
  for _ in $(seq 1 200); do
    [ -s "$WORK/port" ] && break
    kill -0 "$EVED_PID" 2>/dev/null || die "eved died during startup: $(cat "$WORK/eved.err")"
    sleep 0.05
  done
  [ -s "$WORK/port" ] || die "eved never wrote its port file"
  PORT="$(cat "$WORK/port")"
}

case "$MODE" in
  identity)
    # Local run: the reference bytes.
    (cd "$SRCDIR" && "$EVECTL" tools/demo.evectl) \
        > "$WORK/local.out" 2> "$WORK/local.err" \
        || die "local demo run failed: $(cat "$WORK/local.err")"

    start_eved
    (cd "$SRCDIR" && "$EVECTL" --connect "127.0.0.1:$PORT" tools/demo.evectl) \
        > "$WORK/remote.out" 2> "$WORK/remote.err" \
        || die "remote demo run failed: $(cat "$WORK/remote.err")"

    diff -u "$WORK/local.out" "$WORK/remote.out" \
        || die "remote output is not byte-identical to the local run"
    diff -u "$WORK/local.err" "$WORK/remote.err" \
        || die "remote stderr is not byte-identical to the local run"

    # Graceful drain: SIGTERM must end in a clean exit 0.
    kill -TERM "$EVED_PID"
    wait "$EVED_PID"; RC=$?
    EVED_PID=""
    [ "$RC" -eq 0 ] || die "SIGTERM drain exited $RC (want 0): $(cat "$WORK/eved.err")"
    grep -q "eved exited cleanly" "$WORK/eved.out" \
        || die "missing clean-exit banner: $(cat "$WORK/eved.out")"

    # Edge statements. Each run starts from the same files: a fresh copy of
    # the demo MISD in a directory whose name holds a space.
    EDGE="$WORK/edge dir"
    cat > "$WORK/edge.evectl" <<EOF
LOAD MISD '$EDGE/demo.misd';
SAVE MISD '$EDGE/it''s.misd';
LOAD MISD '$EDGE/it''s.misd';
CREATE VIEW AsiaCustomers (VE = ~) AS
SELECT C.Name (false, true), C.Age (true, true)
FROM Customer C (true, true), FlightRes F (true, true)
WHERE (C.Name = F.PName) (false, true) AND (F.Dest = 'Asia') (false, true);
SAVE VIEWS '$EDGE/pool; of views';
JOURNAL '$EDGE/w.wal';
CHECKPOINT '$EDGE/c.ckpt';
RENAME RELATION Customer TO Client;
RECOVER '$EDGE/c.ckpt' '$EDGE/w.wal';
SHOW VERSIONS;
SHOW VIEW AsiaCustomers;
LOAD VIEWS '$EDGE/pool; of views';
LOAD MISD '$EDGE/no such.misd';
READ STALENESS -5;
READ STALENESS +5;
READ STALENESS 12abc;
READ STALENESS 123456789012345678901;
READ STALENESS soon;
READ STALENESS 5 x;
READ STALENESS NONE;
SHOW REPLICATION x;
SHOW MKB AT VERSION -1;
SHOW VIEW 'no such view';
ENQUEUE RENAME RELATION Client Customer;
PREVIEW DELETE TABLE Client;
SYNC DRYRUN DELETE ATTRIBUTE Client;
SYNC DRYRUN RENAME RELATION Client TO Customer AT VERSION 1;
DELETE RELATION;
ROLLBACK TO VERSION 1;
SHOW MKB;
EOF
    run_edge() {
      rm -rf "$EDGE" && mkdir -p "$EDGE" \
          && cp "$SRCDIR/tools/demo.misd" "$EDGE/" \
          && (cd "$SRCDIR" && "$EVECTL" "$@" "$WORK/edge.evectl")
    }
    run_edge > "$WORK/edge_local.out" 2> "$WORK/edge_local.err"
    LOCAL_RC=$?
    # The script fails on purpose (refusals, missing files), but it must
    # recover what it checkpointed and journaled.
    [ "$LOCAL_RC" -eq 1 ] || die "local edge run exited $LOCAL_RC (want 1)"
    grep -q "^recovered 1 views, 7 relations$" "$WORK/edge_local.out" \
        || die "the edge run recovered nothing: $(cat "$WORK/edge_local.out")"

    start_eved
    run_edge --connect "127.0.0.1:$PORT" \
        > "$WORK/edge_remote.out" 2> "$WORK/edge_remote.err"
    REMOTE_RC=$?
    [ "$REMOTE_RC" -eq "$LOCAL_RC" ] \
        || die "remote edge run exited $REMOTE_RC, local $LOCAL_RC"
    diff -u "$WORK/edge_local.out" "$WORK/edge_remote.out" \
        || die "remote edge output is not byte-identical to the local run"
    diff -u "$WORK/edge_local.err" "$WORK/edge_remote.err" \
        || die "remote edge stderr is not byte-identical to the local run"
    kill -TERM "$EVED_PID"
    wait "$EVED_PID"
    EVED_PID=""
    ;;

  crash_recover)
    # Bring up eved with journaled durable state...
    cat > "$WORK/init.evectl" <<EOF
LOAD MISD 'tools/demo.misd';
CREATE VIEW CustomerPassengersAsia (VE = ~) AS
SELECT C.Name (false, true), C.Age (true, true),
       P.Participant (true, true), P.TourID (true, true)
FROM Customer C (true, true), FlightRes F (true, true),
     Participant P (true, true)
WHERE (C.Name = F.PName) (false, true)
  AND (F.Dest = 'Asia') (false, true)
  AND (P.StartDate = F."Date") (false, true)
  AND (P.Loc = 'Asia') (false, true);
JOURNAL '$WORK/wal';
CHECKPOINT '$WORK/ckpt';
EOF
    # The nightly chaos matrix arms crash-mode net.* sites here; the
    # tier-1 ctest leaves it empty and relies on the kill -9 below.
    EVED_FAILPOINTS="${EVE_CRASH_FAILPOINTS:-}"
    start_eved --init "$WORK/init.evectl"
    EVED_FAILPOINTS=""

    # ...journal-heavy remote load: every ROLLBACK commits (and journals)
    # a new version, so kill -9 lands mid-commit with high probability.
    {
      echo "DELETE RELATION Customer;"
      for _ in $(seq 1 400); do echo "ROLLBACK TO VERSION 2;"; done
    } > "$WORK/load.evectl"
    (cd "$SRCDIR" && "$EVECTL" --connect "127.0.0.1:$PORT" "$WORK/load.evectl") \
        > "$WORK/load.out" 2> "$WORK/load.err" &
    LOAD_PID=$!

    # Let the load get going, then pull the plug. An armed crash-mode
    # failpoint usually beats us to it (eved exits 3 from the serving
    # path); kill -9 is the fallback death.
    for _ in $(seq 1 100); do
      grep -q "ROLLBACK" "$WORK/load.out" 2>/dev/null && break
      kill -0 "$EVED_PID" 2>/dev/null || break
      sleep 0.02
    done
    kill -9 "$EVED_PID" 2>/dev/null
    wait "$EVED_PID" 2>/dev/null
    EVED_PID=""
    wait "$LOAD_PID" 2>/dev/null || true  # the client dies with the server

    # Recovery: the surviving checkpoint + journal must restore a whole
    # version that scrubs clean.
    cat > "$WORK/recover.evectl" <<EOF
RECOVER '$WORK/ckpt' '$WORK/wal';
SHOW VERSIONS;
SCRUB;
SHOW SCRUB STATS;
EOF
    (cd "$SRCDIR" && "$EVECTL" "$WORK/recover.evectl") \
        > "$WORK/recover.out" 2> "$WORK/recover.err" \
        || die "RECOVER after kill -9 failed: $(cat "$WORK/recover.err")"
    grep -q "corruptions=0" "$WORK/recover.out" \
        || die "scrub did not come back clean: $(cat "$WORK/recover.out")"
    ;;

  stress_failline)
    # Satellite contract: a script failure exits nonzero with a one-line
    # <script>:<line>: error diagnostic naming the failing statement.
    (cd "$SRCDIR" && EVE_FAILPOINTS=eve.admission.drain=error \
        "$EVECTL" tools/stress.evectl) \
        > "$WORK/stress.out" 2> "$WORK/stress.err"
    RC=$?
    [ "$RC" -ne 0 ] || die "evectl exited 0 despite an injected drain fault"
    grep -Eq 'stress\.evectl:[0-9]+: error' "$WORK/stress.err" \
        || die "missing file:line diagnostic, stderr was: $(cat "$WORK/stress.err")"
    ;;

  flags)
    # Only values refused while the flags are parsed: a well-formed value
    # that fails later (a large --workers, a port nothing listens on) would
    # start something.
    expect_refused() {
      local what="$1"; shift
      rm -f "$WORK/port"
      timeout 5 "$@" > "$WORK/flags.out" 2> "$WORK/flags.err"
      local rc=$?
      [ "$rc" -eq 2 ] || die "$what exited $rc (want 2): $(cat "$WORK/flags.err")"
      grep -q "^error: " "$WORK/flags.err" \
          || die "$what printed no error line: $(cat "$WORK/flags.err")"
      [ ! -e "$WORK/port" ] || die "$what started eved"
      [ ! -s "$WORK/flags.out" ] || die "$what ran: $(cat "$WORK/flags.out")"
    }
    while read -r flag value; do
      expect_refused "eved $flag $value" \
          "$EVED" --port-file "$WORK/port" "$flag" "$value"
    done <<'EOF'
--port 70000
--port +80
--metrics-port 65536
--workers -1
--max-sessions 12x
--idle-timeout-micros 18446744073709551616
--drain-timeout-micros 1e6
--lease-micros -5
--heartbeat-micros 0x10
--ack-replicas 4294967296
--ack-timeout-micros 5.0
EOF
    echo "SHOW MKB;" > "$WORK/one.evectl"
    for endpoint in 127.0.0.1:99999 h:abc 127.0.0.1 127.0.0.1:+80 \
                    127.0.0.1:1,127.0.0.1:0; do
      expect_refused "evectl --connect $endpoint" \
          "$EVECTL" --connect "$endpoint" "$WORK/one.evectl"
    done
    ;;

  *)
    die "unknown mode: $MODE"
    ;;
esac

echo "PASS($MODE)"
