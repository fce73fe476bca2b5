#!/usr/bin/env bash
# Serving-path smoke: a real multi-process cluster behind skalla-coord,
# hit by concurrent clients over the line protocol.
#
#   scripts/serve_smoke.sh [BUILD_DIR]   (default: ./build)
#
# Spawns 4 skalla-site processes, one skalla-coord over their endpoints,
# then 8 concurrent clients (scripts/coord_client.py) submitting 4
# distinct queries twice each. Checks every reply is OK, that both
# submissions of each query return byte-identical tables, that a repeat
# query is served from the sub-aggregate cache (zero bytes transferred),
# that 16 more sequential clients grow the coordinator's VmSize by less
# than 32 MiB (finished client threads are joined while serving), that
# an `.analyze on` reply carries the EXPLAIN ANALYZE per-site table and
# wire-bytes line, that `.metrics` returns the coordinator's own STATS
# entry plus one per site, and validates the coordinator's merged
# cross-process trace (a coordinator lane plus one lane per site process)
# with scripts/check_trace.py. A last leg serves the same warehouse from
# in-process sites (`skalla-coord --data`), whose `.metrics` reply is the
# coordinator's entry alone: its sites share the coordinator's registry.
set -euo pipefail

BUILD_DIR="${1:-build}"
SITES=4
WORK="$(mktemp -d)"
PIDS=()
HERE="$(dirname "$0")"

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_port() {  # wait_port LOGFILE NAME -> port
  local port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^LISTENING port=\([0-9]*\).*/\1/p' "$1")"
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "$2 never announced its port:" >&2
    cat "$1" >&2
    exit 1
  fi
  echo "$port"
}

"$BUILD_DIR/tools/skalla-dataset" --out "$WORK/wh" --sites "$SITES" \
    --flows 2000 --tpcr-rows 2000

ENDPOINTS=""
for i in $(seq 0 $((SITES - 1))); do
  "$BUILD_DIR/tools/skalla-site" --data "$WORK/wh" --site "$i" --port 0 \
      >"$WORK/site$i.log" 2>&1 &
  PIDS+=($!)
done
for i in $(seq 0 $((SITES - 1))); do
  port="$(wait_port "$WORK/site$i.log" "site $i")"
  ENDPOINTS="${ENDPOINTS:+$ENDPOINTS,}127.0.0.1:$port"
done

"$BUILD_DIR/tools/skalla-coord" --endpoints "$ENDPOINTS" --port 0 \
    --max-concurrent 8 --shutdown-sites \
    --trace-out="$WORK/trace.json" --metrics-out="$WORK/metrics.json" \
    >"$WORK/coord.log" 2>&1 &
COORD_PID=$!
PIDS+=($COORD_PID)
COORD="127.0.0.1:$(wait_port "$WORK/coord.log" "coord")"

QUERIES=(
  'BASE SELECT DISTINCT SourceAS FROM flow;
   MD USING flow COMPUTE COUNT(*) AS flows, SUM(NumBytes) AS bytes
      WHERE r.SourceAS = b.SourceAS;'
  'BASE SELECT DISTINCT DestAS FROM flow;
   MD USING flow COMPUTE COUNT(*) AS flows WHERE r.DestAS = b.DestAS;'
  'BASE SELECT DISTINCT SourceAS, DestAS FROM flow;
   MD USING flow COMPUTE COUNT(*) AS c, SUM(NumBytes) AS s
      WHERE r.SourceAS = b.SourceAS AND r.DestAS = b.DestAS;
   MD USING flow COMPUTE COUNT(*) AS big
      WHERE r.SourceAS = b.SourceAS AND r.DestAS = b.DestAS
        AND r.NumBytes >= b.s / b.c;'
  'BASE SELECT DISTINCT SourceAS FROM flow;
   MD USING flow COMPUTE MAX(NumBytes) AS peak WHERE r.SourceAS = b.SourceAS;'
)

# 8 concurrent clients: each of the 4 queries submitted twice, all
# in flight at once against the same session.
CLIENT_PIDS=()
for c in $(seq 0 7); do
  q=$((c % ${#QUERIES[@]}))
  python3 "$HERE/coord_client.py" "$COORD" "${QUERIES[$q]}" \
      >"$WORK/client$c.out" 2>"$WORK/client$c.err" &
  CLIENT_PIDS+=($!)
done
for pid in "${CLIENT_PIDS[@]}"; do wait "$pid"; done

# Every reply is OK, and the two submissions of each query returned
# byte-identical tables (the reply is "OK <id> <rows>", the table, then
# the stats block, which may legitimately differ between a cache miss
# and a hit).
table_of() { sed -e 1d -e '/^round \+sync/,$d' -e '/^total:/,$d' "$1"; }
for c in $(seq 0 7); do
  head -1 "$WORK/client$c.out" | grep -q '^OK ' || {
    echo "client $c did not get an OK reply:" >&2
    cat "$WORK/client$c.out" "$WORK/client$c.err" >&2
    exit 1
  }
done
for c in $(seq 0 3); do
  if ! diff <(table_of "$WORK/client$c.out") \
            <(table_of "$WORK/client$((c + 4)).out") >/dev/null; then
    echo "clients $c and $((c + 4)) ran the same query but disagreed:" >&2
    diff <(table_of "$WORK/client$c.out") \
         <(table_of "$WORK/client$((c + 4)).out") >&2 || true
    exit 1
  fi
done

# A sequential repeat is a sub-aggregate cache hit: zero rounds, zero
# bytes, and the table still matches the original answer.
python3 "$HERE/coord_client.py" "$COORD" "${QUERIES[0]}" >"$WORK/repeat.out"
grep -q '^total: 0 bytes, 0 tuples' "$WORK/repeat.out"
diff <(table_of "$WORK/repeat.out") <(table_of "$WORK/client0.out")

# Finished client threads are joined while the coordinator serves, so
# sequential clients do not pile up thread stacks (about 8 MiB each).
vm_size_kb() { sed -n 's/^VmSize:[[:space:]]*\([0-9]*\) kB/\1/p' "/proc/$COORD_PID/status"; }
VM_BEFORE="$(vm_size_kb)"
for _ in $(seq 1 16); do
  python3 "$HERE/coord_client.py" "$COORD" "${QUERIES[0]}" >/dev/null
done
sleep 0.5  # one accept-loop pass (0.2 s) reaps the last client
VM_AFTER="$(vm_size_kb)"
if [ $((VM_AFTER - VM_BEFORE)) -ge $((32 * 1024)) ]; then
  echo "coordinator VmSize grew ${VM_BEFORE} -> ${VM_AFTER} kB over 16 clients" >&2
  exit 1
fi

# EXPLAIN ANALYZE over the line protocol: after `.analyze on`, an OK reply
# (here a cache miss, so it ran rounds) ends with the report's per-site
# profile table and wire line.
python3 "$HERE/coord_client.py" "$COORD" '.analyze on' \
    'BASE SELECT DISTINCT DestAS FROM flow;
     MD USING flow COMPUTE MIN(NumBytes) AS low WHERE r.DestAS = b.DestAS;' \
    >"$WORK/analyze.out"
grep -q 'site    wall_ms' "$WORK/analyze.out"
grep -q 'bytes on the wire' "$WORK/analyze.out"

# The coordinator reports its own registry, and every site answers
# kGetStats.
python3 "$HERE/coord_client.py" "$COORD" .metrics >"$WORK/metrics.out"
[ "$(grep -c '^COORD STATS {' "$WORK/metrics.out")" -eq 1 ]
[ "$(grep -c '^SITE [0-9]* STATS {' "$WORK/metrics.out")" -eq "$SITES" ]

python3 "$HERE/coord_client.py" "$COORD" .shutdown
wait "$COORD_PID"

# Coordinator lane + one lane per site process in the merged trace.
python3 "$HERE/check_trace.py" "$WORK/trace.json" --min-pids $((SITES + 1))
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$WORK/metrics.json"

# In-process sites (--data): one query, then `.metrics` is the
# coordinator's registry alone — no SITE entry repeating it.
"$BUILD_DIR/tools/skalla-coord" --data "$WORK/wh" --port 0 \
    >"$WORK/coord_data.log" 2>&1 &
DATA_PID=$!
PIDS+=($DATA_PID)
DATA_COORD="127.0.0.1:$(wait_port "$WORK/coord_data.log" "coord --data")"
python3 "$HERE/coord_client.py" "$DATA_COORD" "${QUERIES[0]}" \
    >"$WORK/data_query.out"
head -1 "$WORK/data_query.out" | grep -q '^OK '
python3 "$HERE/coord_client.py" "$DATA_COORD" .metrics >"$WORK/data_metrics.out"
[ "$(grep -c '^COORD STATS {' "$WORK/data_metrics.out")" -eq 1 ]
[ "$(grep -c '^SITE ' "$WORK/data_metrics.out")" -eq 0 ]
python3 "$HERE/coord_client.py" "$DATA_COORD" .shutdown
wait "$DATA_PID"
echo "serve_smoke: OK"
