#!/usr/bin/env bash
# Disk-backed storage smoke: the same queries over the same data must be
# byte-identical whether sites hold every chunk resident or page small
# chunks through a buffer budget far below the partition size.
#
#   scripts/storage_smoke.sh [BUILD_DIR]   (default: ./build)
#
# Generates the benchmark warehouse twice from one seed in the one
# persisted layout (chunk files, tpcr streamed straight to them) — once
# at the default --chunk-rows, served with --buffer-bytes 0 (unlimited),
# once at --chunk-rows 512, served with a budget small enough that every
# partition must be paged — then runs a query mix against a real 4-site
# cluster over each and diffs the reply tables.
set -euo pipefail

BUILD_DIR="${1:-build}"
SITES=4
BUDGET=32768
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

"$BUILD_DIR/tools/skalla-dataset" --out "$WORK/resident" --sites "$SITES" \
    --flows 3000 --tpcr-rows 6000
"$BUILD_DIR/tools/skalla-dataset" --out "$WORK/small" --sites "$SITES" \
    --flows 3000 --tpcr-rows 6000 --chunk-rows 512

# Both directories are the version-2 layout...
for dir in "$WORK/resident" "$WORK/small"; do
  head -1 "$dir/MANIFEST" | grep -q '^skalla-warehouse 2 chunked$'
  test -f "$dir/STATS"
  ls "$dir"/tpcr.part*.skc >/dev/null
done
# ...and the budget is genuinely below the partitions it will page.
largest="$(wc -c "$WORK/small"/tpcr.part*.skc | sort -n | tail -2 | head -1 \
    | awk '{print $1}')"
if [ "$largest" -le "$BUDGET" ]; then
  echo "budget $BUDGET does not undercut partition size $largest" >&2
  exit 1
fi

QUERIES=(
  'BASE SELECT DISTINCT Clerk FROM tpcr;
   MD USING tpcr COMPUTE COUNT(*) AS orders, SUM(Quantity) AS q
      WHERE r.Clerk = b.Clerk;
   MD USING tpcr COMPUTE COUNT(*) AS heavy
      WHERE r.Clerk = b.Clerk AND r.Quantity >= b.q / b.orders;'
  'BASE SELECT DISTINCT NationKey FROM tpcr;
   MD USING tpcr COMPUTE COUNT(*) AS c, SUM(ExtendedPrice) AS revenue
      WHERE r.NationKey = b.NationKey;'
  'BASE SELECT DISTINCT SourceAS FROM flow;
   MD USING flow COMPUTE COUNT(*) AS flows, SUM(NumBytes) AS bytes
      WHERE r.SourceAS = b.SourceAS;'
)

# run_cluster NAME DATA_DIR [EXTRA SITE FLAGS...]: spawn sites + coord,
# run every query, leave tables in $WORK/NAME.q<i>.
run_cluster() {
  local name="$1" data="$2"
  shift 2
  local cluster_pids=() endpoints="" port i
  for i in $(seq 0 $((SITES - 1))); do
    "$BUILD_DIR/tools/skalla-site" --data "$data" --site "$i" --port 0 "$@" \
        >"$WORK/$name-site$i.log" 2>&1 &
    cluster_pids+=($!)
    PIDS+=($!)
  done
  for i in $(seq 0 $((SITES - 1))); do
    port="$(wait_port "$WORK/$name-site$i.log" "$name site $i")"
    endpoints="${endpoints:+$endpoints,}127.0.0.1:$port"
  done
  "$BUILD_DIR/tools/skalla-coord" --endpoints "$endpoints" --port 0 \
      --shutdown-sites >"$WORK/$name-coord.log" 2>&1 &
  local coord_pid=$!
  cluster_pids+=($coord_pid)
  PIDS+=($coord_pid)
  local coord="127.0.0.1:$(wait_port "$WORK/$name-coord.log" "$name coord")"

  for i in "${!QUERIES[@]}"; do
    python3 "$HERE/coord_client.py" "$coord" "${QUERIES[$i]}" \
        >"$WORK/$name.q$i.raw"
    head -1 "$WORK/$name.q$i.raw" | grep -q '^OK ' || {
      echo "$name query $i failed:" >&2
      cat "$WORK/$name.q$i.raw" >&2
      exit 1
    }
    # Keep the table only: the stats block legitimately differs.
    sed -e 1d -e '/^round \+sync/,$d' -e '/^total:/,$d' \
        "$WORK/$name.q$i.raw" >"$WORK/$name.q$i"
  done
  python3 "$HERE/coord_client.py" "$coord" .shutdown
  wait "$coord_pid"
  for pid in "${cluster_pids[@]}"; do wait "$pid" 2>/dev/null || true; done
}

run_cluster resident "$WORK/resident" --buffer-bytes 0
run_cluster paged "$WORK/small" --buffer-bytes "$BUDGET"

for i in "${!QUERIES[@]}"; do
  if ! diff "$WORK/resident.q$i" "$WORK/paged.q$i" >/dev/null; then
    echo "query $i: paged cluster disagrees with resident cluster:" >&2
    diff "$WORK/resident.q$i" "$WORK/paged.q$i" >&2 || true
    exit 1
  fi
  test -s "$WORK/resident.q$i"  # non-empty answer, not trivially equal
done

echo "storage_smoke: OK"
