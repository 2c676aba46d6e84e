#!/bin/sh
# Byte-for-byte check of the paper's simulated tables against the golden
# copies committed next to this script: Figure 9, the four Figure 10
# panels, the Section 6 miss table and the TLB-reach ablation.  Only the
# wall-clock throughput line and the engine cache/store/multicore counter
# footers are dropped, the same lines the determinism smokes in CI skip.
#
#   bench/golden/check.sh <build>/bench           # compare; exit 1 on a diff
#   bench/golden/check.sh <build>/bench --write   # regenerate the copies
#
# Regenerate only for a change that is meant to move a simulated number,
# and say which numbers moved and why in the commit.
set -eu

GOLDEN=$(cd "$(dirname "$0")" && pwd)
BENCH_DIR=${1:?usage: check.sh <bench-binary-dir> [--write]}
MODE=${2:-check}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

unset GCR_FULL_SIZE
status=0
cd "$BENCH_DIR"
for b in bench_fig9_apps bench_fig10_adi bench_fig10_swim \
         bench_fig10_tomcatv bench_fig10_sp bench_table6_misses \
         bench_ablation_tlb_reach; do
  ./"$b" | grep -vE 'analysis throughput|engine cache|engine store|engine multicore' \
    > "$TMP/$b.txt"
  if [ "$MODE" = "--write" ]; then
    cp "$TMP/$b.txt" "$GOLDEN/$b.txt"
  elif ! cmp "$TMP/$b.txt" "$GOLDEN/$b.txt"; then
    diff "$GOLDEN/$b.txt" "$TMP/$b.txt" || true
    status=1
  fi
done
exit "$status"
