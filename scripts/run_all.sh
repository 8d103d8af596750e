#!/bin/bash
# Regenerates every table/figure/extension result into results/.
# Honours SNIA_FULL / SNIA_SCALE / SNIA_SEED (see snia_core::config).
# Exits non-zero, listing the failed experiments, if any binary fails.
set -u
cd "$(dirname "$0")/.."
mkdir -p results/logs
failed=()
for exp in fig3 fig4 fig5 table1 fig8 fig9 fig10 table2 ablate bogus fig11 fig12 photometry throughput followup; do
  echo "=== $exp start $(date +%H:%M:%S) ==="
  cargo run --release -p snia-bench --bin "$exp" > "results/logs/$exp.log" 2>&1
  status=$?
  echo "=== $exp done  $(date +%H:%M:%S) exit=$status ==="
  [ "$status" -eq 0 ] || failed+=("$exp")
done
if [ "${#failed[@]}" -gt 0 ]; then
  echo "SUITE_FAILED: ${failed[*]} (see results/logs/)" >&2
  exit 1
fi
echo SUITE_COMPLETE
