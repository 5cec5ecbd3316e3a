#!/usr/bin/env bash
# Run the artifact CLI on the shipped configs and write every result under OUT.
#
# Usage, from the repository root: scripts/cli_outputs.sh OUT
#
# Each command's results land in their own directory under OUT. Apart from
# each run.log, the tree has the same bytes on every run, so two runs (or a
# run from each of two checkouts) can be compared with diff -r -x run.log.
# Needs the artifact command and python with the package importable.
set -eu

if [ "$#" -ne 1 ]; then
  echo "usage: $0 OUT" >&2
  exit 2
fi
out="$1"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for config in sir_constant lotka_volterra sir_varying; do
  artifact simulate --config "configs/$config.conf" --out "$out/$config"
  artifact estimate --config "configs/$config.conf" \
    --data "$out/$config/trajectory.csv" --out "$out/$config"
done
# the shipped truth file: relative errors in summary.json
artifact estimate --config configs/sir_constant.conf --truth configs/sir_truth.csv \
  --data "$out/sir_constant/trajectory.csv" --out "$out/sir_constant_truth"
artifact sweep --config configs/sir_sweep.conf --out "$out/sir_sweep"
artifact sweep --config configs/s3i3r_sweep.conf --out "$out/s3i3r_sweep"
artifact sweep --config configs/s3i3r_sweep.conf --out "$out/s3i3r_sweep_again"
artifact covid --config configs/covid.conf --data configs/covid_daily.csv \
  --out "$out/covid"
artifact estimate --config configs/sir_varying.conf \
  --data "$out/sir_varying/trajectory.csv" --out "$out/sir_varying_again"
# the windowed fit at widths 14 and 60: one row per day from day
# width - 1 on, plus the header
samples=$(($(wc -l < "$out/sir_varying/trajectory.csv") - 1))
for width in 14 60; do
  sed "s/^estimate.window=.*/estimate.window=$width/" configs/sir_varying.conf \
    > "$work/sir_varying_w$width.conf"
  artifact estimate --config "$work/sir_varying_w$width.conf" \
    --data "$out/sir_varying/trajectory.csv" --out "$out/sir_varying_w$width"
  test "$(wc -l < "$out/sir_varying_w$width/estimates.csv")" -eq "$((samples - width + 2))"
done
artifact covid --config configs/covid.conf --data configs/covid_daily.csv \
  --out "$out/covid_again"
# and the simulator under a schedule
artifact simulate --config configs/sir_varying.conf --out "$out/sir_varying_resim"
artifact reynolds --config configs/reynolds_manufactured.conf \
  --manufactured 0.01 --out "$out/reynolds"
python -c "
import sys
from artifact import advected_diffusion_stack, write_snapshot_stack
stack = advected_diffusion_stack(0.01, 0.3, 0.2, 33, 33, 11, 0.1)
write_snapshot_stack(stack, sys.argv[1])
" "$out/fields"
artifact reynolds --manifest "$out/fields/manifest.txt" \
  --config configs/reynolds_manufactured.conf --out "$out/reynolds_manifest"
artifact reynolds --config configs/reynolds_manufactured.conf \
  --manufactured 0.01 --out "$out/reynolds_again"
artifact reynolds --manifest "$out/fields/manifest.txt" \
  --config configs/reynolds_manufactured.conf --out "$out/reynolds_manifest_again"
# a 191^2 interior is above vorticity.THREAD_MIN_VALUES, so the
# full-field sums and the curl run on worker threads
python -c "
import sys
from artifact import advected_diffusion_stack, write_snapshot_stack
stack = advected_diffusion_stack(0.01, 0.3, 0.2, 193, 193, 21, 0.05)
write_snapshot_stack(stack, sys.argv[1])
" "$out/fields_threaded"
artifact reynolds --manifest "$out/fields_threaded/manifest.txt" \
  --config configs/reynolds_manufactured.conf --out "$out/reynolds_threaded"
