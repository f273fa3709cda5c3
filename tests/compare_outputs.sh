#!/usr/bin/env bash
# Run one CLI pipeline with each of two source trees and require every
# output except the manifests (which hold paths and times) to be equal
# byte for byte: phantoms of seeds 3 and 5, clean, with boundary noise and
# eroded by 1 and 2 steps, fuse, refine with and without --slice-adjust
# (and the 1-step erosion phantom by default), evaluate to JSON and CSV,
# roundtrip with --out (its report and its printed means), and stats to
# JSON and CSV on paired tables of 8 rows (exact null) and 25 (normal tail).
# Copies of the phantom and of both refine inputs stored with the x axis
# reversed (LAS) are written with each tree's own read_volume and
# write_volume; each LAS input is refined, and that LAS prediction is
# evaluated against the LAS phantom to JSON and CSV.  The seed-3 phantom
# and its boundary-noise fusion are also resampled (nearest neighbour, same
# field of view) to 260x311x260, the size of the benchmark's subjects; that
# input and its LAS copy are refined with and without --slice-adjust and
# evaluated against the resampled phantom to JSON and CSV.
#
# usage: tests/compare_outputs.sh BASE_SRC HEAD_SRC [WORKDIR]
#   BASE_SRC, HEAD_SRC  the src directories of the two trees
#   WORKDIR             where the outputs go (default: a new temporary one)
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 BASE_SRC HEAD_SRC [WORKDIR]" >&2
  exit 2
fi
base_src=$(cd "$1" && pwd)
head_src=$(cd "$2" && pwd)
work=${3:-$(mktemp -d)}

pipeline() {  # pipeline SRC OUTDIR
  local src=$1 out=$2
  mkdir -p "$out"
  (
    cd "$out"
    hoa() { PYTHONPATH="$src" python -m hoarefine.cli "$@"; }
    las() {  # las IN OUT: the same world volume stored with its x axis reversed
      PYTHONPATH="$src" python - "$1" "$2" <<'PY'
import sys
from hoarefine.nifti import Volume, read_volume, write_volume
vol = read_volume(sys.argv[1])
affine = vol.affine.copy()
affine[:3, 3] += affine[:3, 0] * (vol.dims[0] - 1)
affine[:3, 0] = -affine[:3, 0]
write_volume(Volume(vol.data[::-1], affine, taxonomy=vol.taxonomy), sys.argv[2])
PY
    }
    big() {  # big IN OUT: nearest-neighbour resample to 260x311x260, same field of view
      PYTHONPATH="$src" python - "$1" "$2" <<'PY'
import sys
import numpy as np
from hoarefine.nifti import Volume, read_volume, write_volume
vol = read_volume(sys.argv[1])
dims = np.array((260, 311, 260))
sp = np.diag(vol.affine)[:3] * np.array(vol.dims) / dims
affine = np.diag([*sp, 1.0])
affine[:3, 3] = vol.affine[:3, 3] + (sp - np.diag(vol.affine)[:3]) / 2.0
# the source voxel holding each output voxel's centre
src = [(2 * np.arange(d) + 1) * n // (2 * d) for d, n in zip(dims, vol.dims)]
write_volume(Volume(vol.data[np.ix_(*src)], affine, taxonomy=vol.taxonomy), sys.argv[2])
PY
    }
    for seed in 3 5; do
      hoa phantom "s$seed.nii.gz" --seed "$seed"
      hoa phantom "s$seed-noisy.nii.gz" --seed "$seed" \
        --degrade boundary-noise --amount 0.05
      for amount in 1 2; do
        hoa phantom "s$seed-eroded$amount.nii.gz" --seed "$seed" \
          --degrade erosion --amount "$amount"
      done
      hoa refine "s$seed-eroded1.nii.gz" "s$seed-eroded1-refined.nii.gz" \
        --landmarks "s$seed.landmarks.json"
      hoa evaluate "s$seed-eroded1-refined.nii.gz" "s$seed.nii.gz" \
        --landmarks "s$seed.landmarks.json" --out "s$seed-eroded1-refined.json"
      hoa fuse "s$seed.nii.gz" "s$seed-fused.nii.gz"
      for input in "s$seed-fused" "s$seed-noisy"; do
        hoa refine "$input.nii.gz" "$input-refined.nii.gz" \
          --landmarks "s$seed.landmarks.json"
        hoa refine "$input.nii.gz" "$input-adjusted.nii.gz" \
          --landmarks "s$seed.landmarks.json" --slice-adjust
        for pred in "$input-refined" "$input-adjusted"; do
          hoa evaluate "$pred.nii.gz" "s$seed.nii.gz" \
            --landmarks "s$seed.landmarks.json" --out "$pred.json"
          hoa evaluate "$pred.nii.gz" "s$seed.nii.gz" \
            --landmarks "s$seed.landmarks.json" --format csv --out "$pred.csv"
        done
      done
      las "s$seed.nii.gz" "s$seed-las.nii.gz"
      for input in "s$seed-fused" "s$seed-noisy"; do
        las "$input.nii.gz" "$input-las.nii.gz"
        hoa refine "$input-las.nii.gz" "$input-las-refined.nii.gz" \
          --landmarks "s$seed.landmarks.json"
        hoa evaluate "$input-las-refined.nii.gz" "s$seed-las.nii.gz" \
          --landmarks "s$seed.landmarks.json" --out "$input-las-refined.json"
        hoa evaluate "$input-las-refined.nii.gz" "s$seed-las.nii.gz" \
          --landmarks "s$seed.landmarks.json" --format csv --out "$input-las-refined.csv"
      done
      hoa roundtrip "s$seed.nii.gz" --landmarks "s$seed.landmarks.json" \
        --out "s$seed-roundtrip.json" > "s$seed-roundtrip.txt"
      for n in 8 25; do
        for table in a:7 b:5; do
          m=${table#*:}
          {
            printf 'subject,dice,pasd\n'
            for i in $(seq "$n"); do
              printf 's%d,0.%02d,%d.%d\n' "$i" $(( (i * m + seed) % 97 )) \
                $(( i * m % 13 )) $(( (i + seed) % 10 ))
            done
          } > "s$seed-${table%:*}$n.csv"
        done
        hoa stats "s$seed-a$n.csv" "s$seed-b$n.csv" --out "s$seed-stats$n.json"
        hoa stats "s$seed-a$n.csv" "s$seed-b$n.csv" --format csv \
          --out "s$seed-stats$n.csv"
      done
    done
    big s3.nii.gz s3-big.nii.gz
    big s3-noisy.nii.gz s3-noisy-big.nii.gz
    las s3-big.nii.gz s3-big-las.nii.gz
    las s3-noisy-big.nii.gz s3-noisy-big-las.nii.gz
    for stored in "" -las; do
      for flag in "" --slice-adjust; do
        pred="s3-noisy-big$stored-refined${flag:+-adjusted}"
        hoa refine "s3-noisy-big$stored.nii.gz" "$pred.nii.gz" \
          --landmarks s3.landmarks.json $flag
        hoa evaluate "$pred.nii.gz" "s3-big$stored.nii.gz" \
          --landmarks s3.landmarks.json --out "$pred.json"
        hoa evaluate "$pred.nii.gz" "s3-big$stored.nii.gz" \
          --landmarks s3.landmarks.json --format csv --out "$pred.csv"
      done
    done
  )
}

pipeline "$base_src" "$work/base"
pipeline "$head_src" "$work/head"

# byte comparison of every output file, and the same file names on both sides
diff -r -q -x '*.manifest.json' "$work/base" "$work/head"
echo "$(find "$work/head" -type f ! -name '*.manifest.json' | wc -l) outputs byte-identical in $work"
