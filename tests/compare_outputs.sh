#!/usr/bin/env bash
# Run one CLI pipeline with each of two source trees and require every
# output except the manifests (which hold paths and times) to be equal
# byte for byte: phantoms of seeds 3 and 5, clean and with boundary noise,
# fuse, refine with and without --slice-adjust, evaluate to JSON and CSV,
# and roundtrip with --out (its report and its printed means).
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
    for seed in 3 5; do
      hoa phantom "s$seed.nii.gz" --seed "$seed"
      hoa phantom "s$seed-noisy.nii.gz" --seed "$seed" \
        --degrade boundary-noise --amount 0.05
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
      hoa roundtrip "s$seed.nii.gz" --landmarks "s$seed.landmarks.json" \
        --out "s$seed-roundtrip.json" > "s$seed-roundtrip.txt"
    done
  )
}

pipeline "$base_src" "$work/base"
pipeline "$head_src" "$work/head"

# byte comparison of every output file, and the same file names on both sides
diff -r -q -x '*.manifest.json' "$work/base" "$work/head"
echo "$(find "$work/head" -type f ! -name '*.manifest.json' | wc -l) outputs byte-identical in $work"
