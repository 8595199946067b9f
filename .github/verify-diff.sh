#!/bin/sh
# Compare the outputs of this checkout with those of another checkout of
# gkm, both pinned to one CPU: `diff -u` of the `verify --suite all` and
# `conj-verify` reports and of the small `eval`, `moments`, `poly`, `genfun`
# and `conj-eval` CSVs, and `cmp` of 200 001-row `grid` and `sample` CSVs
# and the sample's sidecar, with the first line that differs.  Prints
# nothing when the bytes agree, and exits 0 either way: a reviewed change to
# the outputs is allowed, and this makes it visible.
#
# Usage (from the root of the checkout): sh .github/verify-diff.sh BASE_DIR
set -u
base=$1
d=$(mktemp -d)
for side in base head; do
  src=src
  if [ $side = base ]; then src="$base/src"; fi
  gkm="taskset -c 0 env PYTHONPATH=$src python -m gkm.cli"
  mkdir "$d/$side"
  $gkm verify --suite all --out "$d/$side/verify.json"
  $gkm conj-verify --out "$d/$side/conj-verify.json"
  $gkm grid --a 0.7,-0.4,0.2 --n-points 200001 --out "$d/$side/grid.csv"
  $gkm sample --a 0.5,-0.3 --n-points 200001 --seed 7 --out "$d/$side/sample.csv"
  $gkm eval --a 0.7,-0.4,0.2 --x=-1,-0.5,0,0.3,0.99,1 --out "$d/$side/eval.csv"
  $gkm moments --a 0.7,-0.4,0.2 --K 12 --out "$d/$side/moments.csv"
  $gkm poly --a 0.7,-0.4,0.2 --m 5 --out "$d/$side/poly.csv"
  $gkm genfun --a 0.7,-0.4,0.2 --K 20 --out "$d/$side/genfun.csv"
  $gkm conj-eval --rho 0.3,-0.5 --y 0.2,0.9 --x=-1,-0.5,0,0.3,0.99,1 --out "$d/$side/conj-eval.csv"
done
cd "$d"
for f in verify.json conj-verify.json eval.csv moments.csv poly.csv genfun.csv conj-eval.csv; do
  diff -u --label "base/$f" --label "head/$f" "base/$f" "head/$f"
done
for f in grid.csv sample.csv sample.csv.json; do
  if ! out=$(cmp "base/$f" "head/$f" 2>&1); then
    echo "$out"
    # cmp names the line of the first differing byte (or of the shorter
    # file's end)
    line=$(echo "$out" | sed -n 's/.*line \([0-9]*\).*/\1/p')
    if [ -n "$line" ]; then
      echo "base/$f:$line: $(sed -n "${line}p" "base/$f")"
      echo "head/$f:$line: $(sed -n "${line}p" "head/$f")"
    fi
  fi
done
cd /
rm -rf "$d"
exit 0
