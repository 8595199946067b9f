#!/bin/sh
# Diff the verify reports of this checkout against those of another checkout
# of gkm, both pinned to one CPU: `verify --suite all` and `conj-verify`.
# Prints `diff -u` of each report, nothing when the bytes agree, and exits 0
# either way: a reviewed change to the reports is allowed, and this makes it
# visible.
#
# Usage (from the root of the checkout): sh .github/verify-diff.sh BASE_DIR
set -u
base=$1
d=$(mktemp -d)
for side in base head; do
  src=src
  if [ $side = base ]; then src="$base/src"; fi
  mkdir "$d/$side"
  taskset -c 0 env PYTHONPATH="$src" python -m gkm.cli verify --suite all --out "$d/$side/verify.json"
  taskset -c 0 env PYTHONPATH="$src" python -m gkm.cli conj-verify --out "$d/$side/conj-verify.json"
done
for f in verify.json conj-verify.json; do
  diff -u --label "base/$f" --label "head/$f" "$d/base/$f" "$d/head/$f"
done
rm -rf "$d"
exit 0
