#!/bin/sh
# Parent-parity probe: build a base revision of this repository next to the
# working tree and byte-compare stdout, stderr, exit code and every file
# written, for a fixed list of CLI commands: verify (both engines, and the
# fault build with the symbolic tier, events and trace), run, profile,
# memtrace and session on JACOBI/EP/CG, plus JACOBI fault runs.
#
#   bench/parity.sh [BASE]      # BASE defaults to HEAD; or `make parity`
#
# The base is exported with `git archive` into a temporary directory under
# $TMPDIR (removed on exit) and built there with its own _build.  Each
# command runs once per side, in a fresh empty directory, so relative
# output files (--json FILE, --faults-json FILE, ...) are compared too.
# Exit 0 when every command matches, 1 on any difference.
set -u

base=${1:-HEAD}
dune=${DUNE:-dune}
root=$(git rev-parse --show-toplevel) || exit 2
tmp=$(mktemp -d "${TMPDIR:-/tmp}/openarc-parity.XXXXXX") || exit 2
trap 'rm -rf "$tmp"' EXIT INT TERM

mkdir "$tmp/src"
git -C "$root" archive "$base" | tar -x -C "$tmp/src" || exit 2
echo "parity: building $base"
(cd "$tmp/src" && "$dune" build --root . ./bin/openarc.exe 2>&1) || exit 2
echo "parity: building the working tree"
(cd "$root" && "$dune" build ./bin/openarc.exe 2>&1) || exit 2
old="$tmp/src/_build/default/bin/openarc.exe"
new="$root/_build/default/bin/openarc.exe"

commands() {
  for spec in jacobi:a,b,resid ep:acc1,result cg:x,xnorm,rho; do
    b=${spec%%:*}
    outs=${spec#*:}
    echo "verify bench:$b"
    echo "verify bench:$b --engine tree"
    echo "verify bench:$b --fault-injection --symbolic --events events.jsonl --trace timeline.json"
    for n in 1 2 4; do
      echo "run bench:$b --devices $n"
      echo "run bench:$b --devices $n --instrument"
      echo "profile bench:$b --devices $n --json profile.json"
      echo "memtrace bench:$b --devices $n --json"
      echo "session bench:$b --devices $n --outputs $outs --json session.json"
    done
  done
  for f in device-lost:main_kernel0 launch-fail oom xfer-corrupt; do
    for p in retry full; do
      for n in 1 2; do
        echo "run bench:jacobi --devices $n --device-faults $f --resilience $p --faults-json faults.json"
      done
    done
  done
}

i=0
diffs=0
commands > "$tmp/commands"
while read -r cmd; do
  i=$((i + 1))
  for side in old new; do
    d="$tmp/$side/$i"
    mkdir -p "$d"
    if [ "$side" = old ]; then exe=$old; else exe=$new; fi
    # shellcheck disable=SC2086
    (cd "$d" && "$exe" $cmd < /dev/null > stdout 2> stderr; echo $? > exit)
  done
  if diff -r "$tmp/old/$i" "$tmp/new/$i" > "$tmp/diff" 2>&1; then
    echo "[same] $cmd"
  else
    diffs=$((diffs + 1))
    echo "[DIFF] $cmd"
    head -n 20 "$tmp/diff" | sed 's/^/    /'
  fi
done < "$tmp/commands"

echo "parity: $((i - diffs))/$i commands byte-identical against $base"
[ "$diffs" -eq 0 ]
