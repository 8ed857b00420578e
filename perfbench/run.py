#!/usr/bin/env python3
"""Build the toolchain benchmark from source and run it.

Run from the root of an openarc source tree:

    python3 perfbench/run.py --workload debug|session-4dev|saturate \
        --seed N --seconds S --trace 0|1

The benchmark is an OCaml executable (perfbench/bench.ml) built by dune
inside this tree, with dune's shared cache off so that nothing is written
outside it. The build's output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Exits 2 without a
result when the tree or the OCaml toolchain is missing.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        print("perfbench: run from the root of an openarc source tree "
              "(dune-project, lib/ and perfbench/dune not found)",
              file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "-j", "2", "--display", "quiet",
         "--cache", "disabled", "./perfbench/bench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
