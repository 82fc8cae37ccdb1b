#!/usr/bin/env bash
# Builds the benchmark driver and the impactd daemon from the checkout
# this script sits in, then runs one workload:
#
#   bash impactbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash impactbench/run.sh --compare A B
#
# Build output goes to stderr; the driver's last line of stdout is the
# JSON result.  See impactbench/README.md.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [ ! -f "$root/dune-project" ] || [ ! -d "$root/lib" ] || [ ! -d "$root/bin" ]; then
  echo "run.sh: $root holds no impact sources (dune-project, lib/, bin/)" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
# Build inside the checkout only: no shared cache in the home directory.
export DUNE_CACHE=disabled
if ! (cd "$root" && dune build --root . --display quiet \
  ./impactbench/impact_bench.exe ./bin/impactd.exe) >&2; then
  echo "run.sh: build failed" >&2
  exit 2
fi
exec "$root/_build/default/impactbench/impact_bench.exe" "$@"
