#!/usr/bin/env bash
# Builds the step benchmark from source and runs it. Run it from the
# repository root; every argument passes through to the benchmark:
#
#   bash stepbench/run.sh --workload query-serving --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files and the binary stay under
# .bench_build/ in the current directory. Without the repository's
# sources next to stepbench/ the build fails and the script exits
# nonzero.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd stepbench && go build -o "$out/stepbench" .)
exec "$out/stepbench" "$@"
