#!/usr/bin/env bash
# Builds symbench from this checkout and runs it; run from the checkout root:
#
#   bash symbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, node data and span files stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$PWD
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
(cd "$root/symbench" && go build -o "$out/symbench" .)
exec "$out/symbench" -dir "$out" "$@"
