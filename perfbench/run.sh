#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of the repository:
#
#   bash perfbench/run.sh --workload classify --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the temporary data
# directories. Without the repository's sources beside perfbench/ the build
# fails and so does this script.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS= XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/darnet-perfbench" .)
exec "$out/darnet-perfbench" "$@"
