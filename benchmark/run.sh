#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source with a
# build cache inside the checkout, then becomes the harness process, so a
# signal sent to this script reaches the code that reaps the saserve child.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
export GOCACHE="$PWD/../.bench_build/gocache" GOFLAGS=-buildvcs=false
mkdir -p out
go build -o out/harness .
exec out/harness "$@"
