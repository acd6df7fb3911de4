#!/usr/bin/env bash
# Builds the ledger benchmark from the checkout it runs in and runs it with
# the given arguments, e.g.
#
#   bash ledgerbench/run.sh --workload fagin-he-inproc --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# cache, temporary files, the binary) stays under .bench_build/ there.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [[ ! -f "$here/../go.mod" ]]; then
	echo "ledgerbench: no vfps module at $here/.. to build against" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off
(cd "$here" && go build -o "$out/ledgerbench" .)
exec "$out/ledgerbench" "$@"
