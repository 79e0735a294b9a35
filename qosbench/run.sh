#!/usr/bin/env bash
# Builds qosbench and the qosd daemon from the sources of the checkout it
# is run from, then runs one benchmark workload. Run it from the root of
# the repository:
#
#   bash qosbench/run.sh --workload wire-churn --seed 7 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the two binaries and the
# span dumps of traced runs. Building is not part of any measurement.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/qosbench"
mkdir -p "$out/bin" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off

(cd "$root/qosbench" && go build -o "$out/bin/qosbench" .)
go build -o "$out/bin/qosd" ./cmd/qosd

exec "$out/bin/qosbench" -root "$root" -qosd "$out/bin/qosd" -out "$out" "$@"
