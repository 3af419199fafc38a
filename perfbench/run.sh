#!/usr/bin/env bash
# Builds the load generator and the mmlpd daemon from the checkout's
# sources, then runs one benchmark invocation. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and temporary daemon state lives under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mmlpd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/mmlpd and perfbench/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/cache" "$build/config" "$build/tmp"
export GOCACHE="$build/cache/go-build" GOMODCACHE="$build/cache/mod" GOPATH="$build/cache/gopath"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(
	cd "$root/perfbench"
	go build -o "$build/bin/perfbench" .
	go build -o "$build/bin/mmlpd" maxminlp/cmd/mmlpd
) >&2

exec "$build/bin/perfbench" -mmlpd "$build/bin/mmlpd" -work "$build" "$@"
