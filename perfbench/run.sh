#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it from the checkout root with the given arguments:
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and GOPATH live in .bench_build/ at the
# root. The Go environment is pinned so that neither the caller's settings
# nor a git repository around the checkout can change or break the build:
# VCS stamping is off, and the commit is stamped from the checkout's own
# .git only, when it has one.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off GO111MODULE=on GOENV=off \
	CGO_ENABLED=0 GOOS= GOARCH=
commit=unknown
if [ -e "$root/.git" ] && rev="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
	commit="$rev"
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		commit="$commit-dirty"
	fi
fi
(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
