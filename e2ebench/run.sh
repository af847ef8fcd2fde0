#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it sits
# in, then runs it with the given arguments:
#
#   bash e2ebench/run.sh --workload gen-repair --seed 1 --seconds 40 --trace 0
#
# The binary, the Go build cache and every other build output stay under
# .bench_build/ at the root of the checkout. Without the repository's own
# sources next to this directory the build fails and the script exits
# non-zero before printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export CGO_ENABLED=0

(cd "$here" && go build -trimpath -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
