#!/bin/sh
# Full verification gate: formatting, static checks, build, the
# complete test suite under the race detector (the concurrency tests in
# concurrency_test.go are only meaningful with -race), and vet + tests of
# the benchmark module in nlbench/.
#
# CI (.github/workflows/ci.yml) invokes this same script, so the local and
# CI gates cannot drift. Strictly POSIX sh: no bashisms, and the repo root
# is resolved without relying on the caller's working directory or an
# inherited CDPATH (which would make `cd` print the target or resolve it
# against unrelated directories).
set -eu

dir=$(CDPATH='' cd -- "$(dirname -- "$0")" && pwd)
cd -- "$dir"

echo '>> gofmt'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    printf 'gofmt: the following files need formatting:\n%s\n' "$unformatted" >&2
    exit 1
fi

echo '>> go vet ./...'
go vet ./...

echo '>> go build ./...'
go build ./...

echo '>> go test -race ./...'
go test -race ./...

# nlbench/ is its own module (it imports this one through a replace
# directive), so ./... above never builds it; vet and test it here so an
# API change it depends on fails this gate, not the benchmark run.
echo '>> nlbench: go vet ./... && go test ./...'
(cd nlbench && go vet ./... && go test ./...)

echo '>> verify.sh: all checks passed'
