#!/usr/bin/env bash
# Lint entry point shared by contributors (`make lint`) and CI.
#
# Always checks formatting (gofmt -l cmd internal prints nothing) and
# runs the repo's own analyzer suite (cmd/roar-lint) through
# `go vet -vettool`, which is the supported way to feed vet-style
# analyzers correct type information with build-cache incrementality.
# staticcheck and govulncheck run when the pinned binaries are
# available (CI installs them; offline checkouts skip with a notice).
set -euo pipefail
cd "$(dirname "$0")/.."

# Keep these pins in sync with .github/workflows/ci.yml.
STATICCHECK_VERSION="${STATICCHECK_VERSION:-2025.1.1}"
GOVULNCHECK_VERSION="${GOVULNCHECK_VERSION:-v1.1.4}"

echo "== gofmt =="
unformatted="$(gofmt -l cmd internal)"
if [ -n "$unformatted" ]; then
  echo "gofmt -l cmd internal must print nothing; run gofmt -w on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== roar-lint (invariant suite) =="
mkdir -p bin
go build -o bin/roar-lint ./cmd/roar-lint
go vet -vettool="$(pwd)/bin/roar-lint" ./...

if command -v staticcheck >/dev/null 2>&1; then
  echo "== staticcheck ($(staticcheck -version 2>/dev/null | head -n1)) =="
  staticcheck ./...
else
  echo "== staticcheck not installed; skipping (CI pins ${STATICCHECK_VERSION}) =="
fi

if command -v govulncheck >/dev/null 2>&1; then
  echo "== govulncheck =="
  govulncheck ./...
else
  echo "== govulncheck not installed; skipping (CI pins ${GOVULNCHECK_VERSION}) =="
fi

echo "lint OK"
