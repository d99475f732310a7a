# Developer entry points. CI calls the same scripts, so `make lint`
# reproduces the Lint job exactly (minus the pinned external tools when
# they are not installed locally).

.PHONY: build test race lint bench benchmark-smoke

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

lint:
	./scripts/lint.sh

bench:
	go test ./internal/bench -run '^$$' -bench . -benchtime 1x

# benchmark/ is its own module, invisible to `go test ./...`; this is the
# only check that a product-API change still compiles against it.
benchmark-smoke:
	go test -C benchmark -short .
