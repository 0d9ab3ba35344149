# Standard entry points. `make check` is the pre-merge gate (build + vet +
# race-enabled tests); `make bench-gate` runs the gating benchmark, the one
# set of performance numbers this tree keeps (bench/README.md).

.PHONY: check test bench bench-gate bench-gate-quick staticcheck

check:
	./scripts/check.sh

# Static analysis beyond go vet, pinned by version so every machine runs the
# same checker. Offline-safe: uses a PATH binary or the warm module cache
# (GOPROXY=off) and skips loudly otherwise — it never fetches.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif GOPROXY=off go run $(STATICCHECK) -version >/dev/null 2>&1; then \
		GOPROXY=off go run $(STATICCHECK) ./...; \
	else \
		echo "staticcheck unavailable offline; skipping (go install $(STATICCHECK))"; \
	fi

test:
	go test ./...

bench:
	go test ./... -run '^$$' -bench . -benchtime 0.5s

# The gating benchmark (bench/README.md): seven np=2 workloads scored against
# in-run yardsticks; what a performance PR is judged by. -quick is the smoke
# run `go test ./bench` also does.
bench-gate:
	go run ./bench

bench-gate-quick:
	go run ./bench -quick
