# Developer / CI entry points. `make verify` is the tier-1 gate from
# ROADMAP.md plus the fast-failing hygiene checks; run it before every
# commit. Individual targets below for quicker loops.

CARGO ?= cargo

.PHONY: verify build test lint fmt fmt-check clippy doc miri tsan bench-xml bench-batch bench-fused bench-json

## The full gate: build, tests, formatting, lints, doc rot.
verify: build test fmt-check clippy doc

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

fmt:
	$(CARGO) fmt

fmt-check:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

## Docs must build warning-free so rustdoc rot fails fast.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps

## Undefined-behavior check of the concurrency-bearing leaf crates:
## the rayon pool facade, the server's cache/lock layer, and the fused
## SIMD kernels (tile executor + register borrow juggling; sizes shrink
## automatically under cfg(miri)). Needs the Miri component
## (`rustup +nightly component add miri`); ci/check.sh invokes this
## only when `cargo miri --version` works and skips cleanly otherwise,
## so a toolchain without Miri stays green.
miri:
	$(CARGO) miri test -p rayon
	$(CARGO) miri test -p cube-serve --lib cache
	$(CARGO) miri test -p cube-algebra --test kernel_props

## Data-race check under ThreadSanitizer. Not wired into CI (needs a
## nightly toolchain with rust-src and real wall-clock time); run
## manually when touching the pool or the server's locking:
##   rustup toolchain install nightly --component rust-src
##   make tsan
tsan:
	RUSTFLAGS="-Z sanitizer=thread" \
	cargo +nightly test -Z build-std \
		--target x86_64-unknown-linux-gnu \
		-p rayon -p cube-serve --lib

## Streaming .cube read/write throughput (see EXPERIMENTS.md).
bench-xml:
	$(CARGO) bench -p cube-bench --bench xml_roundtrip

## Batch-vs-pairwise n-ary reduction scaling (see EXPERIMENTS.md).
bench-batch:
	$(CARGO) bench -p cube-bench --bench batch_reduce

## Fused-vs-per-operator kernel comparison (EXPERIMENTS.md).
bench-fused:
	$(CARGO) bench -p cube-bench --bench fused_kernels

## Measurement session for the CI perf gate: runs the tracked benches
## (batch reduction, XML round-trip, parallel kernels incl. the
## thread-scaling sweep, fused kernels) with the raw BENCH_JSON sink,
## then assembles the BENCH_5.json metrics document at the repo root.
## ci/bench_gate.sh runs this 3 times and compares the per-metric
## median against the committed ci/bench_baseline.json.
bench-json:
	rm -f target/bench_raw.tsv
	BENCH_JSON=$(CURDIR)/target/bench_raw.tsv $(CARGO) bench -p cube-bench \
		--bench batch_reduce --bench xml_roundtrip --bench par_elementwise \
		--bench store_io --bench fused_kernels
	$(CARGO) run -q -p cube-bench --bin bench_gate -- \
		assemble BENCH_5.json target/bench_raw.tsv
