#!/usr/bin/env sh
# CI gate, structured as named, individually-timed stages so gate
# regressions are attributable to a subsystem at a glance:
#
#   build   tier-1 release build + the release binaries later stages use
#   test    tier-1 tests, the full workspace suites, miri (if installed)
#   lint    fmt/clippy/doc hygiene, panic-free server sources, the lint
#           and check corpora
#   store   recovery corpus, thread-count determinism, .cubec-vs-XML
#           byte equality, pack/unpack round-trip, the speedup gate
#   serve   /eval byte-equality with the CLI, caches, pre-flight, drain
#   chaos   fault-injected serving, fsck, the serve_chaos harness
#   kernel  fused-kernel unit suite, the release-mode formatter check,
#           and the golden-digest gate over dense and gathered operands
#
# `CI_STAGES="lint kernel" ci/check.sh` runs a subset (comma or space
# separated). Stages are independent: whichever subset is selected,
# shared prerequisites (release binaries, the generated corpus) are
# built on first use. A per-stage timing summary is printed at the end.
#
# The build and test stages are the tier-1 gate from ROADMAP.md,
# verbatim — a red run there must mean a red tier-1. Benches are
# compiled (clippy --all-targets) but never *run* here, so adding
# benches cannot slow this gate; run them explicitly with
# `make bench-batch` / `make bench-fused` / `ci/bench_gate.sh`.
set -eu

cd "$(dirname "$0")/.."

STAGES="$(printf '%s' "${CI_STAGES:-build test lint store serve chaos kernel}" | tr ',' ' ')"

work="$(mktemp -d)"
serve_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null
    rm -rf "$work"
}
trap cleanup EXIT

det="$work/det"

# -- shared prerequisites (built on first use) -------------------------------

## The `cube` CLI and the corpus generator, release profile.
need_bins() {
    if [ ! -f "$work/.bins" ]; then
        cargo build --release -q -p cube-cli
        cargo build --release -q -p cube-bench --bins
        : >"$work/.bins"
    fi
}

## The 153,600-value determinism corpus (6 runs), packed to .cubec as
## well so mixed-format gates can pick either side.
need_corpus() {
    if [ ! -f "$work/.corpus" ]; then
        need_bins
        ./target/release/gen_corpus "$det/corpus" 6 >/dev/null
        for f in "$det"/corpus/*.cube; do
            ./target/release/cube pack "$f" "${f%.cube}.cubec" >/dev/null
        done
        : >"$work/.corpus"
    fi
}

## Scrapes `listening on HOST:PORT` from the server log in $1 into $addr.
serve_addr() {
    addr=""
    tries=0
    while [ -z "$addr" ]; do
        addr="$(sed -n 's/^listening on //p' "$1")"
        tries=$((tries + 1))
        if [ "$tries" -gt 100 ]; then
            echo "cube serve did not report its address:" >&2
            cat "$1" >&2
            exit 1
        fi
        [ -n "$addr" ] || sleep 0.1
    done
}

## Prints the .cube document $1 with its <severity> section moved to the
## front of <cube> and its checksum footer dropped (the move changes the
## bytes the footer covers, not the experiment).
severity_first() {
    awk '
        /^<!-- cube:crc32 / { next }
        /<severity>/ { inside = 1 }
        inside { sev = sev $0 "\n"; if (/<\/severity>/) inside = 0; next }
        { body[n++] = $0 }
        END {
            for (i = 0; i < n; i++) {
                print body[i]
                if (body[i] ~ /^<cube[ >]/) printf "%s", sev
            }
        }' "$1"
}

## Ingests run0.cube run1.cube run2.cubec run3.cubec into the server at
## $addr; leaves the ids in $ids.
ingest_corpus() {
    ids=""
    for f in run0.cube run1.cube run2.cubec run3.cubec; do
        reply="$(curl -sS -H 'Expect:' -X PUT \
            --data-binary @"$det/corpus/$f" "http://$addr/experiments")"
        id="$(printf '%s' "$reply" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')"
        if [ -z "$id" ]; then
            echo "ingest of $f returned no id: $reply" >&2
            exit 1
        fi
        ids="$ids $id"
    done
}

# -- build -------------------------------------------------------------------

stage_build() {
    echo "== tier-1: cargo build --release"
    cargo build --release
    echo "== build: release binaries for the gate stages"
    need_bins
}

# -- test --------------------------------------------------------------------

stage_test() {
    echo "== tier-1: cargo test -q"
    cargo test -q

    echo "== workspace tests"
    # The tier-1 step above already ran the umbrella crate (the root
    # package); exclude it here so its integration suites don't run twice.
    cargo test --workspace --exclude cube-suite -q

    echo "== miri gate: pool facade, server cache, fused kernels (when available)"
    if cargo miri --version >/dev/null 2>&1; then
        make miri
    else
        echo "skipped: the miri component is not installed on this toolchain"
    fi
}

# -- lint --------------------------------------------------------------------

stage_lint() {
    need_bins

    echo "== hygiene: fmt, clippy -D warnings, doc -D warnings"
    make fmt-check clippy doc

    echo "== hygiene: server request paths are panic-free (ci/lint_source.sh)"
    ./ci/lint_source.sh

    echo "== lint gate: valid fixtures pass --deny warnings"
    ./target/release/cube lint --deny warnings tests/fixtures/valid/*.cube

    echo "== lint gate: derived experiments pass --deny warnings (closure)"
    ./target/release/cube diff tests/fixtures/valid/full.cube \
        tests/fixtures/valid/minimal.cube -o "$work/derived.cube"
    ./target/release/cube lint --deny warnings "$work/derived.cube"

    echo "== lint gate: malformed corpus reports its documented codes"
    for cube in tests/fixtures/malformed/*.cube; do
        expect="${cube%.cube}.expect"
        if out="$(./target/release/cube lint --deny warnings "$cube")"; then
            echo "lint accepted malformed file $cube" >&2
            exit 1
        fi
        for code in $(cat "$expect"); do
            case "$out" in
            *"$code"*) ;;
            *)
                echo "lint output for $cube is missing code $code:" >&2
                echo "$out" >&2
                exit 1
                ;;
            esac
        done
    done

    echo "== check gate: warning-free expressions pass --deny warnings"
    # Mixed .cube/.cubec operands from the generated corpus share one
    # shape, so reductions over them are statically clean; the .cubec
    # side exercises the metadata-only open path.
    need_corpus
    ./target/release/cube check "mean(run0,run1,run2)" \
        "$det/corpus/run0.cube" "$det/corpus/run1.cube" "$det/corpus/run2.cubec" \
        --deny warnings >/dev/null
    ./target/release/cube check "diff(mean(run0,run1),mean(run2,run3))" \
        "$det/corpus/run0.cubec" "$det/corpus/run1.cubec" \
        "$det/corpus/run2.cubec" "$det/corpus/run3.cubec" \
        --deny warnings >/dev/null

    echo "== check gate: golden fixtures report their documented codes"
    for expr_file in tests/fixtures/check/a*.expr; do
        # a001-unresolved.expr documents code A001, and so on.
        code="$(basename "$expr_file" | cut -c1-4 | tr 'a' 'A')"
        set +e
        out="$(./target/release/cube check "$(cat "$expr_file")" \
            tests/fixtures/valid/full.cube tests/fixtures/valid/minimal.cube \
            tests/fixtures/check/operands/twin.cube \
            tests/fixtures/check/operands/disjoint.cube \
            --format json)"
        set -e
        case "$out" in
        *"\"$code\""*) ;;
        *)
            echo "cube check output for $expr_file is missing code $code:" >&2
            echo "$out" >&2
            exit 1
            ;;
        esac
    done
}

# -- store -------------------------------------------------------------------

stage_store() {
    need_corpus

    echo "== recovery gate: corrupt corpus salvages to its documented prefixes"
    for cube in tests/fixtures/corrupt/*.cube tests/fixtures/corrupt/*.cubec; do
        expect="${cube%.*}.expect"
        out_file="$work/$(basename "$cube")"
        rm -f "$out_file"
        set +e
        ./target/release/cube repair "$cube" "$out_file"
        status=$?
        set -e
        if [ -f "$expect" ]; then
            # Partial recovery: documented exit code 1 and a byte-exact
            # prefix snapshot.
            if [ "$status" -ne 1 ]; then
                echo "cube repair $cube exited $status, expected 1" >&2
                exit 1
            fi
            if ! cmp -s "$out_file" "$expect"; then
                echo "repaired output for $cube diverges from $expect" >&2
                exit 1
            fi
            # The repaired prefix must be strictly readable and lint-clean.
            ./target/release/cube lint --deny warnings "$out_file" >/dev/null
        else
            # Unrecoverable: documented exit code 2 and no output written.
            if [ "$status" -ne 2 ]; then
                echo "cube repair $cube exited $status, expected 2" >&2
                exit 1
            fi
            if [ -e "$out_file" ]; then
                echo "cube repair $cube wrote output despite failing" >&2
                exit 1
            fi
        fi
    done

    echo "== model gate: every .cubec reader refuses a store that fails the data model"
    # The fixture's CRCs are valid, but region reg1 names module 99.
    # The recovery gate above already requires cube repair to exit 2;
    # cube check's lazy open must not resolve the operand (A001), and
    # lint must name the rule (E004).
    dangling=tests/fixtures/corrupt/dangling_module.cubec
    set +e
    out="$(./target/release/cube check "mean(dangling_module,run0)" \
        "$dangling" "$det/corpus/run0.cubec" --format json)"
    status=$?
    set -e
    case "$status:$out" in
    1:*'"code":"A001"'*) ;;
    *)
        echo "cube check over $dangling exited $status, expected 1 with A001:" >&2
        echo "$out" >&2
        exit 1
        ;;
    esac
    set +e
    out="$(./target/release/cube lint "$dangling")"
    status=$?
    set -e
    case "$status:$out" in
    1:*E004*) ;;
    *)
        echo "cube lint $dangling exited $status, expected 1 with E004:" >&2
        echo "$out" >&2
        exit 1
        ;;
    esac

    echo "== recovery gate: intact files repair with exit 0"
    ./target/release/cube repair tests/fixtures/valid/full.cube "$work/intact.cube"

    echo "== recovery gate: salvage is unchanged under a busy worker pool"
    # The salvage path shares the pool with everything else; repairs must
    # produce the same prefixes whether the pool has 1 worker or 8.
    CUBE_THREADS=8 cargo test -q --test recovery_corpus

    echo "== determinism gate: derived files are thread-count-independent"
    # Evaluate the three pipeline operations over the 153,600-value
    # corpus at 1, 2, and 8 threads, and require byte-identical
    # outputs. This is the end-to-end check behind the facade's
    # "results never depend on the pool size" contract.
    for t in 1 2 8; do
        ./target/release/cube --threads "$t" stats "$det/mean.t$t.cube" \
            "$det"/corpus/*.cube --op mean >/dev/null
        ./target/release/cube --threads "$t" diff \
            "$det/corpus/run0.cube" "$det/corpus/run1.cube" \
            -o "$det/diff.t$t.cube" >/dev/null
        ./target/release/cube --threads "$t" merge \
            "$det/corpus/run0.cube" "$det/corpus/run1.cube" \
            -o "$det/merge.t$t.cube" >/dev/null
        ./target/release/cube --threads "$t" merge \
            "$det/corpus/run0.cube" "$det/corpus/run1.cube" "$det/corpus/run2.cube" \
            -o "$det/merge3.t$t.cube" >/dev/null
    done
    for op in mean diff merge merge3; do
        for t in 2 8; do
            if ! cmp "$det/$op.t1.cube" "$det/$op.t$t.cube"; then
                echo "cube $op output differs between --threads 1 and --threads $t" >&2
                exit 1
            fi
        done
    done

    echo "== store gate: .cubec backend matches the XML path byte-for-byte"
    # Re-run the reductions over the columnar backend at every tracked
    # thread count, and require the outputs to be byte-identical to the
    # XML-path outputs produced above. (cold-open latency is tracked
    # separately: ci/bench_gate.sh holds the store/cold_open/* metrics
    # to the committed baseline.)
    for t in 1 2 8; do
        ./target/release/cube --threads "$t" stats "$det/mean.store.t$t.cube" \
            "$det"/corpus/*.cubec --op mean >/dev/null
        if ! cmp "$det/mean.t1.cube" "$det/mean.store.t$t.cube"; then
            echo "cube stats over .cubec differs from the XML path at --threads $t" >&2
            exit 1
        fi
        ./target/release/cube --threads "$t" diff \
            "$det/corpus/run0.cubec" "$det/corpus/run1.cubec" \
            -o "$det/diff.store.t$t.cube" >/dev/null
        if ! cmp "$det/diff.t1.cube" "$det/diff.store.t$t.cube"; then
            echo "cube diff over .cubec differs from the XML path at --threads $t" >&2
            exit 1
        fi
    done

    echo "== store gate: pack/unpack round-trip is byte-exact"
    ./target/release/cube unpack "$det/corpus/run0.cubec" "$det/run0.back.cube" >/dev/null
    if ! cmp "$det/corpus/run0.cube" "$det/run0.back.cube"; then
        echo "unpack(pack(x)) diverged from x" >&2
        exit 1
    fi

    echo "== speedup gate: stats --op mean, 4 threads vs 1"
    # Wall-clock acceptance check; only meaningful with real cores to
    # spread over, so skip (with a note) on smaller machines.
    if [ "$(nproc)" -ge 4 ]; then
        best_ns() {
            best=""
            for _ in 1 2 3; do
                start=$(date +%s%N)
                ./target/release/cube --threads "$1" stats "$det/speed.cube" \
                    "$det"/corpus/*.cube --op mean >/dev/null
                end=$(date +%s%N)
                ns=$((end - start))
                if [ -z "$best" ] || [ "$ns" -lt "$best" ]; then best=$ns; fi
            done
            echo "$best"
        }
        best_ns 1 >/dev/null # warm the page cache
        t1=$(best_ns 1)
        t4=$(best_ns 4)
        echo "stats --op mean: ${t1} ns at 1 thread, ${t4} ns at 4 threads"
        if ! awk "BEGIN{exit !($t1 >= 2.0 * $t4)}"; then
            echo "speedup gate failed: expected >=2x at 4 threads" >&2
            exit 1
        fi
    else
        echo "skipped: $(nproc) core(s) < 4 (needs real parallelism to measure)"
    fi
}

# -- serve -------------------------------------------------------------------

stage_serve() {
    need_corpus

    echo "== serve gate: /eval bytes match the CLI at every thread count"
    # Boot the analysis server on an ephemeral port over a fresh repository,
    # ingest the determinism corpus through the HTTP API (both formats),
    # and require every /eval response — cache miss and cache hit — to be
    # byte-identical to what `cube stats` writes from the same objects at
    # --threads 1, 2, and 8. Then SIGTERM must drain and exit 0.
    sdir="$work/serve"
    mkdir -p "$sdir"
    ./target/release/cube serve --repo "$sdir/repo" --port 0 --workers 2 \
        >"$sdir/serve.log" 2>&1 &
    serve_pid=$!
    serve_addr "$sdir/serve.log"
    ingest_corpus

    echo "== serve gate: section order does not change what is ingested"
    # run0 re-uploaded with <severity> first is the same experiment: the
    # reply must name run0's id and create nothing.
    severity_first "$det/corpus/run0.cube" >"$sdir/run0.severity-first.cube"
    reply="$(curl -sS -H 'Expect:' -X PUT \
        --data-binary @"$sdir/run0.severity-first.cube" "http://$addr/experiments")"
    run0_id="$(printf '%s' "$ids" | awk '{print $1}')"
    case "$reply" in
    *"\"id\":\"$run0_id\",\"created\":false"*) ;;
    *)
        echo "run0 with <severity> first did not dedup to $run0_id: $reply" >&2
        exit 1
        ;;
    esac

    echo "== serve gate: too-deep uploads are refused in either section order"
    deep=tests/fixtures/malformed/e201_nesting_too_deep.cube
    severity_first "$deep" >"$sdir/deep.severity-first.cube"
    for doc in "$deep" "$sdir/deep.severity-first.cube"; do
        status="$(curl -sS -o "$sdir/deep.json" -w '%{http_code}' -H 'Expect:' \
            -X PUT --data-binary @"$doc" "http://$addr/experiments")"
        if [ "$status" != "413" ] || ! grep -q '"code":"limit"' "$sdir/deep.json"; then
            echo "PUT of $doc answered $status, expected 413 limit:" >&2
            cat "$sdir/deep.json" >&2
            exit 1
        fi
    done
    status="$(curl -sS -o /dev/null -w '%{http_code}' "http://$addr/healthz")"
    if [ "$status" != "200" ]; then
        echo "/healthz answered $status after the too-deep uploads" >&2
        exit 1
    fi

    echo "== serve gate: a store with a forged section-table offset is refused"
    # One upload more than --workers 2: each is answered, none ends a worker.
    forged=tests/fixtures/corrupt/forged_table_offset.cubec
    for _ in 1 2 3; do
        status="$(curl -sS -o "$sdir/forged.json" -w '%{http_code}' -H 'Expect:' \
            -X PUT --data-binary @"$forged" "http://$addr/experiments")"
        if [ "$status" != "400" ] || ! grep -q '"code":"bad_store"' "$sdir/forged.json"; then
            echo "PUT of $forged answered $status, expected 400 bad_store:" >&2
            cat "$sdir/forged.json" >&2
            exit 1
        fi
    done
    status="$(curl -sS -o /dev/null -w '%{http_code}' "http://$addr/healthz")"
    if [ "$status" != "200" ]; then
        echo "/healthz answered $status after the forged-store uploads" >&2
        exit 1
    fi

    # shellcheck disable=SC2086
    set -- $ids
    objects=""
    for id in "$@"; do
        objects="$objects $sdir/repo/objects/$(printf '%s' "$id" | cut -c1-2)/$id.cubec"
    done
    mean_expr="mean($1,$2,$3,$4)"
    diff_expr="diff(mean($1,$2),mean($3,$4))"

    round=0
    for t in 1 2 8; do
        # shellcheck disable=SC2086
        ./target/release/cube --threads "$t" stats "$sdir/cli.mean.t$t.cube" \
            $objects --op mean >/dev/null
        # shellcheck disable=SC2086
        ./target/release/cube --threads "$t" stats "$sdir/cli.diff.t$t.cube" \
            $objects --minus 2 >/dev/null
        for kind in mean diff; do
            case "$kind" in
            mean) expr="$mean_expr" ;;
            *) expr="$diff_expr" ;;
            esac
            curl -sS -H 'Expect:' -X POST --data "$expr" \
                -D "$sdir/hdr.$kind.t$t" -o "$sdir/srv.$kind.t$t.cube" \
                "http://$addr/eval"
            if ! cmp -s "$sdir/cli.$kind.t$t.cube" "$sdir/srv.$kind.t$t.cube"; then
                echo "/eval '$expr' differs from the CLI at --threads $t" >&2
                exit 1
            fi
            if [ "$round" -eq 0 ]; then
                want=miss
            else
                want=hit
            fi
            if ! grep -qi "x-cache: $want" "$sdir/hdr.$kind.t$t"; then
                echo "/eval '$expr' round $round expected X-Cache: $want" >&2
                cat "$sdir/hdr.$kind.t$t" >&2
                exit 1
            fi
        done
        round=$((round + 1))
    done

    echo "== serve gate: /eval merge matches cube merge of the same files"
    ./target/release/cube merge "$det/corpus/run0.cube" "$det/corpus/run2.cubec" \
        -o "$sdir/cli.merge.cube" >/dev/null
    curl -sS -H 'Expect:' -X POST --data "merge($1,$3)" \
        -o "$sdir/srv.merge.cube" "http://$addr/eval"
    if ! cmp -s "$sdir/cli.merge.cube" "$sdir/srv.merge.cube"; then
        echo "/eval 'merge($1,$3)' differs from cube merge of run0.cube run2.cubec" >&2
        exit 1
    fi

    echo "== serve gate: /eval pre-flight rejects invalid expressions"
    # A missing operand id must come back as the checker's stable A001
    # code with a structured diagnostics array — and must not grow the
    # result cache (nothing is evaluated, nothing is inserted).
    cache_entries() {
        curl -sS "http://$addr/stats" \
            | sed -n 's/.*"result_cache":{[^}]*"entries":\([0-9]*\).*/\1/p'
    }
    entries_before="$(cache_entries)"
    status="$(curl -sS -o "$sdir/preflight.json" -w '%{http_code}' -H 'Expect:' \
        -X POST --data 'mean(00000000deadbeef)' "http://$addr/eval")"
    if [ "$status" != "404" ]; then
        echo "/eval with a missing id answered $status, expected 404:" >&2
        cat "$sdir/preflight.json" >&2
        exit 1
    fi
    grep -q '"code":"A001"' "$sdir/preflight.json"
    grep -q '"diagnostics":\[' "$sdir/preflight.json"
    entries_after="$(cache_entries)"
    if [ "$entries_before" != "$entries_after" ]; then
        echo "pre-flight rejection changed the result cache" \
            "($entries_before -> $entries_after entries)" >&2
        exit 1
    fi
    # /check exposes the same analysis: a statically-zero diff reports
    # A008 and the zero() rewrite without evaluating anything.
    curl -sS -H 'Expect:' -X POST --data "diff($1,$1)" \
        "http://$addr/check" >"$sdir/check.json"
    grep -q '"A008"' "$sdir/check.json"
    grep -q '"rewritten":"zero()"' "$sdir/check.json"
    # A merge operand every metric of which an earlier one provides (a
    # duplicate here) contributes no values: A011.
    curl -sS -H 'Expect:' -X POST --data "merge($1,$1)" \
        "http://$addr/check" >"$sdir/check.merge.json"
    grep -q '"A011"' "$sdir/check.merge.json"
    # The fused cost block rides along in /check (and `cube check`).
    curl -sS -H 'Expect:' -X POST --data "$mean_expr" \
        "http://$addr/check" >"$sdir/check.fused.json"
    grep -q '"fused":{"instrs":' "$sdir/check.fused.json"

    kill -TERM "$serve_pid"
    set +e
    wait "$serve_pid"
    serve_status=$?
    set -e
    serve_pid=""
    if [ "$serve_status" -ne 0 ]; then
        echo "cube serve exited $serve_status after SIGTERM:" >&2
        cat "$sdir/serve.log" >&2
        exit 1
    fi
    grep -q "shutdown complete" "$sdir/serve.log"
}

# -- chaos -------------------------------------------------------------------

stage_chaos() {
    need_corpus

    echo "== chaos gate: /eval under a fixed fault schedule stays sound"
    # Boot a fault-free reference server with all caches off (so every
    # request drives real disk reads), record the canonical /eval bytes,
    # then re-boot the same repository under a fixed CUBE_FAULTS seed and
    # require: every status within the fault model (200/206/503/504),
    # every 200 byte-identical to the reference, and a clean SIGTERM
    # drain while faults are still firing. The driver is single-threaded,
    # so the seeded schedule makes this gate exactly reproducible.
    cdir="$work/chaos"
    mkdir -p "$cdir"
    ./target/release/cube serve --repo "$cdir/repo" --port 0 --workers 2 \
        --cache-results 0 --cache-plans 0 --cache-handles 0 \
        >"$cdir/ref.log" 2>&1 &
    serve_pid=$!
    serve_addr "$cdir/ref.log"
    ingest_corpus
    # shellcheck disable=SC2086
    set -- $ids
    chaos_mean="mean($1,$2,$3,$4)"
    chaos_diff="diff(mean($1,$2),mean($3,$4))"
    for kind in mean diff; do
        case "$kind" in
        mean) expr="$chaos_mean" ;;
        *) expr="$chaos_diff" ;;
        esac
        status="$(curl -sS -H 'Expect:' -X POST --data "$expr" \
            -o "$cdir/ref.$kind.cube" -w '%{http_code}' "http://$addr/eval")"
        if [ "$status" != "200" ]; then
            echo "fault-free reference /eval '$expr' answered $status" >&2
            exit 1
        fi
    done
    kill -TERM "$serve_pid"
    wait "$serve_pid"
    serve_pid=""

    CUBE_FAULTS='seed=20260808,read_error=0.15,torn_read=0.08,checksum_flip=0.08,latency=2@0.25' \
        ./target/release/cube serve --repo "$cdir/repo" --port 0 --workers 2 \
        --cache-results 0 --cache-plans 0 --cache-handles 0 \
        --retries 3 --backoff-ms 1 --breaker 4 \
        >"$cdir/chaos.log" 2>&1 &
    serve_pid=$!
    serve_addr "$cdir/chaos.log"
    successes=0
    round=0
    while [ "$round" -lt 6 ]; do
        for kind in mean diff; do
            case "$kind" in
            mean) expr="$chaos_mean" ;;
            *) expr="$chaos_diff" ;;
            esac
            # Odd rounds opt into degraded mode; 200s must still be
            # byte-identical either way.
            if [ $((round % 2)) -eq 1 ]; then
                path="/eval?keep_going=1"
            else
                path="/eval"
            fi
            status="$(curl -sS -H 'Expect:' -X POST --data "$expr" \
                -o "$cdir/got.$kind" -w '%{http_code}' "http://$addr$path")"
            case "$status" in
            200)
                if ! cmp -s "$cdir/ref.$kind.cube" "$cdir/got.$kind"; then
                    echo "faulted 200 for '$expr' diverged from the fault-free run" >&2
                    exit 1
                fi
                successes=$((successes + 1))
                ;;
            206)
                grep -q '"status":"degraded"' "$cdir/got.$kind"
                grep -q '"omitted_operands":\[{' "$cdir/got.$kind"
                # An expired deadline is a 504, never an omitted operand.
                if grep -q '"code":"deadline_exceeded"' "$cdir/got.$kind"; then
                    echo "degraded /eval '$expr' omitted an operand for its deadline:" >&2
                    cat "$cdir/got.$kind" >&2
                    exit 1
                fi
                ;;
            503 | 504)
                grep -q '"code":"' "$cdir/got.$kind"
                ;;
            *)
                echo "status $status outside the fault model for '$expr':" >&2
                cat "$cdir/got.$kind" >&2
                exit 1
                ;;
            esac
        done
        round=$((round + 1))
    done
    if [ "$successes" -eq 0 ]; then
        echo "no /eval ever succeeded under the CI fault seed" >&2
        exit 1
    fi
    curl -sS "http://$addr/healthz" | grep -q '"ok":true'
    curl -sS "http://$addr/stats" | grep -q '"faults":{'
    kill -TERM "$serve_pid"
    set +e
    wait "$serve_pid"
    chaos_status=$?
    set -e
    serve_pid=""
    if [ "$chaos_status" -ne 0 ]; then
        echo "cube serve exited $chaos_status after SIGTERM under faults:" >&2
        cat "$cdir/chaos.log" >&2
        exit 1
    fi
    grep -q "shutdown complete" "$cdir/chaos.log"

    echo "== chaos gate: fsck passes over the served repository"
    # In-memory fault injection never touches the disk: the repository
    # the chaos server just hammered must still verify clean.
    ./target/release/cube fsck "$cdir/repo" >/dev/null

    echo "== chaos gate: serve_chaos harness"
    cargo test -q --test serve_chaos
}

# -- kernel ------------------------------------------------------------------

stage_kernel() {
    need_corpus

    echo "== kernel gate: fused-kernel unit suite (bitwise vs the scalar oracle)"
    cargo test -q -p cube-algebra --test kernel_props

    echo "== kernel gate: the severity formatter prints what {} prints (release)"
    # 10,000,000 random bit patterns, 1,000 random mantissas at each of
    # the 2,047 finite exponents, and 2,000,000 values shaped like mean,
    # scale and stddev results: `push_f64` (fixed-micro, then Ryu) must
    # match std's `{}` byte for byte on every one. The digests below pin
    # only the corpus's values; this pins the formatter.
    cargo test -q --release -p cube-xml --lib -- --ignored --exact \
        fmt64::tests::matches_std_at_release_scale

    echo "== kernel gate: outputs match the golden digests (threads 1/2/8)"
    # ci/kernel_golden.txt holds the SHA-256 of every output below as
    # written by the row-walking evaluator the fused kernel replaced
    # (generated once with that build). The kernel must reproduce those
    # bytes over the 153K-value corpus — dense operands on both
    # backends, and a pruned run that forces the gather load — at every
    # tracked thread count. The outputs name no file paths, so the
    # digests hold in any work directory. (The serve stage byte-compares
    # /eval against the CLI, with X-Cache checks.)
    golden="$(pwd)/ci/kernel_golden.txt"
    kdir="$work/kernel"
    mkdir -p "$kdir"
    ./target/release/cube cut "$det/corpus/run5.cube" --prune r1 \
        -o "$kdir/pruned.cube" >/dev/null
    gathered="$det/corpus/run0.cube $det/corpus/run1.cube $det/corpus/run2.cube"
    gathered="$gathered $det/corpus/run3.cube $det/corpus/run4.cube $kdir/pruned.cube"
    for t in 1 2 8; do
        o="$kdir/t$t"
        mkdir -p "$o"
        c="./target/release/cube --threads $t"
        $c stats "$o/mean.cube" "$det"/corpus/*.cube --op mean >/dev/null
        $c stats "$o/stddev.cube" "$det"/corpus/*.cube --op stddev >/dev/null
        $c stats "$o/minus.cube" "$det"/corpus/*.cube --minus 3 >/dev/null
        $c diff "$det/corpus/run0.cube" "$det/corpus/run1.cube" \
            -o "$o/diff.cube" >/dev/null
        $c merge "$det/corpus/run0.cube" "$det/corpus/run1.cube" \
            -o "$o/merge.cube" >/dev/null
        $c stats "$o/store-minus.cube" "$det"/corpus/*.cubec --minus 3 >/dev/null
        # shellcheck disable=SC2086
        $c stats "$o/gather-stddev.cube" $gathered --op stddev >/dev/null
        # shellcheck disable=SC2086
        $c stats "$o/gather-minus.cube" $gathered --minus 3 >/dev/null
        $c diff "$det/corpus/run0.cube" "$kdir/pruned.cube" \
            -o "$o/gather-diff.cube" >/dev/null
        $c diff "$kdir/pruned.cube" "$det/corpus/run1.cube" \
            -o "$o/gather-diff-minuend.cube" >/dev/null
        # The operator subcommands, whose digests were generated with
        # the build before they shared one loader and one path with
        # `stats`: each reduction over the dense corpus and the gathered
        # set, diff over the store, merge with the pruned run, and a
        # `--keep-going` reduction that skips a nonexistent input (it
        # must leave the baseline group, not shift the groups).
        for op in mean stddev min max sum; do
            $c $op "$det"/corpus/*.cube -o "$o/ops-$op.cube" >/dev/null
            # shellcheck disable=SC2086
            $c $op $gathered -o "$o/gather-ops-$op.cube" >/dev/null
        done
        $c diff "$det/corpus/run0.cubec" "$det/corpus/run1.cubec" \
            -o "$o/store-diff.cube" >/dev/null
        $c merge "$det/corpus/run0.cube" "$kdir/pruned.cube" \
            -o "$o/gather-merge.cube" >/dev/null
        # `scale`, whose digest was generated with the build before it
        # became a plan expression.
        $c scale "$det/corpus/run0.cube" -1.5 -o "$o/scale.cube" >/dev/null
        $c stats "$o/keep-going-minus.cube" "$det"/corpus/*.cube \
            "$kdir/missing.cube" --minus 3 --keep-going >/dev/null
        if ! (cd "$o" && sha256sum --check --quiet "$golden"); then
            echo "kernel outputs at --threads $t differ from ci/kernel_golden.txt" >&2
            exit 1
        fi
    done
}

# -- driver ------------------------------------------------------------------

timing="$work/timing"
: >"$timing"
total=0
for s in $STAGES; do
    case "$s" in
    build | test | lint | store | serve | chaos | kernel) ;;
    *)
        echo "ci/check.sh: unknown stage '$s'" \
            "(expected: build test lint store serve chaos kernel)" >&2
        exit 2
        ;;
    esac
    echo "==== stage: $s"
    stage_start=$(date +%s)
    "stage_$s"
    stage_dur=$(($(date +%s) - stage_start))
    total=$((total + stage_dur))
    printf '%-8s %5ss\n' "$s" "$stage_dur" >>"$timing"
done

echo "== stage timing summary"
cat "$timing"
printf '%-8s %5ss\n' total "$total"
echo "== ci/check.sh: all green ($STAGES)"
