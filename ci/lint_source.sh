#!/usr/bin/env sh
# Source-level lint: the server's request-handling paths, and the one
# durable commit.
#
# cube-serve keeps panics out of its request paths. A handler that
# panics is caught at the connection and answered `500 internal`, so
# it costs one request rather than a worker, but it is still a bug:
# the client's request goes unanswered, and the shared locks are left
# poisoned for cache::lock_recover to clear. Every failure goes through
# ServeError instead. This script keeps that greppable, along with the
# server's lock order, its one socket reader and the one durable
# commit. Rules (stable ids, used in CI output):
#
#   SL001  `.unwrap()` is banned in cube-serve non-test code
#   SL002  `.expect(`  is banned in cube-serve non-test code
#   SL003  `panic!`    is banned in cube-serve non-test code
#   SL004  cache.rs and repo.rs must document the lock-acquisition
#          order (a "LOCK ORDER" comment) next to their mutexes
#   SL005  no line may acquire two locks (every cube-serve mutex is a
#          leaf lock; two `.lock(` on one line would break that)
#   SL006  anywhere in the workspace, `fs::rename(`, `.sync_all()` and
#          `.sync_data()` appear only in crates/cube-xml/src/commit.rs:
#          every durable write goes through `cube_xml::commit_file`
#   SL007  in cube-serve non-test code, only http.rs reads from a socket
#          (`Read::read(`, `.read(&mut`, `.read_exact(`, `.read_to_end(`,
#          `io::copy(`): every socket read goes through its one
#          deadline-armed reader
#   SL008  in cube-xml, cube-store, cube-cli and cube-serve non-test
#          code, `fs::read(`, `fs::read_to_string(` and `read_to_string(`
#          appear only in crates/cube-xml/src/commit.rs: every whole
#          experiment file is read through `cube_xml::read_file`, under
#          the input limit
#   SL009  under crates/*/src, non-test code outside comment lines holds
#          no `"[EWAP][0-9]{3}"` literal except in
#          crates/cube-model/src/lint.rs: every finding code the tools
#          print is declared once, with its level, in `RuleCode`'s table
#   SL010  every error code cube-serve's non-test code passes to a
#          `ServeError` constructor has a row `| `code` | status |` in
#          the error-code table of docs/SERVE.md, with the status the
#          code is constructed with (`bad_request` 400, `not_found` 404,
#          `unavailable` 503, otherwise the literal status)
#
# Everything from the first `#[cfg(test)]` line to the end of a file
# is test code and exempt: tests may unwrap freely. Files under
# `tests/` directories are test code too.
set -eu

cd "$(dirname "$0")/.."

fail=0

# Non-test prefix of a source file (everything before `#[cfg(test)]`),
# with `file:line:` prefixes for findings.
nontest() {
    awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ":" $0}' "$1"
}

for f in crates/cube-serve/src/*.rs; do
    if out="$(nontest "$f" | grep -F '.unwrap()')"; then
        echo "SL001: .unwrap() in server request path:" >&2
        echo "$out" >&2
        fail=1
    fi
    if out="$(nontest "$f" | grep -F '.expect(')"; then
        echo "SL002: .expect( in server request path:" >&2
        echo "$out" >&2
        fail=1
    fi
    if out="$(nontest "$f" | grep -F 'panic!')"; then
        echo "SL003: panic! in server request path:" >&2
        echo "$out" >&2
        fail=1
    fi
    if [ "$f" != crates/cube-serve/src/http.rs ] &&
        out="$(nontest "$f" | grep -E 'Read::read\(|\.read\(&mut|\.read_exact\(|\.read_to_end\(|io::copy\(')"; then
        echo "SL007: socket read outside http.rs:" >&2
        echo "$out" >&2
        fail=1
    fi
    if out="$(nontest "$f" | grep -c '\.lock(' )" && [ "$out" -gt 0 ]; then
        if two="$(nontest "$f" | grep '\.lock(.*\.lock(')"; then
            echo "SL005: two lock acquisitions on one line (leaf-lock rule):" >&2
            echo "$two" >&2
            fail=1
        fi
    fi
done

for f in $(find src crates stubs examples -name '*.rs' -not -path '*/tests/*' | sort); do
    [ "$f" = crates/cube-xml/src/commit.rs ] && continue
    if out="$(nontest "$f" | grep -E 'fs::rename\(|\.sync_(all|data)\(\)')"; then
        echo "SL006: rename or fsync outside cube_xml::commit_file:" >&2
        echo "$out" >&2
        fail=1
    fi
done

for f in $(find crates/cube-xml/src crates/cube-store/src crates/cube-cli/src \
    crates/cube-serve/src -name '*.rs' | sort); do
    [ "$f" = crates/cube-xml/src/commit.rs ] && continue
    if out="$(nontest "$f" | grep -E 'fs::read\(|read_to_string\(')"; then
        echo "SL008: whole-file read outside cube_xml::read_file:" >&2
        echo "$out" >&2
        fail=1
    fi
done

for f in $(find crates/*/src -name '*.rs' | sort); do
    [ "$f" = crates/cube-model/src/lint.rs ] && continue
    if out="$(nontest "$f" | grep -E '"[EWAP][0-9]{3}"' |
        grep -vE '^[^:]+:[0-9]+:[[:space:]]*//')"; then
        echo "SL009: finding-code literal outside RuleCode's table:" >&2
        echo "$out" >&2
        fail=1
    fi
done

# (status, code) of every ServeError construction with a literal code,
# read from the non-test code joined into one line, so that calls split
# over several lines are seen whole.
serve_codes="$(for f in crates/cube-serve/src/*.rs; do
    awk '/#\[cfg\(test\)\]/{exit} {print}' "$f"
done | tr '\n' ' ' | tr -s ' ' |
    grep -oE '(bad_request|not_found|unavailable)\( ?"[a-z_]+"|with_status\( ?[0-9]{3}, ?"[a-z_]+"|\([0-9]{3}, ?"[a-z_]+"\)' |
    sed -E 's/^bad_request\( ?/400 /; s/^not_found\( ?/404 /; s/^unavailable\( ?/503 /;
        s/^with_status\( ?//; s/^\(//; s/\)$//; s/, ?/ /; s/"//g' | sort -u)"
if [ -z "$serve_codes" ]; then
    echo "SL010: found no ServeError codes in cube-serve (pattern rot?)" >&2
    fail=1
fi
missing="$(echo "$serve_codes" | while read -r status code; do
    grep -qF "| \`$code\` | $status |" docs/SERVE.md || echo "  $code ($status)"
done)"
if [ -n "$missing" ]; then
    echo "SL010: error codes without their row in docs/SERVE.md:" >&2
    echo "$missing" >&2
    fail=1
fi

for f in crates/cube-serve/src/cache.rs crates/cube-serve/src/repo.rs; do
    if ! grep -q 'LOCK ORDER' "$f"; then
        echo "SL004: $f does not document the lock-acquisition order" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "ci/lint_source.sh: failed" >&2
    exit 1
fi
echo "ci/lint_source.sh: all clean"
