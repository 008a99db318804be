//! Deterministic fuzzing of the expression parser.
//!
//! `parse_expr` fronts the server's `/eval` endpoint, so it reads
//! *untrusted* text: it must never panic, every rejection must carry
//! one of the stable `P00x` codes with an in-bounds offset, and every
//! accepted parse must round-trip through its canonical rendering.
//! The harness mirrors `cube-xml/tests/fuzz_lint.rs`: a seeded LCG
//! mutates, truncates, and splices valid expressions — reproducible
//! without an external fuzzing engine.

use cube_algebra::parse_expr;

/// Minimal linear congruential generator (Numerical Recipes constants);
/// deterministic so every failure is a stable regression test.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Well-formed starting points covering every production.
const SEEDS: &[&str] = &[
    "a",
    "mean(a,b)",
    "diff(mean(a,b),mean(c,d))",
    "scale(sum(run-1,run_2,run.3),0.5)",
    "diff(scale(mean(a,b,c),2.5e-1),min(a,c))",
    "stddev(a,b,c,d,e,f)",
    "diff(diff(a,b),diff(c,d))",
    "max( a , b )",
];

/// Fragments spliced in: operator soup, stray delimiters, deep
/// nesting, non-ASCII, control bytes, numeric edge cases.
const SPLICES: &[&str] = &[
    "mean(",
    "))",
    ",,",
    "scale(",
    "diff(a",
    "1e400",
    "-0.0",
    "NaN",
    "\u{0}\u{1}\u{fffd}",
    "((((((((((((((((",
    "mean()",
    " ",
    "\t\n",
    "ανάλυση",
];

fn check(input: &str) {
    match parse_expr(input) {
        Ok(parsed) => {
            // An accepted parse must round-trip: rendering the
            // canonical form and reparsing yields the same canonical
            // form (the cache-key property the server relies on).
            let canonical = parsed.canonical();
            let again = parse_expr(&canonical)
                .unwrap_or_else(|e| panic!("canonical form must reparse: {canonical:?}: {e}"));
            assert_eq!(
                again.canonical(),
                canonical,
                "canonical rendering must be a fixed point"
            );
            assert!(
                !parsed.operands.is_empty(),
                "a successful parse references at least one operand"
            );
        }
        Err(e) => {
            assert!(
                matches!(
                    e.code.as_str(),
                    "P001" | "P002" | "P003" | "P004" | "P005" | "P006" | "P007" | "P008" | "P009"
                ),
                "unknown error code {:?} for input {input:?}",
                e.code
            );
            assert!(
                e.offset <= input.len(),
                "offset {} out of bounds for input of {} bytes",
                e.offset,
                input.len()
            );
            // The rendered message is the API's error body; it must
            // carry the code and never panic while formatting.
            assert!(e.to_string().starts_with(e.code.as_str()));
        }
    }
}

#[test]
fn mutated_expressions_never_panic_the_parser() {
    let mut rng = Lcg(0xa1_9eb7a);
    for round in 0..2000 {
        let seed = SEEDS[round % SEEDS.len()];
        let mut cur = seed.as_bytes().to_vec();
        for _ in 0..=rng.below(3) {
            match rng.below(4) {
                // Flip one byte to a printable character.
                0 => {
                    if !cur.is_empty() {
                        let i = rng.below(cur.len());
                        cur[i] = b' ' + (rng.below(94) as u8);
                    }
                }
                // Truncate at a random point.
                1 => cur.truncate(rng.below(cur.len() + 1)),
                // Splice a fragment at a random point.
                2 => {
                    let at = rng.below(cur.len() + 1);
                    let frag = SPLICES[rng.below(SPLICES.len())];
                    cur.splice(at..at, frag.bytes());
                }
                // Duplicate a random slice (builds nesting depth).
                _ => {
                    if !cur.is_empty() {
                        let a = rng.below(cur.len());
                        let b = a + rng.below(cur.len() - a);
                        let slice: Vec<u8> = cur[a..b].to_vec();
                        let at = rng.below(cur.len() + 1);
                        cur.splice(at..at, slice);
                    }
                }
            }
        }
        // The parser takes &str; mutations that break UTF-8 are the
        // transport layer's problem (the server rejects them first).
        if let Ok(text) = std::str::from_utf8(&cur) {
            check(text);
        }
    }
}

#[test]
fn pathological_depth_is_rejected_not_overflowed() {
    // Far past MAX_DEPTH: the parser must answer P008, not recurse to
    // a stack overflow.
    let deep = format!("{}a{}", "scale(".repeat(10_000), ",2)".repeat(10_000));
    let e = parse_expr(&deep).unwrap_err();
    assert_eq!(e.code.as_str(), "P008");

    // And exactly at the boundary the parser still works.
    let depth = cube_algebra::parse::MAX_DEPTH;
    let ok = format!("{}a{}", "scale(".repeat(depth - 1), ",2)".repeat(depth - 1));
    assert!(parse_expr(&ok).is_ok(), "depth {} should parse", depth - 1);
}

#[test]
fn every_seed_parses_cleanly() {
    for seed in SEEDS {
        parse_expr(seed).unwrap_or_else(|e| panic!("seed {seed:?} must parse: {e}"));
    }
}
