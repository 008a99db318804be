//! Deterministic fuzzing of the strict-read/lint path.
//!
//! The linter is the component that gets pointed at *untrusted* files,
//! so it must never panic: every malformed input has to come back as a
//! `Report` (or a clean parse, if the mutation happened to be benign).
//! A seeded LCG drives byte mutations, splices, and truncations of a
//! valid document — reproducible without any external fuzzing engine.
//! Every test runs over two seeds: the document as the writer emits it,
//! and the same document with `<severity>` moved ahead of the metadata,
//! which the reader must defer until the metadata closes.

use cube_model::{ExperimentBuilder, RegionKind, Unit};
use cube_xml::{lint_str, read_experiment_salvage, write_experiment};

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

fn seed_document() -> String {
    let mut b = ExperimentBuilder::new("fuzz seed");
    let time = b.def_metric("time", Unit::Seconds, "", None);
    let mpi = b.def_metric("mpi", Unit::Seconds, "", Some(time));
    let visits = b.def_metric("visits", Unit::Occurrences, "", None);
    let m = b.def_module("main.c", "/src/main.c");
    let r_main = b.def_region("main", m, RegionKind::Function, 1, 40);
    let r_solve = b.def_region("solve", m, RegionKind::Loop, 10, 30);
    let cs_main = b.def_call_site("main.c", 1, r_main);
    let cs_solve = b.def_call_site("main.c", 12, r_solve);
    let root = b.def_call_node(cs_main, None);
    let inner = b.def_call_node(cs_solve, Some(root));
    let ts = cube_model::builder::single_threaded_system(&mut b, 2);
    for (i, &t) in ts.iter().enumerate() {
        b.set_severity(time, root, t, 1.5 + i as f64);
        b.set_severity(mpi, inner, t, 0.25 * i as f64);
        b.set_severity(visits, inner, t, 3.0);
    }
    write_experiment(&b.build().unwrap())
}

/// The seed in both section orders: as written, then with its
/// `<severity>` section moved to the front of `<cube>`.
fn seeds() -> [String; 2] {
    let doc = seed_document();
    let start = doc.find("  <severity>").unwrap();
    let end = doc.find("</severity>\n").unwrap() + "</severity>\n".len();
    let open = doc.find("<cube version=\"1.0\">\n").unwrap() + "<cube version=\"1.0\">\n".len();
    let moved = format!(
        "{}{}{}{}",
        &doc[..open],
        &doc[start..end],
        &doc[open..start],
        &doc[end..]
    );
    [doc, moved]
}

/// Fragments spliced into the document: tag soup, stray closers,
/// attribute fragments, huge ids, control bytes.
const SPLICES: &[&str] = &[
    "<metric id=\"99\">",
    "</severity>",
    "id=\"18446744073709551616\"",
    "<row cnode=\"7\">NaN inf -inf 1e400</row>",
    "<!-- -->",
    "<cart dims=\"0\">",
    "&#x0;&bogus;",
    "<<<>>>",
    "\u{0}\u{1}\u{fffd}",
    "proc=\"-1\"",
];

#[test]
fn mutated_documents_never_panic_the_linter() {
    for seed_doc in seeds() {
        mutate_and_lint(&seed_doc);
    }
}

fn mutate_and_lint(seed_doc: &str) {
    let bytes = seed_doc.as_bytes();
    let mut rng = Lcg(0x5eed_cafe);
    for _ in 0..400 {
        let mut cur = bytes.to_vec();
        for _ in 0..=rng.below(3) {
            match rng.below(4) {
                // Flip one byte to a printable character.
                0 => {
                    if !cur.is_empty() {
                        let i = rng.below(cur.len());
                        cur[i] = b' ' + (rng.below(94) as u8);
                    }
                }
                // Truncate.
                1 => cur.truncate(rng.below(cur.len())),
                // Splice a fragment at a random point.
                2 => {
                    let i = rng.below(cur.len());
                    let frag = SPLICES[rng.below(SPLICES.len())];
                    cur.splice(i..i, frag.bytes());
                }
                // Delete a random span.
                _ => {
                    let i = rng.below(cur.len());
                    let j = (i + 1 + rng.below(24)).min(cur.len());
                    cur.drain(i..j);
                }
            }
        }
        let input = String::from_utf8_lossy(&cur).into_owned();
        // Must return a report, never panic; a dirty report implies a
        // non-empty diagnostic list with well-formed display output.
        let report = lint_str(&input);
        if !report.is_clean() {
            assert!(!report.diagnostics().is_empty());
            let _ = report.to_string();
        }
    }
}

#[test]
fn truncation_at_every_char_boundary_never_panics() {
    for doc in seeds() {
        for (i, _) in doc.char_indices() {
            let report = lint_str(&doc[..i]);
            // An empty prefix is "no document"; everything else must lint.
            let _ = report.is_clean();
        }
    }
}

/// The salvage reader's contract over the whole truncation space: it
/// never panics, and whenever it does recover an experiment, that
/// prefix experiment is lint-clean — salvage must not manufacture
/// inconsistent metadata or severity.
#[test]
fn salvage_at_every_truncation_point_never_panics_and_recovers_clean_prefixes() {
    for doc in seeds() {
        salvage_every_truncation(&doc);
    }
}

fn salvage_every_truncation(doc: &str) {
    // The metadata closes with </system>, whatever the section order.
    let metadata_end = doc.find("</system>").unwrap() + "</system>".len();
    let mut recovered = 0usize;
    for (i, _) in doc.char_indices() {
        // Before the metadata completes, salvage is fatal; after it,
        // every cut recovers a prefix. Only the Ok cases carry further
        // obligations.
        let salvaged = read_experiment_salvage(&doc[..i]);
        assert_eq!(
            salvaged.is_ok(),
            i >= metadata_end,
            "salvage at byte {i} (metadata closes at {metadata_end})"
        );
        if let Ok((exp, report)) = salvaged {
            recovered += 1;
            exp.validate().unwrap_or_else(|e| {
                panic!("salvage at byte {i} returned an invalid experiment: {e}")
            });
            let relint = exp.lint();
            assert!(
                relint.num_errors() == 0,
                "salvage at byte {i} is not lint-clean: {relint}"
            );
            // A "complete" claim must coincide with the strict reader
            // accepting the same bytes (e.g. a cut that only dropped
            // trailing whitespace).
            if report.complete {
                assert!(
                    cube_xml::read_experiment(&doc[..i]).is_ok(),
                    "byte {i} claimed complete but the strict reader refuses it"
                );
            }
        }
    }
    // The metadata of the seed completes well before the end, so a
    // healthy share of truncation points must be recoverable.
    assert!(recovered > 0, "no truncation point was recoverable");
    // The untruncated document is a complete, lossless recovery.
    let (full, report) = read_experiment_salvage(doc).unwrap();
    assert!(report.complete);
    assert!(full.provenance().is_original());
}

/// Salvage under the byte-mutation fuzzer: arbitrary corruption may be
/// unrecoverable, but it must never panic, and recovered experiments
/// must always validate.
#[test]
fn mutated_documents_never_panic_the_salvage_reader() {
    for seed_doc in seeds() {
        mutate_and_salvage(&seed_doc);
    }
}

fn mutate_and_salvage(seed_doc: &str) {
    let bytes = seed_doc.as_bytes();
    let mut rng = Lcg(0xdead_50f7);
    for _ in 0..400 {
        let mut cur = bytes.to_vec();
        for _ in 0..=rng.below(3) {
            match rng.below(4) {
                0 => {
                    if !cur.is_empty() {
                        let i = rng.below(cur.len());
                        cur[i] = b' ' + (rng.below(94) as u8);
                    }
                }
                1 => cur.truncate(rng.below(cur.len())),
                2 => {
                    let i = rng.below(cur.len());
                    let frag = SPLICES[rng.below(SPLICES.len())];
                    cur.splice(i..i, frag.bytes());
                }
                _ => {
                    let i = rng.below(cur.len());
                    let j = (i + 1 + rng.below(24)).min(cur.len());
                    cur.drain(i..j);
                }
            }
        }
        let input = String::from_utf8_lossy(&cur).into_owned();
        if let Ok((exp, _report)) = read_experiment_salvage(&input) {
            exp.validate().expect("salvaged experiment must validate");
        }
    }
}
