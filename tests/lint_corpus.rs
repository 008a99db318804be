//! Golden corpus for the lint rule engine.
//!
//! Every file under `tests/fixtures/malformed/` triggers a specific
//! rule code; the sibling `.expect` file lists the exact set of codes
//! the linter must report (usually one — fixtures are crafted so no
//! incidental rule fires). `tests/fixtures/valid/` must stay fully
//! clean. Section order is not significant to the reader, so every
//! fixture also lints to the same codes with its `<severity>` section
//! moved to the front of `<cube>`. The same corpus drives the CLI
//! exit-code contract used by `ci/check.sh`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixture_dir(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(kind)
}

fn cube_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "cube"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no fixtures in {}", dir.display());
    files
}

fn reported_codes(path: &Path) -> BTreeSet<String> {
    codes(&cube_xml::lint_file(path))
}

fn codes(report: &cube_model::lint::Report) -> BTreeSet<String> {
    report
        .codes()
        .iter()
        .map(|c| c.as_str().to_string())
        .collect()
}

/// Fixtures with no `<severity>…</severity>` span to move.
const NO_SEVERITY_SPAN: &[&str] = &[
    "e003_mixed_units.cube",
    "e004_dangling_region_module.cube",
    "e005_inverted_region_lines.cube",
    "e006_dangling_csite_callee.cube",
    "e007_dangling_cnode_site.cube",
    "e013_duplicate_rank.cube",
    "e014_duplicate_thread_number.cube",
    "e017_no_threads.cube",
    "e018_bad_topology.cube",
    "e101_xml_syntax.cube",
    "e102_mismatched_tags.cube",
    "e103_missing_attribute.cube",
    "w001_duplicate_sibling_metric.cube",
    "w002_unreferenced_region.cube",
    "w003_empty_module.cube",
    "w006_thread_number_gap.cube",
    "w007_rank_gap.cube",
    "w008_empty_system_branch.cube",
    "w009_empty_topology.cube",
    "w010_unreferenced_call_site.cube",
];

/// The fixture's text with its first `<severity>…</severity>` span
/// moved to the front of `<cube>`, or `None` for a fixture named in
/// [`NO_SEVERITY_SPAN`].
fn severity_first(cube: &Path) -> Option<String> {
    let name = cube.file_name().unwrap().to_string_lossy();
    let text = std::fs::read_to_string(cube).unwrap();
    let span = text.find("<severity>").and_then(|start| {
        let end = text[start..].find("</severity>")? + start + "</severity>".len();
        Some(start..end)
    });
    let Some(span) = span else {
        assert!(
            NO_SEVERITY_SPAN.contains(&name.as_ref()),
            "{name} has no <severity> span to move; name it in NO_SEVERITY_SPAN"
        );
        return None;
    };
    assert!(
        !NO_SEVERITY_SPAN.contains(&name.as_ref()),
        "{name} has a <severity> span"
    );
    let root = text.find("<cube").unwrap();
    let open_end = root + text[root..].find('>').unwrap() + 1;
    Some(format!(
        "{}{}{}{}",
        &text[..open_end],
        &text[span.clone()],
        &text[open_end..span.start],
        &text[span.end..]
    ))
}

fn expected_codes(cube: &Path) -> BTreeSet<String> {
    let expect = cube.with_extension("expect");
    std::fs::read_to_string(&expect)
        .unwrap_or_else(|e| panic!("missing snapshot {}: {e}", expect.display()))
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

#[test]
fn malformed_corpus_reports_exactly_the_documented_codes() {
    for cube in cube_files(&fixture_dir("malformed")) {
        let expected = expected_codes(&cube);
        let reported = reported_codes(&cube);
        assert_eq!(
            reported,
            expected,
            "{}:\n{}",
            cube.display(),
            cube_xml::lint_file(&cube)
        );
        if let Some(moved) = severity_first(&cube) {
            let report = cube_xml::lint_str(&moved);
            assert_eq!(
                codes(&report),
                expected,
                "{} with <severity> first:\n{report}",
                cube.display()
            );
        }
    }
}

#[test]
fn malformed_corpus_covers_every_file_reachable_rule() {
    // The union of the snapshots is the documented file-reachable rule
    // set; growing the rule catalogue without a fixture fails here.
    let covered: BTreeSet<String> = cube_files(&fixture_dir("malformed"))
        .iter()
        .flat_map(|c| expected_codes(c))
        .collect();
    for code in [
        "E003", "E004", "E005", "E006", "E007", "E013", "E014", "E016", "E017", "E018", "E101",
        "E102", "E103", "E104", "E201", "W001", "W002", "W003", "W004", "W005", "W006", "W007",
        "W008", "W009", "W010",
    ] {
        assert!(covered.contains(code), "no fixture triggers {code}");
        assert!(
            cube_model::RuleCode::from_str_opt(code).is_some(),
            "{code} is not a documented rule"
        );
    }
}

#[test]
fn valid_fixtures_are_clean() {
    for cube in cube_files(&fixture_dir("valid")) {
        let report = cube_xml::lint_file(&cube);
        assert!(report.is_clean(), "{}:\n{report}", cube.display());
        let moved = severity_first(&cube).expect("valid fixtures carry severity");
        let report = cube_xml::lint_str(&moved);
        assert!(
            report.is_clean(),
            "{} with <severity> first:\n{report}",
            cube.display()
        );
    }
}

#[test]
fn cli_deny_warnings_exit_codes_match_corpus() {
    for cube in cube_files(&fixture_dir("malformed")) {
        let path = cube.to_string_lossy().into_owned();
        let out = cube_cli::run(&[
            "lint".into(),
            path.clone(),
            "--deny".into(),
            "warnings".into(),
        ])
        .unwrap();
        assert_eq!(out.code, 1, "{path} should be denied:\n{}", out.stdout);
        // Every expected code appears verbatim in the human output.
        for code in expected_codes(&cube) {
            assert!(out.stdout.contains(&code), "{path}: missing {code}");
        }
    }
    for cube in cube_files(&fixture_dir("valid")) {
        let path = cube.to_string_lossy().into_owned();
        let out = cube_cli::run(&[
            "lint".into(),
            path.clone(),
            "--deny".into(),
            "warnings".into(),
        ])
        .unwrap();
        assert_eq!(out.code, 0, "{path} should be clean:\n{}", out.stdout);
    }
}

#[test]
fn cli_json_output_carries_codes() {
    let dir = fixture_dir("malformed");
    let cube = dir.join("e016_nan_severity.cube");
    let out = cube_cli::run(&[
        "lint".into(),
        cube.to_string_lossy().into_owned(),
        "--format".into(),
        "json".into(),
    ])
    .unwrap();
    assert_eq!(out.code, 1);
    assert!(out.stdout.contains("\"code\":\"E016\""), "{}", out.stdout);
    assert!(out.stdout.contains("\"level\":\"error\""), "{}", out.stdout);
    assert!(out.stdout.contains("\"ok\":false"), "{}", out.stdout);
}
