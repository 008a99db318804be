//! Golden corpus for the static expression checker (`cube check`).
//!
//! Every `tests/fixtures/check/*.expr` file is analyzed against
//! metadata-only opens of the corpus operands and the full report —
//! diagnostics with their stable `A0xx` codes and byte offsets, the
//! canonical and rewritten forms, the cost estimate — is compared
//! byte-exactly against its `.expect` snapshot. Set
//! `CUBE_REGEN_CHECK=1` to rewrite the snapshots after an intentional
//! analyzer change.
//!
//! A second test drives the *same* fixtures through all three
//! surfaces — the library, `cube check --format json`, and the
//! server's `POST /check` — and requires identical diagnostic
//! signatures (code, level, offset, len) plus identical canonical and
//! rewritten renderings everywhere. Messages may differ (each surface
//! says *why* a name did not resolve in its own terms); identity of
//! code and offset is the cross-surface contract.
//!
//! Operand names bind by file stem: `full` and `minimal` are the
//! shared valid fixtures, `twin` and `disjoint` live under
//! `tests/fixtures/check/operands/`. Fixtures whose name starts with
//! `a005` additionally provide the (unreferenced) `disjoint` operand
//! to witness the dead-operand warning.
//!
//! `A002` (empty reduction) and `A003` (operand index out of range)
//! are unreachable from parsed text — the parser rejects empty lists
//! and interns every name it sees — so they are pinned by unit tests
//! in `cube_algebra::check` instead of corpus fixtures.

// Not every shared helper is used from this suite.
#[allow(dead_code)]
#[path = "serve_util/mod.rs"]
mod serve_util;

use serve_util::{json_field, request};
use std::path::{Path, PathBuf};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn fixture_dir() -> PathBuf {
    repo_root().join("tests/fixtures/check")
}

/// The corpus operand environment: name → operand file.
fn operand_file(name: &str) -> Option<PathBuf> {
    let path = match name {
        "full" => "tests/fixtures/valid/full.cube",
        "minimal" => "tests/fixtures/valid/minimal.cube",
        "twin" => "tests/fixtures/check/operands/twin.cube",
        "disjoint" => "tests/fixtures/check/operands/disjoint.cube",
        _ => return None,
    };
    Some(repo_root().join(path))
}

/// Whether this fixture provides the unreferenced `disjoint` operand
/// on top of what the expression names (the dead-operand convention).
fn provides_spare(fixture: &Path) -> bool {
    fixture
        .file_name()
        .and_then(|f| f.to_str())
        .is_some_and(|f| f.starts_with("a005"))
}

fn fixtures() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(fixture_dir())
        .expect("check fixture directory exists")
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "expr"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .expr fixtures found");
    files
}

/// Runs the library checker over one fixture, resolving operands the
/// same way the CLI does (metadata from the operand files; unknown
/// names carry a note) and returns the full JSON report.
fn library_report(fixture: &Path, expr: &str) -> String {
    let parsed = cube_algebra::parse_expr(expr)
        .unwrap_or_else(|e| panic!("{} does not parse: {e}", fixture.display()));
    let mut experiments: Vec<(String, cube_model::Experiment)> = Vec::new();
    let mut spare = provides_spare(fixture).then(|| "disjoint".to_string());
    if spare
        .as_deref()
        .is_some_and(|s| parsed.operands.iter().any(|n| n == s))
    {
        spare = None;
    }
    for name in parsed.operands.iter().chain(spare.iter()) {
        if let Some(file) = operand_file(name) {
            let exp = cube_xml::read_experiment_file(&file)
                .unwrap_or_else(|e| panic!("operand {} unreadable: {e}", file.display()));
            experiments.push((name.clone(), exp));
        }
    }
    let mut facts: Vec<cube_algebra::OperandFacts<'_>> = Vec::new();
    for name in parsed.operands.iter().chain(spare.iter()) {
        match experiments.iter().find(|(n, _)| n == name) {
            Some((_, exp)) => {
                facts.push(cube_algebra::OperandFacts::known(name, exp.metadata()));
            }
            None => facts.push(cube_algebra::OperandFacts::unknown(
                name,
                "not among the provided operand files",
            )),
        }
    }
    let report = cube_algebra::check(&parsed, &facts);
    report.to_json(expr)
}

/// Extracts the diagnostic signatures — (code, level, offset, len) —
/// from a report's JSON, relying on the fixed key order of
/// `CheckReport::to_json`.
fn signatures(json: &str) -> Vec<(String, String, u64, u64)> {
    let mut out = Vec::new();
    let Some(list_at) = json.find("\"diagnostics\":[") else {
        return out;
    };
    for piece in json[list_at..].split("{\"code\":\"").skip(1) {
        let field = |key: &str| -> String {
            let tag = format!("\"{key}\":");
            let at = piece.find(&tag).map(|i| i + tag.len()).unwrap_or(0);
            piece[at..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect()
        };
        let code: String = piece.chars().take_while(|c| *c != '"').collect();
        let level: String = piece
            .split("\"level\":\"")
            .nth(1)
            .map(|s| s.chars().take_while(|c| *c != '"').collect())
            .unwrap_or_default();
        let offset: u64 = field("offset").parse().unwrap_or(u64::MAX);
        let len: u64 = field("len").parse().unwrap_or(u64::MAX);
        out.push((code, level, offset, len));
    }
    out
}

#[test]
fn check_corpus_matches_snapshots() {
    let regen = std::env::var_os("CUBE_REGEN_CHECK").is_some();
    for fixture in fixtures() {
        let expr = std::fs::read_to_string(&fixture).unwrap();
        let expr = expr.trim();
        let got = format!("{}\n", library_report(&fixture, expr));
        let expect = fixture.with_extension("expect");
        if regen {
            std::fs::write(&expect, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&expect)
            .unwrap_or_else(|e| panic!("missing snapshot {}: {e}", expect.display()));
        assert_eq!(got, want, "{} drifted from its snapshot", fixture.display());
    }
}

#[test]
fn every_parser_reachable_code_is_covered() {
    // A001 and A004..A012 are the analyzer codes reachable from parsed
    // text; each must be witnessed by at least one fixture so a code
    // can never silently vanish or change meaning. The `ok-*` fixtures
    // pin the other side: clean expressions stay clean.
    let mut seen: Vec<String> = Vec::new();
    let mut clean = 0usize;
    for fixture in fixtures() {
        let expr = std::fs::read_to_string(&fixture).unwrap();
        let json = library_report(&fixture, expr.trim());
        let sigs = signatures(&json);
        if fixture
            .file_name()
            .and_then(|f| f.to_str())
            .is_some_and(|f| f.starts_with("ok-"))
        {
            assert!(
                sigs.is_empty(),
                "{} should be clean, got {sigs:?}",
                fixture.display()
            );
            clean += 1;
        }
        seen.extend(sigs.into_iter().map(|(code, ..)| code));
    }
    seen.sort();
    seen.dedup();
    let expected: Vec<String> = std::iter::once(1)
        .chain(4..=12)
        .map(|i| format!("A{i:03}"))
        .collect();
    assert_eq!(seen, expected, "corpus does not cover every A0xx code");
    assert!(clean >= 2, "corpus needs clean expressions, found {clean}");
}

/// The cross-surface contract: for every fixture, `cube check
/// --format json` and `POST /check` report exactly the diagnostics the
/// library reports — same codes, levels, offsets, lengths — and the
/// same canonical/rewritten renderings.
#[test]
fn cli_and_server_agree_with_the_library_on_every_fixture() {
    let dir = std::env::temp_dir().join(format!("cube_check_corpus_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let server = cube_serve::start(
        cube_serve::ServeConfig {
            workers: 1,
            ..cube_serve::ServeConfig::default()
        },
        &dir.join("repo"),
    )
    .expect("server starts");
    let addr = server.local_addr();

    // Ingest the four corpus operands; remember name → content id.
    let mut ids: Vec<(String, String)> = Vec::new();
    for name in ["full", "minimal", "twin", "disjoint"] {
        let bytes = std::fs::read(operand_file(name).unwrap()).unwrap();
        let reply = request(addr, "PUT", "/experiments", &bytes);
        assert!(
            reply.status == 201 || reply.status == 200,
            "{}",
            reply.text()
        );
        let id = json_field(&reply.text(), "id").expect("ingest returns an id");
        ids.push((name.to_string(), id));
    }

    for fixture in fixtures() {
        let expr = std::fs::read_to_string(&fixture).unwrap();
        let expr = expr.trim().to_string();
        let library = library_report(&fixture, &expr);

        // CLI surface: operand files for every name the expression
        // (plus the a005 spare) should resolve.
        let parsed = cube_algebra::parse_expr(&expr).unwrap();
        let mut args = vec!["check".to_string(), expr.clone()];
        let mut names: Vec<String> = parsed.operands.clone();
        if provides_spare(&fixture) && !names.iter().any(|n| n == "disjoint") {
            names.push("disjoint".to_string());
        }
        for name in &names {
            if let Some(file) = operand_file(name) {
                args.push(file.to_string_lossy().into_owned());
            }
        }
        args.push("--format".to_string());
        args.push("json".to_string());
        let cli = cube_cli::run(&args).expect("cube check runs");

        // Server surface: bind the same names to their repository ids.
        let bind: Vec<String> = names
            .iter()
            .filter_map(|n| {
                ids.iter()
                    .find(|(name, _)| name == n)
                    .map(|(name, id)| format!("{name}={id}"))
            })
            .collect();
        let body = format!("{{\"expr\":\"{expr}\",\"bind\":\"{}\"}}", bind.join(","));
        let reply = request(addr, "POST", "/check", body.as_bytes());
        assert_eq!(reply.status, 200, "{}", reply.text());
        let served = reply.text();

        let want = signatures(&library);
        assert_eq!(
            signatures(&cli.stdout),
            want,
            "{}: CLI diagnostics diverge from the library",
            fixture.display()
        );
        assert_eq!(
            signatures(&served),
            want,
            "{}: /check diagnostics diverge from the library",
            fixture.display()
        );
        for key in ["canonical", "rewritten"] {
            let reference = json_field(&library, key);
            assert_eq!(
                json_field(&cli.stdout, key),
                reference,
                "{}: CLI {key} diverges",
                fixture.display()
            );
            assert_eq!(
                json_field(&served, key),
                reference,
                "{}: /check {key} diverges",
                fixture.display()
            );
        }
        // Exit code mirrors lint: errors deny, warnings alone do not.
        let errors = want.iter().any(|(_, level, ..)| level == "error");
        assert_eq!(
            cli.code,
            i32::from(errors),
            "{}: CLI exit code",
            fixture.display()
        );
    }

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// An operand whose store fails the data-model check does not resolve:
/// `cube check` reports `A001`, and the note names the violation.
#[test]
fn an_operand_that_violates_the_model_is_unresolved() {
    let fixtures = repo_root().join("tests/fixtures");
    for format in ["human", "json"] {
        let args: Vec<String> = [
            "check",
            "mean(dangling_module,minimal)",
            &fixtures
                .join("corrupt/dangling_module.cubec")
                .to_string_lossy(),
            &fixtures.join("valid/minimal.cube").to_string_lossy(),
            "--format",
            format,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let out = cube_cli::run(&args).expect("cube check runs");
        assert_eq!(out.code, 1, "{}", out.stdout);
        assert!(out.stdout.contains("A001"), "{}", out.stdout);
        assert!(
            out.stdout
                .contains("region reg1 refers to nonexistent module mod99"),
            "{}",
            out.stdout
        );
    }
}
