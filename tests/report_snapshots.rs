//! Byte-for-byte snapshots of the reports the tools print.
//!
//! Each file under `tests/snapshots/` holds one section per invocation:
//! the command line, its exit code (or HTTP status), then the exact
//! bytes printed. It pins `cube lint`, `cube check` and `cube fsck` in
//! both formats, and the JSON bodies of `GET /experiments/{id}/lint`
//! and of `/eval` rejections. The snapshots are only ever compared,
//! never rewritten by the test: a change to any byte the tools print
//! fails here, and a snapshot is edited by hand only when the output
//! is meant to change.
//!
//! Paths are normalized so the snapshots do not depend on where the
//! checkout or the temporary directory lives: the repository root is
//! elided and the scratch directory of the `fsck` and serve sections
//! reads `TMP`.

use std::path::{Path, PathBuf};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The files with `extension` in `tests/fixtures/{dir}`, sorted.
fn fixtures(dir: &str, extension: &str) -> Vec<PathBuf> {
    let dir = repo_root().join("tests/fixtures").join(dir);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == extension))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no fixtures in {}", dir.display());
    files
}

fn path_arg(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

/// Replaces the repository root (and `tmp`, if given) in `text`.
fn normalize(text: &str, tmp: Option<&Path>) -> String {
    let root = format!("{}/", repo_root().display());
    let text = text.replace(&root, "");
    match tmp {
        Some(tmp) => text.replace(&tmp.display().to_string(), "TMP"),
        None => text,
    }
}

/// Runs `cube ARGS` in process and renders its snapshot section.
fn cube(args: &[String], tmp: Option<&Path>) -> String {
    let out = cube_cli::run(args).unwrap_or_else(|e| panic!("cube {args:?}: {e}"));
    let section = format!(
        "$ cube {}\nexit {}\n{}",
        args.join(" "),
        out.code,
        out.stdout
    );
    normalize(&section, tmp)
}

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// Compares `got` with the committed snapshot `name`, pointing at the
/// first line that differs.
fn assert_snapshot(name: &str, got: &str) {
    let path = repo_root().join("tests/snapshots").join(name);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {}: {e}", path.display()));
    if got == want {
        return;
    }
    let (mut got_lines, mut want_lines) = (got.lines(), want.lines());
    for line in 1.. {
        match (got_lines.next(), want_lines.next()) {
            (Some(g), Some(w)) if g == w => continue,
            (None, None) => break,
            (g, w) => panic!(
                "{} differs at line {line}:\n  snapshot: {w:?}\n  printed:  {g:?}",
                path.display()
            ),
        }
    }
    panic!("{} differs in its line endings", path.display());
}

#[test]
fn lint_reports_match_their_snapshots() {
    let mut files = fixtures("malformed", "cube");
    files.extend(fixtures("valid", "cube"));
    let mut got = String::new();
    for file in &files {
        for extra in [
            &[][..],
            &["--deny", "warnings"],
            &["--format", "json"],
            &["--format", "json", "--deny", "warnings"],
        ] {
            let mut a = vec!["lint".to_string(), path_arg(file)];
            a.extend(extra.iter().map(|s| s.to_string()));
            got.push_str(&cube(&a, None));
        }
    }
    // One run over every file pins the totals line.
    for extra in [&[][..], &["--format", "json"]] {
        let mut a = vec!["lint".to_string()];
        a.extend(files.iter().map(|f| path_arg(f)));
        a.extend(extra.iter().map(|s| s.to_string()));
        got.push_str(&cube(&a, None));
    }
    assert_snapshot("lint.txt", &got);
}

/// The operand files of the check corpus, as `tests/check_corpus.rs`
/// binds them: `full`, `minimal`, `twin` and `disjoint` by file stem,
/// plus the spare `disjoint` for the `a005` fixtures.
fn check_operands(fixture: &Path, expr: &str) -> Vec<String> {
    let mut names = cube_algebra::parse_expr(expr).unwrap().operands;
    let spare = fixture
        .file_name()
        .and_then(|f| f.to_str())
        .is_some_and(|f| f.starts_with("a005"));
    if spare && !names.iter().any(|n| n == "disjoint") {
        names.push("disjoint".to_string());
    }
    names
        .iter()
        .filter_map(|name| match name.as_str() {
            "full" | "minimal" => Some(format!("tests/fixtures/valid/{name}.cube")),
            "twin" | "disjoint" => Some(format!("tests/fixtures/check/operands/{name}.cube")),
            _ => None,
        })
        .map(|rel| path_arg(&repo_root().join(rel)))
        .collect()
}

#[test]
fn check_reports_match_their_snapshots() {
    let mut got = String::new();
    for fixture in fixtures("check", "expr") {
        let expr = std::fs::read_to_string(&fixture).unwrap();
        let expr = expr.trim();
        let mut a = args(&["check", expr]);
        a.extend(check_operands(&fixture, expr));
        got.push_str(&cube(&a, None));
        a.extend(args(&["--deny", "warnings"]));
        got.push_str(&cube(&a, None));
    }
    for fixture in fixtures("expr", "expr") {
        let expr = std::fs::read_to_string(&fixture).unwrap();
        let expr = expr.trim_end_matches('\n');
        got.push_str(&cube(&args(&["check", expr]), None));
        got.push_str(&cube(&args(&["check", expr, "--format", "json"]), None));
    }
    assert_snapshot("check.txt", &got);
}

/// A scratch directory for one test, emptied first.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cube_snapshots_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The canonical `.cubec` bytes of a fixture.
fn store_bytes(fixture: &str) -> Vec<u8> {
    let exp = cube_xml::read_experiment_file(repo_root().join(fixture)).unwrap();
    cube_store::write_store(&exp)
}

#[test]
fn fsck_reports_match_their_snapshots() {
    let tmp = scratch("fsck");
    let root = tmp.join("repo");
    std::fs::create_dir_all(root.join("objects")).unwrap();
    std::fs::write(
        root.join(cube_serve::REPO_MARKER),
        "cube experiment repository v1\n",
    )
    .unwrap();
    let put = |id: &str, bytes: &[u8]| {
        let shard = root.join("objects").join(&id[..2]);
        std::fs::create_dir_all(&shard).unwrap();
        std::fs::write(shard.join(format!("{id}.cubec")), bytes).unwrap();
        shard
    };
    // ok: a valid object under its own content id.
    let ok = store_bytes("tests/fixtures/valid/minimal.cube");
    let shard = put(&cube_serve::content_id(&ok), &ok);
    // temp: an orphaned ingest temp file.
    std::fs::write(shard.join(".tmp-999-1"), b"half an upload").unwrap();
    // misnamed: a valid object under another id.
    put(
        "aaaaaaaaaaaaaaaa",
        &store_bytes("tests/fixtures/valid/full.cube"),
    );
    // corrupt: a flipped byte in the middle of a valid object.
    let mut corrupt = store_bytes("tests/fixtures/check/operands/twin.cube");
    let middle = corrupt.len() / 2;
    corrupt[middle] ^= 0xFF;
    put(&cube_serve::content_id(&corrupt), &corrupt);
    // stray: a file the repository does not know.
    std::fs::write(root.join("objects/notes.txt"), b"hi").unwrap();

    let plain = tmp.join("plain");
    std::fs::create_dir_all(&plain).unwrap();
    let mut got = String::new();
    for dir in [&root, &plain] {
        got.push_str(&cube(&args(&["fsck", &path_arg(dir)]), Some(&tmp)));
        got.push_str(&cube(
            &args(&["fsck", &path_arg(dir), "--format", "json"]),
            Some(&tmp),
        ));
    }
    std::fs::remove_dir_all(&tmp).ok();
    assert_snapshot("fsck.txt", &got);
}

#[test]
fn served_reports_match_their_snapshots() {
    use cube_serve::http::{Deadline, Request};
    let tmp = scratch("serve");
    let server = cube_serve::start(cube_serve::ServeConfig::default(), &tmp.join("repo")).unwrap();
    let shared = server.shared();
    let send = |method: &str, path: &str, body: &[u8]| {
        let req = Request {
            method: method.to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.to_vec(),
        };
        let response = cube_serve::api::handle(shared, &req, &Deadline::none());
        let body = String::from_utf8_lossy(&response.body).into_owned();
        format!("$ {method} {path}\nstatus {}\n{body}\n", response.status)
    };
    let mut got = String::new();
    let mut ids = Vec::new();
    for fixture in [
        "tests/fixtures/valid/full.cube",
        "tests/fixtures/malformed/w003_empty_module.cube",
    ] {
        let bytes = std::fs::read(repo_root().join(fixture)).unwrap();
        let id = shared.repo.ingest(&bytes).unwrap().id;
        got.push_str(&send("GET", &format!("/experiments/{id}/lint"), b""));
        ids.push(id);
    }
    for expr in [
        format!("mean({},0123456789abcdef)", ids[0]),
        format!("diff({},nope)", ids[1]),
        format!("diff({} {})", ids[0], ids[1]),
        "mean()".to_string(),
        "{\"expr\": \"scale(a, nope)\"}".to_string(),
    ] {
        got.push_str(&format!("> {expr}\n"));
        got.push_str(&send("POST", "/eval", expr.as_bytes()));
    }
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&tmp).ok();
    assert_snapshot("serve.txt", &normalize(&got, Some(&tmp)));
}
