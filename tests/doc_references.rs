//! The docs name what exists, and what exists is named in the docs.
//!
//! - Every [`RuleCode`] appears in backticks in the document that
//!   specifies it: `E`/`W` codes in `docs/FORMAT.md`, `A` codes in
//!   `docs/CHECK.md`, `P` codes in the Expressions section of
//!   `docs/SERVE.md`.
//! - Every relative Markdown link in `README.md`, `DESIGN.md`,
//!   `EXPERIMENTS.md` and `docs/*.md` names a file that exists.
//! - The Knobs table of `docs/README.md` lists every `ServeConfig`
//!   field, the global `--threads` flag and every environment variable
//!   that non-test code reads.

use std::path::{Path, PathBuf};

use cube_model::RuleCode;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo_root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The lines of `doc` from the heading `title` to the next heading of
/// the same or a higher level.
fn section<'a>(doc: &'a str, title: &str) -> &'a str {
    let level = title.chars().take_while(|&c| c == '#').count();
    let start = doc
        .find(&format!("\n{title}\n"))
        .unwrap_or_else(|| panic!("no section '{title}'"))
        + 1;
    let body = &doc[start + title.len()..];
    let end = body
        .match_indices('\n')
        .map(|(i, _)| i + 1)
        .find(|&i| {
            let hashes = body[i..].chars().take_while(|&c| c == '#').count();
            (1..=level).contains(&hashes) && body[i + hashes..].starts_with(' ')
        })
        .unwrap_or(body.len());
    &doc[start..start + title.len() + end]
}

#[test]
fn every_code_is_documented_where_its_kind_is_specified() {
    let format = read("docs/FORMAT.md");
    let check = read("docs/CHECK.md");
    let serve = read("docs/SERVE.md");
    let expressions = section(&serve, "## Expressions");
    let missing: Vec<String> = RuleCode::ALL
        .iter()
        .filter_map(|code| {
            let (doc, name) = match &code.as_str()[..1] {
                "E" | "W" => (format.as_str(), "docs/FORMAT.md"),
                "A" => (check.as_str(), "docs/CHECK.md"),
                _ => (expressions, "docs/SERVE.md §Expressions"),
            };
            (!doc.contains(&format!("`{code}`"))).then(|| format!("{code} in {name}"))
        })
        .collect();
    assert!(missing.is_empty(), "undocumented codes: {missing:?}");
}

/// The targets of the inline Markdown links in `text`.
fn link_targets(text: &str) -> Vec<&str> {
    text.match_indices("](")
        .filter_map(|(i, _)| {
            let rest = &text[i + 2..];
            rest.find(')').map(|end| &rest[..end])
        })
        .collect()
}

#[test]
fn relative_links_name_existing_files() {
    let mut docs: Vec<PathBuf> = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .iter()
        .map(|d| repo_root().join(d))
        .collect();
    let mut specs: Vec<PathBuf> = std::fs::read_dir(repo_root().join("docs"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    specs.sort();
    docs.extend(specs);
    let mut broken = Vec::new();
    for doc in &docs {
        let text = std::fs::read_to_string(doc).unwrap();
        for target in link_targets(&text) {
            let file = target.split('#').next().unwrap_or_default();
            if file.is_empty() || file.contains("://") || file.starts_with("mailto:") {
                continue;
            }
            if !doc.parent().unwrap().join(file).exists() {
                broken.push(format!("{}: {target}", doc.display()));
            }
        }
    }
    assert!(broken.is_empty(), "links to missing files: {broken:?}");
}

/// Every `.rs` file under `dir`, recursively, outside `tests/`
/// directories.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if !path.ends_with("tests") && !path.ends_with("target") {
                sources(&path, out);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The environment variables non-test code reads: `env::var("X")` and
/// `env::var_os("X")` before a file's first `#[cfg(test)]`.
fn env_vars_read() -> Vec<String> {
    let mut files = Vec::new();
    for dir in ["src", "crates", "stubs", "examples"] {
        sources(&repo_root().join(dir), &mut files);
    }
    let mut vars = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let code = text.split("#[cfg(test)]").next().unwrap_or_default();
        for call in ["env::var(\"", "env::var_os(\""] {
            for (i, _) in code.match_indices(call) {
                let name = &code[i + call.len()..];
                vars.push(name[..name.find('"').unwrap_or(0)].to_string());
            }
        }
    }
    vars.sort();
    vars.dedup();
    vars
}

#[test]
fn the_knob_inventory_is_complete() {
    let readme = read("docs/README.md");
    let knobs = section(&readme, "## Knobs");
    // The first cell of each table row names the knob.
    let listed: Vec<&str> = knobs
        .lines()
        .filter_map(|line| line.strip_prefix("| "))
        .filter_map(|row| row.split(" |").next())
        .collect();
    let is_listed = |name: &str| {
        listed
            .iter()
            .any(|cell| cell.contains(&format!("`{name}`")))
    };

    let config = format!("{:#?}", cube_serve::ServeConfig::default());
    let fields: Vec<&str> = config
        .lines()
        .filter_map(|line| line.strip_prefix("    ")?.split_once(": "))
        .map(|(field, _)| field)
        .collect();
    assert!(
        fields.contains(&"workers"),
        "ServeConfig fields: {fields:?}"
    );
    let vars = env_vars_read();
    assert!(vars.contains(&"CUBE_THREADS".to_string()), "{vars:?}");

    let missing: Vec<&str> = fields
        .iter()
        .copied()
        .chain(vars.iter().map(String::as_str))
        .chain(["--threads"])
        .filter(|name| !is_listed(name))
        .collect();
    assert!(
        missing.is_empty(),
        "missing from the Knobs table of docs/README.md: {missing:?}"
    );
}
