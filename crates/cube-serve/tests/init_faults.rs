//! A failed first open of a fresh directory must leave it adoptable.
//!
//! `Repository::open_or_init` commits the `CUBEREPO` marker through
//! `cube_xml::commit_file` before it creates anything else. This binary
//! installs a `cube_xml::faults` hook that fails the marker's
//! `commit.write` step on the first open only, then checks that the
//! failed open left nothing behind: the second open adopts the
//! directory as a fresh, empty repository instead of refusing it as
//! `not_a_repository`.
//!
//! The hook's state is per thread, as in `cube-xml`'s `commit_faults`:
//! a commit runs on its caller's thread.

use std::cell::Cell;
use std::path::PathBuf;

use cube_serve::{Repository, REPO_MARKER};
use cube_xml::ReadLimits;

thread_local! {
    /// Whether this thread's next `commit.write` fails.
    static FAIL_NEXT_WRITE: Cell<bool> = const { Cell::new(false) };
}

fn install_hook() {
    assert!(cube_xml::faults::install(Box::new(|site, _| {
        (site == "commit.write" && FAIL_NEXT_WRITE.replace(false))
            .then(|| std::io::Error::other("injected fault at commit.write"))
    })));
}

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cube_serve_init_faults_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_failed_first_open_leaves_the_directory_adoptable() {
    install_hook();
    let root = fresh_dir();

    FAIL_NEXT_WRITE.set(true);
    let first = Repository::open_or_init(&root, ReadLimits::default(), 0);
    let err = first.err().expect("the first open fails at commit.write");
    assert_eq!(err.status, 500, "{}: {}", err.code, err.message);
    assert!(
        err.message.contains("injected fault at commit.write"),
        "{}",
        err.message
    );
    assert!(!FAIL_NEXT_WRITE.get(), "the marker commit reached the seam");
    assert!(!root.join(REPO_MARKER).exists());

    let repo = match Repository::open_or_init(&root, ReadLimits::default(), 0) {
        Ok(repo) => repo,
        Err(e) => panic!(
            "the second open must adopt the directory: {} {}",
            e.code, e.message
        ),
    };
    assert_eq!(repo.count(), 0);
    assert!(root.join(REPO_MARKER).is_file(), "the marker is in place");
    assert!(root.join("objects/ff").is_dir(), "the shards exist");
    std::fs::remove_dir_all(&root).ok();
}
