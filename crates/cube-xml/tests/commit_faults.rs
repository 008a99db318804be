//! Failing each step of the durable commit through the fault seam.
//!
//! `commit_file` offers an empty buffer to `cube_xml::faults` before
//! each of its steps. This binary installs a hook that records the
//! steps it sees and fails the one a test names, then checks what a
//! failure at that step leaves on disk: an error, the target's old
//! bytes (its new bytes once the rename has happened), and no temp
//! file. A power loss cannot be simulated here, so the order of the
//! steps — file fsync before the rename, directory fsync after it — is
//! checked instead.
//!
//! The hook's state is per thread: tests in this binary run in
//! parallel, and a commit runs on its caller's thread.

use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::sync::Once;

use cube_model::builder::single_threaded_system;
use cube_model::{Experiment, ExperimentBuilder, RegionKind, Unit};
use cube_xml::{commit_file, write_experiment_file, write_experiment_to};

const STEPS: [&str; 4] = [
    "commit.write",
    "commit.sync",
    "commit.rename",
    "commit.dirsync",
];

thread_local! {
    /// The step this thread's next commits fail at.
    static FAIL_AT: Cell<Option<&'static str>> = const { Cell::new(None) };
    /// The commit steps this thread has passed through the seam.
    static VISITS: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn install_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        assert!(cube_xml::faults::install(Box::new(|site, buf| {
            if !site.starts_with("commit.") {
                return None;
            }
            assert!(buf.is_empty(), "{site} offered bytes");
            VISITS.with(|v| v.borrow_mut().push(site.to_string()));
            (FAIL_AT.get() == Some(site))
                .then(|| std::io::Error::other(format!("injected fault at {site}")))
        })));
    });
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cube_commit_faults_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample() -> Experiment {
    let mut b = ExperimentBuilder::new("commit sample");
    let t = b.def_metric("time", Unit::Seconds, "", None);
    let m = b.def_module("a.c", "/a.c");
    let r = b.def_region("main", m, RegionKind::Function, 1, 1);
    let cs = b.def_call_site("a.c", 1, r);
    let root = b.def_call_node(cs, None);
    let ts = single_threaded_system(&mut b, 3);
    for (i, &th) in ts.iter().enumerate() {
        b.set_severity(t, root, th, 1.5 + i as f64);
    }
    b.build().unwrap()
}

/// The names in `dir`, sorted.
fn names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn a_failed_step_leaves_a_whole_target_and_no_temp() {
    install_hook();
    let exp = sample();
    let new_bytes = write_experiment_to(&exp, Vec::new()).unwrap();
    for step in STEPS {
        let dir = workdir(step);
        let path = dir.join("target.cube");
        // Once through commit_file itself, once through the streaming
        // `.cube` writer on top of it.
        let writers: [(&str, &dyn Fn() -> String); 2] = [
            ("commit_file", &|| {
                commit_file(&path, |out| out.write_all(&new_bytes))
                    .unwrap_err()
                    .to_string()
            }),
            ("write_experiment_file", &|| {
                write_experiment_file(&exp, &path).unwrap_err().to_string()
            }),
        ];
        for (writer, write) in writers {
            std::fs::write(&path, b"precious bytes").unwrap();
            FAIL_AT.set(Some(step));
            let err = write();
            FAIL_AT.set(None);
            assert!(
                err.contains(&format!("injected fault at {step}")),
                "{writer} at {step}: {err}"
            );
            let on_disk = std::fs::read(&path).unwrap();
            if step == "commit.dirsync" {
                assert_eq!(
                    on_disk, new_bytes,
                    "{writer} at {step}: the rename had happened"
                );
            } else {
                assert_eq!(
                    on_disk, b"precious bytes",
                    "{writer} at {step}: target changed"
                );
            }
            assert_eq!(
                names(&dir),
                ["target.cube"],
                "{writer} at {step}: temp left behind"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_commit_syncs_the_file_then_renames_then_syncs_the_directory() {
    install_hook();
    let dir = workdir("order");
    let path = dir.join("ordered.cube");
    VISITS.with(|v| v.borrow_mut().clear());
    write_experiment_file(&sample(), &path).unwrap();
    assert_eq!(VISITS.with(|v| v.borrow().clone()), STEPS);
    assert_eq!(names(&dir), ["ordered.cube"]);
    std::fs::remove_dir_all(&dir).ok();
}
