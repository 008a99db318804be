//! Two threads of one process writing the same target.
//!
//! Every file writer commits through one same-directory temp file per
//! call. If two calls shared a temp name, the second `create` would
//! truncate the first call's half-written temp, both would stream into
//! one file, and the first rename would leave the other call failing
//! (or, worse, a torn target). Each call must instead succeed on its
//! own, and the target must end up holding one whole experiment.

use std::path::Path;
use std::sync::Barrier;

use cube_model::builder::single_threaded_system;
use cube_model::{Experiment, ExperimentBuilder, RegionKind, Unit};

/// A call tree of `depth` nodes over 64 threads: a few hundred KB of
/// XML, so the two writes of a round overlap.
fn experiment(label: &str, scale: f64) -> Experiment {
    let mut b = ExperimentBuilder::new(label);
    let time = b.def_metric("time", Unit::Seconds, "", None);
    let m = b.def_module("main.c", "/src/main.c");
    let threads = single_threaded_system(&mut b, 64);
    let mut parent = None;
    for i in 0..120u32 {
        let r = b.def_region(format!("f{i}"), m, RegionKind::Function, 1, 2);
        let cs = b.def_call_site("main.c", i + 1, r);
        let c = b.def_call_node(cs, parent);
        parent = Some(c);
        for (ti, &t) in threads.iter().enumerate() {
            b.set_severity(time, c, t, scale * (i as f64 + ti as f64 / 64.0 + 0.1));
        }
    }
    b.build().unwrap()
}

/// Runs `write(a)` and `write(b)` on two threads released together,
/// and returns both results.
fn race<E: Send>(
    a: &Experiment,
    b: &Experiment,
    write: impl Fn(&Experiment) -> Result<(), E> + Sync,
) -> [Result<(), E>; 2] {
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        let run = |exp| {
            let (barrier, write) = (&barrier, &write);
            s.spawn(move || {
                barrier.wait();
                write(exp)
            })
        };
        let (ta, tb) = (run(a), run(b));
        [ta.join().unwrap(), tb.join().unwrap()]
    })
}

fn assert_one_of(round: usize, path: &Path, back: Experiment, a: &Experiment, b: &Experiment) {
    assert!(
        back == *a || back == *b,
        "round {round}: {} holds neither experiment (label {:?})",
        path.display(),
        back.provenance().label()
    );
}

#[test]
fn two_threads_writing_one_target_both_commit_whole_files() {
    let dir = std::env::temp_dir().join(format!("cube_concurrent_writes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (cube, cubec) = (dir.join("shared.cube"), dir.join("shared.cubec"));
    let (a, b) = (experiment("writer a", 1.0), experiment("writer b", 2.0));

    for round in 0..50 {
        for r in race(&a, &b, |e| cube_xml::write_experiment_file(e, &cube)) {
            r.unwrap_or_else(|e| panic!("round {round}: write_experiment_file failed: {e}"));
        }
        let back = cube_xml::read_experiment_file(&cube)
            .unwrap_or_else(|e| panic!("round {round}: {} is unreadable: {e}", cube.display()));
        assert_one_of(round, &cube, back, &a, &b);

        for r in race(&a, &b, |e| cube_store::write_store_file(e, &cubec)) {
            r.unwrap_or_else(|e| panic!("round {round}: write_store_file failed: {e}"));
        }
        let back = cube_store::read_store_file(&cubec)
            .unwrap_or_else(|e| panic!("round {round}: {} is unreadable: {e}", cubec.display()));
        assert_one_of(round, &cubec, back, &a, &b);
    }

    let mut left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    left.sort();
    assert_eq!(
        left,
        ["shared.cube", "shared.cubec"],
        "a temp file was left behind"
    );
    std::fs::remove_dir_all(&dir).ok();
}
