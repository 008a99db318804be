//! Every whole-file reader of `.cube` and `.cubec` files reads through
//! `cube_xml::read_file`, under `ReadLimits::max_input_bytes`. A file
//! one byte over the limit must be refused with the input-limit error
//! before its bytes are pulled in, and a source with no end must stop
//! one byte past the limit. The heap is measured by a counting
//! allocator, per thread, so parallel tests cannot disturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs::File;
use std::path::{Path, PathBuf};

use cube_store::StoreError;
use cube_xml::{LimitKind, ReadLimits, XmlError};

struct CountingAlloc;

thread_local! {
    static CURRENT: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // `try_with`: an allocation may come while the thread is torn down.
    let _ = CURRENT.try_with(|current| {
        let now = current.get() + delta;
        current.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counting touches only const-initialized thread-locals, which
// never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// How far this thread's heap grows above its level at the call while
/// `f` runs.
fn peak_growth<R>(f: impl FnOnce() -> R) -> (isize, R) {
    let base = CURRENT.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let result = f();
    (PEAK.with(Cell::get) - base, result)
}

/// A sparse file of `len` bytes: no block of it is written.
fn sparse(path: &Path, len: u64) {
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    File::create(path).unwrap().set_len(len).unwrap();
}

fn workdir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cube_bounded_reads_{tag}_{}", std::process::id()))
}

fn xml_limit(r: Result<impl Sized, XmlError>) -> bool {
    matches!(
        r,
        Err(XmlError::Limit {
            kind: LimitKind::InputBytes,
            ..
        })
    )
}

fn store_limit(r: Result<impl Sized, StoreError>) -> bool {
    matches!(
        r,
        Err(StoreError::Limit {
            kind: LimitKind::InputBytes,
            ..
        })
    )
}

fn first_code(report: &cube_model::Report) -> String {
    report.diagnostics()[0].code.as_str().to_string()
}

#[test]
fn every_file_reader_refuses_a_file_over_the_limit_before_reading_it() {
    let over = ReadLimits::default().max_input_bytes as u64 + 1;
    let dir = workdir("over");
    let cube = dir.join("big.cube");
    let cubec = dir.join("big.cubec");
    let repo = dir.join("repo");
    sparse(&cube, over);
    sparse(&cubec, over);
    std::fs::create_dir_all(&repo).unwrap();
    std::fs::write(repo.join(cube_serve::REPO_MARKER), b"").unwrap();
    sparse(&repo.join("objects/01/0123456789abcdef.cubec"), over);

    // Each reader must answer the input-limit error, its heap growing by
    // less than 1 MiB on the way.
    let bounded = |name: &str, read: &dyn Fn() -> bool| {
        let (growth, limited) = peak_growth(read);
        assert!(limited, "{name} did not answer the input-limit error");
        assert!(growth < 1 << 20, "{name} grew the heap by {growth} bytes");
    };
    bounded("read_experiment_file", &|| {
        xml_limit(cube_xml::read_experiment_file(&cube))
    });
    bounded("read_experiment_salvage_file_as", &|| {
        xml_limit(cube_xml::read_experiment_salvage_file_as(&cube, None))
    });
    bounded("cube_xml::lint_file", &|| {
        first_code(&cube_xml::lint_file(&cube)) == "E200"
    });
    bounded("read_store_file", &|| {
        store_limit(cube_store::read_store_file(&cubec))
    });
    bounded("salvage_store_file_as", &|| {
        let limits = ReadLimits::default();
        store_limit(cube_store::salvage_store_file_as(&cubec, None, &limits))
    });
    bounded("cube_store::lint_file", &|| {
        first_code(&cube_store::lint_file(&cubec)) == "E200"
    });
    bounded("cube fsck", &|| {
        let args = ["fsck", &repo.to_string_lossy(), "--format", "json"];
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let out = cube_cli::run(&args).unwrap();
        out.code == 2
            && out.stdout.contains("\"verdict\":\"corrupt\"")
            && out.stdout.contains("resource limit exceeded")
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn an_endless_source_stops_one_byte_past_the_limit() {
    let limits = ReadLimits {
        max_input_bytes: 64 << 10,
        ..ReadLimits::default()
    };
    let (growth, limited) = peak_growth(|| {
        xml_limit(cube_xml::read_file(
            Path::new("/dev/zero"),
            &limits,
            "xml.file",
        ))
    });
    assert!(limited, "reading /dev/zero did not answer the input limit");
    assert!(
        growth <= (64 << 10) * 2,
        "reading /dev/zero grew the heap by {growth} bytes"
    );
}
