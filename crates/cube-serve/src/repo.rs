//! Content-addressed, hash-sharded experiment repository.
//!
//! Every ingested experiment — whether uploaded as `.cube` XML or as a
//! `.cubec` binary container — is re-encoded to its canonical `.cubec`
//! bytes and stored under the FNV-1a 64-bit hash of those bytes:
//!
//! ```text
//! <root>/CUBEREPO               # marker: "this directory is a repository"
//! <root>/objects/<hh>/<16 hex>.cubec
//! ```
//!
//! where `<hh>` is the first two hex digits of the id; all 256 shard
//! directories exist once the repository is opened. Canonicalizing
//! before hashing means the same experiment uploaded in either format
//! (or twice) lands on the same object exactly once, and the id doubles
//! as an integrity check: the bytes on disk hash to their own name.
//!
//! The marker file lets tools that are handed a bare object path —
//! `cube repair` in particular — recognize the repository above it and
//! report the stable repository-relative path (`objects/ab/….cubec`)
//! in recovery provenance instead of whatever absolute or temporary
//! path the file happened to be read from.

use crate::cache::{lock_recover, LruCache};
use crate::error::ServeError;
use crate::faults;
use crate::http::Deadline;
use cube_store::{read_store, write_store, ColumnarExperiment, StoreError};
use cube_xml::footer::check_footer;
use cube_xml::{commit_file, is_temp_name, sync_dir, CubeReader, ReadLimits};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Name of the marker file that identifies a repository root.
pub const REPO_MARKER: &str = "CUBEREPO";

/// FNV-1a 64-bit content id of canonical `.cubec` bytes, rendered as
/// 16 lowercase hex digits.
pub fn content_id(canonical: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in canonical {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Whether `id` has the shape of a content id: 16 lowercase hex digits.
pub fn valid_id(id: &str) -> bool {
    id.len() == 16 && is_lower_hex(id)
}

fn is_lower_hex(s: &str) -> bool {
    s.bytes()
        .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

/// What [`Repository::ingest`] did with an upload.
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// Content id the experiment is stored under.
    pub id: String,
    /// `true` when the object was new, `false` when it already existed.
    pub created: bool,
    /// Provenance label of the ingested experiment.
    pub label: String,
}

/// An on-disk experiment repository plus a shared cache of open
/// [`ColumnarExperiment`] handles.
///
/// The handle cache is the server's third cache (besides derived
/// results and plan tables): opening a `.cubec` lazily decodes only
/// metadata, but even that is worth sharing across the requests that
/// hit the same operands. Handles are `Arc`-shared; severity pages
/// load on first touch and are then reused by every holder.
pub struct Repository {
    root: PathBuf,
    limits: ReadLimits,
    handles: Mutex<LruCache<String, Arc<ColumnarExperiment>>>,
    /// Attempts per object read before a transient failure counts as
    /// persistent (1 = no retry).
    retries: u32,
    /// Base of the exponential retry backoff in milliseconds.
    backoff_base_ms: u64,
    /// Consecutive failures before an id is quarantined (0 = off).
    breaker_threshold: u32,
    /// Per-object circuit-breaker state.
    breakers: Mutex<HashMap<String, Breaker>>,
    /// Orphaned ingest temp files removed by the startup sweep.
    swept: u64,
    /// Retry sleeps performed (for `/stats`).
    pub retries_performed: AtomicU64,
    /// Failed object-read attempts, including those later retried
    /// successfully (for `/stats` and `/healthz`).
    pub read_failures: AtomicU64,
}

/// Per-object breaker state: `consecutive` read failures trip the
/// quarantine; while tripped, every [`PROBE_EVERY`]-th arrival is let
/// through as a probe so recovery is detected without wall-clock
/// dependence (which would break deterministic chaos runs).
#[derive(Default)]
struct Breaker {
    consecutive: u32,
    arrivals: u32,
}

/// While an id is quarantined, one arrival in this many probes the
/// object; the rest are rejected `503 quarantined` without touching
/// the disk.
const PROBE_EVERY: u32 = 4;

impl Repository {
    /// Opens `root` as a repository, creating the directory layout and
    /// `CUBEREPO` marker if needed. Refuses a non-empty directory that
    /// is not already a repository, so a typo cannot scribble objects
    /// into an unrelated tree.
    pub fn open_or_init(
        root: impl Into<PathBuf>,
        limits: ReadLimits,
        handle_cache: usize,
    ) -> Result<Self, ServeError> {
        let root = root.into();
        let marker = root.join(REPO_MARKER);
        if root.exists() && !marker.exists() {
            let occupied = std::fs::read_dir(&root)
                .map_err(|e| ServeError::internal(format!("{}: {e}", root.display())))?
                .next()
                .is_some();
            if occupied {
                return Err(ServeError::bad_request(
                    "not_a_repository",
                    format!(
                        "{} is non-empty and has no {REPO_MARKER} marker",
                        root.display()
                    ),
                ));
            }
        }
        let internal = |at: &Path, e| ServeError::internal(format!("{}: {e}", at.display()));
        // The marker comes first: a commit that fails removes its temp
        // and leaves the directory as empty as it was, so the next open
        // can still adopt it.
        if !marker.exists() {
            std::fs::create_dir_all(&root).map_err(|e| internal(&root, e))?;
            commit_file(&marker, |out| {
                out.write_all(b"cube experiment repository v1\n")
            })
            .map_err(|e| internal(&marker, e))?;
        }
        // Every shard directory exists from the start, made durable by one
        // sync of `objects/` and one of the root: an upload never creates
        // a directory, whose entry would cost it a second directory sync.
        let objects = root.join("objects");
        for shard in 0..=u8::MAX {
            let shard = objects.join(format!("{shard:02x}"));
            std::fs::create_dir_all(&shard).map_err(|e| internal(&shard, e))?;
        }
        sync_dir(&objects).map_err(|e| internal(&objects, e))?;
        sync_dir(&root).map_err(|e| internal(&root, e))?;
        // Leftovers of crashed uploads: a live server's temps are always
        // renamed or removed by the request that created them.
        let temps = walk_objects(&root).unwrap_or_default();
        let swept = temps.iter().filter(|(rel, kind)| {
            *kind == EntryKind::Temp && std::fs::remove_file(root.join(rel)).is_ok()
        });
        let swept = swept.count() as u64;
        Ok(Self {
            root,
            limits,
            handles: Mutex::new(LruCache::new(handle_cache)),
            retries: 1,
            backoff_base_ms: 0,
            breaker_threshold: 0,
            breakers: Mutex::new(HashMap::new()),
            swept,
            retries_performed: AtomicU64::new(0),
            read_failures: AtomicU64::new(0),
        })
    }

    /// Configures the retry/backoff policy and circuit breaker the
    /// guarded read paths use. The library default (`1, 0, 0`) means
    /// no retries and no breaker — plain PR-7 behavior; the server
    /// applies its [`crate::ServeConfig`] here at startup.
    pub fn set_resilience(&mut self, retries: u32, backoff_base_ms: u64, breaker_threshold: u32) {
        self.retries = retries.max(1);
        self.backoff_base_ms = backoff_base_ms;
        self.breaker_threshold = breaker_threshold;
    }

    /// Orphaned ingest temp files removed by the startup sweep.
    pub fn swept_temp_files(&self) -> u64 {
        self.swept
    }

    /// Number of object ids currently quarantined by the breaker.
    pub fn open_breakers(&self) -> usize {
        if self.breaker_threshold == 0 {
            return 0;
        }
        // LOCK ORDER: `breakers` is a leaf lock — held only across the
        // count, never while another lock is taken.
        lock_recover(&self.breakers)
            .values()
            .filter(|b| b.consecutive >= self.breaker_threshold)
            .count()
    }

    /// The repository root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Absolute path of the object `id` would be stored at.
    pub fn object_path(&self, id: &str) -> PathBuf {
        self.root.join(Self::relative_object_path(id))
    }

    /// Repository-relative object path with `/` separators — the
    /// stable name used in recovery provenance.
    pub fn relative_object_path(id: &str) -> String {
        format!("objects/{}/{id}.cubec", &id[..2])
    }

    /// Ingests an uploaded experiment in either wire format, returning
    /// its content id. Uploads are parsed under the repository's
    /// [`ReadLimits`], canonicalized to `.cubec` bytes, and committed
    /// through [`commit_file`] into its shard, which exists since
    /// [`Repository::open_or_init`]: a crashed upload can never leave a
    /// half-written object under a valid name, and an object reported
    /// created is on disk.
    pub fn ingest(&self, bytes: &[u8]) -> Result<IngestOutcome, ServeError> {
        let exp = if bytes.starts_with(&cube_store::layout::MAGIC) {
            read_store(bytes, &self.limits)?
        } else {
            let text = std::str::from_utf8(bytes).map_err(|_| {
                ServeError::bad_request(
                    "bad_encoding",
                    "upload is neither a .cubec container nor UTF-8 XML",
                )
            })?;
            if check_footer(text).is_mismatch() {
                return Err(ServeError::bad_request(
                    "footer_mismatch",
                    "checksum footer does not match the document bytes",
                ));
            }
            CubeReader::with_limits(text, self.limits).read()?
        };
        let canonical = write_store(&exp);
        let id = content_id(&canonical);
        let label = exp.provenance().label();
        let path = self.object_path(&id);
        if path.exists() {
            return Ok(IngestOutcome {
                id,
                created: false,
                label,
            });
        }
        commit_file(&path, |out| out.write_all(&canonical))
            .map_err(|e| ServeError::internal(format!("{}: {e}", path.display())))?;
        Ok(IngestOutcome {
            id,
            created: true,
            label,
        })
    }

    /// Opens the experiment stored under `id` metadata-only, sharing
    /// handles through the LRU cache. Unknown ids are a 404, malformed
    /// ids a 400. The read runs under the resilience policy: a
    /// quarantined id is rejected `503` up front, transient read
    /// failures (I/O errors, checksum mismatches) are retried with
    /// jittered exponential backoff inside `deadline`, and persistent
    /// transient failure maps to `503 object_unreadable` instead of a
    /// one-off `500`.
    pub fn open_within(
        &self,
        id: &str,
        deadline: &Deadline,
    ) -> Result<Arc<ColumnarExperiment>, ServeError> {
        {
            // LOCK ORDER: `handles` is a leaf lock (see
            // cache::lock_recover) — held only across cache
            // bookkeeping, dropped before any disk work or other lock.
            let mut handles = lock_recover(&self.handles);
            if let Some(handle) = handles.get(&id.to_string()) {
                return Ok(handle);
            }
        }
        let path = self.locate(id)?;
        self.admit_read(id)?;
        let handle = self
            .with_retries(id, &format!("opening experiment {id}"), deadline, || {
                ColumnarExperiment::open_with(&path, &self.limits)
            })
            .map(Arc::new)?;
        lock_recover(&self.handles).insert(id.to_string(), Arc::clone(&handle));
        Ok(handle)
    }

    /// Loads (and caches) `handle`'s severity pages under the same
    /// resilience policy as [`Repository::open_within`]. The lazy
    /// severity read is the other disk boundary an `/eval` crosses;
    /// guarding it here keeps the batch engine's infallible
    /// `severity_values()` from ever seeing an unloaded operand.
    pub fn ensure_severity(
        &self,
        id: &str,
        handle: &ColumnarExperiment,
        deadline: &Deadline,
    ) -> Result<(), ServeError> {
        if handle.is_loaded() {
            return Ok(());
        }
        self.admit_read(id)?;
        self.with_retries(id, &format!("reading severity of {id}"), deadline, || {
            handle.severity().map(|_| ())
        })
    }

    /// Breaker admission: lets the read through unless `id` is
    /// quarantined, in which case only every [`PROBE_EVERY`]-th
    /// arrival proceeds (as the probe that can close the breaker).
    fn admit_read(&self, id: &str) -> Result<(), ServeError> {
        if self.breaker_threshold == 0 {
            return Ok(());
        }
        // LOCK ORDER: `breakers` is a leaf lock — bookkeeping only.
        let mut breakers = lock_recover(&self.breakers);
        let state = breakers.entry(id.to_string()).or_default();
        if state.consecutive < self.breaker_threshold {
            return Ok(());
        }
        state.arrivals = state.arrivals.wrapping_add(1);
        if state.arrivals.is_multiple_of(PROBE_EVERY) {
            return Ok(());
        }
        Err(ServeError::unavailable(
            "quarantined",
            format!(
                "experiment {id} is quarantined after {} consecutive read failures; retry later",
                state.consecutive
            ),
        ))
    }

    /// Records a read outcome for the breaker: success closes it,
    /// failure counts toward (or extends) the quarantine.
    fn record_read(&self, id: &str, ok: bool) {
        if self.breaker_threshold == 0 {
            return;
        }
        // LOCK ORDER: `breakers` is a leaf lock — bookkeeping only.
        let mut breakers = lock_recover(&self.breakers);
        let state = breakers.entry(id.to_string()).or_default();
        if ok {
            state.consecutive = 0;
        } else {
            state.consecutive = state.consecutive.saturating_add(1);
        }
    }

    /// Runs `read` with the retry/backoff policy: transient failures
    /// (I/O, checksum) are retried up to the configured attempt count
    /// with exponential backoff plus deterministic jitter, never
    /// sleeping past `deadline`. Outcomes feed the breaker.
    fn with_retries<T>(
        &self,
        id: &str,
        what: &str,
        deadline: &Deadline,
        mut read: impl FnMut() -> Result<T, StoreError>,
    ) -> Result<T, ServeError> {
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let e = match read() {
                Ok(v) => {
                    self.record_read(id, true);
                    return Ok(v);
                }
                Err(e) => e,
            };
            self.read_failures.fetch_add(1, Ordering::Relaxed);
            let transient = matches!(e, StoreError::Io { .. } | StoreError::Checksum { .. });
            if !transient {
                // Structural damage does not heal on retry; surface it
                // with its ordinary mapping (400/413/422).
                self.record_read(id, false);
                return Err(e.into());
            }
            if deadline.expired() {
                self.record_read(id, false);
                return Err(ServeError::deadline(what));
            }
            if attempt >= self.retries {
                self.record_read(id, false);
                return Err(ServeError::unavailable(
                    "object_unreadable",
                    format!("{what} failed after {attempt} attempts: {e}"),
                ));
            }
            self.retries_performed.fetch_add(1, Ordering::Relaxed);
            let base = self
                .backoff_base_ms
                .saturating_mul(1 << (attempt - 1).min(6));
            let mut pause = Duration::from_millis(base + faults::jitter_ms(attempt.into(), base));
            if let Some(remaining) = deadline.remaining() {
                pause = pause.min(remaining);
            }
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
    }

    /// Validates `id` and returns the object's path if it exists —
    /// without opening it, so callers like the lint endpoint can
    /// inspect objects too damaged for [`Repository::open_within`].
    pub fn locate(&self, id: &str) -> Result<PathBuf, ServeError> {
        if !valid_id(id) {
            return Err(ServeError::bad_request(
                "bad_id",
                format!("'{id}' is not a 16-digit lowercase hex experiment id"),
            ));
        }
        let path = self.object_path(id);
        if !path.exists() {
            return Err(ServeError::not_found(
                "unknown_experiment",
                format!("no experiment {id} in the repository"),
            ));
        }
        Ok(path)
    }

    /// Number of objects currently stored.
    pub fn count(&self) -> usize {
        let entries = walk_objects(&self.root).unwrap_or_default();
        entries
            .iter()
            .filter(|(_, kind)| matches!(kind, EntryKind::Object { .. }))
            .count()
    }
}

/// What an entry under `objects/` is, as [`walk_objects`] sorts it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// A `<16 hex>.cubec` file in a shard directory (bytes unread).
    Object {
        /// The content id its name claims.
        id: String,
        /// Why the shard it sits in is not its id's, when it is not.
        misplaced: Option<String>,
    },
    /// A temp file an interrupted commit left ([`cube_xml::is_temp_name`]).
    Temp,
    /// Anything else, and why it is not an object.
    Stray(&'static str),
}

/// Walks `root/objects` in name order and sorts each entry, named by
/// its repository-relative path, into object, temp or stray: the one
/// reading of the layout, shared by [`Repository::count`], the startup
/// sweep and `cube fsck`.
pub fn walk_objects(root: &Path) -> std::io::Result<Vec<(String, EntryKind)>> {
    let mut out = Vec::new();
    for shard in sorted_names(&root.join("objects"))? {
        let rel = format!("objects/{shard}");
        if !root.join(&rel).is_dir() {
            out.push((
                rel,
                EntryKind::Stray("file where a shard directory belongs"),
            ));
        } else if shard.len() != 2 || !is_lower_hex(&shard) {
            out.push((rel, EntryKind::Stray("not a two-hex-digit shard directory")));
        } else {
            for name in sorted_names(&root.join(&rel))? {
                out.push((format!("{rel}/{name}"), entry_kind(&shard, &name)));
            }
        }
    }
    Ok(out)
}

/// What the file `name` in the shard directory `shard` is.
fn entry_kind(shard: &str, name: &str) -> EntryKind {
    if is_temp_name(name) {
        return EntryKind::Temp;
    }
    match name.strip_suffix(".cubec") {
        None => EntryKind::Stray("not a .cubec object"),
        Some(id) if !valid_id(id) => EntryKind::Stray("file name is not a 16-hex-digit content id"),
        Some(id) => EntryKind::Object {
            id: id.to_string(),
            misplaced: (id[..2] != *shard).then(|| {
                format!(
                    "stored in shard {shard}, but id {id} belongs in {}",
                    &id[..2]
                )
            }),
        },
    }
}

/// The names in `dir`, sorted; errors name `dir`.
fn sorted_names(dir: &Path) -> std::io::Result<Vec<String>> {
    let at = |e: std::io::Error| std::io::Error::new(e.kind(), format!("{}: {e}", dir.display()));
    let mut names = std::fs::read_dir(dir)
        .map_err(at)?
        .map(|e| e.map(|e| e.file_name().to_string_lossy().into_owned()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(at)?;
    names.sort();
    Ok(names)
}

/// If `path` lies inside a repository (an ancestor directory holds the
/// `CUBEREPO` marker), returns its repository-relative path with `/`
/// separators — e.g. `objects/ab/abcd0123….cubec`. `cube repair` uses
/// this as the recovery-provenance origin so salvage notes name the
/// stable object, not the absolute path of whatever mount or temp copy
/// was read.
pub fn repo_relative_origin(path: &Path) -> Option<String> {
    for ancestor in path.ancestors().skip(1) {
        if ancestor.join(REPO_MARKER).is_file() {
            let rel = path.strip_prefix(ancestor).ok()?;
            let parts: Vec<&str> = rel
                .components()
                .map(|c| c.as_os_str().to_str())
                .collect::<Option<_>>()?;
            return Some(parts.join("/"));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cube_model::builder::single_threaded_system;
    use cube_model::{Experiment, ExperimentBuilder, RegionKind, Unit};

    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

    fn sample(value: f64) -> Experiment {
        let mut b = ExperimentBuilder::new(format!("sample {value}"));
        let t = b.def_metric("time", Unit::Seconds, "total time", None);
        let m = b.def_module("main.c", "/src/main.c");
        let r = b.def_region("main", m, RegionKind::Function, 1, 9);
        let cs = b.def_call_site("main.c", 1, r);
        let root = b.def_call_node(cs, None);
        let ts = single_threaded_system(&mut b, 1);
        b.set_severity(t, root, ts[0], value);
        b.build().unwrap()
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cube-serve-repo-{tag}-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn ingest_is_content_addressed_across_formats() {
        let root = temp_root("xfmt");
        let repo = Repository::open_or_init(&root, ReadLimits::default(), 8).unwrap();
        let exp = sample(4.0);

        let xml = cube_xml::write_experiment(&exp);
        let a = repo.ingest(xml.as_bytes()).unwrap();
        assert!(a.created);
        assert!(valid_id(&a.id));

        let cubec = write_store(&exp);
        let b = repo.ingest(&cubec).unwrap();
        assert_eq!(a.id, b.id, "same experiment, same id in either format");
        assert!(!b.created);
        assert_eq!(repo.count(), 1);

        // the object's bytes hash to their own name
        let on_disk = std::fs::read(repo.object_path(&a.id)).unwrap();
        assert_eq!(content_id(&on_disk), a.id);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_shares_handles_and_404s_unknown_ids() {
        let root = temp_root("open");
        let repo = Repository::open_or_init(&root, ReadLimits::default(), 8).unwrap();
        let got = repo.ingest(&write_store(&sample(2.0))).unwrap();
        let h1 = repo.open_within(&got.id, &Deadline::none()).unwrap();
        let h2 = repo.open_within(&got.id, &Deadline::none()).unwrap();
        assert!(Arc::ptr_eq(&h1, &h2), "second open hits the handle cache");
        assert_eq!(h1.severity().unwrap()[0], 2.0);

        let missing = match repo.open_within("0123456789abcdef", &Deadline::none()) {
            Ok(_) => panic!("expected a 404"),
            Err(e) => e,
        };
        assert_eq!(missing.status, 404);
        assert_eq!(missing.code, "unknown_experiment");
        let bad = match repo.open_within("nope", &Deadline::none()) {
            Ok(_) => panic!("expected a 400"),
            Err(e) => e,
        };
        assert_eq!(bad.status, 400);
        assert_eq!(bad.code, "bad_id");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn refuses_non_empty_non_repository_directory() {
        let root = temp_root("busy");
        std::fs::write(root.join("unrelated.txt"), "hands off").unwrap();
        let err = match Repository::open_or_init(&root, ReadLimits::default(), 8) {
            Ok(_) => panic!("expected a refusal"),
            Err(e) => e,
        };
        assert_eq!(err.code, "not_a_repository");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn startup_sweep_removes_orphaned_temp_files() {
        let root = temp_root("sweep");
        {
            let repo = Repository::open_or_init(&root, ReadLimits::default(), 8).unwrap();
            assert_eq!(repo.swept_temp_files(), 0);
            repo.ingest(&write_store(&sample(3.0))).unwrap();
        }
        // Simulate three crashed uploads: temps that never got renamed,
        // two named as earlier servers named them, one as commit_file
        // names them.
        let shard = std::fs::read_dir(root.join("objects"))
            .unwrap()
            .flatten()
            .next()
            .unwrap()
            .path();
        std::fs::write(shard.join(".tmp-999-0"), b"half an upload").unwrap();
        std::fs::write(shard.join(".tmp-999-1"), b"").unwrap();
        let orphan = shard.join(".00aabbccddeeff00.cubec.tmp.999.2");
        std::fs::write(&orphan, b"half an upload").unwrap();

        let repo = Repository::open_or_init(&root, ReadLimits::default(), 8).unwrap();
        assert_eq!(repo.swept_temp_files(), 3);
        assert!(!shard.join(".tmp-999-0").exists());
        assert!(!orphan.exists());
        assert_eq!(repo.count(), 1, "real objects are untouched");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn ingest_refuses_too_deep_documents_in_either_section_order() {
        let root = temp_root("deep");
        let repo = Repository::open_or_init(&root, ReadLimits::default(), 8).unwrap();
        // Metrics nested 300 deep, past the default 256-deep limit.
        let xml = cube_xml::write_experiment(&sample(1.0));
        let (start, end) = (
            xml.find("<metrics>").unwrap(),
            xml.find("</metrics>").unwrap(),
        );
        let deep: String = (0..300)
            .map(|i| format!("<metric id=\"{i}\" name=\"m{i}\" uom=\"sec\">"))
            .collect();
        let canonical = format!(
            "{}<metrics>{deep}{}{}",
            &xml[..start],
            "</metric>".repeat(300),
            &xml[end..]
        );
        let (s, e) = (
            canonical.find("<severity>").unwrap(),
            canonical.find("</severity>").unwrap() + "</severity>".len(),
        );
        let open =
            canonical.find("<cube version=\"1.0\">").unwrap() + "<cube version=\"1.0\">".len();
        let severity_first = format!(
            "{}{}{}{}",
            &canonical[..open],
            &canonical[s..e],
            &canonical[open..s],
            &canonical[e..]
        );
        for doc in [canonical, severity_first] {
            let err = match repo.ingest(doc.as_bytes()) {
                Ok(got) => panic!("ingested a too-deep document as {}", got.id),
                Err(e) => e,
            };
            assert_eq!(
                (err.status, err.code.as_str()),
                (413, "limit"),
                "{}",
                err.message
            );
        }
        assert_eq!(repo.count(), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    fn open_err(repo: &Repository, id: &str) -> ServeError {
        match repo.open_within(id, &Deadline::none()) {
            Ok(_) => panic!("expected {id} to fail to open"),
            Err(e) => e,
        }
    }

    #[test]
    fn breaker_quarantines_after_consecutive_failures() {
        let root = temp_root("breaker");
        let mut repo = Repository::open_or_init(&root, ReadLimits::default(), 0).unwrap();
        repo.set_resilience(1, 0, 2);
        // A validly named object whose bytes are not a .cubec: every
        // open fails structurally (non-transient, so no retries).
        let id = "00aabbccddeeff00";
        let path = repo.object_path(id);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, b"not a store file").unwrap();

        for _ in 0..2 {
            assert_eq!(open_err(&repo, id).code, "bad_store");
        }
        assert_eq!(repo.open_breakers(), 1);
        // Tripped: arrivals 1..3 are rejected without touching disk,
        // the 4th probes (and fails structurally again).
        for _ in 0..3 {
            let e = open_err(&repo, id);
            assert_eq!(e.status, 503);
            assert_eq!(e.code, "quarantined");
        }
        assert_eq!(
            open_err(&repo, id).code,
            "bad_store",
            "every 4th arrival probes"
        );

        // Repair the object in place; the next probe closes the
        // breaker and normal service resumes.
        std::fs::write(&path, write_store(&sample(6.0))).unwrap();
        for _ in 0..3 {
            assert_eq!(open_err(&repo, id).code, "quarantined");
        }
        assert!(
            repo.open_within(id, &Deadline::none()).is_ok(),
            "the probe closes the breaker"
        );
        assert_eq!(repo.open_breakers(), 0);
        assert!(repo.open_within(id, &Deadline::none()).is_ok());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn repo_relative_origin_walks_to_the_marker() {
        let root = temp_root("origin");
        let repo = Repository::open_or_init(&root, ReadLimits::default(), 8).unwrap();
        let got = repo.ingest(&write_store(&sample(7.0))).unwrap();
        let path = repo.object_path(&got.id);
        assert_eq!(
            repo_relative_origin(&path).unwrap(),
            Repository::relative_object_path(&got.id)
        );
        assert_eq!(
            repo_relative_origin(Path::new("/no/marker/here.cubec")),
            None
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
