//! The one durable commit and the one bounded read: every file the
//! workspace keeps reaches its path through [`commit_file`], every
//! whole experiment file is read back through [`read_file`], and
//! [`is_temp_name`] is the one rule for the temp names a commit can
//! leave (`docs/FORMAT.md` §10.1).

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{LimitKind, XmlError};
use crate::reader::ReadLimits;

/// Makes each temp name of this process unique.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically and durably replaces `path` with the bytes `write`
/// streams: into a fresh `.NAME.tmp.PID.SEQ` beside the target, flushed
/// and fsynced, renamed over the target, then the directory fsynced.
/// Before the rename a failure unlinks the temp and leaves the target
/// as it was. Each step first passes the [`crate::faults`] seam at its
/// site: `commit.write`, `commit.sync`, `commit.rename`, `commit.dirsync`.
pub fn commit_file(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "target path has no file name")
    })?;
    // The same directory, so the rename cannot cross a filesystem.
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let step = |site| crate::faults::inject(site, &mut []).map_or(Ok(()), Err);
    let (tmp, file) = loop {
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(
            ".{}.tmp.{}.{seq}",
            name.to_string_lossy(),
            std::process::id()
        ));
        match OpenOptions::new().write(true).create_new(true).open(&tmp) {
            // Left by a dead process that had the same id.
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            file => break (tmp, file?),
        }
    };
    let staged = (|| {
        step("commit.write")?;
        let mut out = BufWriter::new(file);
        write(&mut out)?;
        let file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
        step("commit.sync")?;
        file.sync_all()?;
        step("commit.rename")?;
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = staged {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    step("commit.dirsync")?;
    sync_dir(dir)
}

/// Reads the whole file at `path` under `limits.max_input_bytes`: the
/// one whole-file read of the experiment readers, the read-side twin of
/// [`commit_file`].
///
/// A file whose length is over the limit is refused before any byte is
/// read. Any other source (a FIFO, `/dev/zero`, a file that grows while
/// it is read) stops at limit + 1 bytes and is refused there, so the
/// buffer never holds more. A file that keeps its length is read in one
/// pass into a buffer sized from it, as [`std::fs::read`] does. The bytes
/// then pass the [`crate::faults`] seam at `site`.
///
/// It fails only with [`XmlError::Io`], which names `path`, or with the
/// input limit, [`XmlError::Limit`] of kind [`LimitKind::InputBytes`]
/// (`E200`); the `.cubec` readers turn these into their own.
pub fn read_file(path: &Path, limits: &ReadLimits, site: &str) -> Result<Vec<u8>, XmlError> {
    let failed = |source| XmlError::io_at(path, source);
    let limit = limits.max_input_bytes as u64;
    let mut file = File::open(path).map_err(failed)?;
    let len = file.metadata().map_err(failed)?.len();
    let mut bytes = Vec::new();
    // Rounds of exactly reserved reads: the first one byte longer than
    // the file, so a file that keeps its length ends in it, and each
    // later one doubles the buffer, never past limit + 1 bytes.
    let mut want = len.saturating_add(1);
    while len <= limit && bytes.len() as u64 <= limit {
        want = want.min((limit - bytes.len() as u64).saturating_add(1));
        bytes
            .try_reserve_exact(want as usize)
            .map_err(|_| failed(io::ErrorKind::OutOfMemory.into()))?;
        let got = (&mut file).take(want).read_to_end(&mut bytes);
        if got.map_err(failed)? < want as usize {
            break;
        }
        want = bytes.len() as u64;
    }
    if len > limit || bytes.len() as u64 > limit {
        let message = if len > limit {
            format!("file is {len} bytes, limit is {limit}")
        } else {
            format!("file reads past the limit of {limit} bytes")
        };
        return Err(XmlError::limit(LimitKind::InputBytes, message));
    }
    match crate::faults::inject(site, &mut bytes) {
        Some(e) => Err(failed(e)),
        None => Ok(bytes),
    }
}

/// Fsyncs the directory `dir`, so the entries made in it are on disk.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Whether `name` is a temp file an interrupted commit left behind:
/// `.NAME.tmp.PID.SEQ` from [`commit_file`], or `.tmp-PID-SEQ`, the
/// form repository ingest used before it committed through here.
pub fn is_temp_name(name: &str) -> bool {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let pid_seq = |rest: &str, sep| {
        let pair = rest.split_once(sep);
        pair.is_some_and(|(pid, seq)| digits(pid) && digits(seq))
    };
    let current = name.strip_prefix('.').and_then(|n| n.rsplit_once(".tmp."));
    current.is_some_and(|(target, rest)| !target.is_empty() && pid_seq(rest, '.'))
        || name
            .strip_prefix(".tmp-")
            .is_some_and(|rest| pid_seq(rest, '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_names_are_recognised_in_both_forms() {
        for name in [
            ".a.cube.tmp.12.0",
            ".CUBEREPO.tmp.1.99",
            ".0123456789abcdef.cubec.tmp.4242.7",
            ".tmp-999-0",
            ".tmp-1-23",
            ".tmp-1-2.tmp.3.4",
        ] {
            assert!(is_temp_name(name), "{name}");
        }
        for name in [
            "a.cube",
            "0123456789abcdef.cubec",
            ".a.cube.tmp.12",
            ".a.cube.tmp.x.0",
            ".tmp.1.2",
            "..tmp.1.2",
            "a.cube.tmp.1.2",
            ".tmp-999",
            ".tmp-9a-0",
            ".tmp-",
        ] {
            assert!(!is_temp_name(name), "{name}");
        }
    }

    #[test]
    fn read_file_reads_a_file_at_the_limit_and_refuses_one_past_it() {
        let path = std::env::temp_dir().join(format!("cube_xml_read_{}", std::process::id()));
        std::fs::write(&path, [7u8; 100]).unwrap();
        let limits = |max_input_bytes| ReadLimits {
            max_input_bytes,
            ..ReadLimits::default()
        };
        let whole = read_file(&path, &limits(100), "test.site").unwrap();
        let over = read_file(&path, &limits(99), "test.site");
        std::fs::remove_file(&path).ok();
        assert_eq!(whole, [7u8; 100]);
        assert_eq!((whole.len(), whole.capacity()), (100, 101));
        match over {
            Err(XmlError::Limit {
                kind: LimitKind::InputBytes,
                message,
                ..
            }) => assert_eq!(message, "file is 100 bytes, limit is 99"),
            other => panic!("expected the input limit, got {other:?}"),
        }
        let missing = read_file(&path, &limits(100), "test.site");
        assert!(matches!(missing, Err(XmlError::Io { path: Some(p), .. }) if p == path));
    }

    #[test]
    fn commit_replaces_the_target_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("cube_xml_commit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.bin");
        std::fs::write(&path, b"old").unwrap();
        commit_file(&path, |out| out.write_all(b"new bytes")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new bytes");
        // A failing writer leaves the target as it was.
        let err = commit_file(&path, |out| {
            out.write_all(b"half")?;
            Err(io::Error::other("writer gave up"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "writer gave up");
        assert_eq!(std::fs::read(&path).unwrap(), b"new bytes");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["t.bin"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
