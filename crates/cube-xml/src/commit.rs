//! The one durable commit: every file the workspace keeps reaches its
//! path through [`commit_file`], and [`is_temp_name`] is the one rule
//! for the temp names a commit can leave (`docs/FORMAT.md` §10.1).

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

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
