//! Process-wide fault-injection hook for the I/O layers.
//!
//! Crash-safety machinery is only trustworthy when its failure paths
//! actually run; real disks fail too rarely to exercise them. This
//! module is the seam a test harness (or `cube serve` under
//! `CUBE_FAULTS`, see `docs/FAULTS.md`) uses to make reads fail *on
//! demand*: the format readers in `cube-xml` and `cube-store` pass
//! every buffer they pull off disk through [`inject`] (whole files
//! through [`crate::commit::read_file`]), and an installed hook may
//! mutate the bytes (torn reads, checksum flips — caught downstream by
//! the *real* CRC machinery) or synthesize an [`std::io::Error`]
//! outright. Each step of [`crate::commit::commit_file`] offers an
//! empty buffer.
//!
//! The hook is process-global and installed at most once
//! ([`install`]); whether it currently does anything is the
//! installer's business (the server's fault plan can be activated and
//! deactivated around a chaos run). When nothing was ever installed,
//! [`inject`] is a single relaxed atomic load — the production read
//! path pays one branch per *file read*, nothing per value.

use std::sync::OnceLock;

/// A fault hook: called with the *site* label of the read (e.g.
/// `store.severity`, see `docs/FAULTS.md` for the vocabulary) and the
/// freshly read bytes (none at a commit step). It may mutate the buffer
/// in place and/or return an error the reader must surface instead of
/// the bytes.
pub type FaultHook = Box<dyn Fn(&str, &mut [u8]) -> Option<std::io::Error> + Send + Sync>;

static HOOK: OnceLock<FaultHook> = OnceLock::new();

/// Installs the process-wide fault hook. Returns `false` (and drops
/// `hook`) if one is already installed — the first installer wins,
/// which lets a long-lived server own the seam for its whole life.
pub fn install(hook: FaultHook) -> bool {
    HOOK.set(hook).is_ok()
}

/// True once a hook has been installed (it can never be removed, only
/// made inert by its owner).
pub fn installed() -> bool {
    HOOK.get().is_some()
}

/// Offers the bytes just read at `site` to the installed hook.
///
/// Returns `Some(error)` when the hook injects an I/O failure; the
/// caller must propagate it exactly as it would a real read error.
/// The hook may also corrupt `buf` in place and return `None`, leaving
/// the caller's own integrity checks to notice.
#[inline]
pub fn inject(site: &str, buf: &mut [u8]) -> Option<std::io::Error> {
    match HOOK.get() {
        None => None,
        Some(hook) => hook(site, buf),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninstalled_hook_is_inert() {
        // This test must not install anything: other tests in this
        // binary rely on the read path staying clean. It only checks
        // the fast path.
        let mut buf = [1u8, 2, 3];
        if !installed() {
            assert!(inject("test.site", &mut buf).is_none());
            assert_eq!(buf, [1, 2, 3]);
        }
    }
}
