//! File-level linting for `.cubec` stores, mirroring
//! [`cube_xml::lint_file`] so both formats feed the same rule engine
//! and report shape.

use std::path::Path;

use cube_model::lint::{diagnostic_of_model_error, lint_parts, Diagnostic, Location, Report};
use cube_model::RuleCode;
use cube_xml::{LimitKind, ReadLimits};

use crate::error::StoreError;
use crate::read::{read_file, read_store_parts};

/// Converts a store error into a single diagnostic.
///
/// The binary format has no line/column notion, so every diagnostic
/// points at [`Location::Experiment`]; the error message itself names
/// the damaged structure (section, chunk, metric).
fn diagnostic_of_store_error(e: &StoreError) -> Diagnostic {
    let code = match e {
        StoreError::Io { .. } => RuleCode::Io,
        StoreError::Format { .. } => RuleCode::FormatViolation,
        StoreError::Checksum { .. } => RuleCode::ChecksumMismatch,
        StoreError::Limit { kind, .. } => match kind {
            LimitKind::InputBytes => RuleCode::InputTooLarge,
            LimitKind::Depth => RuleCode::NestingTooDeep,
            LimitKind::Entities => RuleCode::TooManyEntities,
            LimitKind::RowBytes => RuleCode::RowTooLong,
        },
        StoreError::Model(m) => return diagnostic_of_model_error(m),
    };
    Diagnostic::new(code, Location::Experiment, e.to_string())
}

/// Lints a `.cubec` file on disk, read as the strict reader reads it.
/// Container-level failures (I/O, the input limit, bad magic, checksum
/// mismatches) become single diagnostics; a decodable file runs the full
/// model rule engine so *all* violations are reported, like the XML path.
pub fn lint_file(path: impl AsRef<Path>) -> Report {
    let limits = ReadLimits::default();
    let parts =
        read_file(path.as_ref(), &limits).and_then(|bytes| read_store_parts(&bytes, &limits));
    match parts {
        Ok((md, sev, prov)) => lint_parts(&md, &sev, &prov),
        Err(e) => Report::from_diagnostics(vec![diagnostic_of_store_error(&e)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::write_store_file;
    use cube_model::builder::single_threaded_system;
    use cube_model::{ExperimentBuilder, RegionKind, Unit};

    fn store_sample(tag: &str) -> std::path::PathBuf {
        let mut b = ExperimentBuilder::new("lint sample");
        let t = b.def_metric("time", Unit::Seconds, "", None);
        let m = b.def_module("a", "a");
        let r = b.def_region("main", m, RegionKind::Function, 1, 1);
        let cs = b.def_call_site("a", 1, r);
        let root = b.def_call_node(cs, None);
        let ts = single_threaded_system(&mut b, 1);
        b.set_severity(t, root, ts[0], 2.0);
        let exp = b.build().unwrap();
        let d = std::env::temp_dir().join(format!("cube-store-lint-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join("s.cubec");
        write_store_file(&exp, &p).unwrap();
        p
    }

    #[test]
    fn valid_store_lints_clean() {
        let p = store_sample("ok");
        let report = lint_file(&p);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn missing_file_reports_e100() {
        let report = lint_file("/definitely/not/here.cubec");
        assert_eq!(report.diagnostics()[0].code.as_str(), "E100");
    }

    #[test]
    fn corrupted_store_reports_checksum_mismatch() {
        let p = store_sample("bad");
        let mut bytes = std::fs::read(&p).unwrap();
        let n = bytes.len();
        bytes[n - 20] ^= 0xff;
        std::fs::write(&p, &bytes).unwrap();
        let report = lint_file(&p);
        assert!(report.has_errors());
        assert_eq!(report.diagnostics()[0].code.as_str(), "E204");
    }

    #[test]
    fn xml_file_reports_format_violation() {
        let d = std::env::temp_dir().join(format!("cube-store-lint-xml-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join("x.cubec");
        std::fs::write(&p, "<?xml version=\"1.0\"?><cube/>").unwrap();
        let report = lint_file(&p);
        assert_eq!(report.diagnostics()[0].code.as_str(), "E103");
    }
}
