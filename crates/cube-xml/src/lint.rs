//! File-level linting: `.cube` documents checked during the streaming
//! pass, without materializing a DOM.
//!
//! The model-level rule engine lives in [`cube_model::lint()`]; this
//! module bridges it to the file format:
//!
//! * parse and I/O failures become diagnostics with `E1xx` codes (and a
//!   [`Location::Source`] position whenever the reader knows one), so a
//!   broken file and a structurally unsound experiment produce the same
//!   kind of report;
//! * a well-formed file is read through the streaming parser's
//!   parts-returning entry point — whatever its section order — so
//!   *all* model violations are reported, not just the first one
//!   [`Experiment::new`](cube_model::Experiment::new) would raise.

use std::path::Path;

use cube_model::lint::{diagnostic_of_model_error, lint_parts, Diagnostic, Location, Report};
use cube_model::{Experiment, RuleCode};

use crate::error::{LimitKind, XmlError};
use crate::format::read_document;
use crate::reader::{parse, Parsed, ReadLimits};

/// Converts a parse/IO error into a single diagnostic with the best
/// available location.
pub fn diagnostic_of_xml_error(e: &XmlError) -> Diagnostic {
    let code = match e {
        XmlError::Io { .. } => RuleCode::Io,
        XmlError::Syntax { .. } => RuleCode::XmlSyntax,
        XmlError::Malformed { .. } => RuleCode::XmlMalformed,
        XmlError::Format { .. } => RuleCode::FormatViolation,
        XmlError::Value { .. } => RuleCode::BadValue,
        XmlError::Limit { kind, .. } => match kind {
            LimitKind::InputBytes => RuleCode::InputTooLarge,
            LimitKind::Depth => RuleCode::NestingTooDeep,
            LimitKind::Entities => RuleCode::TooManyEntities,
            LimitKind::RowBytes => RuleCode::RowTooLong,
        },
        XmlError::Checksum { .. } => RuleCode::ChecksumMismatch,
        XmlError::Model(m) => return diagnostic_of_model_error(m),
    };
    let location = match e.position() {
        Some(p) => Location::Source {
            line: p.line,
            column: p.column,
        },
        None => Location::Experiment,
    };
    Diagnostic::new(code, location, e.to_string())
}

/// Lints a `.cube` document and also returns the experiment when one
/// could be assembled.
///
/// The experiment is `Some` exactly when the document parses and the
/// resulting structure satisfies the data model (no error-level
/// diagnostics); warnings do not prevent assembly.
pub fn lint_read(input: &str) -> (Option<Experiment>, Report) {
    if let crate::footer::FooterStatus::Mismatch { expected, actual } =
        crate::footer::check_footer(input)
    {
        return (
            None,
            Report::from_diagnostics(vec![diagnostic_of_xml_error(&XmlError::Checksum {
                expected,
                actual,
            })]),
        );
    }
    match parse(input, ReadLimits::default()).and_then(Parsed::into_parts) {
        Ok((md, sev, prov)) => {
            let report = lint_parts(&md, &sev, &prov);
            let exp = if report.has_errors() {
                None
            } else {
                // Clean of errors ⇒ validate() accepts (the E0xx rules
                // are exactly the validate() checks).
                Some(Experiment::new_unchecked(md, sev, prov))
            };
            (exp, report)
        }
        Err(e) => (
            None,
            Report::from_diagnostics(vec![diagnostic_of_xml_error(&e)]),
        ),
    }
}

/// Lints a `.cube` document in memory.
pub fn lint_str(input: &str) -> Report {
    lint_read(input).1
}

/// Lints a `.cube` file on disk, read as the strict reader reads it. What
/// the read refuses (`E100`, `E104`, `E200`) is one diagnostic rather
/// than a separate error channel, so callers handle one result shape.
pub fn lint_file(path: impl AsRef<Path>) -> Report {
    match read_document(path.as_ref()) {
        Ok(text) => lint_str(&text),
        Err(e) => Report::from_diagnostics(vec![diagnostic_of_xml_error(&e)]),
    }
}

/// Strict read: parses `input` and fails unless the lint report is
/// fully clean — warnings included.
///
/// This is the "strict-read mode" for pipelines that refuse suspicious
/// inputs at the door; plain [`read_experiment`](crate::read_experiment)
/// remains the lenient path.
pub fn read_experiment_strict(input: &str) -> Result<Experiment, Report> {
    match lint_read(input) {
        (Some(exp), report) if report.is_clean() => Ok(exp),
        (_, report) => Err(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cube_model::lint::Level;
    use cube_model::{ExperimentBuilder, RegionKind, Unit};

    fn valid_doc() -> String {
        let mut b = ExperimentBuilder::new("lint test");
        let time = b.def_metric("time", Unit::Seconds, "", None);
        let m = b.def_module("a.c", "/a.c");
        let r = b.def_region("main", m, RegionKind::Function, 1, 9);
        let cs = b.def_call_site("a.c", 1, r);
        let root = b.def_call_node(cs, None);
        let mach = b.def_machine("mach");
        let node = b.def_node("n0", mach);
        let p = b.def_process("p0", 0, node);
        let t = b.def_thread("t0", 0, p);
        b.set_severity(time, root, t, 2.5);
        crate::write_experiment(&b.build().unwrap())
    }

    #[test]
    fn valid_document_is_clean() {
        let report = lint_str(&valid_doc());
        assert!(report.is_clean(), "{report}");
        let (exp, _) = lint_read(&valid_doc());
        assert!(exp.is_some());
        assert!(read_experiment_strict(&valid_doc()).is_ok());
    }

    #[test]
    fn syntax_error_reports_e101_with_position() {
        let report = lint_str("<cube\n<");
        assert!(report.has_errors());
        let d = &report.diagnostics()[0];
        assert_eq!(d.code.as_str(), "E101");
        assert!(matches!(d.location, Location::Source { .. }), "{d}");
    }

    #[test]
    fn nan_severity_reports_e016_not_parse_error() {
        let doc = valid_doc().replace("2.5", "NaN");
        let report = lint_str(&doc);
        assert_eq!(
            report
                .codes()
                .iter()
                .map(|c| c.as_str())
                .collect::<Vec<_>>(),
            vec!["E016"]
        );
    }

    #[test]
    fn multiple_model_violations_all_reported() {
        // NaN severity *and* inverted region lines in one file: the
        // plain reader stops at the first, the linter reports both.
        let doc = valid_doc()
            .replace("2.5", "NaN")
            .replace("begin=\"1\" end=\"9\"", "begin=\"9\" end=\"1\"");
        let report = lint_str(&doc);
        let codes: Vec<&str> = report.codes().iter().map(|c| c.as_str()).collect();
        assert!(codes.contains(&"E016"), "{report}");
        assert!(codes.contains(&"E005"), "{report}");
        assert!(crate::read_experiment(&doc).is_err());
    }

    #[test]
    fn missing_attribute_reports_e103_with_position() {
        let doc = valid_doc().replace(" uom=\"sec\"", "");
        let report = lint_str(&doc);
        let d = &report.diagnostics()[0];
        assert_eq!(d.code.as_str(), "E103");
        assert!(matches!(d.location, Location::Source { .. }), "{d}");
    }

    #[test]
    fn strict_read_rejects_warnings() {
        // An extra module nobody references is a warning (W003): the
        // lenient reader accepts it, the strict one refuses.
        let fixed = valid_doc().replace(
            "</program>",
            "<module id=\"1\" name=\"dead.c\" path=\"/dead.c\"/></program>",
        );
        let report = lint_str(&fixed);
        assert!(!report.has_errors(), "{report}");
        assert_eq!(report.num_warnings(), 1, "{report}");
        assert!(crate::read_experiment(&fixed).is_ok());
        let err = read_experiment_strict(&fixed).unwrap_err();
        assert_eq!(err.diagnostics()[0].code.as_str(), "W003");
        assert_eq!(err.diagnostics()[0].level(), Level::Warning);
    }

    #[test]
    fn io_error_reports_e100() {
        let report = lint_file("/nonexistent/definitely/not/here.cube");
        assert_eq!(report.diagnostics()[0].code.as_str(), "E100");
    }

    #[test]
    fn a_non_utf8_file_lints_as_the_strict_reader_refuses_it() {
        let path = std::env::temp_dir().join(format!("cube_xml_lint_{}.cube", std::process::id()));
        std::fs::write(&path, [&b"\xff"[..], valid_doc().as_bytes()].concat()).unwrap();
        let strict = crate::read_experiment_file(&path).unwrap_err();
        let report = lint_file(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(report.diagnostics().len(), 1, "{report}");
        assert_eq!(
            report.diagnostics()[0].code,
            diagnostic_of_xml_error(&strict).code
        );
        assert_eq!(report.diagnostics()[0].code.as_str(), "E104");
    }

    #[test]
    fn severity_before_metadata_lints_like_canonical_order() {
        // Two model errors (inverted region lines, NaN severity) and a
        // warning (a module without regions), then <severity> moved to
        // the front: the report must not change.
        let doc = valid_doc()
            .replace("2.5", "NaN")
            .replace("begin=\"1\" end=\"9\"", "begin=\"9\" end=\"1\"")
            .replace(
                "</program>",
                "<module id=\"1\" name=\"dead.c\" path=\"/dead.c\"/></program>",
            );
        let start = doc.find("  <severity>").unwrap();
        let end = doc.find("</severity>").unwrap() + "</severity>\n".len();
        let severity = doc[start..end].to_string();
        let rest = format!("{}{}", &doc[..start], &doc[end..]);
        let moved = rest.replacen("  <metrics>", &format!("{severity}  <metrics>"), 1);
        let key = |r: &Report| -> Vec<_> {
            r.diagnostics()
                .iter()
                .map(|d| (d.code, d.level(), d.location.clone()))
                .collect()
        };
        let canonical = lint_str(&doc);
        assert_eq!(canonical.num_errors(), 2, "{canonical}");
        assert_eq!(canonical.num_warnings(), 1, "{canonical}");
        assert_eq!(key(&lint_str(&moved)), key(&canonical));
    }
}
