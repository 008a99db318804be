//! The CUBE experiment file format.
//!
//! [`write_experiment`] serializes an [`Experiment`] into the `.cube`
//! XML layout documented in the crate docs; [`read_experiment`] parses
//! it back. Identifiers are written explicitly and must be dense
//! (0..n in document order), mirroring the original format's reliance on
//! dense integer ids.
//!
//! Zero severities are omitted from the file: a `<row>` holding only
//! zeros is skipped, as is a `<matrix>` with no rows. On read, missing
//! tuples default to zero — the same zero-extension convention the
//! algebra uses.
//!
//! [`read_experiment`] and [`write_experiment`] run on the streaming
//! [`CubeReader`](crate::reader::CubeReader) /
//! [`CubeWriter`](crate::writer::CubeWriter) pair, the library's only
//! `.cube` reader and writer; strict reads and
//! [`read_experiment_salvage`] share the reader's one document loop.

use std::io::Write;
use std::path::Path;

use cube_model::{Experiment, Provenance};

use crate::error::{Position, XmlError};
use crate::footer::{check_footer, footer_line, Crc32Writer, FooterStatus};
use crate::reader::ReadLimits;

/// Current format version written by this crate.
pub const FORMAT_VERSION: &str = "1.0";

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Serializes an experiment into a `.cube` XML string.
///
/// Streams through [`CubeWriter`](crate::writer::CubeWriter) into one
/// pre-sized buffer; no intermediate element tree or per-row strings
/// are built.
pub fn write_experiment(exp: &Experiment) -> String {
    let bytes = crate::writer::CubeWriter::new(Vec::with_capacity(encoded_len_hint(exp)))
        .write(exp)
        .expect("writing to a Vec cannot fail");
    String::from_utf8(bytes).expect("writer emits UTF-8 only")
}

/// A buffer size for `exp`'s encoding that full-precision results fit
/// without the buffer growing: 24 bytes per severity cell hold a
/// 17-digit value with its sign, point, leading zeros down to 10⁻⁴ and
/// separator; each row adds its `<row>` markup, and each metric, call
/// node and thread a metadata line.
pub fn encoded_len_hint(exp: &Experiment) -> usize {
    let (nm, nc, nt) = exp.severity().shape();
    4096 + 128 * (nm + nc + nt) + nm * nc * (32 + 24 * nt)
}

/// Writes `exp` as a whole `.cube` file into `out` — the document, then
/// its checksum footer — in one pass through [`Crc32Writer`], and
/// returns `out`. These are the bytes [`write_experiment_file`] commits.
pub fn write_experiment_to<W: Write>(exp: &Experiment, out: W) -> Result<W, XmlError> {
    let mut out = crate::writer::CubeWriter::new(Crc32Writer::new(out)).write(exp)?;
    let line = footer_line(out.crc(), out.len());
    // The footer itself is outside the checksummed region.
    out.get_mut().write_all(line.as_bytes())?;
    Ok(out.into_inner())
}

/// Writes an experiment to a file: atomic, durable, and checksummed.
///
/// Streams [`write_experiment_to`] — the document and its CRC-32
/// footer (`docs/FORMAT.md` §10) — through a buffered file handle into
/// [`commit_file`](crate::commit::commit_file), so the document is
/// never materialized. I/O errors carry `path`.
pub fn write_experiment_file(exp: &Experiment, path: impl AsRef<Path>) -> Result<(), XmlError> {
    let path = path.as_ref();
    crate::commit::commit_file(path, |out| match write_experiment_to(exp, out) {
        Ok(_) => Ok(()),
        Err(XmlError::Io { source, .. }) => Err(source),
        Err(e) => Err(std::io::Error::other(e)),
    })
    .map_err(|e| XmlError::io_at(path, e))
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Parses a `.cube` XML string into an experiment.
///
/// Runs the streaming [`CubeReader`](crate::reader::CubeReader) in one
/// pass, whatever the section order. When the document carries a
/// checksum footer (`docs/FORMAT.md` §10), it is verified first —
/// silent corruption that would still parse is refused with
/// [`XmlError::Checksum`].
pub fn read_experiment(input: &str) -> Result<Experiment, XmlError> {
    verify_footer(input)?;
    crate::reader::CubeReader::new(input).read()
}

fn verify_footer(input: &str) -> Result<(), XmlError> {
    match check_footer(input) {
        FooterStatus::Mismatch { expected, actual } => Err(XmlError::Checksum { expected, actual }),
        FooterStatus::Absent | FooterStatus::Valid => Ok(()),
    }
}

/// Reads an experiment from a file. I/O errors carry `path`.
///
/// The raw bytes pass through the [`crate::faults`] seam (site
/// `xml.file`) before decoding, so a fault harness can exercise the
/// parse-error and checksum paths with real corruption.
pub fn read_experiment_file(path: impl AsRef<Path>) -> Result<Experiment, XmlError> {
    read_experiment(&read_document(path.as_ref())?)
}

/// The text of the `.cube` file at `path` for the strict reader and
/// lint: [`read_file`](crate::commit::read_file) at `xml.file`, as UTF-8.
pub(crate) fn read_document(path: &Path) -> Result<String, XmlError> {
    let bytes = crate::commit::read_file(path, &ReadLimits::default(), "xml.file")?;
    String::from_utf8(bytes)
        .map_err(|_| XmlError::value(format!("{}: file is not UTF-8", path.display())))
}

// ---------------------------------------------------------------------------
// Salvage
// ---------------------------------------------------------------------------

/// What [`read_experiment_salvage`] managed to recover, and what not.
#[derive(Clone, Debug)]
pub struct SalvageReport {
    /// `true` when the document read cleanly end to end with a valid or
    /// absent checksum — the result equals what [`read_experiment`]
    /// would return, and the provenance is left untouched.
    pub complete: bool,
    /// Severity rows recovered intact (each committed atomically; a row
    /// torn mid-number is dropped whole).
    pub rows_recovered: usize,
    /// Description of the first unrecoverable defect, when any.
    pub loss: Option<String>,
    /// Position of that defect, when known.
    pub position: Option<Position>,
    /// The structure being parsed when the defect hit (e.g.
    /// `severity matrix for metric 'time' (id 0), cnode 3`), so
    /// recovery messages can name the metric and row, not just a byte
    /// offset. The message format is documented in `docs/FORMAT.md`
    /// §10.
    pub context: Option<String>,
    /// Outcome of the checksum footer verification.
    pub checksum: FooterStatus,
}

/// Reads the longest valid prefix of a damaged `.cube` document.
///
/// The metadata sections must be complete — without them there is no
/// shape to recover into, and the result is an error. Past that point
/// the reader keeps everything assembled before the first defect:
/// complete metadata, every intact severity row (zero-extension covers
/// the rest, mirroring the algebra's convention), and the stored
/// provenance. When anything was lost — or the checksum footer proves
/// the bytes were altered — the experiment's provenance is rewrapped as
/// [`Provenance::Recovered`] so the damage stays visible through any
/// downstream algebra.
///
/// A `<severity>` section stored before the metadata is parsed when the
/// metadata closes: damaged values in it are recovered as anywhere
/// else, and the sections after it are still read; damaged markup there
/// is fatal, because the metadata behind it cannot be reached.
pub fn read_experiment_salvage(input: &str) -> Result<(Experiment, SalvageReport), XmlError> {
    read_experiment_salvage_as(input, None, ReadLimits::default())
}

/// [`read_experiment_salvage`] with explicit [`ReadLimits`] and an
/// explicit *origin* — the name the recovery provenance note should
/// call the damaged document.
///
/// Salvage often runs over bytes that no longer sit where the user
/// thinks of them: a staging temp file, or an object inside a
/// hash-sharded repository. The note is the one place the damage stays
/// visible downstream, so it should name the document by its durable
/// identity — e.g. the repository-relative path `objects/ab/….cubec` —
/// not whatever transient path the bytes were read from. With
/// `origin: None` the note format is unchanged.
pub fn read_experiment_salvage_as(
    input: &str,
    origin: Option<&str>,
    limits: ReadLimits,
) -> Result<(Experiment, SalvageReport), XmlError> {
    let checksum = check_footer(input);
    let parsed = crate::reader::parse(input, limits)?;
    let mut exp = Experiment::new(parsed.md, parsed.sev, parsed.provenance)?;
    let (loss, position, context) = match parsed.loss {
        Some(loss) => (Some(loss.error.to_string()), loss.position, loss.context),
        None => (None, None, None),
    };
    let report = SalvageReport {
        complete: loss.is_none() && !checksum.is_mismatch(),
        rows_recovered: parsed.rows,
        loss,
        position,
        context,
        checksum,
    };
    if !report.complete {
        // Recovery-note format (normative, docs/FORMAT.md §10):
        //   "[ORIGIN: ]damaged[ at L:C][ in CONTEXT]; N rows recovered"
        // or "[ORIGIN: ]checksum mismatch; N rows recovered".
        let mut what = match (&report.loss, report.position) {
            (Some(_), Some(p)) => format!("damaged at {p}"),
            (Some(_), None) => "damaged".to_string(),
            (None, _) => "checksum mismatch".to_string(),
        };
        if report.loss.is_some() {
            if let Some(ctx) = &report.context {
                what = format!("{what} in {ctx}");
            }
        }
        let mut note = format!("{what}; {} rows recovered", report.rows_recovered);
        if let Some(origin) = origin {
            note = format!("{origin}: {note}");
        }
        let source = exp.provenance().label();
        exp.set_provenance(Provenance::recovered(source, note));
    }
    Ok((exp, report))
}

/// Reads and salvages a `.cube` file on disk, with an explicit *origin*
/// for the recovery provenance note (see [`read_experiment_salvage_as`]);
/// `None` keeps the note unprefixed. I/O errors carry `path`.
pub fn read_experiment_salvage_file_as(
    path: impl AsRef<Path>,
    origin: Option<&str>,
) -> Result<(Experiment, SalvageReport), XmlError> {
    let limits = ReadLimits::default();
    let bytes = crate::commit::read_file(path.as_ref(), &limits, "xml.file")?;
    // Damaged files may be torn mid-UTF-8-sequence; lossy conversion
    // keeps the valid prefix readable.
    read_experiment_salvage_as(&String::from_utf8_lossy(&bytes), origin, limits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cube_model::builder::single_threaded_system;
    use cube_model::{ExperimentBuilder, RegionKind, Unit};

    fn sample() -> Experiment {
        let mut b = ExperimentBuilder::new("xml sample");
        let time = b.def_metric("time", Unit::Seconds, "total", None);
        let mpi = b.def_metric("mpi", Unit::Seconds, "MPI", Some(time));
        let visits = b.def_metric("visits", Unit::Occurrences, "visits", None);
        let m = b.def_module("a.c", "/src/a.c");
        let main_r = b.def_region("main", m, RegionKind::Function, 1, 90);
        let solve_r = b.def_region("solve", m, RegionKind::Function, 10, 80);
        let cs0 = b.def_call_site("a.c", 1, main_r);
        let cs1 = b.def_call_site("a.c", 30, solve_r);
        let root = b.def_call_node(cs0, None);
        let solve = b.def_call_node(cs1, Some(root));
        let ts = single_threaded_system(&mut b, 3);
        for (i, &t) in ts.iter().enumerate() {
            b.set_severity(time, root, t, 1.0 + i as f64 * 0.125);
            b.set_severity(time, solve, t, 2.0);
            b.set_severity(mpi, solve, t, 0.5);
            b.set_severity(visits, root, t, 1.0);
        }
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let e = sample();
        let xml = write_experiment(&e);
        let back = read_experiment(&xml).unwrap();
        assert!(back.approx_eq(&e, 0.0), "severity or metadata changed");
        assert_eq!(back.provenance(), e.provenance());
    }

    #[test]
    fn derived_provenance_roundtrips() {
        let mut e = sample();
        e.set_provenance(Provenance::derived(
            "difference",
            vec!["old".into(), "new".into()],
        ));
        let back = read_experiment(&write_experiment(&e)).unwrap();
        assert_eq!(back.provenance(), e.provenance());
    }

    #[test]
    fn zero_rows_are_omitted() {
        let e = sample();
        let xml = write_experiment(&e);
        // The `mpi` matrix only has the `solve` row; the root row is all
        // zeros and must not appear.
        let mpi_matrix = xml
            .split("<matrix metric=\"1\">")
            .nth(1)
            .unwrap()
            .split("</matrix>")
            .next()
            .unwrap();
        assert!(mpi_matrix.contains("cnode=\"1\""));
        assert!(!mpi_matrix.contains("cnode=\"0\""));
    }

    #[test]
    fn exact_float_roundtrip() {
        let mut e = sample();
        let vals = e.severity_mut().values_mut();
        vals[0] = 0.1 + 0.2; // 0.30000000000000004
        vals[1] = -1e-300;
        vals[2] = 12_345_678_901_234.568;
        let back = read_experiment(&write_experiment(&e)).unwrap();
        assert_eq!(back.severity().values(), e.severity().values());
    }

    #[test]
    fn negative_severities_allowed() {
        let mut e = sample();
        e.severity_mut().values_mut()[0] = -3.25;
        let back = read_experiment(&write_experiment(&e)).unwrap();
        assert_eq!(back.severity().values()[0], -3.25);
    }

    #[test]
    fn special_characters_in_names() {
        let mut b = ExperimentBuilder::new("weird <\"name\"> & co");
        let t = b.def_metric("m<1>", Unit::Seconds, "desc & \"more\"", None);
        let m = b.def_module("a&b.c", "/path/'q'");
        let r = b.def_region("op<>&", m, RegionKind::Loop, 1, 2);
        let cs = b.def_call_site("a&b.c", 1, r);
        let root = b.def_call_node(cs, None);
        let ts = single_threaded_system(&mut b, 1);
        b.set_severity(t, root, ts[0], 1.0);
        let e = b.build().unwrap();
        let back = read_experiment(&write_experiment(&e)).unwrap();
        assert!(back.approx_eq(&e, 0.0));
        assert_eq!(back.provenance().label(), "weird <\"name\"> & co");
    }

    #[test]
    fn wrong_root_rejected() {
        assert!(matches!(
            read_experiment("<notcube/>"),
            Err(XmlError::Format { .. })
        ));
    }

    #[test]
    fn missing_sections_rejected() {
        assert!(read_experiment("<cube version=\"1.0\"/>").is_err());
    }

    #[test]
    fn non_dense_ids_rejected() {
        let e = sample();
        let xml = write_experiment(&e).replace("<metric id=\"0\"", "<metric id=\"7\"");
        assert!(read_experiment(&xml).is_err());
    }

    #[test]
    fn out_of_range_matrix_rejected() {
        let e = sample();
        let xml = write_experiment(&e).replace("<matrix metric=\"0\">", "<matrix metric=\"99\">");
        assert!(read_experiment(&xml).is_err());
    }

    #[test]
    fn short_row_rejected() {
        let e = sample();
        let xml = write_experiment(&e);
        // Remove one value from the first row.
        let row_start = xml.find("<row cnode=\"0\">").unwrap();
        let row_end = xml[row_start..].find("</row>").unwrap() + row_start;
        let row = &xml[row_start..row_end];
        let shortened = row.rsplit_once(' ').unwrap().0.to_string();
        let bad = format!("{}{}{}", &xml[..row_start], shortened, &xml[row_end..]);
        assert!(read_experiment(&bad).is_err());
    }

    #[test]
    fn garbage_severity_value_rejected() {
        let e = sample();
        let xml = write_experiment(&e);
        let bad = xml.replacen("2 2 2", "2 fish 2", 1);
        assert!(read_experiment(&bad).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let e = sample();
        let dir = std::env::temp_dir().join("cube_xml_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.cube");
        write_experiment_file(&e, &path).unwrap();
        let back = read_experiment_file(&path).unwrap();
        assert!(back.approx_eq(&e, 0.0));
        std::fs::remove_file(path).ok();
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cube_xml_test").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn written_file_carries_valid_footer() {
        let e = sample();
        let dir = tmp_dir("footer");
        let path = dir.join("footer.cube");
        write_experiment_file(&e, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(check_footer(&text), FooterStatus::Valid);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn written_body_before_the_footer_is_write_experiment() {
        let e = sample();
        let dir = tmp_dir("body");
        let path = dir.join("body.cube");
        write_experiment_file(&e, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let body = &text[..text.find("<!-- cube:crc32").expect("a footer")];
        assert_eq!(body, write_experiment(&e));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn full_precision_results_fit_the_hint() {
        // The shape of a derived `/eval` result: negative 17-digit
        // values, log-uniform from 10⁻⁴ to 10⁴, none a multiple of 10⁻⁶.
        let mut b = ExperimentBuilder::new("derived");
        let metrics: Vec<_> = (0..3)
            .map(|i| b.def_metric(format!("m{i}"), Unit::Seconds, "", None))
            .collect();
        let m = b.def_module("a.c", "/src/a.c");
        let r = b.def_region("main", m, RegionKind::Function, 1, 2);
        let cs = b.def_call_site("a.c", 1, r);
        let root = b.def_call_node(cs, None);
        let mut nodes = vec![root];
        nodes.extend((0..49).map(|_| b.def_call_node(cs, Some(root))));
        let threads = single_threaded_system(&mut b, 16);
        let mut state = 7u64;
        for &metric in &metrics {
            for &c in &nodes {
                for &t in &threads {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
                    b.set_severity(metric, c, t, -(10f64.powf(8.0 * unit - 4.0)) * (1.0 + 3e-9));
                }
            }
        }
        let e = b.build().unwrap();
        let buf = Vec::with_capacity(encoded_len_hint(&e));
        let capacity = buf.capacity();
        let out = write_experiment_to(&e, buf).unwrap();
        assert_eq!(
            out.capacity(),
            capacity,
            "{} bytes outgrew the hint",
            out.len()
        );
    }

    #[test]
    fn corrupted_checksummed_file_is_refused() {
        let e = sample();
        let dir = tmp_dir("corrupt");
        let path = dir.join("bad.cube");
        write_experiment_file(&e, &path).unwrap();
        // Flip one severity digit: the document still parses, only the
        // checksum can tell.
        let text = std::fs::read_to_string(&path).unwrap();
        let bad = text.replacen("2 2 2", "2 9 2", 1);
        assert_ne!(bad, text);
        let err = read_experiment(&bad).unwrap_err();
        assert!(matches!(err, XmlError::Checksum { .. }), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn failed_write_leaves_existing_target_untouched() {
        let e = sample();
        let dir = tmp_dir("atomic");
        let path = dir.join("target.cube");
        std::fs::write(&path, b"precious bytes").unwrap();
        // Writing into a directory that does not exist fails while
        // staging; the target must be byte-identical afterwards. The
        // same-directory failures, one per commit step, are failed
        // through the fault seam in `tests/commit_faults.rs`.
        let missing = dir.join("no_such_subdir").join("x.cube");
        assert!(write_experiment_file(&e, &missing).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"precious bytes");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn io_errors_carry_the_path() {
        let e = sample();
        let missing = Path::new("/nonexistent/definitely/not/here.cube");
        let err = write_experiment_file(&e, missing).unwrap_err();
        assert!(err.to_string().contains("here.cube"), "{err}");
        let err = read_experiment_file(missing).unwrap_err();
        assert!(err.to_string().contains("here.cube"), "{err}");
    }

    #[test]
    fn salvage_of_intact_document_is_complete() {
        let e = sample();
        let xml = write_experiment(&e);
        let (back, report) = read_experiment_salvage(&xml).unwrap();
        assert!(report.complete, "{report:?}");
        assert!(back.approx_eq(&e, 0.0));
        assert_eq!(back.provenance(), e.provenance());
        assert_eq!(report.checksum, FooterStatus::Absent);
    }

    #[test]
    fn salvage_of_truncated_document_recovers_prefix() {
        let e = sample();
        let xml = write_experiment(&e);
        let cut = xml.rfind("<row").unwrap() + 4;
        let (back, report) = read_experiment_salvage(&xml[..cut]).unwrap();
        assert!(!report.complete);
        assert!(report.loss.is_some());
        assert!(back.provenance().is_recovered(), "{:?}", back.provenance());
        assert_eq!(back.metadata(), e.metadata());
        // The recovered experiment must itself round-trip and lint.
        let rexml = write_experiment(&back);
        let again = read_experiment(&rexml).unwrap();
        assert_eq!(again.provenance(), back.provenance());
    }

    #[test]
    fn salvage_flags_checksum_mismatch_as_incomplete() {
        let e = sample();
        let dir = tmp_dir("salvage_crc");
        let path = dir.join("s.cube");
        write_experiment_file(&e, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let bad = text.replacen("2 2 2", "2 9 2", 1);
        let (back, report) = read_experiment_salvage(&bad).unwrap();
        assert!(!report.complete);
        assert!(report.checksum.is_mismatch());
        assert!(back.provenance().is_recovered());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn salvage_fails_without_complete_metadata() {
        let e = sample();
        let xml = write_experiment(&e);
        let cut = xml.find("<system>").unwrap();
        assert!(read_experiment_salvage(&xml[..cut]).is_err());
    }

    #[test]
    fn missing_provenance_defaults() {
        let e = sample();
        let xml = write_experiment(&e);
        // Strip the provenance element entirely.
        let start = xml.find("<provenance").unwrap();
        let end = xml[start..].find("/>").unwrap() + start + 2;
        let stripped = format!("{}{}", &xml[..start], &xml[end..]);
        let back = read_experiment(&stripped).unwrap();
        assert!(!back.provenance().is_derived());
    }
}
