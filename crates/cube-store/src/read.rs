//! The `.cubec` readers: strict full decode, lazy columnar open, and
//! the salvage path for damaged files. All three run one container
//! parser, `Layout::parse`, which bounds every range before reading it,
//! and one page check, `Layout::decode_pages`. They differ in policy:
//!
//! * strict ([`read_store`], [`read_store_file`], [`lint_file`](crate::lint_file)):
//!   the footer must verify, every page must lie inside the body, and
//!   the first bad page is the error;
//! * lazy ([`ColumnarExperiment`]): the footer's magic and recorded
//!   length must match, every page must lie inside the body, and pages
//!   are checked when first loaded;
//! * salvage ([`salvage_store_file_as`]): the structure must lie inside
//!   the bytes present and the declared file within the input limit;
//!   missing or damaged pages read as zeros.
//!
//! Every reader but lint runs the data-model check, so all of them
//! accept the same experiments: strict read and salvage through
//! [`Experiment::new`], the lazy handle in two halves —
//! [`Metadata::validate`] at open and the NaN rule
//! ([`validate_values`]) when the pages load. Lint reports every
//! violation instead of the first.

use std::borrow::Cow;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use cube_algebra::BatchOperand;
use cube_model::lint::validate_values;
use cube_model::{Experiment, Metadata, Provenance, Severity};
use cube_xml::footer::crc32;
use cube_xml::{FooterStatus, LimitKind, ReadLimits};

use crate::error::StoreError;
use crate::layout::{
    chunk_count, Cursor, Section, FOOTER_LEN, FOOTER_MAGIC, HEADER_LEN, MAGIC, SECTION_ENTRY_LEN,
    SEC_CHUNKCRC, SEC_METADATA, SEC_SEVERITY, VERSION,
};
use crate::meta::decode_metadata;

// ---------------------------------------------------------------------------
// container structure
// ---------------------------------------------------------------------------

/// The structure `Layout::parse` names when it asks for the METADATA
/// section, so the lazy open can put its fault seam on that read.
const METADATA: &str = "metadata section";

const NO_FOOTER: &str = "missing or truncated footer (every writer-produced file ends in CEND)";

fn check_input_len(len: u64, what: &str, limits: &ReadLimits) -> Result<(), StoreError> {
    if len > limits.max_input_bytes as u64 {
        return Err(StoreError::Limit {
            kind: LimitKind::InputBytes,
            message: format!(
                "{what} is {len} bytes, exceeding the limit of {} bytes",
                limits.max_input_bytes
            ),
        });
    }
    Ok(())
}

/// Parses the section table and picks out the three sections every
/// version-1 file carries: `(METADATA, CHUNKCRC, SEVERITY)`. Every entry
/// must end within `extent`.
fn parse_sections(table: &[u8], extent: u64) -> Result<(Section, Section, Section), StoreError> {
    let (mut meta, mut crcs, mut sev) = (None, None, None);
    for entry in table.chunks_exact(SECTION_ENTRY_LEN) {
        let s = Section::decode(entry)?;
        if s.offset % 8 != 0 {
            return Err(StoreError::format(format!(
                "section {} offset {} is not 8-byte aligned",
                s.kind, s.offset
            )));
        }
        if s.offset
            .checked_add(s.length)
            .is_none_or(|end| end > extent)
        {
            return Err(StoreError::format(format!(
                "section {} extends past the file",
                s.kind
            )));
        }
        let slot = match s.kind {
            SEC_METADATA => &mut meta,
            SEC_CHUNKCRC => &mut crcs,
            SEC_SEVERITY => &mut sev,
            _ => continue, // unknown sections are skippable by design
        };
        if slot.replace(s).is_some() {
            return Err(StoreError::format(format!(
                "duplicate section of kind {}",
                s.kind
            )));
        }
    }
    match (meta, crcs, sev) {
        (Some(meta), Some(crcs), Some(sev)) => Ok((meta, crcs, sev)),
        (None, _, _) => Err(StoreError::format("missing metadata section")),
        (_, None, _) => Err(StoreError::format("missing chunk-CRC section")),
        (_, _, None) => Err(StoreError::format("missing severity section")),
    }
}

fn verify_section(bytes: &[u8], s: &Section, what: &str) -> Result<(), StoreError> {
    let actual = crc32(bytes);
    if actual != s.crc {
        return Err(StoreError::Checksum {
            expected: s.crc,
            actual,
            context: what.to_string(),
        });
    }
    Ok(())
}

/// Decodes the chunk-CRC section: `(values per chunk, per-chunk CRCs)`.
fn parse_chunk_table(bytes: &[u8], sev_len: usize) -> Result<(usize, Vec<u32>), StoreError> {
    let mut cur = Cursor::new(bytes);
    let chunk_values = cur.u32("chunk size")? as usize;
    if chunk_values == 0 {
        return Err(StoreError::format("chunk size of zero values"));
    }
    let n = cur.u32("chunk count")? as usize;
    if n != chunk_count(sev_len, chunk_values) {
        return Err(StoreError::format(format!(
            "chunk table lists {n} chunks but the severity section needs {}",
            chunk_count(sev_len, chunk_values)
        )));
    }
    let crcs = cur.bytes(n * 4, "chunk CRC")?;
    if cur.remaining() != 0 {
        return Err(StoreError::format("chunk table has trailing bytes"));
    }
    Ok((
        chunk_values,
        crcs.chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect(),
    ))
}

/// The whole-file CRC the footer closing `tail` (the last bytes of a
/// `file_len`-byte file) records, when its magic and recorded length
/// are intact.
fn footer_crc(tail: &[u8], file_len: u64) -> Option<u32> {
    let footer = &tail[tail.len().checked_sub(FOOTER_LEN)?..];
    (footer[12..] == FOOTER_MAGIC && footer[4..12] == file_len.to_le_bytes())
        .then(|| u32::from_le_bytes(footer[..4].try_into().unwrap()))
}

/// Checks the 16-byte footer against the file, returning the XML
/// layer's [`FooterStatus`] so both formats report integrity the same
/// way. `Absent` means the trailer is missing or mangled beyond
/// recognition (e.g. the file was truncated).
fn check_store_footer(bytes: &[u8]) -> FooterStatus {
    let Some(expected) = footer_crc(bytes, bytes.len() as u64) else {
        return FooterStatus::Absent;
    };
    let actual = crc32(&bytes[..bytes.len() - FOOTER_LEN]);
    if expected == actual {
        FooterStatus::Valid
    } else {
        FooterStatus::Mismatch { expected, actual }
    }
}

/// Where `Layout::parse` gets its bytes: `read(offset, len, what)`
/// returns the `len` bytes at `offset`, the structure named `what`.
type Source<'a> = dyn FnMut(u64, usize, &str) -> Result<Cow<'a, [u8]>, StoreError> + 'a;

/// Everything a container holds outside its severity pages, and where
/// those pages lie.
struct Layout {
    metadata: Metadata,
    provenance: Provenance,
    /// Absolute offset of the severity section.
    sev_offset: u64,
    /// Byte length of the severity section: 8 per value of the shape.
    sev_len: usize,
    /// Values per page.
    chunk_values: usize,
    /// The CRC-32 recorded for each page.
    chunk_crcs: Vec<u32>,
}

impl Layout {
    /// Parses header → section table → METADATA → CHUNKCRC → shape.
    ///
    /// `read` is asked only for ranges already checked to end within the
    /// first `body` bytes, the ones the reader may trust. Every
    /// section-table entry must end within `extent`.
    fn parse<'a>(
        body: u64,
        extent: u64,
        limits: &ReadLimits,
        read: &mut Source<'a>,
    ) -> Result<Self, StoreError> {
        let mut fetch = |offset: u64, len: u64, what: &str| match offset.checked_add(len) {
            Some(end) if end <= body => read(offset, len as usize, what),
            _ => Err(StoreError::format(format!("{what} extends past the file"))),
        };
        if body < HEADER_LEN as u64 {
            return Err(StoreError::format("file is shorter than its header"));
        }
        let header = fetch(0, HEADER_LEN as u64, "header")?;
        let mut cur = Cursor::new(&header);
        if cur.bytes(8, "file magic")? != MAGIC {
            return Err(StoreError::format("magic bytes do not match"));
        }
        let version = cur.u32("format version")?;
        if version != VERSION {
            return Err(StoreError::format(format!(
                "unsupported format version {version} (this reader understands {VERSION})"
            )));
        }
        let count = u64::from(cur.u32("section count")?);
        let table_offset = cur.u64("section table offset")?;
        let table = fetch(
            table_offset,
            count * SECTION_ENTRY_LEN as u64,
            "section table",
        )?;
        let (meta, crcs, sev) = parse_sections(&table, extent)?;

        let meta_bytes = fetch(meta.offset, meta.length, METADATA)?;
        verify_section(&meta_bytes, &meta, METADATA)?;
        let (metadata, provenance) = decode_metadata(&meta_bytes, limits)?;

        let crc_bytes = fetch(crcs.offset, crcs.length, "chunk-CRC section")?;
        verify_section(&crc_bytes, &crcs, "chunk-CRC section")?;
        let sev_len = sev.length as usize;
        let (chunk_values, chunk_crcs) = parse_chunk_table(&crc_bytes, sev_len)?;

        let (nm, nc, nt) = metadata.shape();
        // Each extent came from a u32 field, so the product cannot wrap.
        let need = nm as u128 * nc as u128 * nt as u128 * 8;
        if need != u128::from(sev.length) {
            return Err(StoreError::format(format!(
                "severity section is {sev_len} bytes but the shape {:?} needs {need}",
                (nm, nc, nt)
            )));
        }
        Ok(Self {
            metadata,
            provenance,
            sev_offset: sev.offset,
            sev_len,
            chunk_values,
            chunk_crcs,
        })
    }

    /// [`Layout::parse`] over an in-memory image, all of it trusted.
    fn parse_image(image: &[u8], extent: u64, limits: &ReadLimits) -> Result<Self, StoreError> {
        Self::parse(image.len() as u64, extent, limits, &mut |offset, len, _| {
            Ok(Cow::Borrowed(&image[offset as usize..][..len]))
        })
    }

    /// The page check: decodes the severity values from `present`, the
    /// leading bytes of the severity section, one page at a time,
    /// comparing each page's CRC-32 with the chunk table. A page that is
    /// missing or fails its CRC goes to `lost` with its error; the page
    /// reads as zeros if `lost` returns `Ok`.
    fn decode_pages(
        &self,
        present: &[u8],
        lost: &mut dyn FnMut(usize, StoreError) -> Result<(), StoreError>,
    ) -> Result<Vec<f64>, StoreError> {
        let page_bytes = self.chunk_values * 8;
        let mut values = Vec::with_capacity(self.sev_len / 8);
        for (k, &expected) in self.chunk_crcs.iter().enumerate() {
            let lo = k * page_bytes;
            let hi = lo + page_bytes.min(self.sev_len - lo);
            let err = match present.get(lo..hi) {
                None => StoreError::format("severity pages truncated"),
                Some(page) => {
                    let actual = crc32(page);
                    if actual == expected {
                        let decode = |v: &[u8]| f64::from_le_bytes(v.try_into().unwrap());
                        values.extend(page.chunks_exact(8).map(decode));
                        continue;
                    }
                    StoreError::Checksum {
                        expected,
                        actual,
                        context: self.page_context(k),
                    }
                }
            };
            lost(k, err)?;
            values.resize(hi / 8, 0.0);
        }
        Ok(values)
    }

    /// Names the first severity tuple page `k` covers, for recovery and
    /// corruption messages: `severity chunk K (metric 'NAME', cnode C)`.
    fn page_context(&self, k: usize) -> String {
        let (_, nc, nt) = self.metadata.shape();
        let v = k * self.chunk_values;
        if nc == 0 || nt == 0 {
            return format!("severity chunk {k}");
        }
        let m = v / (nc * nt);
        let c = (v / nt) % nc;
        match self.metadata.metrics().get(m) {
            Some(metric) => format!("severity chunk {k} (metric '{}', cnode {c})", metric.name),
            None => format!("severity chunk {k}"),
        }
    }

    fn into_parts(self, values: Vec<f64>) -> (Metadata, Severity, Provenance) {
        let (nm, nc, nt) = self.metadata.shape();
        let sev = Severity::from_values(nm, nc, nt, values);
        (self.metadata, sev, self.provenance)
    }
}

// ---------------------------------------------------------------------------
// strict full decode
// ---------------------------------------------------------------------------

/// Decodes a complete in-memory `.cubec` image, verifying the footer,
/// every section CRC, and every severity chunk CRC.
pub fn read_store(bytes: &[u8], limits: &ReadLimits) -> Result<Experiment, StoreError> {
    check_input_len(bytes.len() as u64, "file", limits)?;
    let (md, sev, prov) = read_store_parts(bytes, limits)?;
    Experiment::new(md, sev, prov).map_err(StoreError::Model)
}

/// Like [`read_store`] but returns the raw parts without running the
/// data-model validation, so the linter can report *all* model
/// violations instead of the first.
pub(crate) fn read_store_parts(
    bytes: &[u8],
    limits: &ReadLimits,
) -> Result<(Metadata, Severity, Provenance), StoreError> {
    match check_store_footer(bytes) {
        FooterStatus::Valid => {}
        FooterStatus::Absent => return Err(StoreError::format(NO_FOOTER)),
        FooterStatus::Mismatch { expected, actual } => {
            return Err(StoreError::Checksum {
                expected,
                actual,
                context: "whole file".into(),
            })
        }
    }
    let body = &bytes[..bytes.len() - FOOTER_LEN];
    let layout = Layout::parse_image(body, body.len() as u64, limits)?;
    let pages = &body[layout.sev_offset as usize..][..layout.sev_len];
    let values = layout.decode_pages(pages, &mut |_, e| Err(e))?;
    Ok(layout.into_parts(values))
}

/// Reads and strictly decodes a `.cubec` file with default limits.
pub fn read_store_file(path: impl AsRef<Path>) -> Result<Experiment, StoreError> {
    let limits = ReadLimits::default();
    read_store(&read_limited(path.as_ref(), &limits)?, &limits)
}

/// Reads a file after checking its size against the input limit, so an
/// oversized file is refused before its bytes are pulled in. The bytes
/// pass through the [`cube_xml::faults`] seam (site `store.file`) so a
/// fault harness can exercise the strict-read and salvage paths.
fn read_limited(path: &Path, limits: &ReadLimits) -> Result<Vec<u8>, StoreError> {
    let err = |e: std::io::Error| StoreError::io_at(path, e);
    let len = std::fs::metadata(path).map_err(err)?.len();
    check_input_len(len, "file", limits)?;
    let mut bytes = std::fs::read(path).map_err(err)?;
    if let Some(e) = cube_xml::faults::inject("store.file", &mut bytes) {
        return Err(StoreError::io_at(path, e));
    }
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// lazy columnar handle
// ---------------------------------------------------------------------------

/// A `.cubec` file opened lazily: metadata decoded, severity pages left
/// on disk until first touch.
///
/// Opening reads only the footer, header, section table, metadata
/// section, and chunk-CRC table — a few kilobytes regardless of how
/// large the severity data is. The dense severity values are loaded
/// (and their chunk CRCs verified) on the first call to
/// [`severity`](Self::severity) and cached; the batch engine gathers
/// straight from that borrowed page via the
/// [`BatchOperand`] impl, never materializing an
/// [`Experiment`].
pub struct ColumnarExperiment {
    path: PathBuf,
    layout: Layout,
    cache: OnceLock<Vec<f64>>,
}

impl ColumnarExperiment {
    /// Opens a `.cubec` file lazily with default limits.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(path, &ReadLimits::default())
    }

    /// Opens a `.cubec` file lazily with explicit limits.
    ///
    /// The footer's magic and recorded length are checked (so plain
    /// truncation is caught at open time) but the whole-file CRC is
    /// *not* computed — that would force reading every severity page,
    /// defeating the point of a lazy open. Severity chunks are CRC-
    /// verified when they are first loaded; use
    /// [`read_store_file`] when full up-front verification is wanted.
    ///
    /// The decoded metadata must pass [`Metadata::validate`], so a
    /// handle never carries a reference that would index past a table;
    /// a violation is [`StoreError::Model`].
    pub fn open_with(path: impl AsRef<Path>, limits: &ReadLimits) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let err = |e: std::io::Error| StoreError::io_at(path, e);
        let mut f = File::open(path).map_err(err)?;
        let file_len = f.metadata().map_err(err)?.len();
        check_input_len(file_len, "file", limits)?;
        let body = file_len.saturating_sub(FOOTER_LEN as u64);
        let tail = read_at(&mut f, body, (file_len - body) as usize, path)?;
        if footer_crc(&tail, file_len).is_none() {
            return Err(StoreError::format(NO_FOOTER));
        }
        let layout = Layout::parse(body, body, limits, &mut |offset, len, what| {
            let mut bytes = read_at(&mut f, offset, len, path)?;
            // Fault seam at the repository-open boundary: an injected
            // byte flip in the metadata is caught by its section CRC,
            // i.e. the production corruption path, not a synthetic error.
            if what == METADATA {
                if let Some(e) = cube_xml::faults::inject("store.open", &mut bytes) {
                    return Err(StoreError::io_at(path, e));
                }
            }
            Ok(Cow::Owned(bytes))
        })?;
        layout.metadata.validate()?;
        Ok(Self {
            path: path.to_path_buf(),
            layout,
            cache: OnceLock::new(),
        })
    }

    /// The decoded metadata.
    pub fn metadata(&self) -> &Metadata {
        &self.layout.metadata
    }

    /// The decoded provenance.
    pub fn provenance(&self) -> &Provenance {
        &self.layout.provenance
    }

    /// The severity shape `(metrics, call nodes, threads)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        self.layout.metadata.shape()
    }

    /// Whether the severity pages have been pulled into memory yet.
    pub fn is_loaded(&self) -> bool {
        self.cache.get().is_some()
    }

    /// The dense severity values, loading and CRC-verifying the pages
    /// from disk on first call. Subsequent calls borrow the cache. The
    /// loaded values must pass the value rule of
    /// [`Experiment::validate`] (no NaN); a violation is
    /// [`StoreError::Model`].
    pub fn severity(&self) -> Result<&[f64], StoreError> {
        if let Some(v) = self.cache.get() {
            return Ok(v);
        }
        let v = self.load_severity()?;
        Ok(self.cache.get_or_init(|| v))
    }

    fn load_severity(&self) -> Result<Vec<f64>, StoreError> {
        let mut f = File::open(&self.path).map_err(|e| StoreError::io_at(&self.path, e))?;
        let mut bytes = read_at(
            &mut f,
            self.layout.sev_offset,
            self.layout.sev_len,
            &self.path,
        )?;
        // Fault seam at the severity-page boundary: corruption injected
        // here trips the page check below. A failed load does not
        // poison the OnceLock cache, so a later retry can succeed.
        if let Some(e) = cube_xml::faults::inject("store.severity", &mut bytes) {
            return Err(StoreError::io_at(&self.path, e));
        }
        let values = self.layout.decode_pages(&bytes, &mut |_, e| Err(e))?;
        validate_values(&values, self.shape())?;
        Ok(values)
    }
}

impl BatchOperand for ColumnarExperiment {
    fn metadata(&self) -> &Metadata {
        &self.layout.metadata
    }

    fn provenance(&self) -> &Provenance {
        &self.layout.provenance
    }

    fn severity_shape(&self) -> (usize, usize, usize) {
        self.shape()
    }

    /// Panics if the severity pages cannot be read or fail their CRCs;
    /// call [`ColumnarExperiment::severity`] first to surface I/O and
    /// corruption errors through `Result`.
    fn severity_values(&self) -> &[f64] {
        self.severity()
            .expect("severity pages unreadable; call ColumnarExperiment::severity() first")
    }
}

fn read_at(f: &mut File, offset: u64, len: usize, path: &Path) -> Result<Vec<u8>, StoreError> {
    let err = |e: std::io::Error| StoreError::io_at(path, e);
    f.seek(SeekFrom::Start(offset)).map_err(err)?;
    let mut buf = vec![0u8; len];
    f.read_exact(&mut buf).map_err(err)?;
    Ok(buf)
}

// ---------------------------------------------------------------------------
// salvage
// ---------------------------------------------------------------------------

/// What the `.cubec` salvage reader managed to recover, mirroring
/// [`cube_xml::SalvageReport`] for the binary format.
#[derive(Clone, Debug)]
pub struct StoreReport {
    /// `true` when nothing was lost: every chunk intact and the
    /// whole-file checksum (when verifiable) matched.
    pub complete: bool,
    /// Severity chunks recovered intact; damaged chunks read as zero
    /// (the algebra's zero-extension convention).
    pub chunks_recovered: usize,
    /// Total severity chunks the file declares.
    pub chunks_total: usize,
    /// Human-readable description of the first loss, `None` when
    /// nothing was lost.
    pub loss: Option<String>,
    /// Which structure the first loss hit, e.g.
    /// `severity chunk 3 (metric 'time', cnode 7)`.
    pub context: Option<String>,
    /// Outcome of the whole-file checksum verification.
    pub checksum: FooterStatus,
}

/// Salvages what it can from a damaged `.cubec` file.
///
/// The header, section table, metadata section, and chunk-CRC table
/// are *structural*: damage there is unrecoverable and returns an
/// error, and so does a severity section that would make the file
/// larger than `limits.max_input_bytes`. Damage confined to severity
/// pages — a truncated tail, a flipped byte failing its chunk CRC —
/// zeroes exactly the affected chunks and reports them, with the
/// experiment's provenance rewrapped as [`Provenance::Recovered`]
/// naming the damaged structure. The recovered experiment must pass
/// the data-model check, as the XML salvage's must; a violation is
/// [`StoreError::Model`].
///
/// *origin* is the name the recovery provenance note should call the
/// damaged store. When the bytes live inside a hash-sharded repository
/// (or pass through a staging temp file), the transient filesystem path
/// is the wrong name for the lineage record; the caller passes the
/// durable one — e.g. the repository-relative `objects/ab/….cubec`.
/// With `origin: None` the note names no file.
pub fn salvage_store_file_as(
    path: impl AsRef<Path>,
    origin: Option<&str>,
    limits: &ReadLimits,
) -> Result<(Experiment, StoreReport), StoreError> {
    let path = path.as_ref();
    let bytes = read_limited(path, limits)?;
    let checksum = check_store_footer(&bytes);
    // A truncated file has no trailer to trust, and its severity pages
    // may run past the cut: only the structure must be present.
    let body = match checksum {
        FooterStatus::Absent => &bytes[..],
        _ => &bytes[..bytes.len() - FOOTER_LEN],
    };
    let layout = Layout::parse_image(body, u64::MAX, limits)?;
    // Salvage never builds what the strict reader's limits would refuse.
    let sev_end = layout.sev_offset + layout.sev_len as u64;
    check_input_len(
        sev_end.saturating_add(FOOTER_LEN as u64),
        "the declared file",
        limits,
    )?;

    let present = body.get(layout.sev_offset as usize..).unwrap_or_default();
    let mut lost = 0;
    let mut first = None;
    let values = layout.decode_pages(present, &mut |k, e| {
        lost += 1;
        if first.is_none() {
            let what = match e {
                StoreError::Checksum { .. } => "severity page failed its checksum",
                _ => "severity pages truncated",
            };
            first = Some((what.to_string(), layout.page_context(k)));
        }
        Ok(())
    })?;

    let chunks_total = layout.chunk_crcs.len();
    let complete = lost == 0 && !checksum.is_mismatch();
    let (md, sev, prov) = layout.into_parts(values);
    let mut exp = Experiment::new(md, sev, prov)?;
    if !complete {
        let what = match &first {
            Some((what, context)) => format!("{what} in {context}"),
            None => "checksum mismatch".to_string(),
        };
        let origin = origin.map_or(String::new(), |o| format!("{o}: "));
        let note = format!(
            "{origin}{what}; {} of {chunks_total} chunks recovered",
            chunks_total - lost
        );
        let source = exp.provenance().label();
        exp.set_provenance(Provenance::recovered(source, note));
    }
    let (loss, context) = first.unzip();
    let report = StoreReport {
        complete,
        chunks_recovered: chunks_total - lost,
        chunks_total,
        loss,
        context,
        checksum,
    };
    Ok((exp, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::{write_store, write_store_file};
    use cube_model::builder::single_threaded_system;
    use cube_model::{
        CallNode, CallNodeId, CallSite, ExperimentBuilder, ModelError, ModuleId, Region,
        RegionKind, Unit,
    };

    fn sample(threads: usize) -> Experiment {
        let mut b = ExperimentBuilder::new("read test");
        let time = b.def_metric("time", Unit::Seconds, "total", None);
        let mpi = b.def_metric("mpi", Unit::Seconds, "mpi", Some(time));
        let m = b.def_module("a.c", "/a.c");
        let r = b.def_region("main", m, RegionKind::Function, 1, 9);
        let cs = b.def_call_site("a.c", 1, r);
        let root = b.def_call_node(cs, None);
        let child = b.def_call_node(cs, Some(root));
        let ts = single_threaded_system(&mut b, threads);
        for (i, &t) in ts.iter().enumerate() {
            b.set_severity(time, root, t, 1.0 + i as f64);
            b.set_severity(mpi, child, t, 0.5 * i as f64);
        }
        b.build().unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cube-store-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn strict_roundtrip() {
        let exp = sample(3);
        let bytes = write_store(&exp);
        let back = read_store(&bytes, &ReadLimits::default()).unwrap();
        assert_eq!(exp, back);
    }

    #[test]
    fn lazy_open_defers_severity() {
        let exp = sample(2);
        let d = tmpdir("lazy");
        let p = d.join("a.cubec");
        write_store_file(&exp, &p).unwrap();
        let col = ColumnarExperiment::open(&p).unwrap();
        assert!(!col.is_loaded());
        assert_eq!(col.metadata(), exp.metadata());
        assert_eq!(col.provenance(), exp.provenance());
        assert_eq!(col.shape(), exp.severity().shape());
        assert_eq!(col.severity().unwrap(), exp.severity().values());
        assert!(col.is_loaded());
    }

    /// `exp` plus a region of module 99 that a call path reaches: every
    /// CRC of its store is valid, its metadata is not.
    fn dangling_module(exp: &Experiment) -> Experiment {
        let mut md = exp.metadata().clone();
        let region = md.add_region(Region {
            name: "ghost".into(),
            module: ModuleId::new(99),
            kind: RegionKind::Function,
            begin_line: 1,
            end_line: 1,
        });
        let call_site = md.add_call_site(CallSite {
            file: "a.c".into(),
            line: 2,
            callee: region,
        });
        md.add_call_node(CallNode {
            call_site,
            parent: Some(CallNodeId::new(0)),
        });
        let (nm, nc, nt) = md.shape();
        let sev = Severity::zeros(nm, nc, nt);
        Experiment::new_unchecked(md, sev, exp.provenance().clone())
    }

    #[test]
    fn every_reader_refuses_a_store_that_violates_the_model() {
        let d = tmpdir("model");
        let p = d.join("dangling.cubec");
        write_store_file(&dangling_module(&sample(2)), &p).unwrap();
        let model = |r: Result<(), StoreError>| matches!(r, Err(StoreError::Model(_)));
        assert!(model(read_store_file(&p).map(drop)));
        assert!(model(ColumnarExperiment::open(&p).map(drop)));
        let salvaged = salvage_store_file_as(&p, None, &ReadLimits::default());
        assert!(model(salvaged.map(drop)));

        let mut exp = sample(2);
        exp.severity_mut().values_mut()[3] = f64::NAN;
        let p = d.join("nan.cubec");
        write_store_file(&exp, &p).unwrap();
        let col = ColumnarExperiment::open(&p).unwrap();
        let err = col.severity().unwrap_err();
        assert!(
            matches!(err, StoreError::Model(ModelError::NanSeverity { .. })),
            "{err}"
        );
        assert!(!col.is_loaded());
        assert!(model(read_store_file(&p).map(drop)));
    }

    #[test]
    fn flipped_severity_byte_fails_strict_read_with_context() {
        let exp = sample(2);
        let mut bytes = write_store(&exp);
        // Flip a byte inside the severity section (the last section).
        let n = bytes.len();
        bytes[n - FOOTER_LEN - 5] ^= 0xff;
        let err = read_store(&bytes, &ReadLimits::default()).unwrap_err();
        // Whole-file CRC trips first on a full strict read.
        assert!(matches!(err, StoreError::Checksum { .. }), "{err}");
    }

    #[test]
    fn lazy_open_catches_chunk_corruption_on_load() {
        let exp = sample(2);
        let d = tmpdir("chunk");
        let p = d.join("bad.cubec");
        let mut bytes = write_store(&exp);
        let n = bytes.len();
        bytes[n - FOOTER_LEN - 5] ^= 0xff;
        std::fs::write(&p, &bytes).unwrap();
        // Open succeeds (structure intact), the load reports the chunk.
        let col = ColumnarExperiment::open(&p).unwrap();
        let err = col.severity().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("severity chunk 0"), "{msg}");
        assert!(msg.contains("metric 'time'"), "{msg}");
    }

    #[test]
    fn salvage_zeroes_damaged_chunks_and_rewraps_provenance() {
        let exp = sample(2);
        let d = tmpdir("salvage");
        let p = d.join("bad.cubec");
        let mut bytes = write_store(&exp);
        let n = bytes.len();
        bytes[n - FOOTER_LEN - 5] ^= 0xff;
        std::fs::write(&p, &bytes).unwrap();
        let (rec, report) = salvage_store_file_as(&p, None, &ReadLimits::default()).unwrap();
        assert!(!report.complete);
        assert_eq!(report.chunks_total, 1);
        assert_eq!(report.chunks_recovered, 0);
        assert!(report.checksum.is_mismatch());
        assert!(report.context.as_deref().unwrap().contains("metric 'time'"));
        assert!(rec.severity().values().iter().all(|&v| v == 0.0));
        assert!(rec.provenance().is_recovered());
        let label = match rec.provenance() {
            Provenance::Recovered { note, .. } => note.clone(),
            _ => unreachable!(),
        };
        assert!(label.contains("0 of 1 chunks recovered"), "{label}");
    }

    #[test]
    fn salvage_of_truncated_file_keeps_leading_chunks() {
        // Enough threads to span several chunks: 2 metrics × 2 cnodes ×
        // 3000 threads = 12000 values ≈ 3 chunks of 4096.
        let exp = sample(3000);
        let d = tmpdir("trunc");
        let p = d.join("t.cubec");
        let bytes = write_store(&exp);
        let cut = bytes.len() - FOOTER_LEN - 6000; // into the last chunk
        std::fs::write(&p, &bytes[..cut]).unwrap();
        let (rec, report) = salvage_store_file_as(&p, None, &ReadLimits::default()).unwrap();
        assert!(!report.complete);
        assert_eq!(report.checksum, FooterStatus::Absent);
        assert_eq!(report.chunks_total, 3);
        assert_eq!(report.chunks_recovered, 2);
        assert!(report.loss.as_deref().unwrap().contains("truncated"));
        // The surviving prefix matches the original values.
        let keep = 2 * 4096;
        assert_eq!(
            &rec.severity().values()[..keep],
            &exp.severity().values()[..keep]
        );
        assert!(rec.severity().values()[keep..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn salvage_refuses_damaged_metadata() {
        let exp = sample(2);
        let d = tmpdir("meta");
        let p = d.join("m.cubec");
        let mut bytes = write_store(&exp);
        bytes[HEADER_LEN + 3 * SECTION_ENTRY_LEN + 9] ^= 0xff; // inside the dictionary
        std::fs::write(&p, &bytes).unwrap();
        let err = salvage_store_file_as(&p, None, &ReadLimits::default()).unwrap_err();
        assert!(matches!(err, StoreError::Checksum { .. }), "{err}");
        assert!(err.to_string().contains("metadata section"), "{err}");
    }

    #[test]
    fn salvage_of_intact_file_is_complete() {
        let exp = sample(2);
        let d = tmpdir("ok");
        let p = d.join("ok.cubec");
        write_store_file(&exp, &p).unwrap();
        let (rec, report) = salvage_store_file_as(&p, None, &ReadLimits::default()).unwrap();
        assert!(report.complete);
        assert_eq!(report.checksum, FooterStatus::Valid);
        assert!(report.loss.is_none() && report.context.is_none());
        assert_eq!(rec, exp);
    }

    #[test]
    fn truncation_into_structure_is_unrecoverable() {
        let exp = sample(2);
        let d = tmpdir("hdr");
        let p = d.join("h.cubec");
        let bytes = write_store(&exp);
        std::fs::write(&p, &bytes[..40]).unwrap();
        assert!(salvage_store_file_as(&p, None, &ReadLimits::default()).is_err());
    }

    #[test]
    fn input_size_limit_applies() {
        let exp = sample(2);
        let d = tmpdir("limit");
        let p = d.join("l.cubec");
        write_store_file(&exp, &p).unwrap();
        let limits = ReadLimits {
            max_input_bytes: 10,
            ..ReadLimits::default()
        };
        let err = read_store(&std::fs::read(&p).unwrap(), &limits).unwrap_err();
        assert!(is_input_limit(&err), "{err}");
        let err = salvage_store_file_as(&p, None, &limits).unwrap_err();
        assert!(is_input_limit(&err), "{err}");
        assert!(ColumnarExperiment::open_with(&p, &limits).is_err());
    }

    fn is_input_limit(err: &StoreError) -> bool {
        matches!(
            err,
            StoreError::Limit {
                kind: LimitKind::InputBytes,
                ..
            }
        )
    }

    #[test]
    fn forged_table_offset_is_a_format_error_in_every_reader() {
        // `cube pack tests/fixtures/valid/full.cube` with the header's
        // section-table offset set to 2^64 - 32 and the footer resealed:
        // the offset plus the table length wraps around.
        let bytes = include_bytes!("../../../tests/fixtures/corrupt/forged_table_offset.cubec");
        assert_eq!(
            u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
            0u64.wrapping_sub(32)
        );
        let is_format = |r: Result<(), StoreError>| match r {
            Err(StoreError::Format { message }) => message.contains("section table"),
            _ => false,
        };
        assert!(is_format(
            read_store(bytes, &ReadLimits::default()).map(drop)
        ));
        let d = tmpdir("forged");
        let p = d.join("forged.cubec");
        std::fs::write(&p, bytes).unwrap();
        let lazy = ColumnarExperiment::open(&p).and_then(|col| col.severity().map(drop));
        assert!(is_format(lazy));
        assert!(is_format(
            salvage_store_file_as(&p, None, &ReadLimits::default()).map(drop)
        ));
        let report = crate::lint_file(&p);
        assert_eq!(report.diagnostics().len(), 1, "{report}");
        assert_eq!(report.diagnostics()[0].code.as_str(), "E103");
    }

    #[test]
    fn salvage_refuses_a_declared_size_over_the_input_limit() {
        // 1024 metrics x 1024 call nodes x 1 thread: an 8 MiB severity
        // section, cut off where it starts, so the file present is small.
        let mut b = ExperimentBuilder::new("wide");
        let m = b.def_module("a.c", "/a.c");
        let r = b.def_region("main", m, RegionKind::Function, 1, 9);
        let cs = b.def_call_site("a.c", 1, r);
        let root = b.def_call_node(cs, None);
        for _ in 1..1024 {
            b.def_call_node(cs, Some(root));
        }
        for i in 0..1024 {
            b.def_metric(format!("m{i}"), Unit::Seconds, "", None);
        }
        single_threaded_system(&mut b, 1);
        let bytes = write_store(&b.build().unwrap());
        let sev = Section::decode(&bytes[HEADER_LEN + 2 * SECTION_ENTRY_LEN..]).unwrap();
        assert_eq!((sev.kind, sev.length), (SEC_SEVERITY, 8 << 20));
        let d = tmpdir("declared");
        let p = d.join("wide.cubec");
        std::fs::write(&p, &bytes[..sev.offset as usize]).unwrap();
        let limits = ReadLimits {
            max_input_bytes: 1 << 20,
            ..ReadLimits::default()
        };
        let err = salvage_store_file_as(&p, None, &limits).unwrap_err();
        assert!(is_input_limit(&err), "{err}");
        // Under the default limits the same cut salvages, every page lost.
        let (rec, report) = salvage_store_file_as(&p, None, &ReadLimits::default()).unwrap();
        assert_eq!((report.chunks_recovered, report.chunks_total), (0, 256));
        assert_eq!(rec.severity().values().len(), 1 << 20);
    }

    #[test]
    fn not_a_cubec_file_is_a_format_error() {
        let err =
            read_store(b"<?xml version=\"1.0\"?><cube/>", &ReadLimits::default()).unwrap_err();
        assert!(matches!(err, StoreError::Format { .. }), "{err}");
    }
}
