//! The `.cubec` writer: canonical encoding, atomic durable commit.

use std::path::Path;

use cube_model::Experiment;
use cube_xml::footer::crc32;

use crate::error::StoreError;
use crate::layout::{
    align8, chunk_count, Section, CHUNK_VALUES, FOOTER_MAGIC, HEADER_LEN, MAGIC, SECTION_ENTRY_LEN,
    SEC_CHUNKCRC, SEC_METADATA, SEC_SEVERITY, VERSION,
};
use crate::meta::encode_metadata;

/// Encodes an experiment as a complete `.cubec` file image.
///
/// The encoding is canonical: the same experiment always produces the
/// same bytes (strings are interned in first-use order, entity tables
/// are written in id order), so `pack(unpack(x))` reproduces `x`
/// byte for byte.
pub fn write_store(exp: &Experiment) -> Vec<u8> {
    let meta = encode_metadata(exp.metadata(), exp.provenance());

    let values = exp.severity().values();
    let mut sev = Vec::with_capacity(values.len() * 8);
    for v in values {
        sev.extend_from_slice(&v.to_le_bytes());
    }

    let nchunks = chunk_count(sev.len(), CHUNK_VALUES);
    let mut crcs = Vec::with_capacity(8 + nchunks * 4);
    crcs.extend_from_slice(&(CHUNK_VALUES as u32).to_le_bytes());
    crcs.extend_from_slice(&(nchunks as u32).to_le_bytes());
    for chunk in sev.chunks(CHUNK_VALUES * 8) {
        crcs.extend_from_slice(&crc32(chunk).to_le_bytes());
    }

    // Severity pages go last so a truncated write loses data pages, not
    // the structure (and chunk CRCs) needed to describe the loss.
    let table_len = 3 * SECTION_ENTRY_LEN;
    let meta_off = align8(HEADER_LEN + table_len);
    let crcs_off = align8(meta_off + meta.len());
    let sev_off = align8(crcs_off + crcs.len());
    let body_end = sev_off + sev.len();

    let sections = [
        Section {
            kind: SEC_METADATA,
            offset: meta_off as u64,
            length: meta.len() as u64,
            crc: crc32(&meta),
        },
        Section {
            kind: SEC_CHUNKCRC,
            offset: crcs_off as u64,
            length: crcs.len() as u64,
            crc: crc32(&crcs),
        },
        Section {
            kind: SEC_SEVERITY,
            offset: sev_off as u64,
            length: sev.len() as u64,
            crc: 0, // covered per chunk
        },
    ];

    let mut out = Vec::with_capacity(body_end + 16);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    out.extend_from_slice(&(HEADER_LEN as u64).to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes()); // reserved
    for s in &sections {
        s.encode(&mut out);
    }
    out.resize(meta_off, 0);
    out.extend_from_slice(&meta);
    out.resize(crcs_off, 0);
    out.extend_from_slice(&crcs);
    out.resize(sev_off, 0);
    out.extend_from_slice(&sev);

    // Footer: whole-file CRC over everything before it, the total file
    // length footer included, and a closing magic.
    let crc = crc32(&out);
    let file_len = (out.len() + 16) as u64;
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&file_len.to_le_bytes());
    out.extend_from_slice(&FOOTER_MAGIC);
    out
}

/// Writes an experiment to a `.cubec` file: atomic and durable.
///
/// The image is committed through [`cube_xml::commit_file`], the same
/// crash-safety discipline as [`cube_xml::write_experiment_file`], so a
/// crash at any point leaves a pre-existing target byte-identical.
pub fn write_store_file(exp: &Experiment, path: impl AsRef<Path>) -> Result<(), StoreError> {
    let path = path.as_ref();
    cube_xml::commit_file(path, |out| out.write_all(&write_store(exp)))
        .map_err(|e| StoreError::io_at(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cube_model::builder::single_threaded_system;
    use cube_model::{ExperimentBuilder, RegionKind, Unit};

    fn tiny() -> Experiment {
        let mut b = ExperimentBuilder::new("writer test");
        let t = b.def_metric("time", Unit::Seconds, "", None);
        let m = b.def_module("a", "a");
        let r = b.def_region("main", m, RegionKind::Function, 1, 1);
        let cs = b.def_call_site("a", 1, r);
        let root = b.def_call_node(cs, None);
        let ts = single_threaded_system(&mut b, 1);
        b.set_severity(t, root, ts[0], 1.5);
        b.build().unwrap()
    }

    #[test]
    fn image_starts_with_magic_and_ends_with_footer() {
        let bytes = write_store(&tiny());
        assert_eq!(&bytes[..8], &MAGIC);
        assert_eq!(&bytes[bytes.len() - 4..], &FOOTER_MAGIC);
        let len = u64::from_le_bytes(bytes[bytes.len() - 12..bytes.len() - 4].try_into().unwrap());
        assert_eq!(len as usize, bytes.len());
        let crc = u32::from_le_bytes(
            bytes[bytes.len() - 16..bytes.len() - 12]
                .try_into()
                .unwrap(),
        );
        assert_eq!(crc, crc32(&bytes[..bytes.len() - 16]));
    }

    #[test]
    fn section_offsets_are_aligned() {
        let bytes = write_store(&tiny());
        for i in 0..3 {
            let entry = &bytes[HEADER_LEN + i * SECTION_ENTRY_LEN..];
            let s = Section::decode(entry).unwrap();
            assert_eq!(s.offset % 8, 0, "section {} misaligned", s.kind);
            assert!(s.offset + s.length <= (bytes.len() - 16) as u64);
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let e = tiny();
        assert_eq!(write_store(&e), write_store(&e));
    }

    #[test]
    fn file_write_is_atomic_under_a_bad_target() {
        let e = tiny();
        let err = write_store_file(&e, "/nonexistent-dir/x.cubec").unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
    }
}
