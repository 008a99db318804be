//! On-disk layout constants and byte-level helpers for `.cubec`.
//!
//! The normative specification lives in `docs/STORE.md`; the constants
//! here mirror it one for one. All multi-byte integers are
//! little-endian; all section offsets are 8-byte aligned so an
//! mmap-based reader can overlay the severity pages directly.

use crate::error::StoreError;

/// File magic: `\x89` + `CUBEC` + CRLF. The high first byte catches
/// 7-bit transmission damage, the CRLF catches newline translation —
/// the same defensive prefix PNG uses.
pub const MAGIC: [u8; 8] = [0x89, b'C', b'U', b'B', b'E', b'C', 0x0D, 0x0A];

/// Current (and only) format version.
pub const VERSION: u32 = 1;

/// Byte length of the fixed file header.
pub const HEADER_LEN: usize = 32;

/// Byte length of one section-table entry.
pub const SECTION_ENTRY_LEN: usize = 32;

/// Byte length of the fixed file footer.
pub const FOOTER_LEN: usize = 16;

/// Magic closing the footer.
pub const FOOTER_MAGIC: [u8; 4] = *b"CEND";

/// Section kind: dictionary-encoded metadata tree.
pub const SEC_METADATA: u32 = 1;

/// Section kind: dense severity values, one f64 per tuple.
pub const SEC_SEVERITY: u32 = 2;

/// Section kind: per-chunk CRC-32 table covering the severity section.
pub const SEC_CHUNKCRC: u32 = 3;

/// Severity values per chunk (page): 4096 values = 32 KiB pages.
///
/// The fused evaluation kernels split their parallel work into blocks
/// of exactly this many elements ([`cube_algebra::kernel::BLOCK_VALUES`],
/// pinned equal by a test below), so a fused pass over columnar
/// operands streams decoded severity data page by page — each worker
/// holds one page-sized working set per operand at a time.
pub const CHUNK_VALUES: usize = 4096;

/// Encoding of "no parent" / "no reference" in u32 id fields.
pub const NONE_ID: u32 = u32::MAX;

/// Rounds `n` up to the next multiple of 8.
pub fn align8(n: usize) -> usize {
    (n + 7) & !7
}

/// One entry of the section table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Section {
    /// Section kind (`SEC_*`).
    pub kind: u32,
    /// Absolute byte offset of the section payload (8-byte aligned).
    pub offset: u64,
    /// Unpadded payload length in bytes.
    pub length: u64,
    /// CRC-32 of the payload; 0 for the severity section, which is
    /// covered per-chunk instead.
    pub crc: u32,
}

impl Section {
    /// Encodes the 32-byte table entry.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.kind.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // flags
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.length.to_le_bytes());
        out.extend_from_slice(&self.crc.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // pad
    }

    /// Decodes a 32-byte table entry.
    pub fn decode(buf: &[u8]) -> Result<Self, StoreError> {
        if buf.len() < SECTION_ENTRY_LEN {
            return Err(StoreError::format("section table entry is truncated"));
        }
        Ok(Self {
            kind: u32::from_le_bytes(buf[0..4].try_into().unwrap()),
            offset: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            length: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
            crc: u32::from_le_bytes(buf[24..28].try_into().unwrap()),
        })
    }
}

/// A little-endian read cursor over a byte slice. Every accessor fails
/// with a [`StoreError::Format`] instead of panicking so damaged input
/// can never take the process down.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::format(format!(
                "unexpected end of data while reading {what}"
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one `u8`.
    pub fn u8(&mut self, what: &str) -> Result<u8, StoreError> {
        Ok(self.bytes(1, what)?[0])
    }

    /// Reads one little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.bytes(4, what)?.try_into().unwrap()))
    }

    /// Reads one little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.bytes(8, what)?.try_into().unwrap()))
    }
}

/// Number of chunks covering `len` bytes of severity data.
pub fn chunk_count(len: usize, chunk_values: usize) -> usize {
    let chunk_bytes = chunk_values * 8;
    len.div_ceil(chunk_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_kernel_blocks_match_store_pages() {
        // Page-granular streaming: the fused evaluator's parallel block
        // is exactly one severity page, so workers consume decoded
        // `.cubec` data at the store's own granularity.
        assert_eq!(CHUNK_VALUES, cube_algebra::kernel::BLOCK_VALUES);
    }

    #[test]
    fn align8_rounds_up() {
        assert_eq!(align8(0), 0);
        assert_eq!(align8(1), 8);
        assert_eq!(align8(8), 8);
        assert_eq!(align8(9), 16);
    }

    #[test]
    fn section_roundtrip() {
        let s = Section {
            kind: SEC_METADATA,
            offset: 128,
            length: 77,
            crc: 0xdeadbeef,
        };
        let mut buf = Vec::new();
        s.encode(&mut buf);
        assert_eq!(buf.len(), SECTION_ENTRY_LEN);
        assert_eq!(Section::decode(&buf).unwrap(), s);
        assert!(Section::decode(&buf[..10]).is_err());
    }

    #[test]
    fn cursor_reports_what_ran_out() {
        let mut c = Cursor::new(&[1, 0, 0, 0]);
        assert_eq!(c.u32("count").unwrap(), 1);
        let err = c.u32("name length").unwrap_err();
        assert!(err.to_string().contains("name length"), "{err}");
    }

    #[test]
    fn chunk_count_covers_tail() {
        assert_eq!(chunk_count(0, CHUNK_VALUES), 0);
        assert_eq!(chunk_count(8, CHUNK_VALUES), 1);
        assert_eq!(chunk_count(CHUNK_VALUES * 8, CHUNK_VALUES), 1);
        assert_eq!(chunk_count(CHUNK_VALUES * 8 + 1, CHUNK_VALUES), 2);
    }
}
