//! Deterministic fuzzing of the `.cubec` readers.
//!
//! A store is what the server opens from untrusted uploads and what
//! `cube repair` is pointed at after a crash, so no reader may panic on
//! any input, and no forged length may make one allocate past its
//! `ReadLimits`. A seeded LCG drives bit flips, random bytes, and
//! boundary values (`0`, `u32::MAX`, `u64::MAX`) written over 4- and
//! 8-byte fields of a valid store. Half of the mutants are resealed —
//! chunk CRCs, section CRCs and footer recomputed — so the damage
//! reaches the structure behind the checksums. Every truncation point
//! is tried too. Each input goes through all four readers: strict
//! `read_store`, the lazy handle and its severity load, salvage, and
//! lint. On a resealed image the readers must agree: the lazy handle
//! accepts exactly what `read_store` accepts, a complete salvage only
//! what `read_store` accepts, and an accepted handle evaluates.

use std::ops::Range;
use std::path::{Path, PathBuf};

use cube_algebra::{BatchOperand, BatchPlan, Expr, MergeOptions, Reduction};
use cube_model::builder::single_threaded_system;
use cube_model::{Experiment, ExperimentBuilder, RegionKind, Unit};
use cube_store::layout::{
    align8, Section, CHUNK_VALUES, FOOTER_LEN, FOOTER_MAGIC, HEADER_LEN, MAGIC, SECTION_ENTRY_LEN,
    SEC_CHUNKCRC, SEC_METADATA, SEC_SEVERITY, VERSION,
};
use cube_store::meta::encode_metadata;
use cube_store::{lint_file, read_store, salvage_store_file_as, write_store, ColumnarExperiment};
use cube_xml::footer::crc32;
use cube_xml::ReadLimits;

/// Minimal linear congruential generator (Numerical Recipes constants);
/// deterministic so every failure is a stable regression test.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Values per page in the seed: twelve values span three pages (5, 5
/// and a short 2), and every mutant stays a few hundred bytes.
const SEED_PAGE: usize = 5;

/// Small enough that an honest seed fits and a forged shape does not.
const LIMITS: ReadLimits = ReadLimits {
    max_input_bytes: 4096,
    max_depth: 64,
    max_entities: 64,
    max_row_bytes: 4096,
};

fn sample() -> Experiment {
    let mut b = ExperimentBuilder::new("fuzz seed");
    let time = b.def_metric("time", Unit::Seconds, "", None);
    let mpi = b.def_metric("mpi", Unit::Seconds, "", Some(time));
    let visits = b.def_metric("visits", Unit::Occurrences, "", None);
    let m = b.def_module("main.c", "/src/main.c");
    let r = b.def_region("main", m, RegionKind::Function, 1, 40);
    let cs = b.def_call_site("main.c", 1, r);
    let root = b.def_call_node(cs, None);
    let inner = b.def_call_node(cs, Some(root));
    let ts = single_threaded_system(&mut b, 2);
    for (i, &t) in ts.iter().enumerate() {
        b.set_severity(time, root, t, 1.5 + i as f64);
        b.set_severity(time, inner, t, 0.5);
        b.set_severity(mpi, inner, t, 0.25 * i as f64);
        b.set_severity(visits, root, t, 1.0);
        b.set_severity(visits, inner, t, 3.0 + i as f64);
    }
    b.build().unwrap()
}

/// The writer's image of `exp` with `chunk_values` values per page.
/// The format records the page size, and `write_store` is this with
/// 4096 (checked below); small pages keep a multi-page seed small.
fn image(exp: &Experiment, chunk_values: usize) -> Vec<u8> {
    let meta = encode_metadata(exp.metadata(), exp.provenance());
    let sev: Vec<u8> = exp
        .severity()
        .values()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let pages = sev.len().div_ceil(chunk_values * 8);
    let mut crcs = [chunk_values as u32, pages as u32]
        .map(u32::to_le_bytes)
        .concat();
    crcs.resize(8 + 4 * pages, 0); // the page CRCs are filled in by reseal
    let meta_off = align8(HEADER_LEN + 3 * SECTION_ENTRY_LEN);
    let crcs_off = align8(meta_off + meta.len());
    let sev_off = align8(crcs_off + crcs.len());
    let sections = [
        (SEC_METADATA, meta_off, &meta),
        (SEC_CHUNKCRC, crcs_off, &crcs),
        (SEC_SEVERITY, sev_off, &sev),
    ];
    let mut out = MAGIC.to_vec();
    out.extend(VERSION.to_le_bytes());
    out.extend(3u32.to_le_bytes());
    out.extend((HEADER_LEN as u64).to_le_bytes());
    out.extend(0u64.to_le_bytes());
    for &(kind, offset, payload) in &sections {
        let length = payload.len() as u64;
        let offset = offset as u64;
        Section {
            kind,
            offset,
            length,
            crc: 0,
        }
        .encode(&mut out);
    }
    for &(_, offset, payload) in &sections {
        out.resize(offset, 0);
        out.extend_from_slice(payload);
    }
    out.resize(out.len() + FOOTER_LEN, 0);
    reseal(&mut out);
    out
}

fn seed() -> Vec<u8> {
    image(&sample(), SEED_PAGE)
}

fn u32_at(img: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(
        img.get(at..at.checked_add(4)?)?.try_into().unwrap(),
    ))
}

/// The bytes `s` covers, if they lie inside `body`.
fn span(s: &Section, body: usize) -> Option<Range<usize>> {
    let start = usize::try_from(s.offset).ok()?;
    let end = start.checked_add(usize::try_from(s.length).ok()?)?;
    (end <= body).then_some(start..end)
}

/// Recomputes every checksum the image still lets us locate: each page
/// CRC in the chunk table, the METADATA and CHUNKCRC section CRCs, and
/// the footer. Whatever a mutation has moved out of the image is left
/// alone, so resealing never panics.
fn reseal(img: &mut [u8]) {
    let Some(body) = img
        .len()
        .checked_sub(FOOTER_LEN)
        .filter(|&b| b >= HEADER_LEN)
    else {
        return;
    };
    let count = u32_at(img, 12).unwrap() as usize;
    let table = u64::from_le_bytes(img[16..24].try_into().unwrap());
    let mut entries = Vec::new();
    for i in 0..count.min(16) {
        let Some(at) = usize::try_from(table)
            .ok()
            .and_then(|t| t.checked_add(i * SECTION_ENTRY_LEN))
            .filter(|&at| at <= body.saturating_sub(SECTION_ENTRY_LEN))
        else {
            break;
        };
        entries.push((at, Section::decode(&img[at..]).unwrap()));
    }
    let find = |kind| {
        entries
            .iter()
            .find(|(_, s)| s.kind == kind)
            .map(|(_, s)| *s)
    };
    // Pages first: the chunk table that records their CRCs is itself
    // covered by the CHUNKCRC section CRC.
    if let (Some(crcs), Some(sev)) = (find(SEC_CHUNKCRC), find(SEC_SEVERITY)) {
        let table = span(&crcs, body).unwrap_or_default();
        let page = u32_at(img, table.start).unwrap_or(0) as usize * 8;
        let sev_start = usize::try_from(sev.offset).unwrap_or(usize::MAX);
        let sev_end = sev_start.saturating_add(sev.length as usize).min(body);
        for k in 0.. {
            let slot = table.start + 8 + 4 * k;
            let lo = sev_start.saturating_add(k.saturating_mul(page));
            if page == 0 || slot + 4 > table.end || lo >= sev_end {
                break;
            }
            let crc = crc32(&img[lo..lo.saturating_add(page).min(sev_end)]);
            img[slot..slot + 4].copy_from_slice(&crc.to_le_bytes());
        }
    }
    for &(at, s) in &entries {
        if let (SEC_METADATA | SEC_CHUNKCRC, Some(r)) = (s.kind, span(&s, body)) {
            let crc = crc32(&img[r]);
            img[at + 24..at + 28].copy_from_slice(&crc.to_le_bytes());
        }
    }
    let (crc, len) = (crc32(&img[..body]), img.len() as u64);
    img[body..body + 4].copy_from_slice(&crc.to_le_bytes());
    img[body + 4..body + 12].copy_from_slice(&len.to_le_bytes());
    img[body + 12..].copy_from_slice(&FOOTER_MAGIC);
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cube-store-fuzz-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d.join("input.cubec")
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Runs `bytes` through every reader and checks the invariants that tie
/// them together. A panic anywhere fails the test. Every checksum of a
/// `sealed` image is right, so there the readers must also agree on
/// whether the bytes hold a valid experiment.
fn check(bytes: &[u8], path: &Path, what: &str, sealed: bool) {
    std::fs::write(path, bytes).unwrap();
    let strict = read_store(bytes, &LIMITS);
    let lazy = ColumnarExperiment::open_with(path, &LIMITS)
        .and_then(|col| Ok((col.severity()?.to_vec(), col)));
    let salvaged = salvage_store_file_as(path, None, &LIMITS);
    let _ = lint_file(path).to_string();
    if let Ok((exp, _)) = &salvaged {
        let values = exp.severity().values().len();
        assert!(
            values * 8 <= LIMITS.max_input_bytes,
            "{what}: salvaged {values} values"
        );
    }
    if sealed {
        let (s, l) = (strict.as_ref().err(), lazy.as_ref().err());
        assert_eq!(s.is_none(), l.is_none(), "{what}: strict {s:?}, lazy {l:?}");
        if let Ok((_, rep)) = &salvaged {
            assert!(
                !rep.complete || s.is_none(),
                "{what}: salvage complete, strict {s:?}"
            );
        }
    }
    if let Ok((_, col)) = &lazy {
        let ops: [&dyn BatchOperand; 2] = [col, col];
        let plan = BatchPlan::from_operands(&ops, MergeOptions::default());
        if let Err(e) = plan.eval(&Expr::reduce(Reduction::Sum, 0..2)) {
            panic!("{what}: sum over an accepted handle: {e}");
        }
    }
    let Ok(exp) = strict else {
        return;
    };
    let (rec, rep) = salvaged.unwrap_or_else(|e| panic!("{what}: strict read ok, salvage: {e}"));
    assert!(
        rep.complete,
        "{what}: strict read ok, salvage incomplete: {rep:?}"
    );
    assert_eq!(rec.metadata(), exp.metadata(), "{what}");
    assert_eq!(rec.provenance(), exp.provenance(), "{what}");
    assert_eq!(
        bits(rec.severity().values()),
        bits(exp.severity().values()),
        "{what}"
    );
    let (values, col) = lazy.unwrap_or_else(|e| panic!("{what}: strict read ok, lazy: {e}"));
    assert_eq!(col.metadata(), exp.metadata(), "{what}");
    assert_eq!(bits(&values), bits(exp.severity().values()), "{what}");
}

#[test]
fn the_seed_is_the_writer_image_with_small_pages() {
    let exp = sample();
    assert_eq!(image(&exp, CHUNK_VALUES), write_store(&exp));
    let seed = seed();
    let back = read_store(&seed, &LIMITS).unwrap();
    assert_eq!(back, exp);
    let path = scratch("seed");
    std::fs::write(&path, &seed).unwrap();
    let (_, report) = salvage_store_file_as(&path, None, &LIMITS).unwrap();
    assert!(report.complete);
    assert_eq!(report.chunks_total, 3);
    check(&seed, &path, "seed", true);
}

#[test]
fn boundary_values_in_every_structural_field_never_panic() {
    // Every aligned 4- and 8-byte field before the severity section:
    // header, section table, metadata and chunk table, sealed or not.
    let seed = seed();
    let sev = Section::decode(&seed[HEADER_LEN + 2 * SECTION_ENTRY_LEN..]).unwrap();
    let path = scratch("fields");
    for width in [4, 8] {
        for at in (0..sev.offset as usize).step_by(width) {
            for value in [0, u64::from(u32::MAX), u64::MAX] {
                for sealed in [false, true] {
                    let mut img = seed.clone();
                    img[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
                    if sealed {
                        reseal(&mut img);
                    }
                    let what = format!("{value:#x} over {width} bytes at {at}, sealed {sealed}");
                    check(&img, &path, &what, sealed);
                }
            }
        }
    }
}

#[test]
fn mutated_stores_never_panic_a_reader() {
    let seed = seed();
    let path = scratch("mutants");
    let mut rng = Lcg(0x5eed_c0be);
    for i in 0..5_000 {
        let mut img = seed.clone();
        for _ in 0..=rng.below(2) {
            match rng.below(3) {
                0 => {
                    let at = rng.below(img.len());
                    img[at] ^= 1 << rng.below(8);
                }
                1 => {
                    let at = rng.below(img.len());
                    img[at] = rng.next() as u8;
                }
                _ => {
                    let width = [4, 8][rng.below(2)];
                    let at = rng.below(img.len() / width) * width;
                    let value = [0, u64::from(u32::MAX), u64::MAX][rng.below(3)];
                    img[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
                }
            }
        }
        let sealed = i % 2 == 1;
        if sealed {
            reseal(&mut img);
        }
        check(&img, &path, &format!("mutant {i}"), sealed);
    }
}

#[test]
fn every_truncation_salvages_exactly_the_whole_pages_before_the_cut() {
    let seed = seed();
    let exp = sample();
    let entry = |i: usize| Section::decode(&seed[HEADER_LEN + i * SECTION_ENTRY_LEN..]).unwrap();
    let (crcs, sev) = (entry(1), entry(2));
    assert_eq!((crcs.kind, sev.kind), (SEC_CHUNKCRC, SEC_SEVERITY));
    let crcs_end = (crcs.offset + crcs.length) as usize;
    let (sev_off, sev_len) = (sev.offset as usize, sev.length as usize);
    let page = SEED_PAGE * 8;
    let path = scratch("cuts");
    for cut in 0..seed.len() {
        let what = format!("cut at {cut}");
        check(&seed[..cut], &path, &what, false);
        assert!(read_store(&seed[..cut], &LIMITS).is_err(), "{what}");
        let salvaged = salvage_store_file_as(&path, None, &LIMITS);
        assert_eq!(salvaged.is_ok(), cut >= crcs_end, "{what}");
        let Ok((rec, report)) = salvaged else {
            continue;
        };
        let whole = (0..sev_len.div_ceil(page))
            .take_while(|k| sev_off + ((k + 1) * page).min(sev_len) <= cut)
            .count();
        assert_eq!(report.chunks_recovered, whole, "{what}");
        let kept = (whole * SEED_PAGE).min(sev_len / 8);
        let (got, want) = (rec.severity().values(), exp.severity().values());
        assert_eq!(bits(&got[..kept]), bits(&want[..kept]), "{what}");
        assert!(got[kept..].iter().all(|&v| v == 0.0), "{what}");
    }
}
