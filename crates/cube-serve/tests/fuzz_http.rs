//! Deterministic fuzzing of the HTTP framing.
//!
//! `read_head` and `read_body` are the first code every upload and
//! every expression meets, so no input may panic them, no forged length
//! may make them allocate for bytes that never arrive, and their answer
//! may not depend on how TCP splits the bytes into reads. The seeds are
//! valid requests for every route, `Content-Length` boundary values,
//! repeated `Content-Length` headers, `Transfer-Encoding`, heads within
//! ±1,100 bytes of `MAX_HEAD_BYTES` and non-UTF-8 heads. A seeded LCG
//! mutates them with byte flips and inserted or removed CR/LF, and each
//! seed is also cut at every point (a head near the limit around its
//! read boundaries, and at a sample of points between; see `cuts`).
//! Every input is framed twice: by a peer that fills every read, and by
//! one that returns random read sizes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read};

use cube_serve::http::{read_body, read_head, HttpError, Request, MAX_HEAD_BYTES};

// ---------------------------------------------------------------------------
// counting allocator, per thread, so parallel tests cannot disturb a count
// ---------------------------------------------------------------------------

struct CountingAlloc;

thread_local! {
    static CURRENT: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // `try_with`: an allocation may come while the thread is torn down.
    let _ = CURRENT.try_with(|current| {
        let now = current.get() + delta;
        current.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counting touches only const-initialized thread-locals, which
// never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// How far this thread's heap grows above its level at the call while
/// `f` runs.
fn peak_growth<R>(f: impl FnOnce() -> R) -> (isize, R) {
    let base = CURRENT.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let result = f();
    (PEAK.with(Cell::get) - base, result)
}

// ---------------------------------------------------------------------------
// inputs
// ---------------------------------------------------------------------------

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

/// The body cap the seeds are built around.
const MAX_BODY: usize = 4096;

fn request(line: &str, headers: &[&str], body: &[u8]) -> Vec<u8> {
    let mut out = format!("{line}\r\nhost: fuzz\r\n");
    for header in headers {
        out.push_str(header);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    let mut out = out.into_bytes();
    out.extend_from_slice(body);
    out
}

fn with_length(line: &str, body: &[u8]) -> Vec<u8> {
    request(line, &[&format!("content-length: {}", body.len())], body)
}

/// A `GET /healthz` whose head, blank line included, is `len` bytes.
fn head_of(len: usize) -> Vec<u8> {
    let bare = request("GET /healthz HTTP/1.1", &["x-pad: "], b"").len();
    let head = request(
        "GET /healthz HTTP/1.1",
        &[&format!("x-pad: {}", "p".repeat(len - bare))],
        b"",
    );
    assert_eq!(head.len(), len);
    head
}

/// A valid request for every route, with a body where the route takes
/// one.
fn routes() -> Vec<Vec<u8>> {
    let cube: &[u8] = include_bytes!("../../../tests/fixtures/valid/minimal.cube");
    let id = "0123456789abcdef";
    vec![
        with_length("PUT /experiments HTTP/1.1", cube),
        request(&format!("GET /experiments/{id}/stats HTTP/1.1"), &[], b""),
        request(&format!("GET /experiments/{id}/lint HTTP/1.0"), &[], b""),
        with_length(
            "POST /check HTTP/1.1",
            format!(r#"{{"expr":"diff(a,b)","bind":"a={id},b={id}"}}"#).as_bytes(),
        ),
        with_length("POST /eval HTTP/1.1", format!("mean({id},{id})").as_bytes()),
        with_length(
            "POST /eval?keep_going=1 HTTP/1.1",
            format!(r#"{{"expr":"scale({id},2)"}}"#).as_bytes(),
        ),
        request("GET /stats HTTP/1.1", &[], b""),
        request("GET /healthz HTTP/1.1", &[], b""),
    ]
}

fn seeds() -> Vec<Vec<u8>> {
    let mut seeds = routes();
    let length = |value: &str, body: &[u8]| {
        request(
            "PUT /experiments HTTP/1.1",
            &[&format!("content-length: {value}")],
            body,
        )
    };
    seeds.extend([
        // Content-Length at and past its bounds.
        length("0", b""),
        length(&MAX_BODY.to_string(), &[b'x'; MAX_BODY]),
        length(&(MAX_BODY + 1).to_string(), &[b'x'; MAX_BODY + 1]),
        length(&usize::MAX.to_string(), b"xxxx"),
        length("1234567890123456789012345", b"xxxx"),
        length("-5", b"xxxxx"),
        length("five", b"xxxxx"),
        // Repeated lengths, agreeing and not, and transfer codings.
        request(
            "POST /eval HTTP/1.1",
            &["content-length: 5", "content-length: 5"],
            b"hello",
        ),
        request(
            "PUT /experiments HTTP/1.1",
            &["content-length: 11", "content-length: 5"],
            b"hello world",
        ),
        request(
            "PUT /experiments HTTP/1.1",
            &["transfer-encoding: chunked"],
            b"5\r\nhello\r\n0\r\n\r\n",
        ),
        request(
            "PUT /experiments HTTP/1.1",
            &["content-length: 5", "Transfer-Encoding: identity"],
            b"hello",
        ),
        // Non-UTF-8 heads.
        b"GET /st\xc3\x28ts HTTP/1.1\r\nhost: fuzz\r\n\r\n".to_vec(),
        b"POST /eval HTTP/1.1\r\nx-bin: \xff\xfe\r\ncontent-length: 2\r\n\r\nab".to_vec(),
    ]);
    // Heads within 1,100 bytes of the limit on either side.
    seeds.extend(
        [-1100, -1, 0, 1, 1100].map(|delta| head_of(MAX_HEAD_BYTES.saturating_add_signed(delta))),
    );
    seeds
}

/// One mutant of `seed`: one to three byte flips and CR/LF insertions
/// or removals.
fn mutate(seed: &[u8], rng: &mut Lcg) -> Vec<u8> {
    let mut out = seed.to_vec();
    for _ in 0..1 + rng.below(3) {
        match rng.below(3) {
            0 if !out.is_empty() => {
                let at = rng.below(out.len());
                out[at] ^= 1 << rng.below(8);
            }
            1 => {
                let at = rng.below(out.len() + 1);
                out.insert(at, if rng.below(2) == 0 { b'\r' } else { b'\n' });
            }
            _ => {
                let breaks: Vec<usize> = (0..out.len())
                    .filter(|&i| matches!(out[i], b'\r' | b'\n'))
                    .collect();
                if !breaks.is_empty() {
                    out.remove(breaks[rng.below(breaks.len())]);
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// delivery and framing
// ---------------------------------------------------------------------------

/// An in-memory peer: it returns every byte asked for when `sizes` is
/// `None`, and a random number of them otherwise. It records where its
/// last read started.
struct Peer<'a> {
    input: &'a [u8],
    at: usize,
    sizes: Option<Lcg>,
    last_read_at: usize,
}

impl<'a> Peer<'a> {
    fn new(input: &'a [u8], sizes: Option<Lcg>) -> Self {
        Self {
            input,
            at: 0,
            sizes,
            last_read_at: 0,
        }
    }
}

impl Read for Peer<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let most = match &mut self.sizes {
            None => buf.len(),
            // Mostly short reads, now and then a long one.
            Some(rng) => {
                let longest = if rng.below(8) == 0 { buf.len() } else { 64 };
                1 + rng.below(longest)
            }
        };
        let n = most.min(buf.len()).min(self.input.len() - self.at);
        buf[..n].copy_from_slice(&self.input[self.at..self.at + n]);
        self.last_read_at = self.at;
        self.at += n;
        Ok(n)
    }
}

fn frame(peer: &mut Peer, max_body: usize) -> Result<Request, HttpError> {
    let head = read_head(peer, max_body)?;
    read_body(peer, head)
}

/// Where `input`'s head ends (just past its first blank line), and
/// where the body that head declares ends: the head's end plus its last
/// `Content-Length`. Both are read from the bytes without the framing.
/// The body's end is `None` when the head is not UTF-8 or a length does
/// not parse; the framing must then refuse the head itself, whatever
/// follows it.
fn layout(input: &[u8]) -> (Option<usize>, Option<usize>) {
    let Some(end) = input
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
    else {
        return (None, None);
    };
    let declared = || {
        let head = std::str::from_utf8(&input[..end]).ok()?;
        let mut declared = 0usize;
        for line in head.split("\r\n").skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    declared = value.trim().parse().ok()?;
                }
            }
        }
        end.checked_add(declared)
    };
    (Some(end), declared())
}

fn is_excess(answer: &Result<Request, HttpError>) -> bool {
    matches!(answer, Err(HttpError::Malformed(m)) if m.starts_with("more body bytes"))
}

/// Frames `input` from both peers and checks every property; `layout`
/// is [`layout`]`(input)`.
fn check(input: &[u8], layout: (Option<usize>, Option<usize>), max_body: usize, rng: &mut Lcg) {
    let (head_end, body_end) = layout;
    let mut whole = Peer::new(input, None);
    let mut split = Peer::new(input, Some(Lcg(rng.next())));
    let answers = [frame(&mut whole, max_body), frame(&mut split, max_body)];
    for (answer, peer) in answers.iter().zip([&whole, &split]) {
        match answer {
            Ok(request) => {
                let end = head_end.expect("a request without a blank line");
                assert!(end <= MAX_HEAD_BYTES, "accepted a {end}-byte head");
                let declared = request
                    .header("content-length")
                    .map_or(0, |v| v.parse::<usize>().expect("accepted a bad length"));
                assert!(declared <= max_body, "accepted {declared} > {max_body}");
                assert_eq!(request.body, input[end..end + declared], "wrong body");
            }
            Err(HttpError::BodyTooLarge { declared, limit }) => {
                assert!(declared > limit && *limit == max_body);
                let end = head_end.expect("a length without a blank line");
                assert!(
                    peer.last_read_at < end,
                    "read at {} past the head's end {end} before refusing",
                    peer.last_read_at
                );
            }
            Err(_) => {}
        }
    }
    // With bytes past the body, each peer reads exactly the body or
    // refuses the excess; any other answer is the head's, and may not
    // depend on the split. Without them, the answers are the same.
    let excess = body_end.is_some_and(|end| input.len() > end);
    if !excess || answers.iter().any(|a| !(a.is_ok() || is_excess(a))) {
        let [whole, split] = answers.map(|a| format!("{a:?}"));
        assert!(
            whole == split,
            "the answer depends on the split:\n input {}\n whole {}\n split {}",
            clip(&String::from_utf8_lossy(input)),
            clip(&whole),
            clip(&split)
        );
    }
}

/// The first 200 characters of `text`, for failure messages.
fn clip(text: &str) -> String {
    match text.char_indices().nth(200) {
        Some((cut, _)) => format!("{:?}… ({} bytes)", &text[..cut], text.len()),
        None => format!("{text:?}"),
    }
}

/// Where to cut a seed of `len` bytes: at every point, except in a head
/// near the limit, which is cut within 4 bytes of each 1 KiB read
/// boundary (the limit is one) and of its end, and at every 512th point
/// between. A debug build scans a 16 KiB head for its blank line in
/// about a millisecond.
fn cuts(len: usize) -> impl Iterator<Item = usize> {
    (0..=len).filter(move |&cut| {
        len < MAX_HEAD_BYTES / 2
            || !(4..=1020).contains(&(cut % 1024))
            || len - cut <= 4
            || cut % 512 == 0
    })
}

#[test]
fn route_seeds_frame_whole() {
    for seed in routes() {
        let request = frame(&mut Peer::new(&seed, None), MAX_BODY).unwrap();
        let end = layout(&seed).0.unwrap();
        assert_eq!(request.body, seed[end..]);
    }
    for (delta, whole) in [(-1, true), (0, true), (1, false)] {
        let seed = head_of(MAX_HEAD_BYTES.saturating_add_signed(delta));
        let answer = frame(&mut Peer::new(&seed, None), MAX_BODY);
        assert_eq!(answer.is_ok(), whole, "{delta:+}: {answer:?}");
    }
}

#[test]
fn framing_survives_mutants_and_truncations() {
    let mut rng = Lcg(0x4874_7470);
    for seed in seeds() {
        let (head_end, body_end) = layout(&seed);
        for cut in cuts(seed.len()) {
            let head_end = head_end.filter(|&end| end <= cut);
            let body_end = body_end.filter(|_| head_end.is_some());
            check(&seed[..cut], (head_end, body_end), MAX_BODY, &mut rng);
        }
        let mutants = if seed.len() < MAX_HEAD_BYTES / 2 {
            64
        } else {
            16
        };
        for _ in 0..mutants {
            let mutant = mutate(&seed, &mut rng);
            check(&mutant, layout(&mutant), MAX_BODY, &mut rng);
        }
    }
}

#[test]
fn a_forged_length_allocates_for_what_arrives() {
    const FORGED: usize = 256 << 20;
    let mut input = request(
        "PUT /experiments HTTP/1.1",
        &[&format!("content-length: {FORGED}")],
        b"",
    );
    input.resize(input.len() + 4096, b'x');
    for sizes in [None, Some(Lcg(7))] {
        let mut peer = Peer::new(&input, sizes);
        let (growth, answer) = peak_growth(|| frame(&mut peer, FORGED));
        assert!(
            matches!(&answer, Err(HttpError::Malformed(m)) if m == "connection closed mid-body"),
            "{answer:?}"
        );
        assert!(growth < 1 << 20, "peak heap grew by {growth} bytes");
    }
}
