//! Fast shortest-round-trip `f64` formatting for severity rows.
//!
//! Severity sections dominate `.cube` files, and the standard
//! library's `{}` formatting machinery is most of the streaming
//! write's cost. [`push_f64`] replaces it with a three-tier cascade,
//! every tier byte-identical to `{}`:
//!
//! 1. a fixed-notation path for values that are exact multiples of
//!    10⁻⁶ below 2³² ([`push_fixed_micro`]) — measurement data
//!    quantized at timer resolution lands here almost always, and the
//!    value reduces to one integer itoa;
//! 2. the Grisu3 algorithm (Loitsch, PLDI 2010, as hardened in
//!    double-conversion): 64-bit fixed-point digit generation against
//!    the value's rounding boundaries, which either *proves* it
//!    produced the closest shortest representation or reports failure;
//! 3. `write!("{v}")` for non-finite values and the ≲0.5% of inputs
//!    Grisu3 cannot certify.
//!
//! The format stability golden test and the differential property
//! tests of the DOM oracle (`src/oracle.rs`) depend on the byte-for-byte
//! guarantee.
//!
//! The cached powers of ten that Grisu needs are not a baked-in table:
//! they are computed exactly once per process with a small bignum
//! (correctly rounded 64-bit significands of `10^k` for `k` in
//! `-348..=340` step 8), which keeps this module self-contained and
//! auditable. The differential tests below compare against `format!`
//! over random bit patterns and structured corner cases.

use std::fmt::Write as _;
use std::sync::OnceLock;

/// Appends `v` to `out`, byte-identical to `write!(out, "{v}")`.
pub fn push_f64(out: &mut String, v: f64) {
    if v == 0.0 {
        // Covers -0.0 too: `{}` prints the sign of a negative zero.
        out.push_str(if v.is_sign_negative() { "-0" } else { "0" });
        return;
    }
    if push_fixed_micro(out, v) {
        return;
    }
    if v.is_finite() {
        let mut buf = [0u8; 40];
        if let Some((len, k)) = grisu3(v.abs(), &mut buf) {
            render(out, v < 0.0, &buf[..len], k);
            return;
        }
    }
    // Non-finite values and the rare inputs Grisu3 cannot certify.
    let _ = write!(out, "{v}");
}

/// Fast path for measurement-like values: exactly a multiple of 10⁻⁶
/// after double rounding, with magnitude below 2³². Profilers quantize
/// timestamps at timer resolution, so real severity data lands here
/// almost always; uniform random doubles almost never do.
///
/// Correctness: let `r = round(v·10⁶)` (as doubles). The guard
/// `r / 10⁶ == v` certifies that the real number `r·10⁻⁶` rounds to
/// `v`, i.e. lies within half an ulp of it. For `|v| < 2³²` an ulp is
/// below 10⁻⁶, so that interval contains exactly **one** multiple of
/// 10⁻⁶ — and every decimal with at most six fractional digits is such
/// a multiple, while one with seven or more has a strictly longer
/// significand than `r` (which has at most six). Hence `r·10⁻⁶`, with
/// trailing fractional zeros stripped, is the unique shortest decimal
/// that round-trips: byte-for-byte what `{}` prints. Returns `false`
/// (emitting nothing) for every value outside the class, including
/// NaN, infinities, and exact zero.
fn push_fixed_micro(out: &mut String, v: f64) -> bool {
    let a = v.abs();
    // Zero is the caller's case; NaN must fall to the `{}` tier.
    if a.is_nan() || a >= 4_294_967_296.0 || a == 0.0 {
        return false;
    }
    let r = (a * 1e6).round();
    if r / 1e6 != a || r == 0.0 {
        return false;
    }
    let mut n = r as u64; // < 2³²·10⁶ < 2⁵³, exact
    let mut frac = 6u32;
    while frac > 0 && n.is_multiple_of(10) {
        n /= 10;
        frac -= 1;
    }
    // Sign + up to 10 integral digits + '.' + up to 6 fractional.
    let mut tmp = [0u8; 24];
    let mut i = tmp.len();
    if frac > 0 {
        for _ in 0..frac {
            i -= 1;
            tmp[i] = b'0' + (n % 10) as u8;
            n /= 10;
        }
        i -= 1;
        tmp[i] = b'.';
    }
    loop {
        i -= 1;
        tmp[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0.0 {
        i -= 1;
        tmp[i] = b'-';
    }
    // SAFETY: `tmp[i..]` holds only ASCII bytes written above.
    out.push_str(unsafe { std::str::from_utf8_unchecked(&tmp[i..]) });
    true
}

/// Renders `digits × 10^k` positionally, matching `{}`: no exponent
/// form, no trailing `.0`, leading `0.` for pure fractions.
///
/// The common case (every severity-like magnitude) is assembled —
/// sign included — in one stack buffer and appended with a single
/// `push_str`; extreme exponents take the general path below.
fn render(out: &mut String, neg: bool, digits: &[u8], k: i32) {
    let n = digits.len();
    let point = n as i32 + k;
    let mut tmp = [0u8; 40];
    let sign = usize::from(neg);
    let body = if k >= 0 {
        n + k as usize
    } else if point > 0 {
        n + 1
    } else {
        n + 2 + (-point) as usize
    };
    let total = sign + body;
    if total <= tmp.len() {
        tmp[0] = b'-';
        let t = &mut tmp[sign..total];
        if k >= 0 {
            t[..n].copy_from_slice(digits);
            t[n..].fill(b'0');
        } else if point > 0 {
            let p = point as usize;
            t[..p].copy_from_slice(&digits[..p]);
            t[p] = b'.';
            t[p + 1..].copy_from_slice(&digits[p..]);
        } else {
            let zeros = (-point) as usize;
            t[0] = b'0';
            t[1] = b'.';
            t[2..2 + zeros].fill(b'0');
            t[2 + zeros..].copy_from_slice(digits);
        }
        // SAFETY: every byte in `tmp[..total]` was written above and is
        // ASCII — `-`, `.`, `0`, or a digit from `digits` (which
        // `digit_gen` fills with `b'0'..=b'9'` only).
        out.push_str(unsafe { std::str::from_utf8_unchecked(&tmp[..total]) });
        return;
    }

    if neg {
        out.push('-');
    }
    let digits = std::str::from_utf8(digits).expect("grisu digits are ASCII");
    if k >= 0 {
        out.push_str(digits);
        for _ in 0..k {
            out.push('0');
        }
    } else {
        debug_assert!(point <= 0, "long mid-point forms fit the fast path");
        out.push_str("0.");
        for _ in 0..-point {
            out.push('0');
        }
        out.push_str(digits);
    }
}

// ---------------------------------------------------------------------------
// Grisu3 core
// ---------------------------------------------------------------------------

/// A floating-point value `f × 2^e` with a full 64-bit significand.
#[derive(Copy, Clone, Debug)]
struct Fp {
    f: u64,
    e: i32,
}

impl Fp {
    fn normalize(self) -> Fp {
        let s = self.f.leading_zeros() as i32;
        Fp {
            f: self.f << s,
            e: self.e - s,
        }
    }

    /// Rounded 64×64→64 high product; the ≤0.5 ulp error here plus the
    /// ≤0.5 ulp of the cached power is the 1-unit slack `digit_gen`
    /// carries around its intervals.
    fn mul(self, o: Fp) -> Fp {
        let p = u128::from(self.f) * u128::from(o.f);
        Fp {
            f: (p >> 64) as u64 + ((p as u64) >> 63),
            e: self.e + o.e + 64,
        }
    }
}

const SIGNIFICAND_BITS: u32 = 52;
const HIDDEN_BIT: u64 = 1 << SIGNIFICAND_BITS;
const EXPONENT_BIAS: i32 = 1075;

fn fp_of(v: f64) -> Fp {
    let bits = v.to_bits();
    let biased = ((bits >> SIGNIFICAND_BITS) & 0x7ff) as i32;
    let frac = bits & (HIDDEN_BIT - 1);
    if biased == 0 {
        Fp {
            f: frac,
            e: 1 - EXPONENT_BIAS,
        }
    } else {
        Fp {
            f: frac | HIDDEN_BIT,
            e: biased - EXPONENT_BIAS,
        }
    }
}

/// Normalized neighbours `(m⁻, m⁺)` of `v`'s rounding interval, both at
/// the same binary exponent as `fp_of(v).normalize()`.
fn boundaries(v: f64) -> (Fp, Fp) {
    let w = fp_of(v);
    let upper = Fp {
        f: (w.f << 1) + 1,
        e: w.e - 1,
    }
    .normalize();
    // The lower gap is half-sized when v sits on a power of two (its
    // predecessor lives in the binade below), except at the bottom of
    // the subnormal range where spacing is uniform.
    let lower = if w.f == HIDDEN_BIT && w.e > 1 - EXPONENT_BIAS {
        Fp {
            f: (w.f << 2) - 1,
            e: w.e - 2,
        }
    } else {
        Fp {
            f: (w.f << 1) - 1,
            e: w.e - 1,
        }
    };
    let lower = Fp {
        f: lower.f << (lower.e - upper.e),
        e: upper.e,
    };
    (lower, upper)
}

/// Digit generation works in the window `scaled.e ∈ [ALPHA, GAMMA]`:
/// low enough that the fractional accumulator survives ×10 steps in 64
/// bits, high enough that the integral part fits a `u32`.
const ALPHA: i32 = -60;
const GAMMA: i32 = -32;

/// Shortest-digit generation for finite positive `v`. On success the
/// digits `buf[..len]` satisfy `v == digits × 10^k` exactly under
/// round-to-nearest parsing, and they are the unique closest shortest
/// representation (what `{}` prints). Trailing zeros are already
/// stripped.
fn grisu3(v: f64, buf: &mut [u8; 40]) -> Option<(usize, i32)> {
    let w = fp_of(v).normalize();
    let (low, high) = boundaries(v);
    debug_assert_eq!(low.e, w.e);
    debug_assert_eq!(high.e, w.e);
    let (pow, dec) = cached_power(w.e);
    let scaled_w = w.mul(pow);
    let scaled_low = low.mul(pow);
    let scaled_high = high.mul(pow);
    let (mut len, kappa) = digit_gen(scaled_low, scaled_w, scaled_high, buf)?;
    let mut k = kappa - dec;
    // The weeding step can land on a value whose last digit is zero;
    // the shortest form drops it (the value is unchanged).
    while len > 1 && buf[len - 1] == b'0' {
        len -= 1;
        k += 1;
    }
    Some((len, k))
}

/// Generates the digits of `high` from most significant down, cutting
/// as soon as the remainder fits inside the unsafe interval, then weeds
/// the last digit toward `w`. Returns `None` when the margins cannot
/// certify a closest shortest representation.
fn digit_gen(low: Fp, w: Fp, high: Fp, buf: &mut [u8; 40]) -> Option<(usize, i32)> {
    debug_assert!(low.e == w.e && w.e == high.e);
    debug_assert!((ALPHA..=GAMMA).contains(&w.e));
    let mut unit: u64 = 1;
    let too_low = Fp {
        f: low.f - unit,
        e: low.e,
    };
    let too_high = Fp {
        f: high.f + unit,
        e: high.e,
    };
    let mut unsafe_interval = too_high.f - too_low.f;
    let one = Fp {
        f: 1u64 << -w.e,
        e: w.e,
    };
    let integrals = (too_high.f >> -one.e) as u32;
    let mut fractionals = too_high.f & (one.f - 1);
    debug_assert!(integrals >= 1);

    // The remainder at integral position j is `remaining·2^-e +
    // fractionals`, which is smallest (= `fractionals`) after the last
    // integral digit. So a cut inside the integral digits is possible
    // iff `fractionals < unsafe_interval`; otherwise all integral
    // digits can be emitted unchecked by a plain pairwise itoa.
    if fractionals < unsafe_interval {
        // Cold path: the shortest representation terminates within the
        // integral digits. Quotient chain `quot[j] = integrals / 10^j`
        // keeps every division by a constant; the digit at weight 10^j
        // is `quot[j] - 10·quot[j+1]` and the remainder after cutting
        // there is `integrals - quot[j]·10^j`.
        const POWERS: [u32; 10] = [
            1,
            10,
            100,
            1_000,
            10_000,
            100_000,
            1_000_000,
            10_000_000,
            100_000_000,
            1_000_000_000,
        ];
        let mut quot = [0u32; 11];
        quot[0] = integrals;
        let mut digits = 1;
        while quot[digits - 1] >= 10 {
            quot[digits] = quot[digits - 1] / 10;
            digits += 1;
        }
        let mut len = 0usize;
        for j in (0..digits).rev() {
            buf[len] = b'0' + (quot[j] - 10 * quot[j + 1]) as u8;
            len += 1;
            let remaining = integrals - quot[j] * POWERS[j];
            let rest = (u64::from(remaining) << -one.e) + fractionals;
            if rest < unsafe_interval {
                let ok = round_weed(
                    &mut buf[..len],
                    too_high.f - w.f,
                    unsafe_interval,
                    rest,
                    u64::from(POWERS[j]) << -one.e,
                    unit,
                );
                return ok.then_some((len, j as i32));
            }
        }
        unreachable!("rest at j = 0 equals fractionals < unsafe_interval");
    }

    let mut len = itoa_u32(integrals, buf);
    let mut kappa = 0i32;

    // Fractional digits, four per iteration: the serial dependency is
    // `fractionals ← fractionals·10⁴ mod 2^-e` (one widening multiply
    // per four digits instead of one per digit), with the three
    // intra-group cut positions checked off that chain, so the cut
    // point — and thus the emitted length — is identical to the
    // reference one-digit-at-a-time loop.
    //
    // Range safety: `fractionals < one.f ≤ 2^60`, so `·10` products fit
    // u64; the `·10⁴` step widens to u128. Each `uⱼ₊₁ = uⱼ·10` is only
    // computed after `fⱼ ≥ uⱼ` ruled out the cut, which bounds
    // `uⱼ < 2^60` inductively (the loop is entered with
    // `unsafe_interval ≤ fractionals`).
    let mask = one.f - 1;
    let distance = too_high.f - w.f;
    loop {
        let y1 = fractionals * 10;
        let f1 = y1 & mask;
        let f2 = (f1 * 10) & mask;
        let f3 = (f2 * 10) & mask;
        let z = u128::from(fractionals) * 10_000;
        let group = (z >> -one.e) as u32;
        let next = z as u64 & mask;

        let u1 = unsafe_interval * 10;
        if f1 < u1 {
            buf[len] = b'0' + (y1 >> -one.e) as u8;
            len += 1;
            let unit = unit * 10;
            let ok = round_weed(
                &mut buf[..len],
                distance.wrapping_mul(unit),
                u1,
                f1,
                one.f,
                unit,
            );
            return ok.then_some((len, kappa - 1));
        }
        let u2 = u1 * 10;
        if f2 < u2 {
            let pair = 2 * (group / 100) as usize;
            buf[len] = DIGIT_PAIRS[pair];
            buf[len + 1] = DIGIT_PAIRS[pair + 1];
            len += 2;
            let unit = unit * 100;
            let ok = round_weed(
                &mut buf[..len],
                distance.wrapping_mul(unit),
                u2,
                f2,
                one.f,
                unit,
            );
            return ok.then_some((len, kappa - 2));
        }
        let u3 = u2 * 10;
        if f3 < u3 {
            let lead = group / 10;
            let pair = 2 * (lead / 10) as usize;
            buf[len] = DIGIT_PAIRS[pair];
            buf[len + 1] = DIGIT_PAIRS[pair + 1];
            buf[len + 2] = b'0' + (lead % 10) as u8;
            len += 3;
            let unit = unit * 1000;
            let ok = round_weed(
                &mut buf[..len],
                distance.wrapping_mul(unit),
                u3,
                f3,
                one.f,
                unit,
            );
            return ok.then_some((len, kappa - 3));
        }
        let hi = 2 * (group / 100) as usize;
        let lo = 2 * (group % 100) as usize;
        buf[len] = DIGIT_PAIRS[hi];
        buf[len + 1] = DIGIT_PAIRS[hi + 1];
        buf[len + 2] = DIGIT_PAIRS[lo];
        buf[len + 3] = DIGIT_PAIRS[lo + 1];
        len += 4;
        fractionals = next;
        unsafe_interval = u3 * 10;
        unit *= 10_000;
        kappa -= 4;
        if fractionals < unsafe_interval {
            let ok = round_weed(
                &mut buf[..len],
                distance.wrapping_mul(unit),
                unsafe_interval,
                fractionals,
                one.f,
                unit,
            );
            return ok.then_some((len, kappa));
        }
    }
}

/// Unchecked decimal emission of `x ≥ 1` into the front of `out`;
/// returns the digit count. Used when the cut is known to fall past the
/// integral digits, so no per-digit interval test is needed.
fn itoa_u32(mut x: u32, out: &mut [u8; 40]) -> usize {
    let count = if x < 100 {
        if x < 10 {
            1
        } else {
            2
        }
    } else if x < 10_000 {
        if x < 1_000 {
            3
        } else {
            4
        }
    } else if x < 1_000_000 {
        if x < 100_000 {
            5
        } else {
            6
        }
    } else if x < 100_000_000 {
        if x < 10_000_000 {
            7
        } else {
            8
        }
    } else if x < 1_000_000_000 {
        9
    } else {
        10
    };
    let mut i = count;
    while x >= 100 {
        let pair = 2 * (x % 100) as usize;
        x /= 100;
        i -= 2;
        out[i] = DIGIT_PAIRS[pair];
        out[i + 1] = DIGIT_PAIRS[pair + 1];
    }
    if x >= 10 {
        let pair = 2 * x as usize;
        out[0] = DIGIT_PAIRS[pair];
        out[1] = DIGIT_PAIRS[pair + 1];
    } else {
        out[0] = b'0' + x as u8;
    }
    count
}

/// ASCII digit pairs `"00" … "99"` for two-at-a-time emission.
static DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Adjusts the last generated digit toward `w` and verifies the result
/// is the unique closest value in the safe interval (double-conversion's
/// `RoundWeed`). `wrapping_sub` mirrors the reference's unsigned
/// arithmetic.
fn round_weed(
    buf: &mut [u8],
    distance_too_high_w: u64,
    unsafe_interval: u64,
    mut rest: u64,
    ten_kappa: u64,
    unit: u64,
) -> bool {
    let small = distance_too_high_w.wrapping_sub(unit);
    let big = distance_too_high_w.wrapping_add(unit);
    while rest < small
        && unsafe_interval - rest >= ten_kappa
        && (rest + ten_kappa < small || small - rest >= rest + ten_kappa - small)
    {
        *buf.last_mut().expect("at least one digit") -= 1;
        rest += ten_kappa;
    }
    if rest < big
        && unsafe_interval - rest >= ten_kappa
        && (rest + ten_kappa < big || big - rest > rest + ten_kappa - big)
    {
        return false;
    }
    2 * unit <= rest && rest <= unsafe_interval.wrapping_sub(4 * unit)
}

// ---------------------------------------------------------------------------
// cached powers of ten
// ---------------------------------------------------------------------------

const CACHE_MIN_DEC: i32 = -348;
const CACHE_STEP: i32 = 8;

fn cache() -> &'static [Fp] {
    static TABLE: OnceLock<Vec<Fp>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..87)
            .map(|i| pow10_fp(CACHE_MIN_DEC + CACHE_STEP * i))
            .collect()
    })
}

/// Picks the cached power `10^dec` whose product with a value of binary
/// exponent `e` lands in `[ALPHA, GAMMA]`; returns `(power, dec)`.
fn cached_power(e: i32) -> (Fp, i32) {
    // ceil((ALPHA - e - 63) · log10 2), then up to the next table slot.
    let dk = f64::from(-61 - e) * std::f64::consts::LOG10_2 + 347.0;
    let mut k = dk as i32;
    if dk > f64::from(k) {
        k += 1;
    }
    let index = ((k >> 3) + 1) as usize;
    let pow = cache()[index];
    debug_assert!((ALPHA..=GAMMA).contains(&(e + pow.e + 64)));
    (pow, CACHE_MIN_DEC + CACHE_STEP * index as i32)
}

/// Correctly rounded `Fp` for `10^dec`, computed with exact bignum
/// arithmetic: repeated small multiplications for `dec ≥ 0`, binary
/// long division of a power of two for `dec < 0`. Ties cannot occur
/// for these inputs (see the in-line arguments), so round-half-up on
/// the cut bit is exact round-to-nearest.
fn pow10_fp(dec: i32) -> Fp {
    if dec >= 0 {
        let mut big = vec![1u32];
        for _ in 0..dec {
            mul_small(&mut big, 10);
        }
        // A tie would need the cut-off bits to be 100…0; 10^dec's
        // lowest set bit is bit `dec`, which never aligns that way for
        // any dec with more than 64 significant bits above it.
        let (f, shift) = top64(&big);
        Fp { f, e: shift }
    } else {
        let mut den = vec![1u32];
        for _ in 0..-dec {
            mul_small(&mut den, 10);
        }
        // q = ⌊2^s / 10^-dec⌋ has exactly 67 bits; the division is
        // never exact (the denominator has a factor 5), so the cut
        // sits strictly below the true value and half-up is correct.
        let s = bit_len(&den) + 66;
        let q = div_pow2(s, &den);
        let (f, shift) = top64(&q);
        Fp {
            f,
            e: shift - s as i32,
        }
    }
}

/// Top 64 bits of a nonzero bignum, rounded half-up on the first cut
/// bit: `value ≈ f × 2^e` with `f ∈ [2^63, 2^64)`.
fn top64(n: &[u32]) -> (u64, i32) {
    let len = bit_len(n);
    debug_assert!(len > 0);
    if len <= 64 {
        let mut f = 0u64;
        for (i, &limb) in n.iter().enumerate().take(2) {
            f |= u64::from(limb) << (32 * i);
        }
        let s = 64 - len as i32;
        return (f << s, -s);
    }
    let cut = len - 64;
    let mut f = 0u64;
    for i in 0..64 {
        if get_bit(n, cut + i) {
            f |= 1 << i;
        }
    }
    let mut e = cut as i32;
    if get_bit(n, cut - 1) {
        f = f.wrapping_add(1);
        if f == 0 {
            f = 1 << 63;
            e += 1;
        }
    }
    (f, e)
}

fn mul_small(n: &mut Vec<u32>, m: u32) {
    let mut carry = 0u64;
    for limb in n.iter_mut() {
        let p = u64::from(*limb) * u64::from(m) + carry;
        *limb = p as u32;
        carry = p >> 32;
    }
    if carry > 0 {
        n.push(carry as u32);
    }
}

fn bit_len(n: &[u32]) -> usize {
    for (i, &limb) in n.iter().enumerate().rev() {
        if limb != 0 {
            return 32 * i + (32 - limb.leading_zeros() as usize);
        }
    }
    0
}

fn get_bit(n: &[u32], i: usize) -> bool {
    n.get(i / 32).is_some_and(|&limb| limb >> (i % 32) & 1 == 1)
}

/// `⌊2^s / den⌋` by restoring binary long division (init-time only).
fn div_pow2(s: usize, den: &[u32]) -> Vec<u32> {
    let mut q = vec![0u32; s / 32 + 1];
    let mut rem = vec![0u32; den.len() + 1];
    for i in (0..=s).rev() {
        let mut carry = u32::from(i == s);
        for limb in rem.iter_mut() {
            let out = *limb >> 31;
            *limb = (*limb << 1) | carry;
            carry = out;
        }
        if ge(&rem, den) {
            sub(&mut rem, den);
            q[i / 32] |= 1 << (i % 32);
        }
    }
    q
}

fn ge(a: &[u32], b: &[u32]) -> bool {
    for i in (0..a.len().max(b.len())).rev() {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        if x != y {
            return x > y;
        }
    }
    true
}

fn sub(a: &mut [u32], b: &[u32]) {
    let mut borrow = 0u64;
    for (i, limb) in a.iter_mut().enumerate() {
        let rhs = u64::from(b.get(i).copied().unwrap_or(0)) + borrow;
        let lhs = u64::from(*limb);
        if lhs >= rhs {
            *limb = (lhs - rhs) as u32;
            borrow = 0;
        } else {
            *limb = (lhs + (1 << 32) - rhs) as u32;
            borrow = 1;
        }
    }
    debug_assert_eq!(borrow, 0, "subtraction underflow");
}

// ---------------------------------------------------------------------------
// tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn fast(v: f64) -> String {
        let mut s = String::new();
        push_f64(&mut s, v);
        s
    }

    #[track_caller]
    fn check(v: f64) {
        assert_eq!(fast(v), format!("{v}"), "bits {:#018x}", v.to_bits());
    }

    #[test]
    fn matches_std_on_corner_cases() {
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            0.1,
            0.3,
            1.5,
            3.0,
            10.0,
            100.0,
            0.25,
            -2.375,
            1e16,
            1e17 - 2.0,
            1e23, // classic shortest-representation stress value
            1e300,
            1e-300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::from_bits(1),               // smallest subnormal
            f64::from_bits(0xfffffffffffff), // largest subnormal
            (1u64 << 53) as f64 - 1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            2f64.powi(-1022),
            123_456_789.123_456_79,
            0.000001,
            0.0000001,
        ] {
            check(v);
        }
        // Powers of ten and of two across the whole range.
        for p in -308..=308 {
            check(format!("1e{p}").parse::<f64>().unwrap());
        }
        for p in -1074..=1023 {
            check(2f64.powi(p));
            check(1.5 * 2f64.powi(p));
        }
    }

    #[test]
    fn matches_std_on_random_bit_patterns() {
        // Deterministic xorshift over raw bit patterns: every exponent
        // class, subnormals and negatives included.
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut checked = 0;
        while checked < 50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = f64::from_bits(x);
            if v.is_nan() {
                continue;
            }
            check(v);
            checked += 1;
        }
    }

    #[test]
    fn matches_std_on_severity_like_values() {
        // The shapes the writers actually emit: full-precision values
        // from arithmetic, plus eighth-steps from the property tests.
        let mut state = 1u64;
        for i in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            check(unit * 10.0 - 2.0);
            check(f64::from(i % 400 - 200) * 0.125);
            // Quantized to timer resolution: the fixed-notation class.
            check((unit * 10.0 - 2.0) * 1e6_f64.recip() * 1e6);
            check(((unit * 10.0 - 2.0) * 1e6).round() / 1e6);
            check(((unit * 1e10).round() / 1e6) * if i % 2 == 0 { 1.0 } else { -1.0 });
        }
    }

    #[test]
    fn matches_std_around_fixed_path_boundaries() {
        // Magnitude gate (2³²), resolution gate (multiples of 10⁻⁶),
        // and values straddling both.
        let mut cases = vec![
            1e-6,
            -1e-6,
            2e-6,
            9.9e-5,
            0.000001,
            0.999999,
            1.000001,
            123456.654321,
            4294967295.999999,
            4294967296.0,
            4294967296.000001,
            4294967297.5,
            8589934592.25,
            1e15 + 0.5,
            0.1,
            0.5,
            3.0,
            -2.75,
        ];
        for i in 0..5000u64 {
            // Dense walk over the 10⁻⁶ grid and its neighbors in ulps.
            let g = i as f64 / 1e6;
            cases.push(g);
            cases.push(-g);
            cases.push(g.next_up());
            cases.push(g.next_down());
            cases.push((i as f64 * 4096.0 + 0.33) / 1e6);
        }
        for v in cases {
            check(v);
        }
    }

    #[test]
    fn cached_power_covers_every_normalized_exponent() {
        // Normalized f64 exponents span [-1137, 960]; the scaled
        // exponent must land in digit_gen's window for each.
        for e in -1137..=960 {
            let (pow, dec) = cached_power(e);
            let scaled = e + pow.e + 64;
            assert!(
                (ALPHA..=GAMMA).contains(&scaled),
                "e={e} dec={dec} scaled={scaled}"
            );
        }
    }

    #[test]
    fn cached_powers_are_correctly_rounded_spot_checks() {
        // 10^0 and exactly representable powers must come out exact.
        assert_eq!(pow10_fp(0).f, 1 << 63);
        assert_eq!(pow10_fp(0).e, -63);
        // 10^8 has 27 bits, so its normalized form is an exact shift.
        let p8 = pow10_fp(8);
        assert_eq!((p8.f, p8.e), (100_000_000u64 << 37, -37));
    }
}

#[cfg(test)]
mod probe {
    use super::*;

    #[test]
    #[ignore = "diagnostic"]
    fn timing() {
        let mut state = 1u64;
        let mut vals = Vec::new();
        for _ in 0..100_000u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            vals.push(unit * 10.0 - 2.0);
        }
        let mut buf = [0u8; 40];
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            for &v in &vals {
                std::hint::black_box(grisu3(std::hint::black_box(v), &mut buf));
            }
        }
        eprintln!(
            "grisu3 alone: {:.1} ns/call",
            t0.elapsed().as_nanos() as f64 / 1e6
        );
        let mut out = String::with_capacity(64);
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            for &v in &vals {
                out.clear();
                push_f64(&mut out, std::hint::black_box(v));
                std::hint::black_box(&out);
            }
        }
        eprintln!(
            "push_f64: {:.1} ns/call",
            t0.elapsed().as_nanos() as f64 / 1e6
        );

        // setup portion only: everything before digit_gen
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            for &v in &vals {
                let v = std::hint::black_box(v);
                let w = fp_of(v).normalize();
                let (low, high) = boundaries(v);
                let (pow, dec) = cached_power(w.e);
                std::hint::black_box((w.mul(pow), low.mul(pow), high.mul(pow), dec));
            }
        }
        eprintln!(
            "setup only: {:.1} ns/call",
            t0.elapsed().as_nanos() as f64 / 1e6
        );

        // cached_power alone
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            for &v in &vals {
                let w = fp_of(std::hint::black_box(v)).normalize();
                std::hint::black_box(cached_power(w.e));
            }
        }
        eprintln!(
            "fp+cached_power: {:.1} ns/call",
            t0.elapsed().as_nanos() as f64 / 1e6
        );
    }

    #[test]
    #[ignore = "diagnostic"]
    fn fallback_rate() {
        let mut state = 1u64;
        let mut buf = [0u8; 40];
        let n = 100_000;
        let (mut fail_full, mut fail_quant) = (0, 0);
        let mut quant = Vec::with_capacity(n);
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            let v: f64 = unit * 10.0 - 2.0;
            if grisu3(v.abs(), &mut buf).is_none() {
                fail_full += 1;
            }
            let q = (v * 1e6).round() / 1e6;
            quant.push(q);
            if grisu3(q.abs(), &mut buf).is_none() {
                fail_quant += 1;
            }
        }
        eprintln!("fallback full-precision: {fail_full}/{n}  quantized: {fail_quant}/{n}");
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            for &v in &quant {
                std::hint::black_box(grisu3(std::hint::black_box(v.abs()), &mut buf));
            }
        }
        eprintln!(
            "grisu3 on quantized: {:.1} ns/call",
            t0.elapsed().as_nanos() as f64 / (10 * n) as f64
        );
        let mut out = String::with_capacity(64);
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            for &v in &quant {
                out.clear();
                push_f64(&mut out, std::hint::black_box(v));
                std::hint::black_box(&out);
            }
        }
        eprintln!(
            "push_f64 on quantized: {:.1} ns/call",
            t0.elapsed().as_nanos() as f64 / (10 * n) as f64
        );
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            for &v in &quant {
                out.clear();
                let _ = write!(out, "{v}");
                std::hint::black_box(&out);
            }
        }
        eprintln!(
            "std {{}} on quantized: {:.1} ns/call",
            t0.elapsed().as_nanos() as f64 / (10 * n) as f64
        );
    }
}
