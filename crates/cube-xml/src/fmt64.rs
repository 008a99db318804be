//! Fast shortest-round-trip `f64` formatting for severity rows.
//!
//! Severity sections dominate `.cube` files, and the standard
//! library's `{}` formatting machinery is most of the streaming
//! write's cost. [`push_f64`] replaces it with two tiers, each
//! byte-identical to `{}`:
//!
//! 1. a fixed-notation path for values that are exact multiples of
//!    10⁻⁶ below 2³² ([`push_fixed_micro`]) — measurement data
//!    quantized at timer resolution lands here almost always, and the
//!    value reduces to one integer itoa;
//! 2. Ryu (Adams, PLDI 2018) for every other finite non-zero value —
//!    derived experiments (means, scalings, deviations) are
//!    full-precision doubles and all take this tier. Three 128-bit
//!    products against exact tables of powers of five bound the
//!    value's rounding interval in decimal, and digits are removed
//!    while the interval still holds a shorter number.
//!
//! `write!("{v}")` remains only for NaN and the infinities.
//!
//! **Ties round half up.** When the shortest digits leave a remainder
//! of exactly one half, `{}` rounds up, away from zero: 2⁻²⁵ =
//! 0.0000000298023223876953125 prints as `0.000000029802322387695313`.
//! Ryu's reference code rounds such ties to even (`…695312`), so this
//! module rounds half up instead, and drops the reference's
//! bookkeeping of whether the middle value is exact, which only the
//! even rule reads.
//!
//! The format stability golden test and the differential property
//! tests of the DOM oracle (`src/oracle.rs`) depend on the byte-for-byte
//! guarantee.
//!
//! The power-of-five tables are not baked-in literals: `const fn`s
//! compute them at compile time with a fixed-width bignum (a running
//! `5^i`, and a running `⌊2^916 / 5^i⌋` divided by five per entry),
//! which keeps this module self-contained and auditable. The tests
//! below check every entry against a slow bignum computation and
//! compare `push_f64` with `format!` over random bit patterns and
//! structured corner cases; `ci/check.sh` runs the large release-mode
//! comparison.

use std::fmt::Write as _;

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
        let (mantissa, k) = d2d(v.abs());
        let mut buf = [0u8; 20];
        let start = itoa(mantissa, &mut buf);
        render(out, v < 0.0, &buf[start..], k);
        return;
    }
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
        // `push_f64` fills from `DIGIT_PAIRS` only).
        out.push_str(unsafe { std::str::from_utf8_unchecked(&tmp[..total]) });
        return;
    }

    if neg {
        out.push('-');
    }
    let digits = std::str::from_utf8(digits).expect("decimal digits are ASCII");
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

/// Appends `x` in decimal, byte-identical to `write!(out, "{x}")`.
pub(crate) fn push_u64(out: &mut String, x: u64) {
    let mut buf = [0u8; 20];
    let start = itoa(x, &mut buf);
    out.push_str(std::str::from_utf8(&buf[start..]).expect("decimal digits are ASCII"));
}

/// Writes the decimal digits of `x` at the end of `buf`, two at a time
/// through [`DIGIT_PAIRS`]; returns the index of the first digit.
fn itoa(mut x: u64, buf: &mut [u8; 20]) -> usize {
    let mut i = buf.len();
    while x >= 100 {
        let pair = 2 * (x % 100) as usize;
        x /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if x >= 10 {
        let pair = 2 * x as usize;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + x as u8;
    }
    i
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

// ---------------------------------------------------------------------------
// Ryu
// ---------------------------------------------------------------------------

/// Significant bits kept of each table entry (Ryu's
/// `DOUBLE_POW5_BITCOUNT` and `DOUBLE_POW5_INV_BITCOUNT`).
const POW5_BITS: i32 = 125;

/// Shortest round-trip digits of finite positive `v`: returns `(m, k)`
/// such that `m × 10^k` is the shortest decimal that parses back to
/// `v`, the closest to `v` of that length, ties rounded half up. `m`
/// has no trailing zeros.
fn d2d(v: f64) -> (u64, i32) {
    let bits = v.to_bits();
    let ieee_mantissa = bits & ((1 << 52) - 1);
    let ieee_exponent = (bits >> 52) as i32;
    // Two extra bits of exponent give the interval bounds room.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - 1023 - 52 - 2, ieee_mantissa)
    } else {
        (ieee_exponent - 1023 - 52 - 2, ieee_mantissa | (1 << 52))
    };
    // Round-to-nearest-even parsing maps the interval's end points to
    // `v` exactly when its mantissa is even.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The lower gap is half-sized when `v` is a power of two above the
    // subnormals: its predecessor sits in the binade below.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // The interval [mm, mp] = [mv - 1 - mm_shift, mv + 2] (in units of
    // 2^e2), scaled by 10^-q into (vm, vr, vp), exactly floored.
    let mut vm_is_trailing_zeros = false;
    let (e10, mut vr, mut vp, mut vm);
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITS + pow5bits(q as i32) - 1;
        let j = (q as i32 + k - e2) as u32;
        (vr, vp, vm) = mul_shift_all(m2, POW5_INV[q as usize], j, mm_shift);
        // A scaled end point is exact only when 5^q divides it, which
        // below 2^55 needs a small q (Ryu checks q ≤ 21); at most one of
        // mm, mv and mp is a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = pow5_factor(mv - 1 - mm_shift) >= q;
            } else {
                vp -= u64::from(pow5_factor(mv + 2) >= q);
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let j = (q as i32 - (pow5bits(i) - POW5_BITS)) as u32;
        (vr, vp, vm) = mul_shift_all(m2, POW5[i as usize], j, mm_shift);
        if q <= 1 {
            // A scaled end point is exact when it has q trailing zero
            // bits: mm = mv - 1 - mm_shift has one iff mm_shift is 1,
            // and mp = mv + 2 always has one.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Remove digits while the interval still holds a shorter decimal.
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // Rare: the lower end point is exact and may itself be the
        // answer, so track whether every digit cut from it was zero.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_is_trailing_zeros) || last_removed >= 5)
    } else {
        let mut round_up = false;
        // About two digits go on average: try two at once first.
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// `(vr, vp, vm)`: `m2`'s interval `4·m2 + {0, 2, -1 - mm_shift}`
/// multiplied by a table entry and shifted right by `j`.
fn mul_shift_all(m2: u64, mul: u128, j: u32, mm_shift: u64) -> (u64, u64, u64) {
    let mul_shift = |m: u64| {
        let low = u128::from(m) * u128::from(mul as u64);
        let high = u128::from(m) * (mul >> 64);
        (((low >> 64) + high) >> (j - 64)) as u64
    };
    (
        mul_shift(4 * m2),
        mul_shift(4 * m2 + 2),
        mul_shift(4 * m2 - 1 - mm_shift),
    )
}

/// `⌊log₁₀ 2^e⌋` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log₁₀ 5^e⌋` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Bit length of `5^e` (1 for `e = 0`), for `0 ≤ e ≤ 3528`.
const fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// The largest `p` with `5^p` dividing `v`; `v` is non-zero.
fn pow5_factor(mut v: u64) -> u32 {
    let mut p = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        p += 1;
    }
    p
}

// ---------------------------------------------------------------------------
// power-of-five tables
// ---------------------------------------------------------------------------

/// `5^i` cut (or padded) to its top [`POW5_BITS`] bits, for `i < 326`:
/// every `e2 < 0` a double can have.
static POW5: [u128; 326] = pow5_table();

/// `⌊2^(pow5bits(i) − 1 + 125) / 5^i⌋ + 1`, for `i < 342`: every
/// `e2 ≥ 0` a double can have.
static POW5_INV: [u128; 342] = pow5_inv_table();

/// Limbs of the table builders' bignum: `2^INV_NUMERATOR` fits.
const LIMBS: usize = 29;

/// `pow5bits(341) − 1 + 125`: the largest numerator exponent of
/// [`POW5_INV`].
const INV_NUMERATOR: usize = 916;

const fn pow5_table() -> [u128; 326] {
    let mut table = [0u128; 326];
    let mut pow = [0u32; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let len = pow5bits(i as i32);
        table[i] = if len <= POW5_BITS {
            bits_at(&pow, 0) << (POW5_BITS - len)
        } else {
            bits_at(&pow, (len - POW5_BITS) as usize)
        };
        // pow ← pow · 5
        let mut carry = 0u64;
        let mut l = 0;
        while l < LIMBS {
            let p = pow[l] as u64 * 5 + carry;
            pow[l] = p as u32;
            carry = p >> 32;
            l += 1;
        }
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; 342] {
    let mut table = [0u128; 342];
    // quot = ⌊2^INV_NUMERATOR / 5^i⌋, kept exact by ⌊⌊a/b⌋/c⌋ = ⌊a/(bc)⌋.
    let mut quot = [0u32; LIMBS];
    quot[INV_NUMERATOR / 32] = 1 << (INV_NUMERATOR % 32);
    let mut i = 0;
    while i < table.len() {
        let numerator = (pow5bits(i as i32) - 1 + POW5_BITS) as usize;
        table[i] = bits_at(&quot, INV_NUMERATOR - numerator) + 1;
        // quot ← ⌊quot / 5⌋
        let mut rem = 0u64;
        let mut l = LIMBS;
        while l > 0 {
            l -= 1;
            let cur = (rem << 32) | quot[l] as u64;
            quot[l] = (cur / 5) as u32;
            rem = cur % 5;
        }
        i += 1;
    }
    table
}

/// Bits `shift .. shift + 128` of `n`.
const fn bits_at(n: &[u32; LIMBS], shift: usize) -> u128 {
    let mut out = 0u128;
    let mut k = 0;
    while k < 4 {
        let pos = shift + 32 * k;
        let (w, b) = (pos / 32, pos % 32);
        let lo = if w < LIMBS { n[w] as u64 } else { 0 };
        let hi = if w + 1 < LIMBS { n[w + 1] as u64 } else { 0 };
        out |= ((((hi << 32) | lo) >> b) as u32 as u128) << (32 * k);
        k += 1;
    }
    out
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
    fn exact_ties_round_half_up_like_std() {
        // Both values need 17 digits and sit exactly halfway between two
        // 17-digit candidates; half-to-even would print `…312` / `…27.2`.
        for (v, text) in [
            (2f64.powi(-25), "0.000000029802322387695313"),
            (2_181_495_296_738_027.0 + 0.25, "2181495296738027.3"),
        ] {
            assert_eq!(fast(v), text);
            check(v);
            check(-v);
        }
    }

    // -- the power-of-five tables against a slow bignum ---------------------

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

    /// Bits `from .. from + 128` of `n`, one at a time.
    fn bits(n: &[u32], from: usize) -> u128 {
        (0..128).fold(0, |acc, k| acc | u128::from(get_bit(n, from + k)) << k)
    }

    fn pow5(i: usize) -> Vec<u32> {
        let mut n = vec![1u32];
        for _ in 0..i {
            mul_small(&mut n, 5);
        }
        n
    }

    /// `⌊2^s / den⌋` by restoring binary long division.
    fn div_pow2(s: usize, den: &[u32]) -> Vec<u32> {
        let ge = |a: &[u32], b: &[u32]| {
            for i in (0..a.len().max(b.len())).rev() {
                let x = a.get(i).copied().unwrap_or(0);
                let y = b.get(i).copied().unwrap_or(0);
                if x != y {
                    return x > y;
                }
            }
            true
        };
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
                let mut borrow = 0i64;
                for (k, limb) in rem.iter_mut().enumerate() {
                    let d = i64::from(*limb) - i64::from(den.get(k).copied().unwrap_or(0)) - borrow;
                    borrow = i64::from(d < 0);
                    *limb = d.rem_euclid(1 << 32) as u32;
                }
                assert_eq!(borrow, 0);
                q[i / 32] |= 1 << (i % 32);
            }
        }
        q
    }

    #[test]
    fn pow5_table_holds_the_top_125_bits_of_each_power() {
        for (i, &entry) in POW5.iter().enumerate() {
            let n = pow5(i);
            let len = bit_len(&n);
            assert_eq!(pow5bits(i as i32), len as i32, "bit length of 5^{i}");
            let expected = if len <= 125 {
                bits(&n, 0) << (125 - len)
            } else {
                bits(&n, len - 125)
            };
            assert_eq!(entry, expected, "5^{i}");
            assert_eq!(128 - entry.leading_zeros(), 125, "5^{i} keeps 125 bits");
        }
    }

    #[test]
    fn pow5_inv_table_is_the_rounded_up_reciprocal() {
        for (i, &entry) in POW5_INV.iter().enumerate() {
            let n = pow5(i);
            let len = bit_len(&n);
            assert_eq!(pow5bits(i as i32), len as i32, "bit length of 5^{i}");
            let q = div_pow2(len - 1 + 125, &n);
            assert!(bit_len(&q) <= 126, "⌊2^s/5^{i}⌋ fits the entry");
            assert_eq!(entry, bits(&q, 0) + 1, "1/5^{i}");
        }
        assert_eq!(INV_NUMERATOR as i32, pow5bits(341) - 1 + POW5_BITS);
    }

    /// The release-mode comparison `ci/check.sh` runs in its kernel
    /// stage: 10,000,000 random bit patterns, 1,000 random mantissas at
    /// each of the 2,047 finite exponents, and 2,000,000 values shaped
    /// like the algebra's derived severities.
    #[test]
    #[ignore = "takes seconds in release builds; run by ci/check.sh"]
    fn matches_std_at_release_scale() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut s = String::with_capacity(64);
        let mut check_fast = |v: f64| {
            s.clear();
            push_f64(&mut s, v);
            assert_eq!(s, format!("{v}"), "bits {:#018x}", v.to_bits());
        };
        let mut checked = 0;
        while checked < 10_000_000 {
            let v = f64::from_bits(next());
            if !v.is_nan() {
                check_fast(v);
                checked += 1;
            }
        }
        for exponent in 0..2047u64 {
            for _ in 0..1000 {
                let bits = exponent << 52 | next() >> 12;
                check_fast(f64::from_bits(bits));
            }
        }
        // Means of four quantized runs, `scale(…, 1+(n+1)·1e-9)`, and
        // population deviations of four runs: never multiples of 10⁻⁶.
        let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        for n in 0..2_000_000 / 3 {
            let runs: [f64; 4] =
                std::array::from_fn(|_| ((unit() * 20.0).powi(3) * 1e6).round() / 1e6);
            let mean = runs.iter().sum::<f64>() / 4.0;
            check_fast(mean);
            check_fast(runs[0] * (1.0 + f64::from(n + 1) * 1e-9));
            let var = runs.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / 4.0;
            check_fast(var.sqrt());
        }
    }
}

#[cfg(test)]
mod probe {
    use super::*;

    /// Full-precision values like a mean of four quantized runs scaled
    /// by `1 + 3e-9`, and the same values quantized.
    fn values() -> (Vec<f64>, Vec<f64>) {
        let mut state = 1u64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let full: Vec<f64> = (0..100_000)
            .map(|_| {
                let sum: f64 = (0..4).map(|_| (unit() * 1e7).round() / 1e6).sum();
                sum / 4.0 * (1.0 + 3e-9)
            })
            .collect();
        let quant = full.iter().map(|v| (v * 1e6).round() / 1e6).collect();
        (full, quant)
    }

    fn time(label: &str, vals: &[f64], mut f: impl FnMut(f64)) {
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            for &v in vals {
                f(std::hint::black_box(v));
            }
        }
        let ns = t0.elapsed().as_nanos() as f64 / (10 * vals.len()) as f64;
        eprintln!("{label}: {ns:.1} ns/value");
    }

    #[test]
    #[ignore = "diagnostic"]
    fn timing() {
        let (full, quant) = values();
        time("d2d alone, full precision", &full, |v| {
            std::hint::black_box(d2d(v));
        });
        let mut out = String::with_capacity(64);
        for (label, vals) in [("full precision", &full), ("quantized", &quant)] {
            time(&format!("push_f64, {label}"), vals, |v| {
                out.clear();
                push_f64(&mut out, v);
                std::hint::black_box(&out);
            });
            time(&format!("std {{}}, {label}"), vals, |v| {
                out.clear();
                let _ = write!(out, "{v}");
                std::hint::black_box(&out);
            });
        }
    }
}
