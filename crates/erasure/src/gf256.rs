//! Arithmetic in the Galois field GF(2^8).
//!
//! Elements are bytes; addition is XOR; multiplication is polynomial
//! multiplication modulo the primitive polynomial
//! `x^8 + x^4 + x^3 + x^2 + 1` (0x11d), the same field used by standard
//! Reed–Solomon storage codes. Multiplication and division are table-driven
//! (log/exp tables over the generator 2), built once at first use.

/// The reducing polynomial for the field, sans the x^8 term.
const POLY: u16 = 0x11d;

/// Log/antilog tables for GF(2^8) with generator 2.
struct Tables {
    /// `exp[i] = 2^i`, doubled in length so products of logs need no mod.
    exp: [u8; 512],
    /// `log[x]` for x in 1..=255; `log[0]` is unused.
    log: [u16; 256],
}

fn tables() -> &'static Tables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u16; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().take(255).enumerate() {
            *e = x as u8;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Adds two field elements (XOR).
///
/// # Examples
///
/// ```
/// assert_eq!(reo_erasure::gf256::add(0x53, 0xca), 0x99);
/// // Addition is its own inverse.
/// assert_eq!(reo_erasure::gf256::add(0x99, 0xca), 0x53);
/// ```
#[inline]
pub const fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplies two field elements.
///
/// # Examples
///
/// ```
/// use reo_erasure::gf256;
/// assert_eq!(gf256::mul(0, 0xff), 0);
/// assert_eq!(gf256::mul(1, 0xff), 0xff);
/// ```
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[(t.log[a as usize] + t.log[b as usize]) as usize]
}

/// Divides `a` by `b`.
///
/// # Panics
///
/// Panics if `b` is zero.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        return 0;
    }
    let t = tables();
    t.exp[(t.log[a as usize] + 255 - t.log[b as usize]) as usize]
}

/// The multiplicative inverse of `a`.
///
/// # Panics
///
/// Panics if `a` is zero (zero has no inverse).
#[inline]
pub fn inv(a: u8) -> u8 {
    div(1, a)
}

/// Raises `a` to the power `n`.
pub fn pow(a: u8, mut n: u32) -> u8 {
    if n == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let t = tables();
    n %= 255;
    let l = (t.log[a as usize] as u32 * n) % 255;
    t.exp[l as usize]
}

/// XORs `src` into `dst`: `dst[i] ^= src[i]`.
///
/// Runs eight bytes at a time through u64 words (the coefficient-1 fast
/// path of the encode kernels), with a byte loop for the tail.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor_slice(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    let split = dst.len() - dst.len() % 8;
    let (d_words, d_tail) = dst.split_at_mut(split);
    let (s_words, s_tail) = src.split_at(split);
    for (d, s) in d_words.chunks_exact_mut(8).zip(s_words.chunks_exact(8)) {
        let w = u64::from_ne_bytes(d.try_into().expect("8-byte chunk"))
            ^ u64::from_ne_bytes(s.try_into().expect("8-byte chunk"));
        d.copy_from_slice(&w.to_ne_bytes());
    }
    for (d, s) in d_tail.iter_mut().zip(s_tail) {
        *d ^= s;
    }
}

/// A precomputed multiply-by-constant kernel for a fixed coefficient.
///
/// Two representations are built once per coefficient: the classic split
/// low/high-nibble tables (`c * x = low[x & 0xf] ^ high[x >> 4]`, two
/// 16-entry lookups per byte) used for scalar lookups and slice tails, and
/// the eight per-bit partial products `c * 2^i` that drive a bit-sliced
/// u64 word kernel processing eight bytes per step with no memory lookups.
/// Build one per encoding coefficient (the codec caches them) and reuse it
/// across the whole chunk.
///
/// # Examples
///
/// ```
/// use reo_erasure::gf256::{mul, MulTable};
///
/// let t = MulTable::new(0x1d);
/// for x in [0u8, 1, 7, 255] {
///     assert_eq!(t.mul(x), mul(0x1d, x));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct MulTable {
    low: [u8; 16],
    high: [u8; 16],
    /// `bits[i] = c * 2^i` — the per-bit partial products of the word kernel.
    bits: [u64; 8],
    c: u8,
}

/// `0x01` replicated into every byte lane of a u64.
const LANES: u64 = 0x0101_0101_0101_0101;

impl MulTable {
    /// Builds the table for coefficient `c`.
    pub fn new(c: u8) -> Self {
        let mut low = [0u8; 16];
        let mut high = [0u8; 16];
        let mut bits = [0u64; 8];
        for i in 0..16u8 {
            low[i as usize] = mul(c, i);
            high[i as usize] = mul(c, i << 4);
        }
        for (i, b) in bits.iter_mut().enumerate() {
            *b = mul(c, 1 << i) as u64;
        }
        MulTable { low, high, bits, c }
    }

    /// Multiplies one byte by the table's coefficient.
    #[inline]
    pub fn mul(&self, x: u8) -> u8 {
        self.low[(x & 0x0f) as usize] ^ self.high[(x >> 4) as usize]
    }

    /// Multiplies all eight byte lanes of a word by `c` at once.
    ///
    /// Bit-sliced: lane byte `x = Σ x_i·2^i`, so `c·x = Σ x_i·(c·2^i)` by
    /// linearity. Masking bit `i` out of every lane leaves bytes that are 0
    /// or 1, and an integer multiply by `c·2^i ≤ 255` then scales each lane
    /// without carrying across lane boundaries, so the XOR of the eight
    /// partial products is the exact field product per lane.
    #[inline]
    fn mul_word(&self, w: u64) -> u64 {
        let mut y = (w & LANES) * self.bits[0];
        y ^= ((w >> 1) & LANES) * self.bits[1];
        y ^= ((w >> 2) & LANES) * self.bits[2];
        y ^= ((w >> 3) & LANES) * self.bits[3];
        y ^= ((w >> 4) & LANES) * self.bits[4];
        y ^= ((w >> 5) & LANES) * self.bits[5];
        y ^= ((w >> 6) & LANES) * self.bits[6];
        y ^= ((w >> 7) & LANES) * self.bits[7];
        y
    }

    /// `dst[i] ^= c * src[i]` — the fused multiply-accumulate encode kernel.
    ///
    /// Coefficient 0 is a no-op and coefficient 1 degrades to [`xor_slice`];
    /// otherwise bytes stream through the word kernel eight at a time with a
    /// nibble-table loop for the tail.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn mul_slice_xor(&self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
        match self.c {
            0 => return,
            1 => return xor_slice(dst, src),
            _ => {}
        }
        let split = dst.len() - dst.len() % 8;
        let (d_words, d_tail) = dst.split_at_mut(split);
        let (s_words, s_tail) = src.split_at(split);
        for (d, s) in d_words.chunks_exact_mut(8).zip(s_words.chunks_exact(8)) {
            let w = u64::from_ne_bytes(d.try_into().expect("8-byte chunk"))
                ^ self.mul_word(u64::from_ne_bytes(s.try_into().expect("8-byte chunk")));
            d.copy_from_slice(&w.to_ne_bytes());
        }
        for (d, s) in d_tail.iter_mut().zip(s_tail) {
            *d ^= self.low[(s & 0x0f) as usize] ^ self.high[(s >> 4) as usize];
        }
    }

    /// `dst[i] = c * src[i]` — overwrite variant of [`Self::mul_slice_xor`].
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn mul_slice(&self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
        match self.c {
            0 => return dst.fill(0),
            1 => return dst.copy_from_slice(src),
            _ => {}
        }
        let split = dst.len() - dst.len() % 8;
        let (d_words, d_tail) = dst.split_at_mut(split);
        let (s_words, s_tail) = src.split_at(split);
        for (d, s) in d_words.chunks_exact_mut(8).zip(s_words.chunks_exact(8)) {
            let w = self.mul_word(u64::from_ne_bytes(s.try_into().expect("8-byte chunk")));
            d.copy_from_slice(&w.to_ne_bytes());
        }
        for (d, s) in d_tail.iter_mut().zip(s_tail) {
            *d = self.low[(s & 0x0f) as usize] ^ self.high[(s >> 4) as usize];
        }
    }

    /// `dst[i] ^= c * (old[i] ^ new[i])` — the fused delta-parity kernel.
    ///
    /// Folds the data delta and the coefficient multiply into one pass so
    /// parity updates need no intermediate delta buffer. On x86-64 with
    /// SSSE3 the body runs the same `PSHUFB` nibble-table kernel as
    /// [`mul_row_slice`]: xor the old and new blocks in-register, two
    /// table shuffles for the coefficient multiply, xor into the loaded
    /// destination — the exact per-byte op count of one encode source.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn mul_delta_xor(&self, dst: &mut [u8], old: &[u8], new: &[u8]) {
        assert_eq!(dst.len(), old.len(), "slice length mismatch");
        assert_eq!(dst.len(), new.len(), "slice length mismatch");
        if self.c == 0 {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if dst.len() >= 16 && x86::ssse3_available() {
            let blocks = dst.len() / 16;
            // SAFETY: SSSE3 support was just verified, lengths were just
            // verified, and `blocks * 16 <= dst.len() == old.len()`.
            unsafe { x86::mul_delta_blocks_ssse3(self, dst, old, new, blocks) };
            return self.mul_delta_xor_scalar(dst, old, new, blocks * 16);
        }
        self.mul_delta_xor_scalar(dst, old, new, 0)
    }

    /// The portable body of [`Self::mul_delta_xor`], starting at byte
    /// `off` (callers guarantee `off` is a multiple of 8 and ≤
    /// `dst.len()`; the caller already handled `c == 0`).
    fn mul_delta_xor_scalar(&self, dst: &mut [u8], old: &[u8], new: &[u8], mut off: usize) {
        let split = dst.len() - dst.len() % 8;
        while off < split {
            let delta = u64::from_ne_bytes(old[off..off + 8].try_into().expect("8-byte chunk"))
                ^ u64::from_ne_bytes(new[off..off + 8].try_into().expect("8-byte chunk"));
            let w = u64::from_ne_bytes(dst[off..off + 8].try_into().expect("8-byte chunk"))
                ^ if self.c == 1 {
                    delta
                } else {
                    self.mul_word(delta)
                };
            dst[off..off + 8].copy_from_slice(&w.to_ne_bytes());
            off += 8;
        }
        for i in split..dst.len() {
            let delta = old[i] ^ new[i];
            dst[i] ^= self.low[(delta & 0x0f) as usize] ^ self.high[(delta >> 4) as usize];
        }
    }
}

/// `dst[i] = Σ_d tables[d] · srcs[d][i]` — one whole parity row, fused.
///
/// The single-source kernels stream the destination through memory once
/// per source; at `m` data shards that is `m` destination reads plus `m`
/// writes per byte of parity. Here the accumulator lives in a register
/// across all sources, so the destination is written exactly once and
/// never read — the memory traffic drops from `2m + m` to `m + 1`
/// slice-passes per row. `dst` is overwritten, so callers don't need to
/// zero it first. Coefficients 0 and 1 short-circuit per word; the
/// sub-word tail uses the nibble tables (which are exact for every
/// coefficient, including 0 and 1).
///
/// On x86-64 with SSSE3 (detected at runtime) the body runs the classic
/// `PSHUFB` nibble-table kernel instead: each 16-byte block needs two
/// table shuffles per source, cutting the per-byte op count roughly 8×
/// versus the bit-sliced word kernel.
///
/// # Panics
///
/// Panics if `tables` and `srcs` have different lengths, if any source's
/// length differs from `dst`, or if `srcs` is empty.
pub fn mul_row_slice(tables: &[MulTable], srcs: &[&[u8]], dst: &mut [u8]) {
    assert_eq!(tables.len(), srcs.len(), "one table per source");
    assert!(!srcs.is_empty(), "a parity row needs at least one source");
    for s in srcs {
        assert_eq!(s.len(), dst.len(), "slice length mismatch");
    }
    #[cfg(target_arch = "x86_64")]
    if tables.len() <= x86::MAX_SOURCES && dst.len() >= 16 && x86::ssse3_available() {
        let blocks = dst.len() / 16;
        // SAFETY: SSSE3 support was just verified, lengths were just
        // verified, and `blocks * 16 <= dst.len() == srcs[d].len()`.
        unsafe { x86::mul_row_blocks_ssse3(tables, srcs, dst, blocks) };
        return mul_row_slice_scalar(tables, srcs, dst, blocks * 16);
    }
    mul_row_slice_scalar(tables, srcs, dst, 0)
}

/// The portable body of [`mul_row_slice`], starting at byte `off`
/// (callers guarantee `off` is a multiple of 8 and ≤ `dst.len()`).
fn mul_row_slice_scalar(tables: &[MulTable], srcs: &[&[u8]], dst: &mut [u8], mut off: usize) {
    // 32-byte blocks with four independent accumulators: the four
    // `mul_word` dependency chains overlap, and each source's `bits`
    // table is loaded once per block instead of once per word.
    let split32 = off + (dst.len() - off) / 32 * 32;
    while off < split32 {
        let mut acc = [0u64; 4];
        for (t, s) in tables.iter().zip(srcs) {
            let block = &s[off..off + 32];
            let mut w = [0u64; 4];
            for (lane, chunk) in w.iter_mut().zip(block.chunks_exact(8)) {
                *lane = u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            match t.c {
                0 => {}
                1 => {
                    for (a, lane) in acc.iter_mut().zip(w) {
                        *a ^= lane;
                    }
                }
                _ => {
                    for (a, lane) in acc.iter_mut().zip(w) {
                        *a ^= t.mul_word(lane);
                    }
                }
            }
        }
        for (a, chunk) in acc.iter().zip(dst[off..off + 32].chunks_exact_mut(8)) {
            chunk.copy_from_slice(&a.to_ne_bytes());
        }
        off += 32;
    }
    let split = dst.len() - dst.len() % 8;
    while off < split {
        let mut acc = 0u64;
        for (t, s) in tables.iter().zip(srcs) {
            let w = u64::from_ne_bytes(s[off..off + 8].try_into().expect("8-byte chunk"));
            match t.c {
                0 => {}
                1 => acc ^= w,
                _ => acc ^= t.mul_word(w),
            }
        }
        dst[off..off + 8].copy_from_slice(&acc.to_ne_bytes());
        off += 8;
    }
    for i in split..dst.len() {
        let mut b = 0u8;
        for (t, s) in tables.iter().zip(srcs) {
            let x = s[i];
            b ^= t.low[(x & 0x0f) as usize] ^ t.high[(x >> 4) as usize];
        }
        dst[i] = b;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Runtime-detected SSSE3 row kernel.
    //!
    //! `PSHUFB` is a 16-lane byte table lookup, and a [`super::MulTable`]'s
    //! `low`/`high` arrays are exactly 16-entry byte tables indexed by a
    //! nibble — so `c·x` for 16 bytes is two shuffles and a handful of
    //! masks. Correctness: `x = (hi << 4) | lo`, so by linearity
    //! `c·x = c·(hi << 4) ⊕ c·lo = high[hi] ⊕ low[lo]`, which is the same
    //! identity the scalar tail loop uses.

    use super::MulTable;
    use core::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_loadu_si128, _mm_set1_epi8, _mm_setzero_si128,
        _mm_shuffle_epi8, _mm_srli_epi64, _mm_storeu_si128, _mm_xor_si128,
    };

    /// Row width the stack-resident shuffle-table cache accommodates.
    pub(super) const MAX_SOURCES: usize = 16;

    /// True when the CPU supports SSSE3 (`std` caches the CPUID probe).
    pub(super) fn ssse3_available() -> bool {
        std::arch::is_x86_feature_detected!("ssse3")
    }

    /// Computes `dst[i] = Σ_d tables[d] · srcs[d][i]` for the first
    /// `blocks * 16` bytes.
    ///
    /// # Safety
    ///
    /// The CPU must support SSSE3, `tables.len() == srcs.len() <=
    /// MAX_SOURCES`, and every source and `dst` must hold at least
    /// `blocks * 16` bytes.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_row_blocks_ssse3(
        tables: &[MulTable],
        srcs: &[&[u8]],
        dst: &mut [u8],
        blocks: usize,
    ) {
        let nibble = _mm_set1_epi8(0x0f);
        // Hoist every source's shuffle tables out of the block loop.
        let mut low = [_mm_setzero_si128(); MAX_SOURCES];
        let mut high = [_mm_setzero_si128(); MAX_SOURCES];
        for (i, t) in tables.iter().enumerate() {
            low[i] = _mm_loadu_si128(t.low.as_ptr().cast::<__m128i>());
            high[i] = _mm_loadu_si128(t.high.as_ptr().cast::<__m128i>());
        }
        for b in 0..blocks {
            let off = b * 16;
            let mut acc = _mm_setzero_si128();
            for (i, s) in srcs.iter().enumerate() {
                let x = _mm_loadu_si128(s.as_ptr().add(off).cast::<__m128i>());
                let lo = _mm_and_si128(x, nibble);
                let hi = _mm_and_si128(_mm_srli_epi64::<4>(x), nibble);
                acc = _mm_xor_si128(acc, _mm_shuffle_epi8(low[i], lo));
                acc = _mm_xor_si128(acc, _mm_shuffle_epi8(high[i], hi));
            }
            _mm_storeu_si128(dst.as_mut_ptr().add(off).cast::<__m128i>(), acc);
        }
    }

    /// Computes `dst[i] ^= c * (old[i] ^ new[i])` for the first
    /// `blocks * 16` bytes — the fused delta kernel of
    /// [`MulTable::mul_delta_xor`].
    ///
    /// # Safety
    ///
    /// The CPU must support SSSE3 and `dst`, `old`, and `new` must each
    /// hold at least `blocks * 16` bytes.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_delta_blocks_ssse3(
        t: &MulTable,
        dst: &mut [u8],
        old: &[u8],
        new: &[u8],
        blocks: usize,
    ) {
        let nibble = _mm_set1_epi8(0x0f);
        let low = _mm_loadu_si128(t.low.as_ptr().cast::<__m128i>());
        let high = _mm_loadu_si128(t.high.as_ptr().cast::<__m128i>());
        for b in 0..blocks {
            let off = b * 16;
            let delta = _mm_xor_si128(
                _mm_loadu_si128(old.as_ptr().add(off).cast::<__m128i>()),
                _mm_loadu_si128(new.as_ptr().add(off).cast::<__m128i>()),
            );
            let lo = _mm_and_si128(delta, nibble);
            let hi = _mm_and_si128(_mm_srli_epi64::<4>(delta), nibble);
            let prod = _mm_xor_si128(_mm_shuffle_epi8(low, lo), _mm_shuffle_epi8(high, hi));
            let d = _mm_loadu_si128(dst.as_ptr().add(off).cast::<__m128i>());
            _mm_storeu_si128(
                dst.as_mut_ptr().add(off).cast::<__m128i>(),
                _mm_xor_si128(d, prod),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_is_xor() {
        assert_eq!(add(0b1010, 0b0110), 0b1100);
    }

    #[test]
    fn mul_identity_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn mul_matches_schoolbook() {
        // Carry-less multiply mod POLY, bit by bit.
        fn slow_mul(mut a: u8, mut b: u8) -> u8 {
            let mut r: u8 = 0;
            while b != 0 {
                if b & 1 != 0 {
                    r ^= a;
                }
                let hi = a & 0x80 != 0;
                a <<= 1;
                if hi {
                    a ^= (POLY & 0xff) as u8;
                }
                b >>= 1;
            }
            r
        }
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        div(3, 0);
    }

    #[test]
    fn pow_basics() {
        assert_eq!(pow(7, 0), 1);
        assert_eq!(pow(7, 1), 7);
        assert_eq!(pow(7, 2), mul(7, 7));
        assert_eq!(pow(0, 5), 0);
        // Fermat: a^255 = 1 for nonzero a.
        for a in 1..=255u8 {
            assert_eq!(pow(a, 255), 1);
        }
    }

    #[test]
    fn exp2_generates_whole_field() {
        let mut seen = [false; 256];
        for i in 0..255 {
            seen[pow(2, i) as usize] = true;
        }
        // 2 is a generator: all 255 nonzero elements appear.
        assert!(seen[1..].iter().all(|&s| s));
        assert!(!seen[0]);
    }

    #[test]
    fn mul_acc_slice_matches_scalar() {
        let src = [1u8, 2, 3, 0, 255];
        let mut dst = [9u8, 8, 7, 6, 5];
        let mut expect = dst;
        for (e, s) in expect.iter_mut().zip(&src) {
            *e ^= mul(*s, 0x1d);
        }
        MulTable::new(0x1d).mul_slice_xor(&mut dst, &src);
        assert_eq!(dst, expect);
    }

    #[test]
    fn mul_slice_special_cases() {
        let src = [3u8, 5, 0, 7];
        let mut buf = [0xaau8; 4];
        MulTable::new(1).mul_slice(&mut buf, &src);
        assert_eq!(buf, src);
        MulTable::new(0).mul_slice(&mut buf, &src);
        assert_eq!(buf, [0, 0, 0, 0]);
    }

    #[test]
    fn mul_table_matches_scalar_for_all_inputs() {
        for c in [0u8, 1, 2, 0x1d, 0x80, 0xff] {
            let t = MulTable::new(c);
            for x in 0..=255u8 {
                assert_eq!(t.mul(x), mul(c, x), "c={c} x={x}");
            }
        }
    }

    #[test]
    fn mul_table_slice_matches_mul_acc_slice() {
        // The overwrite kernel equals the accumulate kernel into zeros, and
        // both equal the scalar product.
        let src: Vec<u8> = (0..=255u8).collect();
        for c in [0u8, 1, 0x1d, 0xa7] {
            let t = MulTable::new(c);
            let expect: Vec<u8> = src.iter().map(|s| mul(c, *s)).collect();
            let mut acc = vec![0u8; 256];
            t.mul_slice_xor(&mut acc, &src);
            let mut over = vec![0x55u8; 256];
            t.mul_slice(&mut over, &src);
            assert_eq!(acc, expect, "c={c}");
            assert_eq!(over, expect, "c={c}");
        }
    }

    #[test]
    fn word_kernels_cover_edge_lengths() {
        // len 0, 1, and non-multiple-of-8 tails must all agree with the
        // reference byte loop.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let base: Vec<u8> = (0..len).map(|i| (i * 101 + 3) as u8).collect();
            for c in [0u8, 1, 2, 0x1d, 0xff] {
                let t = MulTable::new(c);
                let expect: Vec<u8> = base.iter().zip(&src).map(|(b, s)| b ^ mul(c, *s)).collect();
                let mut dst = base.clone();
                t.mul_slice_xor(&mut dst, &src);
                assert_eq!(dst, expect, "mul_slice_xor c={c} len={len}");

                let mut dst = base.clone();
                t.mul_slice(&mut dst, &src);
                let scaled: Vec<u8> = src.iter().map(|s| mul(c, *s)).collect();
                assert_eq!(dst, scaled, "mul_slice c={c} len={len}");
            }
        }
    }

    proptest! {
        #[test]
        fn mul_commutes(a: u8, b: u8) {
            prop_assert_eq!(mul(a, b), mul(b, a));
        }

        #[test]
        fn mul_slice_xor_matches_reference_byte_loop(
            c: u8,
            src in proptest::collection::vec(any::<u8>(), 0..70),
            seed: u8,
        ) {
            let base: Vec<u8> = src
                .iter()
                .enumerate()
                .map(|(i, _)| seed.wrapping_add((i * 29) as u8))
                .collect();
            let expect: Vec<u8> = base
                .iter()
                .zip(&src)
                .map(|(b, s)| b ^ mul(c, *s))
                .collect();
            let mut dst = base.clone();
            MulTable::new(c).mul_slice_xor(&mut dst, &src);
            prop_assert_eq!(dst, expect);
        }

        #[test]
        fn mul_slice_matches_reference_byte_loop(
            c: u8,
            src in proptest::collection::vec(any::<u8>(), 0..70),
        ) {
            let expect: Vec<u8> = src.iter().map(|s| mul(c, *s)).collect();
            let mut dst = vec![0xa5u8; src.len()];
            MulTable::new(c).mul_slice(&mut dst, &src);
            prop_assert_eq!(dst, expect);
        }

        #[test]
        fn mul_delta_xor_matches_reference_byte_loop(
            c: u8,
            old in proptest::collection::vec(any::<u8>(), 0..70),
            seed: u8,
        ) {
            let new: Vec<u8> = old
                .iter()
                .enumerate()
                .map(|(i, o)| o.wrapping_mul(17) ^ seed.wrapping_add(i as u8))
                .collect();
            let base: Vec<u8> = old.iter().map(|o| o.wrapping_add(seed)).collect();
            let expect: Vec<u8> = base
                .iter()
                .zip(old.iter().zip(&new))
                .map(|(b, (o, n))| b ^ mul(c, o ^ n))
                .collect();
            let mut dst = base.clone();
            MulTable::new(c).mul_delta_xor(&mut dst, &old, &new);
            prop_assert_eq!(dst, expect);
        }

        #[test]
        fn mul_delta_xor_fused_matches_scalar_kernel(
            c: u8,
            old in proptest::collection::vec(any::<u8>(), 0..200),
            seed: u8,
        ) {
            // Kernel equivalence for the fused delta path: the dispatching
            // entry point (SSSE3 blocks + scalar tail where available)
            // must agree byte-for-byte with the portable scalar body at
            // every length straddling the 16-byte block boundary.
            let new: Vec<u8> = old
                .iter()
                .enumerate()
                .map(|(i, o)| o.rotate_left(3) ^ seed.wrapping_mul(i as u8 | 1))
                .collect();
            let base: Vec<u8> = old.iter().map(|o| o.wrapping_mul(7) ^ seed).collect();
            let t = MulTable::new(c);
            let mut fused = base.clone();
            t.mul_delta_xor(&mut fused, &old, &new);
            let mut scalar = base.clone();
            if c != 0 {
                t.mul_delta_xor_scalar(&mut scalar, &old, &new, 0);
            }
            prop_assert_eq!(fused, scalar);
        }

        #[test]
        fn mul_row_slice_matches_per_source_accumulation(
            m in 1usize..6,
            len in 0usize..70,
            seed: u8,
        ) {
            // Coefficients deliberately include 0 and 1 alongside generic
            // values so the per-word short-circuits are exercised.
            let coeffs: Vec<u8> = (0..m).map(|d| seed.wrapping_mul(d as u8 ^ 0x5b)).collect();
            let tables: Vec<MulTable> = coeffs.iter().map(|&c| MulTable::new(c)).collect();
            let srcs: Vec<Vec<u8>> = (0..m)
                .map(|d| (0..len).map(|i| (i * 13 + d * 31) as u8 ^ seed).collect())
                .collect();
            let mut expect = vec![0u8; len];
            for (c, s) in coeffs.iter().zip(&srcs) {
                for (e, b) in expect.iter_mut().zip(s) {
                    *e ^= mul(*c, *b);
                }
            }
            let refs: Vec<&[u8]> = srcs.iter().map(Vec::as_slice).collect();
            let mut dst = vec![0xc3u8; len]; // dirty: the row kernel overwrites
            mul_row_slice(&tables, &refs, &mut dst);
            prop_assert_eq!(dst, expect);
        }

        #[test]
        fn xor_slice_matches_byte_loop(
            src in proptest::collection::vec(any::<u8>(), 0..70),
        ) {
            let base: Vec<u8> = src.iter().map(|s| s.wrapping_mul(31)).collect();
            let expect: Vec<u8> = base.iter().zip(&src).map(|(b, s)| b ^ s).collect();
            let mut dst = base.clone();
            xor_slice(&mut dst, &src);
            prop_assert_eq!(dst, expect);
        }

        #[test]
        fn mul_associates(a: u8, b: u8, c: u8) {
            prop_assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
        }

        #[test]
        fn mul_distributes_over_add(a: u8, b: u8, c: u8) {
            prop_assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
        }

        #[test]
        fn div_inverts_mul(a: u8, b in 1u8..=255) {
            prop_assert_eq!(div(mul(a, b), b), a);
        }

        #[test]
        fn pow_adds_exponents(a in 1u8..=255, m in 0u32..300, n in 0u32..300) {
            prop_assert_eq!(mul(pow(a, m), pow(a, n)), pow(a, m + n));
        }
    }
}
