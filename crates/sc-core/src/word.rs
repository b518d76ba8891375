//! Word-generic kernel backends: scalar, portable super-word, and SIMD.
//!
//! Every hot kernel in this crate — the SNG comparator fill (into streams
//! and straight into packed lanes), the fused XNOR/popcount inner-product
//! counts, bit-sliced MUX selector application, the packed Harley-Seal
//! column counts and the count-plane drain — is written once, generically
//! over [`Word`]: a fixed-width bundle of 64-bit bit-stream lanes. So are
//! `sc-blocks`' hardware max pools over streams and over count planes. Two
//! per-cycle kernels are the exceptions, each with one portable body and
//! one AVX2 path: the MUX selected-sequence fill (a gather) and the Btanh
//! row walk (8 counters in `i32` lanes).
//!
//! * `u64` ([`Word::LANES`] = 1) is the **bit-exact reference**. Every other
//!   backend is required to produce identical bits; the kernels contain no
//!   backend-specific logic, only a wider word, so this holds by
//!   construction and is property-tested per kernel.
//! * [`W4`] (`[u64; 4]`, 4 lanes) is the **portable super-word** — plain
//!   array code the compiler auto-vectorizes, available everywhere with no
//!   feature flags. It is the default wide path.
//! * `WAvx2` (x86-64, 4 lanes) is the `std::arch` backend, compiled on
//!   every x86-64 build and selected at runtime only when the CPU supports
//!   AVX2. Other targets (AArch64 included) run the scalar and [`W4`]
//!   backends.
//!
//! Backend selection is process-global: [`active_backend`] picks the best
//! available backend on first use (honouring the `SC_KERNEL_BACKEND`
//! environment variable: `scalar`, `wide`, or `avx2`), and
//! [`force_backend`] overrides it, e.g. to pin CI legs or A/B benchmark
//! runs. Because all backends are bit-identical, flipping the backend at any
//! point — even mid-evaluation from another thread — can never change a
//! result, only its speed.

use std::sync::atomic::{AtomicU8, Ordering};

/// A bundle of [`Word::LANES`] 64-bit bit-stream words processed as one unit.
///
/// Lane `i` of a `Word` loaded from `src` holds `src[i]`; all bitwise
/// operations act lane-wise, and shift counts are uniform across lanes and
/// must be `< 64`. The `*_i64` operations treat each lane as a signed 64-bit
/// integer (used by the max pools' lane-wise argmax); comparison results are
/// per-lane masks (all-ones for true, zero for false).
pub trait Word: Copy {
    /// Number of 64-bit lanes in this word.
    const LANES: usize;

    /// The all-zeros word.
    fn zero() -> Self;

    /// Broadcasts `value` into every lane.
    fn splat(value: u64) -> Self;

    /// Loads [`Word::LANES`] lanes from the front of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() < Self::LANES`.
    fn load(src: &[u64]) -> Self;

    /// Loads [`Word::LANES`] little-endian lanes from the front of `src`,
    /// at any byte alignment: lane `i` is bytes `8i .. 8i + 8`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() < 8 * Self::LANES`.
    fn load_le_bytes(src: &[u8]) -> Self;

    /// Stores the lanes to the front of `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() < Self::LANES`.
    fn store(self, dst: &mut [u64]);

    /// Lane-wise bitwise AND.
    fn and(self, rhs: Self) -> Self;

    /// Lane-wise bitwise OR.
    fn or(self, rhs: Self) -> Self;

    /// Lane-wise bitwise XOR.
    fn xor(self, rhs: Self) -> Self;

    /// Lane-wise bitwise NOT.
    fn not(self) -> Self;

    /// `self & !rhs`, lane-wise (one instruction on SIMD backends).
    #[inline(always)]
    fn andnot(self, rhs: Self) -> Self {
        self.and(rhs.not())
    }

    /// Uniform logical right shift of every lane by `n` (`n < 64`).
    fn shr(self, n: u32) -> Self;

    /// Uniform left shift of every lane by `n` (`n < 64`).
    fn shl(self, n: u32) -> Self;

    /// Whether every lane is zero.
    fn is_zero(self) -> bool;

    /// Adds the population count of each lane into the corresponding lane of
    /// `acc` and returns the updated accumulator.
    ///
    /// Keeping the accumulator vector-shaped lets the AVX2 backend run its
    /// byte-LUT popcount without a horizontal reduction per word; reduce
    /// once at the end with [`Word::horizontal_sum`].
    fn popcount_accumulate(self, acc: Self) -> Self;

    /// Sum of all lanes (wrapping).
    fn horizontal_sum(self) -> u64;

    /// Lane-wise wrapping addition of signed 64-bit lanes.
    fn add_i64(self, rhs: Self) -> Self;

    /// Lane-wise wrapping subtraction of signed 64-bit lanes.
    fn sub_i64(self, rhs: Self) -> Self;

    /// Lane-wise signed comparison: all-ones where `self > rhs`, else zero.
    fn cmp_gt_i64(self, rhs: Self) -> Self;

    /// Per-lane select: where `mask` is all-ones take `rhs`, else `self`.
    #[inline(always)]
    fn blend(self, rhs: Self, mask: Self) -> Self {
        self.xor(self.xor(rhs).and(mask))
    }
}

impl Word for u64 {
    const LANES: usize = 1;

    #[inline(always)]
    fn zero() -> Self {
        0
    }

    #[inline(always)]
    fn splat(value: u64) -> Self {
        value
    }

    #[inline(always)]
    fn load(src: &[u64]) -> Self {
        src[0]
    }

    #[inline(always)]
    fn load_le_bytes(src: &[u8]) -> Self {
        u64::from_le_bytes(src[..8].try_into().expect("8 bytes"))
    }

    #[inline(always)]
    fn store(self, dst: &mut [u64]) {
        dst[0] = self;
    }

    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        self & rhs
    }

    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        self | rhs
    }

    #[inline(always)]
    fn xor(self, rhs: Self) -> Self {
        self ^ rhs
    }

    #[inline(always)]
    fn not(self) -> Self {
        !self
    }

    #[inline(always)]
    fn shr(self, n: u32) -> Self {
        self >> n
    }

    #[inline(always)]
    fn shl(self, n: u32) -> Self {
        self << n
    }

    #[inline(always)]
    fn is_zero(self) -> bool {
        self == 0
    }

    #[inline(always)]
    fn popcount_accumulate(self, acc: Self) -> Self {
        acc + u64::from(self.count_ones())
    }

    #[inline(always)]
    fn horizontal_sum(self) -> u64 {
        self
    }

    #[inline(always)]
    fn add_i64(self, rhs: Self) -> Self {
        ((self as i64).wrapping_add(rhs as i64)) as u64
    }

    #[inline(always)]
    fn sub_i64(self, rhs: Self) -> Self {
        self.wrapping_sub(rhs)
    }

    #[inline(always)]
    fn cmp_gt_i64(self, rhs: Self) -> Self {
        if (self as i64) > (rhs as i64) {
            u64::MAX
        } else {
            0
        }
    }
}

/// Portable 4-lane super-word: plain `[u64; 4]` array code with no feature
/// requirements. The element-wise loops are written so the compiler's
/// auto-vectorizer can lower them to whatever vector ISA the build targets.
#[derive(Clone, Copy)]
pub struct W4(pub [u64; 4]);

impl Word for W4 {
    const LANES: usize = 4;

    #[inline(always)]
    fn zero() -> Self {
        W4([0; 4])
    }

    #[inline(always)]
    fn splat(value: u64) -> Self {
        W4([value; 4])
    }

    #[inline(always)]
    fn load(src: &[u64]) -> Self {
        W4([src[0], src[1], src[2], src[3]])
    }

    #[inline(always)]
    fn load_le_bytes(src: &[u8]) -> Self {
        W4(std::array::from_fn(|i| u64::load_le_bytes(&src[8 * i..])))
    }

    #[inline(always)]
    fn store(self, dst: &mut [u64]) {
        dst[..4].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o &= r;
        }
        W4(out)
    }

    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o |= r;
        }
        W4(out)
    }

    #[inline(always)]
    fn xor(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o ^= r;
        }
        W4(out)
    }

    #[inline(always)]
    fn not(self) -> Self {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o = !*o;
        }
        W4(out)
    }

    #[inline(always)]
    fn shr(self, n: u32) -> Self {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o >>= n;
        }
        W4(out)
    }

    #[inline(always)]
    fn shl(self, n: u32) -> Self {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o <<= n;
        }
        W4(out)
    }

    #[inline(always)]
    fn is_zero(self) -> bool {
        (self.0[0] | self.0[1] | self.0[2] | self.0[3]) == 0
    }

    #[inline(always)]
    fn popcount_accumulate(self, acc: Self) -> Self {
        let mut out = acc.0;
        for (o, v) in out.iter_mut().zip(self.0) {
            *o += u64::from(v.count_ones());
        }
        W4(out)
    }

    #[inline(always)]
    fn horizontal_sum(self) -> u64 {
        self.0
            .iter()
            .fold(0u64, |acc, &lane| acc.wrapping_add(lane))
    }

    #[inline(always)]
    fn add_i64(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o = (*o as i64).wrapping_add(r as i64) as u64;
        }
        W4(out)
    }

    #[inline(always)]
    fn sub_i64(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o = o.wrapping_sub(r);
        }
        W4(out)
    }

    #[inline(always)]
    fn cmp_gt_i64(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o = if (*o as i64) > (r as i64) {
                u64::MAX
            } else {
                0
            };
        }
        W4(out)
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Word;
    use std::arch::x86_64::*;

    /// AVX2 backend: one 256-bit register holding 4 bit-stream lanes.
    ///
    /// The trait methods are `#[inline(always)]` thin wrappers over single
    /// intrinsics; kernels reach them through per-kernel
    /// `#[target_feature(enable = "avx2")]` entry points so the whole
    /// generic kernel body is compiled with AVX2 codegen enabled and the
    /// intrinsics inline. Callers must have verified AVX2 support (the
    /// backend selector only reports [`super::Backend::Avx2`] after
    /// `is_x86_feature_detected!`).
    #[derive(Clone, Copy)]
    pub struct WAvx2(pub __m256i);

    impl Word for WAvx2 {
        const LANES: usize = 4;

        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: callers hold the module-level AVX2 precondition.
            WAvx2(unsafe { _mm256_setzero_si256() })
        }

        #[inline(always)]
        fn splat(value: u64) -> Self {
            // SAFETY: as above.
            WAvx2(unsafe { _mm256_set1_epi64x(value as i64) })
        }

        #[inline(always)]
        fn load(src: &[u64]) -> Self {
            let src: &[u64] = &src[..4];
            // SAFETY: the reslice above guarantees 4 readable lanes;
            // `loadu` has no alignment requirement.
            WAvx2(unsafe { _mm256_loadu_si256(src.as_ptr().cast()) })
        }

        #[inline(always)]
        fn load_le_bytes(src: &[u8]) -> Self {
            let src: &[u8] = &src[..32];
            // SAFETY: the reslice above guarantees 32 readable bytes;
            // `loadu` has no alignment requirement.
            WAvx2(unsafe { _mm256_loadu_si256(src.as_ptr().cast()) })
        }

        #[inline(always)]
        fn store(self, dst: &mut [u64]) {
            let dst: &mut [u64] = &mut dst[..4];
            // SAFETY: the reslice guarantees 4 writable lanes; `storeu`
            // has no alignment requirement.
            unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), self.0) }
        }

        #[inline(always)]
        fn and(self, rhs: Self) -> Self {
            // SAFETY: as above.
            WAvx2(unsafe { _mm256_and_si256(self.0, rhs.0) })
        }

        #[inline(always)]
        fn or(self, rhs: Self) -> Self {
            // SAFETY: as above.
            WAvx2(unsafe { _mm256_or_si256(self.0, rhs.0) })
        }

        #[inline(always)]
        fn xor(self, rhs: Self) -> Self {
            // SAFETY: as above.
            WAvx2(unsafe { _mm256_xor_si256(self.0, rhs.0) })
        }

        #[inline(always)]
        fn not(self) -> Self {
            // SAFETY: as above.
            WAvx2(unsafe { _mm256_xor_si256(self.0, _mm256_set1_epi64x(-1)) })
        }

        #[inline(always)]
        fn andnot(self, rhs: Self) -> Self {
            // The intrinsic computes `!a & b`, so the operands swap.
            // SAFETY: as above.
            WAvx2(unsafe { _mm256_andnot_si256(rhs.0, self.0) })
        }

        #[inline(always)]
        fn shr(self, n: u32) -> Self {
            // SAFETY: as above.
            WAvx2(unsafe { _mm256_srl_epi64(self.0, _mm_cvtsi32_si128(n as i32)) })
        }

        #[inline(always)]
        fn shl(self, n: u32) -> Self {
            // SAFETY: as above.
            WAvx2(unsafe { _mm256_sll_epi64(self.0, _mm_cvtsi32_si128(n as i32)) })
        }

        #[inline(always)]
        fn is_zero(self) -> bool {
            // SAFETY: as above.
            unsafe { _mm256_testz_si256(self.0, self.0) == 1 }
        }

        #[inline(always)]
        fn popcount_accumulate(self, acc: Self) -> Self {
            // Nibble-LUT popcount (Muła): per-byte counts via two PSHUFB
            // table lookups, horizontally summed into each 64-bit lane by
            // PSADBW against zero.
            // SAFETY: as above.
            unsafe {
                #[rustfmt::skip]
                let lut = _mm256_setr_epi8(
                    0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                    0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                );
                let low_mask = _mm256_set1_epi8(0x0f);
                let lo = _mm256_and_si256(self.0, low_mask);
                let hi = _mm256_and_si256(_mm256_srli_epi16(self.0, 4), low_mask);
                let per_byte =
                    _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
                let per_lane = _mm256_sad_epu8(per_byte, _mm256_setzero_si256());
                WAvx2(_mm256_add_epi64(acc.0, per_lane))
            }
        }

        #[inline(always)]
        fn horizontal_sum(self) -> u64 {
            let mut lanes = [0u64; 4];
            self.store(&mut lanes);
            lanes.iter().fold(0u64, |acc, &lane| acc.wrapping_add(lane))
        }

        #[inline(always)]
        fn add_i64(self, rhs: Self) -> Self {
            // SAFETY: as above.
            WAvx2(unsafe { _mm256_add_epi64(self.0, rhs.0) })
        }

        #[inline(always)]
        fn sub_i64(self, rhs: Self) -> Self {
            // SAFETY: as above.
            WAvx2(unsafe { _mm256_sub_epi64(self.0, rhs.0) })
        }

        #[inline(always)]
        fn cmp_gt_i64(self, rhs: Self) -> Self {
            // SAFETY: as above.
            WAvx2(unsafe { _mm256_cmpgt_epi64(self.0, rhs.0) })
        }

        #[inline(always)]
        fn blend(self, rhs: Self, mask: Self) -> Self {
            // SAFETY: as above.
            WAvx2(unsafe { _mm256_blendv_epi8(self.0, rhs.0, mask.0) })
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub use avx2::WAvx2;

/// The kernel backend the dispatchers route through.
///
/// All variants exist on every platform so tooling (benches, CI scripts,
/// config parsing) can name them unconditionally; [`Backend::is_available`]
/// reports whether this target and CPU can actually run one, and the
/// selection functions never activate an unavailable backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Scalar `u64` reference path.
    Scalar,
    /// Portable `[u64; 4]` super-word (always available).
    Wide,
    /// AVX2 256-bit path (x86-64 with AVX2 only).
    Avx2,
}

impl Backend {
    /// All backends, in preference order (best first).
    pub const ALL: [Backend; 3] = [Backend::Avx2, Backend::Wide, Backend::Scalar];

    /// Whether this backend can run on this target and CPU.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar | Backend::Wide => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 => false,
        }
    }

    /// Stable lower-case name (the `SC_KERNEL_BACKEND` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Wide => "wide",
            Backend::Avx2 => "avx2",
        }
    }

    /// Parses a backend name as accepted in `SC_KERNEL_BACKEND`.
    pub fn from_name(name: &str) -> Option<Backend> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "wide" => Some(Backend::Wide),
            "avx2" => Some(Backend::Avx2),
            _ => None,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Routes a generic kernel through the active backend.
///
/// `$generic` is an `#[inline(always)]` function generic over [`Word`];
/// `$avx2` is its concrete `#[target_feature(enable = "avx2")]` entry point
/// (only referenced on x86-64, so it may be left undefined elsewhere). The
/// AVX2 arm is what makes the intrinsics inline: calling the generic
/// directly would compile its body without the feature enabled.
macro_rules! dispatch_word_kernel {
    ($generic:ident, $avx2:path, ($($arg:expr),* $(,)?)) => {{
        match $crate::word::active_backend() {
            $crate::word::Backend::Scalar => $generic::<u64>($($arg),*),
            #[cfg(target_arch = "x86_64")]
            $crate::word::Backend::Avx2 => {
                // SAFETY: `active_backend` reports AVX2 only after runtime
                // feature detection (or an availability-checked force).
                unsafe { $avx2($($arg),*) }
            }
            _ => $generic::<$crate::word::W4>($($arg),*),
        }
    }};
}
pub(crate) use dispatch_word_kernel;

/// Sentinel for "not yet selected".
const BACKEND_UNSET: u8 = u8::MAX;

static ACTIVE_BACKEND: AtomicU8 = AtomicU8::new(BACKEND_UNSET);

fn encode(backend: Backend) -> u8 {
    match backend {
        Backend::Scalar => 0,
        Backend::Wide => 1,
        Backend::Avx2 => 2,
    }
}

fn decode(value: u8) -> Backend {
    match value {
        0 => Backend::Scalar,
        1 => Backend::Wide,
        _ => Backend::Avx2,
    }
}

/// Best available backend, after honouring `SC_KERNEL_BACKEND` if it names
/// an available one.
fn detect_backend() -> Backend {
    if let Ok(requested) = std::env::var("SC_KERNEL_BACKEND") {
        if let Some(backend) = Backend::from_name(&requested) {
            if backend.is_available() {
                return backend;
            }
        }
    }
    best_available_backend()
}

/// The fastest backend this build and CPU support, ignoring overrides.
pub fn best_available_backend() -> Backend {
    *Backend::ALL
        .iter()
        .find(|b| b.is_available())
        .expect("the portable backends are always available")
}

/// The backend every kernel dispatcher currently routes through.
///
/// Selected on first call: `SC_KERNEL_BACKEND` (if set to an available
/// backend name), otherwise the best available. All backends produce
/// bit-identical results, so concurrent reselection is always safe.
pub fn active_backend() -> Backend {
    let value = ACTIVE_BACKEND.load(Ordering::Relaxed);
    if value != BACKEND_UNSET {
        return decode(value);
    }
    let backend = detect_backend();
    ACTIVE_BACKEND.store(encode(backend), Ordering::Relaxed);
    backend
}

/// Forces the active backend, returning `true` if it was applied.
///
/// An unavailable backend (not compiled in, or the CPU lacks the feature)
/// is refused and the active backend is left unchanged. Intended for
/// benchmarks and tests; results are bit-identical either way.
pub fn force_backend(backend: Backend) -> bool {
    if !backend.is_available() {
        return false;
    }
    ACTIVE_BACKEND.store(encode(backend), Ordering::Relaxed);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random u64s for lane material (splitmix64).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Exercises every trait operation of `W` against the scalar reference
    /// lane-by-lane.
    fn check_backend_ops<W: Word>() {
        let mut state = 0xDEAD_BEEF_u64;
        let mut lanes_a = vec![0u64; W::LANES];
        let mut lanes_b = vec![0u64; W::LANES];
        let mut out = vec![0u64; W::LANES];
        for round in 0..200 {
            for lane in lanes_a.iter_mut() {
                *lane = splitmix(&mut state);
            }
            for lane in lanes_b.iter_mut() {
                *lane = splitmix(&mut state);
            }
            // Mix in edge-case lanes.
            if round % 7 == 0 {
                lanes_a[0] = 0;
                lanes_b[W::LANES - 1] = u64::MAX;
            }
            let a = W::load(&lanes_a);
            let b = W::load(&lanes_b);
            let shift = (round % 63 + 1) as u32;

            type ScalarOp = fn(u64, u64, u32) -> u64;
            let cases: Vec<(&str, W, ScalarOp)> = vec![
                ("and", a.and(b), |x, y, _| x & y),
                ("or", a.or(b), |x, y, _| x | y),
                ("xor", a.xor(b), |x, y, _| x ^ y),
                ("not", a.not(), |x, _, _| !x),
                ("andnot", a.andnot(b), |x, y, _| x & !y),
                ("shr", a.shr(shift), |x, _, n| x >> n),
                ("shl", a.shl(shift), |x, _, n| x << n),
                ("add_i64", a.add_i64(b), |x, y, _| {
                    (x as i64).wrapping_add(y as i64) as u64
                }),
                ("sub_i64", a.sub_i64(b), |x, y, _| x.wrapping_sub(y)),
                ("cmp_gt_i64", a.cmp_gt_i64(b), |x, y, _| {
                    if (x as i64) > (y as i64) {
                        u64::MAX
                    } else {
                        0
                    }
                }),
                ("blend", a.blend(b, a.cmp_gt_i64(b)), |x, y, _| {
                    if (x as i64) > (y as i64) {
                        y
                    } else {
                        x
                    }
                }),
            ];
            for (name, wide, reference) in cases {
                wide.store(&mut out);
                for lane in 0..W::LANES {
                    assert_eq!(
                        out[lane],
                        reference(lanes_a[lane], lanes_b[lane], shift),
                        "{name} lane {lane} round {round}"
                    );
                }
            }

            // Popcount accumulation and horizontal sum.
            let acc = a.popcount_accumulate(W::zero());
            acc.store(&mut out);
            let mut expected_total = 0u64;
            for lane in 0..W::LANES {
                let expected = u64::from(lanes_a[lane].count_ones());
                assert_eq!(out[lane], expected, "popcount lane {lane}");
                expected_total += expected;
            }
            assert_eq!(acc.horizontal_sum(), expected_total, "horizontal sum");

            // Zero test, splat, and store/load round trip.
            assert!(!W::splat(1).is_zero());
            assert!(W::zero().is_zero());
            assert_eq!(a.is_zero(), lanes_a.iter().all(|&l| l == 0));
            W::splat((-3i64) as u64).store(&mut out);
            assert!(out.iter().all(|&l| l == (-3i64) as u64));

            // Little-endian lanes from any byte offset.
            let bytes: Vec<u8> = lanes_a.iter().flat_map(|l| l.to_le_bytes()).collect();
            let offset = round % 8;
            let mut shifted = vec![0xA5u8; offset];
            shifted.extend_from_slice(&bytes);
            W::load_le_bytes(&shifted[offset..]).store(&mut out);
            assert_eq!(out, lanes_a, "load_le_bytes at offset {offset}");
        }
    }

    #[test]
    fn scalar_backend_ops() {
        check_backend_ops::<u64>();
    }

    #[test]
    fn wide_backend_ops_match_scalar() {
        check_backend_ops::<W4>();
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_backend_ops_match_scalar() {
        if Backend::Avx2.is_available() {
            check_backend_ops::<WAvx2>();
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_backend_is_built_on_x86_64() {
        let has_avx2 = std::arch::is_x86_feature_detected!("avx2");
        assert_eq!(Backend::Avx2.is_available(), has_avx2);
        if has_avx2 {
            assert_eq!(best_available_backend(), Backend::Avx2);
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for backend in Backend::ALL {
            assert_eq!(Backend::from_name(backend.name()), Some(backend));
        }
        assert_eq!(Backend::from_name(" AVX2 "), Some(Backend::Avx2));
        assert_eq!(Backend::from_name("sse9"), None);
        assert_eq!(Backend::Wide.to_string(), "wide");
    }

    #[test]
    fn portable_backends_are_always_available() {
        assert!(Backend::Scalar.is_available());
        assert!(Backend::Wide.is_available());
        let best = best_available_backend();
        assert!(best.is_available());
    }

    #[test]
    fn force_backend_refuses_unavailable() {
        let before = active_backend();
        assert!(before.is_available());
        // Forcing the portable backends always works; forcing back restores.
        assert!(force_backend(Backend::Scalar));
        assert_eq!(active_backend(), Backend::Scalar);
        assert!(force_backend(Backend::Wide));
        assert_eq!(active_backend(), Backend::Wide);
        if !Backend::Avx2.is_available() {
            assert!(!force_backend(Backend::Avx2));
            assert_eq!(active_backend(), Backend::Wide);
        }
        assert!(force_backend(before));
    }
}
