//! Fixed-width f32 lane kernels with one canonical arithmetic order.
//!
//! Every reduction in the reconstruction hot paths (theta accumulation
//! over a voxel's flattened-CSR column, FBP filter dots, backprojection
//! lerp sums) is defined here in terms of a **canonical 8-lane
//! reduction tree**: element `k` of the input stream is added into
//! partial accumulator `k % 8`, and the eight partials are combined as
//!
//! ```text
//! ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))
//! ```
//!
//! Both backends — the scalar fallback that processes one element at a
//! time, and the lane backend that processes `chunks_exact(8)` with an
//! autovectorized inner loop — perform, per lane, *the same f32
//! additions in the same order* (lane `L` sees elements `L`, `L+8`,
//! `L+16`, …). f32 addition is deterministic and rustc never contracts
//! separate mul/add into an FMA, so the two backends are
//! bitwise-identical by construction, at any input length (tails are
//! handled element-wise, continuing the lane phase). This extends the
//! thread-count and device-count determinism invariants to SIMD width:
//! the `--simd` knob can never change a reconstruction, only its speed.
//!
//! Backend resolution order mirrors `mbir-parallel`'s thread knob:
//! explicit [`set_backend`] call, else the `MBIR_SIMD` environment
//! variable, else [`SimdBackend::Lanes`]. Callers that carry a
//! per-driver setting ([`SimdBackend::Auto`] by default) resolve it
//! once with [`resolve`] and pass the concrete backend down.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

use serde::{Deserialize, Serialize};

/// Lane width of the canonical reduction tree. Fixed at 8 (one AVX
/// f32 register); changing it would change every reduction's bits.
pub const LANES: usize = 8;

/// Which kernel implementation services the lane primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SimdBackend {
    /// Defer to the process-wide setting ([`backend`]), else `Lanes`.
    #[default]
    Auto,
    /// Element-at-a-time reference kernels (same bits, no staging).
    Scalar,
    /// Chunked 8-wide kernels over staged contiguous buffers.
    Lanes,
}

impl SimdBackend {
    /// Parse a CLI/env spelling; `None` for anything unrecognized.
    pub fn parse(s: &str) -> Option<SimdBackend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(SimdBackend::Auto),
            "scalar" => Some(SimdBackend::Scalar),
            "lanes" => Some(SimdBackend::Lanes),
            _ => None,
        }
    }

    /// The canonical lowercase spelling.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Auto => "auto",
            SimdBackend::Scalar => "scalar",
            SimdBackend::Lanes => "lanes",
        }
    }
}

impl fmt::Display for SimdBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Process-wide backend; 0 = unset (fall through to `MBIR_SIMD`).
static BACKEND: AtomicU8 = AtomicU8::new(0);

/// Pin the process-wide backend. `Auto` restores env/default fallback.
pub fn set_backend(b: SimdBackend) {
    let code = match b {
        SimdBackend::Auto => 0,
        SimdBackend::Scalar => 1,
        SimdBackend::Lanes => 2,
    };
    BACKEND.store(code, Ordering::Relaxed);
}

/// The process-wide backend setting: the value from [`set_backend`],
/// else `MBIR_SIMD`, else `Auto` (which [`resolve`] maps to `Lanes`).
pub fn backend() -> SimdBackend {
    match BACKEND.load(Ordering::Relaxed) {
        1 => return SimdBackend::Scalar,
        2 => return SimdBackend::Lanes,
        _ => {}
    }
    if let Ok(v) = std::env::var("MBIR_SIMD") {
        if let Some(b) = SimdBackend::parse(&v) {
            return b;
        }
    }
    SimdBackend::Auto
}

/// Resolve a caller-supplied backend request to a concrete backend:
/// `Auto` defers to the process-wide setting ([`backend`]), and an
/// unset process falls back to `Lanes`. Resolving an already-concrete
/// backend is free (no env lookup), so hot loops may re-resolve.
pub fn resolve(requested: SimdBackend) -> SimdBackend {
    match requested {
        SimdBackend::Auto => match backend() {
            SimdBackend::Auto => SimdBackend::Lanes,
            b => b,
        },
        b => b,
    }
}

/// The concrete backend a caller with no setting of its own gets.
pub fn active() -> SimdBackend {
    resolve(SimdBackend::Auto)
}

/// The canonical combination of the eight lane partials.
#[inline]
pub fn tree_reduce(l: [f32; LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Scalar-reference accumulator for the ICD thetas (paper Alg. 1):
/// per element, `theta1 -= w*A*e` and `theta2 += w*A*A`, into the
/// canonical lane for the element's position in the column's flat
/// entry stream. This *is* the definition of the reduction — the lane
/// kernels ([`theta_flat_lanes`]) must match it bitwise.
#[derive(Debug, Clone)]
pub struct ThetaAcc {
    t1: [f32; LANES],
    t2: [f32; LANES],
    k: usize,
}

impl ThetaAcc {
    pub fn new() -> ThetaAcc {
        ThetaAcc { t1: [0.0; LANES], t2: [0.0; LANES], k: 0 }
    }

    /// Fold in one (A, e, w) triple at the next flat position.
    #[inline]
    pub fn push(&mut self, a: f32, e: f32, w: f32) {
        let l = self.k % LANES;
        self.t1[l] -= w * a * e;
        self.t2[l] += w * a * a;
        self.k += 1;
    }

    /// Fold in a u8-quantized A entry, dequantized in the canonical
    /// order (`code as f32 * scale / levels`, no factor hoisting).
    #[inline]
    pub fn push_quant(&mut self, code: u8, scale: f32, levels: f32, e: f32, w: f32) {
        let a = code as f32 * scale / levels;
        self.push(a, e, w);
    }

    /// Tree-reduce to `(theta1, theta2)`.
    pub fn finish(&self) -> (f32, f32) {
        (tree_reduce(self.t1), tree_reduce(self.t2))
    }
}

impl Default for ThetaAcc {
    fn default() -> Self {
        Self::new()
    }
}

fn check_len(n: usize, m: usize) {
    assert_eq!(n, m, "lane kernel slice lengths differ");
}

/// Thetas over flat parallel slices, scalar reference order.
pub fn theta_flat_ref(a: &[f32], e: &[f32], w: &[f32]) -> (f32, f32) {
    check_len(a.len(), e.len());
    check_len(a.len(), w.len());
    let mut acc = ThetaAcc::new();
    for k in 0..a.len() {
        acc.push(a[k], e[k], w[k]);
    }
    acc.finish()
}

/// Thetas over flat parallel slices, chunked 8-wide. Bitwise-equal to
/// [`theta_flat_ref`]: lane `l` of a full chunk holds flat position
/// `8*c + l`, and the tail (at a multiple-of-8 offset) keeps lane
/// `i % 8` for tail offset `i`.
pub fn theta_flat_lanes(a: &[f32], e: &[f32], w: &[f32]) -> (f32, f32) {
    check_len(a.len(), e.len());
    check_len(a.len(), w.len());
    let full = a.len() - a.len() % LANES;
    let (ah, at) = a.split_at(full);
    let (eh, et) = e.split_at(full);
    let (wh, wt) = w.split_at(full);
    let mut t1 = [0.0f32; LANES];
    let mut t2 = [0.0f32; LANES];
    for ((ca, ce), cw) in
        ah.chunks_exact(LANES).zip(eh.chunks_exact(LANES)).zip(wh.chunks_exact(LANES))
    {
        for l in 0..LANES {
            t1[l] -= cw[l] * ca[l] * ce[l];
            t2[l] += cw[l] * ca[l] * ca[l];
        }
    }
    for (i, ((&av, &ev), &wv)) in at.iter().zip(et).zip(wt).enumerate() {
        t1[i] -= wv * av * ev;
        t2[i] += wv * av * av;
    }
    (tree_reduce(t1), tree_reduce(t2))
}

/// Backend-dispatched thetas over flat parallel slices.
#[inline]
pub fn theta_flat(backend: SimdBackend, a: &[f32], e: &[f32], w: &[f32]) -> (f32, f32) {
    match resolve(backend) {
        SimdBackend::Lanes => theta_flat_lanes(a, e, w),
        _ => theta_flat_ref(a, e, w),
    }
}

/// Thetas over a u8-quantized column, scalar reference order.
pub fn theta_quant_flat_ref(
    codes: &[u8],
    scale: f32,
    levels: f32,
    e: &[f32],
    w: &[f32],
) -> (f32, f32) {
    check_len(codes.len(), e.len());
    check_len(codes.len(), w.len());
    let mut acc = ThetaAcc::new();
    for k in 0..codes.len() {
        acc.push_quant(codes[k], scale, levels, e[k], w[k]);
    }
    acc.finish()
}

/// Thetas over a u8-quantized column, chunked 8-wide; bitwise-equal to
/// [`theta_quant_flat_ref`] (per-element dequantization keeps the
/// canonical `code as f32 * scale / levels` order).
pub fn theta_quant_flat_lanes(
    codes: &[u8],
    scale: f32,
    levels: f32,
    e: &[f32],
    w: &[f32],
) -> (f32, f32) {
    check_len(codes.len(), e.len());
    check_len(codes.len(), w.len());
    let full = codes.len() - codes.len() % LANES;
    let (ch, ct) = codes.split_at(full);
    let (eh, et) = e.split_at(full);
    let (wh, wt) = w.split_at(full);
    let mut t1 = [0.0f32; LANES];
    let mut t2 = [0.0f32; LANES];
    for ((cc, ce), cw) in
        ch.chunks_exact(LANES).zip(eh.chunks_exact(LANES)).zip(wh.chunks_exact(LANES))
    {
        for l in 0..LANES {
            let a = cc[l] as f32 * scale / levels;
            t1[l] -= cw[l] * a * ce[l];
            t2[l] += cw[l] * a * a;
        }
    }
    for (i, ((&code, &ev), &wv)) in ct.iter().zip(et).zip(wt).enumerate() {
        let a = code as f32 * scale / levels;
        t1[i] -= wv * a * ev;
        t2[i] += wv * a * a;
    }
    (tree_reduce(t1), tree_reduce(t2))
}

/// Backend-dispatched thetas over a u8-quantized column.
#[inline]
pub fn theta_quant_flat(
    backend: SimdBackend,
    codes: &[u8],
    scale: f32,
    levels: f32,
    e: &[f32],
    w: &[f32],
) -> (f32, f32) {
    match resolve(backend) {
        SimdBackend::Lanes => theta_quant_flat_lanes(codes, scale, levels, e, w),
        _ => theta_quant_flat_ref(codes, scale, levels, e, w),
    }
}

/// `theta1` over a column whose error and weight entries are addressed
/// through a flat index: element `k` reads `e[idx[k]]` and `w[idx[k]]`.
/// Scalar reference order — lane `k % 8` accumulates
/// `-(w[q] * a[k]) * e[q]` with `q = idx[k]`, exactly the `theta1` half
/// of [`ThetaAcc::push`] on the gathered stream, so this equals
/// [`theta_flat_ref`]`(a, e[idx], w[idx]).0` bitwise.
pub fn theta_gather_ref(a: &[f32], idx: &[u32], e: &[f32], w: &[f32]) -> f32 {
    check_len(a.len(), idx.len());
    check_len(e.len(), w.len());
    let mut t1 = [0.0f32; LANES];
    for k in 0..a.len() {
        let q = idx[k] as usize;
        t1[k % LANES] -= w[q] * a[k] * e[q];
    }
    tree_reduce(t1)
}

/// Gathered `theta1`, chunked 8-wide with a fixed trip count per chunk;
/// bitwise-equal to [`theta_gather_ref`] (lane `l` of a full chunk holds
/// flat position `8*c + l`; the tail keeps lane `i % 8`).
pub fn theta_gather_lanes(a: &[f32], idx: &[u32], e: &[f32], w: &[f32]) -> f32 {
    check_len(a.len(), idx.len());
    check_len(e.len(), w.len());
    let full = a.len() - a.len() % LANES;
    let (ah, at) = a.split_at(full);
    let (ih, it) = idx.split_at(full);
    let mut t1 = [0.0f32; LANES];
    for (ca, ci) in ah.chunks_exact(LANES).zip(ih.chunks_exact(LANES)) {
        for l in 0..LANES {
            let q = ci[l] as usize;
            t1[l] -= w[q] * ca[l] * e[q];
        }
    }
    for (i, (&av, &q)) in at.iter().zip(it).enumerate() {
        let q = q as usize;
        t1[i] -= w[q] * av * e[q];
    }
    tree_reduce(t1)
}

/// `e[idx[k]] -= a[k] * delta` — the error update after a voxel commit,
/// scattered through a flat index. Element-wise with no reduction, so
/// one implementation serves every backend; the indices of one column
/// are distinct, so the scatter order cannot change any bit.
#[inline]
pub fn sub_scaled_gather(e: &mut [f32], a: &[f32], idx: &[u32], delta: f32) {
    check_len(a.len(), idx.len());
    for (&av, &q) in a.iter().zip(idx) {
        e[q as usize] -= av * delta;
    }
}

/// `e[k] -= a[k] * delta` — the error update after a voxel commit.
/// Element-wise with no reduction, so one implementation serves every
/// backend (same ops, same order; the compiler may vectorize freely).
#[inline]
pub fn sub_scaled(e: &mut [f32], a: &[f32], delta: f32) {
    check_len(e.len(), a.len());
    for (ev, &av) in e.iter_mut().zip(a) {
        *ev -= av * delta;
    }
}

/// Quantized-column variant of [`sub_scaled`], canonical dequant order.
#[inline]
pub fn sub_scaled_quant(e: &mut [f32], codes: &[u8], scale: f32, levels: f32, delta: f32) {
    check_len(e.len(), codes.len());
    for (ev, &code) in e.iter_mut().zip(codes) {
        let av = code as f32 * scale / levels;
        *ev -= av * delta;
    }
}

/// `dst[k] += new[k] - old[k]` — SVB scatter of locally-updated error
/// back into the global sinogram. Element-wise (no reduction) and
/// unconditional: `new - old` for an untouched element is `x - x`,
/// which is `+0.0` under round-to-nearest, and adding `+0.0` leaves
/// every value unchanged except a `-0.0` destination, which IEEE 754
/// normalizes to `+0.0` (`(-0.0) + (+0.0) == +0.0`). That sign
/// normalization is value-preserving and applied identically by every
/// backend — one implementation serves them all — so it cannot break
/// the cross-backend/thread/device bitwise contract.
#[inline]
pub fn add_diff(dst: &mut [f32], new: &[f32], old: &[f32]) {
    check_len(dst.len(), new.len());
    check_len(dst.len(), old.len());
    for ((d, &n), &o) in dst.iter_mut().zip(new).zip(old) {
        *d += n - o;
    }
}

/// Weighted dot `Σ x[k] * y[k]`, scalar reference order.
pub fn dot_ref(x: &[f32], y: &[f32]) -> f32 {
    check_len(x.len(), y.len());
    let mut acc = [0.0f32; LANES];
    for (k, (&xv, &yv)) in x.iter().zip(y).enumerate() {
        acc[k % LANES] += xv * yv;
    }
    tree_reduce(acc)
}

/// Weighted dot, chunked 8-wide; bitwise-equal to [`dot_ref`].
pub fn dot_lanes(x: &[f32], y: &[f32]) -> f32 {
    check_len(x.len(), y.len());
    let full = x.len() - x.len() % LANES;
    let (xh, xt) = x.split_at(full);
    let (yh, yt) = y.split_at(full);
    let mut acc = [0.0f32; LANES];
    for (cx, cy) in xh.chunks_exact(LANES).zip(yh.chunks_exact(LANES)) {
        for l in 0..LANES {
            acc[l] += cx[l] * cy[l];
        }
    }
    for (i, (&xv, &yv)) in xt.iter().zip(yt).enumerate() {
        acc[i] += xv * yv;
    }
    tree_reduce(acc)
}

/// Backend-dispatched weighted dot.
#[inline]
pub fn dot(backend: SimdBackend, x: &[f32], y: &[f32]) -> f32 {
    match resolve(backend) {
        SimdBackend::Lanes => dot_lanes(x, y),
        _ => dot_ref(x, y),
    }
}

/// Linear-interpolation sum `Σ a[k] + frac[k] * (b[k] - a[k])` (FBP
/// backprojection inner reduction), scalar reference order.
pub fn lerp_sum_ref(a: &[f32], b: &[f32], frac: &[f32]) -> f32 {
    check_len(a.len(), b.len());
    check_len(a.len(), frac.len());
    let mut acc = [0.0f32; LANES];
    for k in 0..a.len() {
        acc[k % LANES] += a[k] + frac[k] * (b[k] - a[k]);
    }
    tree_reduce(acc)
}

/// Lerp sum, chunked 8-wide; bitwise-equal to [`lerp_sum_ref`].
pub fn lerp_sum_lanes(a: &[f32], b: &[f32], frac: &[f32]) -> f32 {
    check_len(a.len(), b.len());
    check_len(a.len(), frac.len());
    let full = a.len() - a.len() % LANES;
    let (ah, at) = a.split_at(full);
    let (bh, bt) = b.split_at(full);
    let (fh, ft) = frac.split_at(full);
    let mut acc = [0.0f32; LANES];
    for ((ca, cb), cf) in
        ah.chunks_exact(LANES).zip(bh.chunks_exact(LANES)).zip(fh.chunks_exact(LANES))
    {
        for l in 0..LANES {
            acc[l] += ca[l] + cf[l] * (cb[l] - ca[l]);
        }
    }
    for (i, ((&av, &bv), &fv)) in at.iter().zip(bt).zip(ft).enumerate() {
        acc[i] += av + fv * (bv - av);
    }
    tree_reduce(acc)
}

/// Backend-dispatched lerp sum.
#[inline]
pub fn lerp_sum(backend: SimdBackend, a: &[f32], b: &[f32], frac: &[f32]) -> f32 {
    match resolve(backend) {
        SimdBackend::Lanes => lerp_sum_lanes(a, b, frac),
        _ => lerp_sum_ref(a, b, frac),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for b in [SimdBackend::Auto, SimdBackend::Scalar, SimdBackend::Lanes] {
            assert_eq!(SimdBackend::parse(b.name()), Some(b));
            assert_eq!(format!("{b}"), b.name());
        }
        assert_eq!(SimdBackend::parse(" Lanes "), Some(SimdBackend::Lanes));
        assert_eq!(SimdBackend::parse("avx512"), None);
        assert_eq!(SimdBackend::parse(""), None);
    }

    #[test]
    fn resolve_prefers_explicit_then_process_then_lanes() {
        assert_eq!(resolve(SimdBackend::Scalar), SimdBackend::Scalar);
        assert_eq!(resolve(SimdBackend::Lanes), SimdBackend::Lanes);
        set_backend(SimdBackend::Scalar);
        assert_eq!(resolve(SimdBackend::Auto), SimdBackend::Scalar);
        // An explicit request still beats the process setting.
        assert_eq!(resolve(SimdBackend::Lanes), SimdBackend::Lanes);
        set_backend(SimdBackend::Auto);
        if std::env::var("MBIR_SIMD").is_err() {
            assert_eq!(resolve(SimdBackend::Auto), SimdBackend::Lanes);
        }
    }

    #[test]
    fn tree_reduce_matches_spelled_out_tree() {
        let l = [1.0f32, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 0.5];
        let expect = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
        assert_eq!(tree_reduce(l).to_bits(), expect.to_bits());
    }

    #[test]
    fn theta_acc_matches_flat_kernels_on_fixed_input() {
        let n = 29; // deliberately n % 8 != 0
        let a: Vec<f32> = (0..n).map(|k| 0.01 + k as f32 * 0.37).collect();
        let e: Vec<f32> = (0..n).map(|k| (k as f32).sin()).collect();
        let w: Vec<f32> = (0..n).map(|k| 1.0 / (1.0 + k as f32)).collect();
        let r = theta_flat_ref(&a, &e, &w);
        let l = theta_flat_lanes(&a, &e, &w);
        assert_eq!(r.0.to_bits(), l.0.to_bits());
        assert_eq!(r.1.to_bits(), l.1.to_bits());
    }

    #[test]
    fn sub_scaled_matches_per_element() {
        let a = [0.5f32, 0.25, 1.5];
        let mut e = [10.0f32, 20.0, 30.0];
        sub_scaled(&mut e, &a, 2.0);
        assert_eq!(e, [9.0, 19.5, 27.0]);
    }

    #[test]
    fn add_diff_on_untouched_elements_is_identity() {
        let old = [1.5f32, -0.0, 3.25];
        let new = old;
        let mut dst = [7.0f32, 11.0, f32::MIN_POSITIVE];
        let before: Vec<u32> = dst.iter().map(|v| v.to_bits()).collect();
        add_diff(&mut dst, &new, &old);
        let after: Vec<u32> = dst.iter().map(|v| v.to_bits()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn add_diff_normalizes_negative_zero_destinations() {
        // The one bit pattern a zero diff can change: -0.0 + (+0.0) is
        // +0.0. Values are untouched; only the zero's sign is.
        let mut dst = [-0.0f32];
        add_diff(&mut dst, &[2.0], &[2.0]);
        assert_eq!(dst[0].to_bits(), 0.0f32.to_bits());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Finite, NaN/inf-free inputs across tail lengths n % 8 != 0.
        fn triple(max_len: usize) -> impl Strategy<Value = Vec<(f32, f32, f32)>> {
            prop::collection::vec((-1e3f32..1e3, -1e3f32..1e3, 0.0f32..1e3), 0..max_len + 1)
        }

        fn unzip3(t: Vec<(f32, f32, f32)>) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
            let mut a = Vec::with_capacity(t.len());
            let mut b = Vec::with_capacity(t.len());
            let mut c = Vec::with_capacity(t.len());
            for (x, y, z) in t {
                a.push(x);
                b.push(y);
                c.push(z);
            }
            (a, b, c)
        }

        /// `n` distinct indices into `0..space` (`space >= n`), in a
        /// seeded random order (partial Fisher-Yates, xorshift64*).
        fn distinct_indices(n: usize, space: usize, seed: u64) -> Vec<u32> {
            let mut pool: Vec<u32> = (0..space as u32).collect();
            let mut s = seed | 1;
            for i in 0..n {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                let r = s.wrapping_mul(0x2545_f491_4f6c_dd1d);
                pool.swap(i, i + (r % (space - i) as u64) as usize);
            }
            pool.truncate(n);
            pool
        }

        /// Scatter a gathered `(e, w)` stream into full-size arrays of
        /// `space` entries at `idx`; the untouched entries hold filler.
        fn scatter_ew(e: &[f32], w: &[f32], idx: &[u32], space: usize) -> (Vec<f32>, Vec<f32>) {
            let mut es: Vec<f32> = (0..space).map(|q| q as f32 * 0.7 - 9.0).collect();
            let mut ws: Vec<f32> = (0..space).map(|q| 1.0 + q as f32 * 0.3).collect();
            for (k, &q) in idx.iter().enumerate() {
                es[q as usize] = e[k];
                ws[q as usize] = w[k];
            }
            (es, ws)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn theta_lanes_bitwise_equals_ref(t in triple(67)) {
                let (a, e, w) = unzip3(t);
                let r = theta_flat_ref(&a, &e, &w);
                let l = theta_flat_lanes(&a, &e, &w);
                prop_assert_eq!(r.0.to_bits(), l.0.to_bits());
                prop_assert_eq!(r.1.to_bits(), l.1.to_bits());
            }

            #[test]
            fn theta_quant_lanes_bitwise_equals_ref(
                codes in prop::collection::vec(0u8..=255, 0..67),
                scale in 0.0f32..10.0,
                bits in 1u32..=8,
                seed in 0u64..1000,
            ) {
                let levels = ((1u32 << bits) - 1) as f32;
                let n = codes.len();
                let e: Vec<f32> = (0..n).map(|k| ((k as u64 * 31 + seed) % 997) as f32 * 0.013 - 6.0).collect();
                let w: Vec<f32> = (0..n).map(|k| ((k as u64 * 17 + seed) % 991) as f32 * 0.001).collect();
                let r = theta_quant_flat_ref(&codes, scale, levels, &e, &w);
                let l = theta_quant_flat_lanes(&codes, scale, levels, &e, &w);
                prop_assert_eq!(r.0.to_bits(), l.0.to_bits());
                prop_assert_eq!(r.1.to_bits(), l.1.to_bits());
            }

            #[test]
            fn theta_gather_bitwise_equals_flat_ref(
                t in triple(67),
                extra in 0usize..40,
                seed in 0u64..1_000_000,
            ) {
                // The gathered walk reads (e, w) through distinct random
                // indices; on the gathered stream it must reproduce the
                // canonical flat walk bit for bit, at every n % 8.
                let (a, e, w) = unzip3(t);
                let space = a.len() + extra;
                let idx = distinct_indices(a.len(), space, seed);
                let (es, ws) = scatter_ew(&e, &w, &idx, space);
                let flat = theta_flat_ref(&a, &e, &w).0;
                let r = theta_gather_ref(&a, &idx, &es, &ws);
                let l = theta_gather_lanes(&a, &idx, &es, &ws);
                prop_assert_eq!(r.to_bits(), l.to_bits());
                prop_assert_eq!(flat.to_bits(), r.to_bits());
            }

            #[test]
            fn sub_scaled_gather_matches_per_element_walk(
                t in triple(67),
                extra in 0usize..40,
                seed in 0u64..1_000_000,
                delta in -2.0f32..2.0,
            ) {
                let (a, e, _w) = unzip3(t);
                let space = a.len() + extra;
                let idx = distinct_indices(a.len(), space, seed);
                let (mut e1, _) = scatter_ew(&e, &e, &idx, space);
                let mut e2 = e1.clone();
                sub_scaled_gather(&mut e1, &a, &idx, delta);
                for (k, &q) in idx.iter().enumerate() {
                    e2[q as usize] -= a[k] * delta;
                }
                let b1: Vec<u32> = e1.iter().map(|v| v.to_bits()).collect();
                let b2: Vec<u32> = e2.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(b1, b2);
            }

            #[test]
            fn dot_lanes_bitwise_equals_ref(t in triple(67)) {
                let (x, y, _w) = unzip3(t);
                prop_assert_eq!(dot_ref(&x, &y).to_bits(), dot_lanes(&x, &y).to_bits());
            }

            #[test]
            fn lerp_sum_lanes_bitwise_equals_ref(t in triple(67)) {
                // frac in [0, 1e3) is fine: the identity is bitwise, not geometric.
                let (a, b, f) = unzip3(t);
                let r = lerp_sum_ref(&a, &b, &f);
                let l = lerp_sum_lanes(&a, &b, &f);
                prop_assert_eq!(r.to_bits(), l.to_bits());
            }

            #[test]
            fn sub_scaled_quant_matches_scalar_walk(
                codes in prop::collection::vec(0u8..=255, 0..67),
                scale in 0.0f32..10.0,
                delta in -2.0f32..2.0,
            ) {
                let levels = 255.0f32;
                let n = codes.len();
                let mut e1: Vec<f32> = (0..n).map(|k| k as f32 * 0.11 - 3.0).collect();
                let mut e2 = e1.clone();
                sub_scaled_quant(&mut e1, &codes, scale, levels, delta);
                for (k, ev) in e2.iter_mut().enumerate() {
                    *ev -= codes[k] as f32 * scale / levels * delta;
                }
                let b1: Vec<u32> = e1.iter().map(|v| v.to_bits()).collect();
                let b2: Vec<u32> = e2.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(b1, b2);
            }
        }
    }
}
