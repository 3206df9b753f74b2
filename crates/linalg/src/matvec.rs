//! The [`MatVec`] operator abstraction and the [`EdgeOverlay`] view.
//!
//! Every iterative kernel in this crate (Lanczos, SLQ, block Krylov) only
//! ever touches a matrix through `y = A x`. Abstracting that one operation
//! behind a trait lets the planner score a candidate network `G'r = Gr + μ`
//! *without materializing its CSR matrix*: an [`EdgeOverlay`] wraps the base
//! matrix plus a handful of added unit edges and applies them on the fly,
//! turning the per-candidate cost of the Δ(e) sweep from `O(nnz)` copies
//! into `O(|μ|)` bookkeeping.
//!
//! `EdgeOverlay` is careful to produce **bit-identical** results to the
//! materialized [`CsrMatrix::with_added_unit_edges`] path: overlay entries
//! are folded into each row's accumulation in sorted column order, exactly
//! where the materialized matrix would have stored them, so floating-point
//! summation order — and therefore every downstream Lanczos coefficient —
//! is unchanged.

use crate::sparse::CsrMatrix;

/// A symmetric linear operator exposing matrix–vector products.
///
/// The lane variant [`MatVec::matvec_lanes`] streams the operator once for
/// `L` right-hand sides held as `[f64; L]` rows (`xs[i][l]` is entry `i` of
/// vector `l`): the batched SLQ kernel walks its probes in such lane tiles,
/// reading the matrix once per Lanczos step per tile instead of once per
/// probe.
pub trait MatVec {
    /// Operator dimension `n`.
    fn n(&self) -> usize;

    /// `y = A x`.
    fn matvec(&self, x: &[f64], y: &mut [f64]);

    /// Fixed-width multi-RHS product over lane rows: for each lane `l`,
    /// `ys[i][l] = Σ_c A[i,c] · xs[c][l]`.
    ///
    /// Per lane this performs the same additions in the same order as
    /// [`MatVec::matvec`], so results are bit-identical to `L` scalar
    /// products.
    fn matvec_lanes<const L: usize>(&self, xs: &[[f64; L]], ys: &mut [[f64; L]]);

    /// Convenience allocating product (not for hot paths).
    fn matvec_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n()];
        self.matvec(x, &mut y);
        y
    }
}

impl MatVec for CsrMatrix {
    fn n(&self) -> usize {
        CsrMatrix::n(self)
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        CsrMatrix::matvec(self, x, y);
    }

    fn matvec_lanes<const L: usize>(&self, xs: &[[f64; L]], ys: &mut [[f64; L]]) {
        lanes_product(self, &[], xs, ys);
    }
}

impl<M: MatVec + ?Sized> MatVec for &M {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        (**self).matvec(x, y);
    }

    fn matvec_lanes<const L: usize>(&self, xs: &[[f64; L]], ys: &mut [[f64; L]]) {
        (**self).matvec_lanes(xs, ys);
    }
}

/// `ys = (base + E) xs` over lane rows, where `entries` are the sorted
/// directed `(row, col)` pairs of the unit entries of `E` (empty for a
/// plain CSR product). Each row accumulates from `0.0` in sorted column
/// order, folding an added entry in exactly where a materialized matrix
/// would store it — the summation order of [`CsrMatrix::matvec`] on
/// `base.with_added_unit_edges(…)`.
fn lanes_product<const L: usize>(
    base: &CsrMatrix,
    entries: &[(u32, u32)],
    xs: &[[f64; L]],
    ys: &mut [[f64; L]],
) {
    let n = base.n();
    assert_eq!(xs.len(), n, "matvec: x rows");
    assert_eq!(ys.len(), n, "matvec: y rows");
    let mut rest = entries;
    for (i, y) in ys.iter_mut().enumerate() {
        // Entries are sorted by row, so this row's are a prefix of `rest`.
        let (ov, tail) = rest.split_at(rest.iter().take_while(|e| e.0 as usize == i).count());
        rest = tail;
        let (cols, vals) = base.row_entries(i);
        let mut acc = [0.0; L];
        let mut p = 0;
        for (&c, &v) in cols.iter().zip(vals) {
            while p < ov.len() && ov[p].1 < c {
                let x = &xs[ov[p].1 as usize];
                for l in 0..L {
                    acc[l] += x[l];
                }
                p += 1;
            }
            let x = &xs[c as usize];
            for l in 0..L {
                acc[l] += v * x[l];
            }
        }
        for &(_, c) in &ov[p..] {
            let x = &xs[c as usize];
            for l in 0..L {
                acc[l] += x[l];
            }
        }
        *y = acc;
    }
}

/// A base adjacency matrix plus a small set of added undirected unit edges,
/// applied during the product instead of materialized.
///
/// Semantically equivalent to `base.with_added_unit_edges(edges)` (added
/// edges that already exist in the base — or are self-loops — are dropped so
/// the adjacency stays 0/1), but construction is `O(|edges| log |edges|)`
/// instead of `O(nnz)`, and the internal buffer is reusable across candidate
/// sets via [`EdgeOverlay::set_edges`], making steady-state scoring
/// allocation-free.
#[derive(Debug, Clone)]
pub struct EdgeOverlay<'a> {
    base: &'a CsrMatrix,
    /// Directed overlay entries `(row, col)`, sorted, deduped, and excluding
    /// pairs already present in the base.
    entries: Vec<(u32, u32)>,
}

impl<'a> EdgeOverlay<'a> {
    /// Wraps `base` with the given added undirected unit edges.
    pub fn new(base: &'a CsrMatrix, edges: &[(u32, u32)]) -> Self {
        let mut ov = EdgeOverlay { base, entries: Vec::with_capacity(2 * edges.len()) };
        ov.set_edges(edges);
        ov
    }

    /// An overlay with no added edges (a reusable shell for
    /// [`EdgeOverlay::set_edges`]).
    pub fn empty(base: &'a CsrMatrix) -> Self {
        EdgeOverlay { base, entries: Vec::new() }
    }

    /// Replaces the overlay's edge set, reusing the internal buffer
    /// (no allocation once capacity has been established).
    pub fn set_edges(&mut self, edges: &[(u32, u32)]) {
        let n = self.base.n() as u32;
        self.entries.clear();
        for &(u, v) in edges {
            assert!(u < n && v < n, "overlay edge ({u},{v}) out of bounds for n={n}");
            if u == v || self.base.has_edge(u, v) {
                continue;
            }
            self.entries.push((u, v));
            self.entries.push((v, u));
        }
        self.entries.sort_unstable();
        self.entries.dedup();
    }

    /// The base matrix this overlay augments.
    pub fn base(&self) -> &'a CsrMatrix {
        self.base
    }
}

impl MatVec for EdgeOverlay<'_> {
    fn n(&self) -> usize {
        self.base.n()
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        lanes_product::<1>(self.base, &self.entries, x.as_chunks().0, y.as_chunks_mut().0);
    }

    fn matvec_lanes<const L: usize>(&self, xs: &[[f64; L]], ys: &mut [[f64; L]]) {
        lanes_product(self.base, &self.entries, xs, ys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_graph(n: usize, m: usize, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        while edges.len() < m {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                edges.push((u, v));
            }
        }
        CsrMatrix::from_undirected_edges(n, &edges)
    }

    fn absent_edges(a: &CsrMatrix, want: usize) -> Vec<(u32, u32)> {
        let n = a.n() as u32;
        let mut out = Vec::new();
        'outer: for u in 0..n {
            for v in (u + 1)..n {
                if !a.has_edge(u, v) {
                    out.push((u, v));
                    if out.len() == want {
                        break 'outer;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn overlay_matvec_is_bit_identical_to_materialized() {
        let a = random_graph(50, 110, 3);
        let adds = absent_edges(&a, 4);
        let overlay = EdgeOverlay::new(&a, &adds);
        let dense = a.with_added_unit_edges(&adds);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let x: Vec<f64> = (0..50).map(|_| rng.gen::<f64>() - 0.5).collect();
            let mut y_ov = vec![0.0; 50];
            let mut y_mat = vec![0.0; 50];
            overlay.matvec(&x, &mut y_ov);
            dense.matvec(&x, &mut y_mat);
            assert_eq!(y_ov, y_mat, "overlay matvec differs from materialized CSR");
        }
    }

    /// `matvec_lanes::<L>` against `L` scalar products, bit for bit.
    fn check_lanes<const L: usize>(m: &impl MatVec, seed: u64) {
        let n = m.n();
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<[f64; L]> =
            (0..n).map(|_| std::array::from_fn(|_| rng.gen::<f64>() - 0.5)).collect();
        let mut ys = vec![[0.0; L]; n];
        m.matvec_lanes(&xs, &mut ys);
        for l in 0..L {
            let x: Vec<f64> = xs.iter().map(|row| row[l]).collect();
            let y = m.matvec_alloc(&x);
            for i in 0..n {
                assert_eq!(ys[i][l].to_bits(), y[i].to_bits(), "L={L} lane {l} row {i}");
            }
        }
    }

    fn check_all_widths(m: &impl MatVec) {
        check_lanes::<1>(m, 1);
        check_lanes::<2>(m, 2);
        check_lanes::<4>(m, 3);
        check_lanes::<8>(m, 4);
        check_lanes::<16>(m, 5);
    }

    #[test]
    fn overlay_block_matches_scalar_columns() {
        let a = random_graph(30, 70, 5);
        let adds = absent_edges(&a, 3);
        check_all_widths(&EdgeOverlay::new(&a, &adds));
    }

    #[test]
    fn csr_block_matches_scalar_columns() {
        check_all_widths(&random_graph(40, 90, 8));
    }

    #[test]
    fn overlay_skips_existing_and_self_edges() {
        let a = CsrMatrix::from_undirected_edges(4, &[(0, 1), (1, 2)]);
        let overlay = EdgeOverlay::new(&a, &[(0, 1), (2, 2), (2, 3), (3, 2), (2, 3)]);
        assert_eq!(overlay.entries, vec![(2, 3), (3, 2)]);
    }

    #[test]
    fn set_edges_reuses_buffer() {
        let a = random_graph(20, 30, 4);
        let adds = absent_edges(&a, 2);
        let mut overlay = EdgeOverlay::empty(&a);
        overlay.set_edges(&adds);
        let cap = overlay.entries.capacity();
        overlay.set_edges(&adds[..1]);
        assert_eq!(overlay.entries.capacity(), cap, "set_edges reallocated");
        assert_eq!(overlay.entries.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_overlay_edge_panics() {
        let a = CsrMatrix::from_undirected_edges(2, &[(0, 1)]);
        EdgeOverlay::new(&a, &[(0, 7)]);
    }
}
