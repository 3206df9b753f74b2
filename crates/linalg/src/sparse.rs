//! Compressed sparse row (CSR) symmetric matrices.
//!
//! Transit-network adjacency matrices are sparse (average degree ≈ 2), so
//! every Lanczos iteration is a single `O(nnz)` [`CsrMatrix::matvec`]. Both
//! triangles are stored explicitly, which keeps `matvec` branch-free.

use crate::dense::DenseMatrix;

/// A sparse symmetric matrix in CSR form.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Builds the 0/1 adjacency matrix of a simple undirected graph.
    ///
    /// Self-loops are ignored and duplicate edges are collapsed to a single
    /// unit entry, matching the paper's modelling of transit networks as
    /// simple undirected graphs.
    pub fn from_undirected_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(u, v) in edges {
            assert!((u as usize) < n && (v as usize) < n, "edge ({u},{v}) out of bounds for n={n}");
            if u == v {
                continue;
            }
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0usize);
        for row in adj.iter_mut() {
            row.sort_unstable();
            row.dedup();
            col_idx.extend_from_slice(row);
            row_ptr.push(col_idx.len());
        }
        let vals = vec![1.0; col_idx.len()];
        CsrMatrix { n, row_ptr, col_idx, vals }
    }

    /// A copy of this matrix with additional undirected unit edges.
    ///
    /// Edges already present are left untouched (adjacency stays 0/1); the
    /// planner uses this to score candidate networks `G'r = Gr + μ`.
    pub fn with_added_unit_edges(&self, new_edges: &[(u32, u32)]) -> CsrMatrix {
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(self.nnz() / 2 + new_edges.len());
        for u in 0..self.n {
            let (cols, _) = self.row_entries(u);
            for &c in cols {
                if (c as usize) > u {
                    edges.push((u as u32, c));
                }
            }
        }
        edges.extend_from_slice(new_edges);
        CsrMatrix::from_undirected_edges(self.n, &edges)
    }

    /// Materializes additional undirected unit edges into this matrix **in
    /// place**.
    ///
    /// For a 0/1 adjacency matrix the result is bit-identical to the
    /// from-scratch rebuild `*self = self.with_added_unit_edges(new_edges)`
    /// — same `row_ptr`/`col_idx`/`vals` arrays — but instead of
    /// re-assembling every row from an edge list, each row's existing
    /// entries are shifted once (back to front) and the new entries merged
    /// in sorted column order. Self-loops, duplicates, and pairs already
    /// present are dropped, exactly like the rebuild. This is the "commit"
    /// primitive of long-lived planning sessions: promoting a scored
    /// [`crate::EdgeOverlay`] into the base matrix without rebuilding `A`.
    pub fn absorb_unit_edges(&mut self, new_edges: &[(u32, u32)]) {
        let n = self.n as u32;
        let mut add: Vec<(u32, u32)> = Vec::with_capacity(2 * new_edges.len());
        for &(u, v) in new_edges {
            assert!((u < n) && (v < n), "edge ({u},{v}) out of bounds for n={n}");
            if u == v || self.has_edge(u, v) {
                continue;
            }
            add.push((u, v));
            add.push((v, u));
        }
        add.sort_unstable();
        add.dedup();
        if add.is_empty() {
            return;
        }

        let total = self.col_idx.len() + add.len();
        self.col_idx.resize(total, 0);
        self.vals.resize(total, 0.0);
        // Merge rows back to front: `write` is one past the next slot, so
        // every surviving entry moves at most once and never overwrites an
        // unread one (`write >= hi` holds while adds remain unplaced).
        let mut write = total;
        let mut a = add.len();
        for i in (0..self.n).rev() {
            let lo = self.row_ptr[i];
            let mut k = self.row_ptr[i + 1];
            self.row_ptr[i + 1] = write;
            loop {
                let take_add = a > 0
                    && add[a - 1].0 as usize == i
                    && (k == lo || add[a - 1].1 > self.col_idx[k - 1]);
                if take_add {
                    a -= 1;
                    write -= 1;
                    self.col_idx[write] = add[a].1;
                    self.vals[write] = 1.0;
                } else if k > lo {
                    k -= 1;
                    write -= 1;
                    self.col_idx[write] = self.col_idx[k];
                    self.vals[write] = self.vals[k];
                } else {
                    break;
                }
            }
        }
        debug_assert_eq!(a, 0, "all overlay entries placed");
        debug_assert_eq!(write, self.row_ptr[0]);
    }

    /// Matrix dimension `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored (directed) entries; for a simple graph this is twice
    /// the undirected edge count.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Number of undirected edges (assuming a symmetric 0/1 matrix).
    pub fn num_undirected_edges(&self) -> usize {
        self.nnz() / 2
    }

    /// Column indices and values of row `i`.
    pub fn row_entries(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Degree (stored entries) of row `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Whether the undirected edge `(u, v)` is present.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        let (cols, _) = self.row_entries(u as usize);
        cols.binary_search(&v).is_ok()
    }

    /// `y = A x`.
    ///
    /// # Panics
    /// Panics if `x` or `y` have length different from `n`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "matvec: x length");
        assert_eq!(y.len(), self.n, "matvec: y length");
        for i in 0..self.n {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.vals[k] * x[self.col_idx[k] as usize];
            }
            y[i] = acc;
        }
    }

    /// Convenience allocating version of [`CsrMatrix::matvec`].
    pub fn matvec_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.matvec(x, &mut y);
        y
    }

    /// Dense copy (for exact eigendecomposition of small matrices).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.n);
        for i in 0..self.n {
            let (cols, vals) = self.row_entries(i);
            for (&c, &v) in cols.iter().zip(vals) {
                d.set(i, c as usize, v);
            }
        }
        d
    }

    /// Iterates over all stored `(row, col, value)` entries.
    pub fn entries(&self) -> impl Iterator<Item = (usize, u32, f64)> + '_ {
        (0..self.n).flat_map(move |i| {
            let (cols, vals) = self.row_entries(i);
            cols.iter().zip(vals).map(move |(&c, &v)| (i, c, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrMatrix {
        CsrMatrix::from_undirected_edges(3, &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn adjacency_is_symmetric_and_unit() {
        let a = triangle();
        assert_eq!(a.n(), 3);
        assert_eq!(a.nnz(), 6);
        assert_eq!(a.num_undirected_edges(), 3);
        for (i, c, v) in a.entries() {
            assert_eq!(v, 1.0);
            assert!(a.has_edge(c, i as u32), "symmetry broken at ({i},{c})");
        }
    }

    #[test]
    fn duplicates_and_self_loops_are_ignored() {
        let a = CsrMatrix::from_undirected_edges(3, &[(0, 1), (1, 0), (0, 0), (0, 1)]);
        assert_eq!(a.nnz(), 2);
        assert!(a.has_edge(0, 1));
        assert!(!a.has_edge(0, 2));
        assert!(!a.has_edge(0, 0));
    }

    #[test]
    fn matvec_triangle() {
        let a = triangle();
        let y = a.matvec_alloc(&[1.0, 2.0, 3.0]);
        // Each node sees the sum of the other two.
        assert_eq!(y, vec![5.0, 4.0, 3.0]);
    }

    #[test]
    fn matvec_matches_dense() {
        let a =
            CsrMatrix::from_undirected_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]);
        let d = a.to_dense();
        let x = vec![0.5, -1.0, 2.0, 0.25, 3.0];
        let ys = a.matvec_alloc(&x);
        let yd = d.matvec_alloc(&x);
        for (s, dn) in ys.iter().zip(&yd) {
            assert!((s - dn).abs() < 1e-15);
        }
    }

    #[test]
    fn with_added_unit_edges_extends() {
        let a = CsrMatrix::from_undirected_edges(4, &[(0, 1), (1, 2)]);
        let b = a.with_added_unit_edges(&[(2, 3), (0, 1)]);
        assert_eq!(b.num_undirected_edges(), 3);
        assert!(b.has_edge(2, 3));
        assert!(b.has_edge(0, 1));
        // Original is untouched.
        assert!(!a.has_edge(2, 3));
    }

    #[test]
    fn absorb_unit_edges_is_bit_identical_to_rebuild() {
        // Random-ish graphs over several densities: absorbing must produce
        // the exact arrays a from-scratch rebuild produces.
        for (n, seed) in [(6usize, 1u64), (17, 2), (40, 3), (40, 4)] {
            let mut edges = Vec::new();
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u32
            };
            for _ in 0..(n * 2) {
                let (u, v) = (next() % n as u32, next() % n as u32);
                if u != v {
                    edges.push((u, v));
                }
            }
            let base = CsrMatrix::from_undirected_edges(n, &edges);
            let mut adds = Vec::new();
            for _ in 0..5 {
                let (u, v) = (next() % n as u32, next() % n as u32);
                adds.push((u, v)); // may be present, absent, or a self-loop
            }
            let mut absorbed = base.clone();
            absorbed.absorb_unit_edges(&adds);
            assert_eq!(absorbed, base.with_added_unit_edges(&adds), "n={n} seed={seed}");
        }
    }

    #[test]
    fn absorb_no_new_edges_is_identity() {
        let a = triangle();
        let mut b = a.clone();
        b.absorb_unit_edges(&[]);
        assert_eq!(a, b);
        b.absorb_unit_edges(&[(0, 1), (2, 2)]); // present + self-loop
        assert_eq!(a, b);
    }

    #[test]
    fn absorb_into_empty_rows() {
        let mut a = CsrMatrix::from_undirected_edges(4, &[(1, 2)]);
        a.absorb_unit_edges(&[(0, 3), (3, 0), (0, 3)]);
        assert_eq!(a, CsrMatrix::from_undirected_edges(4, &[(1, 2), (0, 3)]));
        assert!(a.has_edge(0, 3));
        assert_eq!(a.num_undirected_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn absorb_out_of_bounds_panics() {
        let mut a = triangle();
        a.absorb_unit_edges(&[(0, 9)]);
    }

    #[test]
    fn degree_counts_neighbors() {
        let a = triangle();
        assert_eq!(a.degree(0), 2);
        let b = CsrMatrix::from_undirected_edges(3, &[(0, 1)]);
        assert_eq!(b.degree(2), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_edge_panics() {
        CsrMatrix::from_undirected_edges(2, &[(0, 5)]);
    }
}
