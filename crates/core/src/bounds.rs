//! Connectivity upper bounds (paper §5.2) in overflow-safe log space.
//!
//! All four bounds cap the natural connectivity `λ(G'r)` of the network
//! after adding `k` edges:
//!
//! * [`estrada_bound`] — De La Peña et al. \[25\], depends only on `|Er| + k`
//!   and `n`; hugely loose (Table 3) but requires no spectrum;
//! * [`general_bound`] — Lemma 3, for `k` *arbitrary* edges, needs the top
//!   `2k` eigenvalues;
//! * [`path_bound`] — Lemma 4, for a `k`-edge *simple path*, needs the top
//!   `⌊(k+1)/2⌋` eigenvalues and the closed-form path-graph spectrum
//!   `σ_i = 2cos(iπ/(k+2))`;
//! * [`increment_bound`] — §6, the sum of the `k` largest pre-computed
//!   per-edge increments `Δ(e)`; the tightest (last column of Table 3).

use ct_linalg::util::{logaddexp, logsubexp, logsumexp};

use crate::ranked::RankedList;

/// Estrada-index bound \[25\]: `λ(G') ≤ ln(1 + (e^{√(2(|Er|+k))} − 1)/n)`.
///
/// The naive evaluation overflows for city-scale `|Er|` (the exponent is
/// ≈117 for Chicago); rewriting as `ln((n − 1 + e^x)/n)` in log space keeps
/// it finite.
pub fn estrada_bound(num_edges: usize, k: usize, n: usize) -> f64 {
    assert!(n > 0, "graph must have vertices");
    let x = (2.0 * (num_edges + k) as f64).sqrt();
    let log_n_minus_1 = if n > 1 { ((n - 1) as f64).ln() } else { f64::NEG_INFINITY };
    logsumexp(&[log_n_minus_1, x]) - (n as f64).ln()
}

/// Lemma 3: bound on `λ(G')` after adding `k` arbitrary edges.
///
/// `base_lambda` is `λ(Gr)`; `top_eigs` are the algebraically largest
/// eigenvalues of `Gr`'s adjacency, descending — the first `2k` are used
/// (fewer are tolerated; the bound only loosens).
pub fn general_bound(base_lambda: f64, top_eigs: &[f64], k: usize, n: usize) -> f64 {
    assert!(n > 0, "graph must have vertices");
    if k == 0 {
        return base_lambda;
    }
    let ln_n = (n as f64).ln();
    let take = (2 * k).min(top_eigs.len());
    // A = (1/n) Σ_{i≤2k} e^{λ_i}
    let log_a = logsumexp(&top_eigs[..take]) - ln_n;
    // B = (e^{λ₁}/n) (e^{√(2k)} + 2k − 1)
    let lambda1 = top_eigs.first().copied().unwrap_or(0.0);
    let root = (2.0 * k as f64).sqrt();
    let log_poly = logsumexp(&[root, ((2 * k - 1) as f64).ln()]);
    let log_b = lambda1 - ln_n + log_poly;
    // bound = ln(e^λ + B − A); B ≥ A holds by construction (see module docs).
    let total = logsubexp(logaddexp(base_lambda, log_b), log_a);
    if total.is_nan() {
        // Fall back to dropping the (negative) −A term; still a valid bound.
        logaddexp(base_lambda, log_b)
    } else {
        total
    }
}

/// Eigenvalues of the `k`-edge simple path graph `P_{k+1}`:
/// `2cos(iπ/(k+2))` for `i = 1..=k+1`, descending.
pub fn path_graph_eigenvalues(k: usize) -> Vec<f64> {
    (1..=k + 1).map(|i| 2.0 * (i as f64 * std::f64::consts::PI / (k as f64 + 2.0)).cos()).collect()
}

/// Lemma 4: bound on `λ(G')` after adding a `k`-edge simple path.
///
/// Tighter than [`general_bound`] because the perturbation's spectrum is
/// known in closed form and only its `⌈k/2⌉` positive eigenvalues can
/// push eigenvalues of `G'` upward.
///
/// A head shorter than `⌈k/2⌉` stays admissible: each missing rank takes
/// the last value present, which bounds every lower-ranked eigenvalue from
/// above. An empty head (`k > 0`) bounds nothing and yields `+∞`.
pub fn path_bound(base_lambda: f64, top_eigs: &[f64], k: usize, n: usize) -> f64 {
    assert!(n > 0, "graph must have vertices");
    if k == 0 {
        return base_lambda;
    }
    let Some(&last) = top_eigs.last() else {
        return f64::INFINITY;
    };
    let ln_n = (n as f64).ln();
    let m = k.div_ceil(2);
    let sigma = path_graph_eigenvalues(k);
    let mut terms = Vec::with_capacity(m + 1);
    terms.push(base_lambda);
    for (i, &s) in sigma.iter().take(m).enumerate() {
        debug_assert!(s > 0.0, "only positive path eigenvalues contribute");
        let lambda = top_eigs.get(i).copied().unwrap_or(last);
        // (e^{σ_i} − 1) e^{λ_i} / n, in log space.
        terms.push(s.exp_m1().ln() + lambda - ln_n);
    }
    logsumexp(&terms)
}

/// §6 increment bound: `O↑λ = Σ_{i=1}^{k} L_λ(i)`, the sum of the `k`
/// largest pre-computed per-edge connectivity increments. Returned as an
/// *increment* (add `λ(Gr)` for a bound on `λ(G'r)`).
pub fn increment_bound(llambda: &RankedList, k: usize) -> f64 {
    llambda.top_k_sum(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_linalg::{natural_connectivity_exact, sparse_symmetric_eigenvalues, CsrMatrix};
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

    fn top_eigs_desc(a: &CsrMatrix) -> Vec<f64> {
        let mut e = sparse_symmetric_eigenvalues(a).unwrap();
        e.reverse();
        e
    }

    fn absent_edges(a: &CsrMatrix, want: usize, seed: u64) -> Vec<(u32, u32)> {
        let n = a.n() as u32;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        let mut guard = 0;
        while out.len() < want && guard < 10_000 {
            guard += 1;
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v && !a.has_edge(u, v) && !out.contains(&(u.min(v), u.max(v))) {
                out.push((u.min(v), u.max(v)));
            }
        }
        out
    }

    #[test]
    fn estrada_bound_is_finite_at_city_scale() {
        // Chicago-scale: |Er| = 6892, k = 15, n = 6171 ⇒ √(2·6907) ≈ 117.5
        // and the bound is √(2(|Er|+k)) − ln n ≈ 108.8. (The paper's Table 3
        // prints 104.2; evaluating their stated formula with their Table 5
        // sizes gives 108.8 — same order, same conclusion: hopelessly loose.)
        let b = estrada_bound(6892, 15, 6171);
        assert!(b.is_finite());
        let expect = (2.0f64 * 6907.0).sqrt() - 6171f64.ln();
        assert!((b - expect).abs() < 1e-6, "got {b}, expect {expect}");
    }

    #[test]
    fn estrada_bound_matches_naive_formula_at_small_scale() {
        // Where the naive evaluation does not overflow, both must agree.
        let (m, k, n) = (40usize, 5usize, 30usize);
        let x = (2.0 * (m + k) as f64).sqrt();
        let naive = (1.0 + (x.exp() - 1.0) / n as f64).ln();
        let b = estrada_bound(m, k, n);
        assert!((b - naive).abs() < 1e-10, "{b} vs {naive}");
    }

    #[test]
    fn estrada_dominates_exact_connectivity() {
        let a = random_graph(30, 60, 1);
        let exact = natural_connectivity_exact(&a).unwrap();
        let b = estrada_bound(a.num_undirected_edges(), 0, a.n());
        assert!(b >= exact, "estrada {b} < exact {exact}");
    }

    #[test]
    fn general_bound_dominates_any_k_edge_addition() {
        let a = random_graph(40, 70, 2);
        let base = natural_connectivity_exact(&a).unwrap();
        let eigs = top_eigs_desc(&a);
        for k in [1usize, 3, 6] {
            let adds = absent_edges(&a, k, 7 + k as u64);
            let a_new = a.with_added_unit_edges(&adds);
            let exact_new = natural_connectivity_exact(&a_new).unwrap();
            let bound = general_bound(base, &eigs, k, a.n());
            assert!(bound >= exact_new - 1e-9, "k={k}: bound {bound} < exact {exact_new}");
        }
    }

    #[test]
    fn path_bound_dominates_path_additions() {
        let a = random_graph(40, 70, 3);
        let base = natural_connectivity_exact(&a).unwrap();
        let eigs = top_eigs_desc(&a);
        // Add a simple path over fresh vertex sequences.
        for k in [2usize, 4, 7] {
            let mut rng = StdRng::seed_from_u64(50 + k as u64);
            // Random simple path: k+1 distinct vertices.
            let mut verts: Vec<u32> = (0..a.n() as u32).collect();
            for i in (1..verts.len()).rev() {
                let j = rng.gen_range(0..=i);
                verts.swap(i, j);
            }
            let path: Vec<(u32, u32)> =
                verts[..k + 1].windows(2).map(|w| (w[0].min(w[1]), w[0].max(w[1]))).collect();
            let a_new = a.with_added_unit_edges(&path);
            let exact_new = natural_connectivity_exact(&a_new).unwrap();
            let bound = path_bound(base, &eigs, k, a.n());
            assert!(bound >= exact_new - 1e-9, "k={k}: path bound {bound} < exact {exact_new}");
        }
    }

    #[test]
    fn path_bound_tighter_than_general() {
        let a = random_graph(50, 90, 4);
        let base = natural_connectivity_exact(&a).unwrap();
        let eigs = top_eigs_desc(&a);
        for k in [5usize, 10, 15] {
            let g = general_bound(base, &eigs, k, a.n());
            let p = path_bound(base, &eigs, k, a.n());
            assert!(p <= g, "k={k}: path {p} > general {g}");
        }
    }

    #[test]
    fn general_tighter_than_estrada() {
        let a = random_graph(50, 90, 5);
        let base = natural_connectivity_exact(&a).unwrap();
        let eigs = top_eigs_desc(&a);
        let k = 10;
        let e = estrada_bound(a.num_undirected_edges(), k, a.n());
        let g = general_bound(base, &eigs, k, a.n());
        assert!(g <= e, "general {g} > estrada {e}");
    }

    #[test]
    fn k_zero_is_identity() {
        let a = random_graph(20, 40, 6);
        let base = natural_connectivity_exact(&a).unwrap();
        let eigs = top_eigs_desc(&a);
        assert_eq!(general_bound(base, &eigs, 0, a.n()), base);
        assert_eq!(path_bound(base, &eigs, 0, a.n()), base);
    }

    #[test]
    fn path_bound_pads_short_heads_and_refuses_empty_ones() {
        let a = random_graph(40, 70, 8);
        let base = natural_connectivity_exact(&a).unwrap();
        let eigs = top_eigs_desc(&a);
        for k in [6usize, 11, 20] {
            let full = path_bound(base, &eigs, k, a.n());
            for len in [1usize, 2, k.div_ceil(2) - 1] {
                let short = path_bound(base, &eigs[..len], k, a.n());
                assert!(short >= full, "k={k}, head of {len}: {short} < {full}");
            }
            assert_eq!(path_bound(base, &[], k, a.n()), f64::INFINITY);
        }
    }

    #[test]
    fn path_graph_spectrum_matches_known_values() {
        // P2 (k=1): eigenvalues ±1... 2cos(iπ/3): i=1 → 1, i=2 → −1.
        let e = path_graph_eigenvalues(1);
        assert!((e[0] - 1.0).abs() < 1e-12);
        assert!((e[1] + 1.0).abs() < 1e-12);
        // P3 (k=2): √2, 0, −√2.
        let e = path_graph_eigenvalues(2);
        assert!((e[0] - 2f64.sqrt()).abs() < 1e-12);
        assert!(e[1].abs() < 1e-12);
    }

    #[test]
    fn increment_bound_sums_top_k() {
        let l = RankedList::new(&[0.1, 0.5, 0.3, 0.2]);
        assert!((increment_bound(&l, 2) - 0.8).abs() < 1e-12);
        assert!((increment_bound(&l, 10) - 1.1).abs() < 1e-12);
    }
}
