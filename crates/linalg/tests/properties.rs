//! Property-based tests for the numerical substrate.

use ct_linalg::{
    algebraic_connectivity, algebraic_connectivity_exact, bessel_i, chebyshev_expv,
    full_symmetric_eigenvalues, lanczos_expv, logsumexp, slq_trace_batch_in, CsrMatrix,
    EdgeOverlay, LanczosWorkspace, MatVec,
};
use proptest::prelude::*;

fn graph_strategy(max_n: usize) -> impl Strategy<Value = CsrMatrix> {
    (3..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..4 * n).prop_map(move |pairs| {
            let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
            edges.extend(pairs.into_iter().filter(|(u, v)| u != v));
            CsrMatrix::from_undirected_edges(n, &edges)
        })
    })
}

/// `matvec_lanes::<L>` against `L` scalar `matvec` calls, bit for bit.
fn lanes_match_scalar<const L: usize, M: MatVec>(
    m: &M,
    seed: u64,
) -> Result<(), proptest::runner::TestCaseError> {
    use rand::SeedableRng;
    let n = m.n();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let flat = ct_linalg::gaussian_vector(&mut rng, n * L);
    let xs = flat.as_chunks::<L>().0;
    let mut ys = vec![[0.0; L]; n];
    m.matvec_lanes(xs, &mut ys);
    for l in 0..L {
        let x: Vec<f64> = xs.iter().map(|row| row[l]).collect();
        let y = m.matvec_alloc(&x);
        for i in 0..n {
            prop_assert_eq!(ys[i][l].to_bits(), y[i].to_bits(), "L={} lane {} row {}", L, l, i);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn absorb_unit_edges_matches_rebuild(
        g in graph_strategy(24),
        pairs in proptest::collection::vec((0u32..24, 0u32..24), 0..12),
    ) {
        // In-place absorption must equal the from-scratch rebuild exactly,
        // including arbitrary mixes of new / present / self-loop pairs.
        let n = g.n() as u32;
        let adds: Vec<(u32, u32)> = pairs.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let mut absorbed = g.clone();
        absorbed.absorb_unit_edges(&adds);
        prop_assert_eq!(&absorbed, &g.with_added_unit_edges(&adds));
        // And absorbing is idempotent: the edges are now present.
        let again = absorbed.clone();
        absorbed.absorb_unit_edges(&adds);
        prop_assert_eq!(&absorbed, &again);
    }

    #[test]
    fn spectrum_preserves_trace_and_frobenius(g in graph_strategy(20)) {
        let eigs = full_symmetric_eigenvalues(g.to_dense()).unwrap();
        let tr: f64 = eigs.iter().sum();
        prop_assert!(tr.abs() < 1e-8, "adjacency trace must vanish, got {tr}");
        let fro2: f64 = eigs.iter().map(|x| x * x).sum();
        prop_assert!((fro2 - g.nnz() as f64).abs() < 1e-8);
    }

    #[test]
    fn matvec_is_symmetric_bilinear(g in graph_strategy(16), seed in 0u64..100) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = ct_linalg::gaussian_vector(&mut rng, g.n());
        let y = ct_linalg::gaussian_vector(&mut rng, g.n());
        let ax = g.matvec_alloc(&x);
        let ay = g.matvec_alloc(&y);
        let xtay: f64 = x.iter().zip(&ay).map(|(a, b)| a * b).sum();
        let ytax: f64 = y.iter().zip(&ax).map(|(a, b)| a * b).sum();
        prop_assert!((xtay - ytax).abs() < 1e-8 * (1.0 + xtay.abs()));
    }

    #[test]
    fn expv_is_linear(g in graph_strategy(12), seed in 0u64..100) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.n();
        let x = ct_linalg::gaussian_vector(&mut rng, n);
        let y = ct_linalg::gaussian_vector(&mut rng, n);
        let combo: Vec<f64> = x.iter().zip(&y).map(|(a, b)| 2.0 * a - 0.5 * b).collect();
        // Full-dimension Krylov ⇒ exact; linearity must hold.
        let ex = lanczos_expv(&g, &x, n).unwrap();
        let ey = lanczos_expv(&g, &y, n).unwrap();
        let ec = lanczos_expv(&g, &combo, n).unwrap();
        for i in 0..n {
            let want = 2.0 * ex[i] - 0.5 * ey[i];
            prop_assert!((ec[i] - want).abs() < 1e-6 * (1.0 + want.abs()));
        }
    }

    #[test]
    fn slq_workspace_variant_is_bit_identical(g in graph_strategy(16), seed in 0u64..100) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.n();
        // One workspace reused across several one-probe solves must
        // reproduce a fresh workspace bit-for-bit, including after
        // breakdown lanes.
        let mut ws = LanczosWorkspace::new();
        for steps in [1usize, 3, 10] {
            let v = ct_linalg::gaussian_vector(&mut rng, n);
            let fresh = slq_trace_batch_in(&g, &v, 1, steps, &mut LanczosWorkspace::new()).unwrap();
            let reused = slq_trace_batch_in(&g, &v, 1, steps, &mut ws).unwrap();
            prop_assert_eq!(fresh.to_bits(), reused.to_bits(), "steps={}", steps);
        }
    }

    #[test]
    fn overlay_matvec_is_bit_identical_to_materialized_csr(
        g in graph_strategy(16),
        adds in proptest::collection::vec((0u32..16, 0u32..16), 0..6),
        seed in 0u64..100,
    ) {
        use rand::SeedableRng;
        let n = g.n();
        let adds: Vec<(u32, u32)> =
            adds.into_iter().filter(|&(u, v)| (u as usize) < n && (v as usize) < n).collect();
        let overlay = EdgeOverlay::new(&g, &adds);
        let materialized = g.with_added_unit_edges(&adds);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = ct_linalg::gaussian_vector(&mut rng, n);
        let mut y_ov = vec![0.0; n];
        let mut y_mat = vec![0.0; n];
        overlay.matvec(&x, &mut y_ov);
        materialized.matvec(&x, &mut y_mat);
        for i in 0..n {
            prop_assert_eq!(y_ov[i].to_bits(), y_mat[i].to_bits(), "row {}", i);
        }
        // And through a full SLQ solve (the Δ(e) code path).
        let mut ws = LanczosWorkspace::new();
        let ov_q = slq_trace_batch_in(&overlay, &x, 1, 10, &mut ws).unwrap();
        let mat_q = slq_trace_batch_in(&materialized, &x, 1, 10, &mut ws).unwrap();
        prop_assert_eq!(ov_q.to_bits(), mat_q.to_bits());
    }

    #[test]
    fn blocked_matvec_matches_scalar_lanes(
        g in graph_strategy(14),
        adds in proptest::collection::vec((0u32..14, 0u32..14), 0..6),
        seed in 0u64..100,
    ) {
        let n = g.n();
        let adds: Vec<(u32, u32)> =
            adds.into_iter().filter(|&(u, v)| (u as usize) < n && (v as usize) < n).collect();
        let overlay = EdgeOverlay::new(&g, &adds);
        lanes_match_scalar::<1, _>(&g, seed)?;
        lanes_match_scalar::<2, _>(&g, seed)?;
        lanes_match_scalar::<4, _>(&g, seed)?;
        lanes_match_scalar::<8, _>(&g, seed)?;
        lanes_match_scalar::<16, _>(&g, seed)?;
        lanes_match_scalar::<1, _>(&overlay, seed)?;
        lanes_match_scalar::<2, _>(&overlay, seed)?;
        lanes_match_scalar::<4, _>(&overlay, seed)?;
        lanes_match_scalar::<8, _>(&overlay, seed)?;
        lanes_match_scalar::<16, _>(&overlay, seed)?;
    }

    #[test]
    fn logsumexp_permutation_invariant(
        xs in proptest::collection::vec(-30.0f64..30.0, 1..30),
        seed in 0u64..100,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut shuffled = xs.clone();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        prop_assert!((logsumexp(&xs) - logsumexp(&shuffled)).abs() < 1e-10);
    }

    #[test]
    fn eigenvalues_lie_within_gershgorin_disc(g in graph_strategy(18)) {
        // For adjacency matrices all eigenvalues lie in [−Δ, Δ] (max degree).
        let max_deg = (0..g.n()).map(|i| g.degree(i)).max().unwrap_or(0) as f64;
        let eigs = full_symmetric_eigenvalues(g.to_dense()).unwrap();
        for &l in &eigs {
            prop_assert!(l.abs() <= max_deg + 1e-9, "|{l}| > max degree {max_deg}");
        }
    }

    #[test]
    fn chebyshev_matches_exact_lanczos(g in graph_strategy(14), seed in 0u64..100) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.n();
        let v = ct_linalg::gaussian_vector(&mut rng, n);
        // Full-dimension Krylov ⇒ Lanczos is exact here.
        let exact = lanczos_expv(&g, &v, n).unwrap();
        let max_deg = (0..n).map(|i| g.degree(i)).max().unwrap_or(1) as f64;
        let cheb = chebyshev_expv(&g, &v, (3.0 * max_deg) as usize + 24, max_deg.max(1.0)).unwrap();
        let num: f64 =
            exact.iter().zip(&cheb).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        let den: f64 = exact.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!(num <= 1e-8 * den.max(1.0), "rel err {}", num / den.max(1.0));
    }

    #[test]
    fn bessel_values_are_positive_and_decreasing_in_order(x in 0.01f64..20.0) {
        let i = bessel_i(12, x);
        for w in i.windows(2) {
            prop_assert!(w[0] > 0.0);
            prop_assert!(w[1] < w[0], "I_k must strictly decrease in k for fixed x");
        }
    }

    #[test]
    fn fiedler_iterative_matches_exact(g in graph_strategy(16)) {
        let exact = algebraic_connectivity_exact(&g).unwrap();
        let iter = algebraic_connectivity(&g, g.n().saturating_sub(1).max(2)).unwrap();
        prop_assert!(
            (exact - iter).abs() < 1e-5 * exact.max(1.0),
            "exact {exact} vs lanczos {iter}"
        );
    }

    #[test]
    fn fiedler_bounded_by_vertex_connectivity_proxy(g in graph_strategy(14)) {
        // Fiedler's classic bound: λ₂ ≤ n/(n−1) · min degree.
        let n = g.n() as f64;
        let min_deg = (0..g.n()).map(|i| g.degree(i)).min().unwrap_or(0) as f64;
        let l2 = algebraic_connectivity_exact(&g).unwrap();
        prop_assert!(l2 <= n / (n - 1.0) * min_deg + 1e-9, "λ₂ {l2} vs min degree {min_deg}");
    }
}
