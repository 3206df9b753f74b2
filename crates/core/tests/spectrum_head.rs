//! The spectrum head behind the Lemma 3/4 bounds (paper §5.2).
//!
//! An unseeded head — what a cold build and every exact-tier commit run —
//! must converge to the exact top of the spectrum: the cold column budget
//! is paid for exactly that, and an under-estimated eigenvalue makes the
//! Lemma 4 bound inadmissible. The bound itself must stay admissible when
//! the head is shorter than `⌈k/2⌉` (a `reparameterize` to larger k) or
//! empty (a failed solve).

use ct_core::{path_bound, CtBusParams, Precomputed};
use ct_data::{City, CityConfig, DemandModel};
use ct_linalg::{block_krylov_head, sparse_symmetric_eigenvalues, CsrMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn params_k10() -> CtBusParams {
    let mut params = CtBusParams::small_defaults();
    params.k = 10;
    params
}

fn exact_desc(adj: &CsrMatrix) -> Vec<f64> {
    let mut eigs = sparse_symmetric_eigenvalues(adj).expect("dense eigensolve");
    eigs.reverse();
    eigs
}

/// An unseeded head with the pre-computation's `want` and RNG stream
/// matches the exact spectrum to `tol`, value for value.
fn assert_unseeded_head_converged(city: &City, tol: f64) {
    let params = params_k10();
    let adj = city.transit.adjacency_matrix();
    let want = (2 * params.k).max(32).min(adj.n());
    let mut rng = StdRng::seed_from_u64(params.probe_seed ^ 0x9E37_79B9);
    let head = block_krylov_head(&adj, want, 0, &[], &mut rng).expect("spectrum head");
    assert_eq!(head.values.len(), want);
    assert_eq!(head.vectors.len(), want);
    let exact = exact_desc(&adj);
    for (rank, (got, want)) in head.values.iter().zip(&exact).enumerate() {
        assert!(
            (got - want).abs() <= tol,
            "{}: rank {rank}: head {got} vs exact {want} (n = {})",
            city.name,
            adj.n()
        );
    }
}

#[test]
fn unseeded_head_matches_exact_spectrum_on_small_and_medium() {
    assert_unseeded_head_converged(&CityConfig::small().generate(), 1e-10);
    assert_unseeded_head_converged(&CityConfig::medium().generate(), 1e-10);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "dense chicago_like eigensolve; run with --release")]
fn unseeded_head_matches_exact_spectrum_on_chicago_like() {
    assert_unseeded_head_converged(&CityConfig::chicago_like().generate(), 1e-8);
}

#[test]
fn path_bound_stays_admissible_on_short_and_empty_heads() {
    let city = CityConfig::medium().generate();
    let demand = DemandModel::from_city(&city);
    let params = params_k10();
    let pre = Precomputed::build(&city, &demand, &params);
    let n = pre.base_adj.n();
    assert_eq!(n, 175);
    assert!(pre.top_eigs.len() < 33, "the head must be short for k = 66");
    let exact = exact_desc(&pre.base_adj);
    let lemma4 = |k: usize| path_bound(pre.base_lambda, &exact, k, n) - pre.base_lambda;

    // Reparameterized past its head: ⌈k/2⌉ > 32 Ritz values are needed.
    for k in [66usize, 80, 120] {
        let re = pre.reparameterize(&CtBusParams { k, ..params });
        assert!(
            re.conn_path_ub >= lemma4(k) - 1e-9,
            "k={k}: conn_path_ub {} under the exact Lemma 4 bound {}",
            re.conn_path_ub,
            lemma4(k)
        );
    }

    // A failed spectrum leaves an empty head: the bound must not collapse
    // to λ(Gr) (an increment of 0 prunes every path), nor to +∞ (the
    // online objective bound would turn NaN at w = 1).
    let mut failed = pre.clone();
    failed.top_eigs.clear();
    for k in [10usize, 66] {
        let re = failed.reparameterize(&CtBusParams { k, ..params });
        assert!(re.conn_path_ub.is_finite(), "k={k}: empty head gave {}", re.conn_path_ub);
        assert!(
            re.conn_path_ub >= lemma4(k),
            "k={k}: empty-head bound {} under the exact Lemma 4 bound {}",
            re.conn_path_ub,
            lemma4(k)
        );
    }
}
