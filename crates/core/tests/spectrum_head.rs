//! The spectrum head behind the Lemma 3/4 bounds (paper §5.2).
//!
//! Every state computes its head on demand, unseeded, and that head must
//! converge to the exact top of the spectrum: the cold column budget is
//! paid for exactly that, and an under-estimated eigenvalue makes the
//! Lemma 4 bound inadmissible. A committed state, under either refresh
//! tier, must read the head and bound of a cold build of the same city.
//! The bound must stay admissible when the head is shorter than `⌈k/2⌉`
//! (a `reparameterize` to larger k); `precompute`'s unit tests cover an
//! empty head (a failed solve).

use ct_core::{
    path_bound, CtBusParams, Planner, PlannerMode, PlanningSession, Precomputed, RefreshPolicy,
};
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
fn path_bound_stays_admissible_on_short_heads() {
    let city = CityConfig::medium().generate();
    let demand = DemandModel::from_city(&city);
    let params = params_k10();
    let pre = Precomputed::build(&city, &demand, &params);
    let n = pre.base_adj.n();
    assert_eq!(n, 175);
    assert!(pre.spectrum_head().len() < 33, "the head must be short for k = 66");
    let exact = exact_desc(&pre.base_adj);
    let lemma4 = |k: usize| path_bound(pre.base_lambda, &exact, k, n) - pre.base_lambda;

    // Reparameterized past its head: ⌈k/2⌉ > 32 Ritz values are needed.
    for k in [66usize, 80, 120] {
        let ub = pre.reparameterize(&CtBusParams { k, ..params }).conn_ub(k);
        assert!(
            ub >= lemma4(k) - 1e-9,
            "k={k}: online bound {ub} under the exact Lemma 4 bound {}",
            lemma4(k)
        );
    }
}

#[test]
fn committed_states_read_the_head_of_a_cold_build() {
    // Three EtaPre routes committed under either tier, then an online Eta
    // plan, which fills the committed state's head. Under the exact tier
    // the plan itself must match the cold build's too; the approximate
    // tier carries stale Δ(e), which the bound does not read.
    let (city, demand) = {
        let city = CityConfig::small().seed(33).generate();
        let demand = DemandModel::from_city(&city);
        (city, demand)
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for refresh in [RefreshPolicy::Exact, RefreshPolicy::approximate()] {
        for threads in [1, 2] {
            let mut params =
                CtBusParams { k: 6, sn: 60, it_max: 200, ..CtBusParams::small_defaults() };
            params.parallelism.threads = threads;
            let what = format!("{refresh:?} threads={threads}");
            let mut session =
                PlanningSession::new(city.clone(), demand.clone(), params).with_refresh(refresh);
            for round in 0..3 {
                let plan = session.plan(PlannerMode::EtaPre).best;
                assert!(!plan.is_empty(), "{what} round {round}: empty plan");
                session.commit(&plan);
            }
            let online = session.plan(PlannerMode::Eta);
            let cold = Precomputed::build(session.city(), session.demand(), &params);
            let pre = session.precomputed();
            assert_eq!(bits(pre.spectrum_head()), bits(cold.spectrum_head()), "{what}: head");
            assert_eq!(
                pre.conn_ub(params.k).to_bits(),
                cold.conn_ub(params.k).to_bits(),
                "{what}: online bound"
            );
            if refresh.is_exact() {
                let replay = Planner::with_precomputed(session.city(), params, cold)
                    .run_with_threads(PlannerMode::Eta, threads);
                assert_eq!(online.best, replay.best, "{what}: Eta plan");
                assert_eq!(online.iterations, replay.iterations, "{what}: iterations");
                assert_eq!(online.evaluations, replay.evaluations, "{what}: evaluations");
                assert_eq!(online.stop, replay.stop, "{what}: stop reason");
            }
        }
    }
}
