//! Property-based tests (proptest) over the numerical substrate and the
//! planner's feasibility invariants.

use ct_bus::core::ranked::{rescan_bound, IncrementalBound};
use ct_bus::core::{general_bound, path_bound, CtBusParams, Planner, PlannerMode, RankedList};
use ct_bus::data::{CityConfig, DemandModel};
use ct_bus::linalg::{
    logsumexp, natural_connectivity_exact, natural_connectivity_from_eigs, slq_trace_batch_in,
    sparse_symmetric_eigenvalues, CsrMatrix, LanczosWorkspace,
};
use proptest::prelude::*;

/// A random connected-ish simple graph: a spanning chain plus extras.
fn graph_strategy(max_n: usize) -> impl Strategy<Value = CsrMatrix> {
    (4..max_n).prop_flat_map(|n| {
        let extra = proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n);
        extra.prop_map(move |pairs| {
            let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
            edges.extend(pairs.into_iter().filter(|(u, v)| u != v));
            CsrMatrix::from_undirected_edges(n, &edges)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn logsumexp_bounds_and_shift_invariance(
        xs in proptest::collection::vec(-50.0f64..50.0, 1..40),
        shift in -100.0f64..100.0,
    ) {
        let l = logsumexp(&xs);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // max ≤ logsumexp ≤ max + ln n
        prop_assert!(l >= max - 1e-9);
        prop_assert!(l <= max + (xs.len() as f64).ln() + 1e-9);
        // logsumexp(x + c) = logsumexp(x) + c
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((logsumexp(&shifted) - (l + shift)).abs() < 1e-9);
    }

    #[test]
    fn natural_connectivity_bounds(g in graph_strategy(24)) {
        // λ ∈ [λ₁ − ln n, λ₁] for the largest eigenvalue λ₁ ≥ 0.
        let eigs = sparse_symmetric_eigenvalues(&g).unwrap();
        let lambda = natural_connectivity_from_eigs(&eigs);
        let top = eigs.last().copied().unwrap();
        prop_assert!(lambda <= top + 1e-9);
        prop_assert!(lambda >= top - (g.n() as f64).ln() - 1e-9);
    }

    #[test]
    fn connectivity_monotone_under_any_edge_addition(
        g in graph_strategy(20),
        u in 0u32..20,
        v in 0u32..20,
    ) {
        let n = g.n() as u32;
        let (u, v) = (u % n, v % n);
        prop_assume!(u != v);
        let before = natural_connectivity_exact(&g).unwrap();
        let after = natural_connectivity_exact(&g.with_added_unit_edges(&[(u, v)])).unwrap();
        prop_assert!(after >= before - 1e-9, "λ decreased: {before} -> {after}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn slq_matches_exact_quadratic_form_on_random_graphs(
        g in graph_strategy(16),
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let v = ct_bus::linalg::gaussian_vector(&mut rng, g.n());
        let exact_m = g.to_dense().expm();
        let ev = exact_m.matvec_alloc(&v);
        let want: f64 = v.iter().zip(&ev).map(|(a, b)| a * b).sum();
        // Full-dimension Lanczos is exact up to round-off.
        let got = slq_trace_batch_in(&g, &v, 1, g.n(), &mut LanczosWorkspace::new()).unwrap();
        prop_assert!((got - want).abs() <= 1e-6 * want.abs().max(1.0),
            "SLQ {got} vs exact {want}");
    }

    #[test]
    fn lemma3_and_lemma4_dominate_random_path_additions(
        g in graph_strategy(18),
        seed in 0u64..1000,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.n();
        let base = natural_connectivity_exact(&g).unwrap();
        let mut eigs = sparse_symmetric_eigenvalues(&g).unwrap();
        eigs.reverse();

        // Random simple path over distinct vertices.
        let k = 3.min(n - 1);
        let mut verts: Vec<u32> = (0..n as u32).collect();
        verts.shuffle(&mut rng);
        let path: Vec<(u32, u32)> = verts[..k + 1].windows(2).map(|w| (w[0], w[1])).collect();
        let after = natural_connectivity_exact(&g.with_added_unit_edges(&path)).unwrap();

        let lemma3 = general_bound(base, &eigs, k, n);
        let lemma4 = path_bound(base, &eigs, k, n);
        prop_assert!(lemma3 >= after - 1e-9, "Lemma 3 violated: {lemma3} < {after}");
        prop_assert!(lemma4 >= after - 1e-9, "Lemma 4 violated: {lemma4} < {after}");
        prop_assert!(lemma4 <= lemma3 + 1e-9, "path bound looser than general");
    }

    #[test]
    fn algorithm2_incremental_bound_dominates_eq9_rescan(
        values in proptest::collection::vec(0.0f64..1e6, 5..60),
        k in 1usize..20,
        pick_seed in 0u64..1000,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let list = RankedList::new(&values);
        let mut rng = rand::rngs::StdRng::seed_from_u64(pick_seed);
        let mut ids: Vec<u32> = (0..values.len() as u32).collect();
        ids.shuffle(&mut rng);
        let path_len = k.min(ids.len());
        let seed_edge = ids[0];
        let mut bound = IncrementalBound::for_seed(&list, k, seed_edge);
        let mut path = vec![seed_edge];
        for &e in &ids[1..path_len] {
            bound.append(&list, e);
            path.push(e);
            let oracle = rescan_bound(&list, k, &path);
            prop_assert!(bound.ub >= oracle - 1e-6,
                "incremental {} < rescan {}", bound.ub, oracle);
            // And it must never exceed the loose top-k sum.
            prop_assert!(bound.ub <= list.top_k_sum(k) + 1e-6);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn planner_output_is_always_feasible(seed in 0u64..500) {
        let city = CityConfig::small().seed(seed).generate();
        let demand = DemandModel::from_city(&city);
        let mut params = CtBusParams::small_defaults();
        params.it_max = 600;
        params.sn = 120;
        params.trace_probes = 8;
        let planner = Planner::new(&city, &demand, params);
        let plan = planner.run(PlannerMode::EtaPre).best;
        prop_assume!(!plan.is_empty());
        prop_assert!(plan.num_edges() <= params.k);
        prop_assert!(plan.turns <= params.tn_max);
        prop_assert_eq!(plan.stops.len(), plan.num_edges() + 1);
        // Circle-free.
        let mut s = plan.stops.clone();
        s.sort_unstable();
        s.dedup();
        prop_assert_eq!(s.len(), plan.stops.len());
        // New pairs are genuinely new and within τ (crow distance).
        for &(u, v) in &plan.new_stop_pairs {
            prop_assert!(city.transit.edge_between(u, v).is_none());
            let d = city.transit.stop(u).pos.dist(&city.transit.stop(v).pos);
            prop_assert!(d <= params.tau_m + 1e-6, "new edge crow distance {d} > τ");
        }
    }
}
