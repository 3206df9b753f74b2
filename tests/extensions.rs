//! Cross-crate integration over the extension systems: map matching feeds
//! demand, GTFS round-trips through planning, site selection and
//! augmentation run on the same cities, Chebyshev backs the same trace
//! pipeline as Lanczos, Lanczos `e^A v` matches the dense matrix
//! exponential on city adjacencies, the SLQ quadrature kernel matches the
//! QL Gauss rule on city Lanczos runs, and the §2 measure comparison holds
//! end to end.

use ct_bus::core::{
    augment_connectivity, select_sites, AugmentEval, AugmentParams, CtBusParams, Planner,
    PlannerMode, SiteParams,
};
use ct_bus::data::{City, CityConfig, DemandModel, GtfsFeed};
use ct_bus::graph::edge_connectivity;
use ct_bus::linalg::tridiag::{tridiag_eigen_full, tridiag_exp11_lanes};
use ct_bus::linalg::{
    algebraic_connectivity_exact, chebyshev_expv, gaussian_vector, lanczos_expv,
    lanczos_tridiagonalize, natural_connectivity_exact, spectral_norm, CsrMatrix, EdgeOverlay,
};
use ct_bus::matching::{simulate_trace, stitch_route, GpsSimConfig, HmmParams, MapMatcher};
use ct_bus::spatial::{GeoPoint, Projection};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn matched_demand_plans_the_same_route_as_truth() {
    let city = CityConfig::small().trajectories(120).seed(404).generate();
    let matcher = MapMatcher::new(&city.road, HmmParams::default());
    let cfg = GpsSimConfig { noise_sigma_m: 8.0, sample_interval_s: 8.0, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(9);
    let mut matched = Vec::new();
    for truth in city.trajectories.iter() {
        let trace = simulate_trace(&city.road, truth, &cfg, &mut rng);
        matched.extend(stitch_route(&city.road, &matcher.match_trace(&trace)));
    }
    let demand_true = DemandModel::from_city(&city);
    let demand_matched = DemandModel::new(&city.road, &matched);
    let params = CtBusParams { k: 8, ..CtBusParams::small_defaults() };
    let plan_true = Planner::new(&city, &demand_true, params).run(PlannerMode::EtaPre).best;
    let plan_matched = Planner::new(&city, &demand_matched, params).run(PlannerMode::EtaPre).best;
    // At taxi-grade noise the plans should share most of their stops.
    let shared = plan_matched.stops.iter().filter(|s| plan_true.stops.contains(s)).count();
    assert!(
        shared * 3 >= plan_matched.stops.len() * 2,
        "only {shared}/{} stops shared between matched and truth plans",
        plan_matched.stops.len()
    );
}

#[test]
fn gtfs_round_trip_preserves_planning_behaviour() {
    let city = CityConfig::small().seed(88).generate();
    let proj = Projection::new(GeoPoint::new(41.85, -87.65));
    let feed = GtfsFeed::from_transit(&city.transit, &proj);
    let (transit, _) = feed.into_transit(&city.road, &proj).expect("import");
    let round_tripped = city.with_transit(transit);
    let params = CtBusParams { k: 8, ..CtBusParams::small_defaults() };
    let demand = DemandModel::from_city(&city);
    let a = Planner::new(&city, &demand, params).run(PlannerMode::EtaPre).best;
    let b = Planner::new(&round_tripped, &demand, params).run(PlannerMode::EtaPre).best;
    // Same road nodes under the plan's stops (stop ids may be permuted).
    let nodes = |c: &City, stops: &[u32]| -> Vec<u32> {
        let mut v: Vec<u32> = stops.iter().map(|&s| c.transit.stop(s).road_node).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(nodes(&city, &a.stops), nodes(&round_tripped, &b.stops));
}

#[test]
fn sites_then_plan_covers_new_demand() {
    // Select sites in an under-served city, then verify the selection's
    // coverage exceeds that of the same number of random candidates.
    let city = CityConfig::small().routes(3).trajectories(300).seed(77).generate();
    let demand = DemandModel::from_city(&city);
    let params = SiteParams { num_sites: 5, ..Default::default() };
    let sel = select_sites(&city, &demand, &params);
    assert_eq!(sel.sites.len(), 5);
    // Greedy's first site alone must beat the selection's mean marginal.
    let first = sel.sites[0].marginal_demand;
    let mean = sel.covered_demand / 5.0;
    assert!(first >= mean, "greedy order violated: first {first} < mean {mean}");
}

#[test]
fn augmentation_beats_route_planning_on_pure_connectivity() {
    // Discrete edges are strictly more powerful than a connected path at
    // raising λ (they need no feasibility) — the quantitative form of the
    // paper's Fig. 6 trade-off, now measured end to end.
    let city = CityConfig::small().seed(55).generate();
    let demand = DemandModel::from_city(&city);
    let params = CtBusParams { k: 8, w: 0.0, ..CtBusParams::small_defaults() };
    let planner = Planner::new(&city, &demand, params);
    let route = planner.run(PlannerMode::EtaPre).best;

    let aug = augment_connectivity(
        planner.precomputed(),
        &AugmentParams { k: 8, eval: AugmentEval::Exact, ..Default::default() },
    );
    let base = natural_connectivity_exact(&planner.precomputed().base_adj).unwrap();
    let route_lambda = natural_connectivity_exact(
        &planner.precomputed().base_adj.with_added_unit_edges(&route.new_stop_pairs),
    )
    .unwrap();
    assert!(
        aug.lambda_after - aug.lambda_before >= route_lambda - base - 1e-9,
        "free edges lost to a constrained path: {} vs {}",
        aug.lambda_after - aug.lambda_before,
        route_lambda - base
    );
}

#[test]
fn section2_measure_comparison_holds_on_generated_city() {
    // Natural connectivity sees gradual damage; edge connectivity does not.
    let city = CityConfig::small().seed(31).generate();
    let transit = &city.transit;
    let adj0 = transit.adjacency_matrix();
    let natural0 = natural_connectivity_exact(&adj0).unwrap();
    let half: Vec<u32> = (0..transit.num_routes() as u32 / 2).collect();
    let damaged = transit.without_routes(&half);
    let natural1 = natural_connectivity_exact(&damaged.adjacency_matrix()).unwrap();
    assert!(natural1 < natural0, "route removal must lower natural connectivity");
    // Edge connectivity is already saturated at its floor and cannot fall
    // further in a way that tracks the damage.
    let e0 = edge_connectivity(transit).unwrap();
    let e1 = edge_connectivity(&damaged).unwrap();
    assert!(e0 <= 1, "transit networks have dangling stops: {e0}");
    assert!(e1 <= e0);
    // Fiedler value of the (possibly disconnected) damaged network is ~0.
    let f1 = algebraic_connectivity_exact(&damaged.adjacency_matrix()).unwrap();
    assert!(f1 < 0.05, "algebraic connectivity should have collapsed: {f1}");
}

/// The SLQ quadrature kernel on the tridiagonals of real Lanczos runs,
/// built as the `connectivity` bench builds them (the transit network plus
/// its first absent stop pair, Gaussian probes), in 16-lane tiles: every
/// lane reads the QL Gauss rule `Σ_j z₀ⱼ² e^{θⱼ}` to 1e-13 relative, at
/// `small_defaults`' t = 8 and the paper's t = 10.
#[test]
fn slq_quadrature_matches_ql_on_city_lanczos_runs() {
    for cfg in [CityConfig::medium(), CityConfig::chicago_like()] {
        let adj = cfg.generate().transit.adjacency_matrix();
        let overlay = EdgeOverlay::new(&adj, &[first_absent_edge(&adj)]);
        let mut rng = StdRng::seed_from_u64(3);
        for steps in [8, 10] {
            for _tile in 0..4 {
                let runs: Vec<_> = (0..16)
                    .map(|_| {
                        let p = gaussian_vector(&mut rng, adj.n());
                        lanczos_tridiagonalize(&overlay, &p, steps, false, false).unwrap()
                    })
                    .collect();
                assert!(runs.iter().all(|r| r.steps() == steps), "no breakdown expected");
                let alphas: Vec<[f64; 16]> =
                    (0..steps).map(|i| std::array::from_fn(|l| runs[l].alphas[i])).collect();
                let betas: Vec<[f64; 16]> =
                    (0..steps - 1).map(|i| std::array::from_fn(|l| runs[l].betas[i])).collect();
                let (mut z, mut term) = (vec![[0.0; 16]; steps], vec![[0.0; 16]; steps]);
                let quad = tridiag_exp11_lanes(&alphas, &betas, &mut z, &mut term).unwrap();
                for (run, got) in runs.iter().zip(quad) {
                    // Row 0 of the eigenvector matrix holds the weights z₀ⱼ.
                    let (theta, vecs) = tridiag_eigen_full(&run.alphas, &run.betas).unwrap();
                    let ql: f64 = theta.iter().zip(&vecs).map(|(t, w)| w * w * t.exp()).sum();
                    let rel = (got - ql).abs() / ql;
                    assert!(rel < 1e-13, "{} t={steps}: kernel {got} vs QL {ql}", cfg.name);
                }
            }
        }
    }
}

/// The first stop pair (in row order) the network does not connect.
fn first_absent_edge(adj: &CsrMatrix) -> (u32, u32) {
    let n = adj.n() as u32;
    (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .find(|&(u, v)| !adj.has_edge(u, v))
        .expect("the network is not complete")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn chebyshev_and_lanczos_agree_on_city_adjacencies(seed in 0u64..200) {
        let city = CityConfig::small().seed(seed).generate();
        let adj = city.transit.adjacency_matrix();
        let n = adj.n();
        let mut rng = StdRng::seed_from_u64(seed);
        let rho = spectral_norm(&adj, &mut rng).unwrap();
        let v: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let lan = lanczos_expv(&adj, &v, 25).unwrap();
        let cheb = chebyshev_expv(&adj, &v, (3.0 * rho) as usize + 25, rho * 1.05).unwrap();
        let num: f64 = lan.iter().zip(&cheb).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        let den: f64 = lan.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!(num < 1e-6 * den, "rel err {}", num / den);
    }

    #[test]
    fn dense_expm_and_lanczos_agree_on_city_adjacencies(seed in 0u64..200) {
        let city = CityConfig::small().seed(seed).generate();
        let adj = city.transit.adjacency_matrix();
        let n = adj.n();
        let v: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let lan = lanczos_expv(&adj, &v, 25).unwrap();
        let exact = adj.to_dense().expm().matvec_alloc(&v);
        let num: f64 = lan.iter().zip(&exact).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        let den: f64 = lan.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!(num < 1e-6 * den, "rel err {}", num / den);
    }

    #[test]
    fn gtfs_round_trip_is_topology_stable(seed in 0u64..100) {
        let city = CityConfig::small().seed(seed).generate();
        let proj = Projection::new(GeoPoint::new(40.7, -74.0));
        let feed = GtfsFeed::from_transit(&city.transit, &proj);
        let (net, stats) = feed.into_transit(&city.road, &proj).unwrap();
        prop_assert_eq!(net.num_stops(), city.transit.num_stops());
        prop_assert_eq!(net.num_routes(), city.transit.num_routes());
        prop_assert_eq!(net.num_edges(), city.transit.num_edges());
        prop_assert!(stats.max_snap_m < 1.0);
    }
}
