//! Integration tests for the planner against generated cities, including
//! degenerate regimes the unit tests do not reach.

use ct_core::{
    evaluate_plan, CtBusParams, DeltaMethod, Planner, PlannerMode, Precomputed, RankedList,
    RunResult,
};
use ct_data::{City, CityConfig, DemandModel};
use ct_spatial::{turn_angle, TurnClass};

#[test]
fn zero_demand_corpus_still_plans_a_connectivity_route() {
    // No trajectories at all: with w = 0.5 the demand term is zero
    // everywhere and planning degenerates to connectivity-only — it must
    // still return a feasible route with positive increment.
    let city = CityConfig::small().seed(61).trajectories(0).generate();
    let demand = DemandModel::from_city(&city);
    let params = CtBusParams::small_defaults();
    let planner = Planner::new(&city, &demand, params);
    let plan = planner.run(PlannerMode::EtaPre).best;
    assert!(!plan.is_empty());
    assert_eq!(plan.demand, 0.0);
    assert!(plan.conn_increment > 0.0);
}

#[test]
fn tiny_tau_restricts_to_existing_edges() {
    // τ below the minimum stop spacing ⇒ no new candidates; the planner can
    // only ride existing corridors, and connectivity increment is zero.
    let city = CityConfig::small().seed(62).generate();
    let demand = DemandModel::from_city(&city);
    let mut params = CtBusParams::small_defaults();
    params.tau_m = 10.0;
    let planner = Planner::new(&city, &demand, params);
    assert_eq!(planner.precomputed().candidates.num_new(), 0);
    let plan = planner.run(PlannerMode::EtaPre).best;
    assert!(!plan.is_empty(), "existing edges alone must still form routes");
    assert_eq!(plan.num_new_edges(), 0);
    assert!(plan.conn_increment.abs() < 1e-12);
}

#[test]
fn k_one_returns_single_best_seed() {
    let city = CityConfig::small().seed(63).generate();
    let demand = DemandModel::from_city(&city);
    let mut params = CtBusParams::small_defaults();
    params.k = 1;
    let planner = Planner::new(&city, &demand, params);
    let res = planner.run(PlannerMode::EtaPre);
    assert_eq!(res.best.num_edges(), 1);
    // With k = 1 the best route is exactly the top-L_e candidate.
    let pre = planner.precomputed();
    let le: Vec<f64> = pre
        .candidates
        .edges()
        .iter()
        .zip(&pre.delta)
        .map(|(e, &delta)| pre.objective(params.w, e.demand, delta))
        .collect();
    let top = RankedList::new(&le).iter_desc().next().unwrap();
    assert_eq!(res.best.cand_edges, vec![top]);
}

#[test]
fn reparameterized_planner_matches_a_cold_build_bit_for_bit() {
    // Every what-if request plans on `reparameterize` of a shared
    // pre-computation instead of building one for its own k and w.
    let city = CityConfig::small().seed(66).generate();
    let demand = DemandModel::from_city(&city);
    let params = CtBusParams::small_defaults();
    let pre = Precomputed::build(&city, &demand, &params);
    // `RoutePlan`'s `==` reads -0.0 as 0.0; compare its floats and the
    // convergence trace as bits too.
    let bits = |r: &RunResult| {
        let plan = &r.best;
        let trace: Vec<(u64, u64)> = r.trace.iter().map(|&(it, obj)| (it, obj.to_bits())).collect();
        ([plan.objective, plan.demand, plan.conn_increment, plan.length_m].map(f64::to_bits), trace)
    };
    for k in [4, 8, 12] {
        for w in [0.3, 0.7] {
            let mut p = params;
            p.k = k;
            p.w = w;
            let cold = Planner::new(&city, &demand, p);
            let warm = Planner::with_precomputed(&city, p, pre.reparameterize(&p));
            for mode in PlannerMode::ALL.into_iter().filter(|&m| m != PlannerMode::Eta) {
                let what = format!("{mode:?} k={k} w={w}");
                let (a, b) = (cold.run(mode), warm.run(mode));
                assert_eq!(a.best, b.best, "{what}: plan");
                assert_eq!(bits(&a), bits(&b), "{what}: plan and trace bits");
                assert_eq!(a.iterations, b.iterations, "{what}: iterations");
                assert_eq!(a.evaluations, b.evaluations, "{what}: evaluations");
                assert_eq!(a.stop, b.stop, "{what}: stop reason");
            }
        }
    }
}

#[test]
fn turn_budget_zero_forces_straightish_routes() {
    let city = CityConfig::small().seed(64).generate();
    let demand = DemandModel::from_city(&city);
    let mut params = CtBusParams::small_defaults();
    params.tn_max = 0;
    let planner = Planner::new(&city, &demand, params);
    let plan = planner.run(PlannerMode::EtaPre).best;
    assert!(!plan.is_empty());
    assert_eq!(plan.turns, 0);
}

#[test]
fn eta_dt_ablation_requires_no_fewer_iterations() {
    // Without the domination table the queue holds duplicate-ish paths, so
    // reaching termination takes at least as many polls.
    let city = CityConfig::small().seed(65).generate();
    let demand = DemandModel::from_city(&city);
    let mut params = CtBusParams::small_defaults();
    params.it_max = 50_000;
    let planner = Planner::new(&city, &demand, params);
    let with_dt = planner.run(PlannerMode::EtaPre);
    let without_dt = planner.run(PlannerMode::EtaNoDomination);
    assert!(
        without_dt.iterations >= with_dt.iterations,
        "DT off ({}) should not finish faster than DT on ({})",
        without_dt.iterations,
        with_dt.iterations
    );
    // Both reach comparable objectives.
    assert!(without_dt.best.objective >= 0.8 * with_dt.best.objective);
}

#[test]
fn perturbation_precompute_plans_comparable_routes() {
    let city = CityConfig::small().seed(66).generate();
    let demand = DemandModel::from_city(&city);
    let params = CtBusParams::small_defaults();

    let probe = Precomputed::build_with(&city, &demand, &params, DeltaMethod::PairedProbes);
    let pert = Precomputed::build_with(&city, &demand, &params, DeltaMethod::Perturbation);
    let plan_probe = Planner::with_precomputed(&city, params, probe).run(PlannerMode::EtaPre).best;
    let plan_pert = Planner::with_precomputed(&city, params, pert).run(PlannerMode::EtaPre).best;
    assert!(!plan_probe.is_empty() && !plan_pert.is_empty());
    // Final objectives are both re-scored with the same SLQ estimator, so
    // they are directly comparable.
    assert!(
        plan_pert.objective >= 0.6 * plan_probe.objective,
        "perturbation surrogate route too weak: {} vs {}",
        plan_pert.objective,
        plan_probe.objective
    );
}

#[test]
fn metrics_scale_with_connectivity_weight_on_medium_city() {
    // The Table 6 grey-row claim at a size with room to differentiate:
    // routes planned with more connectivity weight cross at least as many
    // existing routes as demand-only ones (allowing small-scale noise).
    let city = CityConfig::medium().generate();
    let demand = DemandModel::from_city(&city);
    let mut params = CtBusParams::small_defaults();
    params.k = 12;
    params.sn = 600;
    params.it_max = 8_000;

    let run_with_w = |w: f64| {
        let mut p = params;
        p.w = w;
        let planner = Planner::new(&city, &demand, p);
        let plan = planner.run(PlannerMode::EtaPre).best;
        let m = evaluate_plan(&city, &plan, &planner.precomputed().candidates);
        (plan, m)
    };
    let (plan0, m0) = run_with_w(0.0);
    let (plan1, m1) = run_with_w(1.0);
    assert!(
        plan0.conn_increment >= plan1.conn_increment,
        "w=0 conn {} < w=1 conn {}",
        plan0.conn_increment,
        plan1.conn_increment
    );
    assert!(plan1.demand >= plan0.demand);
    assert!(
        m0.crossed_routes + 2 >= m1.crossed_routes,
        "w=0 crossed {} should not lag w=1 crossed {} by much",
        m0.crossed_routes,
        m1.crossed_routes
    );
}

#[test]
fn run_result_bookkeeping_is_consistent() {
    let city = CityConfig::small().seed(67).generate();
    let demand = DemandModel::from_city(&city);
    let params = CtBusParams::small_defaults();
    let planner = Planner::new(&city, &demand, params);
    let res = planner.run(PlannerMode::EtaPre);
    assert!(res.iterations <= params.it_max);
    assert!(res.evaluations >= res.iterations, "every poll evaluates at least once");
    assert!(res.runtime_secs >= 0.0);
    assert!(res.trace.first().unwrap().0 == 0);
    assert!(res.trace.last().unwrap().0 <= res.iterations);
    // Final trace value equals the best plan's pre-rescore objective up to
    // the SLQ re-scoring delta; both must be positive here.
    assert!(res.trace.last().unwrap().1 > 0.0);
}

/// A plan's junctions recounted from its stops' positions: how many
/// interior stops deflect enough to be a `Turn`, and whether any is
/// `Sharp`.
fn recount_turns(city: &City, stops: &[u32]) -> (u32, bool) {
    let pos = |s: u32| &city.transit.stop(s).pos;
    let classes: Vec<TurnClass> = stops
        .windows(3)
        .map(|w| TurnClass::from_angle(turn_angle(pos(w[0]), pos(w[1]), pos(w[2]))))
        .collect();
    let turns = classes.iter().filter(|&&c| c == TurnClass::Turn).count() as u32;
    (turns, classes.contains(&TurnClass::Sharp))
}

#[test]
fn plan_turns_match_the_route_geometry_in_every_mode() {
    for city in [CityConfig::small().generate(), CityConfig::medium().generate()] {
        let demand = DemandModel::from_city(&city);
        let mut params = CtBusParams::small_defaults();
        params.k = 10;
        params.sn = 40;
        params.it_max = 300;
        let planner = Planner::new(&city, &demand, params);
        for mode in PlannerMode::ALL {
            let plan = planner.run(mode).best;
            let what = format!("{} {mode:?}", city.name);
            assert!(!plan.is_empty(), "{what}: no route");
            let (turns, sharp) = recount_turns(&city, &plan.stops);
            assert_eq!(plan.turns, turns, "{what}: turns of {:?}", plan.stops);
            assert!(!sharp, "{what}: a sharp junction in {:?}", plan.stops);
        }
    }
}
