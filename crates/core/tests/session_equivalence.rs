//! Equivalence contract of incremental planning sessions: `plan → commit →
//! plan → …` through a [`PlanningSession`] must be **bit-identical** to the
//! retained rebuild-per-round reference (`plan_multiple_reference`) — same
//! routes, same candidate ids, same scores — for every planner mode, any
//! number of rounds, and any thread count. The session may only *save
//! work* (candidate re-enumeration, Δ-sweep allocations), never change a
//! bit of the answer (see `docs/ALGORITHMS.md`, "Planning sessions").

use std::sync::Arc;

use ct_core::{plan_multiple, plan_multiple_reference, CtBusParams, PlannerMode, PlanningSession};
use ct_data::{City, CityConfig, DemandModel};
use proptest::prelude::*;

fn small_city(seed: u64) -> (City, DemandModel) {
    let city = CityConfig::small().seed(seed).generate();
    let demand = DemandModel::from_city(&city);
    (city, demand)
}

/// Trimmed parameters so the mode × thread × round matrix stays fast.
fn quick_params() -> CtBusParams {
    let mut params = CtBusParams::small_defaults();
    params.k = 6;
    params.sn = 80;
    params.it_max = 400;
    params.trace_probes = 8;
    params.lanczos_steps = 6;
    params
}

#[test]
fn session_equals_rebuild_across_modes_and_thread_counts() {
    let (city, demand) = small_city(301);
    let mut params = quick_params();
    for mode in [PlannerMode::EtaPre, PlannerMode::VkTsp, PlannerMode::EtaNoDomination] {
        params.parallelism.threads = 1;
        let reference = plan_multiple_reference(&city, &demand, params, 3, mode);
        assert!(!reference.is_empty(), "{mode:?}: fixture planned nothing");
        for threads in [1usize, 2, 4] {
            params.parallelism.threads = threads;
            let session = plan_multiple(&city, &demand, params, 3, mode);
            assert_eq!(
                session, reference,
                "{mode:?} session diverged from rebuild at threads={threads}"
            );
        }
    }
}

#[test]
fn session_survives_planning_to_exhaustion() {
    // Demand-only planning until the corpus is fully served: both drivers
    // must stop at the same round with the same plans.
    let (city, demand) = small_city(302);
    let mut params = quick_params();
    params.w = 1.0; // objective hits 0 exactly when no unserved demand remains
    params.sn = 40;
    params.it_max = 200;
    let session = plan_multiple(&city, &demand, params, 40, PlannerMode::EtaPre);
    let reference = plan_multiple_reference(&city, &demand, params, 40, PlannerMode::EtaPre);
    assert_eq!(session, reference);
    assert!(session.len() < 40, "fixture unexpectedly supports 40 routes");
}

#[test]
fn branch_commit_replan_equals_straight_line() {
    // Branching must be semantically invisible: a branch that commits the
    // same plan reaches exactly the state the main line reaches.
    let (city, demand) = small_city(303);
    let params = quick_params();
    let mut main = PlanningSession::new(city.clone(), demand.clone(), params);
    let first = main.plan(PlannerMode::EtaPre);
    assert!(!first.best.is_empty());

    let mut branch = main.branch();
    branch.commit(&first.best);
    main.commit(&first.best);

    let a = main.plan(PlannerMode::EtaPre);
    let b = branch.plan(PlannerMode::EtaPre);
    assert_eq!(a.best, b.best);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.evaluations, b.evaluations);
}

#[test]
fn no_road_or_trajectory_copies_across_rounds() {
    // The copy-on-write contract, pinned by pointer identity: however many
    // rounds are committed, the session's city still holds the exact Arcs
    // the caller handed in.
    let (city, demand) = small_city(304);
    let road = Arc::clone(&city.road);
    let trajectories = Arc::clone(&city.trajectories);
    let params = quick_params();
    let mut session = PlanningSession::new(city, demand, params);
    let mut rounds = 0;
    for _ in 0..3 {
        let result = session.plan(PlannerMode::EtaPre);
        if result.best.is_empty() || result.best.objective <= 0.0 {
            break;
        }
        session.commit(&result.best);
        rounds += 1;
        assert!(Arc::ptr_eq(&road, &session.city().road), "round {rounds} cloned the roads");
        assert!(
            Arc::ptr_eq(&trajectories, &session.city().trajectories),
            "round {rounds} cloned the trajectories"
        );
    }
    assert!(rounds >= 2, "fixture committed too few rounds to be meaningful");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Random city, mode, weight, rounds: the session path must reproduce
    // the rebuild-per-round reference bit for bit at 1, 2, and 4 threads.
    #[test]
    fn session_bit_identical_to_rebuild_on_generated_cities(
        seed in 0u64..10_000,
        mode_idx in 0usize..3,
        w_step in 0u32..5,
        rounds in 1usize..=3,
    ) {
        let (city, demand) = small_city(seed);
        let mut params = quick_params();
        params.w = f64::from(w_step) / 4.0;
        let mode = [PlannerMode::EtaPre, PlannerMode::VkTsp, PlannerMode::EtaAllNeighbors]
            [mode_idx];
        params.parallelism.threads = 1;
        let reference = plan_multiple_reference(&city, &demand, params, rounds, mode);
        for threads in [1usize, 2, 4] {
            params.parallelism.threads = threads;
            let session = plan_multiple(&city, &demand, params, rounds, mode);
            prop_assert_eq!(&session, &reference, "mode {:?} threads {}", mode, threads);
        }
    }
}
