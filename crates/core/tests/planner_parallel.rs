//! Determinism contract of the parallel expansion engine: for every
//! `PlannerMode` and any thread count, `Planner::run` must be
//! **bit-identical** to the retained single-threaded reference
//! `Planner::run_sequential` — same best plan, same convergence trace,
//! same iteration and evaluation counts, same stop reason. Only wall-clock
//! time may differ.
//!
//! The contract holds because each expansion is a pure function of the
//! drained path and the frozen probes, and merges happen in drain order
//! (see `docs/ALGORITHMS.md`, "Determinism contract").

use ct_core::{CtBusParams, Planner, PlannerMode, Precomputed};
use ct_data::{City, CityConfig, DemandModel};
use proptest::prelude::*;

fn assert_runs_identical(planner: &Planner, mode: PlannerMode, threads: usize) {
    let reference = planner.run_sequential(mode);
    let parallel = planner.run_with_threads(mode, threads);
    assert_eq!(parallel.best, reference.best, "{mode:?} best diverged at threads={threads}");
    assert_eq!(parallel.trace, reference.trace, "{mode:?} trace diverged at threads={threads}");
    assert_eq!(parallel.iterations, reference.iterations, "{mode:?} iterations diverged");
    assert_eq!(parallel.evaluations, reference.evaluations, "{mode:?} evaluations diverged");
    assert_eq!(parallel.stop, reference.stop, "{mode:?} stop reason diverged");
}

fn small_city(seed: u64) -> (City, DemandModel) {
    let city = CityConfig::small().seed(seed).generate();
    let demand = DemandModel::from_city(&city);
    (city, demand)
}

#[test]
fn all_modes_bit_identical_across_thread_counts() {
    let (city, demand) = small_city(97);
    let mut params = CtBusParams::small_defaults();
    // Online scoring is the expensive variant; cap the traversal so the
    // full mode × thread matrix stays fast.
    params.sn = 60;
    params.it_max = 300;
    let pre = Precomputed::build(&city, &demand, &params);
    let planner = Planner::with_precomputed(&city, params, pre);
    for mode in PlannerMode::ALL {
        for threads in [1, 2, 4] {
            assert_runs_identical(&planner, mode, threads);
        }
    }
}

#[test]
fn oversubscribed_pool_and_tiny_batch_still_identical() {
    // More workers than frontier entries, and a batch smaller than the
    // worker count: the stealing cursor runs dry and some workers expand
    // nothing — results must not notice.
    let (city, demand) = small_city(98);
    let mut params = CtBusParams::small_defaults();
    params.parallelism.batch = 2;
    params.sn = 25;
    params.it_max = 200;
    let planner = Planner::new(&city, &demand, params);
    assert_runs_identical(&planner, PlannerMode::EtaPre, 8);
    assert_runs_identical(&planner, PlannerMode::EtaAllNeighbors, 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Random city, batch size, weight, and mode: the parallel run must
    // reproduce the sequential reference exactly at 2 and 4 threads.
    #[test]
    fn parallel_run_bit_identical_on_generated_cities(
        seed in 0u64..10_000,
        batch in 1usize..40,
        w_step in 0u32..5,
        mode_idx in 0usize..6,
    ) {
        let (city, demand) = small_city(seed);
        let mut params = CtBusParams::small_defaults();
        params.parallelism.batch = batch;
        params.w = f64::from(w_step) / 4.0;
        // Keep the online variant affordable per case.
        params.sn = 30;
        params.it_max = 120;
        params.trace_probes = 8;
        params.lanczos_steps = 6;
        let mode = PlannerMode::ALL[mode_idx];
        let planner = Planner::new(&city, &demand, params);
        let reference = planner.run_sequential(mode);
        for threads in [2usize, 4] {
            let parallel = planner.run_with_threads(mode, threads);
            prop_assert_eq!(&parallel.best, &reference.best);
            prop_assert_eq!(&parallel.trace, &reference.trace);
            prop_assert_eq!(parallel.iterations, reference.iterations);
            prop_assert_eq!(parallel.evaluations, reference.evaluations);
            prop_assert_eq!(parallel.stop, reference.stop);
        }
    }
}
