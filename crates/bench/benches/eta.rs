//! Criterion microbench behind Table 7: one planning run, ETA (online
//! Lanczos scoring) vs ETA-Pre (pre-computed surrogate), across k.
//!
//! The `eta_sweep_*` labels time the medium city. For online ETA they
//! are a pair: `sequential` drives the epoch-batched frontier inline (the
//! retained `run_sequential` reference), `parallel` fans expansion out
//! over all cores through the work-stealing pool. Both produce
//! bit-identical plans (asserted here before measuring); the gap between
//! them is the engine's multicore speedup. ETA-Pre has only
//! `eta_sweep_pre_sequential`: linear modes run inline at any thread
//! count, so a parallel label would time the same run. Medians land in
//! `target/experiments/bench_baseline.json` through the vendored criterion
//! (see docs/benchmarks.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ct_core::{CtBusParams, Planner, PlannerMode};
use ct_data::{CityConfig, DemandModel};

fn bench_eta(c: &mut Criterion) {
    let mut group = c.benchmark_group("eta");
    group.sample_size(10);

    let city = CityConfig::small().seed(77).generate();
    let demand = DemandModel::from_city(&city);

    for k in [6usize, 10, 14] {
        let mut params = CtBusParams::small_defaults();
        params.k = k;
        params.it_max = 400;
        params.sn = 150;
        let planner = Planner::new(&city, &demand, params);

        group.bench_with_input(BenchmarkId::new("eta_online", k), &planner, |b, p| {
            b.iter(|| p.run(PlannerMode::Eta))
        });
        group.bench_with_input(BenchmarkId::new("eta_pre", k), &planner, |b, p| {
            b.iter(|| p.run(PlannerMode::EtaPre))
        });
        group.bench_with_input(BenchmarkId::new("vk_tsp", k), &planner, |b, p| {
            b.iter(|| p.run(PlannerMode::VkTsp))
        });
    }
    group.finish();

    // Medium-city ETA sweep. The online-scored `Eta` mode is where
    // expansion cost dominates (one SLQ trace per candidate extension), so
    // it is timed inline and on the work-stealing pool at the machine's
    // available parallelism; `EtaPre` measures the engine's floor on cheap
    // linear scoring, which always runs inline.
    let mut group = c.benchmark_group("eta_sweep");
    group.sample_size(10);

    let city = CityConfig::medium().generate();
    let demand = DemandModel::from_city(&city);
    let mut params = CtBusParams::small_defaults();
    params.k = 12;
    params.sn = 300;
    params.it_max = 600;
    let planner = Planner::new(&city, &demand, params);
    let threads = params.parallelism.worker_threads();

    // The determinism contract the speedup rests on.
    assert_eq!(
        planner.run_sequential(PlannerMode::Eta).best,
        planner.run_with_threads(PlannerMode::Eta, threads).best,
        "parallel plan diverged from sequential reference"
    );
    group.bench_with_input(
        BenchmarkId::new("eta_sweep_online_sequential", "medium"),
        &planner,
        |b, p| b.iter(|| p.run_sequential(PlannerMode::Eta)),
    );
    group.bench_with_input(
        BenchmarkId::new("eta_sweep_online_parallel", "medium"),
        &planner,
        |b, p| b.iter(|| p.run_with_threads(PlannerMode::Eta, threads)),
    );
    group.bench_with_input(
        BenchmarkId::new("eta_sweep_pre_sequential", "medium"),
        &planner,
        |b, p| b.iter(|| p.run_sequential(PlannerMode::EtaPre)),
    );
    group.finish();
}

criterion_group!(benches, bench_eta);
criterion_main!(benches);
