//! Criterion microbench behind Table 4: candidate generation (road
//! shortest paths) and the per-edge Δ(e) sweep.
//!
//! `candidates_shortest_paths/chicago_like` times candidate generation
//! alone on the largest preset, where stopping each stop's road search at
//! its last τ-neighbour saves the most; a return to full trees shows there
//! as a slowdown of about 25×.
//!
//! `delta_sweep_overlay_batched` times the shipping sweep (EdgeOverlay
//! views, lane-tiled multi-probe matvec, work-stealing counter,
//! thread-local workspaces) on every available core.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ct_core::precompute::compute_deltas_with_threads;
use ct_core::{CandidateSet, CtBusParams, Precomputed};
use ct_data::{CityConfig, DemandModel};
use ct_linalg::ConnectivityEstimator;

fn bench_precompute(c: &mut Criterion) {
    let mut group = c.benchmark_group("precompute");
    group.sample_size(10);

    for (name, cfg) in [("small", CityConfig::small()), ("medium", CityConfig::medium())] {
        let city = cfg.generate();
        let demand = DemandModel::from_city(&city);
        let params = CtBusParams::small_defaults();

        group.bench_with_input(
            BenchmarkId::new("candidates_shortest_paths", name),
            &city,
            |b, city| {
                b.iter(|| {
                    CandidateSet::build(
                        black_box(city),
                        &demand,
                        params.tau_m,
                        params.max_detour_factor,
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("full_precompute_with_delta_sweep", name),
            &city,
            |b, city| b.iter(|| Precomputed::build(black_box(city), &demand, &params)),
        );

        // Δ(e) sweep in isolation.
        let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        let cands = CandidateSet::build(&city, &demand, params.tau_m, params.max_detour_factor);
        let base = city.transit.adjacency_matrix();
        let estimator =
            ConnectivityEstimator::new(base.n(), &params.trace_params(), params.probe_seed);
        let base_trace = estimator.trace_exp(&base).unwrap().max(f64::MIN_POSITIVE);
        group.bench_with_input(
            BenchmarkId::new("delta_sweep_overlay_batched", name),
            &cands,
            |b, cands| {
                b.iter(|| {
                    compute_deltas_with_threads(
                        black_box(cands),
                        &base,
                        &estimator,
                        base_trace,
                        threads,
                    )
                })
            },
        );

        // Reparameterization must be orders of magnitude cheaper.
        let pre = Precomputed::build(&city, &demand, &params);
        let mut p2 = params;
        p2.k = 12;
        group.bench_with_input(BenchmarkId::new("reparameterize", name), &pre, |b, pre| {
            b.iter(|| pre.reparameterize(black_box(&p2)))
        });
    }

    let city = CityConfig::chicago_like().generate();
    let demand = DemandModel::from_city(&city);
    let params = CtBusParams::small_defaults();
    group.bench_with_input(
        BenchmarkId::new("candidates_shortest_paths", "chicago_like"),
        &city,
        |b, city| {
            b.iter(|| {
                CandidateSet::build(
                    black_box(city),
                    &demand,
                    params.tau_m,
                    params.max_detour_factor,
                )
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_precompute);
criterion_main!(benches);
