//! Criterion microbench behind Table 2: exact eigendecomposition vs.
//! stochastic Lanczos quadrature vs. bound evaluation, per λ(Gr) query.
//!
//! The `*_s16` cases split one Δ(e) solve at `small_defaults` (s = 16
//! probes, t = 8 steps) into its layers: `slq_trace_batched/*_s16` is the
//! whole solve, `matvec_lanes/*_s16` one of its t lane products, and
//! `slq_quadrature/s16` its s quadratures `e₁ᵀ e^T e₁`, one 16-lane
//! `tridiag_exp11_lanes` call (`slq_quadrature/s16_t10` the same at the
//! paper's t = 10); the rest is the Lanczos recurrence (see
//! docs/benchmarks.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use std::hint::black_box;

use ct_core::{general_bound, path_bound, CtBusParams};
use ct_data::CityConfig;
use ct_linalg::tridiag::tridiag_exp11_lanes;
use ct_linalg::{
    block_krylov_topk, gaussian_vector, lanczos_tridiagonalize, natural_connectivity_exact,
    ConnectivityEstimator, CsrMatrix, EdgeOverlay, LanczosWorkspace, MatVec,
};

/// The first stop pair (in row order) the network does not connect.
fn first_absent_edge(adj: &CsrMatrix) -> (u32, u32) {
    let n = adj.n() as u32;
    (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .find(|&(u, v)| !adj.has_edge(u, v))
        .expect("the network is not complete")
}

fn bench_connectivity(c: &mut Criterion) {
    let mut group = c.benchmark_group("connectivity");
    group.sample_size(10);

    for (name, cfg) in [("medium", CityConfig::medium()), ("bronx", CityConfig::bronx_like())] {
        let city = cfg.generate();
        let adj = city.transit.adjacency_matrix();
        let params = CtBusParams::paper_defaults();
        let est = ConnectivityEstimator::new(adj.n(), &params.trace_params(), 1);

        group.bench_with_input(BenchmarkId::new("eigen_exact", name), &adj, |b, adj| {
            b.iter(|| natural_connectivity_exact(black_box(adj)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("lanczos_slq", name), &adj, |b, adj| {
            b.iter(|| est.lambda(black_box(adj)).unwrap())
        });

        // Frozen-probe trace sweep: the matrix streams once per Lanczos step
        // for each lane tile of probes.
        group.bench_with_input(BenchmarkId::new("slq_trace_batched", name), &adj, |b, adj| {
            b.iter(|| est.trace_exp(black_box(adj)).unwrap())
        });

        // Bound evaluation given a precomputed spectrum head.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let eigs = block_krylov_topk(&adj, 60, 0, &mut rng).unwrap();
        let base = est.lambda(&adj).unwrap();
        group.bench_with_input(BenchmarkId::new("general_bound", name), &eigs, |b, eigs| {
            b.iter(|| general_bound(black_box(base), eigs, 30, adj.n()))
        });
        group.bench_with_input(BenchmarkId::new("path_bound", name), &eigs, |b, eigs| {
            b.iter(|| path_bound(black_box(base), eigs, 30, adj.n()))
        });
    }

    // One Δ(e) solve at `small_defaults`: the frozen-probe trace of the
    // network plus one added edge, through a reused overlay and workspace —
    // the unit both the precompute sweep and the online ETA scorer pay.
    let small = CtBusParams::small_defaults().trace_params();
    let mut quad_inputs = Vec::new();
    for (name, cfg) in
        [("medium", CityConfig::medium()), ("chicago_like", CityConfig::chicago_like())]
    {
        let adj = cfg.generate().transit.adjacency_matrix();
        let est = ConnectivityEstimator::new(adj.n(), &small, 1);
        let overlay = EdgeOverlay::new(&adj, &[first_absent_edge(&adj)]);
        let mut ws = LanczosWorkspace::new();
        let label = format!("{name}_s{}", small.probes);
        group.bench_with_input(BenchmarkId::new("slq_trace_batched", &label), &overlay, |b, ov| {
            b.iter(|| est.trace_exp_in(black_box(ov), &mut ws).unwrap())
        });
        let xs = vec![[1.0; 16]; adj.n()];
        let mut ys = vec![[0.0; 16]; adj.n()];
        group.bench_with_input(BenchmarkId::new("matvec_lanes", &label), &overlay, |b, ov| {
            b.iter(|| ov.matvec_lanes(black_box(&xs), &mut ys))
        });
        if quad_inputs.is_empty() {
            // The s tridiagonal matrices of one medium-city solve, at
            // `small_defaults`' t and at the paper's t = 10.
            for (label, steps) in [("s16", small.lanczos_steps), ("s16_t10", 10)] {
                quad_inputs.push((label, lane_tile(&overlay, steps)));
            }
        }
    }

    // The s quadratures of one solve, alone: what a solve pays after its
    // matvecs and recurrence passes.
    for (label, (alphas, betas)) in &quad_inputs {
        let t = alphas.len();
        let (mut z, mut term) = (vec![[0.0; 16]; t], vec![[0.0; 16]; t]);
        group.bench_function(BenchmarkId::new("slq_quadrature", label), |b| {
            b.iter(|| {
                let quad = tridiag_exp11_lanes(black_box(alphas), betas, &mut z, &mut term);
                black_box(quad.unwrap().iter().sum::<f64>())
            })
        });
    }
    group.finish();
}

/// The `α` and `β` rows of 16 `steps`-step Lanczos runs on `a` from
/// seeded Gaussian probes, one lane per probe.
fn lane_tile(a: &EdgeOverlay<'_>, steps: usize) -> (Vec<[f64; 16]>, Vec<[f64; 16]>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut alphas = vec![[0.0; 16]; steps];
    let mut betas = vec![[0.0; 16]; steps - 1];
    for l in 0..16 {
        let v = gaussian_vector(&mut rng, a.n());
        let dec = lanczos_tridiagonalize(a, &v, steps, false, false).unwrap();
        assert_eq!(dec.steps(), steps, "no breakdown on a city network");
        for (row, &x) in alphas.iter_mut().zip(&dec.alphas) {
            row[l] = x;
        }
        for (row, &x) in betas.iter_mut().zip(&dec.betas) {
            row[l] = x;
        }
    }
    (alphas, betas)
}

criterion_group!(benches, bench_connectivity);
criterion_main!(benches);
