//! Ablation bench: Lanczos vs Chebyshev for `e^A v` on transit
//! adjacencies — the two standard engines behind stochastic trace
//! estimation (§5.1 vs refs [54, 55]).
//!
//! Expectation: transit networks have tiny
//! spectral norms (paper: 5.46 / 4.79), so both need few iterations; the
//! Lanczos per-step cost is higher (inner products + orthogonalization)
//! while Chebyshev needs degree ∝ ‖A‖₂ but only one matvec per degree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ct_data::CityConfig;
use ct_linalg::{chebyshev_expv, lanczos_expv, spectral_norm};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_expm(c: &mut Criterion) {
    let mut group = c.benchmark_group("expm");

    for preset in ["small", "medium"] {
        let city = match preset {
            "small" => CityConfig::small().generate(),
            _ => CityConfig::medium().generate(),
        };
        let adj = city.transit.adjacency_matrix();
        let n = adj.n();
        let mut rng = StdRng::seed_from_u64(0xE4);
        let rho = spectral_norm(&adj, &mut rng).expect("spectral norm");
        let v: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 / 17.0 - 0.5).collect();

        for steps in [10usize, 20] {
            group.bench_with_input(
                BenchmarkId::new(format!("{preset}/lanczos_expv"), steps),
                &steps,
                |b, &t| b.iter(|| lanczos_expv(black_box(&adj), black_box(&v), t)),
            );
        }
        for degree in [10usize, 20, 40] {
            group.bench_with_input(
                BenchmarkId::new(format!("{preset}/chebyshev_expv"), degree),
                &degree,
                |b, &d| b.iter(|| chebyshev_expv(black_box(&adj), black_box(&v), d, rho * 1.05)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_expm);
criterion_main!(benches);
