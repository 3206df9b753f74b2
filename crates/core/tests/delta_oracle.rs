//! Δ(e) held to an exact oracle on small cities.
//!
//! The planner ranks candidate edges by their connectivity increment
//! `Δ(e) = λ(A + e) − λ(A)` (paper §6). Both `DeltaMethod`s estimate it;
//! here every new candidate's estimate is compared with the exact value
//! from a dense eigendecomposition (`natural_connectivity_exact`), scored
//! by Spearman rank correlation, median relative error, top-20 overlap and
//! the number of values clamped to 0.
//!
//! The perturbation estimator is pinned. The paired-probe estimator, the
//! shipped default, is printed but not pinned, together with the base λ
//! against its exact value and EtaPre's reported connectivity gain against
//! the exact gain of its route (run with `--nocapture` to see the table).

use ct_core::{apply_plan, CtBusParams, DeltaMethod, Planner, PlannerMode, Precomputed};
use ct_data::{City, CityConfig, DemandModel};
use ct_linalg::{natural_connectivity_exact, CsrMatrix};

/// How closely one method's Δ(e) tracks the exact values.
#[derive(Debug)]
struct Score {
    spearman: f64,
    median_rel_err: f64,
    top20_overlap: usize,
    zeros: usize,
}

fn exact_lambda(adj: &CsrMatrix) -> f64 {
    natural_connectivity_exact(adj).expect("dense eigensolve")
}

/// Average ranks, ties sharing the mean of their positions.
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut ranks = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        for &k in &order[i..=j] {
            ranks[k] = (i + j) as f64 / 2.0;
        }
        i = j + 1;
    }
    ranks
}

fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
    let cov: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let vx: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
    let vy: f64 = y.iter().map(|b| (b - my) * (b - my)).sum();
    cov / (vx * vy).sqrt()
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// Indices of the `k` largest values, ties broken by index.
fn top(values: &[f64], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[b].total_cmp(&values[a]).then(a.cmp(&b)));
    order.truncate(k);
    order
}

fn score(estimate: &[f64], exact: &[f64]) -> Score {
    let exact_top = top(exact, 20);
    Score {
        spearman: pearson(&ranks(estimate), &ranks(exact)),
        median_rel_err: median(
            estimate.iter().zip(exact).map(|(e, x)| ((e - x) / x).abs()).collect(),
        ),
        top20_overlap: top(estimate, 20).iter().filter(|i| exact_top.contains(i)).count(),
        zeros: estimate.iter().filter(|&&e| e == 0.0).count(),
    }
}

/// One city's row: both methods' scores, the base λ (estimated, exact) and
/// EtaPre's reported over exact connectivity gain.
fn oracle_row(city: &City) -> (Score, Score, (f64, f64), f64) {
    let demand = DemandModel::from_city(city);
    let params = CtBusParams::small_defaults();
    let probes = Precomputed::build_with(city, &demand, &params, DeltaMethod::PairedProbes);
    let perturbation = Precomputed::build_with(city, &demand, &params, DeltaMethod::Perturbation);

    let base_adj = city.transit.adjacency_matrix();
    let base = exact_lambda(&base_adj);
    let new_ids: Vec<usize> =
        (0..probes.candidates.len()).filter(|&i| !probes.candidates.edges()[i].existing).collect();
    assert!(new_ids.len() >= 20, "{}: only {} new candidates", city.name, new_ids.len());
    let exact: Vec<f64> = new_ids
        .iter()
        .map(|&i| {
            let e = &probes.candidates.edges()[i];
            exact_lambda(&base_adj.with_added_unit_edges(&[(e.u, e.v)])) - base
        })
        .collect();
    let of = |pre: &Precomputed| -> Vec<f64> { new_ids.iter().map(|&i| pre.delta[i]).collect() };

    let planner = Planner::with_precomputed(city, params, probes.clone());
    let plan = planner.run(PlannerMode::EtaPre).best;
    let planned = apply_plan(&city.transit, &plan, &probes.candidates);
    let exact_gain = exact_lambda(&planned.adjacency_matrix()) - base;

    (
        score(&of(&probes), &exact),
        score(&of(&perturbation), &exact),
        (probes.base_lambda, base),
        plan.conn_increment / exact_gain,
    )
}

#[test]
fn perturbation_delta_ranks_like_the_exact_increment() {
    let cities = [
        CityConfig::small().generate(),
        CityConfig::small().seed(5).generate(),
        CityConfig::small().seed(12).generate(),
        CityConfig::small().seed(21).generate(),
    ];
    println!("city | method | spearman | median rel err | top-20 overlap | zeros");
    for (label, city) in ["small", "seed 5", "seed 12", "seed 21"].iter().zip(&cities) {
        let (probes, perturbation, (lambda, lambda_exact), gain_ratio) = oracle_row(city);
        for (method, s) in [("paired probes", &probes), ("perturbation", &perturbation)] {
            println!(
                "{label} | {method} | {:.4} | {:.3} | {} | {}",
                s.spearman, s.median_rel_err, s.top20_overlap, s.zeros
            );
        }
        println!(
            "{label}: base λ {lambda:.3} (exact {lambda_exact:.3}); EtaPre reported / exact \
             gain {gain_ratio:.2}"
        );

        let s = &perturbation;
        assert!(s.spearman >= 0.99, "{label}: perturbation Spearman {s:?}");
        assert!(s.median_rel_err <= 0.15, "{label}: perturbation median error {s:?}");
        assert!(s.top20_overlap >= 17, "{label}: perturbation top-20 overlap {s:?}");
        assert_eq!(s.zeros, 0, "{label}: perturbation Δ clamped to 0 {s:?}");
    }
}
