//! Output checks: plan feasibility, pre-computation equality, and the
//! approximate tier's drift bounds.

use std::collections::HashSet;

use ct_core::{CtBusParams, Precomputed, RoutePlan};
use ct_data::City;

/// Why `plan`, planned on `city` with route budget `k`, is infeasible, or
/// `None` when it is a usable route: non-empty, at most `k` edges, one
/// more stop than edges, within the turn budget, no repeated stop, and
/// new stop pairs genuinely new.
pub fn infeasibility(city: &City, params: &CtBusParams, plan: &RoutePlan) -> Option<String> {
    if plan.is_empty() {
        return Some("empty plan".into());
    }
    if plan.num_edges() > params.k {
        return Some(format!("{} edges > k = {}", plan.num_edges(), params.k));
    }
    if plan.stops.len() != plan.num_edges() + 1 {
        return Some(format!("{} stops for {} edges", plan.stops.len(), plan.num_edges()));
    }
    if plan.turns > params.tn_max {
        return Some(format!("{} turns > {}", plan.turns, params.tn_max));
    }
    let distinct: HashSet<u32> = plan.stops.iter().copied().collect();
    if distinct.len() != plan.stops.len() {
        return Some("repeated stop".into());
    }
    if let Some(&(u, v)) =
        plan.new_stop_pairs.iter().find(|&&(u, v)| city.transit.edge_between(u, v).is_some())
    {
        return Some(format!("new pair ({u}, {v}) already exists"));
    }
    None
}

/// The first artifact in which a session's refreshed pre-computation
/// differs from a cold build, or `None` when every artifact a planner
/// reads is bit-identical.
pub fn precomputed_mismatch(refreshed: &Precomputed, cold: &Precomputed) -> Option<&'static str> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if refreshed.candidates.edges() != cold.candidates.edges() {
        return Some("candidates");
    }
    if bits(&refreshed.delta) != bits(&cold.delta) {
        return Some("delta");
    }
    if bits(&refreshed.top_eigs) != bits(&cold.top_eigs) {
        return Some("top_eigs");
    }
    if refreshed.base_adj != cold.base_adj {
        return Some("base_adj");
    }
    let scalars = |p: &Precomputed| {
        [p.d_max, p.lambda_max, p.base_lambda, p.base_trace, p.conn_path_ub].map(f64::to_bits)
    };
    if scalars(refreshed) != scalars(cold) {
        return Some("normalizers");
    }
    None
}

/// Shared hops (as unordered stop pairs) over the larger hop count; 1.0
/// means identical corridors. Same measure as the `drift` harness.
pub fn route_overlap(a: &RoutePlan, b: &RoutePlan) -> f64 {
    let pairs = |p: &RoutePlan| -> HashSet<(u32, u32)> {
        p.stops.windows(2).map(|h| (h[0].min(h[1]), h[0].max(h[1]))).collect()
    };
    let (pa, pb) = (pairs(a), pairs(b));
    let denom = pa.len().max(pb.len());
    if denom == 0 {
        return 1.0;
    }
    pa.intersection(&pb).count() as f64 / denom as f64
}

/// The `drift` harness's default bounds.
pub const MAX_OBJECTIVE_FACTOR: f64 = 2.0;
/// Mean route overlap floor.
pub const MIN_MEAN_OVERLAP: f64 = 0.25;
/// Cumulative connectivity-gain ratio window.
pub const CONN_RATIO_RANGE: (f64, f64) = (0.7, 1.5);

/// Drift-bound violations of an approximate chain against the exact
/// chain that planned with the same draws, scored as `drift` scores them.
pub fn drift_violations(exact: &[RoutePlan], approx: &[RoutePlan]) -> Vec<String> {
    let mut out = Vec::new();
    let f = MAX_OBJECTIVE_FACTOR;
    let paired = exact.len().min(approx.len());
    if paired == 0 {
        return vec!["no paired rounds".into()];
    }
    let mut overlap = 0.0;
    for round in 0..paired {
        let (a, e) = (&approx[round], &exact[round]);
        overlap += route_overlap(a, e);
        let obj = a.objective / e.objective;
        let conn = if e.conn_increment > 1e-12 { a.conn_increment / e.conn_increment } else { 1.0 };
        for (what, v) in [("objective factor", obj), ("connectivity ratio", conn)] {
            if !(1.0 / f..=f).contains(&v) {
                out.push(format!("round {round}: {what} {v:.3} outside [{:.3}, {f:.3}]", 1.0 / f));
            }
        }
    }
    let mean_overlap = overlap / paired as f64;
    if mean_overlap < MIN_MEAN_OVERLAP {
        out.push(format!("mean overlap {mean_overlap:.3} < {MIN_MEAN_OVERLAP}"));
    }
    let cum = conn_gain(approx) / conn_gain(exact);
    if !(CONN_RATIO_RANGE.0..=CONN_RATIO_RANGE.1).contains(&cum) {
        out.push(format!("cumulative connectivity ratio {cum:.3} outside {CONN_RATIO_RANGE:?}"));
    }
    out
}

/// Cumulative connectivity gain of a chain of plans.
pub fn conn_gain(plans: &[RoutePlan]) -> f64 {
    plans.iter().map(|p| p.conn_increment).sum()
}
