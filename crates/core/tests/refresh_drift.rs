//! Drift contract of the approximate refresh tier
//! ([`ct_core::RefreshPolicy::Approximate`]): multi-round `plan → commit →
//! plan` replays under both policies against the exact rebuild oracle
//! (`plan_multiple_reference`), with per-round drift (route overlap,
//! connectivity-gain ratio, objective deltas) bounded. The exact tier must
//! stay **bit-identical** to the oracle — the approximate tier is allowed
//! to drift, but only measurably and reproducibly (everything here is
//! deterministic, so the bounds are exact regression pins, not statistics).
//!
//! The `ct_bench` `drift` bin is the operational twin of this suite: same
//! replay loop, CLI-configurable bounds, medium-city timings.

use ct_core::{
    plan_multiple, plan_multiple_reference, CommitSummary, CtBusParams, PlannerMode,
    PlanningSession, RefreshPolicy, RoutePlan, ServeState,
};
use ct_data::{City, CityConfig, DemandModel};

fn small_city(seed: u64) -> (City, DemandModel) {
    let city = CityConfig::small().seed(seed).generate();
    let demand = DemandModel::from_city(&city);
    (city, demand)
}

fn quick_params() -> CtBusParams {
    let mut params = CtBusParams::small_defaults();
    params.k = 6;
    params.sn = 80;
    params.it_max = 400;
    params.trace_probes = 8;
    params.lanczos_steps = 6;
    params
}

/// The multi-round replay loop (same lazy-commit shape as
/// [`ct_core::plan_multiple`]) under an explicit refresh policy.
fn replay(
    city: &City,
    demand: &DemandModel,
    params: CtBusParams,
    rounds: usize,
    mode: PlannerMode,
    policy: RefreshPolicy,
) -> (Vec<RoutePlan>, Vec<CommitSummary>) {
    let mut session =
        PlanningSession::new(city.clone(), demand.clone(), params).with_refresh(policy);
    let mut plans = Vec::new();
    let mut summaries = Vec::new();
    for _ in 0..rounds {
        if let Some(prev) = plans.last() {
            summaries.push(session.commit(prev));
        }
        let result = session.plan(mode);
        if result.best.is_empty() || result.best.objective <= 0.0 {
            break;
        }
        plans.push(result.best);
    }
    (plans, summaries)
}

/// Fraction of `a`'s hops (as unordered stop pairs) also present in `b`,
/// over the larger hop count — 1.0 means identical corridors.
fn route_overlap(a: &RoutePlan, b: &RoutePlan) -> f64 {
    let pairs = |p: &RoutePlan| -> std::collections::HashSet<(u32, u32)> {
        p.stops.windows(2).map(|h| (h[0].min(h[1]), h[0].max(h[1]))).collect()
    };
    let (pa, pb) = (pairs(a), pairs(b));
    let denom = pa.len().max(pb.len());
    if denom == 0 {
        return 1.0;
    }
    pa.intersection(&pb).count() as f64 / denom as f64
}

#[test]
fn exact_policy_stays_bit_identical_to_oracle() {
    let (city, demand) = small_city(501);
    let params = quick_params();
    let mode = PlannerMode::EtaPre;
    let oracle = plan_multiple_reference(&city, &demand, params, 4, mode);
    assert!(oracle.len() >= 2, "fixture too small to commit");
    let (exact, _) = replay(&city, &demand, params, 4, mode, RefreshPolicy::Exact);
    assert_eq!(exact, oracle, "Exact refresh diverged from the rebuild oracle");
    assert_eq!(exact, plan_multiple(&city, &demand, params, 4, mode));
}

#[test]
fn approximate_drift_is_bounded() {
    let (city, demand) = small_city(501);
    let params = quick_params();
    let mode = PlannerMode::EtaPre;
    let rounds = 4;
    let (exact, exact_sum) = replay(&city, &demand, params, rounds, mode, RefreshPolicy::Exact);
    let (approx, approx_sum) =
        replay(&city, &demand, params, rounds, mode, RefreshPolicy::approximate());
    assert!(exact.len() >= 2 && approx.len() >= 2, "fixture too small");

    // Round 0 has no commit behind it: both tiers plan on the same cold
    // pre-computation, so the first routes must be identical.
    assert_eq!(approx[0], exact[0], "round 0 precedes any refresh and may not drift");

    // Per-round drift bounds. Everything is deterministic, so these are
    // regression pins with safety margin, not statistical gambles: the
    // approximate tier may pick different *routes* (by the last round the
    // corridor overlap legitimately decays toward zero as scoped-sweep
    // staleness accumulates) but not different *quality*.
    let mut overlap_sum = 0.0;
    let mut paired = 0usize;
    for (round, plan) in approx.iter().enumerate() {
        if round >= exact.len() {
            break;
        }
        overlap_sum += route_overlap(plan, &exact[round]);
        paired += 1;
        assert!(
            plan.objective > 0.5 * exact[round].objective
                && plan.objective < 2.0 * exact[round].objective,
            "round {round}: objective {} vs exact {}",
            plan.objective,
            exact[round].objective
        );
        if exact[round].conn_increment > 1e-12 {
            let ratio = plan.conn_increment / exact[round].conn_increment;
            assert!(
                (0.25..=4.0).contains(&ratio),
                "round {round}: connectivity-gain ratio {ratio:.3} out of bounds"
            );
        }
    }
    let mean_overlap = overlap_sum / paired as f64;
    assert!(mean_overlap >= 0.25, "mean route overlap {mean_overlap:.3} below floor");

    // The portfolio as a whole must deliver comparable connectivity gain.
    let total = |ps: &[RoutePlan]| ps.iter().map(|p| p.conn_increment).sum::<f64>();
    let conn_ratio = total(&approx) / total(&exact);
    assert!(
        (0.75..=4.0 / 3.0).contains(&conn_ratio),
        "cumulative connectivity-gain ratio {conn_ratio:.3} out of bounds"
    );

    // The whole point: the approximate tier sweeps strictly fewer
    // candidates per commit than the exact tier.
    for (i, (a, e)) in approx_sum.iter().zip(&exact_sum).enumerate() {
        assert!(
            a.swept_candidates < e.swept_candidates,
            "commit {i}: approximate swept {} ≥ exact {}",
            a.swept_candidates,
            e.swept_candidates
        );
        assert!(a.swept_candidates > 0, "commit {i}: approximate swept nothing");
    }
}

#[test]
fn approximate_replay_is_deterministic() {
    let (city, demand) = small_city(502);
    let params = quick_params();
    let mode = PlannerMode::EtaPre;
    let a = replay(&city, &demand, params, 3, mode, RefreshPolicy::approximate());
    let b = replay(&city, &demand, params, 3, mode, RefreshPolicy::approximate());
    assert_eq!(a.0, b.0, "approximate plans not reproducible");
    // Summaries match modulo `refresh_secs`, which is wall clock.
    let shape = |s: &CommitSummary| {
        (s.new_edges, s.covered_road_edges, s.refreshed_candidates, s.swept_candidates)
    };
    assert_eq!(
        a.1.iter().map(shape).collect::<Vec<_>>(),
        b.1.iter().map(shape).collect::<Vec<_>>(),
        "approximate commit summaries not reproducible"
    );
}

#[test]
fn approximate_chain_is_thread_invariant() {
    // The seeded spectrum head runs beside the touched-id sweep on the
    // sweep's workers; neither may depend on how many workers there are.
    let (city, demand) = small_city(501);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let chain = |threads: usize| {
        let mut params = quick_params();
        params.parallelism.threads = threads;
        let mut session = PlanningSession::new(city.clone(), demand.clone(), params)
            .with_refresh(RefreshPolicy::approximate());
        let mut rounds = Vec::new();
        for _ in 0..3 {
            let plan = session.plan(PlannerMode::EtaPre).best;
            assert!(!plan.is_empty(), "threads={threads}: empty plan");
            let summary = session.commit(&plan);
            let pre = session.precomputed();
            let basis = pre.spectrum_basis.as_ref().expect("a seeded commit keeps its Ritz basis");
            rounds.push((
                plan,
                (summary.swept_candidates, summary.refreshed_candidates),
                bits(&pre.delta),
                bits(&pre.top_eigs),
                basis.iter().map(|v| bits(v)).collect::<Vec<_>>(),
            ));
        }
        rounds
    };
    let reference = chain(1);
    for threads in [2, 4] {
        let got = chain(threads);
        for (round, (g, r)) in got.iter().zip(&reference).enumerate() {
            assert_eq!(g.0, r.0, "threads={threads} round {round}: plan");
            assert_eq!(g.1, r.1, "threads={threads} round {round}: swept/refreshed counts");
            assert_eq!(g.2, r.2, "threads={threads} round {round}: delta bits");
            assert_eq!(g.3, r.3, "threads={threads} round {round}: top_eigs bits");
            assert_eq!(g.4, r.4, "threads={threads} round {round}: spectrum_basis bits");
        }
    }
}

#[test]
fn first_approximate_commit_is_seeded_and_close() {
    let (city, demand) = small_city(501);
    let params = quick_params();
    let mode = PlannerMode::EtaPre;
    let mut session = PlanningSession::new(city.clone(), demand.clone(), params)
        .with_refresh(RefreshPolicy::approximate());

    // The cold build keeps its Ritz vectors, so the first approximate
    // commit below starts from a converged head instead of a seedless one.
    let cold = session.precomputed();
    let n = cold.base_adj.n();
    let want = (2 * params.k).max(32).min(n);
    let cold_basis = cold.spectrum_basis.as_ref().expect("a cold build keeps its Ritz vectors");
    assert_eq!(cold_basis.len(), want, "cold head keeps one vector per eigenvalue");
    assert!(cold_basis.iter().all(|v| v.len() == n), "Ritz vectors have length n");
    assert_eq!(cold.top_eigs.len(), want);

    let first = session.plan(mode);
    assert!(!first.best.is_empty());
    session.commit(&first.best);

    let pre = session.precomputed();
    let basis = pre.spectrum_basis.as_ref().expect("a seeded commit keeps its Ritz basis");
    assert_eq!(basis.len(), want, "seeded head keeps one vector per eigenvalue");
    assert_eq!(pre.top_eigs.len(), want, "seeded spectrum head is short");

    // The seeded head must track the exact spectrum of the evolved network.
    let mut exact_session =
        PlanningSession::new(city, demand, params).with_refresh(RefreshPolicy::Exact);
    let exact_first = exact_session.plan(mode);
    assert_eq!(exact_first.best, first.best);
    exact_session.commit(&exact_first.best);
    let exact_pre = exact_session.precomputed();
    assert_eq!(exact_pre.top_eigs.len(), want);
    for (i, (a, e)) in pre.top_eigs.iter().zip(&exact_pre.top_eigs).enumerate() {
        assert!(
            (a - e).abs() <= 0.05 * e.abs().max(1.0),
            "eigenvalue {i}: seeded {a} vs exact {e}"
        );
    }
}

#[test]
fn serve_state_applies_commits_under_approximate_refresh() {
    let (city, demand) = small_city(504);
    let state =
        ServeState::new(city, demand, quick_params()).with_refresh(RefreshPolicy::approximate());
    assert!(!state.refresh().is_exact());
    let snapshot = state.current();
    let plan = snapshot.session().plan(PlannerMode::EtaPre).best;
    assert!(!plan.is_empty());
    let outcome = state.commit(ct_core::CommitTicket::new(&snapshot, plan));
    match outcome {
        ct_core::CommitOutcome::Applied { generation, summary } => {
            assert_eq!(generation, 1);
            assert!(summary.swept_candidates > 0);
        }
        other => panic!("approximate commit not applied: {other:?}"),
    }
    assert_eq!(state.generation(), 1);
    // The published successor still serves plans.
    let next = state.session().plan(PlannerMode::EtaPre);
    assert!(next.best.objective.is_finite());
}

#[test]
fn approximate_commit_rescores_exactly_the_touched_candidates() {
    let (city, demand) = small_city(505);
    let params = quick_params();
    let policy = RefreshPolicy::approximate();
    let mut exact = PlanningSession::new(city.clone(), demand.clone(), params);
    let mut approx =
        PlanningSession::new(city.clone(), demand.clone(), params).with_refresh(policy);
    let plan = exact.plan(PlannerMode::EtaPre).best;
    assert!(!plan.is_empty());
    let before = approx.precomputed().clone();

    let exact_sum = exact.commit(&plan);
    let approx_sum = approx.commit(&plan);
    let exact_pre = exact.precomputed();
    let approx_pre = approx.precomputed();
    assert_eq!(approx_pre.candidates.edges(), exact_pre.candidates.edges());

    // The expected touched set, from the post-commit pool: new
    // candidates whose corridor meets the committed one, plus new
    // candidates with an endpoint on the route.
    let corridor: std::collections::HashSet<u32> = plan
        .cand_edges
        .iter()
        .flat_map(|&id| before.candidates.edge(id).road_edges.iter().copied())
        .collect();
    let touched: Vec<bool> = approx_pre
        .candidates
        .edges()
        .iter()
        .map(|e| {
            !e.existing
                && (e.road_edges.iter().any(|r| corridor.contains(r))
                    || plan.stops.contains(&e.u)
                    || plan.stops.contains(&e.v))
        })
        .collect();
    let expected = touched.iter().filter(|&&t| t).count();
    let num_new = approx_pre.candidates.num_new();
    assert!(expected > 0 && expected < num_new, "touched {expected} of {num_new}");
    assert_eq!(approx_sum.swept_candidates, expected);
    assert_eq!(exact_sum.swept_candidates, num_new);

    // Touched candidates are re-scored on the same absorbed matrix with
    // the same frozen probes as the exact tier; the rest carry their
    // pre-commit Δ through the promotion permutation.
    let old_id = before.candidates.pair_lookup();
    let mut stale = 0;
    for (id, e) in approx_pre.candidates.edges().iter().enumerate() {
        if e.existing {
            continue;
        }
        let got = approx_pre.delta[id].to_bits();
        if touched[id] {
            assert_eq!(got, exact_pre.delta[id].to_bits(), "touched candidate {id}");
        } else {
            let carried = before.delta[old_id[&(e.u, e.v)] as usize];
            assert_eq!(got, carried.to_bits(), "untouched candidate {id}");
            stale += usize::from(carried != exact_pre.delta[id]);
        }
    }
    assert!(stale > 0, "no carried Δ differs from the exact re-sweep: the check is vacuous");
}
