//! Drift oracle harness for the approximate refresh tier
//! ([`ct_core::RefreshPolicy::Approximate`]): replay a multi-round
//! `plan → commit → plan` scenario under both refresh policies, quantify
//! how far the approximate tier drifts from the exact rebuild oracle, and
//! fail if the drift leaves its configured bounds.
//!
//! ```sh
//! cargo run -p ct_bench --release --bin drift -- \
//!     --city medium --rounds 4 --reps 5 --baseline --assert-speedup 1.1
//! ```
//!
//! **Replay.** `plan_multiple_reference` (rebuild per round) is the
//! oracle. An exact-policy session must reproduce it **bit for bit** —
//! that invariant is asserted before anything is measured. The
//! approximate-policy session replays the same rounds with scoped Δ
//! re-sweeps and warm-started spectra; everything is deterministic, so
//! the reported drift is a property of the tier, not of the run.
//!
//! **Drift report**, per round and aggregate:
//!
//! * *route overlap* — shared hop pairs over the larger hop count against
//!   the oracle's same-round route (1.0 = identical corridor). Route
//!   identity may legitimately decay over rounds; the bound is on the
//!   *mean* (`--min-mean-overlap`).
//! * *objective factor* — approximate objective over exact, bounded per
//!   round to `[1/f, f]` with `f =` `--max-objective-factor`.
//! * *connectivity-gain ratio* — per round (same factor bound) and
//!   cumulative over the portfolio (`--min-conn-ratio`/`--max-conn-ratio`);
//!   the cumulative ratio is the headline "did the approximate tier build
//!   a comparably connected network" number.
//!
//! **Timing** (honest 1-core by default; `--threads` to override). The
//! per-round marginal of a session absorbing one more route — `branch →
//! commit → re-plan` — measured under each policy from identical states,
//! medians over `--reps` repetitions, twice: for the *first* commit after
//! a cold build and for a *later* one (after one commit). The two differ
//! in where the approximate tier's spectrum head starts: the cold build's
//! Ritz vectors or the previous commit's. With `--baseline` the medians
//! land in `bench_baseline.json` as
//! `refresh_approx/first_commit_{exact,approx}_ns/{city}` and
//! `refresh_approx/commit_replan_{exact,approx}_ns/{city}` so
//! `bench_check` gates them; `--assert-speedup R` additionally requires
//! exact/approx ≥ R for both the first and the later commit.

use std::time::{Duration, Instant};

use ct_bench::baseline::merge_baseline;
use ct_core::{
    plan_multiple_reference, CommitSummary, CtBusParams, PlannerMode, PlanningSession,
    RefreshPolicy, RoutePlan,
};
use ct_data::{City, CityConfig, DemandModel};

struct Config {
    preset: String,
    rounds: usize,
    reps: usize,
    threads: usize,
    baseline: bool,
    min_mean_overlap: f64,
    max_objective_factor: f64,
    min_conn_ratio: f64,
    max_conn_ratio: f64,
    assert_speedup: Option<f64>,
}

impl Config {
    fn parse() -> Result<Config, String> {
        let mut cfg = Config {
            preset: "small".into(),
            rounds: 4,
            reps: 5,
            threads: 1,
            baseline: false,
            min_mean_overlap: 0.25,
            max_objective_factor: 2.0,
            min_conn_ratio: 0.7,
            max_conn_ratio: 1.5,
            assert_speedup: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("--{name} needs a value"));
            match flag.as_str() {
                "--city" => cfg.preset = value("city")?,
                "--rounds" => cfg.rounds = parse(&value("rounds")?)?,
                "--reps" => cfg.reps = parse(&value("reps")?)?,
                "--threads" => cfg.threads = parse(&value("threads")?)?,
                "--baseline" => cfg.baseline = true,
                "--min-mean-overlap" => cfg.min_mean_overlap = parse(&value("min-mean-overlap")?)?,
                "--max-objective-factor" => {
                    cfg.max_objective_factor = parse(&value("max-objective-factor")?)?
                }
                "--min-conn-ratio" => cfg.min_conn_ratio = parse(&value("min-conn-ratio")?)?,
                "--max-conn-ratio" => cfg.max_conn_ratio = parse(&value("max-conn-ratio")?)?,
                "--assert-speedup" => cfg.assert_speedup = Some(parse(&value("assert-speedup")?)?),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if cfg.rounds < 2 {
            return Err("--rounds must be ≥ 2 (round 0 never drifts — nothing to measure)".into());
        }
        if cfg.reps == 0 {
            return Err("--reps must be ≥ 1".into());
        }
        if cfg.max_objective_factor < 1.0 {
            return Err("--max-objective-factor must be ≥ 1".into());
        }
        Ok(cfg)
    }
}

fn parse<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("cannot parse `{v}`"))
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

/// Fraction of shared hops (as unordered stop pairs) over the larger hop
/// count — 1.0 means identical corridors.
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

/// Median branch → commit → re-plan marginal over `reps` repetitions,
/// from one fixed warm session state.
fn time_commit_replan(
    warm: &PlanningSession,
    plan: &RoutePlan,
    mode: PlannerMode,
    reps: usize,
) -> (Duration, Duration) {
    let mut lat = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut s = warm.branch();
        let t = Instant::now();
        s.commit(plan);
        std::hint::black_box(s.plan(mode));
        lat.push(t.elapsed());
    }
    lat.sort_unstable();
    (lat[lat.len() / 2], lat[0])
}

fn main() {
    let cfg = match Config::parse() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("drift: {e}");
            std::process::exit(2);
        }
    };

    // Same fixtures as the `multi_route` benches / loadgen, so the
    // timing labels line up with the existing baselines.
    let city = match cfg.preset.as_str() {
        "small" => CityConfig::small().generate(),
        "medium" => CityConfig::medium().generate(),
        other => {
            eprintln!("drift: unknown --city `{other}` (small|medium)");
            std::process::exit(2);
        }
    };
    let demand = DemandModel::from_city(&city);
    let mut params = CtBusParams::small_defaults();
    if cfg.preset == "medium" {
        params.k = 10;
        params.sn = 300;
        params.it_max = 600;
    }
    params.parallelism.threads = cfg.threads;
    let mode = PlannerMode::EtaPre;

    eprintln!(
        "drift: {} city, {} rounds, {} threads — building rebuild-per-round oracle…",
        cfg.preset, cfg.rounds, cfg.threads
    );
    let oracle = plan_multiple_reference(&city, &demand, params, cfg.rounds, mode);
    assert!(
        oracle.len() >= 2,
        "fixture saturated after {} round(s); nothing to replay",
        oracle.len()
    );

    // Invariant first: the exact tier must reproduce the oracle bit for
    // bit, or drift numbers below would be meaningless.
    let (exact, _) = replay(&city, &demand, params, cfg.rounds, mode, RefreshPolicy::Exact);
    assert_eq!(exact, oracle, "exact refresh diverged from the rebuild-per-round oracle");
    println!("exact: bit-identical to the oracle over {} rounds", exact.len());

    let (approx, approx_summaries) =
        replay(&city, &demand, params, cfg.rounds, mode, RefreshPolicy::approximate());
    assert!(approx.len() >= 2, "approximate replay saturated after {} round(s)", approx.len());

    // ── Per-round drift table.
    println!("round  overlap  obj_factor  conn_ratio  swept(approx)");
    let mut overlap_sum = 0.0;
    let mut violations = Vec::new();
    let paired = approx.len().min(exact.len());
    for round in 0..paired {
        let (a, e) = (&approx[round], &exact[round]);
        let overlap = route_overlap(a, e);
        overlap_sum += overlap;
        let obj_factor = a.objective / e.objective;
        let conn_ratio =
            if e.conn_increment > 1e-12 { a.conn_increment / e.conn_increment } else { 1.0 };
        let swept = round
            .checked_sub(1)
            .and_then(|i| approx_summaries.get(i))
            .map(|s| s.swept_candidates.to_string())
            .unwrap_or_else(|| "-".into());
        println!("{round:>5}  {overlap:>7.3}  {obj_factor:>10.3}  {conn_ratio:>10.3}  {swept:>13}");
        let f = cfg.max_objective_factor;
        if !(1.0 / f..=f).contains(&obj_factor) {
            violations.push(format!(
                "round {round}: objective factor {obj_factor:.3} ∉ [{:.3}, {f:.3}]",
                1.0 / f
            ));
        }
        if !(1.0 / f..=f).contains(&conn_ratio) {
            violations.push(format!(
                "round {round}: connectivity ratio {conn_ratio:.3} ∉ [{:.3}, {f:.3}]",
                1.0 / f
            ));
        }
    }
    let mean_overlap = overlap_sum / paired as f64;
    let total = |ps: &[RoutePlan]| ps.iter().map(|p| p.conn_increment).sum::<f64>();
    let conn_cum = total(&approx) / total(&exact);
    println!("mean overlap {mean_overlap:.3} | cumulative connectivity-gain ratio {conn_cum:.3}");
    if mean_overlap < cfg.min_mean_overlap {
        violations
            .push(format!("mean overlap {mean_overlap:.3} < floor {:.3}", cfg.min_mean_overlap));
    }
    if !(cfg.min_conn_ratio..=cfg.max_conn_ratio).contains(&conn_cum) {
        violations.push(format!(
            "cumulative connectivity ratio {conn_cum:.3} ∉ [{:.3}, {:.3}]",
            cfg.min_conn_ratio, cfg.max_conn_ratio
        ));
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("drift: BOUND VIOLATED — {v}");
        }
        std::process::exit(1);
    }
    println!("drift: all bounds hold");

    // ── Timing: the per-round marginal under each policy, from identical
    // states with `commits` routes absorbed and the next one planned. After
    // a commit the approximate state carries the previous commit's Ritz
    // basis (the steady state it serves in); before any, the cold build's.
    let state = |policy: RefreshPolicy, commits: usize| -> (PlanningSession, RoutePlan) {
        let mut s = PlanningSession::new(city.clone(), demand.clone(), params).with_refresh(policy);
        let mut next = s.plan(mode).best;
        for _ in 0..commits {
            assert!(!next.is_empty());
            s.commit(&next);
            next = s.plan(mode).best;
        }
        assert!(!next.is_empty());
        (s, next)
    };
    let mut records = Vec::new();
    let mut speedups = Vec::new();
    for (what, label, commits) in
        [("first commit", "first_commit", 0), ("later commit", "commit_replan", 1)]
    {
        let mut medians = Vec::new();
        for (tier, policy) in
            [("exact", RefreshPolicy::Exact), ("approx", RefreshPolicy::approximate())]
        {
            let (s, next) = state(policy, commits);
            let (med, min) = time_commit_replan(&s, &next, mode, cfg.reps);
            medians.push(med.as_secs_f64());
            records.push((
                format!("refresh_approx/{label}_{tier}_ns/{}", cfg.preset),
                min.as_nanos(),
                med.as_nanos(),
                med.as_nanos(),
                cfg.reps,
            ));
        }
        let speedup = medians[0] / medians[1];
        println!(
            "{what} + replan ({} reps, {} threads): exact {:.2} ms | approximate {:.2} ms \
             | speedup {speedup:.2}x",
            cfg.reps,
            cfg.threads,
            medians[0] * 1e3,
            medians[1] * 1e3
        );
        speedups.push((what, speedup));
    }
    if let Some(min) = cfg.assert_speedup {
        for (what, speedup) in speedups {
            assert!(
                speedup >= min,
                "approximate {what} speedup {speedup:.2}x below required {min:.2}x"
            );
        }
    }

    if cfg.baseline {
        merge_baseline(&records);
    }
}
