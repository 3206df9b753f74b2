//! Load generator for the concurrent planning service
//! ([`ct_core::ServeState`]): fire thousands of simultaneous what-if
//! requests across worker threads and measure what the serving layer
//! sustains.
//!
//! ```sh
//! cargo run -p ct_bench --release --bin loadgen -- \
//!     --requests 2000 --threads 4 --commit-every 50 --verify
//! ```
//!
//! **Workload.** One `ServeState` over the medium synthetic city (same
//! fixture and parameters as the `multi_route` benches). Workers pull
//! request indices from a shared counter; by index the mix is:
//!
//! * *plan* — check out the current snapshot, plan;
//! * *branch+plan* (every 2nd) — check out, fork a what-if branch, plan on
//!   the branch (exercises the O(1) `branch()` path);
//! * *commit* (every `--commit-every`th, 0 = read-only) — plan, then
//!   submit the plan as a [`ct_core::CommitTicket`] through the
//!   single-writer queue, re-planning on a fresh snapshot if the ticket
//!   went stale (bounded retries).
//!
//! **Reported** (and, with `--baseline`, merged into
//! `target/experiments/bench_baseline.json` in the same line format the
//! vendored criterion writes, so `bench_check` gates regressions):
//!
//! * `loadgen/seq_plan_ns/medium` — sequential back-to-back per-plan cost
//!   (the 1-thread baseline the speedup criterion divides by);
//! * `loadgen/concurrent_plan_ns/t{N}` — wall-clock per plan across the
//!   whole concurrent run (inverse throughput, so slower ⇒ larger and the
//!   `bench_check` ratio gate reads naturally);
//! * `loadgen/plan_p99_ns/t{N}` — p99 of individual request latencies;
//! * `loadgen/commit_apply_ns` — median apply-and-publish latency of
//!   applied commit tickets.
//!
//! **Verification** (`--verify`). Planning is deterministic per snapshot,
//! so the service has a sequential oracle: the i-th *applied* commit must
//! carry exactly the plan `plan_multiple_reference` produces in round i,
//! and every sampled read-only plan taken at generation g must equal the
//! oracle's round-g plan — regardless of thread interleaving. `--verify`
//! checks both, plus gapless commit generations and nonzero throughput.
//!
//! **Chaos mode** (`--chaos`, seed via `--chaos-seed`). Installs a
//! deterministic fault schedule on the serving path: a panic at each of
//! the four registered failpoints (commit-apply, session-refresh,
//! snapshot-publish, and snapshot-swap — the last one fires while the
//! snapshot write lock is held, poisoning it) plus a seeded batch of
//! extra panics/delays/errors ([`ct_core::FailPlan::seeded`]). Workers
//! treat `Failed`/`Overloaded` outcomes as retryable and re-plan; after
//! the run a recovery commit must apply, proving post-fault throughput
//! recovers. `--chaos --verify` additionally holds the oracle checks
//! under fire — failed commits publish nothing, so the applied sequence
//! still replays `plan_multiple_reference` bit for bit — and asserts the
//! final generation equals the applied-commit count (gapless even when
//! faults interleave).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ct_bench::baseline::merge_baseline;
use ct_core::{
    fault::{self, site},
    plan_multiple_reference, CommitOutcome, CommitTicket, CtBusParams, FailPlan, PlannerMode,
    RefreshPolicy, RoutePlan, ServeState,
};
use ct_data::{CityConfig, DemandModel};

/// Every Nth non-commit request records `(generation, plan)` for the
/// oracle check.
const SAMPLE_EVERY: usize = 8;
/// Re-plan attempts before a commit request gives up on a stale ticket.
const MAX_COMMIT_ATTEMPTS: usize = 8;
/// Extra headroom for chaos runs: injected failures consume attempts too
/// (a commit may eat several scheduled panics before it lands).
const MAX_CHAOS_COMMIT_ATTEMPTS: usize = 32;

struct Config {
    requests: usize,
    threads: usize,
    commit_every: usize,
    preset: String,
    verify: bool,
    baseline: bool,
    /// Fail unless concurrent plans/sec ≥ this × sequential plans/sec.
    assert_speedup: Option<f64>,
    chaos: bool,
    chaos_seed: u64,
    refresh: RefreshPolicy,
}

impl Config {
    fn parse() -> Result<Config, String> {
        let mut cfg = Config {
            requests: 2000,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            commit_every: 50,
            preset: "medium".into(),
            verify: false,
            baseline: false,
            assert_speedup: None,
            chaos: false,
            chaos_seed: 1,
            refresh: RefreshPolicy::Exact,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("--{name} needs a value"));
            match flag.as_str() {
                "--requests" => cfg.requests = parse(&value("requests")?)?,
                "--threads" => cfg.threads = parse(&value("threads")?)?,
                "--commit-every" => cfg.commit_every = parse(&value("commit-every")?)?,
                "--city" => cfg.preset = value("city")?,
                "--verify" => cfg.verify = true,
                "--baseline" => cfg.baseline = true,
                "--assert-speedup" => cfg.assert_speedup = Some(parse(&value("assert-speedup")?)?),
                "--chaos" => cfg.chaos = true,
                "--chaos-seed" => cfg.chaos_seed = parse(&value("chaos-seed")?)?,
                "--refresh" => {
                    cfg.refresh = match value("refresh")?.as_str() {
                        "exact" => RefreshPolicy::Exact,
                        "approximate" => RefreshPolicy::approximate(),
                        other => {
                            return Err(format!("--refresh wants exact|approximate, got `{other}`"))
                        }
                    }
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if cfg.threads == 0 || cfg.requests == 0 {
            return Err("--threads and --requests must be ≥ 1".into());
        }
        Ok(cfg)
    }

    fn max_commit_attempts(&self) -> usize {
        if self.chaos {
            MAX_CHAOS_COMMIT_ATTEMPTS
        } else {
            MAX_COMMIT_ATTEMPTS
        }
    }
}

/// The chaos schedule: one panic at every registered failpoint early on
/// (so each is provably survived, including the lock-poisoning swap site)
/// plus a seeded batch of extra faults. Hit-count based, so the same seed
/// replays the same run.
fn chaos_plan(seed: u64) -> FailPlan {
    FailPlan::new()
        .panic_at(site::COMMIT_APPLY, 1)
        .panic_at(site::SESSION_REFRESH, 1)
        .panic_at(site::SNAPSHOT_PUBLISH, 1)
        .panic_at(site::SNAPSHOT_SWAP, 1)
        .merged(FailPlan::seeded(seed, &site::ALL, 4, 40))
}

fn parse<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("cannot parse `{v}`"))
}

/// What one worker thread measured.
#[derive(Default)]
struct WorkerStats {
    plan_lat: Vec<Duration>,
    plans: usize,
    commit_give_ups: usize,
    /// `Failed` outcomes survived (chaos mode): retried and recovered.
    commit_failures: usize,
    /// `Overloaded` outcomes survived: backed off and retried.
    commit_sheds: usize,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    let cfg = match Config::parse() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };

    // Same fixture as the `multi_route` benches so the numbers line up.
    let city = match cfg.preset.as_str() {
        "small" => CityConfig::small().generate(),
        "medium" => CityConfig::medium().generate(),
        other => {
            eprintln!("loadgen: unknown --city `{other}` (small|medium)");
            std::process::exit(2);
        }
    };
    let demand = DemandModel::from_city(&city);
    let mut params = CtBusParams::small_defaults();
    params.k = 10;
    params.sn = 300;
    params.it_max = 600;
    let mode = PlannerMode::EtaPre;

    eprintln!("loadgen: building initial snapshot ({})…", cfg.preset);
    let mut state = ServeState::new(city.clone(), demand.clone(), params).with_refresh(cfg.refresh);
    if !cfg.refresh.is_exact() {
        eprintln!("loadgen: approximate refresh tier — commits skip the full Δ re-sweep");
    }
    let injector = cfg.chaos.then(|| chaos_plan(cfg.chaos_seed).injector());
    if let Some(injector) = &injector {
        fault::silence_injected_panics();
        state = state.with_faults(Arc::clone(injector));
        eprintln!(
            "loadgen: chaos mode — {} scheduled faults (seed {})",
            chaos_plan(cfg.chaos_seed).len(),
            cfg.chaos_seed
        );
    }
    let state = Arc::new(state);

    // ── Sequential back-to-back baseline (the denominator of the speedup
    // criterion): one thread, plan after plan on the published snapshot.
    let seq_samples = cfg.requests.min(32);
    let mut seq_lat = Vec::with_capacity(seq_samples);
    let seq_t0 = Instant::now();
    for _ in 0..seq_samples {
        let t = Instant::now();
        let plan = state.session().plan(mode);
        std::hint::black_box(&plan);
        seq_lat.push(t.elapsed());
    }
    let seq_wall = seq_t0.elapsed();
    seq_lat.sort_unstable();
    let seq_ns_per_plan = seq_wall.as_nanos() / seq_samples as u128;
    let seq_plans_per_sec = seq_samples as f64 / seq_wall.as_secs_f64();
    eprintln!(
        "loadgen: sequential baseline {seq_plans_per_sec:.1} plans/sec \
         (median {:.2} ms over {seq_samples} plans)",
        percentile(&seq_lat, 0.5).as_secs_f64() * 1e3
    );

    // ── Concurrent run: workers race over one shared request counter.
    let next = AtomicUsize::new(0);
    let applied: Mutex<Vec<(u64, RoutePlan)>> = Mutex::new(Vec::new());
    let samples: Mutex<Vec<(u64, RoutePlan)>> = Mutex::new(Vec::new());
    let commit_lat: Mutex<Vec<Duration>> = Mutex::new(Vec::new());

    let conc_t0 = Instant::now();
    let max_attempts = cfg.max_commit_attempts();
    let workers: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|_| {
                let (state, next) = (&state, &next);
                let (applied, samples, commit_lat) = (&applied, &samples, &commit_lat);
                scope.spawn(move || {
                    let mut stats = WorkerStats::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cfg.requests {
                            break;
                        }
                        let is_commit =
                            cfg.commit_every > 0 && i % cfg.commit_every == cfg.commit_every - 1;
                        if is_commit {
                            // Plan, submit, re-plan on a fresh snapshot if
                            // another commit won the race (optimistic
                            // concurrency — the stale plan's candidate ids
                            // no longer index the published pool).
                            for attempt in 1..=max_attempts {
                                let snapshot = state.current();
                                let t = Instant::now();
                                let result = snapshot.session().plan(mode);
                                stats.plan_lat.push(t.elapsed());
                                stats.plans += 1;
                                state.record_plan(result.stop);
                                if result.best.is_empty() || result.best.objective <= 0.0 {
                                    break; // network saturated: nothing to commit
                                }
                                let t = Instant::now();
                                let ticket = CommitTicket::new(&snapshot, result.best.clone());
                                match state.commit(ticket) {
                                    CommitOutcome::Applied { generation, .. } => {
                                        commit_lat
                                            .lock()
                                            .expect("commit_lat poisoned")
                                            .push(t.elapsed());
                                        applied
                                            .lock()
                                            .expect("applied poisoned")
                                            .push((generation, result.best));
                                        break;
                                    }
                                    CommitOutcome::Stale { .. } => {
                                        if attempt == max_attempts {
                                            stats.commit_give_ups += 1;
                                        }
                                    }
                                    // Injected (or real) failure, contained by
                                    // the serving layer: nothing published,
                                    // re-plan on a fresh checkout and retry.
                                    CommitOutcome::Failed { .. } => {
                                        stats.commit_failures += 1;
                                        if attempt == max_attempts {
                                            stats.commit_give_ups += 1;
                                        }
                                    }
                                    // Shed under load: back off and retry.
                                    CommitOutcome::Overloaded { .. } => {
                                        stats.commit_sheds += 1;
                                        std::thread::yield_now();
                                        if attempt == max_attempts {
                                            stats.commit_give_ups += 1;
                                        }
                                    }
                                    // loadgen submits only plans it computed on
                                    // the ticket's own snapshot — Invalid means
                                    // the validator or the planner broke.
                                    CommitOutcome::Invalid { reason } => {
                                        panic!("loadgen produced an invalid ticket: {reason}")
                                    }
                                    CommitOutcome::Empty => break,
                                }
                            }
                        } else {
                            let snapshot = state.current();
                            let t = Instant::now();
                            let result = if i % 2 == 1 {
                                // What-if: fork a branch off the checked-out
                                // session and plan on the fork.
                                snapshot.session().branch().plan(mode)
                            } else {
                                snapshot.session().plan(mode)
                            };
                            stats.plan_lat.push(t.elapsed());
                            stats.plans += 1;
                            state.record_plan(result.stop);
                            if i % SAMPLE_EVERY == 0 {
                                samples
                                    .lock()
                                    .expect("samples poisoned")
                                    .push((snapshot.generation(), result.best));
                            }
                        }
                    }
                    stats
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen worker panicked")).collect()
    });
    let conc_wall = conc_t0.elapsed();

    // ── Aggregate.
    let mut plan_lat: Vec<Duration> = workers.iter().flat_map(|w| w.plan_lat.clone()).collect();
    plan_lat.sort_unstable();
    let total_plans: usize = workers.iter().map(|w| w.plans).sum();
    let give_ups: usize = workers.iter().map(|w| w.commit_give_ups).sum();
    let failures: usize = workers.iter().map(|w| w.commit_failures).sum();
    let sheds: usize = workers.iter().map(|w| w.commit_sheds).sum();
    let mut applied = applied.into_inner().expect("applied poisoned");
    applied.sort_by_key(|(generation, _)| *generation);
    let samples = samples.into_inner().expect("samples poisoned");
    let mut commit_lat = commit_lat.into_inner().expect("commit_lat poisoned");
    commit_lat.sort_unstable();

    // ── Chaos recovery: with the workload done (and most of the fault
    // schedule burned), one more plan → commit must go through — the
    // service is not allowed to stay wedged after a storm of injected
    // panics (including the one that poisoned the snapshot lock).
    let mut recovery_applied = false;
    if let Some(injector) = &injector {
        let mut recovered_after = None;
        for attempt in 1..=MAX_CHAOS_COMMIT_ATTEMPTS {
            let snapshot = state.current();
            let result = snapshot.session().plan(mode);
            state.record_plan(result.stop);
            if result.best.is_empty() || result.best.objective <= 0.0 {
                eprintln!("loadgen: chaos recovery — network saturated, nothing left to commit");
                recovered_after = Some(attempt);
                break;
            }
            let ticket = CommitTicket::new(&snapshot, result.best.clone());
            match state.commit(ticket) {
                CommitOutcome::Applied { generation, .. } => {
                    applied.push((generation, result.best));
                    recovered_after = Some(attempt);
                    recovery_applied = true;
                    break;
                }
                CommitOutcome::Invalid { reason } => {
                    panic!("loadgen recovery produced an invalid ticket: {reason}")
                }
                // Stale (another late worker), Failed (leftover scheduled
                // fault), Overloaded: retry.
                _ => {}
            }
        }
        let recovered_after = recovered_after.unwrap_or_else(|| {
            panic!("chaos recovery: no commit applied within {MAX_CHAOS_COMMIT_ATTEMPTS} attempts")
        });
        let fs = injector.stats();
        println!(
            "chaos: survived {failures} failed and {sheds} shed commit attempts — \
             injector fired {} faults ({} panics, {} delays, {} errors) over {} hits; \
             recovered in {recovered_after} attempt(s)",
            fs.fired(),
            fs.panics,
            fs.delays,
            fs.errors,
            fs.hits
        );
        // Every commit attempt hits COMMIT_APPLY, whose first hit is a
        // scheduled panic — so any commit traffic at all must have fired.
        assert!(fs.hits == 0 || fs.panics > 0, "chaos run saw commits but fired no panic");
    }
    let serve_stats = state.stats();

    let plans_per_sec = total_plans as f64 / conc_wall.as_secs_f64();
    let conc_ns_per_plan = conc_wall.as_nanos() / (total_plans.max(1)) as u128;
    let speedup = plans_per_sec / seq_plans_per_sec;
    println!(
        "loadgen: {total_plans} plans on {} threads in {:.2}s — {plans_per_sec:.1} plans/sec \
         ({speedup:.2}x sequential)",
        cfg.threads,
        conc_wall.as_secs_f64()
    );
    if !plan_lat.is_empty() {
        println!(
            "latency p50 {:.2} ms | p99 {:.2} ms | max {:.2} ms",
            percentile(&plan_lat, 0.5).as_secs_f64() * 1e3,
            percentile(&plan_lat, 0.99).as_secs_f64() * 1e3,
            percentile(&plan_lat, 1.0).as_secs_f64() * 1e3
        );
    }
    println!("{}", serve_stats.stops);
    println!(
        "commits: {} applied, {} stale, {} failed, {} shed, {} invalid, {give_ups} gave up — \
         final generation {} ({})",
        serve_stats.commits_applied,
        serve_stats.commits_stale,
        serve_stats.commits_failed,
        serve_stats.commits_shed,
        serve_stats.commits_invalid,
        serve_stats.generation,
        if serve_stats.degraded() { "DEGRADED" } else { "healthy" }
    );
    if !commit_lat.is_empty() {
        println!(
            "commit apply latency median {:.1} ms | max {:.1} ms",
            percentile(&commit_lat, 0.5).as_secs_f64() * 1e3,
            percentile(&commit_lat, 1.0).as_secs_f64() * 1e3
        );
    }

    // ── Oracle verification (see module docs).
    if cfg.verify {
        assert!(total_plans > 0 && plans_per_sec > 0.0, "verify: zero throughput");
        if cfg.chaos {
            // Failed/shed/invalid commits must publish nothing: the
            // generation advances once per *applied* commit, exactly.
            assert_eq!(
                serve_stats.generation, serve_stats.commits_applied,
                "verify: generation diverged from applied commits under chaos"
            );
            assert!(
                !recovery_applied || !serve_stats.degraded(),
                "verify: service still degraded after a successful chaos recovery"
            );
        }
        let rounds = applied.len();
        for (i, (generation, _)) in applied.iter().enumerate() {
            assert_eq!(
                *generation,
                i as u64 + 1,
                "verify: commit generations have gaps: {:?}",
                applied.iter().map(|(g, _)| *g).collect::<Vec<_>>()
            );
        }
        if cfg.refresh.is_exact() {
            let reference = plan_multiple_reference(&city, &demand, params, rounds, mode);
            assert_eq!(reference.len(), rounds, "verify: oracle stopped early");
            for (i, (_, plan)) in applied.iter().enumerate() {
                assert_eq!(
                    *plan, reference[i],
                    "verify: applied commit {i} diverged from the sequential oracle"
                );
            }
            let mut checked = 0usize;
            for (generation, plan) in &samples {
                // A read-only plan at generation g equals the oracle's
                // round-g plan (the one commit g+1 would apply).
                if (*generation as usize) < rounds {
                    assert_eq!(
                        *plan, reference[*generation as usize],
                        "verify: sampled plan at generation {generation} diverged from the oracle"
                    );
                    checked += 1;
                }
            }
            println!(
                "verify: OK — {rounds} applied commits and {checked}/{} sampled plans \
                 match the sequential oracle",
                samples.len()
            );
        } else {
            // The approximate tier legitimately diverges from the exact
            // oracle (that drift is the drift harness's job to bound);
            // structural invariants still hold.
            println!(
                "verify: OK — {rounds} applied commits, gapless generations \
                 (approximate refresh: oracle equality not applicable; \
                 drift is bounded by the drift harness)"
            );
        }
    }
    if let Some(min_speedup) = cfg.assert_speedup {
        assert!(speedup >= min_speedup, "speedup {speedup:.2}x below required {min_speedup:.2}x");
    }

    // ── Baseline labels (same line format as the vendored criterion's
    // `write_baseline`, so entries merge cleanly across harnesses).
    if cfg.baseline {
        let p99 = percentile(&plan_lat, 0.99).as_nanos();
        let p50 = percentile(&plan_lat, 0.5).as_nanos();
        let mut records = vec![
            (
                "loadgen/seq_plan_ns/medium".to_string(),
                seq_ns_per_plan,
                seq_ns_per_plan,
                seq_ns_per_plan,
                seq_samples,
            ),
            (
                format!("loadgen/concurrent_plan_ns/t{}", cfg.threads),
                conc_ns_per_plan,
                conc_ns_per_plan,
                conc_ns_per_plan,
                total_plans,
            ),
            (format!("loadgen/plan_p99_ns/t{}", cfg.threads), p50, p99, p99, plan_lat.len()),
        ];
        if !commit_lat.is_empty() {
            let c50 = percentile(&commit_lat, 0.5).as_nanos();
            records.push((
                "loadgen/commit_apply_ns".to_string(),
                commit_lat[0].as_nanos(),
                c50,
                c50,
                commit_lat.len(),
            ));
        }
        merge_baseline(&records);
    }
}
