//! The three workloads. Each is a closed loop: a client sends its next
//! request only after the previous one returned.
//!
//! * `whatif_serve` — two clients against one `ServeState` (Exact): seeded
//!   read requests plan with their own mode, `k` and `w`; about one
//!   request in 100 plans with the service's parameters and commits,
//!   re-planning when its ticket goes stale.
//! * `online_plans` — one client running online-Lanczos ETA at two threads
//!   with seeded `k` and `w`.
//! * `commit_chain` — paper-scale write path: chains of plan-and-commit
//!   rounds branched from one cold session, run pairwise under the Exact
//!   and the approximate refresh tier with the same draws.
//!
//! Both plan workloads end with a short commit-tier probe on their own
//! city (the `commit_chain` loop at a fixed number of chains), so every
//! workload reports every end-to-end metric.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ct_core::{
    plan_multiple_reference, CommitOutcome, CommitSummary, CommitTicket, CtBusParams, DeltaMethod,
    Planner, PlannerMode, PlanningSession, Precomputed, RefreshPolicy, RoutePlan, RunResult,
    ServeState, Snapshot,
};
use ct_data::{City, CityConfig, DemandModel};

use crate::checks;
use crate::stats::{knob_grid, Draws, Knobs};
use crate::trace::{Recorder, Span};

/// Every this many read requests one is kept for the sequential re-plan
/// check.
const SAMPLE_EVERY: usize = 16;
/// Cap on kept read samples per client and epoch (each holds its
/// snapshot alive).
const MAX_SAMPLES: usize = 2;
/// Cap on applied serve commits kept for the commit-wait replay.
const MAX_COMMIT_REPLAYS: usize = 6;
/// Re-plan attempts before a commit request gives up.
const MAX_COMMIT_ATTEMPTS: usize = 8;
/// Eta plans kept for the scorer replay.
const SCORER_SAMPLES: usize = 3;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many short what-if reads beside rare commits on one `ServeState`.
    WhatifServe,
    /// Online-Lanczos ETA plans on the epoch pool.
    OnlinePlans,
    /// Exact and approximate commit chains at paper scale.
    CommitChain,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::WhatifServe, Workload::OnlinePlans, Workload::CommitChain];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WhatifServe => "whatif_serve",
            Workload::OnlinePlans => "online_plans",
            Workload::CommitChain => "commit_chain",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is the benchmark; `Tiny` runs the same code on the
/// small city for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Small city and parameters, for tests.
    Tiny,
}

/// A workload's fixed inputs: city, demand and parameters.
pub struct Fixture {
    /// The city (its preset's own seed; `--seed` drives the requests).
    pub city: City,
    /// Its demand model.
    pub demand: DemandModel,
    /// Base parameters (`small_defaults` with k=10, sn=300, it_max=600).
    pub params: CtBusParams,
    /// Closed-loop clients.
    pub clients: usize,
    /// Planner and sweep threads per client.
    pub threads: usize,
    /// The (k, w) draws of `whatif_serve` reads (crossed with the two
    /// read modes).
    pub read_grid: Vec<Knobs>,
    /// The (k, w) design of `online_plans` requests and of commit chains
    /// (one chain per entry). Runs cover it whole, in seeded order, so a
    /// seed changes the order of the work but not its mix.
    pub design: Vec<Knobs>,
    /// One `whatif_serve` request in this many commits.
    pub commit_every: usize,
    /// `whatif_serve` epochs per measured phase, each from a fresh service.
    pub serve_epochs: usize,
    /// Plan-and-commit rounds per chain.
    pub chain_rounds: usize,
    /// Chains per design entry under each tier, `(exact, approximate)`, all
    /// with the same draws. Replicas repeat deterministic work, so they
    /// sample noisy commits more often per run; they must agree plan for
    /// plan.
    pub replicas: (usize, usize),
    /// Set-ups per run (the median is reported).
    pub setup_reps: usize,
}

/// Builds the fixture of `workload` at `scale`.
pub fn fixture(workload: Workload, scale: Scale) -> Fixture {
    let mut params = CtBusParams::small_defaults();
    let (clients, threads) = match workload {
        Workload::WhatifServe => (2, 1),
        Workload::OnlinePlans | Workload::CommitChain => (1, 2),
    };
    params.parallelism.threads = threads;
    let chicago = workload == Workload::CommitChain;
    let city = match scale {
        Scale::Full if chicago => CityConfig::chicago_like(),
        Scale::Full => CityConfig::medium(),
        Scale::Tiny => CityConfig::small(),
    }
    .generate();
    let demand = DemandModel::from_city(&city);
    match scale {
        Scale::Full => {
            params.k = 10;
            params.sn = 300;
            params.it_max = 600;
            Fixture {
                city,
                demand,
                params,
                clients,
                threads,
                read_grid: knob_grid(&[6, 8, 10], &[0.3, 0.5, 0.7]),
                design: knob_grid(&[8, 10], &[0.5, 0.6]),
                commit_every: 100,
                serve_epochs: 10,
                chain_rounds: 3,
                // Medium commits and set-ups take ~0.1 s and read noisier
                // than chicago_like's: sample them more. On chicago_like the
                // approximate replicas are what spread the plan and
                // first-commit samples over the run (an Exact commit holds
                // both cores for over a second).
                replicas: if chicago { (1, 6) } else { (2, 8) },
                setup_reps: if chicago { 5 } else { 15 },
            }
        }
        Scale::Tiny => {
            params.k = 6;
            params.sn = 60;
            params.it_max = 200;
            params.trace_probes = 8;
            params.lanczos_steps = 6;
            Fixture {
                city,
                demand,
                params,
                clients,
                threads,
                read_grid: knob_grid(&[4, 6], &[0.5]),
                design: knob_grid(&[6], &[0.5]),
                commit_every: 50,
                serve_epochs: 4,
                chain_rounds: 2,
                replicas: (1, 2),
                setup_reps: 1,
            }
        }
    }
}

/// `params` with a request's knobs.
fn with_knobs(params: &CtBusParams, knobs: Knobs) -> CtBusParams {
    let mut p = *params;
    p.k = knobs.k;
    p.w = knobs.w;
    p
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One planning request: reparameterize for the request's knobs, plan.
#[allow(clippy::too_many_arguments)]
fn plan_request(
    rec: &mut Recorder,
    parent: Option<u64>,
    req: u64,
    city: &City,
    pre: &Precomputed,
    params: CtBusParams,
    mode: PlannerMode,
    threads: usize,
) -> RunResult {
    let pre =
        rec.span("precompute.reparameterize", parent, req, |_, _| pre.reparameterize(&params));
    rec.span("eta.plan", parent, req, |_, _| {
        Planner::with_precomputed(city, params, pre).run_with_threads(mode, threads)
    })
}

/// A read kept for the sequential re-plan check.
pub struct Sample {
    snap: Arc<Snapshot>,
    params: CtBusParams,
    mode: PlannerMode,
    plan: RoutePlan,
}

/// A spectrum head's Ritz vectors, as `Precomputed::spectrum_basis` holds them.
pub type RitzBasis = Arc<Vec<Vec<f64>>>;

/// Commit-chain measurements.
#[derive(Default)]
pub struct Chains {
    /// Exact-tier commit latencies.
    pub exact_ms: Vec<f64>,
    /// First approximate commit of each chain (the cliff).
    pub approx_first_ms: Vec<f64>,
    /// Approximate commits 2 and later.
    pub approx_rest_ms: Vec<f64>,
    /// Connectivity gain summed over every exact chain.
    pub exact_gain: f64,
    /// The same over the approximate chains.
    pub approx_gain: f64,
    /// Exact commits' bookkeeping.
    pub exact_summaries: Vec<CommitSummary>,
    /// The first chain's last exact commit: the state it produced and its
    /// latency (input to the commit replay).
    pub exact_post: Option<(Arc<Precomputed>, f64)>,
    /// The first approximate chain's last state and the Ritz basis of the
    /// state before it (input to the warm-spectrum replay).
    pub warm_pair: Option<(RitzBasis, Arc<Precomputed>)>,
    /// The first exact chain's final session, checked against a cold build.
    pub exact_final: Option<PlanningSession>,
}

/// What one phase of a run measured.
#[derive(Default)]
pub struct Phase {
    /// Wall time of the measured loop, seconds.
    pub wall_s: f64,
    /// Plan latencies of the measured loop.
    pub plan_ms: Vec<f64>,
    /// Plan objectives of the measured loop.
    pub objectives: Vec<f64>,
    /// `(iterations, evaluations, runtime ms)` per measured plan.
    pub eta: Vec<(u64, u64, f64)>,
    /// Latencies of applied `ServeState::commit` calls.
    pub serve_commit_ms: Vec<f64>,
    /// Applied serve commits: generation and plan.
    pub applied: Vec<(u64, RoutePlan)>,
    /// Reads kept for the re-plan check.
    pub samples: Vec<Sample>,
    /// Applied serve commits kept for the commit-wait replay.
    pub commit_replays: Vec<(Arc<Snapshot>, RoutePlan, f64)>,
    /// Stale commit outcomes.
    pub stale: u64,
    /// Plans whose result was used (every read; a commit request's plan
    /// only if its ticket applied).
    pub useful_plans: u64,
    /// Eta plans kept for the scorer replay.
    pub online_plans: Vec<RoutePlan>,
    /// Commit chains.
    pub chains: Chains,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Correctness failures.
    pub errors: Vec<String>,
    /// Spans of the measured loop.
    pub spans: Vec<Span>,
    /// Spans of the commit-tier probe.
    pub probe_spans: Vec<Span>,
}

impl Phase {
    /// Counts a measured plan and checks it.
    fn record_plan(&mut self, city: &City, params: &CtBusParams, res: &RunResult, ms: f64) {
        self.plan_ms.push(ms);
        self.objectives.push(res.best.objective);
        self.eta.push((res.iterations, res.evaluations, res.runtime_secs * 1e3));
        self.check_plan(city, params, &res.best);
    }

    /// Counts a plan as attempted and checks it is feasible.
    fn check_plan(&mut self, city: &City, params: &CtBusParams, plan: &RoutePlan) -> bool {
        self.attempted += 1;
        match checks::infeasibility(city, params, plan) {
            None => true,
            Some(why) => {
                self.failed += 1;
                self.errors.push(format!("infeasible plan (k={}): {why}", params.k));
                false
            }
        }
    }

    fn merge(&mut self, other: Phase) {
        self.plan_ms.extend(other.plan_ms);
        self.objectives.extend(other.objectives);
        self.eta.extend(other.eta);
        self.serve_commit_ms.extend(other.serve_commit_ms);
        self.applied.extend(other.applied);
        self.samples.extend(other.samples);
        self.commit_replays.extend(other.commit_replays);
        self.stale += other.stale;
        self.useful_plans += other.useful_plans;
        self.online_plans.extend(other.online_plans);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.spans.extend(other.spans);
    }
}

/// Everything a workload builds at set-up.
pub enum Base {
    /// `whatif_serve`: the service.
    Serve(Box<ServeState>),
    /// The other two: a cold-built session.
    Session(Box<PlanningSession>),
}

/// The workload's set-up: `ServeState::new`, or the first
/// `Precomputed` build of a session. Returns it with its seconds.
pub fn set_up(workload: Workload, fx: &Fixture) -> (Base, f64) {
    let (city, demand) = (fx.city.clone(), fx.demand.clone());
    let t = Instant::now();
    let base = match workload {
        Workload::WhatifServe => Base::Serve(Box::new(ServeState::new(city, demand, fx.params))),
        _ => {
            let mut session = PlanningSession::new(city, demand, fx.params);
            session.precomputed();
            Base::Session(Box::new(session))
        }
    };
    (base, t.elapsed().as_secs_f64())
}

/// Runs one measured phase of `workload` for `duration` from `base`.
pub fn run_phase(
    workload: Workload,
    fx: &Fixture,
    base: Base,
    seed: u64,
    duration: Duration,
    trace: bool,
) -> Phase {
    let epoch = Instant::now();
    match (workload, base) {
        (Workload::WhatifServe, Base::Serve(state)) => {
            whatif_serve(fx, *state, seed, epoch, duration, trace)
        }
        (Workload::OnlinePlans, Base::Session(session)) => {
            online_plans(fx, &session, seed, epoch, duration, trace)
        }
        (Workload::CommitChain, Base::Session(session)) => {
            let mut phase = Phase::default();
            let mut rec = Recorder::new(trace, epoch, 0);
            let deadline = epoch + duration;
            run_chains(fx, &session, seed, Some(deadline), true, &mut rec, &mut phase);
            phase.wall_s = epoch.elapsed().as_secs_f64();
            phase.spans.extend(rec.into_spans());
            verify_chains(fx, &mut phase);
            phase
        }
        _ => unreachable!("set_up builds the base each workload needs"),
    }
}

/// The serve loop runs in epochs, each from a fresh `ServeState`
/// (built between epochs, outside the measured time): at ~1% commits the
/// medium city would otherwise absorb a route every few hundred requests
/// and saturate within one run, so a faster program would serve a
/// different city. Every epoch replays generations 0, 1, 2, … of the same
/// service.
fn whatif_serve(
    fx: &Fixture,
    first: ServeState,
    seed: u64,
    epoch: Instant,
    duration: Duration,
    trace: bool,
) -> Phase {
    let gen0 = first.current();
    let slice = duration / fx.serve_epochs as u32;
    let mut phase = Phase::default();
    let mut applied_per_epoch = Vec::new();
    let mut state = Some(first);
    for e in 0..fx.serve_epochs {
        let state = state
            .take()
            .unwrap_or_else(|| ServeState::new(fx.city.clone(), fx.demand.clone(), fx.params));
        let started = Instant::now();
        let deadline = started + slice;
        let clients: Vec<Phase> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..fx.clients)
                .map(|c| {
                    let state = &state;
                    let client = (e * fx.clients + c) as u64;
                    scope.spawn(move || {
                        let rec = Recorder::new(trace, epoch, client + 1);
                        serve_client(client, fx, state, seed, deadline, rec, trace && e == 0)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("a serve client panicked")).collect()
        });
        phase.wall_s += started.elapsed().as_secs_f64();
        for client in clients {
            phase.merge(client);
        }
        applied_per_epoch.push(std::mem::take(&mut phase.applied));
    }
    verify_serve(fx, &applied_per_epoch, &mut phase);
    commit_tier_probe(fx, &gen0.session(), seed, epoch, trace, &mut phase);
    phase
}

fn serve_client(
    client: u64,
    fx: &Fixture,
    state: &ServeState,
    seed: u64,
    deadline: Instant,
    mut rec: Recorder,
    keep_replays: bool,
) -> Phase {
    let mut draws = Draws::new(seed, 100 + client);
    let combos: Vec<(PlannerMode, Knobs)> = [PlannerMode::EtaPre, PlannerMode::VkTsp]
        .into_iter()
        .flat_map(|m| fx.read_grid.iter().map(move |&k| (m, k)))
        .collect();
    let combos = draws.shuffled(&combos);
    let commit_slot = draws.below(fx.commit_every);
    let mut phase = Phase::default();
    let mut i = 0usize;
    while Instant::now() < deadline {
        let req = (client << 32) | i as u64;
        if i % fx.commit_every == commit_slot {
            commit_request(fx, state, req, &mut rec, &mut phase, keep_replays);
        } else {
            let (mode, knobs) = combos[i % combos.len()];
            let p = with_knobs(&fx.params, knobs);
            let t0 = Instant::now();
            let (snap, res) = rec.span("request", None, req, |rec, id| {
                let snap = rec.span("serve.checkout", id, req, |_, _| state.current());
                let res = plan_request(rec, id, req, snap.city(), snap.precomputed(), p, mode, 1);
                (snap, res)
            });
            phase.record_plan(snap.city(), &p, &res, ms_since(t0));
            phase.useful_plans += 1;
            if i.is_multiple_of(SAMPLE_EVERY) && phase.samples.len() < MAX_SAMPLES {
                phase.samples.push(Sample { snap, params: p, mode, plan: res.best });
            }
        }
        i += 1;
    }
    phase.spans = rec.into_spans();
    phase
}

/// Plan with the service's parameters and commit; re-plan on a fresh
/// checkout while the ticket is stale.
fn commit_request(
    fx: &Fixture,
    state: &ServeState,
    req: u64,
    rec: &mut Recorder,
    phase: &mut Phase,
    keep_replays: bool,
) {
    for _ in 0..MAX_COMMIT_ATTEMPTS {
        let t0 = Instant::now();
        let (snap, res, plan_ms, committed) = rec.span("request", None, req, |rec, id| {
            let snap = rec.span("serve.checkout", id, req, |_, _| state.current());
            let res =
                rec.span("eta.plan", id, req, |_, _| snap.session().plan(PlannerMode::EtaPre));
            let plan_ms = ms_since(t0);
            if checks::infeasibility(snap.city(), &fx.params, &res.best).is_some() {
                return (snap, res, plan_ms, None);
            }
            let tc = Instant::now();
            let ticket = CommitTicket::new(&snap, res.best.clone());
            let outcome = rec.span("serve.commit", id, req, |_, _| state.commit(ticket));
            (snap, res, plan_ms, Some((outcome, ms_since(tc))))
        });
        phase.record_plan(snap.city(), &fx.params, &res, plan_ms);
        let Some((outcome, commit_ms)) = committed else { return };
        phase.attempted += 1;
        match outcome {
            CommitOutcome::Applied { generation, .. } => {
                phase.serve_commit_ms.push(commit_ms);
                phase.useful_plans += 1;
                phase.applied.push((generation, res.best.clone()));
                if keep_replays && phase.commit_replays.len() < MAX_COMMIT_REPLAYS {
                    phase.commit_replays.push((snap, res.best, commit_ms));
                }
                return;
            }
            CommitOutcome::Stale { .. } => phase.stale += 1,
            CommitOutcome::Failed { .. } | CommitOutcome::Overloaded { .. } => phase.failed += 1,
            CommitOutcome::Invalid { reason } => {
                phase.failed += 1;
                phase.errors.push(format!("invalid ticket: {reason}"));
                return;
            }
            CommitOutcome::Empty => return,
        }
    }
    phase.failed += 1;
}

/// Each epoch's applied commits replay `plan_multiple_reference` round for
/// round, and each sampled read equals a sequential re-plan of the same
/// request.
fn verify_serve(fx: &Fixture, applied_per_epoch: &[Vec<(u64, RoutePlan)>], phase: &mut Phase) {
    let rounds = applied_per_epoch.iter().map(Vec::len).max().unwrap_or(0);
    let reference =
        plan_multiple_reference(&fx.city, &fx.demand, fx.params, rounds, PlannerMode::EtaPre);
    for (e, applied) in applied_per_epoch.iter().enumerate() {
        let mut applied = applied.clone();
        applied.sort_by_key(|(g, _)| *g);
        if applied.iter().enumerate().any(|(i, (g, _))| *g != i as u64 + 1) {
            phase.errors.push(format!("epoch {e}: commit generations have gaps"));
        }
        if reference.len() < applied.len() {
            phase.errors.push(format!(
                "epoch {e}: oracle stopped after {} of {} rounds",
                reference.len(),
                applied.len()
            ));
        }
        for (i, ((_, plan), want)) in applied.iter().zip(&reference).enumerate() {
            if plan != want {
                phase.errors.push(format!(
                    "epoch {e}: applied commit {i} differs from plan_multiple_reference"
                ));
            }
        }
    }
    for s in &phase.samples {
        let pre = s.snap.precomputed().reparameterize(&s.params);
        let again = Planner::with_precomputed(s.snap.city(), s.params, pre).run_sequential(s.mode);
        if again.best != s.plan {
            phase.errors.push(format!(
                "read at generation {} ({:?}, k={}) differs from its sequential re-plan",
                s.snap.generation(),
                s.mode,
                s.params.k
            ));
        }
    }
}

fn online_plans(
    fx: &Fixture,
    session: &PlanningSession,
    seed: u64,
    epoch: Instant,
    duration: Duration,
    trace: bool,
) -> Phase {
    let mut base = session.branch();
    let pre = base.precomputed_handle();
    let combos = Draws::new(seed, 200).shuffled(&fx.design);
    let mut rec = Recorder::new(trace, epoch, 1);
    let mut phase = Phase::default();
    let mut first = None;
    let deadline = epoch + duration;
    let mut i = 0usize;
    // Whole passes over the design only, so every run plans the same mix.
    while !i.is_multiple_of(combos.len()) || i == 0 || Instant::now() < deadline {
        let p = with_knobs(&fx.params, combos[i % combos.len()]);
        let req = i as u64;
        let t0 = Instant::now();
        let res = rec.span("request", None, req, |rec, id| {
            plan_request(rec, id, req, &fx.city, &pre, p, PlannerMode::Eta, fx.threads)
        });
        phase.record_plan(&fx.city, &p, &res, ms_since(t0));
        phase.useful_plans += 1;
        if phase.online_plans.len() < SCORER_SAMPLES {
            phase.online_plans.push(res.best.clone());
        }
        first.get_or_insert((p, res.best));
        i += 1;
    }
    phase.wall_s = epoch.elapsed().as_secs_f64();
    phase.spans = rec.into_spans();
    if let Some((p, plan)) = first {
        let again = Planner::with_precomputed(&fx.city, p, pre.reparameterize(&p))
            .run_sequential(PlannerMode::Eta);
        if again.best != plan {
            phase.errors.push("online plan differs from Planner::run_sequential".into());
        }
    }
    commit_tier_probe(fx, session, seed, epoch, trace, &mut phase);
    phase
}

/// The plan workloads' fixed commit-chain probe on their own city.
fn commit_tier_probe(
    fx: &Fixture,
    base: &PlanningSession,
    seed: u64,
    epoch: Instant,
    trace: bool,
    phase: &mut Phase,
) {
    let mut rec = Recorder::new(trace, epoch, 99);
    run_chains(fx, base, seed, None, false, &mut rec, phase);
    phase.probe_spans = rec.into_spans();
    verify_chains(fx, phase);
}

/// Runs pairs of commit chains branched from `base`, one pair per design
/// entry in seeded order: each round plans (EtaPre, reparameterized to the
/// chain's knobs) and commits, under the Exact tier in some chains and the
/// approximate tier in the others ([`Fixture::replicas`]). Runs the design
/// once, and again while another pass is expected to end by `deadline` (if
/// any), so the number of passes does not flip with small speed changes.
/// With `measured`, the plans count toward the plan metrics.
fn run_chains(
    fx: &Fixture,
    base: &PlanningSession,
    seed: u64,
    deadline: Option<Instant>,
    measured: bool,
    rec: &mut Recorder,
    phase: &mut Phase,
) {
    let order = Draws::new(seed, 300).shuffled(&fx.design);
    let mut pair = 0usize;
    let mut pass_started = Instant::now();
    loop {
        if pair > 0 && pair.is_multiple_of(order.len()) {
            let pass = pass_started.elapsed();
            pass_started = Instant::now();
            if deadline.is_none_or(|d| pass_started + pass > d) {
                break;
            }
        }
        let knobs = vec![order[pair % order.len()]; fx.chain_rounds];
        let Knobs { k, w } = knobs[0];
        let mut exact_plans = Vec::new();
        let mut approx_plans = Vec::new();
        let (exact_chains, approx_chains) = fx.replicas;
        let policies = std::iter::repeat_n(RefreshPolicy::Exact, exact_chains)
            .chain(std::iter::repeat_n(RefreshPolicy::approximate(), approx_chains));
        for (chain, policy) in policies.enumerate() {
            let exact = chain < exact_chains;
            let req = (pair * (exact_chains + approx_chains) + chain) as u64;
            let mut s = rec.span("session.branch", None, req, |_, _| base.branch());
            s.set_refresh(policy);
            // Only the previous basis is kept between rounds: holding the
            // session's pre-computation itself would make every commit
            // take the copy-on-write clone.
            let mut prev_basis = None;
            let mut plans = Vec::new();
            for (round, &knob) in knobs.iter().enumerate() {
                let p = with_knobs(&fx.params, knob);
                let res = rec.span("chain.round", None, req, |rec, id| {
                    let pre = s.precomputed_handle();
                    if measured {
                        // What-if alternatives before committing: the other
                        // design entries planned on the same state. A 2-thread
                        // EtaPre plan takes milliseconds and its tail is
                        // jittery, so the tail needs these extra samples.
                        for &alt in fx.design.iter().filter(|&&d| d != knob) {
                            let q = with_knobs(&fx.params, alt);
                            let t = Instant::now();
                            let city = s.city();
                            let res = plan_request(
                                rec,
                                id,
                                req,
                                city,
                                &pre,
                                q,
                                PlannerMode::EtaPre,
                                fx.threads,
                            );
                            phase.record_plan(city, &q, &res, ms_since(t));
                        }
                    }
                    let t0 = Instant::now();
                    let res = plan_request(
                        rec,
                        id,
                        req,
                        s.city(),
                        &pre,
                        p,
                        PlannerMode::EtaPre,
                        fx.threads,
                    );
                    drop(pre);
                    let plan_ms = ms_since(t0);
                    let feasible = if measured {
                        phase.record_plan(s.city(), &p, &res, plan_ms);
                        checks::infeasibility(s.city(), &p, &res.best).is_none()
                    } else {
                        phase.check_plan(s.city(), &p, &res.best)
                    };
                    if !feasible {
                        return None;
                    }
                    let tc = Instant::now();
                    let summary = rec.span("session.commit", id, req, |_, _| s.commit(&res.best));
                    phase.attempted += 1;
                    Some((res.best, summary, ms_since(tc)))
                });
                let Some((plan, summary, commit_ms)) = res else { break };
                let last = pair == 0 && round + 1 == knobs.len();
                let chains = &mut phase.chains;
                if exact {
                    chains.exact_ms.push(commit_ms);
                    chains.exact_summaries.push(summary);
                    if last {
                        chains.exact_post = Some((s.precomputed_handle(), commit_ms));
                    }
                } else {
                    if round == 0 {
                        chains.approx_first_ms.push(commit_ms);
                    } else {
                        chains.approx_rest_ms.push(commit_ms);
                    }
                    if last && round > 0 && chain == exact_chains {
                        chains.warm_pair = prev_basis.take().map(|b| (b, s.precomputed_handle()));
                    } else {
                        prev_basis = s.precomputed_handle().spectrum_basis.clone();
                    }
                }
                plans.push(plan);
            }
            if chain == 0 {
                if pair == 0 {
                    phase.chains.exact_final = Some(s);
                }
                exact_plans = plans;
            } else if chain == exact_chains {
                approx_plans = plans;
            } else if &plans != if exact { &exact_plans } else { &approx_plans } {
                phase.errors.push(format!("replica {chain} of chain pair {pair} diverged"));
            }
        }
        phase.chains.exact_gain += checks::conn_gain(&exact_plans);
        phase.chains.approx_gain += checks::conn_gain(&approx_plans);
        for v in checks::drift_violations(&exact_plans, &approx_plans) {
            phase.errors.push(format!("approximate chain {pair} (k={k}, w={w}): {v}"));
        }
        pair += 1;
    }
}

/// The first exact chain's final pre-computation equals a cold build on
/// its evolved city.
fn verify_chains(fx: &Fixture, phase: &mut Phase) {
    let Some(mut session) = phase.chains.exact_final.take() else {
        phase.errors.push("no exact chain ran".into());
        return;
    };
    let cold = Precomputed::build_with(
        session.city(),
        session.demand(),
        &fx.params,
        DeltaMethod::default(),
    );
    if let Some(what) = checks::precomputed_mismatch(session.precomputed(), &cold) {
        phase.errors.push(format!("exact chain's {what} differs from a cold build"));
    }
}
