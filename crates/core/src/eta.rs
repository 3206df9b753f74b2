//! The Expansion-based Traversal Algorithm (paper Algorithm 1) and its
//! variants.
//!
//! Candidate paths live in a max-priority frontier keyed by their
//! objective upper bound `O↑`. The engine (see `expand.rs`) drains the
//! frontier in **epochs** of up to [`crate::Parallelism::batch`] entries:
//! each drained path is extended at both ends (best-neighbor by default,
//! all-neighbors in the ETA-AN ablation), verified for feasibility
//! (circle-free, turn budget, length ≤ k), and re-scored — in parallel,
//! since each expansion is a pure function of the path and the frozen
//! probes — then the results are merged back in drain order: incumbent
//! updates, the Algorithm 2 incremental bound gate, and the domination
//! check. With `batch = 1` this is exactly the paper's sequential
//! poll-one-expand-one loop; larger batches preserve best-first order up
//! to the batch boundary. Results are bit-identical under any thread
//! count (enforced by tests against [`Planner::run_sequential`]).
//!
//! Variants (paper §7):
//!
//! | mode               | conn scoring  | neighbors | domination | seeding |
//! |--------------------|---------------|-----------|------------|---------|
//! | `Eta`              | online SLQ    | best      | yes        | top-sn  |
//! | `EtaPre`           | linear Δ(e)   | best      | yes        | top-sn  |
//! | `EtaAll`           | linear Δ(e)   | best      | yes        | all     |
//! | `EtaAllNeighbors`  | linear Δ(e)   | all       | yes        | top-sn  |
//! | `EtaNoDomination`  | linear Δ(e)   | best      | no         | top-sn  |
//! | `VkTsp`            | (w = 1)       | best      | yes        | top-sn, new edges only |
//!
//! Deviations from the pseudo-code, documented here and in
//! `docs/ALGORITHMS.md`: deflections sharper than π/2 reject the extension
//! outright (the paper saturates the turn counter, which keeps the kinked
//! path as a result; rejecting is strictly cleaner for route quality), and
//! one-way loops are not closed (strict simple paths).

use std::fmt;
use std::time::Instant;

use ct_data::{City, DemandModel};
use serde::{Deserialize, Serialize};

use crate::expand::{
    plan_from, with_executor, ExpandCtx, Frontier, ModeConfig, ScoreMemo, WorkItem,
};
use crate::params::CtBusParams;
use crate::plan::RoutePlan;
use crate::precompute::Precomputed;
use crate::ranked::RankedList;

/// Which planner variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlannerMode {
    /// Online connectivity estimation (paper "ETA").
    Eta,
    /// Pre-computed linear connectivity (paper "ETA-Pre").
    EtaPre,
    /// ETA-Pre seeded with *all* candidates (paper "ETA-ALL").
    EtaAll,
    /// ETA-Pre expanding with all neighbors instead of best (paper "ETA-AN").
    EtaAllNeighbors,
    /// ETA-Pre without the domination table (paper "ETA-DT").
    EtaNoDomination,
    /// Demand-first baseline: `w = 1`, new edges only (paper "vk-TSP").
    VkTsp,
}

impl PlannerMode {
    /// Every variant, in the order the paper introduces them (used by the
    /// experiment harness and the exhaustiveness tests).
    pub const ALL: [PlannerMode; 6] = [
        PlannerMode::Eta,
        PlannerMode::EtaPre,
        PlannerMode::EtaAll,
        PlannerMode::EtaAllNeighbors,
        PlannerMode::EtaNoDomination,
        PlannerMode::VkTsp,
    ];

    pub(crate) fn config(self) -> ModeConfig {
        let base = ModeConfig {
            online_scoring: false,
            all_neighbors: false,
            domination: true,
            seed_all: false,
            new_edges_only: false,
            w_override: None,
        };
        match self {
            PlannerMode::Eta => ModeConfig { online_scoring: true, ..base },
            PlannerMode::EtaPre => base,
            PlannerMode::EtaAll => ModeConfig { seed_all: true, ..base },
            PlannerMode::EtaAllNeighbors => ModeConfig { all_neighbors: true, ..base },
            PlannerMode::EtaNoDomination => ModeConfig { domination: false, ..base },
            PlannerMode::VkTsp => {
                ModeConfig { new_edges_only: true, w_override: Some(1.0), ..base }
            }
        }
    }
}

/// Outcome of one planner run.
///
/// Everything except [`RunResult::runtime_secs`] is a deterministic
/// function of the city, the parameters, and the mode — wall-clock time is
/// the only field allowed to differ between a parallel and a sequential
/// run of the same plan.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The best route found (empty if no feasible route exists).
    pub best: RoutePlan,
    /// Convergence trace: `(iteration, best objective so far)`, recorded
    /// every `record_every` iterations (paper Figs. 9–12).
    pub trace: Vec<(u64, f64)>,
    /// Queue polls performed.
    pub iterations: u64,
    /// Wall-clock seconds.
    pub runtime_secs: f64,
    /// Candidate-path objective evaluations performed.
    pub evaluations: u64,
    /// Why the search stopped.
    pub stop: StopReason,
}

/// Why a planner run stopped, decided from the frontier once the epoch
/// loop ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The best bound left in the queue cannot beat the incumbent: the
    /// search is finished.
    Bound,
    /// The queue ran empty: the search is finished.
    Exhausted,
    /// `it_max` polls were made while a path in the queue could still beat
    /// the incumbent: the search was cut short.
    IterationCap,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StopReason::Bound => "bound",
            StopReason::Exhausted => "exhausted queue",
            StopReason::IterationCap => "iteration cap",
        })
    }
}

/// The CT-Bus planner: pre-computation plus Algorithm 1 in all variants.
///
/// The planner owns its pre-computation, and everything it reads about
/// the city is in there: the candidates, their demand and Δ(e), and the
/// turn class of every junction two candidates form.
///
/// ```
/// use ct_data::{CityConfig, DemandModel};
/// use ct_core::{CtBusParams, Planner, PlannerMode};
///
/// let city = CityConfig::small().seed(7).generate();
/// let demand = DemandModel::from_city(&city);
/// let planner = Planner::new(&city, &demand, CtBusParams::small_defaults());
/// let result = planner.run(PlannerMode::EtaPre);
/// assert!(!result.best.is_empty());
/// assert!(result.best.num_edges() <= planner.params().k);
/// // Thread count never changes the answer (see docs/ALGORITHMS.md):
/// let reference = planner.run_sequential(PlannerMode::EtaPre);
/// assert_eq!(result.best, reference.best);
/// ```
pub struct Planner {
    params: CtBusParams,
    pre: Precomputed,
}

impl Planner {
    /// Builds a planner, running the full pre-computation stage.
    pub fn new(city: &City, demand: &DemandModel, params: CtBusParams) -> Self {
        assert!(params.validate().is_empty(), "invalid params: {:?}", params.validate());
        let pre = Precomputed::build(city, demand, &params);
        Planner { params, pre }
    }

    /// Builds a planner around an existing pre-computation of `city`.
    ///
    /// # Panics
    /// Panics if `pre` was built over a different number of stops than
    /// `city` has (it then cannot be this city's).
    pub fn with_precomputed(city: &City, params: CtBusParams, pre: Precomputed) -> Self {
        assert_eq!(
            pre.candidates.num_stops(),
            city.transit.num_stops(),
            "the pre-computation was built for a city with a different number of stops"
        );
        Planner { params, pre }
    }

    /// The pre-computation artifacts.
    pub fn precomputed(&self) -> &Precomputed {
        &self.pre
    }

    /// The parameters in force.
    pub fn params(&self) -> &CtBusParams {
        &self.params
    }

    /// Runs Algorithm 1 in the requested variant, fanning the frontier
    /// expansion out over [`crate::Parallelism::worker_threads`] workers.
    pub fn run(&self, mode: PlannerMode) -> RunResult {
        self.run_with_threads(mode, self.params.parallelism.worker_threads())
    }

    /// The retained single-threaded reference: the same epoch-batched
    /// algorithm as [`Planner::run`], executed inline. Parallel runs are
    /// bit-identical to this under any thread count (everything in
    /// [`RunResult`] except `runtime_secs`); tests and proptests enforce
    /// the equality.
    pub fn run_sequential(&self, mode: PlannerMode) -> RunResult {
        self.run_with_threads(mode, 1)
    }

    /// [`Planner::run`] with an explicit worker count (exposed for the
    /// thread-invariance tests and benches).
    pub fn run_with_threads(&self, mode: PlannerMode, threads: usize) -> RunResult {
        execute_plan(&self.params, &self.pre, mode, threads)
    }
}

/// Runs Algorithm 1 against a *borrowed* pre-computation — the engine
/// behind both [`Planner`] (which owns its `Precomputed`) and
/// [`crate::PlanningSession`] (which keeps one alive across commits).
/// A mode that scores online gets one [`ScoreMemo`] for the run; linear
/// modes build none.
pub(crate) fn execute_plan(
    params: &CtBusParams,
    pre: &Precomputed,
    mode: PlannerMode,
    threads: usize,
) -> RunResult {
    let memo = mode.config().online_scoring.then(ScoreMemo::default);
    execute_plan_with(params, pre, mode, threads, memo.as_ref())
}

/// [`execute_plan`] with the online-increment memo chosen by the caller
/// (`None` solves every evaluation).
pub(crate) fn execute_plan_with(
    params: &CtBusParams,
    pre: &Precomputed,
    mode: PlannerMode,
    threads: usize,
    memo: Option<&ScoreMemo>,
) -> RunResult {
    // ctlint::allow(wall-clock): runtime_secs is reporting-only output, excluded from the bit-identity contract
    let t0 = Instant::now();
    let cfg = mode.config();
    let w = cfg.w_override.unwrap_or(params.w);
    let cands = &pre.candidates;
    let batch = params.parallelism.batch.max(1);

    // Per-run ranked list: L_d for online bounds, L_e(w) for linear.
    let le_values: Vec<f64> = if cfg.online_scoring { Vec::new() } else { pre.le_values(w) };
    let le_list = (!cfg.online_scoring).then(|| RankedList::new(&le_values));
    let bound_list: &RankedList = le_list.as_ref().unwrap_or(&pre.ld);

    // Candidate admissibility under the mode.
    let admissible = |id: u32| -> bool { !cfg.new_edges_only || !cands.edge(id).existing };

    // ---- Initialization (Algorithm 1 lines 19–27). ----
    let seed_ids: Vec<u32> = if cfg.seed_all {
        (0..cands.len() as u32).filter(|&id| admissible(id)).collect()
    } else {
        bound_list.iter_desc().filter(|&id| admissible(id)).take(params.sn).collect()
    };

    let mk_ctx = || ExpandCtx::new(pre, params, cfg, w, &le_values, bound_list, memo);
    let frontier = with_executor(threads, &mk_ctx, |executor| {
        let mut frontier = Frontier::new(&cfg, params);

        // Seed evaluation fans out like expansion; merge in seed order.
        let seed_items: Vec<WorkItem> = seed_ids.iter().map(|&id| WorkItem::Seed(id)).collect();
        for out in executor.map(seed_items) {
            frontier.evaluations += out.evals;
            for path in out.paths {
                frontier.push_seed(path);
            }
        }
        frontier.finish_seeding();

        // ---- Main epoch loop (lines 3–16, batch-synchronous). ----
        loop {
            let items = frontier.drain_epoch(batch);
            if items.is_empty() {
                break;
            }
            for out in executor.map(items) {
                frontier.evaluations += out.evals;
                for path in out.paths {
                    frontier.absorb(path);
                }
            }
        }
        frontier.finish();
        frontier
    });

    // Report the objective under the *configured* weight, even when the
    // search used an override (vk-TSP searches with w = 1 but Table 6
    // compares all methods under the shared objective).
    let best_plan = match &frontier.best {
        Some(cp) => plan_from(pre, cp, params.w),
        None => RoutePlan::empty(),
    };

    RunResult {
        best: best_plan,
        stop: frontier.stop_reason(),
        trace: frontier.trace,
        iterations: frontier.it,
        runtime_secs: t0.elapsed().as_secs_f64(),
        evaluations: frontier.evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_data::CityConfig;

    fn planner_fixture() -> (City, DemandModel, CtBusParams) {
        let city = CityConfig::small().seed(21).generate();
        let demand = DemandModel::from_city(&city);
        let params = CtBusParams::small_defaults();
        (city, demand, params)
    }

    fn check_plan_feasible(city: &City, params: &CtBusParams, plan: &RoutePlan) {
        assert!(!plan.is_empty(), "no route found");
        assert!(plan.num_edges() <= params.k, "too many edges");
        assert_eq!(plan.stops.len(), plan.num_edges() + 1);
        assert!(plan.turns <= params.tn_max);
        // Circle-free: no repeated stops.
        let mut sorted = plan.stops.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), plan.stops.len(), "repeated stop");
        // New pairs must be absent from the base network.
        for &(u, v) in &plan.new_stop_pairs {
            assert!(city.transit.edge_between(u, v).is_none());
        }
    }

    #[test]
    fn eta_pre_finds_feasible_route() {
        let (city, demand, params) = planner_fixture();
        let planner = Planner::new(&city, &demand, params);
        let res = planner.run(PlannerMode::EtaPre);
        check_plan_feasible(&city, &params, &res.best);
        assert!(res.best.objective > 0.0);
        assert!(res.best.conn_increment > 0.0, "route should add connectivity");
        assert!(res.iterations > 0);
    }

    #[test]
    fn eta_online_finds_feasible_route() {
        let (city, demand, mut params) = planner_fixture();
        params.sn = 40; // online scoring is expensive; keep the test fast
        params.it_max = 150;
        let planner = Planner::new(&city, &demand, params);
        let res = planner.run(PlannerMode::Eta);
        check_plan_feasible(&city, &params, &res.best);
    }

    #[test]
    fn eta_pre_objective_comparable_to_online() {
        // Paper Table 6 / Fig. 9: ETA-Pre reaches objective values similar
        // to online ETA.
        let (city, demand, mut params) = planner_fixture();
        params.sn = 40;
        params.it_max = 150;
        let planner = Planner::new(&city, &demand, params);
        let pre = planner.run(PlannerMode::EtaPre);
        let online = planner.run(PlannerMode::Eta);
        assert!(
            pre.best.objective >= 0.5 * online.best.objective,
            "pre {} vs online {}",
            pre.best.objective,
            online.best.objective
        );
    }

    #[test]
    fn vk_tsp_uses_only_new_edges() {
        let (city, demand, params) = planner_fixture();
        let planner = Planner::new(&city, &demand, params);
        let res = planner.run(PlannerMode::VkTsp);
        check_plan_feasible(&city, &params, &res.best);
        assert_eq!(
            res.best.num_new_edges(),
            res.best.num_edges(),
            "vk-TSP must only add new edges"
        );
    }

    #[test]
    fn vk_tsp_has_lower_connectivity_than_eta_pre() {
        // The paper's headline effectiveness claim (Table 6): demand-only
        // planning yields smaller connectivity increments.
        let (city, demand, params) = planner_fixture();
        let planner = Planner::new(&city, &demand, params);
        let pre = planner.run(PlannerMode::EtaPre);
        let vk = planner.run(PlannerMode::VkTsp);
        assert!(
            pre.best.conn_increment >= vk.best.conn_increment * 0.8,
            "ETA-Pre conn {} unexpectedly below vk-TSP {}",
            pre.best.conn_increment,
            vk.best.conn_increment
        );
    }

    #[test]
    fn trace_is_monotone_nondecreasing() {
        let (city, demand, params) = planner_fixture();
        let planner = Planner::new(&city, &demand, params);
        let res = planner.run(PlannerMode::EtaPre);
        for w in res.trace.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12, "objective regressed in trace");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let (city, demand, params) = planner_fixture();
        let planner = Planner::new(&city, &demand, params);
        let a = planner.run(PlannerMode::EtaPre);
        let b = planner.run(PlannerMode::EtaPre);
        assert_eq!(a.best, b.best);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.stop, b.stop);
    }

    #[test]
    fn batch_one_matches_paper_sequential_semantics() {
        // batch = 1 is the paper's poll-one-expand-one loop; it must agree
        // with itself across thread counts too (threads never matter).
        let (city, demand, mut params) = planner_fixture();
        params.parallelism.batch = 1;
        let planner = Planner::new(&city, &demand, params);
        let seq = planner.run_sequential(PlannerMode::EtaPre);
        let par = planner.run_with_threads(PlannerMode::EtaPre, 3);
        assert_eq!(seq.best, par.best);
        assert_eq!(seq.trace, par.trace);
        assert_eq!(seq.iterations, par.iterations);
        assert_eq!(seq.evaluations, par.evaluations);
        assert_eq!(seq.stop, par.stop);
    }

    #[test]
    fn ablations_complete_and_stay_feasible() {
        let (city, demand, mut params) = planner_fixture();
        params.it_max = 1_000;
        let planner = Planner::new(&city, &demand, params);
        for mode in
            [PlannerMode::EtaAll, PlannerMode::EtaAllNeighbors, PlannerMode::EtaNoDomination]
        {
            let res = planner.run(mode);
            check_plan_feasible(&city, &params, &res.best);
        }
    }

    #[test]
    fn larger_k_does_not_reduce_raw_demand() {
        let (city, demand, mut params) = planner_fixture();
        params.k = 4;
        let p4 = Planner::new(&city, &demand, params).run(PlannerMode::EtaPre);
        params.k = 10;
        let p10 = Planner::new(&city, &demand, params).run(PlannerMode::EtaPre);
        assert!(
            p10.best.demand >= p4.best.demand * 0.9,
            "k=10 demand {} << k=4 demand {}",
            p10.best.demand,
            p4.best.demand
        );
    }

    /// Every `RunResult` field except `runtime_secs` agrees.
    fn assert_same_run(a: &RunResult, b: &RunResult, what: &str) {
        assert_eq!(a.best, b.best, "{what}: best");
        assert_eq!(a.trace, b.trace, "{what}: trace");
        assert_eq!(a.iterations, b.iterations, "{what}: iterations");
        assert_eq!(a.evaluations, b.evaluations, "{what}: evaluations");
        assert_eq!(a.stop, b.stop, "{what}: stop");
    }

    /// Runs Eta with the memo off and on at threads {1, 2, 4}, asserting
    /// identical results; returns the memo's final entry count and the
    /// run's evaluation count.
    fn memo_on_off(city: &City, params: CtBusParams) -> (usize, u64) {
        let demand = DemandModel::from_city(city);
        let pre = Precomputed::build(city, &demand, &params);
        let mut sizes = Vec::new();
        let mut evaluations = 0;
        let mut single: Option<RunResult> = None;
        for threads in [1, 2, 4] {
            let off = execute_plan_with(&params, &pre, PlannerMode::Eta, threads, None);
            let memo = ScoreMemo::default();
            let on = execute_plan_with(&params, &pre, PlannerMode::Eta, threads, Some(&memo));
            assert_same_run(&off, &on, &format!("threads={threads}"));
            let single = single.get_or_insert_with(|| on.clone());
            assert_same_run(single, &on, &format!("threads=1 vs threads={threads}"));
            sizes.push(memo.into_inner().expect("memo lock not poisoned").len());
            evaluations = on.evaluations;
        }
        // Workers that race on one key both insert the same value.
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "memo sizes {sizes:?}");
        (sizes[0], evaluations)
    }

    #[test]
    fn memo_never_changes_an_eta_plan_on_small() {
        let (city, _, mut params) = planner_fixture();
        params.sn = 40;
        params.it_max = 150;
        memo_on_off(&city, params);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "~7,600 SLQ solves per run; run with --release")]
    fn memo_never_changes_an_eta_plan_on_medium() {
        let city = CityConfig::medium().generate();
        let mut params = CtBusParams::small_defaults();
        params.k = 10;
        params.sn = 300;
        params.it_max = 600;
        let (entries, evaluations) = memo_on_off(&city, params);
        assert!(
            entries as f64 <= 0.75 * evaluations as f64,
            "{entries} memo entries for {evaluations} evaluations"
        );
    }

    /// The perfbench planner settings on medium: `small_defaults` with
    /// k = 10, sn = 300 and w = 0.5.
    fn medium_params(it_max: u64) -> CtBusParams {
        let mut params = CtBusParams::small_defaults();
        params.k = 10;
        params.sn = 300;
        params.w = 0.5;
        params.it_max = it_max;
        params
    }

    #[test]
    fn eta_pre_on_medium_finishes_by_its_bound() {
        // With room to finish, EtaPre's increment bound ends the search
        // (771 iterations when this was written), well before the cap.
        let city = CityConfig::medium().generate();
        let demand = DemandModel::from_city(&city);
        let params = medium_params(4_000);
        let res = Planner::new(&city, &demand, params).run(PlannerMode::EtaPre);
        assert_eq!(res.stop, StopReason::Bound, "after {} iterations", res.iterations);
        assert!(res.iterations < params.it_max, "{} iterations", res.iterations);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "~7,600 SLQ solves per run; run with --release")]
    fn online_eta_on_medium_stops_at_the_iteration_cap() {
        // Online Eta's connectivity bound never prunes at these settings,
        // so the cap ends every benchmark plan.
        let city = CityConfig::medium().generate();
        let demand = DemandModel::from_city(&city);
        let params = medium_params(600);
        let res = Planner::new(&city, &demand, params).run(PlannerMode::Eta);
        assert_eq!(res.stop, StopReason::IterationCap);
        assert_eq!(res.iterations, 600);
    }

    #[test]
    fn w_zero_and_one_extremes() {
        let (city, demand, mut params) = planner_fixture();
        params.w = 0.0;
        let conn_first = Planner::new(&city, &demand, params).run(PlannerMode::EtaPre);
        params.w = 1.0;
        let demand_first = Planner::new(&city, &demand, params).run(PlannerMode::EtaPre);
        check_plan_feasible(&city, &params, &conn_first.best);
        check_plan_feasible(&city, &params, &demand_first.best);
        assert!(
            demand_first.best.demand >= conn_first.best.demand,
            "w=1 should meet at least as much demand as w=0"
        );
    }
}
