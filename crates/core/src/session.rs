//! Long-lived planning sessions: copy-on-write city state plus
//! commit-aware pre-computation.
//!
//! The paper's multi-route planning (§6.3) and site selection (§8) are
//! *iterated* applications of Algorithm 1, and a serving deployment asks
//! the same questions over and over against an evolving network. Treating
//! every round as a cold start — re-enumerating candidates (one road
//! Dijkstra tree per stop), re-estimating every Δ(e), re-ranking — is the
//! exact rebuild a long-lived engine cannot afford.
//!
//! A [`PlanningSession`] owns the evolving scenario state (city, demand,
//! candidates, [`Precomputed`]) and exposes three operations:
//!
//! * [`PlanningSession::plan`] — run any [`PlannerMode`] against the
//!   current state (same engine as [`crate::Planner`]);
//! * [`PlanningSession::commit`] — absorb a planned route: the transit
//!   network grows (roads and trajectories stay `Arc`-shared, never
//!   copied), served demand is zeroed, the winning route's edges are
//!   materialized into the base adjacency **in place**
//!   ([`ct_linalg::CsrMatrix::absorb_unit_edges`]), the candidate pool is
//!   promoted/refreshed in place, and the Δ(e) sweep re-runs on the
//!   absorbed matrix through the session's persistent Lanczos workspace
//!   pool, with the spectrum head as one more job on its workers —
//!   skipping candidate re-enumeration and all road Dijkstras;
//! * [`PlanningSession::branch`] — fork a what-if twin sharing the
//!   heavyweight immutable layers.
//!
//! **Snapshot model.** A session's entire state — city, demand,
//! pre-computation — lives behind [`Arc`]s, so a session is a set of
//! *handles* onto immutable snapshots. [`PlanningSession::branch`] is an
//! O(1) handle clone; nothing numerical or structural is copied until one
//! of the twins commits. [`PlanningSession::commit`] is copy-on-write: a
//! uniquely-owned snapshot is mutated in place (the PR 5 allocation-free
//! refresh), a shared one — e.g. while the serving layer
//! ([`crate::serve::ServeState`]) has it published, or a live branch still
//! reads it — is cloned exactly once first, so concurrent readers keep
//! planning against their old snapshot untouched. `PlanningSession` is
//! `Send` (pinned by a compile-time test): sessions migrate freely across
//! worker threads, and any number of them may share one base snapshot.
//!
//! **Equivalence contract.** After any sequence of commits, every artifact
//! a planner consumes is bit-identical to a from-scratch
//! [`Precomputed::build_with`] on the evolved city and demand: candidate
//! ids and values, Δ(e), ranked lists, normalizers, spectrum head, bounds.
//! Hence `plan → commit → plan → …` reproduces the retained
//! rebuild-per-round reference [`crate::multi::plan_multiple_reference`]
//! bit for bit (enforced by tests and proptests; see
//! `docs/ALGORITHMS.md`). What the session *saves* is exactly the
//! re-derivable work: candidate generation's shortest paths and all
//! steady-state allocations of the sweep.

use std::sync::Arc;
use std::time::Instant;

use ct_data::{City, DemandModel};
use ct_linalg::LanczosWorkspace;

use crate::eta::execute_plan;
use crate::fault::{self, FaultInjector};
use crate::metrics::apply_plan;
use crate::params::CtBusParams;
use crate::plan::RoutePlan;
use crate::precompute::{
    new_candidate_ids, spectrum_head, sweep_deltas, DeltaMethod, PrecomputeTimings, Precomputed,
};
use crate::sites::{select_sites, SiteParams, SiteSelection};
use crate::{PlannerMode, RunResult};

/// How [`PlanningSession::commit`] refreshes the pre-computation.
///
/// `Exact` (the default) keeps the bit-identity equivalence contract: the
/// refreshed artifacts equal a from-scratch [`Precomputed::build_with`] on
/// the evolved state, bit for bit. `Approximate` trades that contract for
/// commit latency — see the variant docs. The drift the trade introduces
/// is quantified against the exact oracle by the refresh-drift harness
/// (`ct_bench`'s `drift` bin and `crates/core/tests/refresh_drift.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshPolicy {
    /// Full re-sweep: every non-existing candidate's Δ(e) is re-estimated
    /// and the spectrum head is rebuilt from fresh random probes.
    /// Bit-identical to the rebuild-per-round reference.
    #[default]
    Exact,
    /// Incremental re-sweep: only candidates whose road corridors overlap
    /// the committed route, plus candidates incident to its stops (the
    /// second-order connectivity shift around the new hubs), are
    /// re-scored; everything else carries its previous Δ(e) forward. The
    /// spectrum head is re-converged from the previous state's Ritz
    /// vectors (every build and commit keeps them) instead of fresh
    /// probes.
    Approximate,
}

impl RefreshPolicy {
    /// The approximate tier, [`RefreshPolicy::Approximate`].
    pub fn approximate() -> RefreshPolicy {
        RefreshPolicy::Approximate
    }

    /// Whether this is the exact (bit-identical) tier.
    pub fn is_exact(&self) -> bool {
        matches!(self, RefreshPolicy::Exact)
    }
}

/// What one [`PlanningSession::commit`] did (bookkeeping + profiling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommitSummary {
    /// New transit edges materialized (the route's promoted stop pairs).
    pub new_edges: usize,
    /// Road edges whose demand was zeroed (the route's covered corridor).
    pub covered_road_edges: usize,
    /// Candidates whose demand was re-derived (their road path touched the
    /// covered corridor).
    pub refreshed_candidates: usize,
    /// Candidates whose Δ(e) was re-estimated: all non-existing candidates
    /// under [`RefreshPolicy::Exact`], only the touched subset under
    /// [`RefreshPolicy::Approximate`].
    pub swept_candidates: usize,
    /// Wall-clock seconds of the incremental refresh's numerics: the base
    /// trace, the Δ-sweep and the spectrum head that runs beside it — the
    /// per-round cost a cold rebuild would dwarf with its
    /// candidate-generation shortest paths on top. Promotion, demand
    /// refresh, absorb and ranking stay outside.
    pub refresh_secs: f64,
}

/// A long-lived scenario engine over one evolving city (see the module
/// docs for the commit/equivalence contract).
///
/// ```
/// use ct_core::{CtBusParams, PlannerMode, PlanningSession};
/// use ct_data::{CityConfig, DemandModel};
///
/// let city = CityConfig::small().seed(9).generate();
/// let demand = DemandModel::from_city(&city);
/// let mut session = PlanningSession::new(city, demand, CtBusParams::small_defaults());
///
/// let first = session.plan(PlannerMode::EtaPre);
/// let summary = session.commit(&first.best);
/// assert_eq!(summary.new_edges, first.best.num_new_edges());
///
/// // What-if fork: explore an alternative without disturbing the main line.
/// let mut branch = session.branch();
/// let alt = branch.plan(PlannerMode::VkTsp);
/// branch.commit(&alt.best);
/// assert_eq!(branch.commits(), 2);
/// assert_eq!(session.commits(), 1); // the main line never saw the branch
/// ```
pub struct PlanningSession {
    city: Arc<City>,
    demand: Arc<DemandModel>,
    params: CtBusParams,
    /// Built lazily on first use so demand-only work (e.g. site selection)
    /// never pays for a Δ-sweep. Shared with branches and published serve
    /// snapshots; commits take the copy-on-write path when shared.
    pre: Option<Arc<Precomputed>>,
    /// Persistent Lanczos workspace pool for commit-time Δ re-sweeps
    /// (per-session scratch — never shared, so sessions stay `Send`).
    workspaces: Vec<LanczosWorkspace>,
    commits: usize,
    /// How commits refresh the pre-computation (default
    /// [`RefreshPolicy::Exact`]).
    refresh: RefreshPolicy,
    /// Scheduled faults for the commit path ([`crate::fault::site::SESSION_REFRESH`]);
    /// installed only by the serving layer's chaos harness, `None` (one
    /// branch per commit) everywhere else.
    faults: Option<Arc<FaultInjector>>,
}

impl PlanningSession {
    /// Opens a session over an owned city and demand model.
    ///
    /// Cheap: the pre-computation is built lazily by the first
    /// [`PlanningSession::plan`] / [`PlanningSession::commit`] /
    /// [`PlanningSession::precomputed`] call.
    ///
    /// # Panics
    /// Panics if `params` fail [`CtBusParams::validate`].
    pub fn new(city: City, demand: DemandModel, params: CtBusParams) -> PlanningSession {
        Self::from_shared(Arc::new(city), Arc::new(demand), params)
    }

    /// Opens a session over *shared* snapshot handles — the entry point the
    /// serving layer uses to stamp out one session per request without
    /// copying anything. Equivalent to [`PlanningSession::new`] in every
    /// other respect.
    ///
    /// # Panics
    /// Panics if `params` fail [`CtBusParams::validate`].
    pub fn from_shared(
        city: Arc<City>,
        demand: Arc<DemandModel>,
        params: CtBusParams,
    ) -> PlanningSession {
        assert!(params.validate().is_empty(), "invalid params: {:?}", params.validate());
        PlanningSession {
            city,
            demand,
            params,
            pre: None,
            workspaces: Vec::new(),
            commits: 0,
            refresh: RefreshPolicy::Exact,
            faults: None,
        }
    }

    /// Rebuilds a session from the raw snapshot handles a serving layer
    /// publishes (see [`crate::serve::Snapshot::session`]).
    pub(crate) fn from_snapshot_parts(
        city: Arc<City>,
        demand: Arc<DemandModel>,
        pre: Arc<Precomputed>,
        params: CtBusParams,
        commits: usize,
    ) -> PlanningSession {
        PlanningSession {
            city,
            demand,
            params,
            pre: Some(pre),
            workspaces: Vec::new(),
            commits,
            refresh: RefreshPolicy::Exact,
            faults: None,
        }
    }

    /// Installs (or clears) the serving layer's fault schedule on this
    /// session's commit path.
    pub(crate) fn install_faults(&mut self, faults: Option<Arc<FaultInjector>>) {
        self.faults = faults;
    }

    /// Overrides the refresh policy (builder style; default
    /// [`RefreshPolicy::Exact`]).
    pub fn with_refresh(mut self, refresh: RefreshPolicy) -> PlanningSession {
        self.refresh = refresh;
        self
    }

    /// Switches the refresh policy in place (the serving layer sets this
    /// on sessions it stamps out from published snapshots).
    pub fn set_refresh(&mut self, refresh: RefreshPolicy) {
        self.refresh = refresh;
    }

    /// The current (evolved) city. Its road network and trajectories are
    /// the same `Arc`s the session was opened with — commits never copy
    /// them (pointer-identity is part of the test suite).
    pub fn city(&self) -> &City {
        &self.city
    }

    /// The current demand model (served corridors zeroed by commits).
    pub fn demand(&self) -> &DemandModel {
        &self.demand
    }

    /// The shared handle onto the current city snapshot (what a serving
    /// layer publishes; cloning it is O(1)).
    pub fn city_handle(&self) -> &Arc<City> {
        &self.city
    }

    /// The shared handle onto the current demand snapshot.
    pub fn demand_handle(&self) -> &Arc<DemandModel> {
        &self.demand
    }

    /// The shared handle onto the current pre-computation, building it on
    /// first call (see [`PlanningSession::precomputed`]).
    pub fn precomputed_handle(&mut self) -> Arc<Precomputed> {
        self.ensure_precomputed();
        Arc::clone(self.pre.as_ref().expect("ensured above"))
    }

    /// The parameters in force.
    pub fn params(&self) -> &CtBusParams {
        &self.params
    }

    /// Number of routes committed so far.
    pub fn commits(&self) -> usize {
        self.commits
    }

    /// The pre-computation for the current state, building it on first
    /// call.
    pub fn precomputed(&mut self) -> &Precomputed {
        self.ensure_precomputed();
        self.pre.as_ref().expect("ensured above")
    }

    fn ensure_precomputed(&mut self) {
        if self.pre.is_none() {
            self.pre = Some(Arc::new(Precomputed::build(&self.city, &self.demand, &self.params)));
        }
    }

    /// Runs Algorithm 1 against the current state (same engine and
    /// determinism contract as [`crate::Planner::run`]).
    pub fn plan(&mut self, mode: PlannerMode) -> RunResult {
        self.plan_with_threads(mode, self.params.parallelism.worker_threads())
    }

    /// [`PlanningSession::plan`] with an explicit worker count (exposed
    /// for the thread-invariance tests and benches).
    pub fn plan_with_threads(&mut self, mode: PlannerMode, threads: usize) -> RunResult {
        self.ensure_precomputed();
        let pre = self.pre.as_ref().expect("ensured above");
        execute_plan(&self.params, pre, mode, threads)
    }

    /// Commits a planned route: the scenario state absorbs it and the
    /// pre-computation is refreshed incrementally (see the module docs).
    /// The plan must come from this session's current state (its candidate
    /// ids index the session's pool). Empty plans are a no-op.
    ///
    /// Copy-on-write: when this session is the sole owner of its snapshot
    /// (no live branch, nothing published), the refresh mutates in place —
    /// zero structural copies. When the snapshot is shared, the commit
    /// clones it exactly once and leaves every other holder's view intact.
    pub fn commit(&mut self, plan: &RoutePlan) -> CommitSummary {
        if plan.is_empty() {
            return CommitSummary {
                new_edges: 0,
                covered_road_edges: 0,
                refreshed_candidates: 0,
                swept_candidates: 0,
                refresh_secs: 0.0,
            };
        }
        self.ensure_precomputed();
        // Sole owner → unwrap and mutate in place; shared → one clone, the
        // other holders keep the old snapshot (snapshot isolation).
        let mut pre = match Arc::try_unwrap(self.pre.take().expect("ensured above")) {
            Ok(pre) => pre,
            Err(shared) => (*shared).clone(),
        };
        let cands = &pre.candidates;

        // 1. Grow the transit layer (no road/trajectory copies: the city
        //    snapshot is replaced by a twin sharing both `Arc` layers).
        let new_transit = apply_plan(&self.city.transit, plan, cands);

        // 2. Zero the served demand (§6.3) and remember which road edges
        //    changed, to refresh exactly the candidates that price them.
        let covered: Vec<u32> =
            plan.cand_edges.iter().flat_map(|&id| cands.edge(id).road_edges.clone()).collect();
        let mut covered_mask = vec![false; self.demand.num_edges()];
        let mut covered_road_edges = 0;
        for &e in &covered {
            if !std::mem::replace(&mut covered_mask[e as usize], true) {
                covered_road_edges += 1;
            }
        }
        Arc::make_mut(&mut self.demand).zero_edges(&covered);
        self.city = Arc::new(self.city.with_transit(new_transit));

        // Chaos failpoint at the deepest mid-commit state: the session's
        // own city/demand handles have been replaced but the refresh has
        // not run. An unwind here strands only this session — the handles
        // it swapped were session-local clones; every other holder of the
        // base snapshot is untouched (the property the serving layer's
        // catch_unwind relies on).
        fault::hit_or_panic(&self.faults, fault::site::SESSION_REFRESH);

        // 3. Refresh the pre-computation in place. The promoted pairs are
        //    the route's new hops in first-occurrence order — the order
        //    `with_route_added` appended them, hence the order a rebuild's
        //    candidate scan would encounter them in.
        // The approximate tier carries the previous sweep forward, so the
        // old Δ vector and Ritz basis must be lifted out before the pool
        // reorder invalidates the id space.
        let prev_delta =
            if self.refresh.is_exact() { Vec::new() } else { std::mem::take(&mut pre.delta) };
        let prev_basis = if self.refresh.is_exact() { None } else { pre.spectrum_basis.take() };
        let old_of = pre.candidates.promote_to_existing(&plan.new_stop_pairs);
        let refreshed = pre.candidates.refresh_demand(&self.demand, &covered_mask);
        pre.base_adj.absorb_unit_edges(&plan.new_stop_pairs);

        // ctlint::allow(wall-clock): refresh_secs is commit-summary reporting only; the refresh math never reads the clock
        let t0 = Instant::now();
        let base_trace = pre
            .estimator
            .trace_exp(&pre.base_adj)
            .expect("base trace estimation succeeds")
            .max(f64::MIN_POSITIVE);
        // The exact tier re-scores every new candidate from zero. The
        // approximate tier carries the previous Δ(e) through the promotion
        // reorder and re-scores only the touched candidates.
        let n = pre.candidates.len();
        let (ids, mut delta) = match self.refresh {
            RefreshPolicy::Exact => (new_candidate_ids(&pre.candidates), vec![0.0f64; n]),
            RefreshPolicy::Approximate => {
                // Promoted (now existing) candidates drop to the 0 a rebuild
                // would store for them.
                let mut delta = vec![0.0f64; n];
                for (id, slot) in delta.iter_mut().enumerate() {
                    if !pre.candidates.edge(id as u32).existing {
                        let old = if old_of.is_empty() { id } else { old_of[id] as usize };
                        *slot = prev_delta.get(old).copied().unwrap_or(0.0);
                    }
                }
                // Touched = corridor overlap (the demand refresh's own
                // criterion) ∪ the committed route's stop neighborhoods.
                let is_new = |&id: &u32| !pre.candidates.edge(id).existing;
                let mut ids: Vec<u32> = refreshed.iter().copied().filter(is_new).collect();
                for &stop in &plan.stops {
                    ids.extend(pre.candidates.incident(stop).iter().copied().filter(is_new));
                }
                ids.sort_unstable();
                ids.dedup();
                (ids, delta)
            }
        };
        let threads = self.params.parallelism.worker_threads();
        if self.workspaces.len() < threads {
            self.workspaces.resize_with(threads, LanczosWorkspace::new);
        }
        // The exact tier restarts the spectrum head unseeded (bit-identical
        // to a rebuild); the approximate tier seeds it with the previous
        // head's Ritz vectors. It runs beside the sweep on its workers.
        let seeds = prev_basis.as_deref().map_or(&[][..], Vec::as_slice);
        let head = sweep_deltas(
            DeltaMethod::PairedProbes,
            &pre.candidates,
            &pre.base_adj,
            &pre.estimator,
            base_trace,
            self.params.lanczos_steps,
            &ids,
            &mut self.workspaces[..threads],
            &mut delta,
            || spectrum_head(&pre.base_adj, &self.params, seeds),
        );
        let refresh_secs = t0.elapsed().as_secs_f64();

        let Precomputed { candidates, base_adj, estimator, .. } = pre;
        self.pre = Some(Arc::new(Precomputed::assemble(
            candidates,
            delta,
            base_adj,
            base_trace,
            estimator,
            &self.params,
            PrecomputeTimings { shortest_path_secs: 0.0, connectivity_secs: refresh_secs },
            head,
        )));
        self.commits += 1;

        CommitSummary {
            new_edges: plan.num_new_edges(),
            covered_road_edges,
            refreshed_candidates: refreshed.len(),
            swept_candidates: ids.len(),
            refresh_secs,
        }
    }

    /// Forks a what-if twin: an O(1) handle clone. The branch evolves
    /// independently, sharing *every* layer — city, demand, and the
    /// pre-computation itself — with this session until one of the twins
    /// commits, at which point copy-on-write kicks in (see
    /// [`PlanningSession::commit`]). Workspaces are per-session, so the
    /// twin is immediately `Send`-able to another thread.
    pub fn branch(&self) -> PlanningSession {
        PlanningSession {
            city: self.city.clone(),
            demand: self.demand.clone(),
            params: self.params,
            pre: self.pre.clone(),
            workspaces: Vec::new(),
            commits: self.commits,
            refresh: self.refresh,
            faults: self.faults.clone(),
        }
    }

    /// Stop-site selection (§8) against the session's *current* state:
    /// after committing routes, the zeroed demand steers new sites toward
    /// still-unserved corridors. Never builds the pre-computation (site
    /// selection does not use it).
    pub fn select_sites(&self, params: &SiteParams) -> SiteSelection {
        select_sites(&self.city, &self.demand, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Planner;
    use ct_data::CityConfig;
    use std::sync::Arc;

    fn setup() -> (City, DemandModel, CtBusParams) {
        let city = CityConfig::small().seed(61).generate();
        let demand = DemandModel::from_city(&city);
        let mut params = CtBusParams::small_defaults();
        params.k = 6;
        params.it_max = 1_200;
        (city, demand, params)
    }

    /// Field-by-field equality of two pre-computations (timings excluded —
    /// they are wall-clock, everything else must be bit-identical), plus
    /// the `L_e(w)` values a linear planner run ranks from them.
    fn assert_pre_identical(a: &Precomputed, b: &Precomputed, w: f64, what: &str) {
        assert_eq!(a.candidates.edges(), b.candidates.edges(), "{what}: candidates");
        assert_turns_identical(a, b, what);
        assert_eq!(a.delta, b.delta, "{what}: delta");
        assert_eq!(a.d_max, b.d_max, "{what}: d_max");
        assert_eq!(a.lambda_max, b.lambda_max, "{what}: lambda_max");
        assert_eq!(a.base_lambda, b.base_lambda, "{what}: base_lambda");
        assert_eq!(a.base_trace, b.base_trace, "{what}: base_trace");
        assert_eq!(a.top_eigs, b.top_eigs, "{what}: top_eigs");
        assert_eq!(a.spectrum_basis, b.spectrum_basis, "{what}: spectrum_basis");
        assert_eq!(a.conn_path_ub, b.conn_path_ub, "{what}: conn_path_ub");
        assert_eq!(a.base_adj, b.base_adj, "{what}: base_adj");
        let (a_le, b_le) = (a.le_values(w), b.le_values(w));
        for id in 0..a.candidates.len() as u32 {
            assert_eq!(a_le[id as usize], b_le[id as usize], "{what}: le[{id}]");
            assert_eq!(a.ld.value(id), b.ld.value(id), "{what}: ld[{id}]");
            assert_eq!(a.llambda.value(id), b.llambda.value(id), "{what}: llambda[{id}]");
        }
    }

    /// The turn tables of two pre-computations hold the same classes.
    fn assert_turns_identical(a: &Precomputed, b: &Precomputed, what: &str) {
        assert!(*a.candidates.turns() == *b.candidates.turns(), "{what}: turn table");
    }

    #[test]
    fn commits_of_either_tier_keep_the_turn_table_of_a_cold_build() {
        // Commits only flip candidates to existing, so the session keeps
        // its one table, and that table is what a rebuild would classify.
        for refresh in [RefreshPolicy::Exact, RefreshPolicy::Approximate] {
            let (city, demand, params) = setup();
            let mut session = PlanningSession::new(city, demand, params).with_refresh(refresh);
            let table = Arc::clone(session.precomputed().candidates.turns());
            for round in 0..2 {
                let result = session.plan(PlannerMode::EtaPre);
                if result.best.is_empty() || result.best.objective <= 0.0 {
                    break;
                }
                session.commit(&result.best);
                let fresh = Precomputed::build(session.city(), session.demand(), session.params());
                let what = format!("{refresh:?} round {round}");
                assert_turns_identical(session.precomputed(), &fresh, &what);
                assert!(Arc::ptr_eq(&table, session.precomputed().candidates.turns()), "{what}");
            }
            assert!(session.commits() >= 1, "{refresh:?}: no route committed");
        }
    }

    #[test]
    fn branch_and_reparameterize_share_the_turn_table() {
        let (city, demand, params) = setup();
        let mut session = PlanningSession::new(city, demand, params);
        let table = Arc::clone(session.precomputed().candidates.turns());
        let mut branch = session.branch();
        assert!(Arc::ptr_eq(&table, branch.precomputed().candidates.turns()), "branch");
        // The branch shares its snapshot, so its commit clones it first.
        let result = branch.plan(PlannerMode::EtaPre);
        assert!(!result.best.is_empty());
        branch.commit(&result.best);
        assert!(Arc::ptr_eq(&table, branch.precomputed().candidates.turns()), "cloned commit");
        let mut other = params;
        other.k = 4;
        other.w = 0.8;
        let again = session.precomputed().reparameterize(&other);
        assert!(Arc::ptr_eq(&table, again.candidates.turns()), "reparameterize");
    }

    #[test]
    fn commit_matches_fresh_build_bit_for_bit() {
        // The heart of the equivalence contract: after a commit, every
        // artifact equals a from-scratch build on the evolved state.
        let (city, demand, params) = setup();
        let mut session = PlanningSession::new(city, demand, params);
        for round in 0..2 {
            let result = session.plan(PlannerMode::EtaPre);
            if result.best.is_empty() || result.best.objective <= 0.0 {
                break;
            }
            session.commit(&result.best);
            let fresh = Precomputed::build(session.city(), session.demand(), session.params());
            let w = session.params().w;
            assert_pre_identical(session.precomputed(), &fresh, w, &format!("round {round}"));
        }
        assert!(session.commits() >= 1, "no route committed");
    }

    #[test]
    fn commit_never_copies_roads_or_trajectories() {
        let (city, demand, params) = setup();
        let road = Arc::clone(&city.road);
        let trajectories = Arc::clone(&city.trajectories);
        let mut session = PlanningSession::new(city, demand, params);
        for _ in 0..2 {
            let result = session.plan(PlannerMode::EtaPre);
            if result.best.is_empty() || result.best.objective <= 0.0 {
                break;
            }
            session.commit(&result.best);
        }
        assert!(session.commits() >= 1);
        assert!(Arc::ptr_eq(&road, &session.city().road), "a commit deep-copied the road network");
        assert!(
            Arc::ptr_eq(&trajectories, &session.city().trajectories),
            "a commit deep-copied the trajectory corpus"
        );
    }

    #[test]
    fn branch_is_independent_but_shares_immutable_layers() {
        let (city, demand, params) = setup();
        let mut session = PlanningSession::new(city, demand, params);
        let first = session.plan(PlannerMode::EtaPre);
        assert!(!first.best.is_empty());

        let mut branch = session.branch();
        assert!(Arc::ptr_eq(&session.city().road, &branch.city().road));
        assert!(Arc::ptr_eq(&session.city().trajectories, &branch.city().trajectories));

        // Committing on the branch must not disturb the main session.
        branch.commit(&first.best);
        assert_eq!(branch.commits(), session.commits() + 1);
        assert_eq!(branch.city().transit.num_routes(), session.city().transit.num_routes() + 1);
        let replay = session.plan(PlannerMode::EtaPre);
        assert_eq!(replay.best, first.best, "main session state drifted after branch commit");
    }

    #[test]
    fn session_plan_equals_planner() {
        // Round 1 (no commits) must be exactly a cold Planner run.
        let (city, demand, params) = setup();
        let planner = Planner::new(&city, &demand, params);
        let reference = planner.run(PlannerMode::EtaPre);
        let mut session = PlanningSession::new(city, demand, params);
        let got = session.plan(PlannerMode::EtaPre);
        assert_eq!(got.best, reference.best);
        assert_eq!(got.trace, reference.trace);
        assert_eq!(got.iterations, reference.iterations);
        assert_eq!(got.evaluations, reference.evaluations);
    }

    #[test]
    fn empty_commit_is_noop() {
        let (city, demand, params) = setup();
        let mut session = PlanningSession::new(city, demand, params);
        let summary = session.commit(&RoutePlan::empty());
        assert_eq!(summary.new_edges, 0);
        assert_eq!(session.commits(), 0);
        assert!(session.pre.is_none(), "empty commit must not trigger a build");
    }

    #[test]
    fn commit_summary_counts_are_consistent() {
        let (city, demand, params) = setup();
        let mut session = PlanningSession::new(city, demand, params);
        let result = session.plan(PlannerMode::EtaPre);
        assert!(!result.best.is_empty());
        let transit_edges_before = session.city().transit.num_edges();
        // Resolve the route's road geometry against the *pre-commit* pool:
        // committing reorders candidate ids (promotion moves new edges into
        // the existing section).
        let corridors: Vec<Vec<u32>> = result
            .best
            .cand_edges
            .iter()
            .map(|&id| session.precomputed().candidates.edge(id).road_edges.clone())
            .collect();
        let summary = session.commit(&result.best);
        assert_eq!(summary.new_edges, result.best.num_new_edges());
        assert_eq!(session.city().transit.num_edges(), transit_edges_before + summary.new_edges);
        assert!(summary.covered_road_edges > 0);
        // Every plan edge's own candidate touches the covered corridor.
        assert!(summary.refreshed_candidates >= result.best.num_edges());
        // The served corridor no longer carries demand.
        let zeroed: f64 = corridors.iter().map(|c| session.demand().path_weight(c)).sum();
        assert_eq!(zeroed, 0.0, "committed corridor still carries demand");
    }

    #[test]
    fn select_sites_reflects_committed_demand() {
        // After committing a route, its corridor is zeroed, so the covered
        // demand a site selection can reach never increases.
        let (city, demand, params) = setup();
        let mut session = PlanningSession::new(city, demand, params);
        let sp = SiteParams { num_sites: 3, ..Default::default() };
        let before = session.select_sites(&sp);
        let result = session.plan(PlannerMode::EtaPre);
        assert!(!result.best.is_empty());
        session.commit(&result.best);
        let after = session.select_sites(&sp);
        assert!(
            after.covered_demand <= before.covered_demand + 1e-9,
            "zeroed demand increased site coverage: {} -> {}",
            before.covered_demand,
            after.covered_demand
        );
    }
}
