#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! CT-Bus core: the paper's contribution.
//!
//! Given a [`ct_data::City`] and its [`ct_data::DemandModel`], plan a new
//! bus route `μ` with at most `k` edges maximizing
//!
//! ```text
//! O(μ) = w · Od(μ)/d_max + (1 − w) · Oλ(μ)/λ_max          (Definition 6)
//! ```
//!
//! subject to stop spacing ≤ τ, turn budget `Tn`, and circle-freeness.
//! The pipeline:
//!
//! 1. [`candidates`] enumerates candidate edges — every existing transit
//!    edge plus every unconnected stop pair within τ, with demand from the
//!    road shortest path between the stops;
//! 2. [`precompute`] estimates each candidate's connectivity increment
//!    `Δ(e)` with paired-probe stochastic Lanczos quadrature and builds the
//!    ranked lists `L_d`, `L_λ` (§6) and the Eq. 12 normalizers; each
//!    linear-mode planner run ranks its own `L_e(w)` from them;
//! 3. [`bounds`] provides the four upper bounds of §5.2–5.3 (Estrada,
//!    Lemma 3 general, Lemma 4 path, increment) and the Algorithm 2
//!    incremental demand bound;
//! 4. [`eta`] runs the expansion-based traversal (Algorithm 1) in any of
//!    its variants — online-Lanczos ETA, pre-computed ETA-Pre, and the
//!    ablations ETA-ALL / ETA-AN / ETA-DT — plus the demand-first vk-TSP
//!    baseline. Online ETA's frontier expansion fans out over a
//!    work-stealing thread pool ([`Parallelism`]); the linear modes, whose
//!    expansions are too cheap to hand off, run inline. Either way a run is
//!    bit-identical to the retained sequential reference
//!    [`eta::Planner::run_sequential`];
//! 5. [`metrics`] scores plans with the paper's transfer-convenience
//!    metrics (Table 6) and [`baselines`] implements the connectivity-first
//!    comparison (Fig. 6);
//! 6. [`session`] is the long-lived scenario engine: a
//!    [`PlanningSession`] owns the evolving city/demand/pre-computation,
//!    absorbs committed routes incrementally (bit-identical to a
//!    from-scratch rebuild), and forks cheap what-if branches. [`multi`]
//!    chains plans into multi-route planning (§6.3) through it (the
//!    rebuild-per-round oracle is retained as
//!    [`multi::plan_multiple_reference`]), and [`sites`] implements the
//!    paper's §8 future-work direction — stop site selection for cities
//!    without sophisticated transit;
//! 7. [`serve`] turns the session machinery into a concurrent service:
//!    one published immutable [`serve::Snapshot`] that any number of
//!    worker threads check out lock-free(ish) sessions from, plus a
//!    single-writer commit queue that applies [`serve::CommitTicket`]s in
//!    arrival order and atomically publishes each successor snapshot —
//!    readers never block and in-flight sessions keep their old world.
//!    [`fault`] is the matching failure model: deterministic seeded
//!    failpoints the chaos suite schedules against the commit path, which
//!    the serving layer survives (panic-isolated commits, poison-tolerant
//!    locks, overload shedding — see the [`serve`] module docs).

pub mod augment;
pub mod baselines;
pub mod bounds;
pub mod candidates;
pub mod eta;
mod expand;
// The serving path must stay panic-free: `unwrap`/`expect` are denied at
// the module level (CI runs clippy with `-D warnings`, making this a
// gate). Tests inside these modules opt back in with inner `allow`s.
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod fault;
pub mod metrics;
pub mod multi;
pub mod params;
pub mod plan;
pub mod precompute;
pub mod ranked;
pub mod rknn;
pub mod scorer;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod serve;
pub mod session;
pub mod sites;

pub use augment::{
    augment_connectivity, golden_thompson_edge_bound, AugmentEval, AugmentParams, AugmentResult,
    AugmentStats,
};
pub use baselines::{
    connectivity_first_edges_with_threads, stitch_edges_into_route, StitchedRoute,
};
pub use bounds::{estrada_bound, general_bound, increment_bound, path_bound};
pub use candidates::{CandidateEdge, CandidateSet};
pub use eta::{Planner, PlannerMode, RunResult, StopReason};
pub use fault::{FailPlan, FaultAction, FaultError, FaultInjector, FaultStats};
pub use metrics::{apply_plan, evaluate_plan, PlanMetrics};
pub use multi::{plan_multiple, plan_multiple_reference};
pub use params::{CtBusParams, Parallelism};
pub use plan::RoutePlan;
pub use precompute::{DeltaMethod, PrecomputeTimings, Precomputed};
pub use ranked::RankedList;
pub use rknn::{rknn_demand, route_service_distance, RknnDemand, RknnParams};
pub use scorer::online_increment_in;
pub use serve::{
    validate_ticket, CommitOutcome, CommitTicket, ServePolicy, ServeState, ServeStats, Snapshot,
    StopCounts,
};
pub use session::{CommitSummary, PlanningSession, RefreshPolicy};
pub use sites::{select_sites, SelectedSite, SiteParams, SiteSelection};
