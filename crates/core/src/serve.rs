//! The concurrent planning service: one published snapshot, many readers,
//! a single-writer commit queue.
//!
//! A deployment of the paper's planner is interactive: analysts fire
//! what-if questions ("what does the best route look like if we also build
//! this one?") against a shared city, occasionally committing a route for
//! everyone. [`PlanningSession`] already makes each *individual* line of
//! questioning cheap (copy-on-write snapshots, incremental commit
//! refresh); [`ServeState`] is the piece that lets *many* of them run at
//! once:
//!
//! * **Readers never block.** The current state of the world is one
//!   immutable [`Snapshot`] behind an `Arc`. Checking out a session
//!   ([`ServeState::session`]) clones three `Arc` handles — the only
//!   shared-lock critical section is that clone, and staleness can be
//!   probed without any lock at all ([`ServeState::generation`] is a
//!   single atomic load). In-flight sessions keep whatever snapshot they
//!   checked out; a concurrent commit never invalidates their reads.
//! * **Writes are serialized and optimistic.** Commits go through a
//!   single-writer queue (a mutex held only by writers) and carry the
//!   generation they were planned against ([`CommitTicket`]). A ticket
//!   whose base generation no longer matches is rejected as
//!   [`CommitOutcome::Stale`] — its plan indexes the *old* candidate pool,
//!   whose ids shift when a commit promotes edges — and the client
//!   re-plans on a fresh checkout. A matching ticket is applied through
//!   the session commit path (so the refreshed pre-computation is
//!   bit-identical to a from-scratch build, same contract as
//!   [`crate::session`]) and the new snapshot is published atomically.
//!
//! **Publish protocol.** The snapshot lives in a
//! `RwLock<Arc<Snapshot>>` paired with an `AtomicU64` generation. The
//! writer prepares the successor snapshot entirely outside the lock (the
//! expensive part: one copy-on-write clone of the pre-computation plus the
//! incremental Δ-refresh), then takes the write lock just long enough to
//! swap the `Arc` and bump the generation. Readers either probe the atomic
//! (lock-free) or take the read lock for the duration of an `Arc` clone
//! (a few instructions; the lock is never held across planning work).
//! Writers pay one extra cost a solo [`PlanningSession`] does not: the
//! published snapshot always aliases the current pre-computation, so
//! `Arc::try_unwrap` inside the session commit always falls back to the
//! one clone — that is the price of never blocking readers.
//!
//! **Failure model.** A long-lived service must outlive its worst
//! request, so every failure the commit path can produce is contained to
//! the one commit that caused it:
//!
//! * **Panics don't propagate.** The apply-and-publish step runs under
//!   `catch_unwind`; a panic anywhere inside (session refresh, numerical
//!   edge case, injected fault) yields [`CommitOutcome::Failed`] and the
//!   published snapshot is untouched. This is sound because all commit
//!   mutation is session-local until the final pointer swap: the session
//!   works on copy-on-write clones, so an unwind mid-commit strands only
//!   private state ([`crate::session`] guarantees the base snapshot is
//!   never partially mutated).
//! * **Poison is ignored, deliberately.** Every lock access recovers the
//!   guard with [`PoisonError::into_inner`]. Poisoning exists to flag
//!   possibly-inconsistent protected data; here the protected datum is an
//!   `Arc<Snapshot>` that is only ever replaced *whole* under the write
//!   lock — there is no intermediate state a panic could expose — so a
//!   poisoned flag carries no information and readers must keep serving.
//! * **Garbage is rejected before it can hurt.** A ticket whose plan does
//!   not type-check against its base snapshot (candidate ids out of range
//!   for the pool, hop/id mismatches, unknown promoted pairs, non-finite
//!   scores) is rejected as [`CommitOutcome::Invalid`] *before* any
//!   session work — malformed input gets an error, not a writer panic.
//! * **Overload sheds instead of queueing without bound.** Commit
//!   concurrency is capped by [`ServePolicy::max_queue_depth`] and the
//!   wait for the writer queue by [`ServePolicy::commit_deadline`];
//!   beyond either, the ticket bounces as [`CommitOutcome::Overloaded`]
//!   and the caller retries later. [`ServeStats`] exposes the failure and
//!   shed counters plus a consecutive-failure streak for health probes.
//!
//! The fault sites a chaos harness can schedule against this path live in
//! [`crate::fault::site`]; `tests/serve_chaos.rs` drives all of them
//! under concurrent workloads.
//!
//! **Determinism.** Planning is deterministic per snapshot: every session
//! checked out at generation `g` computes the *same* best plan for a given
//! mode. Combined with orderly commit application this gives the serving
//! layer a sequential oracle — racing N workers through plan → commit
//! produces exactly the state that back-to-back sequential rounds produce,
//! which `tests/serve_concurrency.rs` exploits. Failed, invalid, and shed
//! commits publish nothing, so the oracle is indexed by *applied* commits
//! only — chaos runs replay it too.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, TryLockError};
use std::time::{Duration, Instant};

use ct_data::{City, DemandModel};

use crate::eta::StopReason;
use crate::fault::{self, FaultError, FaultInjector};
use crate::params::CtBusParams;
use crate::plan::RoutePlan;
use crate::precompute::Precomputed;
use crate::session::{CommitSummary, PlanningSession, RefreshPolicy};

/// One immutable published state of the world: the evolved city, its
/// demand, the matching pre-computation, and the generation stamp.
///
/// Snapshots are handed out by [`ServeState::current`] behind an `Arc`
/// and are never mutated — a commit publishes a *successor* snapshot and
/// leaves every checked-out copy untouched (snapshot isolation).
#[derive(Clone)]
pub struct Snapshot {
    city: Arc<City>,
    demand: Arc<DemandModel>,
    pre: Arc<Precomputed>,
    params: CtBusParams,
    /// 0 for the initial snapshot, +1 per applied commit.
    generation: u64,
}

impl Snapshot {
    /// The generation stamp (0 = initial; +1 per applied commit).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The snapshot's city (routes of every applied commit included).
    pub fn city(&self) -> &City {
        &self.city
    }

    /// The snapshot's demand model (served corridors zeroed).
    pub fn demand(&self) -> &DemandModel {
        &self.demand
    }

    /// The snapshot's pre-computation.
    pub fn precomputed(&self) -> &Precomputed {
        &self.pre
    }

    /// The shared handle onto the pre-computation (O(1) clone).
    pub fn precomputed_handle(&self) -> &Arc<Precomputed> {
        &self.pre
    }

    /// Checks out a [`PlanningSession`] rooted at this snapshot: three
    /// `Arc` clones, no locks, no copies. The session is `Send` — move it
    /// to any worker thread. Commits made *through the session* stay local
    /// to it (what-if semantics); to change the published world, submit a
    /// [`CommitTicket`] to [`ServeState::commit`].
    pub fn session(&self) -> PlanningSession {
        PlanningSession::from_snapshot_parts(
            Arc::clone(&self.city),
            Arc::clone(&self.demand),
            Arc::clone(&self.pre),
            self.params,
            self.generation as usize,
        )
    }
}

/// A commit request: a plan plus the generation it was planned against.
///
/// Build one with [`CommitTicket::new`] from the snapshot the plan came
/// from; [`ServeState::commit`] applies it only if that snapshot is still
/// current.
#[derive(Debug, Clone)]
pub struct CommitTicket {
    /// Generation of the snapshot the plan's candidate ids index.
    pub base_generation: u64,
    /// The route to commit (candidate ids relative to `base_generation`).
    pub plan: RoutePlan,
}

impl CommitTicket {
    /// A ticket committing `plan` that was computed on `snapshot`.
    pub fn new(snapshot: &Snapshot, plan: RoutePlan) -> CommitTicket {
        CommitTicket { base_generation: snapshot.generation, plan }
    }
}

/// What [`ServeState::commit`] did with a ticket.
#[derive(Debug, Clone, PartialEq)]
pub enum CommitOutcome {
    /// The ticket was current; the route is committed and a new snapshot
    /// (stamped `generation`) is published.
    Applied {
        /// Generation of the newly published snapshot.
        generation: u64,
        /// The session-level commit bookkeeping.
        summary: CommitSummary,
    },
    /// The ticket's base generation is no longer current: some other
    /// commit landed first and the plan's candidate ids no longer index
    /// the published pool. Re-plan on a fresh checkout and resubmit.
    Stale {
        /// The generation the ticket was planned against.
        base_generation: u64,
        /// The generation that is actually current.
        current_generation: u64,
    },
    /// The ticket carried an empty plan; nothing was published.
    Empty,
    /// The ticket's plan does not type-check against its base snapshot
    /// (out-of-range candidate id, hop/candidate mismatch, unknown
    /// promoted pair, non-finite score). Nothing was applied or
    /// published; resubmitting the same ticket can never succeed.
    Invalid {
        /// What failed validation, naming the offending id.
        reason: String,
    },
    /// The apply path panicked or reported an injected error. The failure
    /// was contained: nothing was published, the writer queue is intact,
    /// and the service keeps serving the previous generation. Re-planning
    /// on a fresh checkout usually succeeds.
    Failed {
        /// The panic message or error the apply path died with.
        reason: String,
    },
    /// The service is over its commit concurrency budget
    /// ([`ServePolicy::max_queue_depth`]) or the writer queue could not be
    /// entered within [`ServePolicy::commit_deadline`]. Nothing was
    /// applied; retry after backing off.
    Overloaded {
        /// Commit queue depth observed when the ticket was shed.
        depth: usize,
    },
}

impl CommitOutcome {
    /// True iff the commit was applied and published.
    pub fn is_applied(&self) -> bool {
        matches!(self, CommitOutcome::Applied { .. })
    }
}

/// Bounds on how much concurrent commit pressure [`ServeState::commit`]
/// absorbs before shedding ([`CommitOutcome::Overloaded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServePolicy {
    /// Maximum commits allowed in flight (queued + applying) at once;
    /// arrivals beyond this bounce immediately.
    pub max_queue_depth: usize,
    /// Longest a commit may wait to enter the writer queue before it is
    /// shed. Measured while spinning on the queue, not during apply.
    pub commit_deadline: Duration,
}

impl Default for ServePolicy {
    /// Generous defaults: shedding should be the exception, not the
    /// steady state (depth 1024, 30 s deadline).
    fn default() -> ServePolicy {
        ServePolicy { max_queue_depth: 1024, commit_deadline: Duration::from_secs(30) }
    }
}

/// A point-in-time copy of the service counters (see
/// [`ServeState::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Sessions checked out ([`ServeState::session`] /
    /// [`ServeState::current`]).
    pub checkouts: u64,
    /// Plans reported finished by workers ([`ServeState::record_plan`]).
    pub plans: u64,
    /// The same plans by why their search stopped.
    pub stops: StopCounts,
    /// Commits applied and published.
    pub commits_applied: u64,
    /// Commits rejected as stale.
    pub commits_stale: u64,
    /// Commits whose apply path panicked or errored (contained; nothing
    /// published).
    pub commits_failed: u64,
    /// Commits rejected by ticket validation.
    pub commits_invalid: u64,
    /// Commits shed under overload ([`CommitOutcome::Overloaded`]).
    pub commits_shed: u64,
    /// Length of the current run of failed commits; reset to 0 by every
    /// applied commit. A growing streak with no applies in between is the
    /// degraded-health signal.
    pub consecutive_failures: u64,
    /// Current published generation.
    pub generation: u64,
}

/// Finished plans counted by [`StopReason`]. Its `Display` is the one
/// line the serving drivers print, `plans stopped by: 0 bound, 0 exhausted
/// queue, 6 iteration cap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StopCounts {
    /// Plans whose best remaining bound could not beat the incumbent.
    pub bound: u64,
    /// Plans whose queue ran empty.
    pub exhausted: u64,
    /// Plans cut short at `it_max`.
    pub iteration_cap: u64,
}

impl fmt::Display for StopCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plans stopped by: {} {}, {} {}, {} {}",
            self.bound,
            StopReason::Bound,
            self.exhausted,
            StopReason::Exhausted,
            self.iteration_cap,
            StopReason::IterationCap
        )
    }
}

impl ServeStats {
    /// True iff the most recent commit attempt(s) failed with no
    /// successful apply since — the signal a health probe should page on
    /// when it persists.
    pub fn degraded(&self) -> bool {
        self.consecutive_failures > 0
    }
}

/// Decrements the commit queue depth when dropped, however the commit
/// exits (applied, rejected, shed, or unwinding out of `catch_unwind`).
struct DepthGuard<'a>(&'a AtomicUsize);

impl Drop for DepthGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The shared serving state: the published [`Snapshot`] plus the
/// single-writer commit queue. `ServeState` is `Sync` — share one behind
/// an `Arc` across any number of worker threads (pinned by a compile-time
/// test in `tests/serve_concurrency.rs`). See the module docs for the
/// failure model.
pub struct ServeState {
    /// Lock-free staleness probe; equals `current.generation`. Published
    /// with `Release` *after* the snapshot swap, so a reader observing
    /// generation `g` via `Acquire` will read a snapshot of generation
    /// ≥ g on its next checkout.
    generation: AtomicU64,
    /// The published snapshot. Read critical section: one `Arc` clone.
    /// Write critical section: one pointer swap (the successor snapshot
    /// is fully built before the lock is taken). Poison-tolerant on both
    /// sides: the `Arc` is only ever replaced whole, so a poisoned flag
    /// carries no information (module docs).
    current: RwLock<Arc<Snapshot>>,
    /// The single-writer commit queue: writers serialize here, in arrival
    /// order (std mutexes queue fairly enough for a commit path whose
    /// holders do real work). Held across apply-and-publish so commit
    /// generations are gapless.
    writer: Mutex<()>,
    /// Overload bounds for `commit`.
    policy: ServePolicy,
    /// How applied commits refresh the pre-computation (default
    /// [`RefreshPolicy::Exact`]).
    refresh: RefreshPolicy,
    /// Scheduled faults, if a chaos harness installed any; `None` in
    /// production, where the failpoints cost one branch each.
    faults: Option<Arc<FaultInjector>>,
    /// Commits currently in flight (inside `commit` past the empty
    /// check); bounded by `policy.max_queue_depth`.
    queue_depth: AtomicUsize,
    checkouts: AtomicU64,
    plans: AtomicU64,
    stopped_by_bound: AtomicU64,
    stopped_exhausted: AtomicU64,
    stopped_at_cap: AtomicU64,
    commits_applied: AtomicU64,
    commits_stale: AtomicU64,
    commits_failed: AtomicU64,
    commits_invalid: AtomicU64,
    commits_shed: AtomicU64,
    consecutive_failures: AtomicU64,
}

impl ServeState {
    /// Builds the service over an owned city and demand model, running the
    /// full pre-computation eagerly so the first wave of readers checks
    /// out a ready snapshot instead of racing to build one each.
    ///
    /// # Panics
    /// Panics if `params` fail [`CtBusParams::validate`].
    pub fn new(city: City, demand: DemandModel, params: CtBusParams) -> ServeState {
        let mut boot = PlanningSession::new(city, demand, params);
        let pre = boot.precomputed_handle();
        let snapshot = Snapshot {
            city: Arc::clone(boot.city_handle()),
            demand: Arc::clone(boot.demand_handle()),
            pre,
            params,
            generation: 0,
        };
        ServeState {
            generation: AtomicU64::new(0),
            current: RwLock::new(Arc::new(snapshot)),
            writer: Mutex::new(()),
            policy: ServePolicy::default(),
            refresh: RefreshPolicy::Exact,
            faults: None,
            queue_depth: AtomicUsize::new(0),
            checkouts: AtomicU64::new(0),
            plans: AtomicU64::new(0),
            stopped_by_bound: AtomicU64::new(0),
            stopped_exhausted: AtomicU64::new(0),
            stopped_at_cap: AtomicU64::new(0),
            commits_applied: AtomicU64::new(0),
            commits_stale: AtomicU64::new(0),
            commits_failed: AtomicU64::new(0),
            commits_invalid: AtomicU64::new(0),
            commits_shed: AtomicU64::new(0),
            consecutive_failures: AtomicU64::new(0),
        }
    }

    /// Overrides the overload policy (builder style; call before sharing
    /// the state).
    // ctlint::allow(dead-pub): the chaos suite (crates/core/tests/serve_chaos.rs) tightens the overload policy through it
    pub fn with_policy(mut self, policy: ServePolicy) -> ServeState {
        self.policy = policy;
        self
    }

    /// Overrides the refresh policy applied commits run under (builder
    /// style; call before sharing the state). Under
    /// [`RefreshPolicy::Approximate`] the published snapshots drift from
    /// the exact rebuild oracle — bounded and quantified by the
    /// refresh-drift harness — in exchange for cheaper commits.
    pub fn with_refresh(mut self, refresh: RefreshPolicy) -> ServeState {
        self.refresh = refresh;
        self
    }

    /// The refresh policy applied commits run under.
    pub fn refresh(&self) -> RefreshPolicy {
        self.refresh
    }

    /// Installs a fault schedule on the serving path (builder style; call
    /// before sharing the state). Production services never call this —
    /// without it every failpoint is a single `None` check.
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> ServeState {
        self.faults = Some(faults);
        self
    }

    /// The overload policy in force.
    pub fn policy(&self) -> ServePolicy {
        self.policy
    }

    /// The current published generation — a single atomic load, no lock.
    /// Use it to probe whether a held [`Snapshot`] is stale before paying
    /// for a re-plan.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// True iff `snapshot` is still the published state of the world
    /// (lock-free).
    // ctlint::allow(dead-pub): client API for stale-read checks, exercised by crates/core/tests/serve_concurrency.rs
    pub fn is_current(&self, snapshot: &Snapshot) -> bool {
        snapshot.generation == self.generation()
    }

    /// Checks out the current snapshot. The read lock is held only for
    /// the `Arc` clone; the returned snapshot stays valid (and unchanged)
    /// for as long as the caller holds it, however many commits land in
    /// the meantime. Survives writer panics: a poisoned lock is read
    /// through (the snapshot `Arc` is always whole — module docs).
    pub fn current(&self) -> Arc<Snapshot> {
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Checks out a ready-to-plan [`PlanningSession`] on the current
    /// snapshot (see [`Snapshot::session`]).
    pub fn session(&self) -> PlanningSession {
        self.current().session()
    }

    /// Applies a commit ticket through the single-writer queue.
    ///
    /// Current, valid ticket → the route is absorbed (same incremental,
    /// bit-identical-to-rebuild path as [`PlanningSession::commit`]) and
    /// the successor snapshot is published atomically. Readers are never
    /// blocked: the expensive refresh happens outside the snapshot lock,
    /// which is write-held only for the pointer swap.
    ///
    /// Every other outcome leaves the published snapshot untouched:
    /// [`CommitOutcome::Stale`] (re-plan and resubmit),
    /// [`CommitOutcome::Invalid`] (the plan cannot apply to its base —
    /// do not resubmit), [`CommitOutcome::Overloaded`] (shed by
    /// [`ServePolicy`] — back off and retry), and
    /// [`CommitOutcome::Failed`] (the apply path panicked or errored; the
    /// failure is contained and the service keeps serving).
    pub fn commit(&self, ticket: CommitTicket) -> CommitOutcome {
        if ticket.plan.is_empty() {
            return CommitOutcome::Empty;
        }

        // Overload gate 1: bounded in-flight commits. The guard keeps the
        // depth exact on every exit path, including an unwinding one.
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        let _depth = DepthGuard(&self.queue_depth);
        if depth > self.policy.max_queue_depth {
            self.commits_shed.fetch_add(1, Ordering::Relaxed);
            return CommitOutcome::Overloaded { depth };
        }

        // Overload gate 2: bounded wait for the writer queue. Spinning
        // (with yields) instead of blocking keeps the wait interruptible
        // by the deadline and immune to queue poisoning.
        let arrived = Instant::now();
        let _writer = loop {
            match self.writer.try_lock() {
                Ok(guard) => break guard,
                Err(TryLockError::Poisoned(poisoned)) => break poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => {
                    if arrived.elapsed() >= self.policy.commit_deadline {
                        self.commits_shed.fetch_add(1, Ordering::Relaxed);
                        return CommitOutcome::Overloaded {
                            depth: self.queue_depth.load(Ordering::Relaxed),
                        };
                    }
                    std::thread::yield_now();
                }
            }
        };

        let base = Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner));
        if ticket.base_generation != base.generation {
            self.commits_stale.fetch_add(1, Ordering::Relaxed);
            return CommitOutcome::Stale {
                base_generation: ticket.base_generation,
                current_generation: base.generation,
            };
        }
        if let Err(reason) = validate_ticket(&ticket.plan, &base) {
            self.commits_invalid.fetch_add(1, Ordering::Relaxed);
            return CommitOutcome::Invalid { reason };
        }

        // Apply-and-publish under catch_unwind: a panic anywhere inside is
        // contained to this commit. AssertUnwindSafe is sound because the
        // apply works exclusively on session-local copy-on-write state —
        // the only shared mutation is the final whole-Arc swap, and the
        // counters touched on the way out are monotone atomics.
        // ctlint::allow(lock-discipline): single-writer by design — `_writer` exists to serialize apply_and_publish, and the overload gates above bound the wait
        match panic::catch_unwind(AssertUnwindSafe(|| self.apply_and_publish(&base, &ticket.plan)))
        {
            Ok(Ok((generation, summary))) => {
                self.commits_applied.fetch_add(1, Ordering::Relaxed);
                self.consecutive_failures.store(0, Ordering::Relaxed);
                CommitOutcome::Applied { generation, summary }
            }
            Ok(Err(fault)) => self.record_failure(fault.to_string()),
            Err(payload) => self.record_failure(fault::panic_message(payload)),
        }
    }

    /// The fallible interior of a commit: session apply, successor build,
    /// atomic publish. Runs with the writer queue held; returns the new
    /// generation or the injected error. Must publish either a complete
    /// successor or nothing — every early exit (error return *or* unwind)
    /// happens before the snapshot slot is assigned.
    fn apply_and_publish(
        &self,
        base: &Snapshot,
        plan: &RoutePlan,
    ) -> Result<(u64, CommitSummary), FaultError> {
        fault::hit(&self.faults, fault::site::COMMIT_APPLY)?;

        // Apply outside the snapshot lock: readers keep checking out the
        // old snapshot while the refresh runs. The session's commit takes
        // the copy-on-write branch (the published snapshot still aliases
        // the pre-computation), leaving `base` untouched.
        let mut session = base.session();
        session.install_faults(self.faults.clone());
        session.set_refresh(self.refresh);
        let summary = session.commit(plan);
        let generation = base.generation + 1;
        let successor = Arc::new(Snapshot {
            city: Arc::clone(session.city_handle()),
            demand: Arc::clone(session.demand_handle()),
            pre: session.precomputed_handle(),
            params: base.params,
            generation,
        });
        fault::hit(&self.faults, fault::site::SNAPSHOT_PUBLISH)?;

        // Publish: pointer swap under the write lock, then the lock-free
        // generation stamp (Release pairs with the Acquire probe). The
        // swap failpoint fires while the write lock is held — a scheduled
        // panic here genuinely poisons the lock, which is exactly the
        // worst case the poison-tolerant readers are tested against.
        {
            let mut slot = self.current.write().unwrap_or_else(PoisonError::into_inner);
            fault::hit(&self.faults, fault::site::SNAPSHOT_SWAP)?;
            *slot = successor;
            self.generation.store(generation, Ordering::Release);
        }
        Ok((generation, summary))
    }

    fn record_failure(&self, reason: String) -> CommitOutcome {
        self.commits_failed.fetch_add(1, Ordering::Relaxed);
        self.consecutive_failures.fetch_add(1, Ordering::Relaxed);
        CommitOutcome::Failed { reason }
    }

    /// Counts one finished plan and why its search stopped (workers report
    /// it; the serving state does not sit on the planning hot path).
    pub fn record_plan(&self, stop: StopReason) {
        self.plans.fetch_add(1, Ordering::Relaxed);
        let counter = match stop {
            StopReason::Bound => &self.stopped_by_bound,
            StopReason::Exhausted => &self.stopped_exhausted,
            StopReason::IterationCap => &self.stopped_at_cap,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the service counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            checkouts: self.checkouts.load(Ordering::Relaxed),
            plans: self.plans.load(Ordering::Relaxed),
            stops: StopCounts {
                bound: self.stopped_by_bound.load(Ordering::Relaxed),
                exhausted: self.stopped_exhausted.load(Ordering::Relaxed),
                iteration_cap: self.stopped_at_cap.load(Ordering::Relaxed),
            },
            commits_applied: self.commits_applied.load(Ordering::Relaxed),
            commits_stale: self.commits_stale.load(Ordering::Relaxed),
            commits_failed: self.commits_failed.load(Ordering::Relaxed),
            commits_invalid: self.commits_invalid.load(Ordering::Relaxed),
            commits_shed: self.commits_shed.load(Ordering::Relaxed),
            consecutive_failures: self.consecutive_failures.load(Ordering::Relaxed),
            generation: self.generation(),
        }
    }
}

/// Structural validation of a plan against the snapshot it claims as its
/// base: every candidate id must index the base pool, every hop must
/// resolve to its claimed candidate, every promoted pair must be a known
/// new candidate (distinct, not already existing), and every score must
/// be finite. Anything less reaches `promote_to_existing`/`apply_plan`
/// asserts and panics the writer — rejecting up front turns garbage input
/// into [`CommitOutcome::Invalid`] instead.
///
/// Cost: one pass over the plan plus one pool-sized hash build — noise
/// next to the Δ-refresh an applied commit pays anyway.
///
/// Public so harnesses can probe the rejection surface directly (the
/// proptest suite in `tests/serve_validate.rs` feeds it adversarial
/// plans); [`ServeState::commit`] calls it on every ticket, so going
/// through the commit path exercises the same checks.
pub fn validate_ticket(plan: &RoutePlan, base: &Snapshot) -> Result<(), String> {
    let cands = &base.pre.candidates;
    let pool = cands.len() as u32;
    for &id in &plan.cand_edges {
        if id >= pool {
            return Err(format!("candidate id {id} out of range for base pool of {pool} edges"));
        }
    }
    if plan.stops.len() != plan.cand_edges.len() + 1 {
        return Err(format!(
            "plan has {} stops for {} edges (want edges + 1)",
            plan.stops.len(),
            plan.cand_edges.len()
        ));
    }
    let num_stops = base.city.transit.num_stops() as u32;
    for &stop in &plan.stops {
        if stop >= num_stops {
            return Err(format!("stop id {stop} out of range for {num_stops} stops"));
        }
    }
    let lookup = cands.pair_lookup();
    for (hop, &claimed) in plan.stops.windows(2).zip(&plan.cand_edges) {
        let (u, v) = match hop {
            &[u, v] => (u, v),
            _ => continue, // windows(2) always yields pairs
        };
        let key = (u.min(v), u.max(v));
        if lookup.get(&key) != Some(&claimed) {
            return Err(format!("hop {u}–{v} does not resolve to claimed candidate id {claimed}"));
        }
    }
    let mut promoted = std::collections::HashSet::new();
    for &(u, v) in &plan.new_stop_pairs {
        let key = (u.min(v), u.max(v));
        if !promoted.insert(key) {
            return Err(format!("promoted pair ({u}, {v}) appears twice"));
        }
        match lookup.get(&key) {
            None => return Err(format!("promoted pair ({u}, {v}) is not a known candidate")),
            Some(&id) if cands.edge(id).existing => {
                return Err(format!("promoted pair ({u}, {v}) is already an existing edge"));
            }
            Some(_) => {}
        }
    }
    for (name, value) in [
        ("demand", plan.demand),
        ("conn_increment", plan.conn_increment),
        ("objective", plan.objective),
        ("length_m", plan.length_m),
    ] {
        if !value.is_finite() {
            return Err(format!("non-finite {name}: {value}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::fault::{site, FailPlan};
    use crate::PlannerMode;
    use ct_data::CityConfig;

    fn quick_params() -> CtBusParams {
        let mut params = CtBusParams::small_defaults();
        params.k = 6;
        params.sn = 80;
        params.it_max = 400;
        params.trace_probes = 8;
        params.lanczos_steps = 6;
        params
    }

    fn setup() -> ServeState {
        let city = CityConfig::small().seed(17).generate();
        let demand = DemandModel::from_city(&city);
        ServeState::new(city, demand, quick_params())
    }

    #[test]
    fn commit_publishes_and_bumps_generation() {
        let state = setup();
        assert_eq!(state.generation(), 0);
        let snap = state.current();
        let plan = snap.session().plan(PlannerMode::EtaPre).best;
        assert!(!plan.is_empty());
        let routes_before = snap.city().transit.num_routes();

        let outcome = state.commit(CommitTicket::new(&snap, plan));
        assert!(outcome.is_applied(), "fresh ticket rejected: {outcome:?}");
        assert_eq!(state.generation(), 1);
        assert!(!state.is_current(&snap), "pre-commit snapshot still current");
        // The held snapshot is isolated: the commit did not mutate it.
        assert_eq!(snap.city().transit.num_routes(), routes_before);
        // The published successor has the route.
        assert_eq!(state.current().city().transit.num_routes(), routes_before + 1);
    }

    #[test]
    fn stale_ticket_is_rejected_without_publishing() {
        let state = setup();
        let snap = state.current();
        let plan = snap.session().plan(PlannerMode::EtaPre).best;
        assert!(!plan.is_empty());
        assert!(state.commit(CommitTicket::new(&snap, plan.clone())).is_applied());

        // Same plan, same (now stale) base generation.
        let outcome = state.commit(CommitTicket::new(&snap, plan));
        assert_eq!(outcome, CommitOutcome::Stale { base_generation: 0, current_generation: 1 });
        assert_eq!(state.generation(), 1, "stale ticket published a snapshot");
        let stats = state.stats();
        assert_eq!(stats.commits_applied, 1);
        assert_eq!(stats.commits_stale, 1);
    }

    #[test]
    fn empty_ticket_is_noop() {
        let state = setup();
        let snap = state.current();
        assert_eq!(
            state.commit(CommitTicket::new(&snap, RoutePlan::empty())),
            CommitOutcome::Empty
        );
        assert_eq!(state.generation(), 0);
    }

    #[test]
    fn serve_commit_matches_solo_session() {
        // A commit through the serving layer must leave exactly the state a
        // solo session commit leaves (the CoW clone changes nothing).
        let city = CityConfig::small().seed(17).generate();
        let demand = DemandModel::from_city(&city);
        let mut solo = PlanningSession::new(city.clone(), demand.clone(), quick_params());
        let plan = solo.plan(PlannerMode::EtaPre).best;
        assert!(!plan.is_empty());
        solo.commit(&plan);
        let solo_next = solo.plan(PlannerMode::EtaPre).best;

        let state = ServeState::new(city, demand, quick_params());
        let snap = state.current();
        assert!(state.commit(CommitTicket::new(&snap, plan)).is_applied());
        let served_next = state.session().plan(PlannerMode::EtaPre).best;
        assert_eq!(served_next, solo_next, "served state diverged from solo session");
    }

    #[test]
    fn out_of_range_candidate_id_is_invalid_not_a_panic() {
        let state = setup();
        let snap = state.current();
        let mut plan = snap.session().plan(PlannerMode::EtaPre).best;
        assert!(!plan.is_empty());
        let bogus = snap.precomputed().candidates.len() as u32 + 7;
        plan.cand_edges[0] = bogus;

        let outcome = state.commit(CommitTicket::new(&snap, plan));
        match &outcome {
            CommitOutcome::Invalid { reason } => {
                assert!(reason.contains(&bogus.to_string()), "reason must name the id: {reason}");
            }
            other => panic!("want Invalid, got {other:?}"),
        }
        assert_eq!(state.generation(), 0, "invalid ticket published a snapshot");
        assert_eq!(state.stats().commits_invalid, 1);
        // The writer survived: a good ticket still applies.
        let snap = state.current();
        let plan = snap.session().plan(PlannerMode::EtaPre).best;
        assert!(state.commit(CommitTicket::new(&snap, plan)).is_applied());
    }

    #[test]
    fn mismatched_hop_and_nonfinite_scores_are_invalid() {
        let state = setup();
        let snap = state.current();
        let good = snap.session().plan(PlannerMode::EtaPre).best;
        assert!(good.cand_edges.len() >= 2, "fixture plan too short to corrupt");

        let mut swapped = good.clone();
        swapped.cand_edges.swap(0, 1); // in-range ids, wrong hops
        assert!(matches!(
            state.commit(CommitTicket::new(&snap, swapped)),
            CommitOutcome::Invalid { .. }
        ));

        let mut nan = good;
        nan.objective = f64::NAN;
        assert!(matches!(
            state.commit(CommitTicket::new(&snap, nan)),
            CommitOutcome::Invalid { .. }
        ));
        assert_eq!(state.generation(), 0);
        assert_eq!(state.stats().commits_invalid, 2);
    }

    #[test]
    fn injected_panic_is_contained_and_service_recovers() {
        let city = CityConfig::small().seed(17).generate();
        let demand = DemandModel::from_city(&city);
        let faults = FailPlan::new().panic_at(site::COMMIT_APPLY, 1).injector();
        let state = ServeState::new(city, demand, quick_params()).with_faults(Arc::clone(&faults));

        fault::silence_injected_panics();
        let snap = state.current();
        let plan = snap.session().plan(PlannerMode::EtaPre).best;
        assert!(!plan.is_empty());
        let outcome = state.commit(CommitTicket::new(&snap, plan.clone()));
        match &outcome {
            CommitOutcome::Failed { reason } => {
                assert!(reason.contains(site::COMMIT_APPLY), "reason names the site: {reason}");
            }
            other => panic!("want Failed, got {other:?}"),
        }
        assert_eq!(state.generation(), 0, "failed commit published a snapshot");
        let stats = state.stats();
        assert_eq!((stats.commits_failed, stats.consecutive_failures), (1, 1));
        assert!(stats.degraded());

        // Readers and the writer queue survived; the retry applies and
        // clears the failure streak.
        let retry = state.current();
        assert!(state.commit(CommitTicket::new(&retry, plan)).is_applied());
        let stats = state.stats();
        assert_eq!(stats.consecutive_failures, 0);
        assert!(!stats.degraded());
        assert_eq!(faults.stats().panics, 1);
    }

    #[test]
    fn zero_depth_policy_sheds_every_commit() {
        let city = CityConfig::small().seed(17).generate();
        let demand = DemandModel::from_city(&city);
        let policy = ServePolicy { max_queue_depth: 0, ..ServePolicy::default() };
        let state = ServeState::new(city, demand, quick_params()).with_policy(policy);

        let snap = state.current();
        let plan = snap.session().plan(PlannerMode::EtaPre).best;
        assert!(!plan.is_empty());
        let outcome = state.commit(CommitTicket::new(&snap, plan));
        assert!(
            matches!(outcome, CommitOutcome::Overloaded { depth: 1 }),
            "want Overloaded at depth 1, got {outcome:?}"
        );
        assert_eq!(state.generation(), 0);
        assert_eq!(state.stats().commits_shed, 1);
    }

    #[test]
    fn failure_streak_accumulates_and_resets_on_success() {
        use crate::fault::FaultAction;
        let city = CityConfig::small().seed(17).generate();
        let demand = DemandModel::from_city(&city);
        // First three apply attempts error; the fourth goes through.
        let faults = FailPlan::new().on(site::COMMIT_APPLY, 1, 3, FaultAction::Error).injector();
        let state = ServeState::new(city, demand, quick_params()).with_faults(faults);

        let plan = state.session().plan(PlannerMode::EtaPre).best;
        assert!(!plan.is_empty());
        for expected_streak in 1..=3u64 {
            let snap = state.current();
            let outcome = state.commit(CommitTicket::new(&snap, plan.clone()));
            assert!(matches!(outcome, CommitOutcome::Failed { .. }), "attempt {expected_streak}");
            let stats = state.stats();
            assert_eq!(stats.consecutive_failures, expected_streak, "streak must accumulate");
            assert_eq!(stats.commits_failed, expected_streak);
            assert!(stats.degraded());
        }
        // One successful apply clears the whole streak (but not the
        // monotone failure counter).
        let snap = state.current();
        assert!(state.commit(CommitTicket::new(&snap, plan)).is_applied());
        let stats = state.stats();
        assert_eq!(stats.consecutive_failures, 0);
        assert!(!stats.degraded());
        assert_eq!(stats.commits_failed, 3);
    }

    #[test]
    fn invalid_commits_neither_grow_nor_clear_the_streak() {
        let city = CityConfig::small().seed(17).generate();
        let demand = DemandModel::from_city(&city);
        let faults = FailPlan::new().error_at(site::COMMIT_APPLY, 1).injector();
        let state = ServeState::new(city, demand, quick_params()).with_faults(faults);

        let plan = state.session().plan(PlannerMode::EtaPre).best;
        assert!(!plan.is_empty());
        let snap = state.current();
        let outcome = state.commit(CommitTicket::new(&snap, plan.clone()));
        assert!(matches!(outcome, CommitOutcome::Failed { .. }));
        assert_eq!(state.stats().consecutive_failures, 1);

        // An invalid ticket is rejected before the apply path: it is not
        // an apply failure (no streak growth) and certainly not a success
        // (no reset) — the service stays degraded until a real apply.
        let mut garbage = plan.clone();
        garbage.objective = f64::NAN;
        assert!(matches!(
            state.commit(CommitTicket::new(&snap, garbage)),
            CommitOutcome::Invalid { .. }
        ));
        let stats = state.stats();
        assert_eq!(stats.commits_invalid, 1);
        assert_eq!(stats.consecutive_failures, 1, "invalid commit moved the streak");
        assert!(stats.degraded());

        let retry = state.current();
        assert!(state.commit(CommitTicket::new(&retry, plan)).is_applied());
        assert!(!state.stats().degraded());
    }

    #[test]
    fn shed_commits_never_mark_the_service_degraded() {
        let city = CityConfig::small().seed(17).generate();
        let demand = DemandModel::from_city(&city);
        let policy = ServePolicy { max_queue_depth: 0, ..ServePolicy::default() };
        let state = ServeState::new(city, demand, quick_params()).with_policy(policy);

        let snap = state.current();
        let plan = snap.session().plan(PlannerMode::EtaPre).best;
        for _ in 0..3 {
            assert!(matches!(
                state.commit(CommitTicket::new(&snap, plan.clone())),
                CommitOutcome::Overloaded { .. }
            ));
        }
        // Shedding is back-pressure, not failure: the writer never ran, so
        // the health streak must stay clean no matter how much is shed.
        let stats = state.stats();
        assert_eq!(stats.commits_shed, 3);
        assert_eq!(stats.consecutive_failures, 0);
        assert!(!stats.degraded());
    }
}
