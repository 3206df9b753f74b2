//! The parallel expansion engine behind [`crate::eta::Planner`].
//!
//! Algorithm 1's inner loop — poll the most promising candidate path,
//! extend it at both ends, re-score, re-insert — is run here as a
//! **batch-synchronous epoch loop** so the per-path work can fan out over
//! threads while results stay bit-identical under any worker count:
//!
//! 1. **Drain** (sequential): pop up to `Parallelism::batch` entries off
//!    the shared max-priority frontier, in strict best-first order,
//!    pruning against the epoch-start incumbent `O_max`.
//! 2. **Expand** (parallel): each drained path is extended and scored by
//!    an [`ExpandCtx`] — a `Send` context borrowing the city and
//!    pre-computation immutably and owning thread-local Lanczos/overlay
//!    scratch. Workers pull batch indices off an atomic counter (work
//!    stealing, same discipline as `precompute::sweep_deltas`); every
//!    expansion is a pure function of the drained path and the frozen
//!    probes, so the schedule cannot affect values.
//! 3. **Merge** (sequential): results are applied in batch index order —
//!    incumbent updates, domination-table checks, and re-insertions happen
//!    exactly as they would in a single-threaded run of the same batched
//!    algorithm.
//!
//! Setting `batch = 1` recovers the paper's poll-one-expand-one loop
//! exactly; larger batches trade strict best-first order for parallelism.
//! The batch size is a parameter of the *algorithm* (fixed per run), the
//! thread count is a parameter of the *machine* (never observable in the
//! output). `Planner::run_sequential` drives this same loop inline and is
//! the reference the parallel path is tested against.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Mutex, RwLock};

use ct_data::City;
use ct_linalg::{EdgeOverlay, LanczosWorkspace};
use ct_spatial::{turn_angle, TurnClass};

use crate::params::CtBusParams;
use crate::plan::RoutePlan;
use crate::precompute::Precomputed;
use crate::ranked::{IncrementalBound, RankedList};
use crate::scorer::online_increment_in;

/// Resolved per-run flags of a [`crate::PlannerMode`] (see the table in
/// [`crate::eta`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ModeConfig {
    pub online_scoring: bool,
    pub all_neighbors: bool,
    pub domination: bool,
    pub seed_all: bool,
    pub new_edges_only: bool,
    pub w_override: Option<f64>,
}

/// A candidate path under expansion.
#[derive(Debug, Clone)]
pub(crate) struct CandPath {
    pub stops: Vec<u32>,
    pub edges: Vec<u32>,
    pub demand_sum: f64,
    /// Objective value; for linear scoring this is the running `Σ L_e[e]`,
    /// for online scoring the latest full evaluation.
    pub obj: f64,
    pub tn: u32,
    pub bound: IncrementalBound,
    pub ub: f64,
}

impl CandPath {
    fn front_stop(&self) -> u32 {
        self.stops[0]
    }

    fn back_stop(&self) -> u32 {
        *self.stops.last().expect("paths are never empty")
    }

    fn contains_stop(&self, s: u32) -> bool {
        self.stops.contains(&s)
    }

    fn contains_edge(&self, e: u32) -> bool {
        self.edges.contains(&e)
    }

    fn dt_key(&self) -> (u32, u32) {
        let first = self.edges[0];
        let last = *self.edges.last().expect("paths are never empty");
        (first.min(last), first.max(last))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    Front,
    Back,
}

struct QEntry {
    ub: f64,
    seq: u64,
    path: CandPath,
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.ub == other.ub && self.seq == other.seq
    }
}
impl Eq for QEntry {}
impl Ord for QEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on ub; FIFO on ties for determinism.
        self.ub
            .partial_cmp(&other.ub)
            .expect("bounds are not NaN")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One unit of parallel work: evaluate a seed candidate, or extend a
/// drained frontier path.
pub(crate) enum WorkItem {
    /// Score candidate edge `id` as a fresh single-edge path.
    Seed(u32),
    /// Extend this path at both ends per the mode's neighbor policy.
    Expand(CandPath),
}

/// What one expansion produced: zero or more scored successor paths (in a
/// deterministic order) plus the number of objective evaluations spent.
#[derive(Default)]
pub(crate) struct ExpandOut {
    pub paths: Vec<CandPath>,
    pub evals: u64,
}

/// Thread-local scratch for online (SLQ) scoring: a reusable overlay of
/// the base adjacency, a Lanczos workspace, an edge-id buffer, and the
/// memo-key buffer.
struct OnlineScratch<'a> {
    overlay: EdgeOverlay<'a>,
    ws: LanczosWorkspace,
    edge_buf: Vec<u32>,
    key: Vec<u32>,
}

/// One plan run's memo of online connectivity increments, shared by the
/// driving thread's and every worker's [`ExpandCtx`]. The key is a path's
/// canonical new-edge set — its new candidate ids, sorted and
/// deduplicated — which fixes the stop pairs the scorer's overlay adds, so
/// a value is a pure function of its key and the frozen probes: a hit
/// returns the bits a fresh solve would. Entries are only looked up and
/// inserted, never iterated, and the lock is never held across a solve.
pub(crate) type ScoreMemo = Mutex<HashMap<Vec<u32>, f64>>;

/// The per-worker expansion context: everything needed to check
/// feasibility, extend, and score candidate paths, independent of any
/// other worker.
///
/// Borrows the [`City`] and [`Precomputed`] immutably (shared across
/// workers) and owns its scoring scratch, so values are `Send` and every
/// method is a pure function of its inputs and the frozen probes —
/// the property the engine's bit-identity contract rests on.
pub(crate) struct ExpandCtx<'a> {
    city: &'a City,
    pre: &'a Precomputed,
    params: &'a CtBusParams,
    cfg: ModeConfig,
    /// Effective objective weight (mode override applied).
    w: f64,
    /// Per-candidate `L_e(w)` values for linear scoring (empty when online).
    le_values: &'a [f64],
    /// Ranked list backing the Algorithm 2 incremental bound.
    bound_list: &'a RankedList,
    /// SLQ scratch; `Some` iff the mode scores online.
    scratch: Option<OnlineScratch<'a>>,
    /// The plan run's shared increment memo (online modes only).
    memo: Option<&'a ScoreMemo>,
    /// Objective evaluations performed since the last [`Self::take_evals`].
    evals: u64,
}

impl<'a> ExpandCtx<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        city: &'a City,
        pre: &'a Precomputed,
        params: &'a CtBusParams,
        cfg: ModeConfig,
        w: f64,
        le_values: &'a [f64],
        bound_list: &'a RankedList,
        memo: Option<&'a ScoreMemo>,
    ) -> Self {
        let scratch = cfg.online_scoring.then(|| OnlineScratch {
            overlay: EdgeOverlay::empty(&pre.base_adj),
            ws: LanczosWorkspace::new(),
            edge_buf: Vec::new(),
            key: Vec::new(),
        });
        ExpandCtx { city, pre, params, cfg, w, le_values, bound_list, scratch, memo, evals: 0 }
    }

    /// Whether candidate `id` may appear on a route under the mode.
    fn admissible(&self, id: u32) -> bool {
        !self.cfg.new_edges_only || !self.pre.candidates.edge(id).existing
    }

    /// The path-level objective upper bound from the incremental bound.
    fn ub_of(&self, bound: &IncrementalBound) -> f64 {
        if self.cfg.online_scoring {
            self.pre.objective(self.w, bound.ub, self.pre.conn_path_ub)
        } else {
            bound.ub
        }
    }

    /// Full objective evaluation of a path given by candidate ids.
    fn eval_full(&mut self, edges: &[u32], demand_sum: f64) -> f64 {
        self.evals += 1;
        if self.cfg.online_scoring {
            let conn = self.online_increment(edges);
            self.pre.objective(self.w, demand_sum, conn)
        } else {
            edges.iter().map(|&e| self.le_values[e as usize]).sum()
        }
    }

    /// SLQ connectivity increment through the thread-local scratch,
    /// solved once per canonical new-edge set when the run has a memo.
    fn online_increment(&mut self, edges: &[u32]) -> f64 {
        let cands = &self.pre.candidates;
        let s = self.scratch.as_mut().expect("online scoring has scratch");
        s.key.clear();
        s.key.extend(edges.iter().copied().filter(|&id| !cands.edge(id).existing));
        if s.key.is_empty() {
            return 0.0;
        }
        s.key.sort_unstable();
        s.key.dedup();
        if let Some(memo) = self.memo {
            if let Some(&hit) = memo.lock().expect("memo lock not poisoned").get(&s.key) {
                return hit;
            }
        }
        let conn = online_increment_in(
            &self.pre.estimator,
            self.pre.base_trace,
            &mut s.overlay,
            &mut s.ws,
            &cands.new_stop_pairs(edges),
        );
        if let Some(memo) = self.memo {
            memo.lock().expect("memo lock not poisoned").insert(s.key.clone(), conn);
        }
        conn
    }

    /// Drains the evaluation counter (per work item, so totals can be
    /// summed deterministically in merge order).
    fn take_evals(&mut self) -> u64 {
        std::mem::take(&mut self.evals)
    }

    /// Executes one work item. Pure: the output depends only on the item,
    /// the mode, and the frozen probes — never on scheduling.
    pub(crate) fn run_item(&mut self, item: &WorkItem) -> ExpandOut {
        let mut out = ExpandOut::default();
        match item {
            WorkItem::Seed(id) => self.expand_seed(*id, &mut out),
            WorkItem::Expand(path) => {
                if self.cfg.all_neighbors {
                    self.expand_all_neighbors(path, &mut out);
                } else {
                    self.expand_best_neighbor(path, &mut out);
                }
            }
        }
        out.evals = self.take_evals();
        out
    }

    /// Algorithm 1 lines 19–27: score candidate `id` as a seed path.
    fn expand_seed(&mut self, id: u32, out: &mut ExpandOut) {
        let e = self.pre.candidates.edge(id);
        let obj = self.eval_full(&[id], e.demand);
        let bound = IncrementalBound::for_seed(self.bound_list, self.params.k, id);
        let mut path = CandPath {
            stops: vec![e.u, e.v],
            edges: vec![id],
            demand_sum: e.demand,
            obj,
            tn: 0,
            bound,
            ub: 0.0,
        };
        path.ub = self.ub_of(&path.bound);
        out.paths.push(path);
    }

    /// Best-neighbor expansion (lines 8–13): pick the best feasible
    /// extension at each end, then `cp ← be + cp + ee`.
    fn expand_best_neighbor(&mut self, cp: &CandPath, out: &mut ExpandOut) {
        let cands = &self.pre.candidates;
        let mut newp = cp.clone();
        let mut extended = false;
        for end in [End::Front, End::Back] {
            let anchor = match end {
                End::Front => newp.front_stop(),
                End::Back => newp.back_stop(),
            };
            let mut best_ext: Option<(u32, f64)> = None;
            for &e_id in cands.incident(anchor) {
                if !self.admissible(e_id) {
                    continue;
                }
                if !self.extension_feasible(&newp, e_id, end) {
                    continue;
                }
                let score = if self.cfg.online_scoring {
                    // Build the would-be edge list in the reusable buffer
                    // (taken out of the scratch so `eval_full` can borrow
                    // `self` mutably, then put back).
                    let mut buf = std::mem::take(
                        &mut self.scratch.as_mut().expect("online scoring has scratch").edge_buf,
                    );
                    buf.clear();
                    match end {
                        End::Front => {
                            buf.push(e_id);
                            buf.extend_from_slice(&newp.edges);
                        }
                        End::Back => {
                            buf.extend_from_slice(&newp.edges);
                            buf.push(e_id);
                        }
                    }
                    let score = self.eval_full(&buf, newp.demand_sum + cands.edge(e_id).demand);
                    self.scratch.as_mut().expect("online scoring has scratch").edge_buf = buf;
                    score
                } else {
                    self.evals += 1;
                    newp.obj + self.le_values[e_id as usize]
                };
                if best_ext.is_none_or(|(_, s)| score > s) {
                    best_ext = Some((e_id, score));
                }
            }
            if let Some((e_id, _)) = best_ext {
                if self.try_append(&mut newp, e_id, end) {
                    extended = true;
                }
            }
        }
        if !extended {
            return;
        }
        if self.cfg.online_scoring {
            let edges = std::mem::take(&mut newp.edges);
            newp.obj = self.eval_full(&edges, newp.demand_sum);
            newp.edges = edges;
        }
        newp.ub = self.ub_of(&newp.bound);
        out.paths.push(newp);
    }

    /// ETA-AN ablation: emit every feasible single-edge extension, front
    /// end first, in incident order.
    fn expand_all_neighbors(&mut self, cp: &CandPath, out: &mut ExpandOut) {
        let cands = &self.pre.candidates;
        for end in [End::Front, End::Back] {
            let anchor = match end {
                End::Front => cp.front_stop(),
                End::Back => cp.back_stop(),
            };
            for &e_id in cands.incident(anchor) {
                if !self.admissible(e_id) {
                    continue;
                }
                let mut p = cp.clone();
                if !self.try_append(&mut p, e_id, end) {
                    continue;
                }
                if self.cfg.online_scoring {
                    let edges = std::mem::take(&mut p.edges);
                    p.obj = self.eval_full(&edges, p.demand_sum);
                    p.edges = edges;
                } else {
                    self.evals += 1;
                }
                p.ub = self.ub_of(&p.bound);
                out.paths.push(p);
            }
        }
    }

    /// Feasibility of appending candidate `e_id` at `end` (circle-free,
    /// length, turn checks) without mutating the path.
    fn extension_feasible(&self, path: &CandPath, e_id: u32, end: End) -> bool {
        if path.edges.len() >= self.params.k || path.contains_edge(e_id) {
            return false;
        }
        let e = self.pre.candidates.edge(e_id);
        let anchor = match end {
            End::Front => path.front_stop(),
            End::Back => path.back_stop(),
        };
        if e.u != anchor && e.v != anchor {
            return false;
        }
        let far = e.other(anchor);
        if path.contains_stop(far) {
            return false;
        }
        match self.turn_class_at(path, far, end) {
            TurnClass::Sharp => false,
            TurnClass::Turn => path.tn < self.params.tn_max,
            TurnClass::Straight => true,
        }
    }

    fn turn_class_at(&self, path: &CandPath, far: u32, end: End) -> TurnClass {
        if path.stops.len() < 2 {
            return TurnClass::Straight;
        }
        let transit = &self.city.transit;
        let pos = |s: u32| transit.stop(s).pos;
        let angle = match end {
            End::Back => {
                let n = path.stops.len();
                turn_angle(&pos(path.stops[n - 2]), &pos(path.stops[n - 1]), &pos(far))
            }
            End::Front => turn_angle(&pos(far), &pos(path.stops[0]), &pos(path.stops[1])),
        };
        TurnClass::from_angle(angle)
    }

    /// Appends `e_id` to `path` at `end`; returns false (path unchanged in
    /// any meaningful way) if the extension is infeasible.
    fn try_append(&self, path: &mut CandPath, e_id: u32, end: End) -> bool {
        if !self.extension_feasible(path, e_id, end) {
            return false;
        }
        let e = self.pre.candidates.edge(e_id);
        let anchor = match end {
            End::Front => path.front_stop(),
            End::Back => path.back_stop(),
        };
        let far = e.other(anchor);
        if self.turn_class_at(path, far, end) == TurnClass::Turn {
            path.tn += 1;
        }
        match end {
            End::Front => {
                path.stops.insert(0, far);
                path.edges.insert(0, e_id);
            }
            End::Back => {
                path.stops.push(far);
                path.edges.push(e_id);
            }
        }
        path.demand_sum += e.demand;
        if !self.cfg.online_scoring {
            path.obj += self.le_values[e_id as usize];
        }
        path.bound.append(self.bound_list, e_id);
        true
    }

    /// Converts the winning path into a reported plan, re-scoring its
    /// connectivity with the SLQ estimator (the paper does the same for
    /// ETA-Pre's final answer, Fig. 9).
    pub(crate) fn plan_from(&self, cp: &CandPath, w: f64) -> RoutePlan {
        let pre = self.pre;
        let cands = &pre.candidates;
        let new_stop_pairs = cands.new_stop_pairs(&cp.edges);
        let conn = online_increment_in(
            &pre.estimator,
            pre.base_trace,
            &mut EdgeOverlay::empty(&pre.base_adj),
            &mut LanczosWorkspace::new(),
            &new_stop_pairs,
        );
        let demand = cp.demand_sum;
        let objective = pre.objective(w, demand, conn);
        let length_m = cp.edges.iter().map(|&e| cands.edge(e).length_m).sum();
        RoutePlan {
            stops: cp.stops.clone(),
            cand_edges: cp.edges.clone(),
            new_stop_pairs,
            demand,
            conn_increment: conn,
            objective,
            turns: cp.tn,
            length_m,
        }
    }
}

/// The shared best-first frontier plus all merge-side state: incumbent,
/// domination table, iteration/trace accounting.
///
/// All mutation happens on the driving thread — draining and merging are
/// sequential by construction, which is what makes the engine's output
/// independent of worker scheduling.
pub(crate) struct Frontier {
    q: BinaryHeap<QEntry>,
    dt: HashMap<(u32, u32), f64>,
    seq: u64,
    domination: bool,
    k: usize,
    tn_max: u32,
    it_max: u64,
    record_every: u64,
    /// Best objective found so far (the incumbent `O_max`).
    pub o_max: f64,
    /// The incumbent path.
    pub best: Option<CandPath>,
    /// Queue polls performed.
    pub it: u64,
    /// Convergence trace `(iteration, best objective so far)`.
    pub trace: Vec<(u64, f64)>,
    /// Objective evaluations, accumulated in merge order.
    pub evaluations: u64,
}

impl Frontier {
    pub(crate) fn new(cfg: &ModeConfig, params: &CtBusParams) -> Self {
        Frontier {
            q: BinaryHeap::new(),
            dt: HashMap::new(),
            seq: 0,
            domination: cfg.domination,
            k: params.k,
            tn_max: params.tn_max,
            it_max: params.it_max,
            record_every: params.record_every,
            o_max: f64::NEG_INFINITY,
            best: None,
            it: 0,
            trace: Vec::new(),
            evaluations: 0,
        }
    }

    /// Merges one evaluated seed (Algorithm 1 lines 22–27): update the
    /// incumbent, enqueue unconditionally.
    pub(crate) fn push_seed(&mut self, path: CandPath) {
        if path.obj > self.o_max {
            self.o_max = path.obj;
            self.best = Some(path.clone());
        }
        self.q.push(QEntry { ub: path.ub, seq: self.seq, path });
        self.seq += 1;
    }

    /// Seals the seeding phase: records the trace origin.
    pub(crate) fn finish_seeding(&mut self) {
        self.trace.push((0, self.o_max.max(0.0)));
    }

    /// Drains the next epoch's batch in strict best-first order, stopping
    /// at the batch size, the iteration cap, or the first entry whose
    /// upper bound cannot beat the epoch-start incumbent (at which point
    /// the whole search is exhausted — the heap is ordered by bound).
    pub(crate) fn drain_epoch(&mut self, batch: usize) -> Vec<WorkItem> {
        let mut items = Vec::new();
        while items.len() < batch && self.it < self.it_max {
            let Some(top) = self.q.peek() else { break };
            if top.ub <= self.o_max {
                break;
            }
            let entry = self.q.pop().expect("peeked entry exists");
            self.it += 1;
            if self.it.is_multiple_of(self.record_every) {
                self.trace.push((self.it, self.o_max));
            }
            items.push(WorkItem::Expand(entry.path));
        }
        items
    }

    /// Merges one successor path (lines 14–16 + Algorithm 1's
    /// `further_expansion`, lines 29–34): incumbent update, then the
    /// bound/turn/length gates, the domination table, and the enqueue.
    pub(crate) fn absorb(&mut self, path: CandPath) {
        if path.obj > self.o_max {
            self.o_max = path.obj;
            self.best = Some(path.clone());
        }
        if path.tn >= self.tn_max || path.edges.len() >= self.k || path.ub <= self.o_max {
            return;
        }
        if self.domination {
            let key = path.dt_key();
            let entry = self.dt.entry(key).or_insert(f64::NEG_INFINITY);
            if path.obj <= *entry {
                return;
            }
            *entry = path.obj;
        }
        self.q.push(QEntry { ub: path.ub, seq: self.seq, path });
        self.seq += 1;
    }

    /// Seals the run: appends the final trace point.
    pub(crate) fn finish(&mut self) {
        self.trace.push((self.it, self.o_max.max(0.0)));
    }
}

/// Epoch-scoped shared state of the work-stealing pool.
///
/// **Epoch hand-off protocol.** Earlier revisions synchronized each epoch
/// with a start/end [`std::sync::Barrier`] pair — two full rendezvous per
/// epoch, which short queries (many epochs, tiny batches) paid dearly
/// for. The pool now hands epochs off lock-free: the driver publishes a
/// batch by bumping `epoch` (release) and unparking the workers; each
/// worker re-reads `epoch` (acquire) until it moves, steals until the
/// batch is drained, then decrements `active` — the last one out unparks
/// the driver, which parks until `active` reaches zero. Park/unpark
/// tolerate spurious wakeups on both sides (each wait is a re-checked
/// loop), and the release bump / acquire load pair carries the batch,
/// cursor, and `active` writes across to the workers.
struct PoolShared {
    /// The current epoch's batch (workers read, the driver writes strictly
    /// between epochs, while every worker is parked or winding down).
    batch: RwLock<Vec<WorkItem>>,
    /// Work-stealing cursor into `batch`.
    next: AtomicUsize,
    /// Per-item results, tagged with batch indices for deterministic
    /// merge ordering.
    results: Mutex<Vec<(usize, ExpandOut)>>,
    /// First panic payload caught inside an expansion this epoch; the
    /// driver re-raises it after the epoch completes (a panicking worker
    /// still decrements `active`, so the driver always wakes).
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Raised by the driver before the final epoch bump so workers exit.
    done: AtomicBool,
    /// Epoch counter: bumped (release) to publish a new batch; workers
    /// spin-park until it moves past the value they last served.
    epoch: AtomicU64,
    /// Workers still stealing from the current batch; the driver parks
    /// until the last one decrements this to zero and unparks it.
    active: AtomicUsize,
    /// The driving thread, for end-of-epoch unparking.
    driver: std::thread::Thread,
}

/// Steals items off the current batch into `local` until the cursor runs
/// out. Shared by workers and the driving thread. Never unwinds: a panic
/// inside an expansion is parked in `shared.panic` and the remaining
/// items are abandoned, so every participant still completes the epoch
/// (workers decrement `active` on the way out, waking the driver).
fn steal_loop(shared: &PoolShared, ctx: &mut ExpandCtx<'_>) {
    let batch = shared.batch.read().expect("batch lock not poisoned");
    let mut local: Vec<(usize, ExpandOut)> = Vec::new();
    loop {
        let i = shared.next.fetch_add(1, AtomicOrdering::Relaxed);
        if i >= batch.len() {
            break;
        }
        // ctlint::allow(lock-discipline): the read guard is the batch borrow itself — writers only run between epochs, fenced by the epoch hand-off (workers hold no guard while parked)
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.run_item(&batch[i]))) {
            Ok(out) => local.push((i, out)),
            Err(payload) => {
                let mut slot = shared.panic.lock().expect("panic lock not poisoned");
                slot.get_or_insert(payload);
                // Park the cursor at the end so everyone stops stealing.
                shared.next.store(batch.len(), AtomicOrdering::Relaxed);
                break;
            }
        }
    }
    drop(batch);
    if !local.is_empty() {
        shared.results.lock().expect("results lock not poisoned").extend(local);
    }
}

/// Dispatches `items` across the pool (or inline when no pool is active)
/// and returns the outputs in batch index order.
pub(crate) struct Executor<'scope, 'a> {
    pool: Option<&'scope PoolShared>,
    /// Handles of the pool's parked workers, for epoch-start unparking
    /// (empty when running inline).
    workers: Vec<std::thread::Thread>,
    main_ctx: ExpandCtx<'a>,
}

impl<'scope, 'a> Executor<'scope, 'a> {
    fn inline(main_ctx: ExpandCtx<'a>) -> Self {
        Executor { pool: None, workers: Vec::new(), main_ctx }
    }

    /// The driving thread's expansion context (used for `plan_from`).
    pub(crate) fn ctx(&self) -> &ExpandCtx<'a> {
        &self.main_ctx
    }

    /// Maps `items` through the pool; output `i` corresponds to input `i`.
    pub(crate) fn map(&mut self, items: Vec<WorkItem>) -> Vec<ExpandOut> {
        match self.pool {
            // Single items aren't worth an epoch hand-off; results are
            // identical either way because expansion is pure.
            Some(shared) if items.len() > 1 => {
                {
                    let mut b = shared.batch.write().expect("batch lock not poisoned");
                    *b = items;
                }
                shared.next.store(0, AtomicOrdering::Relaxed);
                // Publish the epoch: `active` and the cursor are written
                // before the release bump, so a worker's acquire load of
                // `epoch` sees them; unpark wakes anyone already parked.
                shared.active.store(self.workers.len(), AtomicOrdering::Relaxed);
                shared.epoch.fetch_add(1, AtomicOrdering::Release);
                for w in &self.workers {
                    w.unpark();
                }
                steal_loop(shared, &mut self.main_ctx);
                // Wait for the stragglers; the last worker out unparks us.
                // Spurious unparks just re-check the counter.
                while shared.active.load(AtomicOrdering::Acquire) != 0 {
                    std::thread::park();
                }
                if let Some(payload) = shared.panic.lock().expect("panic lock not poisoned").take()
                {
                    // All workers are parked awaiting the next epoch;
                    // unwinding runs ShutdownGuard::drop, which releases
                    // and joins them before the panic propagates.
                    std::panic::resume_unwind(payload);
                }
                let mut tagged =
                    std::mem::take(&mut *shared.results.lock().expect("results lock not poisoned"));
                tagged.sort_unstable_by_key(|(i, _)| *i);
                tagged.into_iter().map(|(_, out)| out).collect()
            }
            _ => items.iter().map(|item| self.main_ctx.run_item(item)).collect(),
        }
    }
}

/// Raises the pool's `done` flag and publishes a final epoch so parked
/// workers wake and exit — on normal completion *and* when the driver
/// unwinds (a panic in merge logic must not leave workers parked forever
/// inside `std::thread::scope`'s implicit join).
struct ShutdownGuard<'p> {
    shared: &'p PoolShared,
    workers: Vec<std::thread::Thread>,
}

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.shared.done.store(true, AtomicOrdering::Release);
        self.shared.epoch.fetch_add(1, AtomicOrdering::Release);
        for w in &self.workers {
            w.unpark();
        }
    }
}

/// Runs `drive` with an [`Executor`] backed by `threads` expansion
/// contexts: the driving thread plus `threads − 1` scoped workers parked
/// on the epoch counter. With `threads <= 1` no pool is created and every
/// item runs inline — same results either way.
pub(crate) fn with_executor<'a, R>(
    threads: usize,
    mk_ctx: &(dyn Fn() -> ExpandCtx<'a> + Sync),
    drive: impl FnOnce(&mut Executor<'_, 'a>) -> R,
) -> R {
    if threads <= 1 {
        return drive(&mut Executor::inline(mk_ctx()));
    }
    let shared = PoolShared {
        batch: RwLock::new(Vec::new()),
        next: AtomicUsize::new(0),
        results: Mutex::new(Vec::new()),
        panic: Mutex::new(None),
        done: AtomicBool::new(false),
        epoch: AtomicU64::new(0),
        active: AtomicUsize::new(0),
        driver: std::thread::current(),
    };
    std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(threads - 1);
        for _ in 0..threads - 1 {
            let shared = &shared;
            let handle = s.spawn(move || {
                let mut ctx = mk_ctx();
                let mut seen = 0u64;
                loop {
                    // Await the next epoch. A spurious wakeup (or a park
                    // that returns immediately because an unpark token was
                    // already banked) just re-checks the counter.
                    loop {
                        let e = shared.epoch.load(AtomicOrdering::Acquire);
                        if e != seen {
                            seen = e;
                            break;
                        }
                        std::thread::park();
                    }
                    if shared.done.load(AtomicOrdering::Acquire) {
                        return;
                    }
                    steal_loop(shared, &mut ctx);
                    // Last worker out hands the epoch back to the driver.
                    if shared.active.fetch_sub(1, AtomicOrdering::AcqRel) == 1 {
                        shared.driver.unpark();
                    }
                }
            });
            workers.push(handle.thread().clone());
        }
        let _guard = ShutdownGuard { shared: &shared, workers: workers.clone() };
        let mut executor = Executor { pool: Some(&shared), workers, main_ctx: mk_ctx() };
        drive(&mut executor)
    })
}
