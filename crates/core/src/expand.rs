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
//!    an [`ExpandCtx`] — a `Send` context borrowing the pre-computation
//!    immutably and owning thread-local Lanczos/overlay scratch. Workers
//!    pull batch indices off an atomic counter (work stealing, same
//!    discipline as `precompute::sweep_deltas`); every expansion is a pure
//!    function of the drained path and the frozen probes, so the schedule
//!    cannot affect values.
//!
//!    The pool lives for the whole run. Each epoch goes out to every
//!    worker as an `Arc` of the batch and its cursor, over a bounded
//!    channel; the driver steals alongside, then receives one report per
//!    worker: its tagged outputs, or the panic it caught.
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

use std::any::Any;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};

use ct_linalg::{EdgeOverlay, LanczosWorkspace};
use ct_spatial::TurnClass;

use crate::eta::StopReason;
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
/// Borrows the [`Precomputed`] immutably (shared across workers) and owns
/// its scoring scratch, so values are `Send` and every method is a pure
/// function of its inputs and the frozen probes — the property the
/// engine's bit-identity contract rests on. Turn classes come from the
/// candidate pool's turn table, so no geometry is computed here.
pub(crate) struct ExpandCtx<'a> {
    pre: &'a Precomputed,
    params: &'a CtBusParams,
    cfg: ModeConfig,
    /// Effective objective weight (mode override applied).
    w: f64,
    /// The run's connectivity-increment bound `O↑λ` (Lemma 4 at the run's
    /// `k`); 0 unless the mode scores online.
    conn_ub: f64,
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
    /// An online mode's context reads the state's spectrum head, which the
    /// first context of a state computes; a linear mode's never touches it.
    pub(crate) fn new(
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
        let conn_ub = if cfg.online_scoring { pre.conn_ub(params.k) } else { 0.0 };
        ExpandCtx { pre, params, cfg, w, conn_ub, le_values, bound_list, scratch, memo, evals: 0 }
    }

    /// Whether candidate `id` may appear on a route under the mode.
    fn admissible(&self, id: u32) -> bool {
        !self.cfg.new_edges_only || !self.pre.candidates.edge(id).existing
    }

    /// The path-level objective upper bound from the incremental bound.
    fn ub_of(&self, bound: &IncrementalBound) -> f64 {
        if self.cfg.online_scoring {
            self.pre.objective(self.w, bound.ub, self.conn_ub)
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

    /// The class of the junction that appending stop `far` at `end` makes.
    fn turn_class_at(&self, path: &CandPath, far: u32, end: End) -> TurnClass {
        let n = path.stops.len();
        if n < 2 {
            return TurnClass::Straight;
        }
        let turns = self.pre.candidates.turns();
        match end {
            End::Back => turns.class(path.stops[n - 2], path.stops[n - 1], far),
            End::Front => turns.class(far, path.stops[0], path.stops[1]),
        }
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
}

/// Converts the winning path into a reported plan, re-scoring its
/// connectivity with the SLQ estimator (the paper does the same for
/// ETA-Pre's final answer, Fig. 9).
pub(crate) fn plan_from(pre: &Precomputed, cp: &CandPath, w: f64) -> RoutePlan {
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

    /// Why the epoch loop ended, read off the queue once it has: an empty
    /// queue, a best bound that cannot beat the incumbent, or else the
    /// iteration cap (the only other way [`Frontier::drain_epoch`] comes
    /// back empty).
    pub(crate) fn stop_reason(&self) -> StopReason {
        match self.q.peek() {
            None => StopReason::Exhausted,
            Some(top) if top.ub <= self.o_max => StopReason::Bound,
            Some(_) => {
                debug_assert_eq!(self.it, self.it_max, "the search stops early only at the cap");
                StopReason::IterationCap
            }
        }
    }
}

/// One epoch as the pool shares it: the drained batch and its cursor.
/// The channel send publishes the batch, so the cursor, which only hands
/// out indices, can be `Relaxed`.
struct Epoch {
    items: Vec<WorkItem>,
    next: AtomicUsize,
}

/// One participant's share of an epoch: its outputs tagged with batch
/// indices, or the payload of the panic it caught.
type Report = Result<Vec<(usize, ExpandOut)>, Box<dyn Any + Send>>;

/// Steals items off `epoch` until the cursor runs out. Shared by workers
/// and the driving thread. Never unwinds: a panic inside an expansion
/// moves the cursor to the end of the batch, so everyone stops stealing,
/// and comes back as the report.
fn steal(epoch: &Epoch, ctx: &mut ExpandCtx<'_>) -> Report {
    let mut local = Vec::new();
    loop {
        let i = epoch.next.fetch_add(1, AtomicOrdering::Relaxed);
        let Some(item) = epoch.items.get(i) else { return Ok(local) };
        match std::panic::catch_unwind(AssertUnwindSafe(|| ctx.run_item(item))) {
            Ok(out) => local.push((i, out)),
            Err(payload) => {
                epoch.next.store(epoch.items.len(), AtomicOrdering::Relaxed);
                return Err(payload);
            }
        }
    }
}

/// Dispatches `items` across the pool (or inline when it has no workers)
/// and returns the outputs in batch index order.
pub(crate) struct Executor<'a> {
    /// Per worker: the channel epochs go out on and the channel its one
    /// report per epoch comes back on (empty when running inline). Only
    /// the worker holds its report sender, so a dead worker shows up as a
    /// failed `recv` instead of a wait that never ends.
    workers: Vec<(SyncSender<Arc<Epoch>>, Receiver<Report>)>,
    main_ctx: ExpandCtx<'a>,
}

impl Executor<'_> {
    /// Maps `items` through the pool; output `i` corresponds to input `i`.
    pub(crate) fn map(&mut self, items: Vec<WorkItem>) -> Vec<ExpandOut> {
        // Single items aren't worth an epoch hand-off; results are
        // identical either way because expansion is pure.
        if self.workers.is_empty() || items.len() <= 1 {
            return items.iter().map(|item| self.main_ctx.run_item(item)).collect();
        }
        let epoch = Arc::new(Epoch { items, next: AtomicUsize::new(0) });
        for (epochs, _) in &self.workers {
            // Fails only for a dead worker, whose `recv` below says so.
            let _ = epochs.send(Arc::clone(&epoch));
        }
        let mut reports = vec![steal(&epoch, &mut self.main_ctx)];
        for (_, report) in &self.workers {
            reports.push(report.recv().expect("expansion workers report every epoch"));
        }
        // Every participant has stopped stealing: re-raise the first
        // caught panic, or merge in batch index order.
        let mut tagged: Vec<(usize, ExpandOut)> = reports
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            .into_iter()
            .flatten()
            .collect();
        tagged.sort_unstable_by_key(|(i, _)| *i);
        tagged.into_iter().map(|(_, out)| out).collect()
    }
}

/// Runs `drive` with an [`Executor`] backed by `threads` expansion
/// contexts: the driving thread plus `threads − 1` scoped workers, each
/// waiting on its epoch channel. With `threads <= 1` no worker is spawned
/// and every item runs inline — same results either way. Dropping the
/// executor drops the epoch senders, which ends the workers, whether
/// `drive` returns or unwinds.
///
/// Only online plans ([`crate::PlannerMode::Eta`]) reach this with more
/// than one thread; linear modes run inline (`eta::execute_plan_with`).
/// The workers live for the whole run because a plan is tens of epochs
/// (~38 of 16 paths at k = 10, sn = 300, it_max = 600), and a spawn per
/// epoch costs the same whatever the epoch holds: when linear plans still
/// ran here, spawning scoped threads per epoch measured 4.17 against
/// 3.01 ms p50 (EtaPre at 2 threads on chicago_like, 2-core host), about
/// 30 µs per epoch. An online epoch on medium takes milliseconds, so the
/// persistent pool saves a smaller share there, but it still saves it.
pub(crate) fn with_executor<'a, R>(
    threads: usize,
    mk_ctx: &(dyn Fn() -> ExpandCtx<'a> + Sync),
    drive: impl FnOnce(&mut Executor<'a>) -> R,
) -> R {
    std::thread::scope(|s| {
        let workers = (1..threads)
            .map(|_| {
                let (epoch_tx, epochs) = sync_channel::<Arc<Epoch>>(1);
                let (report_tx, reports) = sync_channel(1);
                s.spawn(move || {
                    let mut ctx = mk_ctx();
                    for epoch in epochs {
                        // Fails only once the executor is gone, which ends `epochs` too.
                        let _ = report_tx.send(steal(&epoch, &mut ctx));
                    }
                });
                (epoch_tx, reports)
            })
            .collect();
        drive(&mut Executor { workers, main_ctx: mk_ctx() })
    })
}

#[cfg(test)]
mod tests {
    use std::panic::catch_unwind;
    use std::sync::mpsc;
    use std::time::Duration;

    use ct_data::{CityConfig, DemandModel};

    use super::*;
    use crate::fault::panic_message;
    use crate::PlannerMode;

    fn fixture() -> (Precomputed, CtBusParams) {
        let city = CityConfig::small().seed(21).generate();
        let demand = DemandModel::from_city(&city);
        let params = CtBusParams::small_defaults();
        let pre = Precomputed::build(&city, &demand, &params);
        (pre, params)
    }

    /// Maps `items` on a pool of `threads` linear EtaPre contexts; every
    /// context build runs `check` first.
    fn run_pool(
        (pre, params): &(Precomputed, CtBusParams),
        threads: usize,
        items: Vec<WorkItem>,
        check: impl Fn() + Sync,
    ) -> Vec<ExpandOut> {
        let cfg = PlannerMode::EtaPre.config();
        let le_values = pre.le_values(params.w);
        let list = RankedList::new(&le_values);
        let mk_ctx = || {
            check();
            ExpandCtx::new(pre, params, cfg, params.w, &le_values, &list, None)
        };
        with_executor(threads, &mk_ctx, |executor| executor.map(items))
    }

    #[test]
    fn a_panicking_expansion_reaches_the_caller_with_its_message() {
        let fx = fixture();
        for threads in [1, 2, 4] {
            // Candidate `u32::MAX` indexes past the pool; its neighbours
            // are fine.
            let items = vec![WorkItem::Seed(0), WorkItem::Seed(u32::MAX), WorkItem::Seed(1)];
            let payload =
                catch_unwind(AssertUnwindSafe(|| run_pool(&fx, threads, items, || ()).len()))
                    .expect_err("the expansion's panic reaches the caller");
            let msg = panic_message(payload);
            assert!(
                msg.contains("index out of bounds") && msg.contains(&u32::MAX.to_string()),
                "threads={threads}: {msg}"
            );
        }
    }

    #[test]
    fn a_worker_that_cannot_build_its_context_fails_the_run() {
        // The run goes on a helper thread, so a pool that waits for the
        // dead worker forever fails this test by the timeout instead of
        // hanging it.
        let fx = fixture();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let driver = std::thread::current().id();
            let check = || {
                if std::thread::current().id() != driver {
                    panic!("worker context build failed on purpose");
                }
            };
            let items = (0..8).map(WorkItem::Seed).collect();
            let outcome = catch_unwind(AssertUnwindSafe(|| run_pool(&fx, 2, items, check)));
            let _ = tx.send(outcome.map(|outs| outs.len()).map_err(panic_message));
        });
        let outcome = rx.recv_timeout(Duration::from_secs(30)).expect("the run ends, not hangs");
        assert!(outcome.is_err(), "a dead worker must fail the run, got {outcome:?}");
    }
}
