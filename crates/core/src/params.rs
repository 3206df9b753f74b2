//! Planner parameters (paper §3.2.3 and §7.1.4).

use ct_linalg::trace::TraceParams;
use serde::{Deserialize, Serialize};

/// Threading and batching configuration for the parallel stages (the Δ(e)
/// pre-computation sweep and the ETA frontier expansion).
///
/// **Determinism contract:** results never depend on `threads` — every
/// parallel stage in this workspace is a pure fan-out merged in a fixed
/// order, so any thread count (including the auto setting) produces
/// bit-identical output. `batch` *is* part of the algorithm: the planner
/// drains up to `batch` frontier entries per epoch, so two runs agree only
/// if their `batch` values agree (see `docs/ALGORITHMS.md`, "Determinism
/// contract").
///
/// ```
/// use ct_core::Parallelism;
/// let p = Parallelism::default();
/// assert_eq!(p.threads, 0); // 0 = use all available cores
/// assert!(p.worker_threads() >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Parallelism {
    /// Worker threads for parallel stages; `0` means "use
    /// [`std::thread::available_parallelism`]". Never affects results.
    pub threads: usize,
    /// Frontier entries drained per expansion epoch (§5's Algorithm 1 run
    /// batch-synchronously). Larger batches expose more parallelism but
    /// deviate further from strict best-first order; `1` reproduces the
    /// paper's sequential poll-one-expand-one loop exactly. Affects
    /// results; fixed per run regardless of thread count.
    pub batch: usize,
}

impl Parallelism {
    /// All available cores, default batch size.
    pub fn auto() -> Self {
        Parallelism { threads: 0, batch: 64 }
    }

    /// The resolved worker count (`threads`, or the machine's available
    /// parallelism when `threads == 0`).
    pub fn worker_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        } else {
            self.threads
        }
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

/// All knobs of the CT-Bus problem and its solver.
///
/// ```
/// let mut p = ct_core::CtBusParams::paper_defaults();
/// p.k = 12;
/// p.parallelism.threads = 2; // pin the parallel stages; results are unchanged
/// assert!(p.validate().is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CtBusParams {
    /// Maximum number of route edges `k` (paper default 30).
    pub k: usize,
    /// Demand/connectivity weight `w ∈ [0, 1]` (paper default 0.5;
    /// `w = 1` is demand-only, `w = 0` connectivity-only).
    pub w: f64,
    /// Stop spacing threshold τ in meters (paper: 0.5 km).
    pub tau_m: f64,
    /// Turn budget `Tn` (paper default 3).
    pub tn_max: u32,
    /// Seeding number `sn`: how many top candidates start the expansion
    /// (paper default 5000).
    pub sn: usize,
    /// Iteration cap (paper uses 100 000 in Figs. 9–12).
    pub it_max: u64,
    /// Record the best objective every this many iterations (paper: 100).
    pub record_every: u64,
    /// Hutchinson probes `s` for connectivity estimation (paper default 50).
    pub trace_probes: usize,
    /// Lanczos steps `t` per probe (paper default 10).
    pub lanczos_steps: usize,
    /// Seed for the frozen probe vectors (determinism).
    pub probe_seed: u64,
    /// New candidate edges whose road path exceeds `tau_m × this factor`
    /// are discarded as unrealistic bus hops.
    pub max_detour_factor: f64,
    /// Threading/batching of the parallel stages (Δ(e) sweep, frontier
    /// expansion). `threads` never affects results; `batch` does (see
    /// [`Parallelism`]).
    #[serde(default)]
    pub parallelism: Parallelism,
}

impl CtBusParams {
    /// Paper-default parameters (§7.1.4).
    pub fn paper_defaults() -> Self {
        CtBusParams {
            k: 30,
            w: 0.5,
            tau_m: 500.0,
            tn_max: 3,
            sn: 5000,
            it_max: 100_000,
            record_every: 100,
            trace_probes: 50,
            lanczos_steps: 10,
            probe_seed: 0xC7B5,
            max_detour_factor: 6.0,
            parallelism: Parallelism::auto(),
        }
    }

    /// Scaled-down parameters for unit tests and small synthetic cities.
    pub fn small_defaults() -> Self {
        CtBusParams {
            k: 8,
            w: 0.5,
            tau_m: 450.0,
            tn_max: 3,
            sn: 300,
            it_max: 4_000,
            record_every: 50,
            trace_probes: 16,
            lanczos_steps: 8,
            probe_seed: 0xC7B5,
            max_detour_factor: 6.0,
            parallelism: Parallelism { threads: 0, batch: 16 },
        }
    }

    /// The trace-estimation parameters implied by this configuration.
    pub fn trace_params(&self) -> TraceParams {
        TraceParams { probes: self.trace_probes, lanczos_steps: self.lanczos_steps }
    }

    /// Validates parameter ranges; returns problems (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.k < 1 {
            problems.push("k must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.w) {
            problems.push(format!("w must be in [0, 1], got {}", self.w));
        }
        // Written so NaN fails too: a NaN or infinite τ would silently
        // empty or explode the candidate pool.
        if !(self.tau_m > 0.0 && self.tau_m.is_finite()) {
            problems.push(format!("tau_m must be positive and finite, got {}", self.tau_m));
        }
        if self.trace_probes == 0 {
            problems.push("trace_probes must be positive".into());
        }
        if self.lanczos_steps == 0 {
            problems.push("lanczos_steps must be positive".into());
        }
        if !(self.max_detour_factor >= 1.0 && self.max_detour_factor.is_finite()) {
            problems.push(format!(
                "max_detour_factor must be finite and at least 1, got {}",
                self.max_detour_factor
            ));
        }
        if self.parallelism.batch == 0 {
            problems.push("parallelism.batch must be at least 1".into());
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_7() {
        let p = CtBusParams::paper_defaults();
        assert_eq!(p.k, 30);
        assert_eq!(p.w, 0.5);
        assert_eq!(p.tau_m, 500.0);
        assert_eq!(p.tn_max, 3);
        assert_eq!(p.sn, 5000);
        assert_eq!(p.trace_probes, 50);
        assert_eq!(p.lanczos_steps, 10);
        assert!(p.validate().is_empty());
    }

    #[test]
    fn invalid_params_are_reported() {
        let mut p = CtBusParams::paper_defaults();
        p.w = 1.5;
        p.k = 0;
        p.tau_m = -1.0;
        let problems = p.validate();
        assert_eq!(problems.len(), 3);

        // The trace estimator needs at least one probe and one step.
        let mut p = CtBusParams::paper_defaults();
        p.trace_probes = 0;
        p.lanczos_steps = 0;
        assert_eq!(
            p.validate(),
            ["trace_probes must be positive", "lanczos_steps must be positive"]
        );

        // Non-finite values pass `<`/`<=` range tests, so each is checked.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut p = CtBusParams::paper_defaults();
            p.w = bad;
            p.tau_m = bad;
            p.max_detour_factor = bad;
            assert_eq!(p.validate().len(), 3, "{bad}: {:?}", p.validate());
        }
    }

    #[test]
    fn parallelism_resolution_and_validation() {
        assert!(Parallelism::auto().worker_threads() >= 1);
        assert_eq!(Parallelism { threads: 3, batch: 8 }.worker_threads(), 3);
        let mut p = CtBusParams::paper_defaults();
        p.parallelism.batch = 0;
        assert_eq!(p.validate().len(), 1);
    }

    #[test]
    fn trace_params_plumbed() {
        let p = CtBusParams::paper_defaults();
        let t = p.trace_params();
        assert_eq!(t.probes, 50);
        assert_eq!(t.lanczos_steps, 10);
    }
}
