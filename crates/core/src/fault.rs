//! Deterministic fault injection for the serving path.
//!
//! A long-lived planning service must assume that *anything* on its commit
//! path can fail — a numerical edge case panicking deep in the Δ-refresh,
//! a slow apply stalling the writer queue, an I/O layer surfacing an
//! error mid-publish. This module provides the failure *model* those
//! defenses are tested against: named **failpoints** compiled into the
//! serving code ([`site`]) and a declarative **schedule** of what should
//! go wrong at each of them ([`FailPlan`]).
//!
//! Design constraints, in order:
//!
//! * **Deterministic.** A fault fires on the *n-th hit* of its site —
//!   never on wall-clock time, never on a global RNG — so a failing chaos
//!   run replays exactly from its [`FailPlan`] (and, for generated
//!   schedules, from the [`FailPlan::seeded`] seed). Hit counters are
//!   per-site atomics; on the single-writer commit path every hit is
//!   serialized, so the schedule is exact, not probabilistic.
//! * **Zero-cost when disabled.** Production code holds an
//!   `Option<Arc<FaultInjector>>` and calls [`hit`]; the disabled path is
//!   one `None` check, no locks, no allocation, no counter traffic.
//! * **Expressive enough to model real failures.** Three actions:
//!   [`FaultAction::Panic`] (the bug class that used to poison every
//!   lock), [`FaultAction::Delay`] (slow commits, for overload/shedding
//!   tests — the *trigger* is hit-count deterministic; only the injected
//!   latency consumes wall time), and [`FaultAction::Error`] (a failure
//!   the code reports instead of unwinding).
//!
//! The serving layer ([`crate::serve::ServeState`]) treats every one of
//! these as survivable: see the module docs there for what `Failed`,
//! `Invalid`, and `Overloaded` outcomes mean to clients, and
//! `tests/serve_chaos.rs` for the suite that holds it to that.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The failpoint sites compiled into the serving path.
///
/// Site names are plain strings so harnesses can invent their own, but the
/// serving layer only consults these four.
pub mod site {
    /// Start of a commit's apply phase, before any session work
    /// ([`crate::serve::ServeState::commit`]).
    pub const COMMIT_APPLY: &str = "serve.commit.apply";
    /// After the successor snapshot is fully built, before the publish
    /// critical section.
    pub const SNAPSHOT_PUBLISH: &str = "serve.commit.publish";
    /// Inside the publish critical section, **while the snapshot write
    /// lock is held** — a panic here is the lock-poisoning worst case.
    pub const SNAPSHOT_SWAP: &str = "serve.commit.swap";
    /// Mid-commit inside [`crate::session::PlanningSession::commit`],
    /// after the session's city/demand snapshots have been replaced but
    /// before the Δ-refresh — the deepest point a commit can die at.
    pub const SESSION_REFRESH: &str = "session.commit.refresh";
    /// Every site the serving path consults, for schedule generators.
    pub const ALL: [&str; 4] = [COMMIT_APPLY, SNAPSHOT_PUBLISH, SNAPSHOT_SWAP, SESSION_REFRESH];
}

/// What a triggered failpoint does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a message naming the site and hit number. Exercises the
    /// unwind path (and, at [`site::SNAPSHOT_SWAP`], lock poisoning).
    Panic,
    /// Sleep for `millis` before returning success. The trigger is
    /// hit-count deterministic; only the injected latency is wall time.
    Delay {
        /// Injected latency in milliseconds.
        millis: u64,
    },
    /// Return a structured [`FaultError`] for the caller to surface.
    Error,
}

#[derive(Debug, Clone, Copy)]
struct Rule {
    /// 1-based hit number the rule first fires on.
    first: u64,
    /// Consecutive hits (starting at `first`) the rule fires for.
    times: u64,
    action: FaultAction,
}

/// A declarative fault schedule: named sites → n-th-hit actions.
///
/// Build one with the combinators, or generate a deterministic pseudo-random
/// schedule with [`FailPlan::seeded`], then compile it into the shared
/// registry with [`FailPlan::injector`]:
///
/// ```
/// use ct_core::fault::{site, FailPlan};
/// let faults = FailPlan::new()
///     .panic_at(site::COMMIT_APPLY, 1) // first commit attempt dies
///     .delay_at(site::COMMIT_APPLY, 2, 5) // second is slow
///     .error_at(site::SNAPSHOT_PUBLISH, 2) // …and then fails to publish
///     .injector();
/// assert!(faults.check(site::SNAPSHOT_SWAP).is_ok()); // unscheduled site
/// ```
#[derive(Debug, Clone, Default)]
pub struct FailPlan {
    rules: Vec<(String, Rule)>,
}

impl FailPlan {
    /// An empty schedule (no site ever fires).
    pub fn new() -> FailPlan {
        FailPlan::default()
    }

    /// Schedules `action` on hits `nth .. nth + times` of `site`
    /// (1-based). Earlier rules win when ranges overlap.
    ///
    /// # Panics
    /// Panics if `nth` or `times` is zero (hits are 1-based).
    pub fn on(mut self, site: &str, nth: u64, times: u64, action: FaultAction) -> FailPlan {
        assert!(nth >= 1, "failpoint hits are 1-based");
        assert!(times >= 1, "a rule must fire at least once");
        self.rules.push((site.to_string(), Rule { first: nth, times, action }));
        self
    }

    /// Panic on the `nth` hit of `site`, once.
    pub fn panic_at(self, site: &str, nth: u64) -> FailPlan {
        self.on(site, nth, 1, FaultAction::Panic)
    }

    /// Sleep `millis` on the `nth` hit of `site`, once.
    // ctlint::allow(dead-pub): fault-schedule API; the chaos suite (crates/core/tests/serve_chaos.rs) injects delays with it
    pub fn delay_at(self, site: &str, nth: u64, millis: u64) -> FailPlan {
        self.on(site, nth, 1, FaultAction::Delay { millis })
    }

    /// Surface a [`FaultError`] on the `nth` hit of `site`, once.
    // ctlint::allow(dead-pub): fault-schedule API; the chaos suite (crates/core/tests/serve_chaos.rs) injects errors with it
    pub fn error_at(self, site: &str, nth: u64) -> FailPlan {
        self.on(site, nth, 1, FaultAction::Error)
    }

    /// Appends every rule of `other` (after this plan's own, so this
    /// plan's rules win overlaps).
    pub fn merged(mut self, other: FailPlan) -> FailPlan {
        self.rules.extend(other.rules);
        self
    }

    /// A deterministic pseudo-random schedule: `faults` rules spread over
    /// `sites`, each firing once at a hit in `1..=horizon`. Same seed ⇒
    /// same schedule, byte for byte — the generator is a local splitmix64,
    /// no global RNG, so chaos runs replay exactly.
    ///
    /// Actions are drawn from all three kinds; delays stay short (≤ 8 ms)
    /// so schedules perturb timing without dominating a test's budget.
    pub fn seeded(seed: u64, sites: &[&str], faults: usize, horizon: u64) -> FailPlan {
        let mut state = seed;
        let mut next = move || -> u64 {
            // splitmix64: the standard 64-bit mixer, local state only.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut plan = FailPlan::new();
        if sites.is_empty() {
            return plan;
        }
        for _ in 0..faults {
            // ctlint::allow(panic-path): index is modulo-bounded by len; the empty case returned above
            let site = sites[(next() % sites.len() as u64) as usize];
            let nth = 1 + next() % horizon.max(1);
            let action = match next() % 3 {
                0 => FaultAction::Panic,
                1 => FaultAction::Delay { millis: 1 + next() % 8 },
                _ => FaultAction::Error,
            };
            plan = plan.on(site, nth, 1, action);
        }
        plan
    }

    /// Number of scheduled rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True iff no site ever fires.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Compiles the schedule into a shareable registry.
    pub fn injector(self) -> Arc<FaultInjector> {
        let mut sites: HashMap<String, SiteState> = HashMap::new();
        for (site, rule) in self.rules {
            sites.entry(site).or_default().rules.push(rule);
        }
        Arc::new(FaultInjector {
            sites,
            hits: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        })
    }
}

#[derive(Debug, Default)]
struct SiteState {
    hits: AtomicU64,
    rules: Vec<Rule>,
}

/// An injected, non-unwinding failure surfaced by [`FaultAction::Error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The failpoint that fired.
    pub site: String,
    /// Which hit of the site fired (1-based).
    pub hit: u64,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {} (hit {})", self.site, self.hit)
    }
}

impl std::error::Error for FaultError {}

/// Counters of what an injector actually did (see
/// [`FaultInjector::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Failpoint hits observed across all scheduled sites.
    pub hits: u64,
    /// Panics fired.
    pub panics: u64,
    /// Delays fired.
    pub delays: u64,
    /// Errors fired.
    pub errors: u64,
}

impl FaultStats {
    /// Total faults fired (panics + delays + errors).
    pub fn fired(&self) -> u64 {
        self.panics + self.delays + self.errors
    }
}

/// The compiled failpoint registry: per-site hit counters plus the rules
/// that decide what each hit does. Shared behind an `Arc` between the
/// serving state and the harness that wants to inspect it afterwards.
#[derive(Debug)]
pub struct FaultInjector {
    sites: HashMap<String, SiteState>,
    hits: AtomicU64,
    panics: AtomicU64,
    delays: AtomicU64,
    errors: AtomicU64,
}

impl FaultInjector {
    /// Registers one hit of `site` and runs whatever the schedule says.
    ///
    /// Sites without scheduled rules return `Ok(())` without counter
    /// traffic, so an injector scheduling only commit faults never slows
    /// an unrelated path down.
    ///
    /// # Panics
    /// Panics iff the matching rule's action is [`FaultAction::Panic`] —
    /// that is the point.
    pub fn check(&self, site: &str) -> Result<(), FaultError> {
        let Some(state) = self.sites.get(site) else { return Ok(()) };
        let n = state.hits.fetch_add(1, Ordering::Relaxed) + 1;
        self.hits.fetch_add(1, Ordering::Relaxed);
        for rule in &state.rules {
            if n >= rule.first && n - rule.first < rule.times {
                return self.fire(site, n, rule.action);
            }
        }
        Ok(())
    }

    fn fire(&self, site: &str, hit: u64, action: FaultAction) -> Result<(), FaultError> {
        match action {
            FaultAction::Panic => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                // ctlint::allow(panic-path): the injected panic IS the fault being tested; serve's catch_unwind is the consumer
                panic!("injected fault at {site} (hit {hit})");
            }
            FaultAction::Delay { millis } => {
                self.delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(millis));
                Ok(())
            }
            FaultAction::Error => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                Err(FaultError { site: site.to_string(), hit })
            }
        }
    }

    /// Hits observed at `site` so far (0 for unscheduled sites).
    pub fn hits(&self, site: &str) -> u64 {
        self.sites.get(site).map_or(0, |s| s.hits.load(Ordering::Relaxed))
    }

    /// Point-in-time counters of hits and fired faults.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            hits: self.hits.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// The failpoint call production code compiles in: one branch when
/// `faults` is `None`, a registry lookup otherwise.
#[inline]
pub fn hit(faults: &Option<Arc<FaultInjector>>, site: &str) -> Result<(), FaultError> {
    match faults {
        None => Ok(()),
        Some(injector) => injector.check(site),
    }
}

/// [`hit`] for call sites without an error channel (the session commit
/// path): an [`FaultAction::Error`] escalates to a panic, which the
/// serving layer's `catch_unwind` turns into a `Failed` outcome anyway.
#[inline]
pub(crate) fn hit_or_panic(faults: &Option<Arc<FaultInjector>>, site: &str) {
    if let Some(injector) = faults {
        if let Err(e) = injector.check(site) {
            // ctlint::allow(panic-path): documented escalation — the commit path has no error channel and serve catches the unwind
            panic!("{e}");
        }
    }
}

/// Best-effort extraction of a panic payload's message (panics carry
/// `&str` or `String` payloads in practice).
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Installs a process-wide panic hook that suppresses the default
/// stderr report for *injected* panics (payload starts with
/// `"injected fault at"`) and delegates every other panic to the previous
/// hook. Chaos harnesses call this once so hundreds of scheduled panics
/// do not drown real diagnostics; production code never should.
pub fn silence_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|m| m.starts_with("injected fault at"));
        if !injected {
            previous(info);
        }
    }));
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn disabled_injection_is_a_noop() {
        let faults: Option<Arc<FaultInjector>> = None;
        for s in site::ALL {
            assert!(hit(&faults, s).is_ok());
        }
    }

    #[test]
    fn unscheduled_sites_never_fire_or_count() {
        let injector = FailPlan::new().panic_at(site::COMMIT_APPLY, 5).injector();
        assert!(injector.check(site::SNAPSHOT_PUBLISH).is_ok());
        assert_eq!(injector.hits(site::SNAPSHOT_PUBLISH), 0);
        assert_eq!(injector.stats().hits, 0);
    }

    #[test]
    fn error_fires_on_exactly_the_scheduled_hits() {
        let injector = FailPlan::new().on("s", 2, 2, FaultAction::Error).injector();
        assert!(injector.check("s").is_ok()); // hit 1
        assert_eq!(injector.check("s"), Err(FaultError { site: "s".into(), hit: 2 }));
        assert_eq!(injector.check("s"), Err(FaultError { site: "s".into(), hit: 3 }));
        assert!(injector.check("s").is_ok()); // hit 4: rule exhausted
        assert_eq!(injector.hits("s"), 4);
        let stats = injector.stats();
        assert_eq!((stats.hits, stats.errors, stats.panics), (4, 2, 0));
    }

    #[test]
    fn panic_action_panics_with_site_and_hit() {
        let injector = FailPlan::new().panic_at("boom", 1).injector();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            injector.check("boom").ok();
        }))
        .unwrap_err();
        let msg = panic_message(err);
        assert!(msg.contains("injected fault at boom (hit 1)"), "{msg}");
        assert_eq!(injector.stats().panics, 1);
    }

    #[test]
    fn delay_returns_ok_and_counts() {
        let injector = FailPlan::new().delay_at("slow", 1, 1).injector();
        assert!(injector.check("slow").is_ok());
        assert_eq!(injector.stats().delays, 1);
    }

    #[test]
    fn earlier_rules_win_overlaps() {
        let injector = FailPlan::new()
            .on("s", 1, 1, FaultAction::Error)
            .on("s", 1, 3, FaultAction::Delay { millis: 0 })
            .injector();
        assert!(injector.check("s").is_err(), "first rule must win hit 1");
        assert!(injector.check("s").is_ok(), "second rule takes hit 2");
        assert_eq!(injector.stats().delays, 1);
    }

    #[test]
    fn seeded_schedules_replay_exactly() {
        let a = FailPlan::seeded(42, &site::ALL, 6, 10);
        let b = FailPlan::seeded(42, &site::ALL, 6, 10);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed must give same schedule");
        let c = FailPlan::seeded(43, &site::ALL, 6, 10);
        assert_ne!(format!("{a:?}"), format!("{c:?}"), "different seed should differ");
        assert_eq!(a.len(), 6);
        assert!(FailPlan::seeded(7, &[], 4, 10).is_empty());
    }

    #[test]
    fn hit_or_panic_escalates_errors() {
        let faults = Some(FailPlan::new().error_at("s", 1).injector());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            hit_or_panic(&faults, "s");
        }))
        .unwrap_err();
        assert!(panic_message(err).contains("injected fault at s (hit 1)"));
    }
}
