//! Command-line interface for the `ctbus` binary.
//!
//! Subcommands:
//!
//! * `generate --preset <name> [--seed N] [--out city.json]` — synthesize a
//!   city and snapshot it;
//! * `stats --city city.json` — Table 5-style statistics;
//! * `plan --city city.json [--k N] [--w F] [--tau M] [--tn N] [--mode M]
//!   [--geojson out.geojson]` — plan one route and report it;
//! * `multi --city city.json --routes N [...]` — sequential multi-route
//!   planning (paper §6.3) through one long-lived `PlanningSession`
//!   (commit-aware pre-computation, no per-round rebuild);
//! * `sites --city city.json [--n N] [--w F] [--routes N]` — new-stop site
//!   selection (paper §8 future work); with `--routes N` the session first
//!   plans and commits N routes so selection targets unserved demand;
//! * `augment --city city.json [--k N] [--no-bound true]` — k-edge
//!   connectivity augmentation with Golden–Thompson pruning (paper §8);
//! * `serve --city city.json [--requests N] [--threads N]
//!   [--commit-every N] [--chaos SEED] [--refresh exact|approximate]` —
//!   the concurrent planning service:
//!   worker threads check out sessions from one published snapshot
//!   ([`crate::core::ServeState`]), race what-if plans, and optionally
//!   funnel commits through the single-writer queue; reports throughput,
//!   latency percentiles, and commit outcomes. `--chaos SEED` installs a
//!   deterministic fault schedule (a panic at every registered failpoint
//!   plus seeded extras) on the commit path, retries failed commits, and
//!   reports failure/recovery counters — the run fails unless the service
//!   recovers after the storm;
//! * `gtfs-export --city city.json --out dir` / `gtfs-import --gtfs dir
//!   --city city.json --out city2.json` — GTFS round trip.
//!
//! Argument parsing is hand-rolled (no CLI dependency) and unit-tested.

use std::collections::HashMap;

use crate::core::{
    augment_connectivity, evaluate_plan, fault, AugmentParams, CommitOutcome, CommitTicket,
    CtBusParams, FailPlan, Planner, PlannerMode, PlanningSession, RefreshPolicy, ServeState,
    SiteParams,
};
use crate::data::{
    load_city_json, save_city_json, City, CityConfig, DemandModel, GeoJsonExporter, GtfsFeed,
};
use crate::spatial::{GeoPoint, Projection};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand name.
    pub command: String,
    /// `--key value` options.
    pub options: HashMap<String, String>,
}

/// Errors surfaced to the user with exit code 2.
#[derive(Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Usage text.
pub const USAGE: &str = "\
ctbus — connectivity- and demand-aware bus route planning (SIGMOD'21 CT-Bus)

USAGE:
  ctbus generate --preset <small|medium|chicago|nyc|manhattan|queens|brooklyn|staten-island|bronx>
                 [--seed N] [--trajectories N] [--out city.json]
  ctbus stats    --city city.json
  ctbus plan     --city city.json [PLANNER] [--mode eta|eta-pre|vk-tsp]
                 [--geojson out.geojson]
  ctbus multi    --city city.json --routes N [PLANNER] [--mode eta|eta-pre|vk-tsp]
  ctbus sites    --city city.json [--n N] [--w F] [--walk M] [--gap M]
                 [--routes N] [PLANNER] [--mode eta|eta-pre|vk-tsp]
  ctbus augment  --city city.json [--k N] [--pool N] [--no-bound true] [PLANNER]
  ctbus serve    --city city.json [--requests N] [--threads N] [--commit-every N]
                 [--chaos SEED] [--refresh exact|approximate]
                 [PLANNER] [--mode eta|eta-pre|vk-tsp]
  ctbus gtfs-export --city city.json --out <dir>
  ctbus gtfs-import --gtfs <dir> --city city.json [--out city2.json]

PLANNER (the route-planner flags of every subcommand marked with it):
  [--k N] [--w F] [--tau M] [--tn N] [--sn N] [--it-max N]
";

/// The flags [`Cli::params`] reads: the `PLANNER` group in [`USAGE`].
const PLANNER_FLAGS: [&str; 6] = ["k", "w", "tau", "tn", "sn", "it-max"];

/// The flags `command` reads besides [`PLANNER_FLAGS`], and whether it
/// reads those too; `None` for an unknown subcommand.
fn command_flags(command: &str) -> Option<(&'static [&'static str], bool)> {
    Some(match command {
        "generate" => (&["preset", "seed", "trajectories", "out"], false),
        "stats" => (&["city"], false),
        "plan" => (&["city", "mode", "geojson"], true),
        "multi" => (&["city", "routes", "mode"], true),
        "sites" => (&["city", "n", "walk", "gap", "routes", "mode"], true),
        "augment" => (&["city", "pool", "no-bound"], true),
        "serve" => {
            (&["city", "requests", "threads", "commit-every", "chaos", "refresh", "mode"], true)
        }
        "gtfs-export" => (&["city", "out"], false),
        "gtfs-import" => (&["gtfs", "city", "out"], false),
        _ => return None,
    })
}

impl Cli {
    /// Parses `args` (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, UsageError> {
        let mut it = args.into_iter();
        let command = it.next().ok_or_else(|| UsageError("missing subcommand".into()))?;
        let (flags, plans) = command_flags(&command)
            .ok_or_else(|| UsageError(format!("unknown subcommand `{command}`")))?;
        let mut options = HashMap::new();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| UsageError(format!("expected --flag, got `{flag}`")))?;
            if !(flags.contains(&key) || plans && PLANNER_FLAGS.contains(&key)) {
                return Err(UsageError(format!("`{command}` takes no --{key} flag")));
            }
            let value = it.next().ok_or_else(|| UsageError(format!("--{key} needs a value")))?;
            options.insert(key.to_string(), value);
        }
        Ok(Cli { command, options })
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, UsageError> {
        match self.options.get(key) {
            None => Ok(None),
            Some(v) => {
                v.parse().map(Some).map_err(|_| UsageError(format!("--{key}: cannot parse `{v}`")))
            }
        }
    }

    fn required(&self, key: &str) -> Result<&str, UsageError> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| UsageError(format!("--{key} is required")))
    }

    /// Resolves a preset name to a generator configuration.
    pub fn preset(name: &str) -> Result<CityConfig, UsageError> {
        Ok(match name {
            "small" => CityConfig::small(),
            "medium" => CityConfig::medium(),
            "chicago" => CityConfig::chicago_like(),
            "nyc" => CityConfig::nyc_like(),
            "manhattan" => CityConfig::manhattan_like(),
            "queens" => CityConfig::queens_like(),
            "brooklyn" => CityConfig::brooklyn_like(),
            "staten-island" => CityConfig::staten_island_like(),
            "bronx" => CityConfig::bronx_like(),
            other => return Err(UsageError(format!("unknown preset `{other}`"))),
        })
    }

    /// Resolves the planner mode option.
    pub fn mode(&self) -> Result<PlannerMode, UsageError> {
        Ok(match self.options.get("mode").map(String::as_str) {
            None | Some("eta-pre") => PlannerMode::EtaPre,
            Some("eta") => PlannerMode::Eta,
            Some("vk-tsp") => PlannerMode::VkTsp,
            Some(other) => return Err(UsageError(format!("unknown mode `{other}`"))),
        })
    }

    /// Builds planner parameters from the options over sensible defaults.
    pub fn params(&self) -> Result<CtBusParams, UsageError> {
        let mut p = CtBusParams::paper_defaults();
        if let Some(k) = self.get::<usize>("k")? {
            p.k = k;
        }
        if let Some(w) = self.get::<f64>("w")? {
            p.w = w;
        }
        if let Some(tau) = self.get::<f64>("tau")? {
            p.tau_m = tau;
        }
        if let Some(tn) = self.get::<u32>("tn")? {
            p.tn_max = tn;
        }
        if let Some(sn) = self.get::<usize>("sn")? {
            p.sn = sn;
        }
        if let Some(it) = self.get::<u64>("it-max")? {
            p.it_max = it;
        }
        let problems = p.validate();
        if !problems.is_empty() {
            return Err(UsageError(problems.join("; ")));
        }
        Ok(p)
    }

    fn load_city(&self) -> Result<City, UsageError> {
        let path = self.required("city")?;
        let file = std::fs::File::open(path)
            .map_err(|e| UsageError(format!("cannot open {path}: {e}")))?;
        load_city_json(std::io::BufReader::new(file))
            .map_err(|e| UsageError(format!("cannot parse {path}: {e}")))
    }

    /// Executes the parsed command, writing human output to `out`.
    pub fn execute<W: std::io::Write>(&self, out: &mut W) -> Result<(), UsageError> {
        let w = |e: std::io::Error| UsageError(format!("write failed: {e}"));
        match self.command.as_str() {
            "generate" => {
                let mut cfg = Self::preset(self.required("preset")?)?;
                if let Some(seed) = self.get::<u64>("seed")? {
                    cfg.seed = seed;
                }
                if let Some(n) = self.get::<usize>("trajectories")? {
                    cfg.n_trajectories = n;
                }
                let city = cfg.generate();
                writeln!(out, "generated {}: {:?}", city.name, city.stats()).map_err(w)?;
                if let Some(path) = self.options.get("out") {
                    let file = std::fs::File::create(path)
                        .map_err(|e| UsageError(format!("cannot create {path}: {e}")))?;
                    save_city_json(&city, std::io::BufWriter::new(file))
                        .map_err(|e| UsageError(format!("cannot write {path}: {e}")))?;
                    writeln!(out, "saved to {path}").map_err(w)?;
                }
                Ok(())
            }
            "stats" => {
                let city = self.load_city()?;
                let s = city.stats();
                writeln!(out, "{}", city.name).map_err(w)?;
                writeln!(out, "  routes |R|        {}", s.routes).map_err(w)?;
                writeln!(out, "  avg stops len(R)  {:.1}", s.avg_route_len).map_err(w)?;
                writeln!(out, "  road nodes |V|    {}", s.road_nodes).map_err(w)?;
                writeln!(out, "  stops |Vr|        {}", s.stops).map_err(w)?;
                writeln!(out, "  road edges |E|    {}", s.road_edges).map_err(w)?;
                writeln!(out, "  transit edges |Er| {}", s.transit_edges).map_err(w)?;
                writeln!(out, "  trajectories |D|  {}", s.trajectories).map_err(w)?;
                Ok(())
            }
            "plan" => {
                let city = self.load_city()?;
                let params = self.params()?;
                let mode = self.mode()?;
                let demand = DemandModel::from_city(&city);
                let planner = Planner::new(&city, &demand, params);
                let res = planner.run(mode);
                writeln!(
                    out,
                    "search: {} iterations, {} evaluations, stopped by {}",
                    res.iterations, res.evaluations, res.stop
                )
                .map_err(w)?;
                let plan = &res.best;
                if plan.is_empty() {
                    writeln!(out, "no feasible route found").map_err(w)?;
                    return Ok(());
                }
                writeln!(
                    out,
                    "route: {} edges ({} new), {:.2} km, {} turns",
                    plan.num_edges(),
                    plan.num_new_edges(),
                    plan.length_m / 1000.0,
                    plan.turns
                )
                .map_err(w)?;
                writeln!(out, "stops: {:?}", plan.stops).map_err(w)?;
                writeln!(
                    out,
                    "objective {:.4} (demand {:.0}, connectivity +{:.5})",
                    plan.objective, plan.demand, plan.conn_increment
                )
                .map_err(w)?;
                let m = evaluate_plan(&city, plan, &planner.precomputed().candidates);
                writeln!(
                    out,
                    "transfers avoided {:.2} | ζ(μ) {:.2} | crossed routes {}",
                    m.transfers_avoided, m.distance_ratio, m.crossed_routes
                )
                .map_err(w)?;
                if let Some(path) = self.options.get("geojson") {
                    let ex = GeoJsonExporter::chicago_anchor();
                    let fc = ex.transit_feature_collection(&city, Some(&plan.stops));
                    std::fs::write(path, serde_json::to_string_pretty(&fc).expect("serialize"))
                        .map_err(|e| UsageError(format!("cannot write {path}: {e}")))?;
                    writeln!(out, "geojson written to {path}").map_err(w)?;
                }
                Ok(())
            }
            "multi" => {
                let city = self.load_city()?;
                let params = self.params()?;
                let mode = self.mode()?;
                let n: usize =
                    self.get("routes")?.ok_or_else(|| UsageError("--routes is required".into()))?;
                let demand = DemandModel::from_city(&city);
                // One long-lived session: each committed route reuses the
                // previous round's candidates, probes, and workspaces
                // instead of rebuilding the pre-computation from scratch.
                let mut session = PlanningSession::new(city, demand, params);
                let mut planned = 0usize;
                for i in 0..n {
                    let result = session.plan(mode);
                    if result.best.is_empty() || result.best.objective <= 0.0 {
                        break;
                    }
                    let p = &result.best;
                    let summary = session.commit(p);
                    writeln!(
                        out,
                        "  #{}: {} edges ({} new), demand {:.0}, conn +{:.5} \
                         [commit: {} road edges zeroed, {} candidates refreshed, {:.2}s]",
                        i + 1,
                        p.num_edges(),
                        p.num_new_edges(),
                        p.demand,
                        p.conn_increment,
                        summary.covered_road_edges,
                        summary.refreshed_candidates,
                        summary.refresh_secs
                    )
                    .map_err(w)?;
                    planned += 1;
                }
                writeln!(out, "planned {planned} routes").map_err(w)?;
                Ok(())
            }
            "sites" => {
                let city = self.load_city()?;
                let demand = DemandModel::from_city(&city);
                let mut p = SiteParams::default();
                if let Some(n) = self.get::<usize>("n")? {
                    p.num_sites = n;
                }
                if let Some(wv) = self.get::<f64>("w")? {
                    p.w = wv;
                }
                if let Some(walk) = self.get::<f64>("walk")? {
                    p.walk_radius_m = walk;
                }
                if let Some(gap) = self.get::<f64>("gap")? {
                    p.min_gap_m = gap;
                }
                if !(0.0..=1.0).contains(&p.w) {
                    return Err(UsageError(format!("--w must be in [0,1], got {}", p.w)));
                }
                // Scenario engine: optionally plan-and-commit routes first,
                // so site selection sees the *evolved* network and the
                // still-unserved demand (`--routes 0` = plain selection).
                let mut session = PlanningSession::new(city, demand, self.params()?);
                if let Some(rounds) = self.get::<usize>("routes")? {
                    let mode = self.mode()?;
                    for _ in 0..rounds {
                        let result = session.plan(mode);
                        if result.best.is_empty() || result.best.objective <= 0.0 {
                            break;
                        }
                        session.commit(&result.best);
                    }
                    writeln!(
                        out,
                        "committed {} routes before selection; remaining demand {:.0}",
                        session.commits(),
                        session.demand().total_weight()
                    )
                    .map_err(w)?;
                }
                let sel = session.select_sites(&p);
                let city = session.city();
                writeln!(
                    out,
                    "selected {} sites from {} candidates ({:.1}% demand covered):",
                    sel.sites.len(),
                    sel.candidates,
                    sel.coverage_fraction * 100.0
                )
                .map_err(w)?;
                for (i, s) in sel.sites.iter().enumerate() {
                    let pos = city.road.position(s.road_node);
                    writeln!(
                        out,
                        "  #{}: road node {} at ({:.0}, {:.0}) — demand {:.0}, conn {:.2}",
                        i + 1,
                        s.road_node,
                        pos.x,
                        pos.y,
                        s.marginal_demand,
                        s.conn_potential
                    )
                    .map_err(w)?;
                }
                Ok(())
            }
            "augment" => {
                let city = self.load_city()?;
                let demand = DemandModel::from_city(&city);
                let params = self.params()?;
                let pre = crate::core::Precomputed::build(&city, &demand, &params);
                let mut a = AugmentParams::default();
                if let Some(k) = self.get::<usize>("k")? {
                    a.k = k;
                }
                if let Some(pool) = self.get::<usize>("pool")? {
                    a.pool_size = pool;
                }
                if let Some(no_bound) = self.get::<bool>("no-bound")? {
                    a.use_bound = !no_bound;
                }
                let result = augment_connectivity(&pre, &a);
                writeln!(
                    out,
                    "added {} edges: λ {:.4} → {:.4} (Δ {:.4})",
                    result.edges.len(),
                    result.lambda_before,
                    result.lambda_after,
                    result.lambda_after - result.lambda_before
                )
                .map_err(w)?;
                writeln!(
                    out,
                    "work: {} full evaluations, {} pruned by the bound, {} column solves",
                    result.stats.exact_evaluations, result.stats.pruned, result.stats.column_solves
                )
                .map_err(w)?;
                for &id in &result.edges {
                    let e = pre.candidates.edge(id);
                    writeln!(out, "  stop {} — stop {} ({:.0} m)", e.u, e.v, e.length_m)
                        .map_err(w)?;
                }
                Ok(())
            }
            "serve" => {
                let city = self.load_city()?;
                let params = self.params()?;
                let mode = self.mode()?;
                let requests: usize = self.get("requests")?.unwrap_or(32);
                let threads: usize = self.get("threads")?.unwrap_or_else(|| {
                    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
                });
                // Every Nth request submits its plan as a commit ticket
                // (0 = read-only what-if traffic).
                let commit_every: usize = self.get("commit-every")?.unwrap_or(0);
                let chaos_seed: Option<u64> = self.get("chaos")?;
                let refresh = match self.get::<String>("refresh")?.as_deref() {
                    None | Some("exact") => RefreshPolicy::Exact,
                    Some("approximate") => RefreshPolicy::approximate(),
                    Some(other) => {
                        return Err(UsageError(format!(
                            "--refresh wants exact|approximate, got `{other}`"
                        )));
                    }
                };
                if threads == 0 {
                    return Err(UsageError("--threads must be ≥ 1".into()));
                }
                let demand = DemandModel::from_city(&city);
                writeln!(out, "building initial snapshot…").map_err(w)?;
                let mut serve_state = ServeState::new(city, demand, params).with_refresh(refresh);
                if !refresh.is_exact() {
                    writeln!(out, "approximate refresh tier: commits skip the full Δ re-sweep")
                        .map_err(w)?;
                }
                // Chaos mode: a panic at every registered failpoint (the
                // snapshot-swap one fires holding the write lock) plus a
                // seeded batch of extras — same hit-count determinism as
                // the chaos test suite, so a seed replays a run.
                let injector = chaos_seed.map(|seed| {
                    fault::silence_injected_panics();
                    FailPlan::new()
                        .panic_at(fault::site::COMMIT_APPLY, 1)
                        .panic_at(fault::site::SESSION_REFRESH, 1)
                        .panic_at(fault::site::SNAPSHOT_PUBLISH, 1)
                        .panic_at(fault::site::SNAPSHOT_SWAP, 1)
                        .merged(FailPlan::seeded(seed, &fault::site::ALL, 4, 24))
                        .injector()
                });
                if let Some(injector) = &injector {
                    serve_state = serve_state.with_faults(std::sync::Arc::clone(injector));
                    writeln!(
                        out,
                        "chaos mode: seed {} — faults scheduled on the commit path",
                        chaos_seed.unwrap_or_default()
                    )
                    .map_err(w)?;
                }
                let state = std::sync::Arc::new(serve_state);
                writeln!(
                    out,
                    "serving {requests} requests on {threads} threads \
                     (commit every {commit_every})"
                )
                .map_err(w)?;

                let next = std::sync::atomic::AtomicUsize::new(0);
                let recoveries = std::sync::atomic::AtomicUsize::new(0);
                // Failed commits may retry in chaos mode (re-plan on a
                // fresh checkout, exactly the recovery protocol a real
                // client follows); fault-free serving keeps the old
                // fire-and-forget single attempt.
                let max_attempts = if injector.is_some() { 16 } else { 1 };
                let t0 = std::time::Instant::now();
                let mut latencies: Vec<std::time::Duration> = std::thread::scope(|scope| {
                    let workers: Vec<_> = (0..threads)
                        .map(|_| {
                            let state = &state;
                            let (next, recoveries) = (&next, &recoveries);
                            scope.spawn(move || {
                                let mut lat = Vec::new();
                                loop {
                                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                    if i >= requests {
                                        break;
                                    }
                                    let t = std::time::Instant::now();
                                    let snapshot = state.current();
                                    let mut session = snapshot.session();
                                    let result = session.plan(mode);
                                    lat.push(t.elapsed());
                                    state.record_plan(result.stop);
                                    if commit_every > 0
                                        && i % commit_every == commit_every - 1
                                        && !result.best.is_empty()
                                    {
                                        let mut snapshot = snapshot;
                                        let mut plan = result.best;
                                        for attempt in 1..=max_attempts {
                                            match state
                                                .commit(CommitTicket::new(&snapshot, plan.clone()))
                                            {
                                                CommitOutcome::Applied { .. } => {
                                                    if attempt > 1 {
                                                        recoveries.fetch_add(
                                                            1,
                                                            std::sync::atomic::Ordering::Relaxed,
                                                        );
                                                    }
                                                    break;
                                                }
                                                // Stale/Failed: re-plan below.
                                                // Overloaded: yield, re-plan.
                                                CommitOutcome::Stale { .. }
                                                | CommitOutcome::Failed { .. } => {}
                                                CommitOutcome::Overloaded { .. } => {
                                                    std::thread::yield_now();
                                                }
                                                CommitOutcome::Invalid { .. }
                                                | CommitOutcome::Empty => break,
                                            }
                                            if attempt == max_attempts {
                                                break;
                                            }
                                            snapshot = state.current();
                                            let retry = snapshot.session().plan(mode);
                                            state.record_plan(retry.stop);
                                            if retry.best.is_empty() {
                                                break;
                                            }
                                            plan = retry.best;
                                        }
                                    }
                                }
                                lat
                            })
                        })
                        .collect();
                    workers
                        .into_iter()
                        .flat_map(|h| h.join().expect("serve worker panicked"))
                        .collect()
                });
                let elapsed = t0.elapsed().as_secs_f64();
                latencies.sort_unstable();
                let pct = |p: f64| {
                    let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
                    latencies[idx].as_secs_f64() * 1e3
                };
                let stats = state.stats();
                writeln!(
                    out,
                    "served {} plans in {elapsed:.2}s — {:.1} plans/sec",
                    stats.plans,
                    stats.plans as f64 / elapsed.max(1e-9)
                )
                .map_err(w)?;
                if !latencies.is_empty() {
                    writeln!(
                        out,
                        "latency p50 {:.1} ms | p99 {:.1} ms | max {:.1} ms",
                        pct(0.50),
                        pct(0.99),
                        pct(1.0)
                    )
                    .map_err(w)?;
                }
                writeln!(out, "{}", stats.stops).map_err(w)?;
                writeln!(
                    out,
                    "commits: {} applied, {} stale, {} failed, {} shed, {} invalid — \
                     final generation {} ({})",
                    stats.commits_applied,
                    stats.commits_stale,
                    stats.commits_failed,
                    stats.commits_shed,
                    stats.commits_invalid,
                    stats.generation,
                    if stats.degraded() { "DEGRADED" } else { "healthy" }
                )
                .map_err(w)?;
                if let Some(injector) = &injector {
                    // Post-storm recovery: one more plan → commit must land
                    // (or the network must be saturated) — a chaos run that
                    // leaves the service wedged is a failure, not a report.
                    let mut recovered = false;
                    for _ in 0..32 {
                        let snapshot = state.current();
                        let result = snapshot.session().plan(mode);
                        state.record_plan(result.stop);
                        let plan = result.best;
                        if plan.is_empty() || plan.objective <= 0.0 {
                            recovered = true; // saturated; reads still served
                            break;
                        }
                        if state.commit(CommitTicket::new(&snapshot, plan)).is_applied() {
                            recovered = true;
                            break;
                        }
                    }
                    let fs = injector.stats();
                    writeln!(
                        out,
                        "chaos: {} faults fired ({} panics, {} delays, {} errors) over {} \
                         hits — {} failed commit attempts survived, {} retries recovered, \
                         post-fault commit {}",
                        fs.fired(),
                        fs.panics,
                        fs.delays,
                        fs.errors,
                        fs.hits,
                        state.stats().commits_failed,
                        recoveries.load(std::sync::atomic::Ordering::Relaxed),
                        if recovered { "applied" } else { "FAILED" }
                    )
                    .map_err(w)?;
                    if !recovered {
                        return Err(UsageError(
                            "chaos: service did not recover after the fault schedule".into(),
                        ));
                    }
                }
                Ok(())
            }
            "gtfs-export" => {
                let city = self.load_city()?;
                let dir = self.required("out")?;
                let proj = Projection::new(GeoPoint::new(41.85, -87.65));
                let feed = GtfsFeed::from_transit(&city.transit, &proj);
                feed.write_dir(dir).map_err(|e| UsageError(format!("cannot write {dir}: {e}")))?;
                writeln!(
                    out,
                    "wrote GTFS feed to {dir}: {} stops, {} routes, {} stop_times",
                    feed.stops.len(),
                    feed.routes.len(),
                    feed.stop_times.len()
                )
                .map_err(w)?;
                Ok(())
            }
            "gtfs-import" => {
                let mut city = self.load_city()?;
                let dir = self.required("gtfs")?;
                let proj = Projection::new(GeoPoint::new(41.85, -87.65));
                let feed = GtfsFeed::load_dir(dir)
                    .map_err(|e| UsageError(format!("cannot load {dir}: {e}")))?;
                let (transit, stats) = feed
                    .into_transit(&city.road, &proj)
                    .map_err(|e| UsageError(format!("cannot import {dir}: {e}")))?;
                writeln!(
                    out,
                    "imported {} stops / {} edges / {} routes (max snap {:.1} m, {} hops \
                     dropped, {} stops dropped)",
                    transit.num_stops(),
                    transit.num_edges(),
                    transit.num_routes(),
                    stats.max_snap_m,
                    stats.dropped_hops,
                    stats.dropped_stops
                )
                .map_err(w)?;
                city.transit = transit;
                city.name = format!("{}+gtfs", city.name);
                if let Some(path) = self.options.get("out") {
                    let file = std::fs::File::create(path)
                        .map_err(|e| UsageError(format!("cannot create {path}: {e}")))?;
                    save_city_json(&city, std::io::BufWriter::new(file))
                        .map_err(|e| UsageError(format!("cannot write {path}: {e}")))?;
                    writeln!(out, "saved to {path}").map_err(w)?;
                }
                Ok(())
            }
            _ => unreachable!("parse validated the subcommand"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_valid_commands() {
        let cli = Cli::parse(args("plan --city c.json --k 12 --w 0.3")).unwrap();
        assert_eq!(cli.command, "plan");
        assert_eq!(cli.options["k"], "12");
        let p = cli.params().unwrap();
        assert_eq!(p.k, 12);
        assert_eq!(p.w, 0.3);
    }

    /// Every `(subcommand, flag)` pair [`USAGE`] lists, with `[PLANNER]`
    /// expanded to the flags of the `PLANNER` group.
    fn usage_flags() -> Vec<(String, String)> {
        let flags_in = |line: &str| -> Vec<String> {
            line.split_whitespace()
                .filter_map(|tok| tok.trim_start_matches('[').strip_prefix("--"))
                .map(|f| f.trim_end_matches(']').to_string())
                .collect()
        };
        let planner_line = USAGE.lines().skip_while(|l| !l.starts_with("PLANNER")).nth(1).unwrap();
        let planner = flags_in(planner_line);
        assert_eq!(planner, PLANNER_FLAGS, "USAGE's PLANNER group drifted from params()");
        let mut pairs = Vec::new();
        let mut command = String::new();
        for line in USAGE.lines().skip_while(|l| !l.starts_with("USAGE")).skip(1) {
            if line.is_empty() {
                break;
            }
            if let Some(rest) = line.trim_start().strip_prefix("ctbus ") {
                command = rest.split_whitespace().next().unwrap().to_string();
            }
            let mut flags = flags_in(line);
            if line.contains("[PLANNER]") {
                flags.extend(planner.iter().cloned());
            }
            pairs.extend(flags.into_iter().map(|f| (command.clone(), f)));
        }
        pairs
    }

    #[test]
    fn flags_outside_a_subcommands_set_are_rejected() {
        // A retired flag, a typo, and another subcommand's flag are refused
        // by name instead of being silently ignored.
        for (line, flag) in [
            ("multi --city c.json --routes 2 --shards 4", "--shards"),
            ("plan --city c.json --kk 5", "--kk"),
            ("stats --city c.json --routes 3", "--routes"),
        ] {
            let err = Cli::parse(args(line)).unwrap_err();
            assert!(err.0.contains(flag), "`{line}`: {}", err.0);
        }
        // Every flag USAGE lists for a subcommand parses, and USAGE lists
        // every flag a subcommand accepts.
        let listed = usage_flags();
        for (command, flag) in &listed {
            let line = format!("{command} --{flag} 1");
            assert!(Cli::parse(args(&line)).is_ok(), "`{line}` rejected");
        }
        for command in [
            "generate",
            "stats",
            "plan",
            "multi",
            "sites",
            "augment",
            "serve",
            "gtfs-export",
            "gtfs-import",
        ] {
            let (own, plans) = command_flags(command).unwrap();
            let planner: &[&str] = if plans { &PLANNER_FLAGS } else { &[] };
            for flag in own.iter().chain(planner) {
                assert!(
                    listed.iter().any(|(c, f)| c == command && f == flag),
                    "USAGE omits `{command} --{flag}`"
                );
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Cli::parse(args("frobnicate")).is_err());
        assert!(Cli::parse(args("plan --k")).is_err());
        assert!(Cli::parse(args("plan k 5")).is_err());
        assert!(Cli::parse(Vec::new()).is_err());
    }

    #[test]
    fn invalid_params_are_usage_errors() {
        let cli = Cli::parse(args("plan --city c.json --w 3.0")).unwrap();
        assert!(cli.params().is_err());
        let cli = Cli::parse(args("plan --city c.json --k notanumber")).unwrap();
        assert!(cli.params().is_err());
    }

    #[test]
    fn non_finite_tau_is_a_usage_error() {
        // Both parse as f64; NaN would plan over existing edges only and
        // inf would make every stop pair a candidate.
        for tau in ["NaN", "inf"] {
            let cli = Cli::parse(args(&format!("plan --city c.json --tau {tau}"))).unwrap();
            let err = cli.params().unwrap_err();
            assert!(err.0.contains("tau_m"), "--tau {tau}: {}", err.0);
        }
    }

    #[test]
    fn presets_resolve() {
        assert!(Cli::preset("chicago").is_ok());
        assert!(Cli::preset("bronx").is_ok());
        assert!(Cli::preset("atlantis").is_err());
    }

    #[test]
    fn modes_resolve() {
        let cli = Cli::parse(args("plan --city c.json --mode vk-tsp")).unwrap();
        assert_eq!(cli.mode().unwrap(), PlannerMode::VkTsp);
        let cli = Cli::parse(args("plan --city c.json")).unwrap();
        assert_eq!(cli.mode().unwrap(), PlannerMode::EtaPre);
        let cli = Cli::parse(args("plan --city c.json --mode bogus")).unwrap();
        assert!(cli.mode().is_err());
    }

    #[test]
    fn sites_augment_and_gtfs_end_to_end() {
        let dir = std::env::temp_dir().join("ctbus-cli-ext-test");
        std::fs::create_dir_all(&dir).unwrap();
        let city_path = dir.join("city.json");
        let gtfs_dir = dir.join("gtfs");
        let reimport_path = dir.join("city2.json");

        let mut out = Vec::new();
        Cli::parse(args(&format!(
            "generate --preset small --seed 3 --trajectories 300 --out {}",
            city_path.display()
        )))
        .unwrap()
        .execute(&mut out)
        .unwrap();

        let mut out = Vec::new();
        Cli::parse(args(&format!("sites --city {} --n 3 --w 0.8", city_path.display())))
            .unwrap()
            .execute(&mut out)
            .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("selected 3 sites"), "{text}");

        let mut out = Vec::new();
        Cli::parse(args(&format!(
            "augment --city {} --k 3 --pool 20 --sn 200 --it-max 500",
            city_path.display()
        )))
        .unwrap()
        .execute(&mut out)
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("added 3 edges"), "{text}");
        assert!(text.contains("pruned by the bound"), "{text}");

        let mut out = Vec::new();
        Cli::parse(args(&format!(
            "gtfs-export --city {} --out {}",
            city_path.display(),
            gtfs_dir.display()
        )))
        .unwrap()
        .execute(&mut out)
        .unwrap();
        assert!(gtfs_dir.join("stop_times.txt").exists());

        let mut out = Vec::new();
        Cli::parse(args(&format!(
            "gtfs-import --gtfs {} --city {} --out {}",
            gtfs_dir.display(),
            city_path.display(),
            reimport_path.display()
        )))
        .unwrap()
        .execute(&mut out)
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("imported"), "{text}");
        assert!(reimport_path.exists());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sites_rejects_bad_w() {
        let cli = Cli::parse(args("sites --city c.json --w 7")).unwrap();
        // Fails on the city load first — point the test at a real city.
        let dir = std::env::temp_dir().join("ctbus-cli-badw");
        std::fs::create_dir_all(&dir).unwrap();
        let city_path = dir.join("city.json");
        let mut out = Vec::new();
        Cli::parse(args(&format!(
            "generate --preset small --trajectories 100 --out {}",
            city_path.display()
        )))
        .unwrap()
        .execute(&mut out)
        .unwrap();
        let cli2 =
            Cli::parse(args(&format!("sites --city {} --w 7", city_path.display()))).unwrap();
        let err = cli2.execute(&mut Vec::new()).unwrap_err();
        assert!(err.0.contains("--w must be in [0,1]"), "{}", err.0);
        drop(cli);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_end_to_end() {
        let dir = std::env::temp_dir().join("ctbus-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let city_path = dir.join("city.json");

        let mut out = Vec::new();
        Cli::parse(args(&format!(
            "generate --preset small --seed 11 --trajectories 300 --out {}",
            city_path.display()
        )))
        .unwrap()
        .execute(&mut out)
        .unwrap();

        let mut out = Vec::new();
        Cli::parse(args(&format!(
            "serve --city {} --requests 6 --threads 2 --commit-every 3 \
             --k 6 --sn 100 --it-max 400",
            city_path.display()
        )))
        .unwrap()
        .execute(&mut out)
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("served 6 plans"), "{text}");
        assert!(text.contains("plans/sec"), "{text}");
        assert!(text.contains("latency p50"), "{text}");
        // One line counts the served plans by why their search stopped.
        let stops = text
            .lines()
            .find_map(|l| l.strip_prefix("plans stopped by: "))
            .unwrap_or_else(|| panic!("no stop-reason line: {text}"));
        let counted: u64 = ["bound", "exhausted queue", "iteration cap"]
            .iter()
            .zip(stops.split(", "))
            .map(|(reason, field)| {
                let n = field.strip_suffix(reason).unwrap_or_else(|| panic!("{stops}"));
                n.trim().parse::<u64>().unwrap_or_else(|_| panic!("{stops}"))
            })
            .sum();
        assert_eq!(counted, 6, "{stops}");
        // 6 requests, commit every 3rd → two tickets; the first always
        // applies, the second applies or goes stale depending on timing.
        assert!(text.contains("commits: "), "{text}");
        assert!(!text.contains("commits: 0 applied"), "{text}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_chaos_end_to_end() {
        let dir = std::env::temp_dir().join("ctbus-cli-serve-chaos-test");
        std::fs::create_dir_all(&dir).unwrap();
        let city_path = dir.join("city.json");

        let mut out = Vec::new();
        Cli::parse(args(&format!(
            "generate --preset small --seed 11 --trajectories 300 --out {}",
            city_path.display()
        )))
        .unwrap()
        .execute(&mut out)
        .unwrap();

        let mut out = Vec::new();
        Cli::parse(args(&format!(
            "serve --city {} --requests 8 --threads 2 --commit-every 2 \
             --chaos 7 --k 6 --sn 100 --it-max 400",
            city_path.display()
        )))
        .unwrap()
        .execute(&mut out)
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("chaos mode: seed 7"), "{text}");
        // The deterministic schedule panics at every failpoint, so the run
        // must have both survived failures and recovered afterwards.
        assert!(text.contains("faults fired"), "{text}");
        assert!(!text.contains("0 faults fired"), "{text}");
        assert!(text.contains("post-fault commit applied"), "{text}");
        assert!(!text.contains("commits: 0 applied"), "{text}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_stats_plan_end_to_end() {
        let dir = std::env::temp_dir().join("ctbus-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let city_path = dir.join("city.json");
        let geo_path = dir.join("route.geojson");

        let mut out = Vec::new();
        Cli::parse(args(&format!(
            "generate --preset small --seed 7 --trajectories 400 --out {}",
            city_path.display()
        )))
        .unwrap()
        .execute(&mut out)
        .unwrap();
        assert!(String::from_utf8_lossy(&out).contains("generated small"));

        let mut out = Vec::new();
        Cli::parse(args(&format!("stats --city {}", city_path.display())))
            .unwrap()
            .execute(&mut out)
            .unwrap();
        assert!(String::from_utf8_lossy(&out).contains("routes |R|"));

        let mut out = Vec::new();
        Cli::parse(args(&format!(
            "plan --city {} --k 8 --sn 200 --it-max 2000 --geojson {}",
            city_path.display(),
            geo_path.display()
        )))
        .unwrap()
        .execute(&mut out)
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("objective"), "{text}");
        assert!(text.contains(" iterations, ") && text.contains("stopped by "), "{text}");
        let geo: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&geo_path).unwrap()).unwrap();
        assert_eq!(geo["type"], "FeatureCollection");
    }
}
