//! Shared infrastructure: city/precompute cache, output sinks, formatting.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use ct_core::{CtBusParams, Planner, Precomputed};
use ct_data::{City, CityConfig, DemandModel};

/// A fully prepared dataset: city, demand, and base pre-computation.
pub struct CityBundle {
    /// The generated city.
    pub city: City,
    /// Aggregated demand.
    pub demand: DemandModel,
    /// Pre-computation under the context's base parameters.
    pub pre: Precomputed,
}

/// Lazily generated cities plus run-wide configuration.
pub struct ExperimentCtx {
    /// Reduced scales for smoke runs.
    pub fast: bool,
    /// Worker threads for the parallel stages (`0` = all cores). Thread
    /// count never changes experiment outputs — only wall-clock time
    /// (see `ct_core::Parallelism`).
    threads: usize,
    bundles: HashMap<&'static str, CityBundle>,
}

impl ExperimentCtx {
    /// Creates a context; `fast` trims city sizes, iteration counts, grids.
    pub fn new(fast: bool) -> Self {
        Self::with_threads(fast, 0)
    }

    /// [`ExperimentCtx::new`] with an explicit worker-thread count for the
    /// parallel stages (the `exp --threads N` flag; `0` = all cores).
    pub fn with_threads(fast: bool, threads: usize) -> Self {
        ExperimentCtx { fast, threads, bundles: HashMap::new() }
    }

    /// The two headline cities (paper: Chicago and NYC).
    pub fn main_city_names(&self) -> Vec<&'static str> {
        vec!["chicago", "nyc"]
    }

    /// The six Table 6 areas.
    pub fn table6_city_names(&self) -> Vec<&'static str> {
        vec!["chicago", "manhattan", "queens", "brooklyn", "staten-island", "bronx"]
    }

    /// Baseline parameters (paper §7.1.4 defaults; trimmed in fast mode).
    /// Every planner and pre-computation built through this context —
    /// all `PlannerMode` runs, the Δ(e) sweep, the baselines — inherits
    /// the context's parallelism setting from here.
    pub fn base_params(&self) -> CtBusParams {
        let mut p = CtBusParams::paper_defaults();
        p.parallelism.threads = self.threads;
        if self.fast {
            p.sn = 1500;
            p.it_max = 10_000;
            p.trace_probes = 30;
        }
        p
    }

    fn config_for(name: &str, fast: bool) -> CityConfig {
        let mut cfg = match name {
            "chicago" => CityConfig::chicago_like(),
            "nyc" => CityConfig::nyc_like(),
            "manhattan" => CityConfig::manhattan_like(),
            "queens" => CityConfig::queens_like(),
            "brooklyn" => CityConfig::brooklyn_like(),
            "staten-island" => CityConfig::staten_island_like(),
            "bronx" => CityConfig::bronx_like(),
            "medium" => CityConfig::medium(),
            "small" => CityConfig::small(),
            other => panic!("unknown city preset {other}"),
        };
        if fast && matches!(name, "chicago" | "nyc") {
            cfg.rows = (cfg.rows * 3) / 5;
            cfg.cols = (cfg.cols * 3) / 5;
            cfg.n_routes = (cfg.n_routes * 3) / 5;
            cfg.n_trajectories /= 3;
        }
        cfg
    }

    /// Generates (if needed) and returns the bundle for a preset city.
    pub fn prepare(&mut self, name: &'static str) -> &CityBundle {
        if !self.bundles.contains_key(name) {
            let fast = self.fast;
            eprintln!("[gen] {name}{}", if fast { " (fast scale)" } else { "" });
            let city = Self::config_for(name, fast).generate();
            let demand = DemandModel::from_city(&city);
            let t = std::time::Instant::now();
            let pre = Precomputed::build(&city, &demand, &self.base_params());
            eprintln!(
                "[pre] {name}: {} candidates ({} new) in {:.1}s",
                pre.candidates.len(),
                pre.candidates.num_new(),
                t.elapsed().as_secs_f64()
            );
            self.bundles.insert(name, CityBundle { city, demand, pre });
        }
        &self.bundles[name]
    }

    /// Returns an already-prepared bundle.
    ///
    /// # Panics
    /// Panics if [`ExperimentCtx::prepare`] was not called for `name`.
    pub fn bundle(&self, name: &str) -> &CityBundle {
        self.bundles.get(name).unwrap_or_else(|| panic!("city {name} not prepared"))
    }

    /// Builds a planner for a prepared city under `params`, re-deriving the
    /// parameter-dependent pre-computation cheaply.
    pub fn planner(&self, name: &str, params: CtBusParams) -> Planner {
        let b = self.bundle(name);
        Planner::with_precomputed(&b.city, params, b.pre.reparameterize(&params))
    }
}

/// Duplicates experiment output to stdout and a markdown artifact.
pub struct OutputSink {
    name: String,
    buffer: String,
}

impl OutputSink {
    /// Creates a sink for experiment `name` (e.g. `"table6"`).
    pub fn new(name: &str) -> Self {
        OutputSink { name: name.to_string(), buffer: String::new() }
    }

    /// Directory where artifacts land.
    pub fn out_dir() -> PathBuf {
        let dir = PathBuf::from("target/experiments");
        fs::create_dir_all(&dir).expect("create target/experiments");
        dir
    }

    /// Writes a line to stdout and the artifact buffer.
    pub fn line(&mut self, s: impl AsRef<str>) {
        let s = s.as_ref();
        println!("{s}");
        self.buffer.push_str(s);
        self.buffer.push('\n');
    }

    /// Writes a blank line.
    pub fn blank(&mut self) {
        self.line("");
    }

    /// Renders a markdown table: a header row plus data rows.
    pub fn table(&mut self, header: &[&str], rows: &[Vec<String>]) {
        let cols = header.len();
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i.min(widths.len() - 1)]))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
        self.line(fmt_row(&header_cells));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        self.line(format!("|-{}-|", sep.join("-|-")));
        for row in rows {
            self.line(fmt_row(row));
        }
    }

    /// Flushes the artifact to `target/experiments/<name>.md`.
    pub fn finish(self) {
        let path = Self::out_dir().join(format!("{}.md", self.name));
        let mut f = fs::File::create(&path).expect("create artifact");
        f.write_all(self.buffer.as_bytes()).expect("write artifact");
        eprintln!("[artifact] {}", path.display());
    }

    /// Additionally stores a JSON sidecar (for plots / downstream tooling).
    pub fn write_json(&self, value: &serde_json::Value) {
        let path = Self::out_dir().join(format!("{}.json", self.name));
        fs::write(&path, serde_json::to_string_pretty(value).expect("serialize"))
            .expect("write json artifact");
        eprintln!("[artifact] {}", path.display());
    }
}

/// Formats a float with the given precision, for table cells.
pub fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_cache_and_planner() {
        let mut ctx = ExperimentCtx::new(true);
        ctx.prepare("small");
        let a = ctx.bundle("small").city.stats();
        let b = ctx.bundle("small").city.stats();
        assert_eq!(a, b);
        let mut params = ctx.base_params();
        params.k = 6;
        params.it_max = 200;
        let planner = ctx.planner("small", params);
        let res = planner.run(ct_core::PlannerMode::EtaPre);
        assert!(!res.best.is_empty());
    }

    #[test]
    fn table_renders_markdown() {
        let mut sink = OutputSink::new("__test");
        sink.table(&["a", "bbb"], &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]]);
        assert!(sink.buffer.contains("a | bbb"));
        assert!(sink.buffer.contains("|-"));
        assert!(sink.buffer.contains("333 |"));
    }

    #[test]
    fn fast_configs_are_smaller() {
        let full = ExperimentCtx::config_for("chicago", false);
        let fast = ExperimentCtx::config_for("chicago", true);
        assert!(fast.rows < full.rows);
        assert!(fast.n_trajectories < full.n_trajectories);
    }

    #[test]
    #[should_panic(expected = "not prepared")]
    fn unprepared_bundle_panics() {
        let ctx = ExperimentCtx::new(true);
        ctx.bundle("nyc");
    }
}
