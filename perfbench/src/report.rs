//! The result line, the metadata line, and host facts.

use std::collections::BTreeMap;

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Metrics in the order they were recorded.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Records `value` under `name`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// What one run prints as its last line.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every correctness check held.
    pub correct: bool,
    /// Operations attempted (plans and commit attempts).
    pub attempted: u64,
    /// Operations that failed (infeasible plans, commits that ended
    /// Failed, Invalid or Overloaded, or gave up after retries).
    pub failed: u64,
    /// The metrics of this run.
    pub metrics: Metrics,
}

/// A JSON number: every digit Rust's shortest round-trip form keeps; a
/// non-finite value (a bug upstream) is written as `null` so the line
/// stays parseable.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// A JSON string literal (the benchmark's strings need no escapes beyond
/// quotes, backslashes and control characters).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Outcome {
    /// The single-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    string(&m.name),
                    number(m.value),
                    string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Host and run facts printed before the result line.
pub fn meta_json(fields: &BTreeMap<&'static str, String>) -> String {
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("{}: {}", string(k), string(v))).collect();
    format!("{{\"meta\": {{{}}}}}", body.join(", "))
}

/// `nproc`, CPU model, cache sizes, build profile: what a reader needs to
/// compare runs from different hosts.
pub fn host_facts() -> BTreeMap<&'static str, String> {
    let mut facts = BTreeMap::new();
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    facts.insert("nproc", nproc.to_string());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |m| m.trim().to_string());
    facts.insert("cpu_model", model);
    for (key, level, kind) in [("l1d", "1", "Data"), ("l2", "2", "Unified")] {
        facts.insert(key, cache_size(level, kind).unwrap_or_else(|| "unknown".into()));
    }
    facts.insert("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.into());
    facts.insert("git_rev", git_rev());
    facts
}

fn cache_size(level: &str, kind: &str) -> Option<String> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    for entry in std::fs::read_dir(base).ok()? {
        let dir = entry.ok()?.path();
        let read =
            |f: &str| std::fs::read_to_string(dir.join(f)).ok().map(|s| s.trim().to_string());
        if read("level").as_deref() == Some(level) && read("type").as_deref() == Some(kind) {
            return read("size");
        }
    }
    None
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving the checkout; `unknown` where it is not a repository.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let rev = read(".git/HEAD").and_then(|head| match head.strip_prefix("ref: ") {
        None => Some(head),
        Some(reference) => read(&format!(".git/{reference}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }),
    });
    rev.map_or("unknown".to_string(), |r| r.chars().take(12).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut metrics = Metrics::default();
        metrics.put("setup_s", 0.8127, "s");
        let line = Outcome { correct: true, attempted: 3, failed: 0, metrics }.to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
