//! Outside-in spans: the benchmark wraps its own calls into each layer's
//! public API, keeps the spans in memory, and writes them out at exit.
//!
//! Each client owns a [`Recorder`], so recording takes no lock. A disabled
//! recorder runs the wrapped call and records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one (`None` for a request's root).
    pub parent: Option<u64>,
    /// Layer boundary name, e.g. `eta.plan`.
    pub name: &'static str,
    /// Request the span belongs to.
    pub request: u64,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span sink of one client thread.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose ids start at `client << 40`, so ids stay unique
    /// across clients that share `epoch`.
    pub fn new(enabled: bool, epoch: Instant, client: u64) -> Recorder {
        Recorder { enabled, epoch, next_id: client << 40, spans: Vec::new() }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// parent its children with.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(&mut Recorder, Option<u64>) -> R,
    ) -> R {
        if !self.enabled {
            return f(self, None);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self, Some(id));
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { id, parent, name, request, start_ns, end_ns });
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations (ns) of every span named `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
}

/// Mean self time per span name, in nanoseconds: a span's duration minus
/// the part of its interval its children cover.
pub fn mean_self_ns(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut acc: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let slot = acc.entry(s.name).or_insert((0.0, 0));
        slot.0 += s.duration_ns().saturating_sub(covered) as f64;
        slot.1 += 1;
    }
    acc.into_iter().map(|(name, (sum, n))| (name, sum / n as f64)).collect()
}

/// Writes the spans as JSON lines, one span per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span { id: 1, parent: None, name: "req", request: 0, start_ns: 0, end_ns: 100 },
            Span { id: 2, parent: Some(1), name: "a", request: 0, start_ns: 10, end_ns: 40 },
            Span { id: 3, parent: Some(1), name: "a", request: 0, start_ns: 30, end_ns: 60 },
        ];
        let self_ns = mean_self_ns(&spans);
        assert_eq!(self_ns["req"], 50.0);
        assert_eq!(self_ns["a"], 30.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false, Instant::now(), 0);
        let v = r.span("x", None, 0, |_, id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(r.into_spans().is_empty());
    }
}
