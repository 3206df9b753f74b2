//! Table 3: tightness of the four connectivity upper bounds at k = 15.
//!
//! Reported as *increments* over λ(Gr) so the four columns are directly
//! comparable (the paper mixes conventions; the ordering
//! Estrada ≫ General > Path > Increment is the claim).

use ct_core::{estrada_bound, general_bound, increment_bound, path_bound};

use crate::harness::{f, ExperimentCtx, OutputSink};

/// Runs this experiment and writes its artifacts.
pub fn run(ctx: &mut ExperimentCtx) {
    let mut sink = OutputSink::new("table3");
    let k = 15usize;
    sink.line(format!("# Table 3 — tightness of connectivity upper bounds (k = {k})"));
    sink.line("All values are bounds on the *increment* λ(G'r) − λ(Gr).");
    sink.blank();

    let mut rows = Vec::new();
    let mut json = serde_json::Map::new();
    for name in ctx.main_city_names() {
        ctx.prepare(name);
        let bundle = ctx.bundle(name);
        let pre = &bundle.pre;
        let adj = &pre.base_adj;
        let base = pre.base_lambda;
        let eigs = pre.spectrum_head();

        let estrada = estrada_bound(adj.num_undirected_edges(), k, adj.n()) - base;
        let general = general_bound(base, eigs, k, adj.n()) - base;
        let path = path_bound(base, eigs, k, adj.n()) - base;
        let incr = increment_bound(&pre.llambda, k);

        assert!(
            estrada >= general && general >= path,
            "{name}: bound ordering violated: estrada {estrada}, general {general}, path {path}"
        );
        assert!(path >= incr * 0.99, "{name}: increment bound {incr} above path bound {path}");

        rows.push(vec![name.to_string(), f(estrada, 3), f(general, 3), f(path, 4), f(incr, 4)]);
        json.insert(
            name.to_string(),
            serde_json::json!({
                "estrada": estrada, "general": general, "path": path, "increment": incr,
                "base_lambda": base,
            }),
        );
    }
    sink.table(
        &[
            "city",
            "Estrada bound [25]",
            "General bound (L3)",
            "Path bound (L4)",
            "Increment bound (§6)",
        ],
        &rows,
    );
    sink.blank();
    sink.line("Shape check (paper): each bound is tighter than the previous, by orders of magnitude from Estrada to Increment.");
    sink.write_json(&serde_json::Value::Object(json));
    sink.finish();
}
