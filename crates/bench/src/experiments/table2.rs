//! Table 2: running time of connectivity & bound estimation.
//!
//! Columns mirror the paper: exact eigendecomposition ("Eigen"), the
//! Lanczos/Hutchinson estimator, and the evaluation cost of the general and
//! path bounds. Absolute times differ from the authors' MATLAB/NumPy
//! testbed; the *ordering and orders-of-magnitude gaps* are the claim.

use std::time::Instant;

use ct_core::{general_bound, path_bound};
use ct_linalg::natural_connectivity_exact;

use crate::harness::{ExperimentCtx, OutputSink};

fn time_secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Runs this experiment and writes its artifacts.
pub fn run(ctx: &mut ExperimentCtx) {
    let mut sink = OutputSink::new("table2");
    sink.line("# Table 2 — running time of connectivity & bound estimation (seconds)");
    sink.blank();

    let mut rows = Vec::new();
    let mut json = serde_json::Map::new();
    for name in ctx.main_city_names() {
        ctx.prepare(name);
        let bundle = ctx.bundle(name);
        let adj = &bundle.pre.base_adj;
        let k = ctx.base_params().k;

        let (exact, t_eigen) = time_secs(|| natural_connectivity_exact(adj).expect("exact"));
        let (est, t_lanczos) =
            time_secs(|| bundle.pre.estimator.lambda(adj).expect("SLQ estimate"));
        let eigs = bundle.pre.spectrum_head();
        let ((), t_general) = time_secs(|| {
            std::hint::black_box(general_bound(est, eigs, k, adj.n()));
        });
        let ((), t_path) = time_secs(|| {
            std::hint::black_box(path_bound(est, eigs, k, adj.n()));
        });

        let rel_err = (est - exact).abs() / exact.abs().max(1e-12);
        rows.push(vec![
            name.to_string(),
            format!("{t_eigen:.4}"),
            format!("{t_lanczos:.4}"),
            format!("{t_general:.6}"),
            format!("{t_path:.6}"),
            format!("{:.2}%", rel_err * 100.0),
        ]);
        json.insert(
            name.to_string(),
            serde_json::json!({
                "eigen_secs": t_eigen,
                "lanczos_secs": t_lanczos,
                "general_bound_secs": t_general,
                "path_bound_secs": t_path,
                "lanczos_rel_err": rel_err,
                "n": adj.n(),
            }),
        );
    }
    sink.table(
        &["city", "Eigen (exact)", "Lanczos (SLQ)", "General bound", "Path bound", "SLQ err"],
        &rows,
    );
    sink.blank();
    sink.line(
        "Shape check (paper): exact ≫ Lanczos ≫ bound evaluation, with the \
         SLQ estimate within ~1% of exact.",
    );
    sink.write_json(&serde_json::Value::Object(json));
    sink.finish();
}
