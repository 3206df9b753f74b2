//! Table 5: dataset overview — |R|, len(R), |V|, |Vr|, |E|, |Er|, |D|.

use crate::harness::{f, ExperimentCtx, OutputSink};

/// Runs this experiment and writes its artifacts.
pub fn run(ctx: &mut ExperimentCtx) {
    let mut sink = OutputSink::new("table5");
    sink.line("# Table 5 — dataset overview (synthetic stand-ins; see docs/ARCHITECTURE.md, \"Data ingestion\")");
    sink.blank();

    let names: Vec<&'static str> = ctx
        .main_city_names()
        .into_iter()
        .chain(["manhattan", "queens", "brooklyn", "staten-island", "bronx"])
        .collect();

    let mut rows = Vec::new();
    let mut json = serde_json::Map::new();
    for name in names {
        ctx.prepare(name);
        let s = ctx.bundle(name).city.stats();
        rows.push(vec![
            name.to_string(),
            s.routes.to_string(),
            f(s.avg_route_len, 1),
            s.road_nodes.to_string(),
            s.stops.to_string(),
            s.road_edges.to_string(),
            s.transit_edges.to_string(),
            s.trajectories.to_string(),
        ]);
        json.insert(name.to_string(), serde_json::to_value(s).expect("stats serialize"));
    }
    sink.table(&["dataset", "|R|", "len(R)", "|V|", "|Vr|", "|E|", "|Er|", "|D|"], &rows);
    sink.blank();
    sink.line(
        "Paper reference (full scale): Chicago 146 routes / 6171 stops / \
         555k trajectories; NYC 463 routes / 12 340 stops / 407k. The \
         synthetic presets track those proportions at roughly 4–8× reduction.",
    );
    sink.write_json(&serde_json::Value::Object(json));
    sink.finish();
}
