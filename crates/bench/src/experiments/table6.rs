//! Table 6: effectiveness of planned routes across six areas.
//!
//! For each area: ETA | ETA-Pre | vk-TSP on the defined metrics (#new
//! edges, objective, normalized connectivity) and the transfer-convenience
//! metrics (transfers avoided, distance ratio ζ, crossed routes). Grey rows
//! (w ∈ {0, 0.3, 0.7}) reproduce the paper's weight study on Chicago.

use ct_core::{evaluate_plan, Planner, PlannerMode, RoutePlan};

use crate::harness::{f, ExperimentCtx, OutputSink};

fn row_for(label: &str, planner: &Planner, city: &ct_data::City, plan: &RoutePlan) -> Vec<String> {
    let m = evaluate_plan(city, plan, &planner.precomputed().candidates);
    let conn_norm = plan.conn_increment / planner.precomputed().lambda_max;
    vec![
        label.to_string(),
        plan.num_new_edges().to_string(),
        f(plan.objective, 3),
        f(conn_norm, 3),
        f(m.transfers_avoided, 2),
        f(m.distance_ratio, 2),
        m.crossed_routes.to_string(),
    ]
}

/// Runs this experiment and writes its artifacts.
pub fn run(ctx: &mut ExperimentCtx) {
    let mut sink = OutputSink::new("table6");
    sink.line("# Table 6 — effectiveness analysis of planned routes");
    sink.blank();

    let mut params = ctx.base_params();
    params.k = if ctx.fast { 16 } else { 30 };
    params.sn = if ctx.fast { 800 } else { 2000 };
    let eta_it_cap = if ctx.fast { 250u64 } else { 1500 };

    let mut json = serde_json::Map::new();
    let header = [
        "method",
        "#new edges",
        "objective O(μ)",
        "connectivity",
        "#transfers avoided",
        "distance ratio ζ",
        "#crossed routes",
    ];
    for name in ctx.table6_city_names() {
        ctx.prepare(name);
        sink.line(format!("## {name}"));
        let mut rows = Vec::new();
        let mut area_json = serde_json::Map::new();

        // ETA (online connectivity; iteration-capped — see EXPERIMENTS.md).
        let mut eta_params = params;
        eta_params.it_max = eta_it_cap;
        eta_params.sn = params.sn.min(300);
        let planner = ctx.planner(name, eta_params);
        let city = &ctx.bundle(name).city;
        let res = planner.run(PlannerMode::Eta);
        rows.push(row_for("ETA", &planner, city, &res.best));
        area_json.insert(
            "eta".into(),
            serde_json::json!({
                "objective": res.best.objective, "conn": res.best.conn_increment,
                "new_edges": res.best.num_new_edges(), "runtime_secs": res.runtime_secs,
            }),
        );

        // ETA-Pre and vk-TSP at full iteration budget.
        let planner = ctx.planner(name, params);
        for (label, mode) in [("ETA-Pre", PlannerMode::EtaPre), ("vk-TSP", PlannerMode::VkTsp)] {
            let res = planner.run(mode);
            rows.push(row_for(label, &planner, city, &res.best));
            area_json.insert(
                label.to_lowercase(),
                serde_json::json!({
                    "objective": res.best.objective, "conn": res.best.conn_increment,
                    "new_edges": res.best.num_new_edges(), "runtime_secs": res.runtime_secs,
                }),
            );
        }

        // Grey rows: the weight study on Chicago (paper's grey cells).
        if name == "chicago" {
            for w in [0.0, 0.3, 0.7] {
                let mut wp = params;
                wp.w = w;
                let planner = ctx.planner(name, wp);
                let res = planner.run(PlannerMode::EtaPre);
                rows.push(row_for(&format!("ETA-Pre w={w}"), &planner, city, &res.best));
                area_json.insert(
                    format!("eta-pre-w{w}"),
                    serde_json::json!({
                        "objective": res.best.objective, "conn": res.best.conn_increment,
                    }),
                );
            }
        }
        sink.table(&header, &rows);
        sink.blank();
        json.insert(name.to_string(), serde_json::Value::Object(area_json));
    }
    sink.line(
        "Shape checks (paper): (1) ETA-Pre ≈ ETA on objective; (2) both beat \
         vk-TSP on connectivity increment and transfer metrics; (3) smaller \
         w ⇒ more crossed routes and transfers avoided.",
    );
    sink.write_json(&serde_json::Value::Object(json));
    sink.finish();
}
