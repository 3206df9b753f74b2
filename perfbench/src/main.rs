//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a metadata line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a
//! correctness check fails, 2 on bad flags.

use std::path::PathBuf;

use perfbench::report::{host_facts, meta_json};
use perfbench::workloads::{Scale, Workload};
use perfbench::{run, Config};

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds wants a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config { workload, seed, seconds, trace, scale: Scale::Full })
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    let result = run(&cfg);
    let mut meta = host_facts();
    meta.extend(result.facts);
    if cfg.trace {
        let path = PathBuf::from(".bench_out").join(format!(
            "trace-{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        match perfbench::trace::write_spans(&path, &result.spans) {
            Ok(()) => meta.insert("trace_file", path.display().to_string()),
            Err(e) => meta.insert("trace_file", format!("not written: {e}")),
        };
    }
    println!("{}", meta_json(&meta));
    for e in &result.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    println!("{}", result.outcome.to_json());
    if !result.outcome.correct {
        std::process::exit(1);
    }
}
