//! perfbench: the repository's benchmark, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <deck_signoff|serve_eco|all>
//!           [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! A run sets up its workload from the seed, times back-to-back ops for
//! `--seconds`, checks every op's output against a reference, and prints
//! one info line (seed, deck digest, sample counts) followed by one JSON
//! result line: `{"correct", "attempted", "failed", "metrics"}`.  With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, and the spans are written to
//! `perfbench/trace-out/`.  `--workload all` runs each workload in a
//! process of its own.  See `perfbench/README.md` for why the workloads,
//! sizes and bounds are what they are.

mod deck;
mod run;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use run::{Metric, RunResult};
use trace::Tracer;

const WORKLOADS: [&str; 2] = ["deck_signoff", "serve_eco"];

/// Claims measured on the default seed must also hold on this one, which
/// no tuning run uses.
const HELD_OUT_SEED: u64 = 9001;

/// The end-to-end metrics, as `BENCHMARK.json` declares them.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, as `BENCHMARK.json` declares them.  A traced run
/// prints all of them; one its workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 27] = [
    ("bench.op_ms", "ms"),
    ("bench.unattributed_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("netlist.spef_parse_ms", "ms"),
    ("netlist.spef_mib_per_s", "MiB/s"),
    ("netlist.nets", "count"),
    ("netlist.nodes", "count"),
    ("sta.net_build_ms", "ms"),
    ("sta.analyze_ms", "ms"),
    ("sta.report_render_ms", "ms"),
    ("sta.drop_ms", "ms"),
    ("sta.report_bytes", "B"),
    ("sta.endpoints", "count"),
    ("par.parse_speedup", "x"),
    ("par.analyze_speedup", "x"),
    ("serve.request_ms", "ms"),
    ("serve.query_hot_p50_ms", "ms"),
    ("serve.query_cold_p50_ms", "ms"),
    ("serve.eco_p50_ms", "ms"),
    ("serve.eco_p99_ms", "ms"),
    ("serve.report_p50_ms", "ms"),
    ("serve.report_p99_ms", "ms"),
    ("serve.certify_p50_ms", "ms"),
    ("serve.handle_share", "ratio"),
    ("serve.report_cache_hit_ratio", "ratio"),
    ("serve.eco_applied_ratio", "ratio"),
    ("serve.response_kib_per_req", "KiB"),
];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

/// Orders `produced` as `declared` lists them, with the declared unit; a
/// declared metric the run did not produce reads 0.
fn select(declared: &[(&str, &'static str)], produced: &[Metric]) -> Vec<Metric> {
    declared
        .iter()
        .map(|&(name, unit)| {
            let value = produced
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect()
}

/// A number as JSON: non-finite values (which no metric should take) are
/// written as 0 and make the run incorrect.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let correct = correct && metrics.iter().all(|m| m.value.is_finite());
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

fn info_line(args: &Args, result: &RunResult) -> String {
    let mut fields = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        (
            "cpus",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
    ];
    fields.extend(result.sample_info());
    fields.extend(result.info.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    format!("{{\"info\": {{{}}}}}", body.join(", "))
}

fn run_one(args: &Args) -> Result<String, String> {
    let mut tracer = Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "deck_signoff" => deck::run(args.seed, args.seconds, &mut tracer)?,
        "serve_eco" => serve::run(args.seed, args.seconds, &mut tracer)?,
        other => unreachable!("workload `{other}` passed validation"),
    };
    for e in &result.timed.errors {
        eprintln!("perfbench: failed op: {e}");
    }
    let metrics = if args.trace {
        write_trace(args, &tracer)?;
        select(&PER_LAYER, &result.per_layer(&tracer))
    } else {
        select(&END_TO_END, &result.end_to_end())
    };
    let failed = result.failed();
    let correct = failed == 0 && result.attempted() > 0;
    Ok(format!(
        "{}\n{}",
        info_line(args, &result),
        result_line(correct, result.attempted(), failed, &metrics)
    ))
}

fn write_trace(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("trace-out");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Runs every workload in a child process of its own, so each one's peak
/// resident set is its own.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut failures = Vec::new();
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("cannot run {workload}: {e}"))?;
        if !status.success() {
            failures.push(workload);
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("failed: {}", failures.join(", ")))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args).map(|text| println!("{text}"))
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect("key present");
                    let rest = &entry[at + key.len() + 2..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let close = open + rest[open..].find('"').expect("value closes");
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_the_benchmark_file() {
        assert_eq!(owned(&END_TO_END), declared("end_to_end"));
        assert_eq!(owned(&PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let metrics = select(
            &END_TO_END,
            &[
                Metric::new("op_tail_ms", 1.25, "ms"),
                Metric::new("extra", 9.0, "s"),
            ],
        );
        let line = result_line(true, 12, 0, &metrics);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"op_tail_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(!line.contains("extra"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(line.ends_with("}}"));
        // A non-finite metric makes the run incorrect.
        let bad = [Metric::new("setup_s", f64::NAN, "s")];
        assert!(result_line(true, 1, 0, &bad).starts_with("{\"correct\": false"));
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let args = parse_args(&argv(
            "--workload serve_eco --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "serve_eco".into(),
                seed: 7,
                seconds: 2.5,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload all --trace 2")).is_err());
        assert!(parse_args(&argv("--workload all --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload all --seed")).is_err());
        assert!(parse_args(&argv("--workload all --bogus 1")).is_err());
        assert!(parse_args(&argv("--workload all")).is_ok());
    }
}
