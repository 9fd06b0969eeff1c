//! The one deck every workload runs on, the ingest steps every set-up
//! shares, and the `deck_signoff` workload: SPEF bytes in, certified report
//! out.
//!
//! `deck_signoff` is ingestion-bound (parse ≈ 50–55% of an op, net build
//! ≈ 15%, analysis ≈ 10%, report render ≈ 7%, freeing ≈ 12%), so it is
//! where parse and build work must show and where a kernel-only change
//! moves little.

use std::time::Instant;

use rctree_core::units::Seconds;
use rctree_netlist::{parse_spef_read, SpefNet};
use rctree_sta::{CellLibrary, Design, TimingReport};
use rctree_workloads::deck::{render_spef_deck, SpefDeckParams};

use crate::run::{timed_loop, Metric, RunResult, Setup};
use crate::stats::{fnv1a64, median};
use crate::trace::Tracer;

/// Nets in the deck: 13.7 MB of SPEF, so an op stays near one second and a
/// run holds many of them on a noisy two-core host.
pub const NETS: usize = 20_000;
/// Switching threshold of every stage delay.
pub const THRESHOLD: f64 = 0.5;
/// Required arrival time of every certification, seconds.
pub const REQUIRED_S: f64 = 50e-9;
/// Worker threads of the batch workloads: the host's two cores.
pub const JOBS: usize = 2;
/// Cell driving every extracted net.
pub const DRIVER: &str = "inv_4x";
/// Ops per `ops_per_s` window: two, about two and a half seconds.
const WINDOW: usize = 2;

/// Deck shape: [`SpefDeckParams::default`] trees, `nets` of them.
pub fn deck_params(nets: usize) -> SpefDeckParams {
    SpefDeckParams {
        nets,
        ..SpefDeckParams::default()
    }
}

/// The seeded deck of `nets` nets, rendered into memory.
pub fn render_deck(nets: usize, seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(nets * 700);
    render_spef_deck(&deck_params(nets), seed, &mut out).expect("writing to a Vec cannot fail");
    out
}

/// Parses the deck from memory through the streaming reader.
pub fn parse(tracer: &mut Tracer, bytes: &[u8], jobs: usize) -> Result<Vec<SpefNet>, String> {
    let span = tracer.begin("netlist", "spef.parse");
    let nets = parse_spef_read(bytes, jobs).map_err(|e| format!("parse: {e}"));
    tracer.end(span);
    nets
}

/// Builds the one-stage-per-net design of a parsed deck.
pub fn build(tracer: &mut Tracer, nets: Vec<SpefNet>) -> Result<Design, String> {
    let span = tracer.begin("sta", "sta.net_build");
    let design = Design::from_extracted(
        CellLibrary::nmos_1981(),
        DRIVER,
        nets.into_iter().map(|n| (n.name, n.tree)),
    )
    .map_err(|e| format!("build: {e}"));
    tracer.end(span);
    design
}

/// The seeded deck and its shape.
pub struct Ingested {
    pub bytes: Vec<u8>,
    pub names: Vec<String>,
    pub nodes: usize,
}

/// The set-up every workload shares: render the seeded deck of `nets`
/// nets, parse it at [`JOBS`] workers and build its design.
pub fn ingest(tracer: &mut Tracer, nets: usize, seed: u64) -> Result<(Ingested, Design), String> {
    let bytes = render_deck(nets, seed);
    let parsed = parse(tracer, &bytes, JOBS)?;
    let names = parsed.iter().map(|n| n.name.clone()).collect();
    let nodes = parsed.iter().map(|n| n.tree.node_count()).sum();
    let design = build(tracer, parsed)?;
    Ok((
        Ingested {
            bytes,
            names,
            nodes,
        },
        design,
    ))
}

/// Counts every workload reports.
pub fn shape_metrics(ingested: &Ingested, endpoints: usize) -> [Metric; 3] {
    [
        Metric::count("netlist.nets", ingested.names.len() as f64),
        Metric::count("netlist.nodes", ingested.nodes as f64),
        Metric::count("sta.endpoints", endpoints as f64),
    ]
}

/// Renders the signoff output: the full report, whose last line is the
/// certification.
fn signoff(
    tracer: &mut Tracer,
    design: &Design,
    jobs: usize,
) -> Result<(String, TimingReport), String> {
    let span = tracer.begin("sta", "sta.analyze");
    let report = design.analyze_with_jobs(THRESHOLD, Seconds::new(REQUIRED_S), jobs);
    tracer.end(span);
    let report = report.map_err(|e| format!("analyze: {e}"))?;
    let span = tracer.begin("sta", "sta.report_render");
    let text = report.to_string();
    tracer.end(span);
    Ok((text, report))
}

/// One op: SPEF bytes to certified report text, and the report's
/// endpoint count.
fn op(tracer: &mut Tracer, bytes: &[u8], jobs: usize) -> Result<(String, usize), String> {
    let nets = parse(tracer, bytes, jobs)?;
    let design = build(tracer, nets)?;
    let (text, report) = signoff(tracer, &design, jobs)?;
    let endpoints = report.endpoints.len();
    // Freeing the design and report is a sizeable part of an op.
    let span = tracer.begin("sta", "sta.drop");
    drop((report, design));
    tracer.end(span);
    Ok((text, endpoints))
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<RunResult, String> {
    // Each op builds its own design, so set-up drops the one it built.
    let setup = Setup::rounds(tracer, |tracer| Ok(ingest(tracer, NETS, seed)?.0))?;
    let ingested = setup.value;
    let bytes = &ingested.bytes;

    // The reference is the serial (jobs = 1) pipeline; every timed op at
    // JOBS workers must reproduce its report bytes.
    let (reference, endpoints) = op(&mut Tracer::new(false), bytes, 1)?;
    let reference_digest = fnv1a64(reference.as_bytes());

    // Warm-up: the worker pool starts and the allocator grows to size.
    op(&mut Tracer::new(false), bytes, JOBS)?;

    let traced = tracer.enabled();
    let timed = timed_loop(seconds, tracer, |tracer| {
        let (text, _) = op(tracer, bytes, JOBS)?;
        if text.len() != reference.len() || fnv1a64(text.as_bytes()) != reference_digest {
            return Err("report differs from the jobs=1 reference".into());
        }
        Ok(())
    });

    let mut result = RunResult::new(setup.rounds_s, timed, bytes);
    result.window = WINDOW;
    result
        .info
        .push(("report_fnv1a64", format!("{reference_digest:016x}")));
    result.layer.extend(shape_metrics(&ingested, endpoints));
    result
        .layer
        .push(Metric::new("sta.report_bytes", reference.len() as f64, "B"));
    if traced {
        result.layer.extend(speedups(bytes)?);
    }
    Ok(result)
}

/// Parse and analysis time at one worker over time at [`JOBS`] workers,
/// medians of alternating rounds.
fn speedups(bytes: &[u8]) -> Result<Vec<Metric>, String> {
    const ROUNDS: usize = 3;
    let mut off = Tracer::new(false);
    let nets = parse(&mut off, bytes, JOBS)?;
    let design = build(&mut off, nets)?;
    let mut parse_s = [Vec::new(), Vec::new()];
    let mut analyze_s = [Vec::new(), Vec::new()];
    for round in 0..ROUNDS {
        let order = if round % 2 == 0 { [1, JOBS] } else { [JOBS, 1] };
        for jobs in order {
            let slot = usize::from(jobs != 1);
            // Results are dropped after the clock stops.
            let t = Instant::now();
            let nets = std::hint::black_box(parse(&mut off, bytes, jobs)?);
            parse_s[slot].push(t.elapsed().as_secs_f64());
            drop(nets);
            let t = Instant::now();
            let report = std::hint::black_box(
                design
                    .analyze_with_jobs(THRESHOLD, Seconds::new(REQUIRED_S), jobs)
                    .map_err(|e| format!("analyze: {e}"))?,
            );
            analyze_s[slot].push(t.elapsed().as_secs_f64());
            drop(report);
        }
    }
    Ok(vec![
        Metric::new(
            "par.parse_speedup",
            median(&parse_s[0]) / median(&parse_s[1]),
            "x",
        ),
        Metric::new(
            "par.analyze_speedup",
            median(&analyze_s[0]) / median(&analyze_s[1]),
            "x",
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_deck_digest() {
        let a = fnv1a64(&render_deck(40, 3));
        assert_eq!(a, fnv1a64(&render_deck(40, 3)));
        assert_ne!(a, fnv1a64(&render_deck(40, 4)));
    }

    #[test]
    fn serial_and_parallel_signoff_agree() {
        let bytes = &render_deck(200, 5);
        let mut off = Tracer::new(false);
        let serial = op(&mut off, bytes, 1).unwrap();
        assert_eq!(serial, op(&mut off, bytes, JOBS).unwrap());
        assert!(serial.0.contains("certification: "));
        assert!(serial.1 > 0);
    }
}
