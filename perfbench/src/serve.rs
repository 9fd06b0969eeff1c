//! `serve_eco`: the interactive ECO loop through the TCP server.
//!
//! One client runs a closed loop (it sends a request only after the
//! previous response ended, as a sizing tool waits for each slack before
//! its next edit) over a seeded request script against an in-process
//! server with one worker and one shard: two busy threads on a two-core
//! host.  Writes (cone-limited ECO plus an O(nets) publish) sit beside
//! reads (QUERY, and REPORT re-rendered after an ECO), so a gain on one
//! path that costs the other shows here.  No op parses, so this is also
//! the control for parse and build changes.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rctree_core::units::Seconds;
use rctree_obs::{counter_deltas, parse_exposition};
use rctree_serve::loadgen::fetch_metrics;
use rctree_serve::{ServeConfig, Server};
use rctree_sta::Design;
use rctree_workloads::requests::{request_mix, RequestMixParams};

use crate::deck::{deck_params, ingest, shape_metrics, Ingested, NETS, REQUIRED_S, THRESHOLD};
use crate::run::{timed_loop, Metric, RunResult, Setup, Timed};
use crate::stats::percentile;
use crate::trace::Tracer;

/// Requests drawn from the seeded mix; the script keeps the whole cycles
/// they fill, and the loop wraps around if a run gets through them all.
const SCRIPT_LEN: usize = 20_000;

/// The verbs of one script cycle: five steps of a sizing loop, each an
/// edit followed by the reads that check it.  A cycle holds the mix's
/// shares exactly (ECO 20%, QUERY 60%, REPORT 12%, CERTIFY 8%), and two of
/// its three REPORTs re-render after an edit while one hits the cache,
/// close to the unordered mix.  In mix order, a run's verb shares and
/// re-renders, and so its work, varied with the seed by several percent;
/// in cycles, every run and every window of whole cycles does the same
/// mix of work.
const CYCLE: [&str; 25] = [
    "ECO", "QUERY", "QUERY", "REPORT", "QUERY", //
    "ECO", "QUERY", "CERTIFY", "QUERY", "QUERY", //
    "ECO", "QUERY", "REPORT", "QUERY", "REPORT", //
    "ECO", "QUERY", "QUERY", "CERTIFY", "QUERY", //
    "ECO", "QUERY", "QUERY", "QUERY", "QUERY", //
];

/// Requests per `ops_per_s` window: four cycles, about two seconds.
const WINDOW: usize = 4 * CYCLE.len();

/// The request mix: one edit in five, certifying against the deck budget.
pub fn mix_params() -> RequestMixParams {
    RequestMixParams {
        requests_per_connection: SCRIPT_LEN,
        eco_fraction: 0.2,
        certify_budget: REQUIRED_S,
    }
}

/// The seeded request script of the deck's nets: the seeded mix's
/// requests of each verb, in mix order, laid out in [`CYCLE`]s.
pub fn script(nets: usize, seed: u64) -> Vec<String> {
    let trees = deck_params(nets).trees(seed);
    let mix = request_mix(&trees, 1, &mix_params(), seed)
        .pop()
        .expect("one connection script");
    let mut by_verb: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for request in mix {
        by_verb.entry(verb(&request)).or_default().push(request);
    }
    let cycles = CYCLE
        .iter()
        .map(|v| {
            let per_cycle = CYCLE.iter().filter(|w| w == &v).count();
            by_verb.get(v).map_or(0, Vec::len) / per_cycle
        })
        .min()
        .unwrap_or(0);
    let mut next: BTreeMap<&str, std::vec::IntoIter<String>> = by_verb
        .into_iter()
        .map(|(v, requests)| (v, requests.into_iter()))
        .collect();
    (0..cycles * CYCLE.len())
        .map(|i| {
            let v = CYCLE[i % CYCLE.len()];
            next.get_mut(v)
                .and_then(Iterator::next)
                .expect("counted above")
        })
        .collect()
}

/// Latency class of a request.
pub fn verb(request: &str) -> &'static str {
    match request.split_whitespace().next() {
        Some("QUERY") => "QUERY",
        Some("ECO") => "ECO",
        Some("REPORT") => "REPORT",
        Some("CERTIFY") => "CERTIFY",
        _ => "OTHER",
    }
}

/// Edits one request line carries: `ECO a; b` is two.
pub fn edits(request: &str) -> u64 {
    request.strip_prefix("ECO ").map_or(0, |body| {
        body.split(';').filter(|d| !d.trim().is_empty()).count() as u64
    })
}

/// How long the client spins on a quiet socket before it blocks: longer
/// than a QUERY round trip, much shorter than an ECO or a REPORT.
const SPIN: Duration = Duration::from_micros(200);

/// One closed-loop client connection.
///
/// The client busy-polls a quiet socket for up to [`SPIN`] before it
/// blocks, so the time its own thread takes to wake up stays out of short
/// requests' latency without spinning through long ones.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_nonblocking(true)?;
        Ok(Client {
            // A REPORT response is ~9 MB: read it in large chunks.
            reader: BufReader::with_capacity(1 << 20, writer.try_clone()?),
            writer,
            line: Vec::new(),
        })
    }

    /// Sends one request and reads its response block; returns the block's
    /// size in bytes and its final line.
    fn request(&mut self, request: &str) -> io::Result<(usize, String)> {
        let out = format!("{request}\n").into_bytes();
        let mut sent = 0;
        while sent < out.len() {
            match self.writer.write(&out[sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) => return Err(e),
            }
        }
        let mut bytes = 0;
        let mut quiet_since = Instant::now();
        self.line.clear();
        loop {
            match self.reader.read_until(b'\n', &mut self.line) {
                // A read that would block keeps the partial line in place.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if quiet_since.elapsed() < SPIN {
                        std::hint::spin_loop();
                        continue;
                    }
                    self.writer.set_nonblocking(false)?;
                    let arrived = self.reader.fill_buf().map(|b| b.len());
                    self.writer.set_nonblocking(true)?;
                    if arrived? == 0 {
                        return Err(closed());
                    }
                    quiet_since = Instant::now();
                    continue;
                }
                Err(e) => return Err(e),
                Ok(_) if !self.line.ends_with(b"\n") => return Err(closed()),
                Ok(_) => {}
            }
            bytes += self.line.len();
            if self.line.starts_with(b"OK rev") || self.line.starts_with(b"ERR") {
                let last = String::from_utf8_lossy(&self.line);
                return Ok((bytes, last.trim_end().to_string()));
            }
            self.line.clear();
            quiet_since = Instant::now();
        }
    }

    /// A request whose response must end in `OK rev …`.
    fn checked(&mut self, request: &str) -> Result<usize, String> {
        let (bytes, last) = self
            .request(request)
            .map_err(|e| format!("`{request}`: transport error: {e}"))?;
        if last.starts_with("OK rev") {
            Ok(bytes)
        } else {
            Err(format!("`{request}`: {last}"))
        }
    }
}

fn closed() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-response")
}

/// Sum of the counter (or histogram-sum) deltas whose series starts with
/// `family`.
fn delta(deltas: &[(String, f64)], family: &str) -> f64 {
    deltas
        .iter()
        .filter(|(key, _)| key.starts_with(family) && key[family.len()..].starts_with(['{', ' ']))
        .map(|(_, v)| v)
        .sum()
}

fn scrape(addr: SocketAddr) -> Result<rctree_obs::Exposition, String> {
    let text = fetch_metrics(addr, false).map_err(|e| format!("metrics scrape: {e}"))?;
    parse_exposition(&text).map_err(|e| format!("metrics scrape: {e}"))
}

/// A started server that is stopped, and its threads joined, when
/// dropped, so no set-up round leaves one running.
struct Running(Option<Server>);

impl Running {
    fn start(design: Design) -> Result<Running, String> {
        // One worker: with the closed-loop client that makes two busy
        // threads, the host's two cores.
        let config = ServeConfig::new(THRESHOLD, Seconds::new(REQUIRED_S), 1);
        let server = Server::start(design, &config, "127.0.0.1:0")
            .map_err(|e| format!("server start: {e}"))?;
        Ok(Running(Some(server)))
    }

    fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("running until dropped").local_addr()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
            server.join();
        }
    }
}

/// Set-up: the shared ingest, then the server start.
fn start(tracer: &mut Tracer, nets: usize, seed: u64) -> Result<(Running, Ingested), String> {
    let (ingested, design) = ingest(tracer, nets, seed)?;
    Ok((Running::start(design)?, ingested))
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<RunResult, String> {
    let setup = Setup::rounds(tracer, |tracer| start(tracer, NETS, seed))?;
    let (server, ingested) = setup.value;
    let script = script(NETS, seed);
    let outcome = drive(server.addr(), &script, seconds, tracer);
    drop(server);
    let (timed, stats) = outcome?;

    let mut result = RunResult::new(setup.rounds_s, timed, &ingested.bytes);
    result.tail_p = 99.0;
    result.window = WINDOW;
    result.late_failed = stats.edit_mismatch;
    result.info.extend(stats.info);
    result
        .layer
        .extend(shape_metrics(&ingested, stats.endpoints));
    result.layer.extend(stats.layer);
    Ok(result)
}

/// Server-side and per-verb figures of one timed window.
struct WindowStats {
    edit_mismatch: u64,
    endpoints: usize,
    info: Vec<(&'static str, String)>,
    layer: Vec<Metric>,
}

fn drive(
    addr: SocketAddr,
    script: &[String],
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<(Timed, WindowStats), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // Warm-up: the first REPORT renders and fills the report cache; the
    // first QUERY and CERTIFY touch the snapshot's lazy state.
    for request in ["REPORT", "QUERY net0", "CERTIFY 5e-8"] {
        client.checked(request)?;
    }
    let before = scrape(addr)?;

    let mut kinds: Vec<&'static str> = Vec::new();
    let mut bytes = 0usize;
    let mut edits_sent = 0u64;
    let mut next = script.iter().cycle();
    let mut timed = timed_loop(seconds, tracer, |tracer| {
        let request = next.next().expect("cycled script never ends");
        kinds.push(verb(request));
        edits_sent += edits(request);
        let span = tracer.begin("serve", "serve.request");
        let answer = client.checked(request);
        tracer.end(span);
        bytes += answer.as_ref().copied().unwrap_or(0);
        answer.map(|_| ())
    });
    timed.kinds = kinds;
    drop(client);
    let after = scrape(addr)?;
    let deltas = counter_deltas(&before, &after);

    let applied = delta(&deltas, "rctree_shard_eco_applied_total");
    let skipped = delta(&deltas, "rctree_shard_eco_skipped_total");
    let cache_hits = delta(&deltas, "rctree_shard_report_cache_hits_total");
    let handled_us = delta(&deltas, "rctree_request_duration_us_sum");
    let endpoints = after
        .series
        .get("rctree_endpoints")
        .map_or(0, |(_, v)| *v as usize);
    let edit_mismatch = (applied + skipped - edits_sent as f64).abs().round() as u64;

    // Sorted latencies of the requests of verb `want` whose predecessor's
    // verb passes `after`.
    let by_verb = |want: &str, after: &dyn Fn(&str) -> bool| -> Vec<f64> {
        let mut ms: Vec<f64> = (0..timed.op_ms.len())
            .filter(|&i| timed.kinds[i] == want)
            .filter(|&i| after(if i == 0 { "" } else { timed.kinds[i - 1] }))
            .map(|i| timed.op_ms[i])
            .collect();
        ms.sort_by(f64::total_cmp);
        ms
    };
    let any = |_: &str| true;
    let pct = |sorted: &[f64], p: f64| {
        if sorted.is_empty() {
            0.0
        } else {
            percentile(sorted, p)
        }
    };
    let (query, eco, report, certify) = (
        by_verb("QUERY", &any),
        by_verb("ECO", &any),
        by_verb("REPORT", &any),
        by_verb("CERTIFY", &any),
    );
    // A QUERY after another reads hot state; one right after an ECO's
    // publish or a REPORT's render reads state they pushed out of cache.
    let query_hot = by_verb("QUERY", &|v| v == "QUERY");
    let query_cold = by_verb("QUERY", &|v| v == "ECO" || v == "REPORT");
    let requests = timed.op_ms.len().max(1) as f64;
    let client_us: f64 = timed.op_ms.iter().sum::<f64>() * 1e3;
    let layer = vec![
        Metric::new("serve.query_hot_p50_ms", pct(&query_hot, 50.0), "ms"),
        Metric::new("serve.query_cold_p50_ms", pct(&query_cold, 50.0), "ms"),
        Metric::new("serve.eco_p50_ms", pct(&eco, 50.0), "ms"),
        Metric::new("serve.eco_p99_ms", pct(&eco, 99.0), "ms"),
        Metric::new("serve.report_p50_ms", pct(&report, 50.0), "ms"),
        Metric::new("serve.report_p99_ms", pct(&report, 99.0), "ms"),
        Metric::new("serve.certify_p50_ms", pct(&certify, 50.0), "ms"),
        Metric::new(
            "serve.handle_share",
            handled_us / client_us.max(1e-9),
            "ratio",
        ),
        Metric::new(
            "serve.report_cache_hit_ratio",
            cache_hits / report.len().max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "serve.eco_applied_ratio",
            applied / (applied + skipped).max(1.0),
            "ratio",
        ),
        Metric::new(
            "serve.response_kib_per_req",
            bytes as f64 / 1024.0 / requests,
            "KiB",
        ),
    ];
    let info = vec![
        ("requests_query", query.len().to_string()),
        ("requests_eco", eco.len().to_string()),
        ("requests_report", report.len().to_string()),
        ("requests_certify", certify.len().to_string()),
        ("edits_sent", edits_sent.to_string()),
        ("edits_applied", (applied as u64).to_string()),
        ("edits_skipped", (skipped as u64).to_string()),
    ];
    Ok((
        timed,
        WindowStats {
            edit_mismatch,
            endpoints,
            info,
            layer,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script() {
        let a = script(30, 5);
        assert_eq!(a, script(30, 5));
        assert_ne!(a, script(30, 6));
        // Nearly all of the mix fills whole cycles.
        assert_eq!(a.len() % CYCLE.len(), 0);
        assert!(a.len() > SCRIPT_LEN * 9 / 10, "{}", a.len());
        for (i, request) in a.iter().enumerate() {
            assert_eq!(verb(request), CYCLE[i % CYCLE.len()], "request {i}");
        }
        // The cycle keeps the mix's shares.
        let share = |v: &str| CYCLE.iter().filter(|w| **w == v).count() as f64 / 25.0;
        let reads = 1.0 - mix_params().eco_fraction;
        for (v, want) in [
            ("ECO", mix_params().eco_fraction),
            ("QUERY", reads * 0.75),
            ("REPORT", reads * 0.15),
            ("CERTIFY", reads * 0.10),
        ] {
            assert!((share(v) - want).abs() < 1e-12, "{v}");
        }
    }

    #[test]
    fn edits_count_directives_per_line() {
        assert_eq!(edits("ECO setcap net1 n2 1e-15"), 1);
        assert_eq!(edits("ECO setcap net1 n2 1e-15; setcap net1 n3 2e-15"), 2);
        assert_eq!(edits("QUERY net1"), 0);
        assert_eq!(verb("CERTIFY 5e-8"), "CERTIFY");
        assert_eq!(verb("QUERY net1 n2"), "QUERY");
    }

    #[test]
    fn deltas_match_whole_family_names() {
        let deltas = vec![
            (
                "rctree_shard_eco_applied_total{shard=\"0\"}".to_string(),
                3.0,
            ),
            (
                "rctree_shard_eco_applied_total{shard=\"1\"}".to_string(),
                2.0,
            ),
            ("rctree_shard_eco_applied_total_extra".to_string(), 100.0),
        ];
        assert_eq!(delta(&deltas, "rctree_shard_eco_applied_total"), 5.0);
    }

    #[test]
    fn a_small_served_window_is_correct() {
        let mut off = Tracer::new(false);
        let (server, _) = start(&mut off, 40, 9).unwrap();
        let script = script(40, 9);
        let outcome = drive(server.addr(), &script, 0.3, &mut off);
        drop(server);
        let (timed, stats) = outcome.unwrap();
        assert!(!timed.op_ms.is_empty());
        assert_eq!(timed.failed, 0, "{:?}", timed.errors);
        assert_eq!(stats.edit_mismatch, 0, "{:?}", stats.info);
        assert!(stats.endpoints > 0);
    }
}
