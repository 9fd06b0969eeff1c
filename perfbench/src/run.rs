//! The parts every workload shares: repeated set-up, the timed op loop,
//! and the metrics a run reports.

use std::time::{Duration, Instant};

use crate::stats::{fnv1a64, median, peak_rss_mib, percentile, samples_beyond, supports};
use crate::trace::{LayerTotals, Tracer, ROOT};

/// Set-up repeats this often per run and `setup_s` is the median, so one
/// slow round on a noisy host does not move it.
pub const SETUP_ROUNDS: usize = 3;

/// Op id of the spans recorded during set-up; timed ops count from 1.
pub const SETUP_OP: u64 = 0;

/// At most this many op failure messages are kept for standard error.
const KEPT_ERRORS: usize = 5;

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }

    pub fn count(name: impl Into<String>, value: f64) -> Metric {
        Metric::new(name, value, "count")
    }
}

/// The last set-up's product and how long each round took.
pub struct Setup<T> {
    pub rounds_s: Vec<f64>,
    pub value: T,
}

impl<T> Setup<T> {
    /// Runs `round` [`SETUP_ROUNDS`] times, dropping each product before
    /// the next round starts so rounds do not stack up memory.
    pub fn rounds(
        tracer: &mut Tracer,
        mut round: impl FnMut(&mut Tracer) -> Result<T, String>,
    ) -> Result<Setup<T>, String> {
        let mut rounds_s = Vec::with_capacity(SETUP_ROUNDS);
        let mut value = None;
        tracer.set_op(SETUP_OP);
        for _ in 0..SETUP_ROUNDS {
            drop(value.take());
            let t = Instant::now();
            let root = tracer.begin(ROOT.0, ROOT.1);
            let produced = round(tracer);
            tracer.end(root);
            rounds_s.push(t.elapsed().as_secs_f64());
            value = Some(produced?);
        }
        Ok(Setup {
            rounds_s,
            value: value.expect("at least one set-up round"),
        })
    }
}

/// What the timed loop saw.
#[derive(Debug, Default)]
pub struct Timed {
    /// Wall time of every timed op, in order, failed ones included.
    pub op_ms: Vec<f64>,
    /// Whether op `i` was traced (every other op, in a traced run).
    pub traced: Vec<bool>,
    /// Kind of op `i` where a workload mixes kinds of different cost
    /// (request verbs); empty when every op is alike.
    pub kinds: Vec<&'static str>,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Runs `op` back to back until `seconds` have passed, timing each call.
///
/// In a traced run only every other op records spans, so the traced and
/// untraced op times of one run give the tracing overhead.  An op that
/// returns an error counts as failed; the loop goes on.
pub fn timed_loop(
    seconds: f64,
    tracer: &mut Tracer,
    mut op: impl FnMut(&mut Tracer) -> Result<(), String>,
) -> Timed {
    let tracing = tracer.enabled();
    let budget = Duration::from_secs_f64(seconds);
    let mut timed = Timed::default();
    let start = Instant::now();
    while start.elapsed() < budget {
        let index = timed.op_ms.len() as u64 + 1;
        let traced = tracing && index % 2 == 1;
        tracer.set_enabled(traced);
        tracer.set_op(index);
        let t = Instant::now();
        let root = tracer.begin(ROOT.0, ROOT.1);
        let outcome = op(tracer);
        tracer.end(root);
        timed.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        timed.traced.push(traced);
        if let Err(e) = outcome {
            timed.failed += 1;
            if timed.errors.len() < KEPT_ERRORS {
                timed.errors.push(e);
            }
        }
    }
    tracer.set_enabled(tracing);
    timed
}

/// Ops per second: the median over consecutive windows of `window` ops
/// each, so one slow stretch of a run on a shared host does not move it.
/// A partial last window is left out; a run shorter than one window is a
/// window of its own.
pub fn windowed_rate(op_ms: &[f64], window: usize) -> f64 {
    if op_ms.is_empty() {
        return 0.0;
    }
    let rate = |ops: &[f64]| ops.len() as f64 / (ops.iter().sum::<f64>() / 1e3).max(1e-12);
    let rates: Vec<f64> = op_ms.chunks_exact(window.max(1)).map(rate).collect();
    if rates.is_empty() {
        rate(op_ms)
    } else {
        median(&rates)
    }
}

/// Tracing overhead in percent: per op kind, the median traced op over the
/// median untraced op, averaged with the kinds' total times as weights.
/// Comparing within a kind keeps a mix of cheap and costly ops from
/// passing a shift in the mix off as overhead, and weighting by time keeps
/// a cheap kind whose latency has two modes (a QUERY right after a write
/// or after another QUERY) from swinging the figure.
pub fn trace_overhead_pct(timed: &Timed) -> Option<f64> {
    let kind = |i: usize| timed.kinds.get(i).copied().unwrap_or("op");
    let mut kinds: Vec<&str> = (0..timed.op_ms.len()).map(kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    let (mut weighted, mut weight) = (0.0, 0.0);
    for k in kinds {
        let pick = |want: bool| -> Vec<f64> {
            (0..timed.op_ms.len())
                .filter(|&i| kind(i) == k && timed.traced[i] == want)
                .map(|i| timed.op_ms[i])
                .collect()
        };
        let (on, off) = (pick(true), pick(false));
        if on.is_empty() || off.is_empty() {
            continue;
        }
        let time: f64 = on.iter().chain(&off).sum();
        weighted += median(&on) / median(&off) * time;
        weight += time;
    }
    (weight > 0.0).then(|| (weighted / weight - 1.0) * 100.0)
}

/// Everything one workload run hands back for reporting.
pub struct RunResult {
    pub setup_s: Vec<f64>,
    pub timed: Timed,
    /// The percentile `op_tail_ms` reports for this workload.
    pub tail_p: f64,
    /// Ops per `ops_per_s` window: whole ops, about two seconds' worth.
    pub window: usize,
    /// Failures found after the loop (counter checks), on top of
    /// `timed.failed`.
    pub late_failed: u64,
    /// Seed, digests and sizes, printed ahead of the result line.
    pub info: Vec<(&'static str, String)>,
    /// Workload-specific per-layer metrics.
    pub layer: Vec<Metric>,
    /// Size of the run's SPEF deck.
    deck_bytes: usize,
}

impl RunResult {
    /// A run's result over the deck `deck`, whose size and digest go on
    /// the info line.
    pub fn new(setup_s: Vec<f64>, timed: Timed, deck: &[u8]) -> RunResult {
        RunResult {
            setup_s,
            timed,
            tail_p: 50.0,
            window: 1,
            late_failed: 0,
            info: vec![
                ("deck_bytes", deck.len().to_string()),
                ("deck_fnv1a64", format!("{:016x}", fnv1a64(deck))),
            ],
            layer: Vec::new(),
            deck_bytes: deck.len(),
        }
    }

    pub fn attempted(&self) -> u64 {
        self.timed.op_ms.len() as u64
    }

    pub fn failed(&self) -> u64 {
        (self.timed.failed + self.late_failed).min(self.attempted())
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let mut sorted = self.timed.op_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let tail = if sorted.is_empty() {
            0.0
        } else {
            percentile(&sorted, self.tail_p)
        };
        vec![
            Metric::new("setup_s", median(&self.setup_s), "s"),
            Metric::new(
                "ops_per_s",
                windowed_rate(&self.timed.op_ms, self.window),
                "1/s",
            ),
            Metric::new("op_tail_ms", tail, "ms"),
            Metric::new("peak_rss_mib", peak_rss_mib().unwrap_or(0.0), "MiB"),
        ]
    }

    /// Ops, tail percentile and the samples beyond it, for the info line.
    pub fn sample_info(&self) -> Vec<(&'static str, String)> {
        let n = self.timed.op_ms.len();
        let beyond = if n == 0 {
            0
        } else {
            samples_beyond(n, self.tail_p)
        };
        vec![
            ("ops", n.to_string()),
            ("tail_percentile", self.tail_p.to_string()),
            ("tail_samples_beyond", beyond.to_string()),
            ("tail_supported", supports(n, self.tail_p).to_string()),
        ]
    }

    /// The per-layer metrics of a traced run: self time per layer from the
    /// spans (timed ops first, set-up rounds for layers only set-up
    /// reaches), the traced op wall time they add up to, the parse rate,
    /// and the tracing overhead measured against the run's untraced ops.
    pub fn per_layer(&self, tracer: &Tracer) -> Vec<Metric> {
        let spans = tracer.spans();
        let timed = LayerTotals::of(spans, |op| op != SETUP_OP);
        let setup = LayerTotals::of(spans, |op| op == SETUP_OP);
        let mut out: Vec<Metric> = Vec::new();
        for metric in timed.self_ns.keys() {
            out.push(Metric::new(
                metric.clone(),
                timed.mean_ms(metric).unwrap_or(0.0),
                "ms",
            ));
        }
        for metric in setup.self_ns.keys() {
            if !timed.self_ns.contains_key(metric) {
                out.push(Metric::new(
                    metric.clone(),
                    setup.mean_ms(metric).unwrap_or(0.0),
                    "ms",
                ));
            }
        }
        out.push(Metric::new("bench.op_ms", timed.wall_ms(), "ms"));
        let parse_ms = out.iter().find(|m| m.name == "netlist.spef_parse_ms");
        if let Some(ms) = parse_ms.map(|m| m.value).filter(|&ms| ms > 0.0) {
            let mib = self.deck_bytes as f64 / (1024.0 * 1024.0);
            out.push(Metric::new(
                "netlist.spef_mib_per_s",
                mib / (ms / 1e3),
                "MiB/s",
            ));
        }
        if let Some(overhead) = trace_overhead_pct(&self.timed) {
            out.push(Metric::new("bench.trace_overhead_pct", overhead, "%"));
        }
        out.extend(self.layer.iter().cloned());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_ops_count_against_attempted_and_the_loop_goes_on() {
        let mut tracer = Tracer::new(false);
        let mut calls = 0;
        let timed = timed_loop(0.05, &mut tracer, |_| {
            calls += 1;
            std::thread::sleep(Duration::from_millis(1));
            if calls % 3 == 0 {
                Err(format!("op {calls} wrong"))
            } else {
                Ok(())
            }
        });
        assert_eq!(timed.op_ms.len(), calls);
        assert_eq!(timed.failed as usize, calls / 3);
        assert!(timed.errors.len() <= KEPT_ERRORS);
        let mut result = RunResult::new(vec![1.0], timed, b"");
        assert_eq!(result.attempted(), calls as u64);
        // Late failures add to the count but never exceed the attempts.
        result.late_failed = 1_000_000;
        assert_eq!(result.failed(), result.attempted());
    }

    #[test]
    fn traced_runs_alternate_and_spans_add_up() {
        let mut tracer = Tracer::new(true);
        let timed = timed_loop(0.03, &mut tracer, |tracer| {
            let span = tracer.begin("sta", "sta.analyze");
            std::thread::sleep(Duration::from_millis(2));
            tracer.end(span);
            Ok(())
        });
        assert!(tracer.enabled());
        assert!(timed.traced.iter().step_by(2).all(|&t| t));
        assert!(timed.traced.iter().skip(1).step_by(2).all(|&t| !t));
        let traced_ops = timed.traced.iter().filter(|&&t| t).count();
        let result = RunResult::new(vec![0.5], timed, &[0; 1 << 20]);
        let metrics = result.per_layer(&tracer);
        let get = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        let totals = LayerTotals::of(tracer.spans(), |op| op != SETUP_OP);
        assert_eq!(totals.ops, traced_ops);
        let sum = get("sta.analyze_ms") + get("bench.unattributed_ms");
        assert!((sum - get("bench.op_ms")).abs() < 1e-9);
        assert!(get("sta.analyze_ms") >= 2.0);
    }

    #[test]
    fn overhead_compares_ops_of_one_kind() {
        // Traced ops are 10% slower in each kind; the mix differs between
        // the traced and untraced halves, which must not read as overhead.
        let timed = Timed {
            op_ms: vec![1.1, 1.0, 1.1, 100.0, 110.0, 1.0],
            traced: vec![true, false, true, false, true, false],
            kinds: vec!["Q", "Q", "Q", "R", "R", "Q"],
            ..Timed::default()
        };
        let overhead = trace_overhead_pct(&timed).unwrap();
        assert!((overhead - 10.0).abs() < 1e-9, "{overhead}");
        // A cheap kind read at twice its untraced time barely moves it.
        let cheap = Timed {
            op_ms: [timed.op_ms.clone(), vec![0.02, 0.01]].concat(),
            traced: [timed.traced.clone(), vec![true, false]].concat(),
            kinds: [timed.kinds.clone(), vec!["C", "C"]].concat(),
            ..Timed::default()
        };
        let overhead = trace_overhead_pct(&cheap).unwrap();
        assert!((overhead - 10.0).abs() < 0.05, "{overhead}");
        let untraced = Timed {
            op_ms: vec![1.0; 4],
            traced: vec![false; 4],
            ..Timed::default()
        };
        assert_eq!(trace_overhead_pct(&untraced), None);
    }

    #[test]
    fn rate_is_the_median_window() {
        // One slow window among five does not move the rate.
        let mut ops = vec![100.0; 20];
        ops[5] = 900.0;
        assert_eq!(windowed_rate(&ops, 4), 10.0);
        // The partial last window is left out.
        ops.push(5000.0);
        assert_eq!(windowed_rate(&ops, 4), 10.0);
        // A run shorter than one window is its own window.
        assert_eq!(windowed_rate(&[100.0, 300.0], 4), 5.0);
        assert_eq!(windowed_rate(&[], 4), 0.0);
    }

    #[test]
    fn setup_rounds_report_every_round() {
        let mut tracer = Tracer::new(true);
        let mut made = 0;
        let setup = Setup::rounds(&mut tracer, |tracer| {
            let span = tracer.begin("netlist", "spef.parse");
            tracer.end(span);
            made += 1;
            Ok(made)
        })
        .unwrap();
        assert_eq!(setup.rounds_s.len(), SETUP_ROUNDS);
        assert_eq!(setup.value, SETUP_ROUNDS);
        assert!(tracer.spans().iter().all(|s| s.op == SETUP_OP));
        let failing: Result<Setup<()>, String> =
            Setup::rounds(&mut tracer, |_| Err("no deck".to_string()));
        assert!(failing.is_err());
    }

    #[test]
    fn end_to_end_metrics_have_fixed_names_and_units() {
        let timed = Timed {
            op_ms: (1..=40).map(f64::from).collect(),
            traced: vec![false; 40],
            ..Timed::default()
        };
        let mut result = RunResult::new(vec![3.0, 1.0, 2.0], timed, b"");
        result.tail_p = 75.0;
        result.window = 10;
        let metrics = result.end_to_end();
        let pairs: Vec<(&str, f64)> = metrics.iter().map(|m| (m.name.as_str(), m.value)).collect();
        assert_eq!(pairs[0], ("setup_s", 2.0));
        // Windows of 10 ops take 55, 155, 255 and 355 ms; the lower
        // median rate is the third window's.
        assert_eq!(pairs[1], ("ops_per_s", 10.0 / 0.255));
        assert_eq!(pairs[2], ("op_tail_ms", 30.0));
        assert_eq!(pairs[3].0, "peak_rss_mib");
        assert_eq!(
            result.sample_info()[2],
            ("tail_samples_beyond", "10".to_string())
        );
    }
}
