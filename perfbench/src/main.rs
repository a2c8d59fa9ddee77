//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper-sweep|big-dag|grammar-race|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1> [--check-sampling]
//! ```
//!
//! Run from the repository root (it reads `scenarios/*.toml`). The last line
//! of standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones,
//! measured with no tracing; with `--trace 1` they are the per-layer ones
//! from a separate traced run. `--check-sampling` compares the sampled
//! per-call estimates of a traced run against a run that times every call.
//! See `README.md` beside this package for the workloads and every metric.

mod clock;
mod engine;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: &[&str] =
    &["setup_s", "op_p50_ms", "op_tail_ms", "ops_per_s", "decisions_per_s", "peak_rss_mb"];

/// The per-layer metrics of a traced run, in report order, with units.
/// `BENCHMARK.json` lists the same names (a test keeps the two in step).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_ms", "ms"),
    ("taskgraph.build_ms", "ms"),
    ("taskgraph.gen_ms", "ms"),
    ("taskgraph.map_ms", "ms"),
    ("dvs.consults", "count"),
    ("dvs.consult_ns", "ns"),
    ("dvs.consult_ratio", "ratio"),
    ("dvs.hook_ns", "ns"),
    ("core.picks", "count"),
    ("core.pick_ns", "ns"),
    ("core.ready_len", "count"),
    ("core.hook_ns", "ns"),
    ("battery.steps", "count"),
    ("battery.step_ns", "ns"),
    ("sim.decisions", "count"),
    ("sim.samples", "count"),
    ("sim.sample_ns", "ns"),
    ("sim.events.release", "count"),
    ("sim.events.start", "count"),
    ("sim.events.complete", "count"),
    ("sim.events.preempt", "count"),
    ("sim.events.freq_change", "count"),
    ("sim.events.battery_step", "count"),
    ("sim.events.miss", "count"),
    ("sim.slices", "count"),
    ("sim.setup_us", "us"),
    ("sim.run_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("portfolio.race_ms", "ms"),
    ("portfolio.analyze_us", "us"),
    ("core.report_us", "us"),
    ("serve.cold.ttfb_ms", "ms"),
    ("serve.hit.ttfb_ms", "ms"),
    ("serve.report.ttfb_ms", "ms"),
    ("serve.events.ttfb_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.json_us", "us"),
    ("core.scenario_us", "us"),
    ("core.digest_us", "us"),
    ("serve.wait_ms", "ms"),
    ("serve.late_ms", "ms"),
    ("serve.jobs", "count"),
    ("serve.compute_ms", "ms"),
    ("serve.events_us", "us"),
    ("serve.store_commit_us", "us"),
    ("serve.store_load_us", "us"),
    ("serve.store_open_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.hydrations", "count"),
    ("serve.status_4xx", "count"),
    ("serve.status_5xx", "count"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer values of a traced run. A layer the workload never calls
/// reads 0.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Record `name`, which must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// What a run reports: op accounting, metrics and human-readable notes.
#[derive(Debug)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    broken: bool,
    errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    /// An outcome over `attempted` ops, none failed yet.
    pub fn new(attempted: u64) -> Self {
        Outcome {
            attempted,
            failed: 0,
            broken: false,
            errors: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Count one failed op.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.error(message);
    }

    /// Record a failed output check that is not one op's.
    pub fn invalid(&mut self, message: String) {
        self.broken = true;
        self.error(message);
    }

    fn error(&mut self, message: String) {
        if self.errors.len() < 10 {
            self.errors.push(message);
        }
    }

    /// Record an end-to-end metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Add a line printed before the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record the timing metrics every workload shares: `setup_s`,
    /// `op_p50_ms`, `op_tail_ms` (the whole run's tail, see [`stats::tail`]),
    /// and `ops_per_s` as `completed` ops over `span_s` seconds.
    pub fn timings(&mut self, op_ms: &[f64], completed: usize, span_s: f64, setup_s: f64) {
        self.metric("setup_s", setup_s, "s");
        self.metric("op_p50_ms", stats::median(op_ms), "ms");
        match stats::tail(op_ms) {
            Some(t) => {
                self.note(format!(
                    "op_tail_ms is p{:.2}: {} of {} samples lie beyond it",
                    t.percentile, t.beyond, t.samples
                ));
                self.metric("op_tail_ms", t.value, "ms");
            }
            None => self.invalid(format!(
                "only {} op samples: too few for a tail with {} beyond it",
                op_ms.len(),
                stats::TAIL_BEYOND
            )),
        }
        self.metric("ops_per_s", completed as f64 / span_s, "1/s");
    }

    /// Record `peak_rss_mb` from a [`peak_rss_mb`] reading taken when the
    /// timed window ended, before the run's own checks.
    pub fn peak_rss(&mut self, mb: Option<f64>) {
        match mb {
            Some(mb) => self.metric("peak_rss_mb", mb, "MiB"),
            None => self.invalid("no VmHWM in /proc/self/status".to_string()),
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && !self.broken
    }
}

/// A derived seed a scenario file can hold: its `seed` key is a
/// non-negative TOML integer, so the top bit is dropped.
pub fn scenario_seed(seed: u64) -> u64 {
    seed & i64::MAX as u64
}

/// The process's peak resident set so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A metric value as JSON; a non-finite value (which `main` also reports
/// as a failed check) is written as 0, since JSON has no NaN.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn render(outcome: &Outcome, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_sampling: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper-sweep|big-dag|grammar-race|serve-mix> \
                     --seed <n> --seconds <s> --trace <0|1> [--check-sampling]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        check_sampling: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--check-sampling" {
            args.check_sampling = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("positive seconds"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn engine_kind(workload: &str) -> Option<engine::Kind> {
    match workload {
        "paper-sweep" => Some(engine::Kind::PaperSweep),
        "big-dag" => Some(engine::Kind::BigDag),
        "grammar-race" => Some(engine::Kind::GrammarRace),
        _ => None,
    }
}

/// Run the traced run twice on the workload, sampling one call in
/// [`trace::DEFAULT_EVERY`] and then every call, and compare the per-call
/// estimates.
fn check_sampling(args: &Args) -> Result<bool, String> {
    let kind = engine_kind(&args.workload)
        .ok_or_else(|| "--check-sampling runs on the engine workloads".to_string())?;
    let (_, sampled) = engine::run_traced(kind, args.seed, args.seconds, trace::DEFAULT_EVERY)?;
    let (_, full) = engine::run_traced(kind, args.seed, args.seconds, 1)?;
    let mut ok = true;
    println!("{:<20} {:>14} {:>14} {:>8}", "metric", "sampled", "every call", "ratio");
    for name in [
        "dvs.consult_ns",
        "dvs.hook_ns",
        "core.pick_ns",
        "core.hook_ns",
        "battery.step_ns",
        "sim.sample_ns",
    ] {
        let (s, f) = (sampled.get(name), full.get(name));
        let ratio = if f > 0.0 { s / f } else { 1.0 };
        // Sampling one call in N must estimate the per-call cost, not shift
        // it. Calls cheaper than one counter read (about 25 ns) can agree
        // only to within that read.
        let within = (s - f).abs() <= 25.0 || (0.67..=1.5).contains(&ratio);
        ok &= within;
        println!(
            "{name:<20} {s:>14.1} {f:>14.1} {ratio:>8.3}{}",
            if within { "" } else { "  OUT" }
        );
    }
    for name in ["dvs.consults", "core.picks", "battery.steps", "sim.decisions", "sim.samples"] {
        let (s, f) = (sampled.get(name), full.get(name));
        ok &= s == f;
        println!("{name:<20} {s:>14} {f:>14} {:>8}", if s == f { "exact" } else { "DIFFER" });
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if engine_kind(&args.workload).is_none() && args.workload != "serve-mix" {
        eprintln!("error: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    }
    if args.check_sampling {
        return match check_sampling(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match (engine_kind(&args.workload), args.trace) {
        (Some(kind), false) => engine::run(kind, args.seed, args.seconds).map(|o| (o, None)),
        (Some(kind), true) => {
            engine::run_traced(kind, args.seed, args.seconds, trace::DEFAULT_EVERY)
                .map(|(o, l)| (o, Some(l)))
        }
        (None, false) => serve::run(args.seed, args.seconds).map(|o| (o, None)),
        (None, true) => serve::run_traced(args.seed, args.seconds).map(|(o, l)| (o, Some(l))),
    };
    let (mut outcome, layers) = match result {
        Ok(done) => done,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics: Vec<(String, f64, &str)> = match &layers {
        None => {
            for name in END_TO_END {
                if !outcome.metrics.iter().any(|(n, _, _)| n == name) {
                    outcome.invalid(format!("{name} was not measured"));
                }
            }
            outcome.metrics.clone()
        }
        Some(layers) => PER_LAYER
            .iter()
            .map(|(name, unit)| (name.to_string(), layers.get(name), *unit))
            .collect(),
    };
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            outcome.invalid(format!("{name} is not a finite number"));
        }
    }
    for line in &outcome.notes {
        println!("{line}");
    }
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", render(&outcome, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_metric_this_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let per_layer = text.split("\"per_layer\"").nth(1).expect("a per_layer list");
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(per_layer.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
        let end_to_end = text.split("\"end_to_end\"").nth(1).unwrap().split("\"per_layer\"").next();
        for name in END_TO_END {
            assert!(end_to_end.unwrap().contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::new(3);
        outcome.metric("setup_s", 0.25, "s");
        let line = render(&outcome, &outcome.metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        outcome.fail("op 0: boom".to_string());
        assert!(render(&outcome, &[])
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
    }

    #[test]
    fn a_missing_rss_reading_fails_the_run() {
        let mut outcome = Outcome::new(1);
        outcome.peak_rss(Some(3.5));
        assert!(outcome.correct());
        assert_eq!(outcome.metrics, vec![("peak_rss_mb".to_string(), 3.5, "MiB")]);
        outcome.peak_rss(None);
        assert!(!outcome.correct());
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let args = parse_args(&argv("--workload big-dag --seed 4 --seconds 2 --trace 1")).unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (4, 2.0, true));
        assert!(parse_args(&argv("--workload big-dag --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 4")).is_err());
        assert!(parse_args(&argv("--workload big-dag --seconds 0")).is_err());
    }
}
