//! The `serve-mix` workload: an in-process `bas_serve::Server` running the
//! CLI backend with one worker, restarted on a state directory filled with
//! finished jobs, under an open loop of Poisson arrivals over loopback.
//!
//! The mix is a quarter each of cold smoke-sized submissions (half sent as
//! JSON bodies), repeat submissions of finished digests, report GETs and
//! stored event-stream GETs. Each request is timed from its scheduled send
//! time, so a stall also charges the requests queued behind it.
//!
//! The mix's weights, the stored and hot job counts and the uniform choice
//! among hot jobs are assumptions, not a record of real traffic; see the
//! README beside this package for the reason behind each.

use crate::stats;
use crate::trace::TimedService;
use crate::{Layers, Outcome};
use bas_cli::serve::CliService;
use bas_core::{Scenario, Sweep};
use bas_serve::store::{fnv1a64, BlobKind, Store};
use bas_serve::{ScenarioService, ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Arrivals per second. The daemon serves it without a backlog.
pub const RATE: f64 = 40.0;
/// Finished jobs the state directory holds before the restart. Enough that
/// `Server::bind`'s per-job journal replay and blob checks, not its two
/// fsyncs, are most of `setup_s`.
const STORED: usize = 1024;
/// The stored jobs the mix's repeats and GETs draw from: the first `HOT`.
const HOT: usize = 32;
/// Client threads, each with at most one open connection.
const CLIENTS: usize = 2;
/// `Server::bind` repetitions per run; `setup_s` is their median.
const BINDS: usize = 51;
/// Fewest requests a run makes.
const MIN_REQUESTS: usize = 48;
/// Longest a client waits for any one response.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// The four request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A submission of a digest the daemon has never seen.
    Cold,
    /// A repeat submission of a finished digest.
    Hit,
    /// `GET /v1/jobs/<id>/report` of a finished job.
    Report,
    /// `GET /v1/jobs/<id>/events` of a finished job (served from the store).
    Events,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    /// Send time, seconds after the schedule starts.
    pub at: f64,
    /// What it asks for.
    pub class: Class,
    /// Cold: the cold job's index; otherwise a hot job's index.
    pub target: usize,
    /// Whether a submission's body is JSON rather than TOML.
    pub json: bool,
}

/// SplitMix64: a small seeded generator (the benchmark has no `rand`).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The seeded request schedule of one run: `seconds × RATE` arrivals of a
/// Poisson process conditioned on that count (sorted uniform times over the
/// window), a quarter of each class in shuffled order.
pub fn schedule(seed: u64, seconds: f64) -> Vec<Planned> {
    let n = ((seconds * RATE).round() as usize).max(MIN_REQUESTS).div_ceil(4) * 4;
    let mut rng = SplitMix(seed ^ 0x5e7e_c0de);
    let mut times: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    times.sort_by(f64::total_cmp);
    let mut classes: Vec<Class> =
        [Class::Cold, Class::Hit, Class::Report, Class::Events].repeat(n / 4);
    for i in (1..n).rev() {
        classes.swap(i, rng.below(i + 1));
    }
    let (mut cold, mut submissions) = (0, 0);
    times
        .into_iter()
        .zip(classes)
        .map(|(at, class)| {
            let target = match class {
                Class::Cold => {
                    cold += 1;
                    cold - 1
                }
                _ => rng.below(HOT),
            };
            let json = matches!(class, Class::Cold | Class::Hit) && {
                submissions += 1;
                submissions % 2 == 0
            };
            Planned { at, class, target, json }
        })
        .collect()
}

/// A state directory inside the working directory, removed on drop.
struct StateDir(PathBuf);

impl StateDir {
    fn new(tag: &str) -> Result<StateDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let dir = Path::new(".bench_state").join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(StateDir(dir))
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly while others exist.
        let _ = std::fs::remove_dir(".bench_state");
    }
}

/// A smoke-sized scenario with its own seed, hence its own digest.
fn smoke(base: &Scenario, seed: u64) -> Scenario {
    let mut scenario = base.clone();
    scenario.seed = crate::scenario_seed(seed);
    scenario
}

/// The scenario as a JSON submission: its canonical TOML, line by line
/// (`[table]` sections become nested objects).
fn json_body(scenario: &Scenario) -> String {
    let mut out = String::from("{");
    let mut open_table = false;
    let mut first = true;
    for line in scenario.to_toml().lines().filter(|l| !l.trim().is_empty()) {
        if let Some(table) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            out.push_str(if open_table { "}, " } else { ", " });
            out.push_str(&format!("\"{table}\": {{"));
            open_table = true;
            first = true;
            continue;
        }
        let (key, value) = line.split_once(" = ").expect("canonical TOML is `key = value`");
        if !first {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{key}\": {value}"));
        first = false;
    }
    if open_table {
        out.push('}');
    }
    out.push('}');
    out
}

fn submission(scenario: &Scenario, json: bool) -> Vec<u8> {
    let (body, kind) = if json {
        (json_body(scenario), "application/json")
    } else {
        (scenario.to_toml(), "application/toml")
    };
    format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\nContent-Type: {kind}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").into_bytes()
}

/// A body as the checks see it: its length and FNV-1a hash. The client
/// keeps only this, not the bytes, so the benchmark's own memory stays out
/// of `peak_rss_mb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Body {
    len: usize,
    hash: u64,
}

impl Body {
    fn of(bytes: &[u8]) -> Body {
        Body { len: bytes.len(), hash: fnv1a64(bytes) }
    }
}

/// The fields of a submission's answer that the checks read.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Answer {
    digest: String,
    job: Option<u64>,
    cached: bool,
}

/// What the client keeps of a response read to the end of its connection.
struct Response {
    status: u16,
    body: Body,
    /// Set for the answer to a `POST`.
    answer: Option<Answer>,
    /// Send to first response byte.
    ttfb: Duration,
}

/// Send `request` and read the response to the end of its connection:
/// status, body (de-chunked) and time to first byte.
fn exchange_raw(addr: SocketAddr, request: &[u8]) -> Result<(u16, Vec<u8>, Duration), String> {
    let sent = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    stream.write_all(request).map_err(|e| format!("send: {e}"))?;
    let mut raw = vec![0u8; 16 * 1024];
    let first = stream.read(&mut raw).map_err(|e| format!("receive: {e}"))?;
    let ttfb = sent.elapsed();
    raw.truncate(first);
    stream.read_to_end(&mut raw).map_err(|e| format!("receive: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| "response without a header end".to_string())?;
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let mut body = raw[split + 4..].to_vec();
    if head.to_ascii_lowercase().contains("transfer-encoding: chunked") {
        body = bas_serve::http::decode_chunked(&body)?;
    }
    Ok((status, body, ttfb))
}

/// [`exchange_raw`], keeping only what the checks need of the body.
fn exchange(addr: SocketAddr, request: &[u8]) -> Result<Response, String> {
    let (status, body, ttfb) = exchange_raw(addr, request)?;
    let answer = request.starts_with(b"POST ").then(|| {
        let text = String::from_utf8_lossy(&body);
        Answer {
            digest: field(&text, "digest").unwrap_or_default().to_string(),
            job: field(&text, "job").and_then(|id| id.parse().ok()),
            cached: field(&text, "cached") == Some("true"),
        }
    });
    Ok(Response { status, body: Body::of(&body), answer, ttfb })
}

/// The value of a numeric or string field in the daemon's flat JSON.
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let rest = &body[body.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

fn submitted_id(response: &Response, digest: &str) -> Result<u64, String> {
    let answer = response.answer.as_ref().ok_or("not a submission's answer")?;
    if answer.digest != digest {
        return Err(format!("submission of {digest} answered with digest {:?}", answer.digest));
    }
    answer.job.ok_or_else(|| format!("no job id in the answer for {digest}"))
}

/// What one timed request recorded.
struct Record {
    class: Class,
    target: usize,
    late_ms: f64,
    latency_ms: f64,
    ttfb_ms: f64,
    done: f64,
    result: Result<Response, String>,
}

/// The bodies a hot job's report and event GETs must return.
struct Expected {
    report: Body,
    events: Body,
}

/// Everything one serve session produced.
struct Session {
    base: Scenario,
    seed: u64,
    plan: Vec<Planned>,
    ids: Vec<u64>,
    setup_s: f64,
    /// `VmHWM` when the window's work was done, before the checks.
    peak_rss_mb: Option<f64>,
    records: Vec<Record>,
    span_s: f64,
    hot: Vec<Expected>,
    stats: bas_serve::ServeStats,
    healthz: String,
    cold_reports: Vec<Result<Response, String>>,
    timed_service: Option<Arc<TimedService<CliService>>>,
}

impl Session {
    /// Stored job `j`; the hot jobs are the first [`HOT`].
    fn stored(base: &Scenario, seed: u64, j: usize) -> Scenario {
        smoke(base, Sweep::seed_for(seed, j))
    }

    /// Cold job `k`, a digest the daemon has never seen.
    fn cold_job(base: &Scenario, seed: u64, k: usize) -> Scenario {
        smoke(base, Sweep::seed_for(seed, STORED + k))
    }

    fn cold(&self) -> Vec<Scenario> {
        let count = self.plan.iter().filter(|p| p.class == Class::Cold).count();
        (0..count).map(|k| Session::cold_job(&self.base, self.seed, k)).collect()
    }

    /// The bytes request `p` sends, given the hot jobs' ids.
    fn request(base: &Scenario, seed: u64, ids: &[u64], p: &Planned) -> Vec<u8> {
        match p.class {
            Class::Cold => submission(&Session::cold_job(base, seed, p.target), p.json),
            Class::Hit => submission(&Session::stored(base, seed, p.target), p.json),
            Class::Report => get(&format!("/v1/jobs/{}/report", ids[p.target])),
            Class::Events => get(&format!("/v1/jobs/{}/events", ids[p.target])),
        }
    }
}

/// Fill `dir`, untimed, with the stored jobs as the daemon's worker leaves
/// them: each job's event stream and then its report, committed through the
/// daemon's store. Returns what the hot jobs' GETs must serve.
fn fill(dir: &Path, base: &Scenario, seed: u64) -> Result<Vec<Expected>, String> {
    let budget = ServeConfig::default().state_max_bytes;
    let mut store = Store::open(dir, budget, true).map_err(|e| e.to_string())?;
    let mut hot = Vec::with_capacity(HOT);
    for j in 0..STORED {
        let scenario = Session::stored(base, seed, j);
        let (_, report) = bas_cli::run_scenario(&scenario)?;
        let report = report.to_json();
        let events = scenario.stream_events(Vec::new()).map_err(|e| e.to_string())?;
        let digest = scenario.digest();
        for (kind, bytes) in
            [(BlobKind::Events, events.as_slice()), (BlobKind::Report, report.as_bytes())]
        {
            if !store.commit(&digest, kind, bytes).map_err(|e| e.to_string())? {
                return Err(format!("stored job {j} ({digest}) was not committed"));
            }
        }
        if j < HOT {
            hot.push(Expected { report: Body::of(report.as_bytes()), events: Body::of(&events) });
        }
    }
    Ok(hot)
}

fn start(server: Server) -> (ServerHandle, SocketAddr, std::thread::JoinHandle<()>) {
    let handle = server.handle();
    let addr = server.local_addr().expect("a bound listener has an address");
    let thread = std::thread::spawn(move || {
        let _ = server.run();
    });
    (handle, addr, thread)
}

fn stop(handle: &ServerHandle, thread: std::thread::JoinHandle<()>) -> Result<(), String> {
    handle.shutdown();
    thread.join().map_err(|_| "server thread panicked".to_string())
}

fn wait_idle(handle: &ServerHandle) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !handle.is_idle() {
        if Instant::now() > deadline {
            return Err("daemon still busy 60 s after the window".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

fn config(dir: &Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        // Room for every job of a 60 s run, so no GET races an eviction.
        cache_capacity: 1024,
        quiet: true,
        state_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// One serve session: fill a fresh state directory, restart on it, register
/// the hot jobs, run the timed window, then fetch what the checks need.
fn session(seed: u64, seconds: f64, traced: bool) -> Result<Session, String> {
    let base = Scenario::load(Path::new("scenarios/smoke.toml")).map_err(|e| e.to_string())?;
    let plan = schedule(seed, seconds);
    let cold_count = plan.iter().filter(|p| p.class == Class::Cold).count();
    let submitted = (0..HOT)
        .map(|j| Session::stored(&base, seed, j))
        .chain((0..cold_count).map(|k| Session::cold_job(&base, seed, k)));
    for scenario in submitted {
        let via_json = bas_serve::json::scenario_toml_from_json(&json_body(&scenario))
            .and_then(|toml| Scenario::from_toml(&toml).map_err(|e| e.to_string()))?;
        if via_json.digest() != scenario.digest() {
            return Err("a JSON body digests differently from its TOML twin".to_string());
        }
    }

    let dir = StateDir::new("serve")?;
    let hot = fill(&dir.0, &base, seed)?;

    // Set-up: restart on the filled directory (journal replay, blob
    // verification, compaction). Every bind replays the same records: the
    // journal holds one per blob before compaction and after.
    let timed_service = traced.then(|| Arc::new(TimedService::new(CliService)));
    let service: Arc<dyn ScenarioService> = match &timed_service {
        Some(timed) => timed.clone(),
        None => Arc::new(CliService),
    };
    let mut bind_s = Vec::with_capacity(BINDS);
    let mut server = None;
    for _ in 0..BINDS {
        drop(server.take());
        let start = Instant::now();
        let bound = Server::bind(config(&dir.0), service.clone()).map_err(|e| e.to_string())?;
        bind_s.push(start.elapsed().as_secs_f64());
        server = Some(bound);
    }
    let (handle, addr, thread) = start(server.expect("at least one bind"));

    // Register the hot jobs so GETs have ids (store hits, untimed).
    let mut ids = Vec::with_capacity(HOT);
    for j in 0..HOT {
        let scenario = Session::stored(&base, seed, j);
        let response = exchange(addr, &submission(&scenario, false))?;
        ids.push(submitted_id(&response, &scenario.digest())?);
    }

    let next = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(20);
    let records: Vec<Record> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(p) = plan.get(i) else { break };
                        // Built before the send time, so not timed.
                        let request = Session::request(&base, seed, &ids, p);
                        let due = t0 + Duration::from_secs_f64(p.at);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let late = Instant::now().saturating_duration_since(due);
                        let result = exchange(addr, &request);
                        let done = Instant::now();
                        mine.push((
                            i,
                            Record {
                                class: p.class,
                                target: p.target,
                                late_ms: late.as_secs_f64() * 1e3,
                                latency_ms: (done - due).as_secs_f64() * 1e3,
                                ttfb_ms: result
                                    .as_ref()
                                    .map_or(0.0, |r| r.ttfb.as_secs_f64() * 1e3),
                                done: (done - t0).as_secs_f64(),
                                result,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        let mut all: Vec<(usize, Record)> =
            workers.into_iter().flat_map(|w| w.join().expect("client thread")).collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, r)| r).collect()
    });
    let span_s = records.iter().map(|r| r.done).fold(0.0, f64::max);
    wait_idle(&handle)?;
    let peak_rss_mb = crate::peak_rss_mb();

    let cold: Vec<Scenario> = (0..cold_count).map(|k| Session::cold_job(&base, seed, k)).collect();
    let mut cold_ids = vec![None; cold_count];
    for (r, p) in records.iter().zip(&plan) {
        if let (Class::Cold, Ok(response)) = (p.class, &r.result) {
            cold_ids[p.target] = submitted_id(response, &cold[p.target].digest()).ok();
        }
    }
    let cold_reports = cold_ids
        .iter()
        .map(|id| match id {
            Some(id) => exchange(addr, &get(&format!("/v1/jobs/{id}/report"))),
            None => Err("the cold submission failed".to_string()),
        })
        .collect();
    let (_, healthz, _) = exchange_raw(addr, &get("/v1/healthz"))?;
    let stats = handle.stats();
    stop(&handle, thread)?;
    drop(dir);

    Ok(Session {
        base,
        seed,
        plan,
        ids,
        setup_s: stats::median(&bind_s),
        peak_rss_mb,
        records,
        span_s,
        hot,
        stats,
        healthz: String::from_utf8_lossy(&healthz).to_string(),
        cold_reports,
        timed_service,
    })
}

/// Check every response and the daemon's counters; count failed requests.
fn check(session: &Session, outcome: &mut Outcome) -> Result<(), String> {
    for (i, r) in session.records.iter().enumerate() {
        let response = match &r.result {
            Ok(response) if (200..300).contains(&response.status) => response,
            Ok(response) => {
                outcome.fail(format!("request {i} ({:?}) answered {}", r.class, response.status));
                continue;
            }
            Err(e) => {
                outcome.fail(format!("request {i} ({:?}): {e}", r.class));
                continue;
            }
        };
        let expected = match r.class {
            Class::Report => Some(session.hot[r.target].report),
            Class::Events => Some(session.hot[r.target].events),
            Class::Cold | Class::Hit => None,
        };
        if expected.is_some_and(|body| body != response.body) {
            outcome.fail(format!("request {i} ({:?}) served other bytes", r.class));
        }
        if r.class == Class::Hit && !response.answer.as_ref().is_some_and(|a| a.cached) {
            outcome.fail(format!("request {i}: a repeat submission was not a cache hit"));
        }
    }
    for (k, (scenario, served)) in session.cold().iter().zip(&session.cold_reports).enumerate() {
        let (_, report) = bas_cli::run_scenario(scenario)?;
        match served {
            Ok(r) if r.status == 200 && r.body == Body::of(report.to_json().as_bytes()) => {}
            Ok(r) => {
                outcome.invalid(format!("cold job {k}: report answered {} or differs", r.status))
            }
            Err(e) => outcome.invalid(format!("cold job {k}: {e}")),
        }
    }
    let count = |class| session.records.iter().filter(|r| r.class == class).count() as u64;
    let (cold, hits) = (count(Class::Cold), count(Class::Hit));
    let stats = session.stats;
    if stats.executed != cold {
        outcome.invalid(format!(
            "daemon executed {} jobs for {cold} cold submissions",
            stats.executed
        ));
    }
    // The untimed registration of the hot jobs is a store hit each.
    if stats.cache_hits != hits + HOT as u64 {
        outcome.invalid(format!(
            "daemon counted {} cache hits for {hits} repeats and {HOT} registrations",
            stats.cache_hits
        ));
    }
    Ok(())
}

/// Decisions the cold jobs' sweeps make, counted cell by cell.
fn cold_decisions(cold: &[Scenario]) -> Result<u64, String> {
    let mut decisions = 0;
    for scenario in cold {
        let platform = scenario.build_platform().map_err(|e| e.to_string())?;
        for t in 0..scenario.trials {
            let seed = Sweep::seed_for(scenario.seed, t);
            let set = scenario.trial_set(seed).map_err(|e| e.to_string())?;
            for (label, spec) in scenario.parsed_specs().map_err(|e| e.to_string())? {
                let out = scenario
                    .trial_experiment(&set, spec, seed, &platform)
                    .run()
                    .map_err(|e| format!("{label} (seed {seed}): {e}"))?;
                decisions += out.metrics.decisions;
            }
        }
    }
    Ok(decisions)
}

fn latencies(session: &Session) -> Vec<f64> {
    session.records.iter().map(|r| r.latency_ms).collect()
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let session = session(seed, seconds, false)?;
    let mut outcome = Outcome::new(session.records.len() as u64);
    check(&session, &mut outcome)?;
    let completed = session
        .records
        .iter()
        .filter(|r| r.result.as_ref().is_ok_and(|x| (200..300).contains(&x.status)))
        .count();
    // Completed requests over the schedule span: a backlog stretches the span.
    outcome.timings(&latencies(&session), completed, session.span_s, session.setup_s);
    let decisions = cold_decisions(&session.cold())?;
    outcome.metric("decisions_per_s", decisions as f64 / session.span_s, "1/s");
    outcome.peak_rss(session.peak_rss_mb);
    let late = session.records.iter().map(|r| r.late_ms).fold(0.0, f64::max);
    outcome.note(format!(
        "{} requests at {RATE} req/s over {:.2} s; generator at most {late:.2} ms late",
        session.records.len(),
        session.span_s
    ));
    Ok(outcome)
}

/// The median of second-valued side measurements, in microseconds (0 for
/// none). These calls take microseconds, so one preemption would swamp a
/// mean.
fn median_us(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        stats::median(samples) * 1e6
    }
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The traced run: the same session untraced (for the overhead baseline),
/// then traced, then side measurements of the request path and the store on
/// the same payloads.
pub fn run_traced(seed: u64, seconds: f64) -> Result<(Outcome, Layers), String> {
    let plain = session(seed, seconds, false)?;
    let traced = session(seed, seconds, true)?;
    let mut outcome = Outcome::new(traced.records.len() as u64);
    check(&traced, &mut outcome)?;
    let mut layers = Layers::default();

    let ttfb = |class: Class| {
        let t: Vec<f64> =
            traced.records.iter().filter(|r| r.class == class).map(|r| r.ttfb_ms).collect();
        if t.is_empty() {
            0.0
        } else {
            stats::median(&t)
        }
    };
    layers.set("serve.cold.ttfb_ms", ttfb(Class::Cold));
    layers.set("serve.hit.ttfb_ms", ttfb(Class::Hit));
    layers.set("serve.report.ttfb_ms", ttfb(Class::Report));
    layers.set("serve.events.ttfb_ms", ttfb(Class::Events));

    // The request path's own work, on the exact bytes each request sent.
    let (mut parse, mut json, mut scenario, mut digest, mut wait) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (r, p) in traced.records.iter().zip(&traced.plan) {
        let bytes = Session::request(&traced.base, traced.seed, &traced.ids, p);
        let (request, s) =
            time(|| bas_serve::http::read_request(&mut std::io::Cursor::new(&bytes), 1 << 20));
        let request = request.map_err(|e| e.message)?.ok_or("empty request")?;
        parse.push(s);
        let mut accounted = s;
        if matches!(r.class, Class::Cold | Class::Hit) {
            let text = String::from_utf8(request.body).map_err(|e| e.to_string())?;
            let toml = if text.starts_with('{') {
                let (toml, s) = time(|| bas_serve::json::scenario_toml_from_json(&text));
                json.push(s);
                accounted += s;
                toml?
            } else {
                text
            };
            let (parsed, s) = time(|| Scenario::from_toml(&toml));
            scenario.push(s);
            let parsed = parsed.map_err(|e| e.to_string())?;
            let (_, d) = time(|| std::hint::black_box(parsed.digest()));
            digest.push(d);
            accounted += s + d;
        }
        wait.push(r.ttfb_ms - accounted * 1e3);
    }
    layers.set("serve.parse_us", median_us(&parse));
    layers.set("serve.json_us", median_us(&json));
    layers.set("core.scenario_us", median_us(&scenario));
    layers.set("core.digest_us", median_us(&digest));
    layers.set("serve.wait_ms", stats::mean(&wait));
    let late: Vec<f64> = traced.records.iter().map(|r| r.late_ms).collect();
    layers.set("serve.late_ms", stats::mean(&late));

    let (jobs, ns) = traced.timed_service.as_ref().map_or((0, 0), |t| t.totals());
    layers.set("serve.jobs", jobs as f64);
    layers.set("serve.compute_ms", if jobs > 0 { ns as f64 / jobs as f64 / 1e6 } else { 0.0 });

    // Event generation and the store, on the cold jobs' payloads.
    let (mut events_s, mut payloads) = (Vec::new(), Vec::new());
    for sc in &traced.cold() {
        let (events, s) = time(|| sc.stream_events(Vec::new()));
        events_s.push(s);
        let (_, report) = bas_cli::run_scenario(sc)?;
        payloads.push((sc.digest(), report.to_json(), events.map_err(|e| e.to_string())?));
    }
    layers.set("serve.events_us", median_us(&events_s));
    let side = StateDir::new("side-store")?;
    let max_bytes = ServeConfig::default().state_max_bytes;
    let mut store = Store::open(&side.0, max_bytes, true).map_err(|e| e.to_string())?;
    let (mut commit, mut load) = (Vec::new(), Vec::new());
    for (digest, report, events) in &payloads {
        for (kind, bytes) in
            [(BlobKind::Events, events.as_slice()), (BlobKind::Report, report.as_bytes())]
        {
            let (done, s) = time(|| store.commit(digest, kind, bytes));
            done.map_err(|e| e.to_string())?;
            commit.push(s);
        }
    }
    for (digest, report, events) in &payloads {
        for (kind, bytes) in
            [(BlobKind::Events, events.as_slice()), (BlobKind::Report, report.as_bytes())]
        {
            let (loaded, s) = time(|| store.load(digest, kind));
            if loaded.as_deref() != Some(bytes) {
                outcome.invalid(format!("side store returned other bytes for {digest}"));
            }
            load.push(s);
        }
    }
    drop(store);
    let (reopened, open_s) = time(|| Store::open(&side.0, max_bytes, true));
    reopened.map_err(|e| e.to_string())?;
    layers.set("serve.store_commit_us", median_us(&commit));
    layers.set("serve.store_load_us", median_us(&load));
    layers.set("serve.store_open_ms", open_s * 1e3);

    let stats = traced.stats;
    layers.set("serve.hit_ratio", stats.cache_hits as f64 / stats.submitted.max(1) as f64);
    let hydrations = field(&traced.healthz, "hydrations").and_then(|h| h.parse::<f64>().ok());
    layers.set("serve.hydrations", hydrations.ok_or("no store hydrations in /v1/healthz")?);
    let status = |lo: u16| {
        traced
            .records
            .iter()
            .filter(|r| r.result.as_ref().is_ok_and(|x| (lo..lo + 100).contains(&x.status)))
            .count() as f64
    };
    layers.set("serve.status_4xx", status(400));
    layers.set("serve.status_5xx", status(500));
    let (p50_plain, p50_traced) =
        (stats::median(&latencies(&plain)), stats::median(&latencies(&traced)));
    layers.set("trace.overhead_pct", 100.0 * (p50_traced - p50_plain) / p50_plain);
    Ok((outcome, layers))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = schedule(7, 10.0);
        assert_eq!(a, schedule(7, 10.0));
        assert_ne!(a, schedule(8, 10.0));
        assert_eq!(a.len(), 400);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "sorted send times");
        assert!(a.iter().all(|p| (0.0..10.0).contains(&p.at)));
        for class in [Class::Cold, Class::Hit, Class::Report, Class::Events] {
            assert_eq!(a.iter().filter(|p| p.class == class).count(), 100);
        }
        let cold: Vec<usize> =
            a.iter().filter(|p| p.class == Class::Cold).map(|p| p.target).collect();
        assert_eq!(cold, (0..100).collect::<Vec<_>>(), "every cold digest is sent once");
        let json = a.iter().filter(|p| p.json).count();
        assert_eq!(json, 100, "half the submissions are JSON");
    }

    #[test]
    fn json_bodies_digest_like_their_toml() {
        let mut scenario =
            Scenario::from_toml("kind = \"sweep\"\nspecs = [\"EDF\", \"BAS-2\"]\n").unwrap();
        scenario.seed = 99;
        let toml = bas_serve::json::scenario_toml_from_json(&json_body(&scenario)).unwrap();
        assert_eq!(Scenario::from_toml(&toml).unwrap().digest(), scenario.digest());
    }

    #[test]
    fn daemon_fields_are_read_from_flat_json() {
        let body =
            "{\"schema\": \"bas-serve/v1\", \"job\": 12, \"digest\": \"ab\", \"cached\": true}";
        assert_eq!(field(body, "job"), Some("12"));
        assert_eq!(field(body, "digest"), Some("ab"));
        assert_eq!(field(body, "cached"), Some("true"));
        assert_eq!(field(body, "status"), None);
    }
}
