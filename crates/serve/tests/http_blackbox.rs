//! Black-box tests of the daemon over real TCP sockets.
//!
//! Each test binds an ephemeral port, runs the server on a background
//! thread with the built-in [`SweepService`], and talks to it with raw
//! `TcpStream`s — no in-process shortcuts on the request path, so the
//! HTTP framing itself is under test.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use bas_core::{Report, Scenario};
use bas_serve::{http, ScenarioService, ServeConfig, Server, ServerHandle, SweepService};

/// A tiny sweep that finishes in milliseconds.
const SMOKE: &str = "kind = \"sweep\"\ntrials = 2\nhorizon = 200.0\nworkload = \"unit\"\nprocessor = \"unit\"\nbattery = \"none\"\nspecs = [\"EDF\", \"BAS-2\"]\n";

/// The same scenario as [`SMOKE`], submitted as JSON with scrambled key
/// order — must land on the same digest.
const SMOKE_JSON: &str = r#"{"specs": ["EDF", "BAS-2"], "battery": "none", "horizon": 200.0, "kind": "sweep", "workload": "unit", "trials": 2, "processor": "unit"}"#;

struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(config: ServeConfig) -> Daemon {
        Daemon::start_with(config, Arc::new(SweepService))
    }

    fn start_with(mut config: ServeConfig, service: Arc<dyn ScenarioService>) -> Daemon {
        config.addr = "127.0.0.1:0".to_string();
        config.quiet = true;
        let server = Server::bind(config, service).expect("bind ephemeral port");
        let addr = server.local_addr().expect("bound address");
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Daemon { addr, handle, thread: Some(thread) }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            thread.join().expect("server thread").expect("clean shutdown");
        }
    }
}

/// One HTTP exchange; returns (status, raw head, body bytes).
fn exchange(addr: SocketAddr, raw: &[u8]) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    stream.write_all(raw).expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let split = response.windows(4).position(|w| w == b"\r\n\r\n").unwrap_or_else(|| {
        panic!("no header/body split in {:?}", String::from_utf8_lossy(&response))
    });
    let head = String::from_utf8(response[..split].to_vec()).expect("UTF-8 head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status in {head:?}"));
    (status, head, response[split + 4..].to_vec())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, Vec<u8>) {
    exchange(addr, format!("GET {path} HTTP/1.1\r\nHost: bas\r\n\r\n").as_bytes())
}

fn post(addr: SocketAddr, body: &str) -> (u16, String, Vec<u8>) {
    let raw = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: bas\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    exchange(addr, raw.as_bytes())
}

fn body_text(body: &[u8]) -> String {
    String::from_utf8(body.to_vec()).expect("UTF-8 body")
}

/// Pull `"field": value` out of a flat JSON response line.
fn json_field(body: &str, field: &str) -> String {
    let needle = format!("\"{field}\": ");
    let start =
        body.find(&needle).unwrap_or_else(|| panic!("no {field:?} in {body}")) + needle.len();
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().trim_matches('"').to_string()
}

fn wait_until(what: &str, deadline: Duration, mut probe: impl FnMut() -> bool) {
    let start = Instant::now();
    while !probe() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn wait_done(addr: SocketAddr, id: &str) -> String {
    let mut last = String::new();
    wait_until("job to finish", Duration::from_secs(60), || {
        let (status, _, body) = get(addr, &format!("/v1/jobs/{id}"));
        assert_eq!(status, 200);
        last = body_text(&body);
        let state = json_field(&last, "status");
        assert_ne!(state, "failed", "{last}");
        state == "done"
    });
    last
}

#[test]
fn healthz_presets_and_error_routes() {
    let daemon = Daemon::start(ServeConfig::default());
    let addr = daemon.addr;

    let (status, _, body) = get(addr, "/v1/healthz");
    let body = body_text(&body);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "status"), "ok");
    assert_eq!(json_field(&body, "idle"), "true");
    assert_eq!(json_field(&body, "schema"), "bas-serve/v1");

    let (status, _, body) = get(addr, "/v1/presets");
    assert_eq!(status, 200);
    assert!(body_text(&body).contains("\"name\": \"sweep\""));

    // Unknown routes, bad ids and wrong methods all answer JSON 4xx.
    for (raw, expected) in [
        ("GET /nope HTTP/1.1\r\n\r\n", 404),
        ("GET /v1/jobs/zebra HTTP/1.1\r\n\r\n", 404),
        ("GET /v1/jobs/1/confetti HTTP/1.1\r\n\r\n", 404),
        ("DELETE /v1/jobs HTTP/1.1\r\n\r\n", 405),
        ("POST /v1/healthz HTTP/1.1\r\n\r\n", 405),
        ("how is anyone supposed to parse this\r\n\r\n", 400),
        ("GET /x HTTP/4.0\r\n\r\n", 505),
    ] {
        let (status, _, body) = exchange(addr, raw.as_bytes());
        assert_eq!(status, expected, "{raw:?}");
        assert!(body_text(&body).contains("\"error\":"), "{raw:?}: {:?}", body_text(&body));
    }
}

#[test]
fn hostile_json_nesting_is_a_400_not_a_crash() {
    let daemon = Daemon::start(ServeConfig::default());
    let addr = daemon.addr;

    // 400 KB, well under the default body cap. The bare array is routed to
    // the TOML parser (JSON bodies start with `{`); the object wrapping it
    // reaches the recursive JSON parser, whose depth bound must answer 400
    // before the connection thread's stack overflows and aborts the process.
    let nested = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
    let (status, _, response) = post(addr, &nested);
    assert_eq!(status, 400, "{}", body_text(&response));
    let (status, _, response) = post(addr, &format!("{{\"specs\": {nested}}}"));
    let response = body_text(&response);
    assert_eq!(status, 400, "{response}");
    assert!(response.contains("nesting deeper than 128 levels"), "{response}");
    let (status, _, _) = get(addr, "/v1/healthz");
    assert_eq!(status, 200, "the daemon survives");
}

/// Spawn `server.run()`; the receiver yields its result.
fn run_in_background(server: Server) -> mpsc::Receiver<std::io::Result<()>> {
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || done.send(server.run()));
    result
}

#[test]
fn idle_shutdown_returns_promptly_on_every_bind_address() {
    // `shutdown` wakes the blocked `accept` by connecting to the bound
    // address; an unspecified one is reached through its loopback.
    for bind in ["127.0.0.1:0", "0.0.0.0:0", "[::1]:0"] {
        let config = ServeConfig { addr: bind.to_string(), quiet: true, ..ServeConfig::default() };
        let server = match Server::bind(config, Arc::new(SweepService)) {
            Ok(server) => server,
            Err(e) if bind.starts_with('[') => {
                eprintln!("skipping {bind}: no IPv6 loopback ({e})");
                continue;
            }
            Err(e) => panic!("bind {bind}: {e}"),
        };
        let mut addr = server.local_addr().expect("bound address");
        if addr.ip().is_unspecified() {
            addr.set_ip([127, 0, 0, 1].into());
        }
        let handle = server.handle();
        let result = run_in_background(server);
        // One answered request proves the loop is blocked in `accept`.
        assert_eq!(get(addr, "/v1/healthz").0, 200, "{bind}");
        handle.shutdown();
        let returned = result.recv_timeout(Duration::from_secs(1));
        returned
            .unwrap_or_else(|_| panic!("{bind}: run still blocked 1 s after shutdown"))
            .unwrap();
    }
}

#[test]
fn shutdown_before_run_still_lets_run_return() {
    let config = ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() };
    let server = Server::bind(config, Arc::new(SweepService)).expect("bind ephemeral port");
    server.handle().shutdown();
    let returned = run_in_background(server).recv_timeout(Duration::from_secs(1));
    returned.expect("run returns within 1 s").expect("clean shutdown");
}

#[test]
fn back_to_back_requests_pay_no_poll_floor() {
    let daemon = Daemon::start(ServeConfig::default());
    // Each request would pay any accept-loop poll interval in full.
    let start = Instant::now();
    for _ in 0..50 {
        assert_eq!(get(daemon.addr, "/v1/healthz").0, 200);
    }
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_millis(250), "50 sequential healthz took {elapsed:?}");
}

/// One submission that tolerates the daemon going away: `None` when the
/// connection is refused, reset or closed without a response.
fn try_post(addr: SocketAddr, body: &str) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(60))).ok()?;
    let raw = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: bas\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    response.split(' ').nth(1)?.parse().ok()
}

#[test]
fn shutdown_racing_submissions_executes_every_accepted_job() {
    let mut daemon =
        Daemon::start(ServeConfig { workers: 2, queue_depth: 100_000, ..ServeConfig::default() });
    let addr = daemon.addr;
    const CLIENTS: usize = 4;
    let accepted = AtomicUsize::new(0);
    let go = Barrier::new(CLIENTS + 1);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (accepted, go) = (&accepted, &go);
            scope.spawn(move || {
                go.wait();
                for seed in (client as u64 * 1_000_000).. {
                    match try_post(addr, &seeded_body(seed)) {
                        Some(202) => accepted.fetch_add(1, Ordering::SeqCst),
                        Some(503) | None => return, // draining, or the listener is gone
                        Some(status) => panic!("unexpected {status}"),
                    };
                }
            });
        }
        go.wait();
        wait_until("20 accepted submissions", Duration::from_secs(60), || {
            accepted.load(Ordering::SeqCst) >= 20
        });
        daemon.handle.shutdown();
    });
    daemon.thread.take().unwrap().join().expect("server thread").expect("clean shutdown");
    let stats = daemon.handle.stats();
    assert_eq!(stats.executed, accepted.load(Ordering::SeqCst) as u64, "{stats:?}");
    assert_eq!((stats.queued, stats.running), (0, 0), "{stats:?}");
}

/// Runs sweeps like [`SweepService`] but panics on scenarios named `boom`.
struct PanickyService;

impl ScenarioService for PanickyService {
    fn run(&self, scenario: &Scenario) -> Result<Report, String> {
        if scenario.name == "boom" {
            panic!("the service blew up");
        }
        SweepService.run(scenario)
    }
}

#[test]
fn a_panicking_job_fails_alone_and_the_worker_keeps_serving() {
    let config = ServeConfig { workers: 1, ..ServeConfig::default() };
    let mut daemon = Daemon::start_with(config, Arc::new(PanickyService));
    let addr = daemon.addr;

    let (status, _, body) = post(addr, &format!("{SMOKE}name = \"boom\"\n"));
    assert_eq!(status, 202, "{}", body_text(&body));
    let id = json_field(&body_text(&body), "job");
    let mut last = String::new();
    wait_until("job to fail", Duration::from_secs(30), || {
        let (_, _, body) = get(addr, &format!("/v1/jobs/{id}"));
        last = body_text(&body);
        json_field(&last, "status") == "failed"
    });
    assert!(last.contains("job panicked: the service blew up"), "{last}");

    // The pool's only worker survived and runs the next job.
    let (status, _, body) = post(addr, SMOKE);
    assert_eq!(status, 202, "{}", body_text(&body));
    wait_done(addr, &json_field(&body_text(&body), "job"));

    daemon.handle.shutdown();
    daemon.thread.take().unwrap().join().expect("server thread").expect("clean shutdown");
    let stats = daemon.handle.stats();
    assert_eq!((stats.executed, stats.running), (2, 0), "{stats:?}");
}

#[test]
fn submissions_run_cache_and_coalesce_across_formats() {
    let daemon = Daemon::start(ServeConfig::default());
    let addr = daemon.addr;

    let (status, _, body) = post(addr, SMOKE);
    let body = body_text(&body);
    assert_eq!(status, 202, "{body}");
    assert_eq!(json_field(&body, "status"), "queued");
    assert_eq!(json_field(&body, "cached"), "false");
    let id = json_field(&body, "job");
    let digest = json_field(&body, "digest");
    assert_eq!(digest.len(), 16, "{digest}");
    assert_eq!(digest, Scenario::from_toml(SMOKE).unwrap().digest());

    let status_body = wait_done(addr, &id);
    assert!(status_body.contains("\"report\": {"), "{status_body}");

    // The raw report endpoint serves exactly what a local run prints.
    let (status, _, report) = get(addr, &format!("/v1/jobs/{id}/report"));
    assert_eq!(status, 200);
    let expected = SweepService.run(&Scenario::from_toml(SMOKE).unwrap()).unwrap().to_json();
    assert_eq!(body_text(&report), expected, "served report must be byte-identical");

    // Resubmitting the identical TOML is a cache hit on the same job…
    let (status, _, body) = post(addr, SMOKE);
    let body = body_text(&body);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "cached"), "true");
    assert_eq!(json_field(&body, "job"), id);

    // …and so is the equivalent JSON submission: one digest, one run.
    let (status, _, body) = post(addr, SMOKE_JSON);
    let body = body_text(&body);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "digest"), digest);
    assert_eq!(json_field(&body, "job"), id);

    let (_, _, health) = get(addr, "/v1/healthz");
    let health = body_text(&health);
    assert_eq!(json_field(&health, "executed"), "1", "{health}");
    assert_eq!(json_field(&health, "submitted"), "3", "{health}");
    assert_eq!(json_field(&health, "cache_hits"), "2", "{health}");
}

#[test]
fn malformed_oversized_and_over_budget_submissions() {
    let config = ServeConfig {
        max_body_bytes: 256,
        max_trials: 10,
        max_horizon: 1e6,
        ..ServeConfig::default()
    };
    let daemon = Daemon::start(config);
    let addr = daemon.addr;

    // Parse/validation failures → 400 with the reason.
    for (body, needle) in [
        ("kind = ", "missing value"),
        ("trials = 2\n", "missing `kind`"),
        ("kind = \"sweep\"\ntrails = 2\n", "trails"),
        ("{\"kind\": \"sweep\", \"trials\": }", "JSON body"),
        ("{\"kind\": [\"sweep\"]}", "kind"),
    ] {
        let (status, _, response) = post(addr, body);
        let response = body_text(&response);
        assert_eq!(status, 400, "{body:?}: {response}");
        assert!(response.contains(needle), "{body:?}: {response}");
    }

    // Over the body cap → 413 (the declared length already tells us).
    let huge = format!("kind = \"sweep\"\n# {}\n", "x".repeat(4096));
    let (status, head, _) = post(addr, &huge);
    assert_eq!(status, 413, "{head}");

    // Valid but over the server's per-request budgets → 422.
    let (status, _, response) = post(addr, "kind = \"sweep\"\ntrials = 11\n");
    assert_eq!(status, 422, "{}", body_text(&response));
    assert!(body_text(&response).contains("--max-trials"), "{}", body_text(&response));
    let (status, _, response) = post(addr, "kind = \"sweep\"\ntrials = 2\nhorizon = 2e6\n");
    assert_eq!(status, 422, "{}", body_text(&response));
    assert!(body_text(&response).contains("--max-horizon"), "{}", body_text(&response));

    // Chunked request bodies are refused with 411, not misread.
    let (status, _, _) =
        exchange(addr, b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n");
    assert_eq!(status, 411);
}

/// A one-trial sweep that finishes in milliseconds; each seed is a new digest.
fn seeded_body(seed: u64) -> String {
    format!(
        "kind = \"sweep\"\ntrials = 1\nseed = {seed}\nhorizon = 100.0\nworkload = \"unit\"\nprocessor = \"unit\"\nbattery = \"none\"\nspecs = [\"EDF\"]\n"
    )
}

/// A sweep sized to occupy a worker long enough (hundreds of ms) for the
/// queue tests to observe it running, while still draining quickly.
fn slow_body(tag: u64) -> String {
    format!(
        "kind = \"sweep\"\nname = \"slow-{tag}\"\ntrials = 2\nhorizon = 6000000.0\nworkload = \"unit\"\nprocessor = \"unit\"\nbattery = \"none\"\nspecs = [\"EDF\"]\n"
    )
}

#[test]
fn bounded_queue_answers_429_under_overload() {
    let config = ServeConfig { workers: 1, queue_depth: 1, ..ServeConfig::default() };
    let daemon = Daemon::start(config);
    let addr = daemon.addr;

    // Occupy the single worker…
    let (status, _, body) = post(addr, &slow_body(1));
    assert_eq!(status, 202, "{}", body_text(&body));
    wait_until("worker to pick the job up", Duration::from_secs(30), || {
        let (_, _, health) = get(addr, "/v1/healthz");
        json_field(&body_text(&health), "running") == "1"
    });

    // …fill the queue…
    let (status, _, body) = post(addr, &slow_body(2));
    assert_eq!(status, 202, "{}", body_text(&body));

    // …and the next distinct submission bounces with Retry-After.
    let (status, head, body) = post(addr, &slow_body(3));
    assert_eq!(status, 429, "{}", body_text(&body));
    assert!(head.contains("Retry-After: 1"), "{head}");
    assert!(body_text(&body).contains("queue is full"), "{}", body_text(&body));

    // A duplicate of a known job still coalesces — backpressure only
    // applies to work that would grow the queue.
    let (status, _, body) = post(addr, &slow_body(2));
    assert_eq!(status, 200, "{}", body_text(&body));
}

#[test]
fn concurrent_identical_submissions_single_flight() {
    let daemon = Daemon::start(ServeConfig { workers: 2, ..ServeConfig::default() });
    let addr = daemon.addr;
    let body = slow_body(77);

    let results: Vec<(u16, String)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let body = body.clone();
                scope.spawn(move || {
                    let (status, _, response) = post(addr, &body);
                    (status, body_text(&response))
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("submitter thread")).collect()
    });

    let ids: Vec<String> = results.iter().map(|(_, body)| json_field(body, "job")).collect();
    assert!(ids.iter().all(|id| *id == ids[0]), "all submissions share one job: {results:?}");
    let created = results.iter().filter(|(status, _)| *status == 202).count();
    assert_eq!(created, 1, "exactly one submission creates the job: {results:?}");

    wait_done(addr, &ids[0]);
    let (_, _, health) = get(addr, "/v1/healthz");
    assert_eq!(json_field(&body_text(&health), "executed"), "1", "one run serves all 8");
}

#[test]
fn events_endpoint_streams_the_exact_replay() {
    let daemon = Daemon::start(ServeConfig::default());
    let addr = daemon.addr;

    let (_, _, body) = post(addr, SMOKE);
    let id = json_field(&body_text(&body), "job");

    // The replay is deterministic and independent of job completion, so
    // it can stream immediately after submission.
    let (status, head, chunked) = get(addr, &format!("/v1/jobs/{id}/events"));
    assert_eq!(status, 200);
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    assert!(head.contains("Content-Type: application/x-ndjson"), "{head}");
    let streamed = http::decode_chunked(&chunked).expect("well-formed chunking");

    let direct =
        Scenario::from_toml(SMOKE).unwrap().stream_events(Vec::new()).expect("local replay");
    assert_eq!(streamed, direct, "served stream must match the local replay byte-for-byte");
    let text = String::from_utf8(streamed).unwrap();
    assert_eq!(text.matches("\"schema\":\"bas-events/v2\"").count(), 2, "one header per spec");
}

#[test]
fn sweep_threads_knob_does_not_split_the_cache() {
    let daemon = Daemon::start(ServeConfig::default());
    let addr = daemon.addr;

    // The server shards sweeps across its own pool and ignores the
    // submitted `threads`, so submissions differing only in that knob must
    // land on one digest (and one run), not re-execute per value.
    let (status, _, body) = post(addr, &format!("{SMOKE}threads = 1\n"));
    let body = body_text(&body);
    assert_eq!(status, 202, "{body}");
    let id = json_field(&body, "job");
    let digest = json_field(&body, "digest");

    let (status, _, body) = post(addr, &format!("{SMOKE}threads = 7\n"));
    let body = body_text(&body);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "job"), id);
    assert_eq!(json_field(&body, "digest"), digest);

    wait_done(addr, &id);
    let (_, _, health) = get(addr, "/v1/healthz");
    assert_eq!(json_field(&body_text(&health), "executed"), "1", "one run serves both");
}

#[test]
fn events_replays_beyond_worker_count_get_429() {
    let daemon = Daemon::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let addr = daemon.addr;

    let (_, _, body) = post(addr, &slow_body(42));
    let id = json_field(&body_text(&body), "job");

    // Hold the single replay permit: read just the response head of a
    // streaming /events request and keep the connection open while the
    // replay runs behind it.
    let mut held = TcpStream::connect(addr).expect("connect");
    held.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    write!(held, "GET /v1/jobs/{id}/events HTTP/1.1\r\nHost: bas\r\n\r\n").expect("send request");
    let mut head = Vec::new();
    while !head.ends_with(b"\r\n\r\n") {
        let mut byte = [0u8; 1];
        held.read_exact(&mut byte).expect("streaming head");
        head.push(byte[0]);
        assert!(head.len() < 4096, "runaway head");
    }
    let head = String::from_utf8(head).expect("UTF-8 head");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");

    // The permit pool (sized to the worker count) is exhausted: a second
    // concurrent replay bounces instead of running an unbounded simulation.
    let (status, head, body) = get(addr, &format!("/v1/jobs/{id}/events"));
    assert_eq!(status, 429, "{}", body_text(&body));
    assert!(head.contains("Retry-After: 1"), "{head}");
    assert!(body_text(&body).contains("saturated"), "{}", body_text(&body));
}

#[test]
fn non_sweep_jobs_fail_loudly_but_stay_inspectable() {
    let daemon = Daemon::start(ServeConfig::default());
    let addr = daemon.addr;

    // The built-in service only runs sweeps; a fig5 job is accepted,
    // executed, and fails with the reason preserved.
    let (status, _, body) = post(addr, "kind = \"fig5\"\nhorizon = 50.0\n");
    assert_eq!(status, 202, "{}", body_text(&body));
    let id = json_field(&body_text(&body), "job");

    let mut last = String::new();
    wait_until("job to fail", Duration::from_secs(30), || {
        let (_, _, body) = get(addr, &format!("/v1/jobs/{id}"));
        last = body_text(&body);
        json_field(&last, "status") == "failed"
    });
    assert!(last.contains("only `sweep`"), "{last}");

    let (status, _, body) = get(addr, &format!("/v1/jobs/{id}/report"));
    assert_eq!(status, 500, "{}", body_text(&body));

    // Events replay is kind-gated regardless of status.
    let (status, _, body) = get(addr, &format!("/v1/jobs/{id}/events"));
    assert_eq!(status, 409, "{}", body_text(&body));

    // An unfinished job's report is a 409, not a hang: submit something
    // slow and ask immediately.
    let (_, _, body) = post(addr, &slow_body(5));
    let slow_id = json_field(&body_text(&body), "job");
    let (status, _, body) = get(addr, &format!("/v1/jobs/{slow_id}/report"));
    assert_eq!(status, 409, "{}", body_text(&body));
    assert!(body_text(&body).contains("not ready"), "{}", body_text(&body));
}

#[test]
fn lru_evicts_oldest_results_and_404s_them() {
    let config = ServeConfig { cache_capacity: 2, workers: 1, ..ServeConfig::default() };
    let daemon = Daemon::start(config);
    let addr = daemon.addr;

    let submit_fast = |seed: u64| {
        let (status, _, response) = post(addr, &seeded_body(seed));
        let response = body_text(&response);
        assert!(status == 202 || status == 200, "{response}");
        json_field(&response, "job")
    };

    let first = submit_fast(1);
    wait_done(addr, &first);
    let second = submit_fast(2);
    wait_done(addr, &second);
    let third = submit_fast(3);
    wait_done(addr, &third);

    // Capacity 2: the oldest finished job fell out of the registry.
    let (status, _, body) = get(addr, &format!("/v1/jobs/{first}"));
    assert_eq!(status, 404, "{}", body_text(&body));
    assert!(body_text(&body).contains("evicted"), "{}", body_text(&body));
    let (status, _, _) = get(addr, &format!("/v1/jobs/{third}"));
    assert_eq!(status, 200);

    // Resubmitting the evicted scenario is a fresh run, not a cache hit.
    let fourth = submit_fast(1);
    assert_ne!(fourth, first);
}

/// A pid+tag-keyed scratch state directory (fresh on every call).
fn tmp_state_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bas-serve-bb-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A sweep whose **job** takes a second or so (many trials) while its
/// first-trial event stream stays small — the shape the `?follow=1` tests
/// need: the stream is generated instantly at dequeue, the job keeps the
/// worker busy long enough to observe the live path.
fn follow_body(tag: u64, trials: usize) -> String {
    format!(
        "kind = \"sweep\"\nname = \"follow-{tag}\"\ntrials = {trials}\nhorizon = 2000.0\nworkload = \"unit\"\nprocessor = \"unit\"\nbattery = \"none\"\nspecs = [\"EDF\"]\n"
    )
}

#[test]
fn state_dir_restart_serves_byte_identical_results_with_zero_recompute() {
    let dir = tmp_state_dir("restart");
    let config = || ServeConfig { state_dir: Some(dir.clone()), ..ServeConfig::default() };

    let (digest, report_bytes, events_bytes) = {
        let daemon = Daemon::start(config());
        let addr = daemon.addr;
        let (status, _, body) = post(addr, SMOKE);
        let body = body_text(&body);
        assert_eq!(status, 202, "{body}");
        let id = json_field(&body, "job");
        let digest = json_field(&body, "digest");
        wait_done(addr, &id);
        let (status, _, report) = get(addr, &format!("/v1/jobs/{id}/report"));
        assert_eq!(status, 200);
        let (status, _, chunked) = get(addr, &format!("/v1/jobs/{id}/events"));
        assert_eq!(status, 200);
        let events = http::decode_chunked(&chunked).expect("well-formed chunking");
        (digest, report, events)
    }; // graceful shutdown: journal + blobs are on disk

    let daemon = Daemon::start(config());
    let addr = daemon.addr;
    // The resubmission is answered from the store: done, cached, no queue.
    let (status, _, body) = post(addr, SMOKE);
    let body = body_text(&body);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "cached"), "true");
    assert_eq!(json_field(&body, "status"), "done");
    assert_eq!(json_field(&body, "digest"), digest);
    let id = json_field(&body, "job");

    let (status, _, report) = get(addr, &format!("/v1/jobs/{id}/report"));
    assert_eq!(status, 200);
    assert_eq!(report, report_bytes, "restarted report must be byte-identical");
    let (status, _, chunked) = get(addr, &format!("/v1/jobs/{id}/events"));
    assert_eq!(status, 200);
    let events = http::decode_chunked(&chunked).expect("well-formed chunking");
    assert_eq!(events, events_bytes, "restarted events must be byte-identical");

    // Zero recompute, and the healthz store block says why: live entries,
    // checksum-verified hydrations, nothing quarantined.
    let (_, _, health) = get(addr, "/v1/healthz");
    let health = body_text(&health);
    assert_eq!(json_field(&health, "executed"), "0", "{health}");
    assert_eq!(json_field(&health, "cache_hits"), "1", "{health}");
    assert_eq!(json_field(&health, "entries"), "2", "report + events blobs: {health}");
    assert_ne!(json_field(&health, "bytes"), "0", "{health}");
    assert_ne!(json_field(&health, "hydrations"), "0", "{health}");
    assert_eq!(json_field(&health, "quarantines"), "0", "{health}");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_evicted_results_are_reserved_from_disk() {
    let dir = tmp_state_dir("evict");
    let config = ServeConfig {
        cache_capacity: 2,
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let daemon = Daemon::start(config);
    let addr = daemon.addr;

    let submit = |seed: u64| {
        let (status, _, response) = post(addr, &seeded_body(seed));
        (status, body_text(&response))
    };
    for seed in 1..=3 {
        let (_, body) = submit(seed);
        wait_done(addr, &json_field(&body, "job"));
    }
    // Capacity 2: job 1 fell out of the in-memory registry — but with a
    // store behind it the result is not lost: resubmission is a disk hit,
    // not a recompute (without --state-dir this same sequence re-executes;
    // `lru_evicts_oldest_results_and_404s_them` pins that).
    let (status, body) = submit(1);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "cached"), "true");
    assert_eq!(json_field(&body, "status"), "done");
    let (_, _, health) = get(addr, "/v1/healthz");
    assert_eq!(json_field(&body_text(&health), "executed"), "3", "no fourth run");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_report_blob_is_quarantined_on_restart_and_recomputed() {
    let dir = tmp_state_dir("torn");
    let config = || ServeConfig { state_dir: Some(dir.clone()), ..ServeConfig::default() };

    let digest = {
        let daemon = Daemon::start(config());
        let (status, _, body) = post(daemon.addr, SMOKE);
        let body = body_text(&body);
        assert_eq!(status, 202, "{body}");
        wait_done(daemon.addr, &json_field(&body, "job"));
        json_field(&body, "digest")
    };

    // Tear the report blob mid-payload — what a crash between the journal
    // fsync and the blob fsync leaves behind.
    let blob = dir.join("blobs").join(format!("{digest}.report"));
    let len = std::fs::metadata(&blob).expect("blob on disk").len();
    bas_serve::store::truncate_file(&blob, len / 2).expect("truncate blob");

    let daemon = Daemon::start(config());
    let addr = daemon.addr;
    // Open-time verification quarantined the torn blob: the resubmission
    // is a fresh run, never a serve of corrupt bytes.
    let (status, _, body) = post(addr, SMOKE);
    let body = body_text(&body);
    assert_eq!(status, 202, "torn blob must not read as a store hit: {body}");
    assert_eq!(json_field(&body, "cached"), "false");
    let id = json_field(&body, "job");
    let (_, _, health) = get(addr, "/v1/healthz");
    let health = body_text(&health);
    assert_ne!(json_field(&health, "quarantines"), "0", "{health}");

    // The daemon keeps serving: the recompute completes and is stored again.
    wait_done(addr, &id);
    let (status, _, _) = get(addr, &format!("/v1/jobs/{id}/report"));
    assert_eq!(status, 200);
    assert!(dir.join("quarantine").read_dir().expect("quarantine dir").next().is_some());
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn follow_stream_converges_byte_identically_with_the_replay() {
    let dir = tmp_state_dir("follow");
    let daemon =
        Daemon::start(ServeConfig { state_dir: Some(dir.clone()), ..ServeConfig::default() });
    let addr = daemon.addr;

    let body = follow_body(1, 2000);
    let (status, _, response) = post(addr, &body);
    assert_eq!(status, 202, "{}", body_text(&response));
    let id = json_field(&body_text(&response), "job");

    // Subscribe immediately: the connection stays open until the worker's
    // first-trial stream completes, delivering it incrementally.
    let (status, head, chunked) = get(addr, &format!("/v1/jobs/{id}/events?follow=1"));
    assert_eq!(status, 200);
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    let followed = http::decode_chunked(&chunked).expect("well-formed chunking");

    let direct =
        Scenario::from_toml(&body).unwrap().stream_events(Vec::new()).expect("local replay");
    assert_eq!(followed, direct, "live subscription must converge with the replay bytes");
    assert!(
        !String::from_utf8_lossy(&followed).contains("follow_drop"),
        "a keeping-up follower sees no drop markers"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_follower_gets_a_drop_marker_never_backpressure() {
    let dir = tmp_state_dir("drop");
    // A 512-byte live window is far smaller than the ~tens-of-KB stream,
    // so a follower attaching after generation has already raced ahead
    // must be told what it missed.
    let config = ServeConfig {
        follow_buffer_bytes: 512,
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let daemon = Daemon::start(config);
    let addr = daemon.addr;

    let body = follow_body(2, 10_000);
    let (status, _, response) = post(addr, &body);
    assert_eq!(status, 202, "{}", body_text(&response));
    let id = json_field(&body_text(&response), "job");

    // The worker generates the stream the moment it dequeues; wait for
    // that moment, then attach late — lines have already left the window.
    wait_until("worker to pick the job up", Duration::from_secs(30), || {
        let (_, _, health) = get(addr, "/v1/healthz");
        json_field(&body_text(&health), "running") == "1"
    });
    std::thread::sleep(Duration::from_millis(100));
    let (status, _, chunked) = get(addr, &format!("/v1/jobs/{id}/events?follow=1"));
    assert_eq!(status, 200);
    let followed = http::decode_chunked(&chunked).expect("well-formed chunking");
    let text = String::from_utf8(followed.clone()).expect("UTF-8 stream");

    // First line is the marker: `bas-events/v2` consumers skip unknown
    // types, so the stream stays schema-valid NDJSON.
    let (marker, tail) = text.split_once('\n').expect("marker line");
    assert!(marker.contains("\"type\": \"follow_drop\""), "{marker}");
    let dropped: u64 = json_field(marker, "dropped_lines").parse().expect("drop count");
    assert!(dropped > 0, "{marker}");

    // Whatever survives is a byte-exact suffix of the replay, and the
    // arithmetic closes: delivered + dropped = every line of the stream.
    let direct =
        Scenario::from_toml(&body).unwrap().stream_events(Vec::new()).expect("local replay");
    assert!(direct.ends_with(tail.as_bytes()), "tail must be a suffix of the replay");
    let total = direct.iter().filter(|&&b| b == b'\n').count() as u64;
    let delivered = tail.bytes().filter(|&b| b == b'\n').count() as u64;
    assert_eq!(delivered + dropped, total);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_drains_the_queue() {
    let mut daemon = Daemon::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let addr = daemon.addr;

    let (status, _, _) = post(addr, &slow_body(10));
    assert_eq!(status, 202);
    let (status, _, _) = post(addr, &slow_body(11));
    assert_eq!(status, 202);

    // Shut down immediately: both jobs must still execute before run()
    // returns — drain means "finish the queue", not "abandon it".
    daemon.handle.shutdown();
    daemon.thread.take().unwrap().join().expect("server thread").expect("clean shutdown");
    let stats = daemon.handle.stats();
    assert_eq!(stats.executed, 2, "{stats:?}");
    assert_eq!(stats.queued, 0, "{stats:?}");
    assert!(daemon.handle.is_idle());
}
