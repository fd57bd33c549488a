//! The `serve-cold-warm` workload: `repro serve` at test scale with one
//! worker, driven by this process as a closed-loop generator.
//!
//! The cold phase computes the paper-artifact matrix once through the
//! server (worker spawn, journal fsync, result-cache write). The warm
//! phase then fetches the same artifacts again as cache hits, in rounds
//! of [`WARM_REQUESTS`] so that p99 has ten samples beyond it.

use crate::spans::{median, ms, percentile, tail_percentile, Recorder};
use crate::{seed_rng, vm_hwm_mb, Metrics, Outcome};
use experiments::campaign::{artifacts, render_artifact};
use experiments::serve::client;
use experiments::serve::json;
use experiments::Scale;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Server boots per run; `setup_s` is their median.
const BOOTS: usize = 11;
/// Warm requests per round.
const WARM_REQUESTS: usize = 1000;
/// Client threads, capped at the host's core count.
const CLIENT_THREADS: usize = 2;
/// Long-poll window of one status request.
const STATUS_WAIT_MS: u64 = 2000;
/// Budget for one server to boot or one request to finish; well inside
/// the 180 s a run may take, so the server is still drained on timeout.
const TIMEOUT: Duration = Duration::from_secs(60);

/// A running `repro serve` whose drain and directory removal happen on
/// drop, so they also run when a gate fails or an error returns early.
struct Server {
    child: Child,
    dir: PathBuf,
    addr: String,
}

impl Server {
    /// Spawns a server in a fresh directory under `work_dir` and waits
    /// until `/readyz` answers 200. Returns it with its boot time.
    fn boot(repro: &Path, work_dir: &Path, n: usize) -> Result<(Server, Duration), String> {
        let dir = work_dir.join(format!("serve-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let log = std::fs::File::create(dir.join("server.log"))
            .map_err(|e| format!("create server log: {e}"))?;
        let start = Instant::now();
        let child = Command::new(repro)
            .args([
                "serve",
                "--scale",
                "test",
                "--workers",
                "1",
                "--serve-dir",
                ".",
            ])
            .current_dir(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn();
        let child = match child {
            Ok(c) => c,
            Err(e) => {
                let _ = std::fs::remove_dir_all(&dir);
                return Err(format!("spawn {}: {e}", repro.display()));
            }
        };
        let mut server = Server {
            child,
            dir,
            addr: String::new(),
        };
        loop {
            if start.elapsed() > TIMEOUT {
                return Err("server did not become ready".to_string());
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during boot: {status}"));
            }
            if server.addr.is_empty() {
                if let Ok(s) = std::fs::read_to_string(server.dir.join("endpoint")) {
                    server.addr = s.trim().to_string();
                }
            }
            if !server.addr.is_empty()
                && client::request(&server.addr, "GET", "/readyz", "")
                    .is_ok_and(|r| r.status == 200)
            {
                return Ok((server, start.elapsed()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set of the server process, in MB.
    fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(&self.child.id().to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.addr.is_empty() {
            let _ = client::request(&self.addr, "POST", "/drain", "");
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One HTTP call's interval, for the span recorder.
type Call = (&'static str, Instant, Instant);

/// Where a client thread collects its call intervals; `None` when the
/// phase is not traced.
type Calls = Option<Vec<Call>>;

/// One artifact driven through submit → status → fetch.
struct Request {
    artifact: usize,
    latency: Duration,
    output: Result<Vec<u8>, String>,
    warm: bool,
    polls: u64,
    sheds: u64,
    resubmits: u64,
}

/// Sends one request, recording its interval under `name` when traced.
fn call(
    addr: &str,
    name: &'static str,
    method: &str,
    path: &str,
    body: &str,
    calls: &mut Calls,
) -> Result<experiments::serve::http::Response, String> {
    let start = Instant::now();
    let resp = client::request(addr, method, path, body);
    if let Some(calls) = calls {
        calls.push((name, start, Instant::now()));
    }
    resp
}

/// Drives one artifact end to end, timing it from submit to fetched.
fn drive(addr: &str, names: &[&str], artifact: usize, calls: &mut Calls) -> Request {
    let start = Instant::now();
    let mut req = Request {
        artifact,
        latency: Duration::ZERO,
        output: Err(String::new()),
        warm: false,
        polls: 0,
        sheds: 0,
        resubmits: 0,
    };
    let body = format!(
        "{{\"artifact\": \"{}\", \"scale\": \"test\", \"json\": false}}",
        names[artifact]
    );
    req.output = exchange(addr, &body, start, &mut req, calls);
    req.latency = start.elapsed();
    req
}

/// Submit, long-poll status until done, fetch. Sheds are waited out and
/// a 404 (job retired by a restart) resubmits, as the client contract
/// says; both are counted in `req`.
fn exchange(
    addr: &str,
    body: &str,
    start: Instant,
    req: &mut Request,
    calls: &mut Calls,
) -> Result<Vec<u8>, String> {
    'submit: loop {
        if start.elapsed() > TIMEOUT {
            return Err("request timed out".to_string());
        }
        let resp = call(addr, "serve.submit", "POST", "/jobs", body, calls)?;
        let text = String::from_utf8_lossy(&resp.body).into_owned();
        match resp.status {
            202 => {}
            429 | 503 => {
                req.sheds += 1;
                let wait = resp.retry_after_ms.unwrap_or(100).clamp(1, 2000);
                std::thread::sleep(Duration::from_millis(wait));
                continue 'submit;
            }
            other => return Err(format!("submit: HTTP {other}: {text}")),
        }
        let map = json::parse_flat(&text).map_err(|e| format!("submit body {text:?}: {e}"))?;
        let job = json::get_str(&map, "job")
            .ok_or("submit body has no job id")?
            .to_string();
        req.warm = json::get_bool(&map, "warm") == Some(true);
        let status = format!("/jobs/{job}?wait_ms={STATUS_WAIT_MS}");
        loop {
            if start.elapsed() > TIMEOUT {
                return Err("job did not finish".to_string());
            }
            req.polls += 1;
            let resp = call(addr, "serve.status", "GET", &status, "", calls)?;
            let text = String::from_utf8_lossy(&resp.body).into_owned();
            match resp.status {
                200 => {
                    let map = json::parse_flat(&text)
                        .map_err(|e| format!("status body {text:?}: {e}"))?;
                    if json::get_str(&map, "state") != Some("done") {
                        continue;
                    }
                    match json::get_str(&map, "outcome") {
                        Some("completed" | "cached" | "resumed") => break,
                        other => return Err(format!("job ended {other:?}: {text}")),
                    }
                }
                404 => {
                    req.resubmits += 1;
                    continue 'submit;
                }
                other => return Err(format!("status: HTTP {other}: {text}")),
            }
        }
        let resp = call(
            addr,
            "serve.fetch",
            "GET",
            &format!("/jobs/{job}/output"),
            "",
            calls,
        )?;
        match resp.status {
            200 => return Ok(resp.body),
            404 => {
                req.resubmits += 1;
                continue 'submit;
            }
            other => return Err(format!("fetch: HTTP {other}")),
        }
    }
}

/// Sends `order` through `threads` closed-loop clients. Returns the
/// requests (in completion order) and the wall time; when `rec` is given,
/// records every HTTP call as a span under its innermost open span.
fn phase(
    addr: &str,
    names: &[&str],
    order: &[usize],
    threads: usize,
    rec: Option<&mut Recorder>,
) -> (Vec<Request>, Duration) {
    let traced = rec.is_some();
    let next = AtomicUsize::new(0);
    let done = Mutex::new((Vec::new(), Vec::new()));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut mine = Vec::new();
                let mut calls = traced.then(Vec::new);
                while let Some(&a) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    mine.push(drive(addr, names, a, &mut calls));
                }
                let mut done = done
                    .lock()
                    .expect("no client thread panics holding the lock");
                done.0.append(&mut mine);
                done.1.append(&mut calls.unwrap_or_default());
            });
        }
    });
    let wall = start.elapsed();
    let (requests, calls) = done.into_inner().expect("client threads joined");
    if let Some(rec) = rec {
        for (name, start, end) in calls {
            rec.record(name, start, end);
        }
    }
    (requests, wall)
}

/// The seed's artifact order: seed 0 is the canonical matrix order, other
/// seeds a Fisher–Yates permutation of it.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if seed != 0 {
        let mut rng = seed_rng(seed);
        for i in (1..n).rev() {
            order.swap(i, (rng() % (i as u64 + 1)) as usize);
        }
    }
    order
}

/// Runs the workload. Untraced: warm rounds until `seconds` of traffic
/// have been measured. Traced: one untraced and one traced warm round;
/// the difference is the tracing overhead.
pub fn run(
    repro: &Path,
    work_dir: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let repro = std::fs::canonicalize(repro)
        .map_err(|e| format!("repro binary {}: {e}", repro.display()))?;
    let repro = repro.as_path();
    let names = artifacts();
    let order = permutation(names.len(), seed);
    let threads = CLIENT_THREADS.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let mut rec = Recorder::default();
    let mut errors = Vec::new();

    let mut boots = Vec::new();
    let mut server = None;
    for n in 0..BOOTS {
        drop(server.take());
        let (s, boot) = rec.time("setup", |_| Server::boot(repro, work_dir, n))?;
        boots.push(boot.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one boot");

    let (cold, cold_wall) = rec.time("serve.cold", |rec| {
        phase(&server.addr, &names, &order, threads, trace.then_some(rec))
    });
    let mut cold_out: Vec<Option<Vec<u8>>> = vec![None; names.len()];
    for r in &cold {
        match &r.output {
            Ok(bytes) => cold_out[r.artifact] = Some(bytes.clone()),
            Err(e) => errors.push(format!("cold {}: {e}", names[r.artifact])),
        }
    }

    let warm_order: Vec<usize> = (0..WARM_REQUESTS).map(|i| order[i % order.len()]).collect();
    let mut rounds = Vec::new();
    // Untraced warm requests give the latencies; every warm request,
    // traced or not, is checked.
    let mut warm: Vec<Request> = Vec::new();
    let mut traced_warm: Vec<Request> = Vec::new();
    loop {
        let measured = cold_wall.as_secs_f64() + rounds.iter().sum::<f64>();
        let enough = if trace {
            rounds.len() == 2
        } else {
            !rounds.is_empty() && measured >= seconds
        };
        if enough {
            break;
        }
        let traced = trace && rounds.len() == 1;
        let (mut reqs, wall) = rec.time("serve.warm", |rec| {
            phase(
                &server.addr,
                &names,
                &warm_order,
                threads,
                traced.then_some(rec),
            )
        });
        rounds.push(wall.as_secs_f64());
        if traced {
            traced_warm.append(&mut reqs);
        } else {
            warm.append(&mut reqs);
        }
    }
    let all_warm = warm.len() + traced_warm.len();
    let mut warm_failed = 0u64;
    for r in warm.iter().chain(&traced_warm) {
        let ok = match &r.output {
            Ok(bytes) => cold_out[r.artifact].as_ref() == Some(bytes) && r.warm,
            Err(_) => false,
        };
        warm_failed += u64::from(!ok);
    }
    if warm_failed > 0 {
        errors.push(format!(
            "{warm_failed} of {all_warm} warm requests failed, missed the cache, or differed from the cold output"
        ));
    }
    let server_rss = server.peak_rss_mb();
    rec.time("serve.drain", |_| drop(server));

    // The in-process reference, outside every timed phase.
    let mut ref_failed = 0u64;
    rec.time("experiments.reference", |_| {
        for (i, name) in names.iter().enumerate() {
            let expected = render_artifact(name, Scale::test(), false);
            let same = matches!((&expected, &cold_out[i]),
                (Some(Ok(text)), Some(bytes)) if text.as_bytes() == bytes.as_slice());
            if !same {
                ref_failed += 1;
                errors.push(format!(
                    "cold output of {name} differs from render_artifact"
                ));
            }
        }
    });

    let latencies: Vec<f64> = warm.iter().map(|r| ms(r.latency)).collect();
    match tail_percentile(latencies.len()) {
        Some(p) if p >= 99.0 => {}
        _ => errors.push(format!(
            "{} warm samples are too few for a p99",
            latencies.len()
        )),
    }
    let cold_failed = cold.iter().filter(|r| r.output.is_err()).count() as u64;
    let attempted = (cold.len() + all_warm) as u64;
    let failed = cold_failed + warm_failed + ref_failed;
    let all: Vec<&Request> = cold.iter().chain(&warm).chain(&traced_warm).collect();
    let sheds: u64 = all.iter().map(|r| r.sheds).sum();
    let resubmits: u64 = all.iter().map(|r| r.resubmits).sum();
    // In a traced run only the first warm round is untraced.
    let untraced_rounds = if trace { &rounds[..1] } else { &rounds[..] };
    let run_s = cold_wall.as_secs_f64() + median(untraced_rounds);
    let cold_jobs_per_s = cold.len() as f64 / cold_wall.as_secs_f64();
    let (p50, p99) = (percentile(&latencies, 50.0), percentile(&latencies, 99.0));
    let error_rate = failed as f64 / attempted.max(1) as f64;

    println!(
        "serve-cold-warm: seed {seed}, {} cold jobs, {} warm requests in {} round(s), {threads} client threads",
        cold.len(),
        warm.len(),
        untraced_rounds.len()
    );
    println!(
        "serve-cold-warm: setup_s {:.4} s, run_s {run_s:.4} s, peak_rss_mb {server_rss:.1} MB (server), \
         cold_jobs_per_s {cold_jobs_per_s:.3} jobs/s, warm_p50_ms {p50:.3} ms, warm_p99_ms {p99:.3} ms \
         (n = {}), error_rate {error_rate} ({failed} of {attempted})",
        median(&boots),
        latencies.len()
    );

    let mut e2e = Metrics::default();
    e2e.put("setup_s", median(&boots));
    e2e.put("run_s", run_s);
    e2e.put("peak_rss_mb", server_rss);

    let mut layers = Metrics::default();
    layers.put("error_rate", error_rate);
    layers.put("cold_jobs_per_s", cold_jobs_per_s);
    layers.put("warm_p50_ms", p50);
    layers.put("warm_p99_ms", p99);
    if trace {
        let traced_wall = rounds[1];
        layers.put("trace.run_s", cold_wall.as_secs_f64() + traced_wall);
        layers.put("trace.overhead_s", traced_wall - rounds[0]);
        // Calls of the traced (last) warm round only; the cold phase's
        // calls sit under `serve.cold`.
        let warm_span = rec.spans().iter().rposition(|s| s.name == "serve.warm");
        for (name, p50_key, p99_key) in [
            ("serve.submit", "serve.submit_ms_p50", "serve.submit_ms_p99"),
            ("serve.status", "serve.status_ms_p50", "serve.status_ms_p99"),
            ("serve.fetch", "serve.fetch_ms_p50", "serve.fetch_ms_p99"),
        ] {
            let samples: Vec<f64> = rec
                .spans()
                .iter()
                .filter(|s| s.name == name && s.parent == warm_span)
                .map(|s| ms(s.duration()))
                .collect();
            layers.put(p50_key, percentile(&samples, 50.0));
            layers.put(p99_key, percentile(&samples, 99.0));
        }
        let polls: u64 = cold.iter().map(|r| r.polls).sum();
        let cold_ms: Vec<f64> = cold.iter().map(|r| ms(r.latency)).collect();
        layers.put(
            "serve.status_polls_per_job",
            polls as f64 / cold.len().max(1) as f64,
        );
        layers.put("serve.cold_job_ms_p50", percentile(&cold_ms, 50.0));
        layers.put("serve.sheds", sheds as f64);
        layers.put("serve.resubmits", resubmits as f64);
        layers.put("serve.boot_ms", median(&boots) * 1e3);
    }
    for e in &errors {
        eprintln!("serve-cold-warm: GATE FAILED: {e}");
    }
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        e2e,
        layers,
        rec,
    })
}
