//! The `serve-open` workload: `np-serve --stdio` as a child process,
//! driven through its JSON-lines protocol by one writer (this thread)
//! and one reader thread.
//!
//! After set-up, a closed loop sends the hot set one request at a time to
//! fill the netlist cache. Then an open loop offers seeded Poisson
//! arrivals at three fixed rates; before each rate phase, with the server
//! idle, the closed loop times the warm path a few more times, so those
//! samples spread over the whole run. Latency counts from each
//! request's due time, so a late generator charges its lateness to the
//! requests it delayed.
//!
//! The host's reference kernel is timed after each closed-loop pass,
//! while the server is idle, and only `wall_s` — one request at a time
//! on an idle server, compute like a batch call — is scaled by it.
//! Open-loop latency and process spawns do not follow the kernel's speed:
//! over 18 runs interleaved with the kernel, scaling widened the spread
//! of p50 from 0.12 to 0.14, of p90 from 0.08 to 0.13 and of `setup_s`
//! from 0.11 to 0.15, while it narrowed `wall_s`'s from 0.13 to 0.07.

use crate::host::HostSpeed;
use crate::inputs::render_hgr;
use crate::stats::{
    backlog_growing, describe_tail, geo, latency_from_due_ms, max_rps_slo, mean_over, median, ms,
    quantile, PhaseSummary, SETUP_SAMPLE, SETUP_SAMPLES,
};
use crate::Metrics;
use ig_match_repro::netlist::generate::{generate, GeneratorConfig};
use ig_match_repro::netlist::io::parse_hgr;
use ig_match_repro::netlist::rng::{derive_seed, Rng64};
use ig_match_repro::netlist::Hypergraph;
use np_serve::json::{self, Value};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered arrival rates R1 < R2 < R3 in requests per second. A request
/// computes for about 25 ms, so the two workers are busy about 12%, 25%
/// and 37% of the time. Queueing multiplies any slowdown of the host, and
/// at 15/30/45 req/s two runs in ten that fell into slow stretches of
/// the host read p90 at R2 2–3x the others'; at 60 req/s a run shed
/// requests.
const RATES: [f64; 3] = [10.0, 20.0, 30.0];
/// Share of the run's seconds the rate phases last together; set-up
/// spawns and the closed-loop passes between the phases take the rest.
const OPEN_LOOP_SHARE: f64 = 0.8;
/// Share of the open loop each rate phase lasts; R2, where `p50_ms` and
/// `p90_ms` are measured, gets the most.
const PHASE_SHARES: [f64; 3] = [0.2, 0.6, 0.2];
/// The latency limit on p90, and the deadline carried by a tenth of the
/// requests.
const SLO_MS: u64 = 500;
const DEADLINE_SHARE: f64 = 0.1;
/// Admission permits of the server under test.
const WORKERS: usize = 2;
/// Portfolio width of every request.
const RESTARTS: u32 = 2;
/// Distinct circuits behind every request. Sent with one fixed pin order
/// per run they form the hot set, which hits the netlist cache after its
/// first use; every other request sends one of them with freshly
/// shuffled pins, which misses the cache (it keys on the text) and
/// churns its LRU while the partitioning work stays identical.
const POOL: usize = 8;
/// Share of open-loop requests drawn from the hot set.
const HOT_SHARE: f64 = 0.5;
/// Module counts of the pool circuits are log-spaced over this range.
const MODULES: (f64, f64) = (100.0, 400.0);
/// Timed closed-loop passes over the hot set before each rate phase.
const WARM_PASSES_PER_PHASE: usize = 4;
/// How long a request may stay unanswered before it counts as missing.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);

/// One open-loop request.
struct Planned {
    id: String,
    /// Pool circuit the request sends, for checking its answer.
    base: usize,
    due: Duration,
    line: String,
}

fn request_line(id: &str, hgr: &str, priority: &str, deadline: bool) -> String {
    let deadline = if deadline {
        format!(",\"deadline_ms\":{SLO_MS}")
    } else {
        String::new()
    };
    format!(
        "{{\"id\":{},\"hgr\":{},\"restarts\":{RESTARTS},\"priority\":\"{priority}\"{deadline}}}",
        json::escape(id),
        json::escape(hgr)
    )
}

/// The pool circuits, the hot set's texts, and every open-loop request
/// of the three phases.
fn plan(seed: u64, seconds: f64) -> (Vec<Hypergraph>, Vec<String>, Vec<Vec<Planned>>) {
    let mut rng = Rng64::new(derive_seed(seed, 0x5E4E));
    let pool: Vec<Hypergraph> = (0..POOL)
        .map(|i| {
            let share = (i as f64 + 0.5) / POOL as f64;
            let modules = (MODULES.0 * (MODULES.1 / MODULES.0).powf(share)).round() as usize;
            generate(&GeneratorConfig::new(
                modules,
                modules * 11 / 10,
                0x407 + i as u64,
            ))
        })
        .collect();
    let hot: Vec<String> = pool.iter().map(|hg| render_hgr(hg, &mut rng)).collect();
    let mut phases = Vec::new();
    for (p, (&rate, &share)) in RATES.iter().zip(&PHASE_SHARES).enumerate() {
        let span = seconds * OPEN_LOOP_SHARE * share;
        let mut due = 0.0;
        let mut planned = Vec::new();
        loop {
            due += -(1.0 - rng.gen_f64()).ln() / rate;
            if due >= span {
                break;
            }
            let base = rng.gen_range(POOL);
            let fresh;
            let hgr = if rng.gen_bool(HOT_SHARE) {
                &hot[base]
            } else {
                fresh = render_hgr(&pool[base], &mut rng);
                &fresh
            };
            let id = format!("r{}-{}", p + 1, planned.len());
            let priority = ["high", "normal", "normal", "low"][rng.gen_range(4)];
            let deadline = rng.gen_bool(DEADLINE_SHARE);
            let line = request_line(&id, hgr, priority, deadline);
            planned.push(Planned {
                id,
                base,
                due: Duration::from_secs_f64(due),
                line,
            });
        }
        phases.push(planned);
    }
    (pool, hot, phases)
}

/// A running `np-serve --stdio` child with its reader thread.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    frames: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the server and waits for its first `/metrics` answer;
    /// returns the server and the time from spawn to that answer.
    fn start(binary: &str) -> Result<(Server, Duration), String> {
        let t = Instant::now();
        let mut child = Command::new(binary)
            .args(["--stdio", "--workers", &WORKERS.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {binary}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, frames) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        let mut server = Server {
            stdin: child.stdin.take(),
            child,
            frames,
            reader: Some(reader),
        };
        server.send("/metrics")?;
        let (_, line) = server.next_frame(ANSWER_TIMEOUT)?;
        if !line.contains("\"frame\":\"metrics\"") {
            return Err(format!("expected a metrics frame, got {line}"));
        }
        Ok((server, t.elapsed()))
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().expect("stdin is open until shutdown");
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to np-serve: {e}"))
    }

    fn next_frame(&self, timeout: Duration) -> Result<(Instant, String), String> {
        self.frames.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => "np-serve stopped answering".to_string(),
            RecvTimeoutError::Disconnected => "np-serve closed its output".to_string(),
        })
    }

    /// Closes stdin (the server finishes in-flight requests and exits),
    /// waits for the exit and joins the reader. Returns the frames that
    /// arrived after the last one read.
    fn shutdown(mut self) -> Result<Vec<String>, String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + ANSWER_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(None) => {
                    let _ = self.child.kill();
                    break Err("np-serve did not exit after stdin closed".to_string());
                }
                Err(e) => break Err(format!("waiting for np-serve: {e}")),
            }
        };
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            reader
                .join()
                .map_err(|_| "reader thread panicked".to_string())?;
        }
        match status? {
            s if s.success() => Ok(self.frames.try_iter().map(|(_, line)| line).collect()),
            s => Err(format!("np-serve exited with {s}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // only reached on an error path: make sure no child outlives the run
        if self.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(reader) = self.reader.take() {
                let _ = reader.join();
            }
        }
    }
}

/// The terminal frame of one request, as received.
struct Answer {
    at: Instant,
    frame: Value,
}

fn frame_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Value::as_str)
}

fn frame_f64(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// Reads frames until every id in `ids` has its terminal frame or the
/// server goes quiet. More than one terminal frame per id is recorded as
/// a violation.
fn collect(server: &Server, ids: &[&str], out: &mut Metrics) -> Vec<Option<Answer>> {
    let mut answers: Vec<Option<Answer>> = ids.iter().map(|_| None).collect();
    let index: std::collections::HashMap<&str, usize> =
        ids.iter().enumerate().map(|(i, id)| (*id, i)).collect();
    let mut open = ids.len();
    while open > 0 {
        let Ok((at, line)) = server.next_frame(ANSWER_TIMEOUT) else {
            break;
        };
        let Ok(frame) = json::parse(&line) else {
            out.violate(format!("unparsable frame: {line}"));
            continue;
        };
        if !matches!(
            frame_str(&frame, "frame"),
            Some("result" | "shed" | "error")
        ) {
            continue;
        }
        let Some(&i) = frame_str(&frame, "id").and_then(|id| index.get(id)) else {
            out.violate(format!("terminal frame for an unknown id: {line}"));
            continue;
        };
        if answers[i].is_some() {
            out.violate(format!("second terminal frame for {}", ids[i]));
            continue;
        }
        answers[i] = Some(Answer { at, frame });
        open -= 1;
    }
    answers
}

/// Checks a result frame against the netlist it answers: the partition
/// string must cover every module and re-cut to the reported numbers.
fn check_result(frame: &Value, hg: &Hypergraph) -> Result<f64, String> {
    let partition = frame_str(frame, "partition").ok_or("result frame without a partition")?;
    let labels: Vec<u32> = partition
        .bytes()
        .map(|b| match b {
            b'0' => Ok(0),
            b'1' => Ok(1),
            _ => Err("partition string holds a non-binary label"),
        })
        .collect::<Result<_, _>>()?;
    if labels.len() != hg.num_modules() {
        return Err(format!(
            "partition covers {} of {} modules",
            labels.len(),
            hg.num_modules()
        ));
    }
    let (cut, _) = np_testkit::kway_reference_externals(hg, &labels, 2);
    let right = labels.iter().filter(|&&l| l == 1).count();
    let left = labels.len() - right;
    let reported = (
        frame_f64(frame, "cut"),
        frame_f64(frame, "left"),
        frame_f64(frame, "right"),
    );
    if reported != (Some(cut as f64), Some(left as f64), Some(right as f64)) {
        return Err(format!(
            "frame reports {reported:?}, partition re-cuts to ({cut}, {left}, {right})"
        ));
    }
    let ratio = cut as f64 / (left as f64 * right as f64);
    let sent = frame_f64(frame, "ratio").ok_or("result frame without a ratio")?;
    if !(ratio > 0.0 && ratio.is_finite()) || (sent - ratio).abs() > 1e-12 * ratio {
        return Err(format!("frame ratio {sent} but partition ratio {ratio}"));
    }
    Ok(ratio)
}

/// One request's fate: `Some(latency)` for a checked result, `None` for
/// anything that counts as a failure (which `record` has already noted).
fn record(answer: Option<&Answer>, id: &str, hg: &Hypergraph, out: &mut Metrics) -> Option<f64> {
    let Some(a) = answer else {
        out.fail(format!("{id}: no terminal frame"));
        return None;
    };
    match frame_str(&a.frame, "frame") {
        Some("result") => match check_result(&a.frame, hg) {
            Ok(ratio) => Some(ratio),
            Err(e) => {
                out.violate(format!("{id}: {e}"));
                None
            }
        },
        Some(kind) => {
            out.fail(format!("{id}: {kind} frame"));
            None
        }
        None => unreachable!("collect keeps terminal frames only"),
    }
}

/// Sends the hot set one request at a time; per request, the latency in
/// ms and the checked ratio cut, or `None` when it failed.
fn closed_pass(
    server: &mut Server,
    pool: &[Hypergraph],
    hot: &[String],
    pass: usize,
    out: &mut Metrics,
) -> Result<Vec<Option<(f64, f64)>>, String> {
    let mut answers = Vec::with_capacity(pool.len());
    for (i, (hg, hgr)) in pool.iter().zip(hot).enumerate() {
        let id = format!("h{pass}-{i}");
        out.attempted += 1;
        let sent = Instant::now();
        server.send(&request_line(&id, hgr, "normal", false))?;
        let answer = collect(server, &[&id], out).pop().flatten();
        answers.push(
            record(answer.as_ref(), &id, hg, out)
                .map(|ratio| (ms(answer.expect("recorded").at - sent), ratio)),
        );
    }
    Ok(answers)
}

/// Times a third of the set-up samples into `setup`, each spawning the
/// server over and over; returns the last spawn, still running. A run
/// takes one such group before each rate phase, while its own server is
/// idle: the host slows down for seconds at a time, and samples taken in
/// one stretch can all fall into a slow one.
fn sample_setup(binary: &str, setup: &mut Vec<f64>) -> Result<Server, String> {
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_SAMPLES / RATES.len() {
        let ((), secs) = mean_over(SETUP_SAMPLE, || {
            if let Some(s) = server.take() {
                s.shutdown()?;
            }
            let (s, took) = Server::start(binary)?;
            server = Some(s);
            Ok::<_, String>(((), took))
        })?;
        setup.push(secs);
    }
    Ok(server.expect("at least one spawn"))
}

/// Runs the workload for about `seconds` against the `np-serve` binary at
/// `binary`.
///
/// # Errors
///
/// When the server cannot be started, stops answering, or fails to exit
/// cleanly.
pub fn run(binary: &str, seed: u64, seconds: f64, trace: bool) -> Result<Metrics, String> {
    let (pool, hot, phases) = plan(seed, seconds);
    let mut out = Metrics::default();

    let mut host = HostSpeed::new();
    let mut setup = Vec::new();
    let mut server = sample_setup(binary, &mut setup)?;

    let mut warm_ms: Vec<Vec<f64>> = vec![Vec::new(); POOL];
    let mut hot_ratios = Vec::new();
    closed_pass(&mut server, &pool, &hot, 0, &mut out)?;
    host.sample();
    // open loop at R1, R2, R3
    let mut summaries = Vec::new();
    let mut r2 = Vec::new();
    let mut r2_frames: Vec<(Value, f64)> = Vec::new();
    let mut lags = Vec::new();
    let mut tiers: Vec<String> = Vec::new();
    let mut degraded = 0usize;
    for (p, planned) in phases.iter().enumerate() {
        if p > 0 {
            sample_setup(binary, &mut setup)?.shutdown()?;
        }
        for k in 0..WARM_PASSES_PER_PHASE {
            let pass = 1 + p * WARM_PASSES_PER_PHASE + k;
            for (i, answer) in closed_pass(&mut server, &pool, &hot, pass, &mut out)?
                .into_iter()
                .enumerate()
            {
                let Some((latency, ratio)) = answer else {
                    continue;
                };
                warm_ms[i].push(latency);
                if pass == 1 {
                    hot_ratios.push(ratio);
                }
            }
            host.sample();
        }
        let start = Instant::now() + Duration::from_millis(20);
        let mut sent_at = Vec::with_capacity(planned.len());
        for req in planned {
            let due = start + req.due;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            out.attempted += 1;
            let sent = Instant::now();
            sent_at.push(sent);
            lags.push(ms(sent.saturating_duration_since(due)));
            server.send(&req.line)?;
        }
        let ids: Vec<&str> = planned.iter().map(|r| r.id.as_str()).collect();
        let answers = collect(&server, &ids, &mut out);
        let mut latencies = Vec::with_capacity(planned.len());
        let mut shed = 0usize;
        for ((req, answer), sent) in planned.iter().zip(&answers).zip(&sent_at) {
            if answer
                .as_ref()
                .is_some_and(|a| frame_str(&a.frame, "frame") == Some("shed"))
            {
                shed += 1;
            }
            let latency = match record(answer.as_ref(), &req.id, &pool[req.base], &mut out) {
                Some(_) => {
                    let a = answer.as_ref().expect("recorded");
                    tiers.push(frame_str(&a.frame, "tier").unwrap_or("?").to_string());
                    if a.frame.get("degraded").and_then(Value::as_bool) == Some(true) {
                        degraded += 1;
                    }
                    if p == 1 {
                        r2_frames.push((a.frame.clone(), ms(a.at - *sent)));
                    }
                    latency_from_due_ms(start + req.due, a.at)
                }
                // a failed or refused request misses any latency limit
                None => ms(ANSWER_TIMEOUT),
            };
            latencies.push(latency);
        }
        let p90 = quantile(&latencies, 0.9).unwrap_or(0.0);
        eprintln!(
            "phase R{}: {:.0} req/s offered, {} requests, p50 {:.1} ms, p90 {p90:.1} ms, {shed} shed, highest reportable tail: {}",
            p + 1,
            RATES[p],
            planned.len(),
            quantile(&latencies, 0.5).unwrap_or(0.0),
            describe_tail(latencies.len())
        );
        summaries.push(PhaseSummary {
            rate: RATES[p],
            p90_ms: p90,
            shed_share: shed as f64 / planned.len().max(1) as f64,
            backlog_growing: backlog_growing(&latencies, SLO_MS as f64),
        });
        if p == 1 {
            r2 = latencies;
        }
    }
    server.send("/metrics")?;
    let metrics_frame = loop {
        let (_, line) = server.next_frame(ANSWER_TIMEOUT)?;
        if line.contains("\"frame\":\"metrics\"") {
            break json::parse(&line).map_err(|e| format!("metrics frame: {e}"))?;
        }
    };
    for line in server.shutdown()? {
        out.violate(format!("frame after every request was answered: {line}"));
    }

    if !trace {
        let warm: Vec<f64> = warm_ms.iter().filter_map(|t| median(t)).collect();
        if warm.len() != POOL || hot_ratios.len() != POOL {
            return Err("a hot-set request never produced a checked result".into());
        }
        let scale = host.scale()?;
        out.set("setup_s", median(&setup).expect("spawned"));
        out.set("wall_s", warm.iter().sum::<f64>() / 1e3 * scale);
        out.set("p50_ms", quantile(&r2, 0.5).ok_or("no R2 requests")?);
        out.set("p90_ms", quantile(&r2, 0.9).ok_or("no R2 requests")?);
        out.set(
            "objective_geo",
            geo(&hot_ratios).ok_or("degenerate hot-set ratio")?,
        );
        return Ok(out);
    }

    let field = |key: &str, pick: &dyn Fn(&(Value, f64)) -> bool| -> Vec<f64> {
        r2_frames
            .iter()
            .filter(|f| pick(f))
            .filter_map(|(f, _)| frame_f64(f, key))
            .collect()
    };
    let all = |_: &(Value, f64)| true;
    let queue = field("queue_ms", &all);
    let compute = field("compute_ms", &all);
    let hit = |f: &(Value, f64)| f.0.get("cache_hit").and_then(Value::as_bool) == Some(true);
    let miss = |f: &(Value, f64)| f.0.get("cache_hit").and_then(Value::as_bool) == Some(false);
    let transport: Vec<f64> = r2_frames
        .iter()
        .filter_map(|(f, latency)| {
            Some(latency - frame_f64(f, "queue_ms")? - frame_f64(f, "compute_ms")?)
        })
        .collect();
    let counter = |key: &str| {
        metrics_frame
            .get(key)
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let lookups = counter("cache_hits") + counter("cache_misses");
    let share =
        |tier: &str| tiers.iter().filter(|t| *t == tier).count() as f64 / tiers.len().max(1) as f64;

    let mut parse = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let ((), secs) = mean_over(SETUP_SAMPLE, || {
            let t = Instant::now();
            for hgr in &hot {
                std::hint::black_box(parse_hgr(hgr).map_err(|e| e.to_string())?);
            }
            Ok::<_, String>(((), t.elapsed()))
        })?;
        parse.push(secs * 1e3);
    }
    out.set("netlist.parse_ms", median(&parse).expect("timed"));
    out.set(
        "host.reference_ms",
        host.median_ms().ok_or("the host speed was never sampled")?,
    );
    out.set(
        "serve.queue_wait_p50_ms",
        quantile(&queue, 0.5).unwrap_or(0.0),
    );
    out.set(
        "serve.queue_wait_p90_ms",
        quantile(&queue, 0.9).unwrap_or(0.0),
    );
    out.set(
        "serve.compute_p50_ms",
        quantile(&compute, 0.5).unwrap_or(0.0),
    );
    out.set(
        "serve.compute_hit_p50_ms",
        quantile(&field("compute_ms", &hit), 0.5).unwrap_or(0.0),
    );
    out.set(
        "serve.compute_miss_p50_ms",
        quantile(&field("compute_ms", &miss), 0.5).unwrap_or(0.0),
    );
    out.set(
        "serve.transport_p50_ms",
        quantile(&transport, 0.5).unwrap_or(0.0),
    );
    out.set(
        "serve.cache_hit_share",
        if lookups > 0.0 {
            counter("cache_hits") / lookups
        } else {
            0.0
        },
    );
    out.set("serve.tier_share.portfolio", share("portfolio"));
    out.set("serve.tier_share.insurance", share("insurance"));
    out.set("serve.tier_share.fm-fallback", share("fm-fallback"));
    out.set(
        "serve.degraded_share",
        degraded as f64 / tiers.len().max(1) as f64,
    );
    out.set("serve.gen_lag_p90_ms", quantile(&lags, 0.9).unwrap_or(0.0));
    out.set("serve.p90_ms_r1", summaries[0].p90_ms);
    out.set("serve.p90_ms_r3", summaries[2].p90_ms);
    out.set("serve.max_rps_slo", max_rps_slo(&summaries, SLO_MS as f64));
    Ok(out)
}
