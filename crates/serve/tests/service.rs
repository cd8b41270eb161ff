//! Service integration suite: overload safety, deadline degradation and
//! (with `--features fault-inject`) fault resilience.
//!
//! The central test is the ISSUE's acceptance criterion: a worker pool
//! of 2 facing 16 concurrent mixed-size requests must answer **every**
//! request with exactly one terminal frame — result, degraded result or
//! shed — with no hangs and no panics escaping the server loop.

use np_serve::json::{self, Value};
use np_serve::{ServeConfig, Service};
use np_testkit::banded_hypergraph;
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

/// A request line for a banded netlist of `modules` modules.
fn request_line(id: &str, modules: usize, extra: &str) -> String {
    let hg = banded_hypergraph(modules as u64, modules, modules + modules / 2, 6);
    let hgr = json::escape(&np_netlist::io::to_hgr_string(&hg));
    format!(r#"{{"id":"{id}","hgr":{hgr}{extra}}}"#)
}

/// Runs one request to completion, collecting its frames.
fn collect(svc: &Service, line: &str) -> Vec<String> {
    let frames = Mutex::new(Vec::new());
    svc.handle_line(line, &|f: &str| frames.lock().unwrap().push(f.to_string()));
    frames.into_inner().unwrap()
}

fn frame_kind(frame: &str) -> String {
    json::parse(frame)
        .expect("every frame is valid json")
        .get("frame")
        .and_then(Value::as_str)
        .expect("every frame has a kind")
        .to_string()
}

/// The acceptance criterion: workers=2, 16 concurrent mixed-size
/// requests, exactly one terminal response each, within a bounded wall.
#[test]
fn overload_16_concurrent_requests_on_2_workers_all_get_terminal_answers() {
    let svc = Arc::new(Service::new(ServeConfig {
        workers: 2,
        queue: 6, // 2 + 6 in flight; the rest must shed
        max_wall: Duration::from_millis(300),
        insurance_wall: Duration::from_millis(10),
        ..ServeConfig::default()
    }));
    let (tx, rx) = mpsc::channel::<(usize, Vec<String>)>();
    // all 16 requests hit admission at once — 2 + 6 capacity must shed
    let gate = Arc::new(Barrier::new(16));
    std::thread::scope(|scope| {
        for i in 0..16 {
            let svc = Arc::clone(&svc);
            let tx = tx.clone();
            let gate = Arc::clone(&gate);
            scope.spawn(move || {
                // mixed sizes and mixed configs: some tiny deadlines,
                // some budgets, several algorithms
                let modules = 24 + (i % 4) * 40;
                // a seed per request: a repeat of a request would answer
                // from the netlist's IG-Match memo instead of loading
                // the pool
                let extra = match i % 4 {
                    0 => format!(r#","restarts":2,"seed":{i}"#),
                    1 => format!(r#","deadline_ms":40,"restarts":4,"seed":{i}"#),
                    2 => format!(
                        r#","algo":"{}","budget_ms":80,"restarts":2,"seed":{i}"#,
                        ["eig1", "fm"][(i / 4) % 2]
                    ),
                    _ => format!(r#","deadline_ms":1,"restarts":3,"seed":{i}"#),
                };
                let line = request_line(&format!("r{i}"), modules, &extra);
                gate.wait();
                let frames = collect(&svc, &line);
                tx.send((i, frames)).unwrap();
            });
        }
        drop(tx);
        let mut seen = 0;
        // bounded wait: a hang here is exactly the bug this test exists
        // to catch
        while seen < 16 {
            let (i, frames) = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("every request must terminate; a missing response is a hang");
            let terminals: Vec<&String> = frames
                .iter()
                .filter(|f| {
                    let kind = frame_kind(f);
                    kind == "result" || kind == "shed" || kind == "error"
                })
                .collect();
            assert_eq!(
                terminals.len(),
                1,
                "request r{i} must get exactly one terminal frame, got {frames:?}"
            );
            let doc = json::parse(terminals[0]).unwrap();
            assert_eq!(
                doc.get("id").and_then(Value::as_str),
                Some(format!("r{i}").as_str()),
                "terminal frame must echo the request id"
            );
            // a partition-bearing answer must be a real bipartition
            if frame_kind(terminals[0]) == "result" {
                let p = doc.get("partition").and_then(Value::as_str).unwrap();
                assert!(p.contains('0') && p.contains('1'), "r{i}: {p}");
            }
            seen += 1;
        }
    });
    let m = svc.metrics();
    let results = m.results.load(std::sync::atomic::Ordering::Relaxed);
    let degraded = m.degraded.load(std::sync::atomic::Ordering::Relaxed);
    let shed = m.shed.load(std::sync::atomic::Ordering::Relaxed);
    let errors = m.errors.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        results + degraded + shed + errors,
        16,
        "{}",
        svc.metrics_frame()
    );
    assert!(shed >= 1, "16 requests into capacity 8 must shed some");
    assert!(
        results + degraded >= 8,
        "everything admitted must be answered: {}",
        svc.metrics_frame()
    );
    assert_eq!(
        errors,
        0,
        "no request should error: {}",
        svc.metrics_frame()
    );
}

/// Deadline-exceeded requests return best-so-far with `degraded: true`.
#[test]
fn deadline_mid_portfolio_returns_degraded_best_so_far() {
    let svc = Service::new(ServeConfig {
        workers: 1,
        insurance_wall: Duration::from_millis(15),
        ..ServeConfig::default()
    });
    // a deadline generous enough for the insurance tier but (on a large
    // instance with many restarts) tight for the full portfolio
    let line = request_line("tight", 160, r#","deadline_ms":60,"restarts":16"#);
    let frames = collect(&svc, &line);
    assert_eq!(frames.len(), 1, "{frames:?}");
    let doc = json::parse(&frames[0]).unwrap();
    assert_eq!(doc.get("frame").and_then(Value::as_str), Some("result"));
    let p = doc.get("partition").and_then(Value::as_str).unwrap();
    assert_eq!(p.len(), 160);
    // the request either finished inside the deadline (fast machine —
    // clean result) or was degraded with an explicit reason; both are
    // correct, a hang or error is not
    if doc.get("degraded").and_then(Value::as_bool) == Some(true) {
        let reason = doc.get("reason").and_then(Value::as_str).unwrap();
        assert!(
            reason == "deadline-best-so-far" || reason == "expired-in-queue",
            "{reason}"
        );
    }
}

/// A deadline of zero still gets a partition (insurance tier), flagged
/// degraded.
#[test]
fn zero_deadline_still_answers_with_a_partition() {
    let svc = Service::new(ServeConfig::default());
    let frames = collect(&svc, &request_line("zero", 48, r#","deadline_ms":0"#));
    assert_eq!(frames.len(), 1);
    let doc = json::parse(&frames[0]).unwrap();
    assert_eq!(doc.get("frame").and_then(Value::as_str), Some("result"));
    assert_eq!(doc.get("degraded").and_then(Value::as_bool), Some(true));
    assert_eq!(
        doc.get("reason").and_then(Value::as_str),
        Some("expired-in-queue")
    );
    assert_eq!(
        doc.get("partition").and_then(Value::as_str).map(str::len),
        Some(48)
    );
}

/// An insurance slice too short for even one FM pass still leaves a
/// best-so-far (FM's seeded start), so a request whose budget runs out
/// before any main-tier attempt finishes degrades instead of erroring.
#[test]
fn exhausted_insurance_slice_still_backs_a_degraded_result() {
    let svc = Service::new(ServeConfig {
        workers: 1,
        insurance_wall: Duration::ZERO,
        ..ServeConfig::default()
    });
    let line = request_line("slice", 2000, r#","budget_ms":1,"restarts":4"#);
    let frames = collect(&svc, &line);
    assert_eq!(frames.len(), 1, "{frames:?}");
    let doc = json::parse(&frames[0]).unwrap();
    assert_eq!(
        doc.get("frame").and_then(Value::as_str),
        Some("result"),
        "{frames:?}"
    );
    assert_eq!(doc.get("degraded").and_then(Value::as_bool), Some(true));
    assert_eq!(doc.get("tier").and_then(Value::as_str), Some("insurance"));
    let p = doc.get("partition").and_then(Value::as_str).unwrap();
    assert_eq!(p.len(), 2000);
    assert!(p.contains('0') && p.contains('1'), "{p}");
}

/// The bottom of the degradation ladder: both nets span every module, so
/// IG-Match finds no split with two non-empty sides at any rank and the
/// request is answered through the FM fallback — on four modules too,
/// where FM must not empty a side to cut nothing.
#[test]
fn spectrally_degenerate_netlist_falls_back_to_fm() {
    for modules in [20, 4] {
        let svc = Service::new(ServeConfig::default());
        let every: Vec<String> = (1..=modules).map(|m| m.to_string()).collect();
        let net = every.join(" ");
        let hgr = json::escape(&format!("2 {modules}\n{net}\n{net}\n"));
        let line = format!(r#"{{"id":"degenerate","hgr":{hgr},"restarts":2}}"#);
        let frames = collect(&svc, &line);
        assert_eq!(frames.len(), 1, "{frames:?}");
        let doc = json::parse(&frames[0]).unwrap();
        assert_eq!(
            doc.get("frame").and_then(Value::as_str),
            Some("result"),
            "{frames:?}"
        );
        assert_eq!(doc.get("degraded").and_then(Value::as_bool), Some(true));
        assert_eq!(
            doc.get("reason").and_then(Value::as_str),
            Some("fm-fallback")
        );
        // no `tier` assert: the insurance answer wins ratio ties
        let p = doc.get("partition").and_then(Value::as_str).unwrap();
        assert_eq!(p.len(), modules);
        assert!(p.contains('0') && p.contains('1'), "{p}");
        // a degenerate split is no eigensolver failure: nothing reseeds
        assert_eq!(doc.get("retries").and_then(Value::as_u64), Some(0));
        assert_eq!(counter(&metrics_doc(&svc), "fm_fallbacks"), 1);
    }
}

/// Six modules on one net: IG-Match needs two nets, but the netlist is
/// not too small to split, so the main tier climbs on to its FM rung and
/// answers, rather than leaving the request to the insurance answer.
#[test]
fn one_net_netlist_is_answered_by_the_main_tier() {
    let svc = Service::new(ServeConfig::default());
    let hgr = json::escape("1 6\n1 2 3 4 5 6\n");
    let frames = collect(
        &svc,
        &format!(r#"{{"id":"one-net","hgr":{hgr},"restarts":2}}"#),
    );
    assert_eq!(frames.len(), 1, "{frames:?}");
    let doc = json::parse(&frames[0]).unwrap();
    assert_eq!(doc.get("frame").and_then(Value::as_str), Some("result"));
    let p = doc.get("partition").and_then(Value::as_str).unwrap();
    assert!(p.contains('0') && p.contains('1'), "{p}");
    let trace = json::parse(&svc.trace_frame()).unwrap();
    let Some(Value::Array(spans)) = trace.get("spans") else {
        panic!("trace frame must carry a span array: {trace:?}");
    };
    let answered = spans.iter().filter(|s| {
        s.get("kind").and_then(Value::as_str) == Some("attempt")
            && s.get("ok").and_then(Value::as_bool) == Some(true)
    });
    assert_eq!(answered.count(), 2, "{spans:?}");
}

/// `/metrics` counts every `fm-fallback` result frame in `fm_fallbacks`,
/// including one whose answer is the insurance partition because no
/// compute wall was left for the main tier.
#[test]
fn fm_fallback_counter_matches_its_wall_histogram() {
    let svc = Service::new(ServeConfig::default());
    let frames = collect(&svc, &request_line("nobudget", 48, r#","budget_ms":0"#));
    assert_eq!(frames.len(), 1, "{frames:?}");
    let doc = json::parse(&frames[0]).unwrap();
    assert_eq!(
        doc.get("reason").and_then(Value::as_str),
        Some("fm-fallback")
    );
    let metrics = metrics_doc(&svc);
    let tier = metrics.get("wall_by_tier").unwrap().get("fm-fallback");
    let (count, _) = hist_cells(tier.unwrap());
    assert_eq!(count, 1, "{metrics:?}");
    assert_eq!(counter(&metrics, "fm_fallbacks"), count, "{metrics:?}");
}

/// A `budget_ms` spent before the main tier starts answers `fm-fallback`
/// with the insurance partition, also under a distant deadline: the
/// budget, not the deadline, left no wall.
#[test]
fn a_spent_budget_under_a_distant_deadline_is_not_the_deadline_firing() {
    let svc = Service::new(ServeConfig::default());
    let hgr = json::escape("3 4\n1 2\n2 3\n3 4\n");
    for deadline in ["", r#","deadline_ms":4000"#] {
        let line = format!(r#"{{"id":"spent","hgr":{hgr},"budget_ms":0{deadline}}}"#);
        let frames = collect(&svc, &line);
        assert_eq!(frames.len(), 1, "{frames:?}");
        let doc = json::parse(&frames[0]).unwrap();
        assert_eq!(doc.get("frame").and_then(Value::as_str), Some("result"));
        assert_eq!(
            doc.get("reason").and_then(Value::as_str),
            Some("fm-fallback"),
            "{frames:?}"
        );
    }
}

/// Target-ratio early stop produces a clean (non-degraded) result, also
/// under a distant deadline: the stop cancels the main tier's meter,
/// which is not the deadline firing.
#[test]
fn target_ratio_early_stop_is_clean() {
    let svc = Service::new(ServeConfig::default());
    let hgr = json::escape("3 4\n1 2\n2 3\n3 4\n");
    for line in [
        request_line("early", 48, r#","restarts":8,"target_ratio":1.0"#),
        format!(
            r#"{{"id":"early","hgr":{hgr},"restarts":8,"target_ratio":1.0,"deadline_ms":4000}}"#
        ),
    ] {
        let frames = collect(&svc, &line);
        assert_eq!(frames.len(), 1);
        let doc = json::parse(&frames[0]).unwrap();
        assert_eq!(doc.get("frame").and_then(Value::as_str), Some("result"));
        let degraded = doc.get("degraded").and_then(Value::as_bool);
        assert_eq!(degraded, Some(false), "{frames:?}");
    }
}

/// Repeat submissions of the same netlist share one parse and operator
/// cache.
#[test]
fn netlist_cache_is_shared_across_requests() {
    let svc = Service::new(ServeConfig::default());
    let line = request_line("cache-a", 64, r#","algo":"eig1","restarts":2"#);
    collect(&svc, &line);
    let line2 = request_line("cache-b", 64, r#","algo":"eig1","restarts":2"#);
    let frames = collect(&svc, &line2);
    assert!(frames[0].contains("\"cache_hit\":true"), "{frames:?}");
    let stats = svc.cache_stats();
    assert_eq!(stats.misses, 1);
    assert!(stats.hits >= 1);
}

/// A repeated request answers from the netlist's IG-Match memo: the
/// same frame apart from its timings and `cache_hit`, and one memo hit
/// per attempt on the `/metrics` frame.
#[test]
fn a_repeated_request_answers_from_the_ig_match_memo() {
    let svc = Service::new(ServeConfig::default());
    let line = request_line("memo", 64, r#","restarts":2"#);
    let (first, before) = timeless_answer(&svc, &line);
    let (second, after) = timeless_answer(&svc, &line);
    assert_eq!(first, second);
    assert_eq!(after - before, 2, "one hit per attempt");
}

/// Both V-cycle tiers run on the netlist's operator cache: on a netlist
/// under `coarsen_target` they partition the input itself, so a repeat
/// answers from the IG-Match memo with the same frame apart from its
/// timings and `cache_hit`.
#[test]
fn a_repeated_vcycle_request_answers_from_the_ig_match_memo() {
    let svc = Service::new(ServeConfig::default());
    for (tier, extra) in [
        ("multilevel", r#","multilevel":true"#),
        ("multilevel-kway", r#","multilevel":true,"k":4"#),
    ] {
        let line = request_line(tier, 64, extra);
        let (first, before) = timeless_answer(&svc, &line);
        let served = Value::String(tier.to_string());
        assert!(first.contains(&("tier".to_string(), served)), "{first:?}");
        let (second, after) = timeless_answer(&svc, &line);
        assert_eq!(first, second);
        assert!(after > before, "{tier}: the repeat answered from the memo");
    }
}

/// The flat k-way tier runs on the request's seed: a repeat with the
/// same seed answers its top node from the IG-Match memo, the same
/// request with another seed solves afresh.
#[test]
fn a_flat_kway_request_is_memoized_under_its_seed() {
    let svc = Service::new(ServeConfig::default());
    let with_seed = |seed: u64| {
        let extra = format!(r#","k":4,"multilevel":false,"seed":{seed}"#);
        request_line("kway-seed", 64, &extra)
    };
    let (first, before) = timeless_answer(&svc, &with_seed(5));
    let served = Value::String("kway".to_string());
    assert!(first.contains(&("tier".to_string(), served)), "{first:?}");
    let (second, after) = timeless_answer(&svc, &with_seed(5));
    assert_eq!(first, second);
    assert!(after > before, "the same seed answered from the memo");
    let (_, reseeded) = timeless_answer(&svc, &with_seed(6));
    assert_eq!(reseeded, after, "another seed solved afresh");
}

/// Runs one request that answers with a single frame; returns the
/// frame's keys less `queue_ms`, `compute_ms` and `cache_hit`, and the
/// `/metrics` frame's `ig_match_hits` after it.
fn timeless_answer(svc: &Service, line: &str) -> (Vec<(String, Value)>, u64) {
    let frames = collect(svc, line);
    assert_eq!(frames.len(), 1, "{frames:?}");
    let hits = counter(&metrics_doc(svc), "ig_match_hits");
    match json::parse(&frames[0]).unwrap() {
        Value::Object(pairs) => {
            let timing = ["queue_ms", "compute_ms", "cache_hit"];
            let kept = pairs
                .into_iter()
                .filter(|(k, _)| !timing.contains(&k.as_str()));
            (kept.collect(), hits)
        }
        other => panic!("a frame is an object: {other:?}"),
    }
}

/// Parses the current `/metrics` frame of a service.
fn metrics_doc(svc: &Service) -> Value {
    json::parse(&svc.metrics_frame()).expect("/metrics must always render valid json")
}

/// Integer field of a metrics document.
fn counter(doc: &Value, key: &str) -> u64 {
    doc.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("metrics frame must carry integer '{key}'"))
}

/// `(count, sum-of-bucket-cells)` for one histogram object.
fn hist_cells(hist: &Value) -> (u64, u64) {
    let count = hist.get("count").and_then(Value::as_u64).unwrap();
    let cells = match hist.get("buckets") {
        Some(Value::Array(items)) => items.iter().filter_map(Value::as_u64).sum(),
        _ => panic!("histogram must carry a bucket array"),
    };
    (count, cells)
}

/// Blocks until the service reports at least one running request — used
/// to park a "plug" request on the only worker before queueing rivals.
fn wait_until_running(svc: &Service) {
    let started = std::time::Instant::now();
    while counter(&metrics_doc(svc), "running") == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "plug request never started running"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The weighted-fair acceptance criterion: under a saturated single
/// worker, high-priority requests are granted ahead of a much larger
/// low-priority cohort — their p99 latency is strictly lower — while
/// every low-priority request still completes (no starvation).
#[test]
fn high_priority_p99_beats_low_under_saturation_and_low_still_drains() {
    let svc = Arc::new(Service::new(ServeConfig {
        workers: 1,
        queue: 40,
        max_wall: Duration::from_secs(2),
        insurance_wall: Duration::from_millis(5),
        ..ServeConfig::default()
    }));
    const HIGH: usize = 3;
    const LOW: usize = 24;
    std::thread::scope(|scope| {
        // a plug occupies the lone worker so all contenders pile up in
        // the queue and admission order is decided by the scheduler,
        // not by arrival timing
        {
            let svc = Arc::clone(&svc);
            scope.spawn(move || {
                let line = request_line("plug", 160, r#","restarts":6,"budget_ms":60"#);
                collect(&svc, &line);
            });
        }
        wait_until_running(&svc);
        let gate = Arc::new(Barrier::new(HIGH + LOW));
        for i in 0..HIGH + LOW {
            let svc = Arc::clone(&svc);
            let gate = Arc::clone(&gate);
            scope.spawn(move || {
                let class = if i < HIGH { "high" } else { "low" };
                // a seed per request, so the memo of the plug's solves
                // answers none of them and each keeps the worker busy
                let line = request_line(
                    &format!("{class}{i}"),
                    160,
                    &format!(r#","restarts":6,"budget_ms":30,"priority":"{class}","seed":{i}"#),
                );
                gate.wait();
                let frames = collect(&svc, &line);
                assert_eq!(frames.len(), 1, "{class}{i}: {frames:?}");
                assert_eq!(frame_kind(&frames[0]), "result", "{class}{i}: {frames:?}");
            });
        }
    });
    let doc = metrics_doc(&svc);
    assert_eq!(counter(&doc, "shed"), 0, "queue 40 must hold the burst");
    let by_priority = doc.get("latency_by_priority").unwrap();
    let p99 = |class: &str| {
        by_priority
            .get(class)
            .and_then(|h| h.get("p99_us"))
            .and_then(Value::as_u64)
            .unwrap()
    };
    let (low_count, _) = hist_cells(by_priority.get("low").unwrap());
    assert_eq!(low_count, LOW as u64, "every low request must complete");
    assert!(
        p99("high") < p99("low"),
        "high p99 {}us must be strictly below low p99 {}us\n{doc:?}",
        p99("high"),
        p99("low")
    );
}

/// Satellite regression: requests whose deadline expires while they sit
/// in the queue must each release their permit exactly once — the load
/// gauge returns to zero and the service keeps accepting work.
#[test]
fn queue_expiry_racing_dispatch_releases_every_permit_exactly_once() {
    let svc = Arc::new(Service::new(ServeConfig {
        workers: 1,
        queue: 12,
        max_wall: Duration::from_millis(500),
        insurance_wall: Duration::from_millis(10),
        ..ServeConfig::default()
    }));
    std::thread::scope(|scope| {
        {
            let svc = Arc::clone(&svc);
            scope.spawn(move || {
                let line = request_line("plug", 160, r#","restarts":6,"budget_ms":80"#);
                collect(&svc, &line);
            });
        }
        wait_until_running(&svc);
        // deadlines of 0..8ms all expire behind the ~80ms plug; some
        // race their expiry against the moment the worker frees up
        for i in 0..8u64 {
            let svc = Arc::clone(&svc);
            scope.spawn(move || {
                let line = request_line(
                    &format!("e{i}"),
                    48,
                    &format!(r#","deadline_ms":{i},"restarts":2"#),
                );
                let frames = collect(&svc, &line);
                let terminals = frames
                    .iter()
                    .filter(|f| frame_kind(f) != "progress")
                    .count();
                assert_eq!(terminals, 1, "e{i} must terminate exactly once: {frames:?}");
            });
        }
    });
    // every handle_line returned, so every permit must be home
    let doc = metrics_doc(&svc);
    assert_eq!(counter(&doc, "running"), 0, "{doc:?}");
    assert_eq!(counter(&doc, "queued"), 0, "{doc:?}");
    assert_eq!(
        counter(&doc, "admitted"),
        counter(&doc, "requests"),
        "queue 12 holds all 9 requests, nothing sheds: {doc:?}"
    );
    let (wait_count, _) = hist_cells(doc.get("queue_wait").unwrap());
    assert_eq!(wait_count, counter(&doc, "admitted"), "{doc:?}");
    // the pool is intact: a fresh request is admitted and answered
    let frames = collect(&svc, &request_line("after", 48, r#","restarts":2"#));
    assert_eq!(frames.len(), 1, "{frames:?}");
    assert_eq!(frame_kind(&frames[0]), "result", "{frames:?}");
}

/// Satellite: `/metrics` under concurrent load — snapshots taken during
/// a 16-request burst always parse, counters never move backwards, and
/// the final snapshot satisfies the quiescent consistency identities.
#[test]
fn metrics_snapshots_stay_consistent_under_a_concurrent_burst() {
    let svc = Arc::new(Service::new(ServeConfig {
        workers: 2,
        queue: 14, // 16 in flight: the whole burst fits, nothing sheds
        max_wall: Duration::from_millis(300),
        insurance_wall: Duration::from_millis(10),
        ..ServeConfig::default()
    }));
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|scope| {
        // two samplers hammer /metrics for the whole burst
        for _ in 0..2 {
            let svc = Arc::clone(&svc);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let keys = [
                    "requests", "admitted", "results", "degraded", "shed", "errors",
                ];
                let mut last = [0u64; 6];
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    let doc = metrics_doc(&svc);
                    let now: Vec<u64> = keys.iter().map(|k| counter(&doc, k)).collect();
                    for (j, key) in keys.iter().enumerate() {
                        assert!(now[j] >= last[j], "'{key}' moved backwards: {doc:?}");
                        last[j] = now[j];
                    }
                    let settled = now[2] + now[3] + now[4] + now[5];
                    assert!(settled <= now[0], "more answers than requests: {doc:?}");
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
        let gate = Arc::new(Barrier::new(16));
        let workers: Vec<_> = (0..16)
            .map(|i| {
                let svc = Arc::clone(&svc);
                let gate = Arc::clone(&gate);
                scope.spawn(move || {
                    let class = ["high", "normal", "low"][i % 3];
                    let line = request_line(
                        &format!("b{i}"),
                        32 + (i % 4) * 32,
                        &format!(r#","restarts":2,"budget_ms":40,"priority":"{class}""#),
                    );
                    gate.wait();
                    collect(&svc, &line);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    let doc = metrics_doc(&svc);
    assert_eq!(counter(&doc, "requests"), 16, "{doc:?}");
    assert_eq!(counter(&doc, "shed"), 0, "{doc:?}");
    assert_eq!(counter(&doc, "errors"), 0, "{doc:?}");
    assert_eq!(
        counter(&doc, "results") + counter(&doc, "degraded"),
        16,
        "{doc:?}"
    );
    // quiescent identities: every request is measured exactly once, and
    // every histogram's bucket cells sum to its own count
    let (lat_count, lat_cells) = hist_cells(doc.get("latency").unwrap());
    assert_eq!(lat_count, 16, "{doc:?}");
    assert_eq!(lat_cells, lat_count, "{doc:?}");
    let (wait_count, wait_cells) = hist_cells(doc.get("queue_wait").unwrap());
    assert_eq!(wait_count, counter(&doc, "admitted"), "{doc:?}");
    assert_eq!(wait_cells, wait_count, "{doc:?}");
    for group in ["latency_by_priority", "queue_wait_by_priority"] {
        let mut total = 0;
        for class in ["high", "normal", "low"] {
            let (count, cells) = hist_cells(doc.get(group).unwrap().get(class).unwrap());
            assert_eq!(cells, count, "{group}.{class}: {doc:?}");
            total += count;
        }
        assert_eq!(
            total, 16,
            "{group} classes must partition the burst: {doc:?}"
        );
    }
}

#[cfg(feature = "fault-inject")]
mod faults {
    use super::*;

    /// One poisoned (panicking) attempt must not take down the request:
    /// the other attempts win and the result is clean.
    #[test]
    fn panicking_attempt_is_contained_and_the_request_succeeds() {
        let svc = Service::new(ServeConfig::default());
        let frames = collect(
            &svc,
            &request_line("poison", 48, r#","restarts":3,"fault":{"kind":"panic"}"#),
        );
        assert_eq!(frames.len(), 1, "{frames:?}");
        let doc = json::parse(&frames[0]).unwrap();
        assert_eq!(doc.get("frame").and_then(Value::as_str), Some("result"));
        assert_eq!(doc.get("degraded").and_then(Value::as_bool), Some(false));
        assert!(
            svc.metrics()
                .panics_contained
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 1
        );
    }

    /// A stuck eigensolve (cooperatively divergent) is ended by the
    /// deadline and degraded to the best-so-far answer.
    #[test]
    fn stuck_stage_is_rescued_by_the_deadline() {
        let svc = Service::new(ServeConfig {
            workers: 1,
            max_wall: Duration::from_millis(200),
            ..ServeConfig::default()
        });
        let frames = collect(
            &svc,
            &request_line(
                "stuck",
                48,
                r#","deadline_ms":120,"restarts":2,"fault":{"kind":"stuck"}"#,
            ),
        );
        assert_eq!(frames.len(), 1, "{frames:?}");
        let doc = json::parse(&frames[0]).unwrap();
        assert_eq!(
            doc.get("frame").and_then(Value::as_str),
            Some("result"),
            "{frames:?}"
        );
        assert_eq!(doc.get("degraded").and_then(Value::as_bool), Some(true));
        assert_eq!(
            doc.get("partition").and_then(Value::as_str).map(str::len),
            Some(48)
        );
    }

    /// Slow workers are cancelled by the deadline, not waited out.
    #[test]
    fn slow_worker_is_bounded_by_the_deadline() {
        let svc = Service::new(ServeConfig {
            workers: 1,
            max_wall: Duration::from_millis(300),
            ..ServeConfig::default()
        });
        let started = std::time::Instant::now();
        let frames = collect(
            &svc,
            &request_line(
                "slow",
                48,
                r#","deadline_ms":100,"restarts":2,"fault":{"kind":"slow","ms":60000}"#,
            ),
        );
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "a 60s injected delay must be cut short by the 100ms deadline"
        );
        assert_eq!(frames.len(), 1, "{frames:?}");
        assert!(frames[0].contains("\"frame\":\"result\""), "{frames:?}");
        assert!(frames[0].contains("\"degraded\":true"), "{frames:?}");
    }
}
