//! The traced per-layer probe: the benchmark's own calls into each layer's
//! public functions, on the workload's own inputs, each inside a span.
//! Nothing inside the program is instrumented.

use crate::trace::{per_name, Span, Tracer};
use crate::workloads::{Window, CLIENTS};
use phishinghook_evm::disasm_iter;
use phishinghook_evm::explorer::{out_of_budget, Explorer, ExplorerConfig};
use phishinghook_evm::keccak::{from_hex, Digest};
use phishinghook_features::trace::TraceExtractor;
use phishinghook_ml::Matrix;
use phishinghook_models::Scanner;
use phishinghook_serve::http::{read_request, write_response, RequestOutcome, ResponseHead};
use phishinghook_serve::proto::{parse_request_v2, render_verdict_v2, WirePayload};
use phishinghook_serve::{
    Admission, CachedVerdict, Protocol, Scheduler, SchedulerOptions, VerdictCache,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Requests the probe walks through (a prefix of the workload's stream).
pub const PROBE_REQUESTS: usize = 4096;
/// Rows per scored batch (the serving default).
const BATCH: usize = 64;
/// Snapshot restores timed.
const RESTORES: usize = 5;

fn mean_ns(per: &BTreeMap<&'static str, (u64, u64)>, name: &str) -> f64 {
    let (ns, units) = per.get(name).copied().unwrap_or_default();
    ns as f64 / units.max(1) as f64
}

/// Walks `lines` (JSONL v2 request lines, in workload order) through every
/// layer, returning the per-layer metrics and the spans.
pub fn probe(
    lines: &[String],
    scanner: &Scanner,
    snapshot: &[u8],
    epoch: Instant,
) -> (BTreeMap<&'static str, f64>, Vec<Span>) {
    let mut t = Tracer::new(epoch, 30);
    let mut worker = scanner.worker();
    let model = scanner.model();
    let hist = model
        .extractor()
        .expect("tree detectors featurize through an opcode histogram");
    let trace_x = TraceExtractor::new();
    let explorer = Explorer::new(ExplorerConfig::default());
    let cache = VerdictCache::new(SchedulerOptions::default().cache_bytes);
    let names = scanner.model_names();
    let codes: Vec<Vec<u8>> = lines
        .iter()
        .map(
            |l| match parse_request_v2(l, "0").expect("valid request").payload {
                WirePayload::Bytecode(hex) => from_hex(&hex).expect("valid hex"),
                WirePayload::Address(_) => unreachable!("workloads send bytecode"),
            },
        )
        .collect();
    // Verdicts to cache and render, scored outside any span.
    let mut scored: Vec<(f64, Vec<f64>)> = Vec::with_capacity(codes.len());
    for chunk in codes.chunks(BATCH) {
        let refs: Vec<&[u8]> = chunk.iter().map(Vec::as_slice).collect();
        let (combined, members) = worker.score_with_members(&refs);
        for (i, p) in combined.into_iter().enumerate() {
            scored.push((p, members.iter().map(|(_, m)| m[i]).collect()));
        }
    }

    let mut m_hist = Matrix::zeros(1, hist.n_features());
    let mut m_trace = Matrix::zeros(1, trace_x.n_features());
    let (mut runs, mut selector_runs, mut wasted) = (0usize, 0usize, 0usize);
    let (mut rendered, mut written) = (String::new(), Vec::new());
    for (k, line) in lines.iter().enumerate() {
        let req = k as u64;
        let root = t.open();
        let p = root.id;
        let decoded = t.leaf("proto.decode", p, req, 1, || parse_request_v2(line, "0"));
        let WirePayload::Bytecode(hex) = decoded.expect("valid request").payload else {
            unreachable!("workloads send bytecode")
        };
        let code = t
            .leaf("evm.hex_decode", p, req, 1, || from_hex(&hex))
            .expect("valid hex");
        let digest = t.leaf("evm.keccak", p, req, 1, || Digest::of(&code));
        let hit = t.leaf("cache.lookup", p, req, 1, || cache.lookup(&digest));
        t.leaf("evm.disasm", p, req, 1, || {
            black_box(disasm_iter(&code).count())
        });
        t.leaf("features.hist", p, req, 1, || {
            hist.transform_into(&[code.as_slice()], &mut m_hist)
        });
        let trace = t.leaf("evm.explore", p, req, 1, || explorer.explore(&code));
        runs += trace.runs.len();
        selector_runs += trace.selector_runs().count();
        wasted += trace
            .runs
            .iter()
            .filter(|r| out_of_budget(&r.status))
            .count();
        t.leaf("features.trace", p, req, 1, || {
            trace_x.transform_into(&[code.as_slice()], &mut m_trace)
        });
        let (proba, per_model) = &scored[k];
        if hit.is_none() {
            let value = CachedVerdict {
                proba: *proba,
                per_model: per_model.clone(),
            };
            t.leaf("cache.insert", p, req, 1, || cache.insert(digest, value));
        }
        t.leaf("proto.render", p, req, 1, || {
            rendered.clear();
            render_verdict_v2(
                &mut rendered,
                &k.to_string(),
                None,
                *proba,
                scanner.model_version(),
                &names,
                per_model,
            );
        });
        let mut http = Vec::new();
        crate::inputs::http_predict(&mut http, line.as_bytes());
        let parsed = t.leaf("http.parse", p, req, 1, || {
            read_request(&mut http.as_slice())
        });
        assert!(
            matches!(parsed, Ok(RequestOutcome::Request(_))),
            "the rendered request parses"
        );
        let head = ResponseHead {
            status: 200,
            content_type: "application/json",
            retry_after: None,
            keep_alive: true,
        };
        written.clear();
        t.leaf("http.write", p, req, 1, || {
            write_response(&mut written, head, rendered.as_bytes())
        })
        .expect("writing to a Vec");
        t.close(root, "request", 0, req, 1);
    }

    let mut m = Matrix::zeros(0, 0);
    for (b, chunk) in codes.chunks(BATCH).enumerate() {
        let refs: Vec<&[u8]> = chunk.iter().map(Vec::as_slice).collect();
        let (req, rows) = (b as u64, refs.len() as u64);
        let root = t.open();
        let p = root.id;
        t.leaf("models.score", p, req, rows, || {
            black_box(worker.score_with_members(&refs))
        });
        m.resize(refs.len(), model.n_features());
        t.leaf("models.featurize", p, req, rows, || {
            model.featurize_into(&refs, &mut m)
        });
        t.leaf("ml.infer", p, req, rows, || {
            black_box(model.predict_with_members(&m))
        });
        t.close(root, "batch", 0, req, rows);
    }
    for r in 0..RESTORES {
        t.leaf("models.restore", 0, r as u64, 1, || {
            Scanner::from_snapshot_bytes(snapshot).expect("the snapshot restores")
        });
    }

    let spans = t.into_spans();
    let per = per_name(&spans);
    let mut metrics = BTreeMap::new();
    for (metric, span) in [
        ("evm.disasm_ns", "evm.disasm"),
        ("evm.explore_ns", "evm.explore"),
        ("evm.hex_decode_ns", "evm.hex_decode"),
        ("evm.keccak_ns", "evm.keccak"),
        ("features.hist_ns", "features.hist"),
        ("features.trace_ns", "features.trace"),
        ("ml.infer_ns", "ml.infer"),
        ("models.score_ns", "models.score"),
        ("proto.decode_ns", "proto.decode"),
        ("proto.render_ns", "proto.render"),
        ("http.parse_ns", "http.parse"),
        ("http.write_ns", "http.write"),
        ("cache.lookup_ns", "cache.lookup"),
        ("cache.insert_ns", "cache.insert"),
    ] {
        metrics.insert(metric, mean_ns(&per, span));
    }
    metrics.insert("models.restore_ms", mean_ns(&per, "models.restore") / 1e6);
    metrics.insert(
        "evm.explore_selectors",
        selector_runs as f64 / lines.len().max(1) as f64,
    );
    metrics.insert("evm.out_of_budget_frac", wasted as f64 / runs.max(1) as f64);
    (metrics, spans)
}

/// How requests arrive at the in-process scheduler.
#[derive(Debug, Clone, Copy)]
pub enum Arrival {
    /// One stream keeping [`crate::workloads::BULK_WINDOW`] requests
    /// outstanding (bulk).
    Stream,
    /// [`CLIENTS`] closed-loop clients, each on its own thread.
    ClosedLoop,
    /// One paced open-loop sender at this rate (req/s).
    OpenLoop(u32),
}

/// Round trips (ms) of `lines` through an in-process [`Scheduler`] with
/// the serving defaults, `connect` → `submit` → `Responses::recv`, under
/// `arrival`; plus the scheduler's rows per batch and the spans.
pub fn scheduler_round_trips(
    lines: &[String],
    scanner: &Scanner,
    arrival: Arrival,
    epoch: Instant,
) -> (Vec<f64>, f64, Vec<Span>) {
    let scheduler = Scheduler::new(scanner, &SchedulerOptions::default());
    let t0 = Instant::now();
    let ns = || t0.elapsed().as_nanos() as u64;
    let (rt, spans) = match arrival {
        Arrival::ClosedLoop => std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let scheduler = &scheduler;
                    s.spawn(move || {
                        let mut t = Tracer::new(epoch, 40 + c as u16);
                        let (mut conn, rx) = scheduler.connect(Protocol::V2);
                        let mut rt = Vec::new();
                        for (k, line) in lines
                            .iter()
                            .enumerate()
                            .skip(c as usize)
                            .step_by(CLIENTS as usize)
                        {
                            let start = ns();
                            conn.submit(line, Admission::Block);
                            rx.recv().expect("one response per request");
                            let end = ns();
                            t.record("scheduler.round_trip", 0, k as u64, (start, end), 1);
                            rt.push((end - start) as f64 / 1e6);
                        }
                        conn.finish();
                        (rt, t.into_spans())
                    })
                })
                .collect();
            let mut all = (Vec::new(), Vec::new());
            for h in handles {
                let (rt, spans) = h.join().expect("closed-loop client thread");
                all.0.extend(rt);
                all.1.extend(spans);
            }
            all
        }),
        Arrival::Stream | Arrival::OpenLoop(_) => {
            let due: Vec<AtomicU64> = lines.iter().map(|_| AtomicU64::new(0)).collect();
            let window = Window::default();
            let (mut conn, rx) = scheduler.connect(Protocol::V2);
            std::thread::scope(|s| {
                let (due, window) = (&due, &window);
                let reader = s.spawn(move || {
                    let mut t = Tracer::new(epoch, 41);
                    let mut rt = Vec::with_capacity(lines.len());
                    for (k, due_k) in due.iter().enumerate() {
                        rx.recv().expect("one response per request");
                        window.answered(k + 1);
                        let (start, end) = (due_k.load(Ordering::Acquire), ns());
                        t.record("scheduler.round_trip", 0, k as u64, (start, end), 1);
                        rt.push(end.saturating_sub(start) as f64 / 1e6);
                    }
                    (rt, t.into_spans())
                });
                for (k, line) in lines.iter().enumerate() {
                    let (start, admission) = match arrival {
                        Arrival::OpenLoop(rate) => {
                            let at = (k as u128 * 1_000_000_000 / u128::from(rate)) as u64;
                            let now = ns();
                            if at > now {
                                std::thread::sleep(Duration::from_nanos(at - now));
                            }
                            (at, Admission::Shed)
                        }
                        _ => {
                            window.admit(k);
                            (ns(), Admission::Block)
                        }
                    };
                    due[k].store(start, Ordering::Release);
                    conn.submit(line, admission);
                }
                conn.finish();
                reader.join().expect("in-process reader thread")
            })
        }
    };
    let stats = scheduler.shutdown().scheduler;
    let rows = stats.scored as f64 / stats.batches.max(1) as f64;
    (rt, rows, spans)
}
