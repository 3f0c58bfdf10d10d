//! The four end-to-end workloads, driven from this one load-generating
//! process (at most 2 threads and 2 connections) against a separate
//! serving process.

use crate::check::{classify, expect_all, stats_counter, Expect, Outcome, Tally};
use crate::inputs::{http_predict, jsonl_request, ChainStream, Variants};
use crate::server::{connect, peak_rss_mb, read_http_response, setup_times, Front, Server};
use crate::stats::{median, window_rates, windowed, windowed_rate, Sample};
use crate::trace::{Span, Tracer};
use phishinghook_evm::keccak::to_hex;
use phishinghook_models::Scanner;
use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Bulk request lines written per `write` call.
const CHUNK: usize = 64;
/// Bulk requests a client keeps outstanding: 8 full batches, so batches
/// always fill, while latency stays a function of throughput rather than
/// of how far pipe and queue buffering let the writer run ahead.
pub const BULK_WINDOW: usize = 512;
/// Extra fresh servers started only to time set-up, half before the
/// measured server and half after it, so that one burst of host noise moves
/// few of the samples (the measured server adds one more).
pub const SETUP_PROBES: usize = 19;
/// Share of a closed-loop window spent warming up before timing.
const WARMUP_SHARE: f64 = 0.15;
/// Closed-loop HTTP clients, one per thread and connection.
pub const CLIENTS: u64 = 2;
/// `wallet_http` reads the server's peak memory after this many requests:
/// every request caches a distinct verdict, so memory read at the end of a
/// timed window would track throughput instead of footprint.
const WALLET_RSS_AT: u64 = 8_000;
/// `chain_watch` offered rates (req/s), fixed and never adapted to
/// capacity: three below today's knee, so the highest passing rung does not
/// flip with run-to-run noise, and a flood about three times what the stack
/// delivers on this stream (72k to 116k verdicts/s on a 2-vCPU VM), so the
/// top rung measures the server rather than the generator's pacing.
pub const RATES: [u32; 4] = [1_000, 4_000, 8_000, 256_000];
/// Share of the run each rung gets: the headline latency rung and the
/// flood, whose delivered rate is `contracts_per_s`, get the most.
const RUNG_SHARE: [f64; 4] = [0.1, 0.1, 0.3, 0.5];
/// The rung whose latency is the headline `p50_ms`/`p99_ms`.
pub const HEADLINE_RATE: u32 = 8_000;
/// The open loop's p99 limit.
pub const P99_LIMIT_MS: f64 = 5.0;
/// Share of each rung spent warming up before timing.
const RUNG_WARMUP_SHARE: f64 = 0.2;

/// How many responses a stream has read, so that its writer keeps at most
/// [`BULK_WINDOW`] requests outstanding.
#[derive(Debug, Default)]
pub struct Window {
    answered: Mutex<usize>,
    changed: Condvar,
}

impl Window {
    /// Blocks until request `k` (0-based) fits in the window.
    pub fn admit(&self, k: usize) {
        let limit = (k + 1).saturating_sub(BULK_WINDOW);
        let mut done = self.answered.lock().expect("window lock");
        while *done < limit {
            done = self.changed.wait(done).expect("window lock");
        }
    }

    /// Records that `count` responses have been read (`usize::MAX` when the
    /// stream ended, releasing the writer for good).
    pub fn answered(&self, count: usize) {
        *self.answered.lock().expect("window lock") = count;
        self.changed.notify_one();
    }
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Program counters read from the serving process after a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Requests scored by workers.
    pub scored: u64,
    /// Batches scored.
    pub batches: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
}

impl Counters {
    fn from_stats(line: &str) -> Self {
        let get = |k| stats_counter(line, k).unwrap_or(0);
        Counters {
            scored: get("scored"),
            batches: get("batches"),
            hits: get("hits"),
            misses: get("misses"),
        }
    }

    fn from_prometheus(text: &str) -> Self {
        let get = |name: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
                .unwrap_or(0)
        };
        Counters {
            scored: get("phishinghook_requests_scored_total"),
            batches: get("phishinghook_batches_total"),
            hits: get("phishinghook_cache_hits_total"),
            misses: get("phishinghook_cache_misses_total"),
        }
    }

    fn absorb(&mut self, other: Counters) {
        self.scored += other.scored;
        self.batches += other.batches;
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Rows per scored batch.
    pub fn batch_rows(&self) -> f64 {
        self.scored as f64 / self.batches.max(1) as f64
    }

    /// Cache hits per lookup.
    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// One workload's end-to-end result.
#[derive(Debug, Default)]
pub struct Run {
    /// Set-up samples (s).
    pub setup_s: Vec<f64>,
    /// Peak RSS of the serving process (MiB), per server measured.
    pub rss_mb: Vec<f64>,
    /// Correct verdicts per second.
    pub contracts_per_s: f64,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// p50 under the arrival pattern the in-process scheduler replays
    /// (`chain_watch`: the lowest rung).
    pub base_p50_ms: f64,
    /// Requests and outcomes.
    pub tally: Tally,
    /// Program counters.
    pub counters: Counters,
    /// Human-readable report lines.
    pub report: Vec<String>,
    /// Spans (traced runs only).
    pub spans: Vec<Span>,
}

// --- bulk_scan / trace_scan --------------------------------------------------

/// The bulk stream: JSONL v2 lines with ids `0..n` and their expectations.
pub struct BulkInput {
    lines: Vec<u8>,
    ends: Vec<usize>,
    expect: Vec<Expect>,
}

impl BulkInput {
    /// Renders `codes` as request lines and scores each directly.
    pub fn new(codes: &[Vec<u8>], oracle: &mut Scanner) -> Self {
        let mut lines = Vec::new();
        let mut ends = Vec::with_capacity(codes.len());
        for (i, code) in codes.iter().enumerate() {
            jsonl_request(&mut lines, i as u64, &to_hex(code));
            ends.push(lines.len());
        }
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        BulkInput {
            lines,
            ends,
            expect: expect_all(oracle, &refs),
        }
    }

    fn chunk(&self, c: usize) -> &[u8] {
        let start = if c == 0 { 0 } else { self.ends[c * CHUNK - 1] };
        let end = self.ends[((c + 1) * CHUNK).min(self.ends.len()) - 1];
        &self.lines[start..end]
    }
}

/// What a bulk pass's reader returns: outcomes, per-request latency (ms),
/// the last answer's time (ns), the `stats` line and the spans.
type StreamRead = (Tally, Vec<f64>, u64, String, Vec<Span>);

struct Pass {
    setup_s: f64,
    rss_mb: f64,
    rate: f64,
    latency: Sample,
    tally: Tally,
    counters: Counters,
    spans: Vec<Span>,
}

fn bulk_pass(snapshot: &Path, input: &BulkInput, epoch: Option<Instant>) -> io::Result<Pass> {
    let mut server = Server::start(snapshot, Front::Stdin)?;
    let setup_s = server.probe()?;
    let mut stdin = server.stdin.take().expect("stdin front");
    let mut stdout = server.stdout.take().expect("stdin front");
    let n = input.expect.len();
    let chunks = n.div_ceil(CHUNK);
    let offered: Vec<AtomicU64> = (0..chunks).map(|_| AtomicU64::new(0)).collect();
    let window = Window::default();
    let t0 = Instant::now();
    let (written, read) = std::thread::scope(|s| {
        let (offered, window) = (&offered, &window);
        let writer = s.spawn(
            move || -> io::Result<(std::process::ChildStdin, Vec<Span>)> {
                let mut tracer = epoch.map(|e| Tracer::new(e, 1));
                for (c, slot) in offered.iter().enumerate() {
                    window.admit((c + 1) * CHUNK - 1);
                    let start = ns_since(t0);
                    slot.store(start, Ordering::Release);
                    stdin.write_all(input.chunk(c))?;
                    if let Some(t) = tracer.as_mut() {
                        let span = (start, ns_since(t0));
                        t.record("transport.write", 0, c as u64, span, CHUNK as u64);
                    }
                }
                stdin.write_all(b"stats\n")?;
                stdin.flush()?;
                Ok((stdin, tracer.map(Tracer::into_spans).unwrap_or_default()))
            },
        );
        let reader = s.spawn(move || -> io::Result<StreamRead> {
            let mut tracer = epoch.map(|e| Tracer::new(e, 2));
            let mut tally = Tally {
                sent: n as u64,
                ..Tally::default()
            };
            let mut latency = Vec::with_capacity(n);
            let (mut line, mut last) = (String::new(), 0);
            for i in 0..n {
                line.clear();
                match stdout.read_line(&mut line) {
                    Ok(0) => {
                        window.answered(usize::MAX);
                        break;
                    }
                    Ok(_) => {}
                    Err(e) => {
                        window.answered(usize::MAX);
                        return Err(e);
                    }
                }
                last = ns_since(t0);
                if (i + 1) % CHUNK == 0 {
                    window.answered(i + 1);
                }
                let start = offered[i / CHUNK].load(Ordering::Acquire);
                latency.push(last.saturating_sub(start) as f64 / 1e6);
                let outcome = classify(line.trim_end(), &i.to_string(), &input.expect[i]);
                report_mismatch(outcome, line.trim_end(), &input.expect[i]);
                tally.record(outcome);
                if let Some(t) = tracer.as_mut() {
                    t.record("transport.request", 0, i as u64, (start, last), 1);
                }
            }
            let mut stats = String::new();
            stdout.read_line(&mut stats)?;
            let spans = tracer.map(Tracer::into_spans).unwrap_or_default();
            Ok((tally, latency, last, stats, spans))
        });
        (
            writer.join().expect("bulk writer thread"),
            reader.join().expect("bulk reader thread"),
        )
    });
    let (stdin, mut spans) = written?;
    let (tally, latency, last, stats, read_spans) = read?;
    // Still serving (stdin open), so VmHWM covers the whole stream.
    let rss_mb = server.peak_rss_mb()?;
    drop(stdin);
    server.stop();
    spans.extend(read_spans);
    let secs = last.saturating_sub(offered[0].load(Ordering::Acquire)) as f64 / 1e9;
    Ok(Pass {
        setup_s,
        rss_mb,
        rate: tally.verdicts as f64 / secs.max(1e-9),
        latency: Sample::new(latency),
        tally,
        counters: Counters::from_stats(&stats),
        spans,
    })
}

/// `bulk_scan` / `trace_scan`: repeated passes, each a fresh server that
/// streams every contract once, until `seconds` have elapsed. Reports the
/// median over passes.
pub fn bulk(
    snapshot: &Path,
    input: &BulkInput,
    seconds: f64,
    epoch: Option<Instant>,
) -> io::Result<Run> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    while passes.is_empty() || Instant::now() < deadline {
        passes.push(bulk_pass(snapshot, input, epoch)?);
    }
    let mut run = Run::default();
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    for pass in passes.iter_mut() {
        run.setup_s.push(pass.setup_s);
        run.rss_mb.push(pass.rss_mb);
        rates.push(pass.rate);
        p50s.push(pass.latency.median().unwrap_or(f64::NAN));
        p99s.push(pass.latency.at(99.0).unwrap_or(f64::NAN));
        run.tally.absorb(&pass.tally);
        run.counters.absorb(pass.counters);
        run.spans.append(&mut pass.spans);
    }
    run.contracts_per_s = median(&rates);
    run.p50_ms = median(&p50s);
    run.p99_ms = median(&p99s);
    run.base_p50_ms = run.p50_ms;
    let spread = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(0.0, f64::max);
        format!("{lo:.3}..{hi:.3}")
    };
    run.report.push(format!(
        "{} pass(es) of {} contracts, each on a fresh server, {BULK_WINDOW} outstanding; per pass: contracts_per_s {}, p50_ms {}, p99_ms {}; first pass {}",
        passes.len(),
        input.expect.len(),
        spread(&rates),
        spread(&p50s),
        spread(&p99s),
        passes[0].latency.describe("ms"),
    ));
    Ok(run)
}

// --- wallet_http -------------------------------------------------------------

struct ClientOut {
    answers: Vec<(u64, String)>,
    /// (send time ns, round trip ms) of timed requests.
    latency: Vec<(u64, f64)>,
    /// Completion times (ns) of timed requests.
    done: Vec<u64>,
    spans: Vec<Span>,
}

/// What the wallet clients share: the server, the timed window, and the
/// memory reading taken at a fixed request count.
struct WalletShared<'a> {
    addr: SocketAddr,
    pid: u32,
    variants: &'a Variants,
    t0: Instant,
    window: (Duration, Duration),
    completed: AtomicU64,
    rss_mb: Mutex<Option<f64>>,
}

fn wallet_client(
    shared: &WalletShared<'_>,
    client: u64,
    epoch: Option<Instant>,
) -> io::Result<ClientOut> {
    let WalletShared {
        addr,
        variants,
        t0,
        window,
        ..
    } = *shared;
    let stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut tracer = epoch.map(|e| Tracer::new(e, 10 + client as u16));
    let mut out = ClientOut {
        answers: Vec::new(),
        latency: Vec::new(),
        done: Vec::new(),
        spans: Vec::new(),
    };
    let (mut body, mut request) = (Vec::new(), Vec::new());
    let mut idx = client;
    while t0.elapsed() < window.1 {
        body.clear();
        request.clear();
        jsonl_request(&mut body, idx, &to_hex(&variants.get(idx)));
        body.pop(); // the trailing newline
        http_predict(&mut request, &body);
        let root = tracer.as_mut().map(Tracer::open);
        let sent = t0.elapsed();
        let answer = match tracer.as_mut() {
            Some(t) => {
                let parent = root.expect("traced").id;
                t.leaf("transport.write", parent, idx, 1, || {
                    writer.write_all(&request)
                })?;
                t.leaf("transport.read", parent, idx, 1, || {
                    read_http_response(&mut reader)
                })?
            }
            None => {
                writer.write_all(&request)?;
                read_http_response(&mut reader)?
            }
        };
        let done = t0.elapsed();
        if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
            t.close(root, "transport.request", 0, idx, 1);
        }
        if sent >= window.0 && done <= window.1 {
            out.latency
                .push((sent.as_nanos() as u64, (done - sent).as_secs_f64() * 1e3));
            out.done.push(done.as_nanos() as u64);
        }
        out.answers.push((idx, answer.1));
        idx += CLIENTS;
        if shared.completed.fetch_add(1, Ordering::Relaxed) + 1 == WALLET_RSS_AT {
            *shared.rss_mb.lock().expect("rss lock") = Some(peak_rss_mb(shared.pid)?);
        }
    }
    out.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    Ok(out)
}

fn http_get(addr: SocketAddr, path: &str) -> io::Result<String> {
    let stream = connect(addr)?;
    write!(
        &stream,
        "GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
    )?;
    Ok(read_http_response(&mut BufReader::new(&stream))?.1)
}

/// `wallet_http`: [`CLIENTS`] closed-loop keep-alive clients, each on its
/// own thread and connection, `POST /predict` with distinct bytecodes.
pub fn wallet(
    snapshot: &Path,
    variants: &Variants,
    oracle: &mut Scanner,
    seconds: f64,
    epoch: Option<Instant>,
) -> io::Result<Run> {
    let mut run = Run {
        setup_s: setup_times(snapshot, Front::Http, SETUP_PROBES / 2)?,
        ..Run::default()
    };
    let mut server = Server::start(snapshot, Front::Http)?;
    run.setup_s.push(server.probe()?);
    let addr = server.addr.expect("http front");
    let window = (
        Duration::from_secs_f64(seconds * WARMUP_SHARE),
        Duration::from_secs_f64(seconds),
    );
    let shared = WalletShared {
        addr,
        pid: server.pid(),
        variants,
        t0: Instant::now(),
        window,
        completed: AtomicU64::new(0),
        rss_mb: Mutex::new(None),
    };
    let outs = std::thread::scope(|s| {
        let shared = &shared;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || wallet_client(shared, c, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("wallet client thread"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    run.counters = Counters::from_prometheus(&http_get(addr, "/metrics")?);
    let at_count = shared.rss_mb.lock().expect("rss lock").take();
    run.rss_mb.push(match at_count {
        Some(mb) => mb,
        None => server.peak_rss_mb()?,
    });
    server.stop();
    let after = SETUP_PROBES - SETUP_PROBES / 2;
    run.setup_s
        .extend(setup_times(snapshot, Front::Http, after)?);

    let mut latency = Vec::new();
    let mut done = Vec::new();
    let mut answers = Vec::new();
    for mut out in outs {
        latency.extend(out.latency);
        done.extend(out.done);
        answers.append(&mut out.answers);
        run.spans.append(&mut out.spans);
    }
    // Verify after the timed window: score every bytecode sent, directly.
    run.tally.sent = answers.len() as u64;
    for chunk in answers.chunks(64) {
        let codes: Vec<Vec<u8>> = chunk.iter().map(|(i, _)| variants.get(*i)).collect();
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        for ((idx, body), expect) in chunk.iter().zip(expect_all(oracle, &refs)) {
            let outcome = classify(body, &idx.to_string(), &expect);
            report_mismatch(outcome, body, &expect);
            run.tally.record(outcome);
        }
    }
    let (rps, seconds) = windowed_rate(&done).unwrap_or((0.0, 0));
    run.contracts_per_s = rps;
    let (p50, _) = windowed(&latency, 50.0).unwrap_or((f64::NAN, 0));
    (run.p50_ms, run.base_p50_ms) = (p50, p50);
    let whole = Sample::new(latency.into_iter().map(|l| l.1).collect());
    run.p99_ms = whole.at(99.0).unwrap_or(f64::NAN);
    run.report.push(format!(
        "{CLIENTS} closed-loop clients, {} request(s) in the {:.1} s timed window: rps {:.1} (median over {seconds} one-second windows); whole window {}; p50 {p50:.3} ms (median over one-second windows)",
        done.len(),
        (window.1 - window.0).as_secs_f64(),
        run.contracts_per_s,
        whole.describe("ms"),
    ));
    Ok(run)
}

/// Prints a mismatching verdict (to stderr: stdout ends with the result).
pub fn report_mismatch(outcome: Outcome, body: &str, expect: &Expect) {
    if outcome == Outcome::Mismatch {
        eprintln!(
            "MISMATCH: expected verdict {} proba {}, got {body}",
            expect.verdict, expect.proba
        );
    }
}

// --- chain_watch -------------------------------------------------------------

/// The open-loop schedule: every request's due time and rung.
pub struct Schedule {
    /// Due time of request `i` (ns after the loop starts).
    pub due_ns: Vec<u64>,
    /// Rung of request `i`.
    pub rung: Vec<u8>,
    /// Index one past each rung's last request.
    pub ends: Vec<usize>,
    /// Each rung's time span (ns after the loop starts); the run ends with
    /// the last one, and requests still unsent then are never sent.
    pub spans_ns: Vec<(u64, u64)>,
    /// Each rung's timed phase: the span after its warm-up. A request is
    /// timed when its answer arrives in it (on the flood, due times run
    /// far ahead of what is sent, so they cannot mark the warm-up).
    pub timed_ns: Vec<(u64, u64)>,
}

impl Schedule {
    /// The ladder over `seconds`: rung `r` gets [`RUNG_SHARE`]`[r]` of the
    /// time, the first [`RUNG_WARMUP_SHARE`] of it untimed.
    pub fn new(seconds: f64) -> Self {
        let mut s = Schedule {
            due_ns: Vec::new(),
            rung: Vec::new(),
            ends: Vec::new(),
            spans_ns: Vec::new(),
            timed_ns: Vec::new(),
        };
        let mut base = 0u64;
        for (r, (&rate, share)) in RATES.iter().zip(RUNG_SHARE).enumerate() {
            let rung_ns = (seconds * share * 1e9) as u64;
            let warm_ns = (rung_ns as f64 * RUNG_WARMUP_SHARE) as u64;
            let count = (u128::from(rate) * u128::from(rung_ns) / 1_000_000_000) as u64;
            for k in 0..count {
                let offset = (u128::from(k) * 1_000_000_000 / u128::from(rate)) as u64;
                s.due_ns.push(base + offset);
                s.rung.push(r as u8);
            }
            s.ends.push(s.due_ns.len());
            s.spans_ns.push((base, base + rung_ns));
            s.timed_ns.push((base + warm_ns, base + rung_ns));
            base += rung_ns;
        }
        s
    }

    /// When the run ends (ns after the loop starts).
    pub fn end_ns(&self) -> u64 {
        self.spans_ns.last().map_or(0, |s| s.1)
    }

    /// Requests of rung `r` due at or before `t_ns`.
    fn due_by(&self, r: usize, t_ns: u64) -> usize {
        self.due_ns
            .partition_point(|&d| d <= t_ns)
            .min(self.ends[r])
    }
}

/// What the chain reader returns: each response's outcome and arrival time
/// (ns), the `stats` line, time spent waiting per rung (ns) and the spans.
type ChainRead = (Vec<(Outcome, u64)>, String, Vec<u64>, Vec<Span>);

/// One rung's outcome.
#[derive(Debug, Default)]
struct Rung {
    tally: Tally,
    /// (due time ns, latency ms) of timed requests.
    latency: Vec<(u64, f64)>,
    max_late_ms: f64,
    /// Time the sender spent blocked in `write` and the reader waiting for
    /// a response (ns): a flood the server cannot keep up with shows as
    /// both high.
    blocked_ns: u64,
    waiting_ns: u64,
    backlog: Option<(i64, i64)>,
    /// Arrival times (ns) of timed verdicts.
    answered: Vec<u64>,
}

/// `chain_watch`: open-loop JSONL v2 over one TCP connection, a paced
/// sender thread and a reader thread, over the rate ladder.
pub fn chain(
    snapshot: &Path,
    stream: &ChainStream,
    schedule: &Schedule,
    oracle: &mut Scanner,
    epoch: Option<Instant>,
) -> io::Result<Run> {
    let refs: Vec<&[u8]> = stream.templates.iter().map(Vec::as_slice).collect();
    let expect = expect_all(oracle, &refs);
    let mut run = Run {
        setup_s: setup_times(snapshot, Front::Tcp, SETUP_PROBES / 2)?,
        ..Run::default()
    };
    let mut server = Server::start(snapshot, Front::Tcp)?;
    run.setup_s.push(server.probe()?);
    let conn = connect(server.addr.expect("tcp front"))?;
    let mut writer = conn.try_clone()?;
    let mut reader = BufReader::new(conn);
    let total = schedule.due_ns.len();
    assert!(
        stream.sequence.len() >= total,
        "stream shorter than the schedule"
    );

    let mut rungs: Vec<Rung> = RATES.iter().map(|_| Rung::default()).collect();
    let end_ns = schedule.end_ns();
    let t0 = Instant::now();
    let (sent, read) = std::thread::scope(|s| {
        let sender = s.spawn(|| -> (usize, Vec<f64>, Vec<u64>, Vec<Span>) {
            let mut tracer = epoch.map(|e| Tracer::new(e, 20));
            let mut late = vec![0.0f64; RATES.len()];
            let mut blocked = vec![0u64; RATES.len()];
            let mut buf = Vec::with_capacity(1 << 16);
            let mut i = 0;
            let mut flush = |buf: &mut Vec<u8>, tracer: &mut Option<Tracer>, i: usize| {
                let start = ns_since(t0);
                let ok = writer.write_all(buf).is_ok();
                let end = ns_since(t0);
                blocked[schedule.rung[i.saturating_sub(1)] as usize] += end - start;
                if let Some(t) = tracer.as_mut() {
                    t.record("transport.write", 0, i as u64, (start, end), 1);
                }
                buf.clear();
                ok
            };
            while i < total {
                let now = ns_since(t0);
                if now >= end_ns {
                    break;
                }
                let due = schedule.due_ns[i];
                if due > now {
                    if !buf.is_empty() && !flush(&mut buf, &mut tracer, i) {
                        break;
                    }
                    let wait = due.saturating_sub(ns_since(t0));
                    if wait > 0 {
                        std::thread::sleep(Duration::from_nanos(wait));
                    }
                    continue;
                }
                let r = schedule.rung[i] as usize;
                late[r] = late[r].max((now - due) as f64 / 1e6);
                let template = stream.sequence[i] as usize;
                jsonl_request(&mut buf, i as u64, &stream.hex[template]);
                i += 1;
                if buf.len() >= 1 << 15 && !flush(&mut buf, &mut tracer, i) {
                    break;
                }
            }
            buf.extend_from_slice(b"stats\n");
            let _ = flush(&mut buf, &mut tracer, i);
            let spans = tracer.map(Tracer::into_spans).unwrap_or_default();
            (i, late, blocked, spans)
        });
        let reader = s.spawn(|| -> ChainRead {
            let mut tracer = epoch.map(|e| Tracer::new(e, 21));
            let mut waiting = vec![0u64; RATES.len()];
            let mut got = Vec::with_capacity(total);
            let mut line = String::new();
            // Responses until the `stats` line, which follows the last one.
            while got.len() < total {
                line.clear();
                let start = ns_since(t0);
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let now = ns_since(t0);
                if line.contains("\"stats\":") {
                    break;
                }
                let k = got.len();
                waiting[schedule.rung[k] as usize] += now - start;
                let e = &expect[stream.sequence[k] as usize];
                let outcome = classify(line.trim_end(), &k.to_string(), e);
                report_mismatch(outcome, line.trim_end(), e);
                if let Some(t) = tracer.as_mut() {
                    t.record(
                        "transport.request",
                        0,
                        k as u64,
                        (schedule.due_ns[k], now),
                        1,
                    );
                }
                got.push((outcome, now));
            }
            if !line.contains("\"stats\":") {
                line.clear();
                let _ = reader.read_line(&mut line);
            }
            let spans = tracer.map(Tracer::into_spans).unwrap_or_default();
            (got, line, waiting, spans)
        });
        (
            sender.join().expect("chain sender thread"),
            reader.join().expect("chain reader thread"),
        )
    });
    let (sent, late, blocked, mut spans) = sent;
    let (got, stats, waiting, read_spans) = read;
    spans.extend(read_spans);
    run.spans = spans;
    run.counters = Counters::from_stats(&stats);
    run.rss_mb.push(server.peak_rss_mb()?);
    server.stop();
    let after = SETUP_PROBES - SETUP_PROBES / 2;
    run.setup_s
        .extend(setup_times(snapshot, Front::Tcp, after)?);

    for (r, rung) in rungs.iter_mut().enumerate() {
        rung.max_late_ms = late[r];
        (rung.blocked_ns, rung.waiting_ns) = (blocked[r], waiting[r]);
        rung.tally.sent = schedule.rung[..sent]
            .iter()
            .filter(|&&x| x as usize == r)
            .count() as u64;
    }
    for (k, &(outcome, recv_ns)) in got.iter().enumerate() {
        let rung = &mut rungs[schedule.rung[k] as usize];
        rung.tally.record(outcome);
        let (from, to) = schedule.timed_ns[schedule.rung[k] as usize];
        if recv_ns < from || recv_ns > to {
            continue;
        }
        let ok = outcome == Outcome::Verdict;
        if ok {
            rung.answered.push(recv_ns);
        }
        // A refusal or error misses every latency limit.
        let ms = recv_ns.saturating_sub(schedule.due_ns[k]) as f64 / 1e6;
        rung.latency
            .push((schedule.due_ns[k], if ok { ms } else { f64::INFINITY }));
        let in_flight = schedule.due_by(schedule.rung[k] as usize, recv_ns) as i64 - k as i64 - 1;
        rung.backlog = Some(match rung.backlog {
            None => (in_flight, in_flight),
            Some((first, _)) => (first, in_flight),
        });
    }

    let mut goodput = None;
    let mut headline = None;
    for (r, rung) in rungs.iter().enumerate() {
        let rate = RATES[r];
        let whole = Sample::new(rung.latency.iter().map(|l| l.1).collect());
        let p50 = windowed(&rung.latency, 50.0).map(|w| w.0);
        let p99 = windowed(&rung.latency, 99.0).map(|w| w.0);
        // Growing backlog: over the timed window, requests due but not yet
        // answered grew by more than one latency limit's worth of arrivals.
        let (b0, b1) = rung.backlog.unwrap_or((0, 0));
        let growing = (b1 - b0) as f64 > f64::from(rate) * P99_LIMIT_MS / 1e3;
        let pass = p99.is_some_and(|p| p <= P99_LIMIT_MS)
            && rung.tally.failed() == 0
            && rung.tally.balanced()
            && !growing;
        let achieved = windowed_rate(&rung.answered).map_or(0.0, |r| r.0);
        if pass {
            goodput = Some(rate);
        }
        if r + 1 == RATES.len() {
            // The flood offers more than the stack can take: what it
            // delivers is the stack's throughput under overload.
            run.contracts_per_s = achieved;
        }
        let (start, end) = schedule.spans_ns[r];
        let share = |ns: u64| 100.0 * ns as f64 / (end - start) as f64;
        let scheduled = schedule.ends[r] - if r == 0 { 0 } else { schedule.ends[r - 1] };
        if rate == HEADLINE_RATE {
            headline = Some((p50, p99));
        }
        if r == 0 {
            run.base_p50_ms = p50.unwrap_or(f64::NAN);
        }
        run.report.push(format!(
            "rung {rate} req/s: sent {} of {scheduled} scheduled; whole window {}; median over one-second windows: p50 {} ms, p99 {} ms; achieved {achieved:.1} verdicts/s; generator max lateness {:.3} ms; sender blocked in write {:.0}%, reader waiting {:.0}% of the rung; backlog {b0}->{b1}{}; {}",
            rung.tally.sent,
            whole.describe("ms"),
            p50.map_or("unsupported".to_owned(), |p| format!("{p:.3}")),
            p99.map_or("unsupported".to_owned(), |p| format!("{p:.3}")),
            rung.max_late_ms,
            share(rung.blocked_ns),
            share(rung.waiting_ns),
            if growing { " (growing)" } else { "" },
            if pass { "PASS" } else { "over the limit" },
        ));
        let per_second: Vec<String> = window_rates(&rung.answered)
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect();
        run.report.push(format!(
            "rung {rate} req/s verdicts/s per one-second window: [{}]",
            per_second.join(", ")
        ));
        run.report.push(format!(
            "rung {rate} req/s accounting: {}",
            rung.tally.render()
        ));
        run.tally.absorb(&rung.tally);
    }
    let (p50, p99) = headline.expect("the headline rate is on the ladder");
    run.p50_ms = p50.unwrap_or(f64::NAN);
    run.p99_ms = p99.unwrap_or(f64::NAN);
    run.report.push(format!(
        "goodput_rps {} (highest rung whose p99 is within {P99_LIMIT_MS} ms, with zero failures and no growing backlog)",
        goodput.unwrap_or(0)
    ));
    Ok(run)
}
