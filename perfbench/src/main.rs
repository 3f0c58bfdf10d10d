//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run trains the workload's snapshot on a seed-derived corpus, starts
//! the serving stack as a separate `phishinghook serve` process, drives the
//! workload, checks every verdict against direct scoring and prints a
//! report; the last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics from a
//! separate traced run and writes its spans under
//! `$CARGO_TARGET_DIR/perfbench/` (without that variable, `target/perfbench/`
//! under the working directory). `perfbench/SPEC.json` describes the
//! workloads and metrics.

mod check;
mod inputs;
mod layers;
mod server;
mod spec;
mod stats;
mod trace;
mod workloads;

use check::Tally;
use inputs::{jsonl_request, mix, TRAIN_CONTRACTS};
use layers::Arrival;
use phishinghook_cli::CliError;
use phishinghook_evm::keccak::to_hex;
use phishinghook_models::{Detector, DetectorRegistry, Scanner};
use spec::Workload;
use stats::{median, Sample};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{BulkInput, Run, Schedule, RATES};

const USAGE: &str =
    "usage: perfbench --workload <bulk_scan|trace_scan|wallet_http|chain_watch> --seed <n> --seconds <s> --trace <0|1>";

/// Requests per closed-loop in-process scheduler replay (`wallet_http`).
const IN_PROCESS_CLOSED: usize = 2_000;

struct Options {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        spec::workload(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err(format!("--seconds must be in (0, 120], got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                    });
                }
                other => return Err(format!("unexpected argument `{other}`")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// The workload's inputs, built before anything is timed.
enum Inputs {
    Bulk(BulkInput),
    Wallet(inputs::Variants),
    Chain(inputs::ChainStream),
}

struct Bench {
    opts: Options,
    snapshot_path: PathBuf,
    snapshot: Vec<u8>,
    oracle: Scanner,
    inputs: Inputs,
    /// JSONL request lines in workload order (the per-layer probe's input).
    probe_lines: Vec<String>,
    /// Request lines and arrival pattern replayed in process.
    replay: (Vec<String>, Arrival),
}

fn json_line(id: u64, code: &[u8]) -> String {
    let mut line = Vec::new();
    jsonl_request(&mut line, id, &to_hex(code));
    line.pop();
    String::from_utf8(line).expect("ascii")
}

impl Bench {
    fn new(opts: Options, out_dir: &Path) -> io::Result<Bench> {
        let w = opts.workload;
        let train = inputs::training(opts.seed, TRAIN_CONTRACTS);
        let mut det = DetectorRegistry::global()
            .build_str(w.model, mix(opts.seed, inputs::MODEL))
            .map_err(|e| io::Error::other(format!("bad model spec {}: {e}", w.model)))?;
        let refs: Vec<&[u8]> = train.codes.iter().map(Vec::as_slice).collect();
        det.fit(&refs, &train.labels);
        let snapshot = det.to_snapshot_bytes();
        let snapshot_path = out_dir.join(format!("{}-seed{}.snap", w.name, opts.seed));
        std::fs::write(&snapshot_path, &snapshot)?;
        let oracle = Scanner::from_snapshot_bytes(&snapshot).map_err(io::Error::other)?;
        let mut scorer = oracle.worker();
        let n_probe = layers::PROBE_REQUESTS;

        let (inputs, probe_lines, replay) = match w.name {
            "bulk_scan" | "trace_scan" => {
                let codes = inputs::bulk_contracts(opts.seed, spec::BULK_CONTRACTS, &train.digests);
                let lines: Vec<String> = codes
                    .iter()
                    .take(n_probe)
                    .enumerate()
                    .map(|(i, c)| json_line(i as u64, c))
                    .collect();
                let input = BulkInput::new(&codes, &mut scorer);
                (Inputs::Bulk(input), lines.clone(), (lines, Arrival::Stream))
            }
            "wallet_http" => {
                let variants = inputs::Variants::new(opts.seed, spec::WALLET_POOL, &train.digests);
                let n = n_probe.max(IN_PROCESS_CLOSED) as u64;
                let lines: Vec<String> = (0..n).map(|i| json_line(i, &variants.get(i))).collect();
                let replay = lines[..IN_PROCESS_CLOSED].to_vec();
                let probe = lines[..n_probe].to_vec();
                (
                    Inputs::Wallet(variants),
                    probe,
                    (replay, Arrival::ClosedLoop),
                )
            }
            "chain_watch" => {
                let e2e_seconds = if opts.trace {
                    opts.seconds / 2.0
                } else {
                    opts.seconds
                };
                let len = Schedule::new(e2e_seconds)
                    .due_ns
                    .len()
                    .max(n_probe)
                    .max(2 * RATES[0] as usize);
                let stream = inputs::chain_stream(
                    opts.seed,
                    spec::CHAIN_TEMPLATES,
                    spec::CHAIN_SKEW,
                    len,
                    &train.digests,
                );
                let line = |k: usize| {
                    let t = stream.sequence[k] as usize;
                    json_line(k as u64, &stream.templates[t])
                };
                let probe = (0..n_probe).map(line).collect();
                // Two seconds of the lowest rung.
                let replay = (0..2 * RATES[0] as usize).map(line).collect();
                (
                    Inputs::Chain(stream),
                    probe,
                    (replay, Arrival::OpenLoop(RATES[0])),
                )
            }
            other => unreachable!("unknown workload {other}"),
        };
        Ok(Bench {
            opts,
            snapshot_path,
            snapshot,
            oracle,
            inputs,
            probe_lines,
            replay,
        })
    }

    fn end_to_end(&self, seconds: f64, epoch: Option<Instant>) -> io::Result<Run> {
        let mut scorer = self.oracle.worker();
        let snap = self.snapshot_path.as_path();
        match &self.inputs {
            Inputs::Bulk(input) => workloads::bulk(snap, input, seconds, epoch),
            Inputs::Wallet(v) => workloads::wallet(snap, v, &mut scorer, seconds, epoch),
            Inputs::Chain(stream) => {
                workloads::chain(snap, stream, &Schedule::new(seconds), &mut scorer, epoch)
            }
        }
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        // The snapshot is this run's alone; do not let them pile up.
        let _ = std::fs::remove_file(&self.snapshot_path);
    }
}

/// Prints a run's report lines and accounting.
fn print_run(label: &str, run: &Run) {
    println!("  [{label}]");
    for line in &run.report {
        println!("    {line}");
    }
    println!(
        "    setup_s samples {:?}; rss_mb {:?}; batch_rows {:.2}; cache hit_ratio {:.4}",
        run.setup_s,
        run.rss_mb,
        run.counters.batch_rows(),
        run.counters.hit_ratio()
    );
    println!("    accounting: {}", run.tally.render());
}

/// A JSON number; a non-finite value (a percentile made of refusals, or
/// one the sample cannot support) prints as the largest finite double.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn result_json(tally: &Tally, correct: bool, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.sent.max(1),
        tally.failed(),
        body.join(", ")
    )
}

fn run(opts: Options) -> io::Result<String> {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let out_dir = PathBuf::from(target).join("perfbench");
    std::fs::create_dir_all(&out_dir)?;
    let bench = Bench::new(opts, &out_dir)?;
    let w = bench.opts.workload;
    let (seed, seconds) = (bench.opts.seed, bench.opts.seconds);
    println!(
        "perfbench {} seed {seed} ({} s{}): model {} trained on {TRAIN_CONTRACTS} contracts, snapshot {} bytes",
        w.name,
        seconds,
        if bench.opts.trace { ", traced" } else { "" },
        w.model,
        bench.snapshot.len()
    );

    if !bench.opts.trace {
        let run = bench.end_to_end(seconds, None)?;
        print_run("untraced", &run);
        // Latency is reported, not gated: on a shared 2-CPU host its
        // run-to-run spread exceeds any useful bound.
        println!(
            "  p50_ms {} ms, p99_ms {} ms (reported, not gated)",
            run.p50_ms, run.p99_ms
        );
        let values = [
            median(&run.setup_s),
            median(&run.rss_mb),
            run.contracts_per_s,
        ];
        let metrics: Vec<(&str, &str, f64)> = spec::END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.0, m.1, v))
            .collect();
        for (name, unit, v) in &metrics {
            println!("  {name} {v} {unit}");
        }
        return Ok(result_json(&run.tally, run.tally.correct(), &metrics));
    }

    // Traced invocation: the untraced and traced halves give the tracing
    // overhead; the per-layer probe and the in-process scheduler replay give
    // the layer metrics. Spans go to disk at the end.
    let untraced = bench.end_to_end(seconds / 2.0, None)?;
    print_run("untraced half", &untraced);
    let epoch = Instant::now();
    let mut traced = bench.end_to_end(seconds / 2.0, Some(epoch))?;
    print_run("traced half", &traced);

    let (mut layer, probe_spans) =
        layers::probe(&bench.probe_lines, &bench.oracle, &bench.snapshot, epoch);
    let (lines, arrival) = &bench.replay;
    let (round_trips, rows, replay_spans) =
        layers::scheduler_round_trips(lines, &bench.oracle, *arrival, epoch);
    let score_ms = layer["models.score_ns"] / 1e6 * rows;
    let wait = Sample::new(
        round_trips
            .iter()
            .map(|r| (r - score_ms).max(0.0))
            .collect(),
    );
    let round_trips = Sample::new(round_trips);
    println!(
        "  in-process scheduler ({arrival:?}): round trip {}; {rows:.2} rows/batch; wait {}",
        round_trips.describe("ms"),
        wait.describe("ms")
    );
    layer.insert("scheduler.wait_p50_ms", wait.median().unwrap_or(f64::NAN));
    layer.insert("scheduler.wait_p99_ms", wait.at(99.0).unwrap_or(f64::NAN));
    layer.insert(
        "transport.overhead_p50_ms",
        untraced.base_p50_ms - round_trips.median().unwrap_or(f64::NAN),
    );
    layer.insert("cache.hit_ratio", untraced.counters.hit_ratio());
    layer.insert("scheduler.batch_rows", untraced.counters.batch_rows());
    layer.insert("trace.overhead_frac", traced.p50_ms / untraced.p50_ms - 1.0);

    let mut spans = std::mem::take(&mut traced.spans);
    spans.extend(probe_spans);
    spans.extend(replay_spans);
    let path = out_dir.join(format!("spans-{}-seed{seed}.jsonl", w.name));
    trace::write_jsonl(&path, &spans)?;
    println!("  {} span(s) written to {}", spans.len(), path.display());

    let metrics: Vec<(&str, &str, f64)> = spec::PER_LAYER
        .iter()
        .map(|m| {
            (
                m.0,
                m.1,
                *layer
                    .get(m.0)
                    .unwrap_or_else(|| panic!("no value for {}", m.0)),
            )
        })
        .collect();
    for (name, unit, v) in &metrics {
        println!("  {name} {v} {unit}");
    }
    let mut tally = untraced.tally;
    tally.absorb(&traced.tally);
    let correct = untraced.tally.correct() && traced.tally.correct();
    Ok(result_json(&tally, correct, &metrics))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        // The serving child: exactly what the `phishinghook` binary's main
        // does with these arguments.
        match phishinghook_cli::run(&args) {
            Ok(output) => print!("{output}"),
            Err(CliError::Usage(msg)) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
            Err(err) => {
                eprintln!("error: {err}");
                std::process::exit(1);
            }
        }
        return;
    }
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(opts) {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
