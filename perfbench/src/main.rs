//! End-to-end and per-layer benchmark of the MicroNAS workspace.
//!
//! ```bash
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload search --seed 0 --seconds 30 --trace 0
//! ```
//!
//! Each workload is a closed loop with one client: the next operation starts
//! when the previous one returns. Every operation's result is checked. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! alternates untraced and traced operations on the same inputs, so the
//! tracing overhead is measured, and writes its span tree, folded stacks
//! and counter repeatability under `.perfbench/out/`.

mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::TimelineSink;
use workloads::{LayerSample, OpResult, Workload, WorkloadKind};

type BoxError = Box<dyn std::error::Error>;

/// Set-up is repeated at least this many times per run, and `setup_s` is
/// the median of the repeats.
const SETUP_MIN_REPEATS: usize = 3;

/// Short set-ups repeat until they have taken this long in total (at most
/// [`SETUP_MAX_REPEATS`] times), so millisecond set-ups get a steady median.
const SETUP_MIN_SECONDS: f64 = 1.0;
const SETUP_MAX_REPEATS: usize = 50;

/// Distinct inputs a traced run cycles through, so traced operations repeat
/// inputs and their counters can be compared.
const TRACED_INPUTS: usize = 4;

#[derive(Debug)]
struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(WorkloadKind::parse(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("--seconds {value}: expected 1..=600"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Caps the worker threads of parallel maps at the machine's cores (an
/// explicit `RAYON_NUM_THREADS` below that is kept) and returns
/// `(nproc, threads)`.
fn configure_threads() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let requested = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(nproc);
    let threads = requested.min(nproc);
    // Single-threaded here: nothing else reads the environment yet.
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    (nproc, threads)
}

/// A directory under the working directory for one run's files, removed on
/// drop.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = std::env::current_dir()?
            .join(".perfbench")
            .join("tmp")
            .join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// User + system CPU seconds of this process, all threads.
fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in USER_HZ (100 on Linux) ticks;
    // the command name in field 2 may hold spaces, so split after its ')'.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit of a git checkout in the working directory, read from
/// `.git` without running git; `"unknown"` elsewhere.
fn git_rev() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&Path::new(".git").join(reference))
        .or_else(|| {
            read(Path::new(".git/packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance_json(args: &Args, nproc: usize, threads: usize, workload: &dyn Workload) -> String {
    format!(
        "{{\"provenance\":{{\"git_rev\":{},\"nproc\":{nproc},\"rayon_threads\":{threads},\
         \"rustc\":{},\"target_cpu\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\
         \"trace\":{},\"inputs\":{}}}}}",
        json_string(&git_rev()),
        json_string(env!("PERFBENCH_RUSTC_VERSION")),
        json_string(env!("PERFBENCH_TARGET_CPU")),
        json_string(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        json_string(&workload.describe()),
    )
}

/// Metrics in the order they were added, each `(value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, op: usize, result: &Result<OpResult, BoxError>) {
        self.attempted += 1;
        let problem = match result {
            Ok(r) => r.check.clone().err(),
            Err(e) => Some(format!("error: {e}")),
        };
        if let Some(problem) = problem {
            self.failed += 1;
            eprintln!("op {op}: FAILED: {problem}");
        }
    }
}

fn median_or_zero(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

fn run(args: &Args, nproc: usize, threads: usize, dir: &RunDir) -> Result<String, BoxError> {
    let mut workload = args.workload.create(args.seed, &dir.0);
    let mut setups = Vec::new();
    while setups.len() < SETUP_MIN_REPEATS
        || (setups.iter().sum::<f64>() < SETUP_MIN_SECONDS && setups.len() < SETUP_MAX_REPEATS)
    {
        setups.push(workload.setup()?);
    }
    let setup_s = median_or_zero(&setups);
    println!(
        "{}",
        provenance_json(args, nproc, threads, workload.as_ref())
    );

    let budget = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    // One checked but unmeasured operation first: the first operation of a
    // process runs slower than the rest (by up to a fifth on `search`),
    // which would move the median of a run of five.
    let warm_up = Instant::now();
    let result = workload.op(0, 0, false);
    tally.check(0, &result);
    eprintln!("op 0 (warm-up): {:.6} s", warm_up.elapsed().as_secs_f64());
    if !args.trace {
        let mut walls = Vec::new();
        let cpu_before = cpu_seconds();
        let start = Instant::now();
        let mut finished = start;
        while walls.is_empty() || start.elapsed() < budget {
            let op = 1 + walls.len();
            let t0 = Instant::now();
            let result = workload.op(op, op, false);
            let wall = t0.elapsed().as_secs_f64();
            finished = Instant::now();
            tally.check(op, &result);
            eprintln!("op {op}: {wall:.6} s");
            walls.push(wall);
        }
        let cpu = cpu_seconds() - cpu_before;
        let ops = walls.len() as f64;
        let elapsed = finished.duration_since(start).as_secs_f64();
        let mut metrics = Metrics::default();
        metrics.add("wall_p50_s", median_or_zero(&walls), "s");
        metrics.add("ops_per_s", ops / elapsed, "1/s");
        metrics.add("cpu_s_per_op", cpu / ops, "s");
        metrics.add("setup_s", setup_s, "s");
        metrics.add("peak_rss_mib", peak_rss_mib(), "MiB");
        // The tail percentile and the failure share exist on some
        // workloads only (a tail needs ten samples beyond it, and the share
        // is 0 when nothing fails), so they go in this line, not in the
        // metrics every run of every workload reports.
        let tail = stats::tail_percentile(&walls).map_or_else(
            || "null".to_string(),
            |(p, v)| format!("{{\"percentile\":{p},\"value\":{v},\"unit\":\"s\"}}"),
        );
        println!(
            "{{\"summary\":{{\"ops\":{},\"setup_repeats\":{},\"wall_p50_s\":{},\
             \"wall_tail\":{tail},\"wall_quartile_spread\":{},\"fail_share\":{}}}}}",
            walls.len(),
            setups.len(),
            median_or_zero(&walls),
            stats::quartile_spread(&walls).unwrap_or(0.0),
            tally.failed as f64 / tally.attempted as f64,
        );
        return Ok(result_line(&tally, &metrics));
    }

    // Traced run: after the warm-up, an untraced and a traced operation share
    // each input.
    let main_thread = trace::thread_ordinal();
    let sink = Arc::new(TimelineSink::new());
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut samples: Vec<LayerSample> = Vec::new();
    let mut export = None;
    let start = Instant::now();
    while traced_walls.is_empty() || start.elapsed() < budget {
        let pairs = plain_walls.len() + traced_walls.len();
        let op = 1 + pairs;
        let input = 1 + (pairs / 2) % TRACED_INPUTS;
        let traced = pairs % 2 == 1;
        let t0 = Instant::now();
        let result = if traced {
            let begin = sink.now_ns();
            let scope = micronas_telemetry::install_scoped(sink.clone());
            let result = workload.op(op, input, true);
            drop(scope);
            sink.record_interval("bench.op", begin, sink.now_ns());
            result
        } else {
            workload.op(op, input, false)
        };
        let wall = t0.elapsed().as_secs_f64();
        if !traced {
            tally.check(op, &result);
            plain_walls.push(wall);
            continue;
        }
        traced_walls.push(wall);
        let (spans, report) = sink.drain();
        let nodes = trace::build_tree(&spans, main_thread);
        let mut result = result;
        if let Ok(result) = &mut result {
            result.layer.absorb_trace(&nodes, &report);
            result.layer.absorb_probes(workload.probe()?);
            if result.check.is_ok() {
                result.check = workloads::check_attribution(args.workload, &result.layer);
            }
        }
        tally.check(op, &result);
        if let Ok(result) = result {
            samples.push(result.layer);
        }
        if export.is_none() {
            export = Some((trace::tree_jsonl(&nodes), trace::folded_stacks(&nodes)));
        }
    }
    let overhead = median_or_zero(&traced_walls) / median_or_zero(&plain_walls) - 1.0;
    let mut metrics = Metrics::default();
    for &(name, unit) in workloads::PER_LAYER {
        let values: Vec<f64> = samples.iter().map(|s| s.get(name)).collect();
        let value = if name == "store.open_s" {
            workload.open_seconds()
        } else {
            median_or_zero(&values)
        };
        metrics.add(name, value, unit);
    }
    metrics.add("telemetry.overhead_share", overhead, "share");

    let repeatability = workloads::counter_repeatability(&samples);
    let out_dir = std::env::current_dir()?
        .join(".perfbench")
        .join("out")
        .join(format!("{}-seed{}", args.workload.name(), args.seed));
    std::fs::create_dir_all(&out_dir)?;
    if let Some((tree, folded)) = export {
        std::fs::write(out_dir.join("span_tree.jsonl"), tree)?;
        std::fs::write(out_dir.join("folded_stacks.txt"), folded)?;
    }
    let mut layers = String::new();
    for sample in &samples {
        let _ = writeln!(layers, "{}", sample.layer_self_json());
    }
    std::fs::write(out_dir.join("layer_self_ns.jsonl"), layers)?;
    std::fs::write(out_dir.join("counter_repeatability.json"), &repeatability)?;
    println!("{{\"counter_repeatability\":{repeatability}}}");
    eprintln!(
        "{}: {} untraced + {} traced ops, overhead {:+.3}, trace written to {}",
        args.workload.name(),
        plain_walls.len(),
        traced_walls.len(),
        overhead,
        out_dir.display()
    );
    Ok(result_line(&tally, &metrics))
}

fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.to_json()
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WorkloadKind::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let (nproc, threads) = configure_threads();
    let outcome = RunDir::create()
        .map_err(BoxError::from)
        .and_then(|dir| run(&args, nproc, threads, &dir));
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
