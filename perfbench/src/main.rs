//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <net-yolact|layer-sweep|serve-mixed>
//!           [--seed N] [--seconds S] [--trace 0|1] [--emit-refs]
//! ```
//!
//! One process runs one workload for `--seconds` of measured time, checks
//! every output against the references pinned in `refs.json` (or, for a
//! seed without pinned references, against the run's first op), prints a
//! human-readable report, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report
//! the end-to-end metrics of `BENCHMARK.json`; `--trace 1` runs report its
//! per-layer metrics. See `perfbench/README.md`.

mod net;
mod refs;
mod serving;
mod stats;
mod sweep;

use defcon_support::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Command-line arguments.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Print the reference fragment of this seed for `refs.json`.
    pub emit_refs: bool,
    /// Internal: set up, report readiness and exit (see [`setup_seconds`]).
    setup_probe: bool,
}

/// What a workload run hands back: op counts and the metrics of the mode
/// it ran in (end-to-end when untraced, per-layer when traced).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Environment variables that change what the program does. `Gpu::new`,
/// `ServeConfig::default` and friends read them, so a run refuses to start
/// while any is set rather than measure something else.
const BEHAVIOUR_VARS: [&str; 9] = [
    "DEFCON_THREADS",
    "DEFCON_TINY",
    "DEFCON_TRACE",
    "DEFCON_OBS_WALL",
    "DEFCON_SERVE_QUEUE",
    "DEFCON_SERVE_CACHE",
    "DEFCON_SERVE_DEADLINE",
    "DEFCON_RETRY_MAX",
    "DEFCON_BACKEND",
];

const USAGE: &str = "usage: perfbench --workload <net-yolact|layer-sweep|serve-mixed> \
                     [--seed N] [--seconds S] [--trace 0|1] [--emit-refs]";

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn parse_args() -> (String, Args) {
    let mut workload = None;
    let mut args = Args {
        seed: 1,
        seconds: 30.0,
        trace: false,
        emit_refs: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-refs" || flag == "--setup-probe" {
            args.emit_refs |= flag == "--emit-refs";
            args.setup_probe |= flag == "--setup-probe";
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value\n{USAGE}")));
        let bad = |what: &str| format!("bad {what} {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| fail(&bad("seed"))),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| fail(&bad("duration")))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => fail(&bad("flag")),
                }
            }
            _ => fail(&format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    let workload = workload.unwrap_or_else(|| fail(USAGE));
    (workload, args)
}

/// Runs `f`, turning a panic into `None` so it counts as one failed op.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("perfbench: {what} panicked");
            None
        }
    }
}

/// Time box for a run's op loop.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether to start another op: always until `min_ops` are done, then
    /// only while one more op of the median length so far still ends
    /// within the budget.
    pub fn fits(&self, done: usize, min_ops: usize, op_secs: &[f64]) -> bool {
        done < min_ops
            || self.start.elapsed().as_secs_f64() + stats::median(op_secs) <= self.seconds
    }
}

/// Set-up repetitions behind `setup_s`.
const SETUP_PROBES: usize = 5;

/// `setup_s`: the median, over [`SETUP_PROBES`] fresh processes of this
/// benchmark, of the time from `main` to the end of the workload's set-up,
/// where the first timed op would start. Each probe reports its own time:
/// `exec` and dynamic loading are left out, as they belong to the host and
/// swing several-fold with its load.
fn setup_seconds(workload: &str, seed: u64) -> f64 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut times = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let mut child = Command::new(&exe)
            .args([
                "--workload",
                workload,
                "--seed",
                &seed.to_string(),
                "--setup-probe",
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn a set-up probe");
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("probe stdout")).read_line(&mut line);
        let status = child.wait().expect("wait for the set-up probe");
        let secs = line
            .strip_prefix("ready ")
            .and_then(|s| s.trim().parse::<f64>().ok());
        match (read, secs) {
            (Ok(_), Some(secs)) if status.success() => times.push(secs),
            _ => panic!("set-up probe failed: {status}, said {line:?}"),
        }
    }
    stats::median(&times)
}

/// Runs `f` with `support::obs` armed on the wall clock when `traced`,
/// returning its result and the recorded span forest (empty untraced).
pub fn traced_op<T>(
    traced: bool,
    f: impl FnOnce() -> T,
) -> (T, Vec<defcon_support::obs::SpanNode>) {
    use defcon_support::obs::{self, Clock, ObsConfig};
    if !traced {
        return (f(), Vec::new());
    }
    let guard = obs::arm(ObsConfig { clock: Clock::Wall });
    let out = f();
    let forest = obs::snapshot();
    drop(guard);
    (out, forest)
}

/// The metric lists of `BENCHMARK.json`: (name, unit) per metric.
fn declared(trace: bool) -> Vec<(String, String)> {
    let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let key = if trace { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list in BENCHMARK.json")
        .iter()
        .map(|m| {
            (
                m.str_field("name").expect("metric name").to_string(),
                m.str_field("unit").expect("metric unit").to_string(),
            )
        })
        .collect()
}

/// Ends a set-up probe: reports the seconds since `main` began while
/// `_setup` is still alive (its teardown is not set-up time), and exits.
fn ready<T>(main_start: Instant, _setup: T) -> ! {
    println!("ready {}", main_start.elapsed().as_secs_f64());
    std::io::stdout().flush().expect("flush the ready line");
    std::process::exit(0);
}

fn main() {
    let process_start = Instant::now();
    let (workload, args) = parse_args();
    let set: Vec<&str> = BEHAVIOUR_VARS
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        fail(&format!(
            "refusing to run with {} set: these change what is measured",
            set.join(", ")
        ));
    }
    if !["net-yolact", "layer-sweep", "serve-mixed"].contains(&workload.as_str()) {
        fail(&format!("unknown workload {workload:?}\n{USAGE}"));
    }
    if args.setup_probe {
        match workload.as_str() {
            "net-yolact" => ready(process_start, net::setup()),
            "layer-sweep" => ready(process_start, sweep::setup(args.seed)),
            _ => ready(process_start, serving::setup(args.seed)),
        }
    }
    println!(
        "perfbench {workload}: seed {} · {} s · trace {} · {} host cores",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let setup_s = (!args.trace).then(|| setup_seconds(&workload, args.seed));
    let mut outcome = match workload.as_str() {
        "net-yolact" => net::run(&args),
        "layer-sweep" => sweep::run(&args),
        _ => serving::run(&args),
    };
    if let Some(s) = setup_s {
        println!("  setup_s = {s} (median of {SETUP_PROBES} set-up probes)");
        outcome.metrics.push(("setup_s".into(), s));
    }

    let declared = declared(args.trace);
    for (name, _) in &outcome.metrics {
        assert!(
            declared.iter().any(|(d, _)| d == name),
            "metric {name} is not declared in BENCHMARK.json"
        );
    }
    let mut metrics = Vec::new();
    for (name, unit) in &declared {
        let value = outcome.metrics.iter().find(|(n, _)| n == name).map(|m| m.1);
        // End-to-end metrics are measured on every workload; a per-layer
        // metric of a layer this workload does not exercise reads 0.
        assert!(
            args.trace || value.is_some(),
            "end-to-end metric {name} not measured"
        );
        metrics.push((
            name.clone(),
            Json::obj(vec![
                ("value", Json::from(value.unwrap_or(0.0))),
                ("unit", Json::str(unit.as_str())),
            ]),
        ));
    }
    println!(
        "fail_ratio = {} ({} of {} ops failed)",
        stats::ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    println!(
        "process wall {:.3} s",
        process_start.elapsed().as_secs_f64()
    );
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::from(correct)),
            ("attempted", Json::from(outcome.attempted)),
            ("failed", Json::from(outcome.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    );
    if !correct {
        std::process::exit(1);
    }
}
