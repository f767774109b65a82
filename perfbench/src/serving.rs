//! `serve-mixed`: a closed loop with one client sending batches of 8
//! requests through `SimServer::serve`; the server has 2 workers and a
//! `LatencyLut` attached.
//!
//! The traffic mix is fixed: R101 3×3 slot shapes, both devices, all three
//! ladder rungs and op families, with Zipf popularity over a catalog so
//! that about half the requests repeat an earlier one. About a quarter of
//! the catalog targets the accel backend and about a quarter carries a
//! deadline sized from the LUT estimate, some below it so that a few trip.
//! Cache capacity sits below the distinct working set, so inserts and
//! evictions run beside hits. The workload seed draws every request's
//! input data (its `RequestPolicy::seed`), so each seed offers the same
//! load on different data. An op is one session: the whole stream through
//! a fresh server, so every session does the same work and its response
//! contents are checked exactly.
//!
//! Chosen because it is the only workload through admission, cache reads
//! and writes, the breaker, deadline replay and `accel`.

use crate::stats::{self, LaunchStats};
use crate::{guarded, refs, traced_op, Args, Budget, Outcome};
use defcon_core::lut::{LatencyKey, LatencyLut};
use defcon_core::serve::{
    fnv1a64, RequestPolicy, ServeConfig, ServeDevice, ServeOutcome, SimRequest, SimResponse,
    SimServer,
};
use defcon_gpusim::{DeviceConfig, Gpu, SamplePolicy};
use defcon_kernels::backend::BackendKind;
use defcon_kernels::op::OffsetPredictorKind;
use defcon_kernels::{DeformLayerShape, OpFamily, SamplingMethod};
use defcon_models::zoo::{resnet_3x3_slots, DcnLayout};
use defcon_support::breaker::BreakerConfig;
use defcon_support::retry::RetryPolicy;
use defcon_support::rng::{Rng, SeedableRng, StdRng};
use std::collections::BTreeSet;
use std::time::Instant;

const BATCH: usize = 8;
const SESSION_BATCHES: usize = 12;
/// Distinct requests the stream draws from.
const CATALOG: usize = 96;
/// Zipf exponent of catalog popularity.
const ZIPF_S: f64 = 0.8;
/// Engine block budget of every request.
const MAX_BLOCKS: usize = 16;
/// Deadline as a multiple of the LUT estimate; below 1 trips at preflight.
const DEADLINE_FACTORS: [f64; 4] = [0.5, 2.0, 2.0, 8.0];
const WORKERS: usize = 2;
/// Seed of the traffic-mix generator (not the workload seed).
const MIX_SEED: u64 = 0x5E2F_E3D1;

fn server_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        queue_capacity: 6,
        cache_capacity: 24,
        retry: RetryPolicy::default(),
        default_deadline_cycles: 0,
        breaker: BreakerConfig::default(),
    }
}

pub struct Setup {
    lut: LatencyLut,
    stream: Vec<SimRequest>,
    lut_s: f64,
}

pub fn setup(seed: u64) -> Setup {
    let gpu = Gpu::with_policy(
        DeviceConfig::xavier_agx(),
        SamplePolicy {
            max_blocks: MAX_BLOCKS,
            threads: 2,
        },
    );
    let mut shapes: Vec<DeformLayerShape> = Vec::new();
    for slot in resnet_3x3_slots(101, DcnLayout::None) {
        if !shapes.contains(&slot.shape) {
            shapes.push(slot.shape);
        }
    }
    let keys: Vec<LatencyKey> = shapes.iter().map(LatencyKey::of).collect();
    let (lut, lut_s) = stats::timed("bench.lut_build", || {
        LatencyLut::build(
            &gpu,
            &keys,
            SamplingMethod::SoftwareBilinear,
            OffsetPredictorKind::Standard,
        )
    });
    let stream = request_stream(seed, &shapes, &lut);
    Setup { lut, stream, lut_s }
}

/// The session's requests: a catalog of distinct requests drawn with Zipf
/// popularity. The mix comes from a fixed generator; `seed` only picks
/// each catalog entry's input data.
fn request_stream(seed: u64, shapes: &[DeformLayerShape], lut: &LatencyLut) -> Vec<SimRequest> {
    let mut rng = StdRng::seed_from_u64(MIX_SEED);
    let devices = ServeDevice::all();
    let rungs = SamplingMethod::ladder();
    let families = OpFamily::all();
    let mut catalog: Vec<SimRequest> = Vec::with_capacity(CATALOG);
    let mut seen = BTreeSet::new();
    while catalog.len() < CATALOG {
        let rank = catalog.len();
        let device = devices[rng.gen_range(0..devices.len())];
        let layer = shapes[rng.gen_range(0..shapes.len())];
        let factor = DEADLINE_FACTORS[rng.gen_range(0..DEADLINE_FACTORS.len())];
        let deadline_cycles = if rank % 4 == 2 {
            let entry = lut
                .get(&LatencyKey::of(&layer))
                .expect("every slot shape is tabulated");
            let est_cycles = entry.deform_ms * device.config().core_clock_ghz * 1e6;
            ((est_cycles * factor) as u64).max(1)
        } else {
            0
        };
        let req = SimRequest {
            device,
            layer,
            kernel_family: rungs[rng.gen_range(0..rungs.len())],
            op_family: families[rng.gen_range(0..families.len())],
            backend: if rank % 4 == 1 {
                BackendKind::Accel
            } else {
                BackendKind::Gpusim
            },
            policy: RequestPolicy {
                max_blocks: MAX_BLOCKS,
                seed: fnv1a64(format!("{seed}/{rank}").as_bytes()),
                spread_milli: 4000,
                deadline_cycles,
            },
        };
        if seen.insert(req.canonical_string()) {
            catalog.push(req);
        }
    }
    let weights: Vec<f64> = (0..CATALOG)
        .map(|i| 1.0 / ((i + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    (0..BATCH * SESSION_BATCHES)
        .map(|_| {
            let mut u = rng.gen_range(0.0..total);
            let mut i = 0;
            while i + 1 < CATALOG && u >= weights[i] {
                u -= weights[i];
                i += 1;
            }
            catalog[i].clone()
        })
        .collect()
}

/// Everything one session produced.
struct Session {
    responses: Vec<SimResponse>,
    /// Per response: wall seconds of the `serve` call that carried it.
    latency: Vec<f64>,
    wall: f64,
    hits: u64,
    misses: u64,
    evictions: u64,
    sheds: u64,
    degraded_admissions: u64,
    retries: u64,
    deadline_exceeded: u64,
}

fn session(setup: &Setup) -> Session {
    let mut server = SimServer::new(server_config()).with_lut(setup.lut.clone());
    let mut responses = Vec::with_capacity(setup.stream.len());
    let mut latency = Vec::with_capacity(setup.stream.len());
    let t0 = Instant::now();
    for batch in setup.stream.chunks(BATCH) {
        let (r, secs) = stats::timed("bench.serve", || server.serve(batch));
        latency.extend(std::iter::repeat_n(secs, r.len()));
        responses.extend(r);
    }
    let cache = server.cache();
    Session {
        wall: t0.elapsed().as_secs_f64(),
        responses,
        latency,
        hits: cache.hits(),
        misses: cache.misses(),
        evictions: cache.evictions(),
        sheds: server.sheds(),
        degraded_admissions: server.degraded_admissions(),
        retries: server.retries(),
        deadline_exceeded: server.deadline_exceeded(),
    }
}

fn outcome_index(o: ServeOutcome) -> usize {
    match o {
        ServeOutcome::Served => 0,
        ServeOutcome::Shed => 1,
        ServeOutcome::DeadlineExceeded => 2,
        ServeOutcome::Failed => 3,
    }
}

/// Digest of the sorted response contents, and the outcome counts in
/// `ServeOutcome` order (served, shed, deadline-exceeded, failed).
fn fingerprint(s: &Session) -> (u64, Vec<u64>) {
    let mut contents: Vec<String> = s
        .responses
        .iter()
        .map(SimResponse::content_string)
        .collect();
    contents.sort();
    let mut outcomes = vec![0u64; 4];
    for r in &s.responses {
        outcomes[outcome_index(r.outcome)] += 1;
    }
    (fnv1a64(contents.join("\n").as_bytes()), outcomes)
}

/// A response the server simulated fresh (not a hit, not a terminal
/// verdict).
fn is_fresh_miss(r: &SimResponse) -> bool {
    !r.from_cache && r.outcome == ServeOutcome::Served
}

/// Per-layer numbers of the traced sessions, from `SimResponse` fields and
/// the server and cache counters.
#[derive(Default)]
struct LayerSample {
    sessions: u64,
    miss_ns: Vec<f64>,
    hit_ns: Vec<f64>,
    wait_s: Vec<f64>,
    accel_miss_ns: Vec<f64>,
    gpusim_miss_ns: f64,
    busy: f64,
    degradations: u64,
    sim_ms: f64,
    hits: u64,
    misses: u64,
    evictions: u64,
    sheds: u64,
    degraded_admissions: u64,
    retries: u64,
    deadline_exceeded: u64,
    launches: LaunchStats,
}

impl LayerSample {
    fn add(&mut self, s: &Session) {
        let mut gpusim_reports = Vec::new();
        let mut busy = 0.0;
        for (r, &lat) in s.responses.iter().zip(&s.latency) {
            let own = r.latency_ns as f64;
            self.wait_s.push(lat - own / 1e9);
            self.degradations += r.degradations.len() as u64;
            self.sim_ms += r.reports.iter().map(|k| k.time_ms).sum::<f64>();
            if r.from_cache {
                self.hit_ns.push(own);
            } else if is_fresh_miss(r) {
                self.miss_ns.push(own);
                busy += own / 1e9;
                if r.request.backend == BackendKind::Accel {
                    self.accel_miss_ns.push(own);
                } else {
                    self.gpusim_miss_ns += own;
                    gpusim_reports.extend(r.reports.iter());
                }
            }
        }
        self.launches.add_reports(gpusim_reports);
        self.busy += busy / (WORKERS as f64 * s.wall);
        self.sessions += 1;
        self.hits += s.hits;
        self.misses += s.misses;
        self.evictions += s.evictions;
        self.sheds += s.sheds;
        self.degraded_admissions += s.degraded_admissions;
        self.retries += s.retries;
        self.deadline_exceeded += s.deadline_exceeded;
    }

    fn metrics(&self, out: &mut Vec<(String, f64)>) {
        let per_session = |v: f64| stats::ratio(v, self.sessions as f64);
        self.launches.metrics(out);
        let blocks = self.launches.sampled_blocks as f64;
        let metrics = [
            (
                "gpusim.us_per_block",
                stats::ratio(self.gpusim_miss_ns / 1e3, blocks),
            ),
            ("gpusim.sim_ms", per_session(self.sim_ms)),
            (
                "serve.hit_ratio",
                stats::ratio(self.hits as f64, (self.hits + self.misses) as f64),
            ),
            ("serve.miss_ms", stats::median(&self.miss_ns) / 1e6),
            ("serve.hit_us", stats::median(&self.hit_ns) / 1e3),
            ("serve.wait_ms", stats::median(&self.wait_s) * 1e3),
            ("serve.worker_busy", per_session(self.busy)),
            ("serve.evictions", per_session(self.evictions as f64)),
            ("serve.sheds", per_session(self.sheds as f64)),
            (
                "serve.degraded_admissions",
                per_session(self.degraded_admissions as f64),
            ),
            ("serve.retries", per_session(self.retries as f64)),
            (
                "serve.deadline_exceeded",
                per_session(self.deadline_exceeded as f64),
            ),
            (
                "kernels.degradations",
                per_session(self.degradations as f64),
            ),
            ("accel.miss_ms", stats::median(&self.accel_miss_ns) / 1e6),
        ];
        for (name, value) in metrics {
            out.push((name.into(), value));
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let setup = setup(args.seed);
    let distinct: BTreeSet<String> = setup
        .stream
        .iter()
        .map(SimRequest::canonical_string)
        .collect();
    let requests = setup.stream.len();
    let repeat_share = stats::ratio((requests - distinct.len()) as f64, requests as f64);
    let accel = setup
        .stream
        .iter()
        .filter(|r| r.backend == BackendKind::Accel)
        .count();
    let deadlines = setup
        .stream
        .iter()
        .filter(|r| r.policy.deadline_cycles != 0)
        .count();
    let pinned = refs::serve_session(args.seed);
    let cfg = server_config();
    println!(
        "  session: {requests} requests in batches of {BATCH}, {} distinct, {accel} to accel, \
         {deadlines} with deadlines; server {} workers, queue {}, cache {}, {} LUT keys",
        distinct.len(),
        cfg.workers,
        cfg.queue_capacity,
        cfg.cache_capacity,
        setup.lut.len()
    );
    println!(
        "  serve.repeat_share = {repeat_share:.4} ({} of {requests} requests repeat an earlier one)",
        requests - distinct.len()
    );
    println!(
        "  references: {}",
        if pinned.is_some() {
            "pinned for this seed"
        } else {
            "none pinned for this seed; every session must repeat the first"
        }
    );

    let mut out = Outcome::default();
    let budget = Budget::new(args.seconds);
    let mut session_secs = Vec::new();
    let mut untraced_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let mut latencies = Vec::new();
    let mut serve_wall = 0.0;
    let mut first: Option<(u64, Vec<u64>)> = None;
    let mut layers = LayerSample::default();
    let min_sessions = if args.trace { 2 } else { 1 };
    while budget.fits(session_secs.len(), min_sessions, &session_secs) {
        let traced = args.trace && session_secs.len() % 2 == 1;
        out.attempted += requests as u64;
        let (s, _) = traced_op(traced, || guarded("serve session", || session(&setup)));
        let Some(s) = s else {
            out.failed += requests as u64;
            session_secs.push(0.0);
            continue;
        };
        let fp = fingerprint(&s);
        // Lost requests and `Failed` outcomes are failed ops; so is every
        // request of a session whose contents differ from the reference.
        out.failed += requests.saturating_sub(s.responses.len()) as u64 + fp.1[3];
        let reference = pinned.clone().or(first.clone());
        if reference.as_ref().is_some_and(|r| *r != fp) {
            eprintln!(
                "perfbench: session digest {} outcomes {:?} differ from the reference {:?}",
                refs::to_hex(fp.0),
                fp.1,
                reference
            );
            out.failed += requests as u64;
        }
        first.get_or_insert(fp);
        session_secs.push(s.wall);
        if traced {
            traced_secs.push(s.wall);
            layers.add(&s);
        } else {
            untraced_secs.push(s.wall);
            latencies.extend_from_slice(&s.latency);
            serve_wall += s.wall;
        }
    }
    let (digest, outcomes) = first.unwrap_or_default();
    println!(
        "  session digest {} outcomes served/shed/deadline/failed {:?}",
        refs::to_hex(digest),
        outcomes
    );
    if args.emit_refs {
        println!(
            "refs: \"{}\": {{\"digest\": \"{}\", \"outcomes\": {:?}}}",
            args.seed,
            refs::to_hex(digest),
            outcomes
        );
    }

    if args.trace {
        println!(
            "  per-layer serve/accel/kernels numbers come from SimResponse fields and the \
             SimServer and ReportCache counters: support::obs drops worker-thread spans"
        );
        layers.metrics(&mut out.metrics);
        let overhead = stats::ratio(stats::median(&traced_secs), stats::median(&untraced_secs));
        out.metrics.extend([
            ("serve.repeat_share".into(), repeat_share),
            ("lut.build_s".into(), setup.lut_s),
            ("obs.trace_overhead".into(), overhead),
        ]);
        let l = &layers.launches;
        println!(
            "  gpusim.launch_repeat_share = {:.4} ({} of {} fresh gpusim launches over {} sessions repeat)",
            l.repeat_share(),
            l.repeats,
            l.launches,
            l.ops
        );
        for (name, value) in &out.metrics {
            println!("  {name} = {value}");
        }
        return out;
    }

    println!("  gpusim.launch_repeat_share: measured by the traced run (--trace 1)");
    let tail = stats::tail(&latencies);
    let (rps, p50_ms) = (
        stats::ratio(latencies.len() as f64, serve_wall),
        stats::median(&latencies) * 1e3,
    );
    let metrics = [
        ("op_s", stats::median(&untraced_secs)),
        ("req_per_s", rps),
        ("p50_ms", p50_ms),
        ("tail_ms", tail.value * 1e3),
        ("peak_rss_mb", stats::peak_rss_mib()),
    ];
    println!(
        "  serve_rps = {rps:.3} req/s, serve_p50_ms = {p50_ms:.3}, serve_tail_ms = {:.3} \
         (p{:.1} of {} requests, {} beyond), {} sessions",
        tail.value * 1e3,
        tail.percentile,
        tail.samples,
        tail.beyond,
        untraced_secs.len()
    );
    for (name, value) in metrics {
        println!("  {name} = {value}");
        out.metrics.push((name.into(), value));
    }
    out
}
