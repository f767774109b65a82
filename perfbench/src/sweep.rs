//! `layer-sweep`: the six Table II layers on the Xavier model, crossed
//! with {software im2col+GEMM, tex2D, tex2D++} and {DCNv1, v2, v3}.
//!
//! An op is one full pass over the lattice. Each cell is one
//! `DeformConvOp::simulate_deform` on offsets and modulation seeded from
//! the workload seed and the cell's layer and family; each (layer, family)
//! also times its offset-predicting convolution, so a layer's simulated
//! total is Table II's quantity. The engine runs at two threads, the
//! band-parallel path that `net-yolact` does not take.
//!
//! Chosen because deformable sampling and fused texture kernels do most of
//! the work and almost no launch repeats: it shows hot-path and
//! operator-family work, and it is the bypass case for a launch memo.

use crate::stats::{self, LaunchStats};
use crate::{guarded, refs, traced_op, Args, Budget, Outcome};
use defcon_core::serve::fnv1a64;
use defcon_gpusim::{DeviceConfig, Gpu, KernelReport, SamplePolicy};
use defcon_kernels::op::{synthetic_inputs, synthetic_modulation};
use defcon_kernels::{paper_layer_sweep, DeformConvOp, DeformLayerShape, OpFamily, SamplingMethod};
use defcon_support::json::ToJson;
use defcon_tensor::Tensor;
use std::collections::BTreeMap;

/// Paper Table II: tex2D++ over PyTorch speedups span 1.33–1.41×.
const PAPER_BAND: (f64, f64) = (1.33, 1.41);

fn method_key(m: SamplingMethod) -> &'static str {
    match m {
        SamplingMethod::SoftwareBilinear => "software",
        SamplingMethod::Tex2d => "tex2d",
        SamplingMethod::Tex2dPlusPlus => "tex2dpp",
    }
}

/// The inputs of one (layer, family): activations, offsets and modulation.
struct CellInputs {
    shape: DeformLayerShape,
    family: OpFamily,
    x: Tensor,
    offsets: Tensor,
    modulation: Option<Tensor>,
}

pub struct Setup {
    gpu: Gpu,
    layers: Vec<DeformLayerShape>,
    inputs: Vec<CellInputs>,
    /// Host seconds spent in `synthetic_inputs` + `synthetic_modulation`.
    inputs_s: f64,
}

pub fn setup(seed: u64) -> Setup {
    let layers = paper_layer_sweep();
    let (inputs, inputs_s) = stats::timed("bench.synthetic_inputs", || {
        let mut inputs = Vec::new();
        for (li, &shape) in layers.iter().enumerate() {
            for family in OpFamily::all() {
                let s = cell_seed(seed, li, family);
                let (x, offsets) = synthetic_inputs(&shape, 4.0, s);
                let modulation = synthetic_modulation(&shape, family, s);
                inputs.push(CellInputs {
                    shape,
                    family,
                    x,
                    offsets,
                    modulation,
                });
            }
        }
        inputs
    });
    Setup {
        gpu: Gpu::with_policy(
            DeviceConfig::xavier_agx(),
            SamplePolicy {
                max_blocks: 96,
                threads: 2,
            },
        ),
        layers,
        inputs,
        inputs_s,
    }
}

/// Seed of one (layer, family) input set.
fn cell_seed(seed: u64, layer: usize, family: OpFamily) -> u64 {
    fnv1a64(format!("{seed}/{layer}/{}", family.name()).as_bytes())
}

fn layer_id(s: &DeformLayerShape) -> String {
    format!("{}x{}x{}", s.c_in, s.c_out, s.h)
}

fn digest(reports: &[KernelReport]) -> u64 {
    let text: Vec<String> = reports.iter().map(|r| r.to_json().to_string()).collect();
    fnv1a64(text.join("\n").as_bytes())
}

/// Everything one pass produced.
#[derive(Default)]
struct Pass {
    /// Cell id → report digest.
    digests: BTreeMap<String, u64>,
    /// Cell id → simulated ms (offset-conv cells included).
    sim_ms: BTreeMap<String, f64>,
    /// Host seconds of each `simulate_deform` call.
    cell_secs: Vec<f64>,
    reports: Vec<KernelReport>,
    failed: u64,
    attempted: u64,
}

impl Pass {
    fn record(&mut self, id: String, reports: Option<Vec<KernelReport>>) {
        self.attempted += 1;
        match reports {
            Some(r) => {
                self.digests.insert(id.clone(), digest(&r));
                self.sim_ms.insert(id, r.iter().map(|k| k.time_ms).sum());
                self.reports.extend(r);
            }
            None => self.failed += 1,
        }
    }
}

fn pass(setup: &Setup) -> Pass {
    let mut p = Pass::default();
    for c in &setup.inputs {
        let op = DeformConvOp {
            family: c.family,
            modulation: c.modulation.clone(),
            ..DeformConvOp::baseline(c.shape)
        };
        let base = format!("{}/{}", layer_id(&c.shape), c.family.name());
        let (reports, _) = stats::timed("bench.simulate_offset_conv", || {
            guarded("simulate_offset_conv", || {
                op.simulate_offset_conv(&setup.gpu)
            })
        });
        p.record(format!("{base}/offset_conv"), reports);
        for method in SamplingMethod::ladder() {
            let op = DeformConvOp {
                method,
                ..op.clone()
            };
            let name = format!("bench.simulate_deform.{}", method_key(method));
            let (reports, secs) = stats::timed(&name, || {
                guarded("simulate_deform", || {
                    op.simulate_deform(&setup.gpu, &c.x, &c.offsets)
                })
            });
            p.cell_secs.push(secs);
            p.record(format!("{base}/{}", method_key(method)), reports);
        }
    }
    p
}

/// Counts the cells of `got` whose digest differs from `want` (a cell that
/// failed outright is already counted by its pass).
fn mismatches(got: &BTreeMap<String, u64>, want: &BTreeMap<String, u64>) -> u64 {
    let bad: Vec<&String> = got
        .iter()
        .filter(|(id, d)| want.get(*id) != Some(d))
        .map(|(id, _)| id)
        .collect();
    for id in &bad {
        eprintln!("perfbench: cell {id} differs from the reference");
    }
    bad.len() as u64
}

pub fn run(args: &Args) -> Outcome {
    let setup = setup(args.seed);
    let pinned = refs::sweep_cells(args.seed);
    println!(
        "  {} layers x 3 methods x 3 families, engine threads 2, references: {}",
        setup.layers.len(),
        if pinned.is_some() {
            "pinned for this seed"
        } else {
            "none pinned for this seed; every pass must repeat the first"
        }
    );
    let mut out = Outcome::default();
    let budget = Budget::new(args.seconds);
    let mut pass_secs = Vec::new();
    let mut untraced_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let mut cells = Vec::new();
    let mut first: Option<Pass> = None;
    let mut launches = LaunchStats::default();
    let mut report_launches = LaunchStats::default();
    let mut span_ms: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    let min_passes = if args.trace { 2 } else { 1 };
    while budget.fits(pass_secs.len(), min_passes, &pass_secs) {
        let traced = args.trace && pass_secs.len() % 2 == 1;
        let ((p, secs), forest) = traced_op(traced, || stats::timed("bench.pass", || pass(&setup)));
        out.attempted += p.attempted;
        out.failed += p.failed;
        let reference = pinned.as_ref().or(first.as_ref().map(|f| &f.digests));
        if let Some(want) = reference {
            out.failed += mismatches(&p.digests, want);
        }
        pass_secs.push(secs);
        report_launches.add_reports(&p.reports);
        if traced {
            traced_secs.push(secs);
            launches.add_spans(&forest);
            for key in [
                "bench.simulate_offset_conv",
                "bench.simulate_deform.software",
                "bench.simulate_deform.tex2d",
                "bench.simulate_deform.tex2dpp",
            ] {
                let (us, n) = stats::span_total_us(&forest, key);
                let e = span_ms.entry(key).or_default();
                e.0 += us / 1e3;
                e.1 += n;
            }
        } else {
            untraced_secs.push(secs);
            cells.extend_from_slice(&p.cell_secs);
        }
        first.get_or_insert(p);
    }
    let first = first.unwrap_or_default();

    if args.emit_refs {
        let body: Vec<String> = first
            .digests
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", refs::to_hex(*v)))
            .collect();
        println!("refs: \"{}\": {{{}}}", args.seed, body.join(", "));
    }
    accuracy_lines(&setup, &first);
    println!(
        "  gpusim.launch_repeat_share = {:.4} ({} of {} launches over {} passes repeat)",
        report_launches.repeat_share(),
        report_launches.repeats,
        report_launches.launches,
        report_launches.ops
    );
    println!("  serve.repeat_share: n/a (no serving requests)");

    let sim_ms: f64 = first.sim_ms.values().sum();
    if args.trace {
        launches.metrics(&mut out.metrics);
        out.metrics.push(("gpusim.sim_ms".into(), sim_ms));
        let per_call = |k: &str| {
            let (ms, n) = span_ms.get(k).copied().unwrap_or_default();
            stats::ratio(ms, n as f64)
        };
        for m in ["software", "tex2d", "tex2dpp"] {
            let v = per_call(&format!("bench.simulate_deform.{m}"));
            out.metrics.push((format!("kernels.deform_ms.{m}"), v));
        }
        out.metrics.push((
            "kernels.offset_conv_ms".into(),
            per_call("bench.simulate_offset_conv"),
        ));
        out.metrics
            .push(("tensor.inputs_ms".into(), setup.inputs_s * 1e3));
        let overhead = stats::ratio(stats::median(&traced_secs), stats::median(&untraced_secs));
        out.metrics.push(("obs.trace_overhead".into(), overhead));
        for line in launches.describe() {
            println!("{line}");
        }
        println!(
            "  obs.trace_overhead = {overhead:.4} (traced {} vs untraced {} passes)",
            traced_secs.len(),
            untraced_secs.len()
        );
        return out;
    }

    let sweep_s = stats::median(&pass_secs);
    let tail = stats::tail(&cells);
    let metrics = [
        ("op_s", sweep_s),
        (
            "req_per_s",
            stats::ratio(cells.len() as f64, pass_secs.iter().sum()),
        ),
        ("p50_ms", stats::median(&cells) * 1e3),
        ("tail_ms", tail.value * 1e3),
        ("peak_rss_mb", stats::peak_rss_mib()),
    ];
    println!(
        "  sweep_s = {sweep_s:.4} s ({} passes, {} cells, simulated {sim_ms:.4} sim-ms per pass)",
        pass_secs.len(),
        cells.len()
    );
    let each: Vec<String> = pass_secs.iter().map(|s| format!("{s:.3}")).collect();
    println!("  pass seconds in run order: {}", each.join(" "));
    println!(
        "  tail_ms: p{:.1} of {} cells, {} beyond",
        tail.percentile, tail.samples, tail.beyond
    );
    for (name, value) in metrics {
        println!("  {name} = {value}");
        out.metrics.push((name.into(), value));
    }
    out
}

/// Prints each layer's simulated tex2D++ over software speedup (offset
/// conv + deformable stage, as Table II times it) beside the paper's band.
fn accuracy_lines(setup: &Setup, p: &Pass) {
    println!(
        "  accuracy (informational, does not gate): simulated tex2D++/software speedup vs \
         paper Table II band {:.2}-{:.2}x; the model is otherwise unvalidated",
        PAPER_BAND.0, PAPER_BAND.1
    );
    for shape in &setup.layers {
        let mut row = format!("    {:>12}", layer_id(shape));
        for family in OpFamily::all() {
            let base = format!("{}/{}", layer_id(shape), family.name());
            let ms = |m: &str| {
                p.sim_ms
                    .get(&format!("{base}/offset_conv"))
                    .copied()
                    .unwrap_or(0.0)
                    + p.sim_ms.get(&format!("{base}/{m}")).copied().unwrap_or(0.0)
            };
            let speedup = stats::ratio(ms("software"), ms("tex2dpp"));
            row += &format!("  {} {speedup:.2}x", family.name());
        }
        println!("{row}   (paper {:.2}-{:.2}x)", PAPER_BAND.0, PAPER_BAND.1);
    }
}
