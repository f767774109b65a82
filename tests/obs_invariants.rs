//! Metamorphic invariants of the observability layer (`support::obs`),
//! exercised end to end through the simulator and the kernel fallback
//! ladder. These are relations that must hold between *parts* of one trace
//! — no golden files, no magic numbers.
//!
//! Arming obs is process-global, so every test here arms (or quiesces) the
//! layer; the arming lock serializes them. Tests that also arm the fault
//! harness always take the obs lock **first** — one fixed order means the
//! two independent arming locks can never deadlock.

use defcon::gpusim::{DeviceConfig, Gpu, SamplePolicy};
use defcon::kernels::im2col::{Im2colDeformKernel, Sampling};
use defcon::kernels::op::{synthetic_inputs, DeformConvOp, SamplingMethod};
use defcon::kernels::{DeformLayerShape, TileConfig};
use defcon::tensor::sample::OffsetTransform;
use defcon_support::fault::{self, FaultPlan, Schedule};
use defcon_support::obs::{self, find_spans, ObsConfig, SpanNode};

/// A small deformable layer whose launch splits into several bands at
/// `threads = 4` without sampling (grid ≤ the default 96-block cap). Owns
/// the inputs the kernel borrows.
struct Layer {
    shape: DeformLayerShape,
    x: defcon::tensor::Tensor,
    off: defcon::tensor::Tensor,
}

fn layer(h: usize, w: usize) -> Layer {
    let shape = DeformLayerShape::same3x3(8, 8, h, w);
    let (x, off) = synthetic_inputs(&shape, 2.0, 21);
    Layer { shape, x, off }
}

impl Layer {
    fn kernel(&self) -> Im2colDeformKernel<'_> {
        let cfg = DeviceConfig::xavier_agx();
        Im2colDeformKernel::new(
            self.shape,
            TileConfig::default16(),
            &self.x,
            &self.off,
            OffsetTransform::Identity,
            Sampling::Software,
            cfg.max_texture_layers,
            cfg.max_texture_dim,
        )
        .unwrap()
    }
}

fn gpu(threads: usize, max_blocks: usize) -> Gpu {
    let policy = SamplePolicy {
        max_blocks,
        ..SamplePolicy::default()
    }
    .with_threads(threads);
    Gpu::with_policy(DeviceConfig::xavier_agx(), policy)
}

/// Structural nesting on the logical clock: every child span lies inside
/// its parent's `[ts, ts + dur]` window and siblings' durations sum to no
/// more than the parent's (each event consumes one tick, so a parent's
/// duration strictly bounds everything recorded inside it).
fn assert_nesting(span: &SpanNode) {
    let mut child_total = 0u64;
    for c in &span.children {
        if !c.instant {
            assert!(
                c.ts >= span.ts && c.ts + c.dur <= span.ts + span.dur,
                "child '{}' [{}, {}] escapes parent '{}' [{}, {}]",
                c.name,
                c.ts,
                c.ts + c.dur,
                span.name,
                span.ts,
                span.ts + span.dur
            );
            child_total += c.dur;
        }
        assert_nesting(c);
    }
    assert!(
        child_total <= span.dur,
        "'{}': child durations {} exceed parent {}",
        span.name,
        child_total,
        span.dur
    );
}

#[test]
fn child_spans_nest_and_band_cycles_sum_to_launch() {
    let _obs = obs::arm(ObsConfig::default());
    let _quiet = fault::quiesce();
    let l = layer(48, 48);
    gpu(4, usize::MAX).launch(&l.kernel());
    let forest = obs::snapshot();
    for root in &forest {
        assert_nesting(root);
    }
    let launches = find_spans(&forest, "gpusim.launch");
    assert_eq!(launches.len(), 1);
    let launch = launches[0];
    let bands: Vec<&SpanNode> = launch
        .children
        .iter()
        .filter(|c| c.name == "gpusim.band")
        .collect();
    assert!(
        bands.len() >= 2,
        "want a multi-band launch, got {}",
        bands.len()
    );
    // The launch's cycle total is exactly the band sum (bands are modeled
    // back to back on the SM pool), and each band's measured child repeats
    // that band's cycles — so measured ≤ band ≤ launch transitively.
    let band_sum: f64 = bands
        .iter()
        .map(|b| b.num_arg("cycles").expect("band has cycles"))
        .sum();
    let launch_cycles = launch.num_arg("cycles").expect("launch has cycles");
    assert!((band_sum - launch_cycles).abs() <= 1e-9 * launch_cycles.max(1.0));
    for b in &bands {
        let measured = find_spans(std::slice::from_ref(*b), "gpusim.band.measured");
        assert_eq!(measured.len(), 1);
        let mc = measured[0].num_arg("cycles").expect("measured has cycles");
        let bc = b.num_arg("cycles").unwrap();
        assert!(mc <= bc + 1e-12, "measured cycles {mc} exceed band {bc}");
    }
}

#[test]
fn per_band_gauges_recombine_to_the_report_aggregate() {
    let _obs = obs::arm(ObsConfig::default());
    let _quiet = fault::quiesce();
    // Unsampled launch: scale is the exact identity, so the registry (fed
    // pre-scale) and the report (post-scale) must agree *exactly*.
    let l = layer(48, 48);
    let report = gpu(4, usize::MAX).launch(&l.kernel());
    let forest = obs::snapshot();
    let launch = find_spans(&forest, "gpusim.launch")[0];
    let bands: Vec<&SpanNode> = launch
        .children
        .iter()
        .filter(|c| c.name == "gpusim.band")
        .collect();
    assert!(bands.len() >= 2);
    for (rate, hits, accesses, rep_hits, rep_accesses) in [
        (
            "gpusim.l1_hit_rate",
            "l1_hits",
            "l1_accesses",
            report.counters.l1_hits,
            report.counters.l1_accesses,
        ),
        (
            "gpusim.tex_hit_rate",
            "tex_hits",
            "tex_line_accesses",
            report.counters.tex_hits,
            report.counters.tex_line_accesses,
        ),
        (
            "gpusim.l2_hit_rate",
            "l2_hits",
            "l2_accesses",
            report.counters.l2_hits,
            report.counters.l2_accesses,
        ),
    ] {
        let h: u64 = bands.iter().map(|b| b.u64_arg(hits).unwrap()).sum();
        let a: u64 = bands.iter().map(|b| b.u64_arg(accesses).unwrap()).sum();
        // Band sums == report counters (identity scale) == registry gauge.
        assert_eq!(h, rep_hits, "{hits}: band sum vs report");
        assert_eq!(a, rep_accesses, "{accesses}: band sum vs report");
        let want = if a == 0 { 0.0 } else { h as f64 / a as f64 };
        let gauge = obs::gauge(rate).unwrap_or_else(|| panic!("gauge '{rate}' missing"));
        assert_eq!(gauge, want, "{rate}: gauge vs band recombination");
    }
}

#[test]
fn sampled_launch_gauges_match_scaled_report_within_rounding() {
    let _obs = obs::arm(ObsConfig::default());
    let _quiet = fault::quiesce();
    // Sampled launch (9 blocks, cap 4): the report's counters are scaled by
    // 9/4 with per-counter rounding, so its hit rates may drift from the
    // pre-scale registry gauges — but only by the rounding, never more.
    let l = layer(48, 48);
    let report = gpu(1, 4).launch(&l.kernel());
    assert!(report.grid_blocks > report.simulated_blocks, "not sampled");
    for (gauge_name, rep_rate) in [
        ("gpusim.l1_hit_rate", report.counters.l1_hit_rate()),
        ("gpusim.tex_hit_rate", report.counters.tex_hit_rate()),
        ("gpusim.l2_hit_rate", report.counters.l2_hit_rate()),
    ] {
        let gauge = obs::gauge(gauge_name).unwrap_or_else(|| panic!("gauge '{gauge_name}'"));
        assert!(
            (gauge - rep_rate).abs() <= 1e-3,
            "{gauge_name}: pre-scale {gauge} vs scaled report {rep_rate}"
        );
    }
}

#[test]
fn counter_registry_accumulates_linearly_across_launches() {
    let _obs = obs::arm(ObsConfig::default());
    let _quiet = fault::quiesce();
    let l = layer(24, 24);
    let k = l.kernel();
    let g = gpu(1, usize::MAX);
    g.launch(&k);
    let after_one = obs::counter("gpusim.flops");
    assert!(after_one > 0, "launch recorded no flops");
    g.launch(&k);
    assert_eq!(
        obs::counter("gpusim.flops"),
        2 * after_one,
        "two identical launches must add identical counter deltas"
    );
}

/// The fallback ladder emits `kernels.fallback` events **iff** something
/// actually degraded — here, only when the fault harness forces texture
/// builds to fail. Both directions of the iff are checked.
#[test]
fn fallback_events_fire_iff_a_fault_forced_the_downgrade() {
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    let shape = DeformLayerShape::same3x3(16, 16, 12, 12);
    let (x, offsets) = synthetic_inputs(&shape, 4.0, 9);
    let op = DeformConvOp {
        method: SamplingMethod::Tex2dPlusPlus,
        ..DeformConvOp::baseline(shape)
    };

    // No fault armed: the first rung carries the launch, zero events.
    {
        let _obs = obs::arm(ObsConfig::default());
        let _quiet = fault::quiesce();
        let fb = op
            .simulate_deform_with_fallback(&gpu, &x, &offsets)
            .unwrap();
        assert_eq!(fb.method, SamplingMethod::Tex2dPlusPlus);
        let forest = obs::snapshot();
        let ladder = find_spans(&forest, "kernels.fallback_ladder");
        assert_eq!(ladder.len(), 1);
        assert_eq!(ladder[0].str_arg("requested"), Some("tex2D++"));
        assert_eq!(ladder[0].str_arg("selected"), Some("tex2D++"));
        assert_eq!(ladder[0].u64_arg("degradations"), Some(0));
        assert!(
            find_spans(&forest, "kernels.fallback").is_empty(),
            "no degradation happened, yet fallback events were emitted"
        );
    }

    // Fault armed (obs lock first, then fault — the fixed order): every
    // texture build fails, both texture rungs degrade, and the trace shows
    // exactly one event per degradation.
    {
        let _obs = obs::arm(ObsConfig::default());
        let _armed = fault::arm(FaultPlan::new(61).point("texture.limit", Schedule::Always));
        let fb = op
            .simulate_deform_with_fallback(&gpu, &x, &offsets)
            .unwrap();
        assert_eq!(fb.method, SamplingMethod::SoftwareBilinear);
        assert_eq!(fb.degradations.len(), 2);
        let forest = obs::snapshot();
        let ladder = find_spans(&forest, "kernels.fallback_ladder");
        assert_eq!(ladder.len(), 1);
        assert_eq!(ladder[0].str_arg("selected"), Some("PyTorch"));
        assert_eq!(ladder[0].u64_arg("degradations"), Some(2));
        let events = find_spans(&forest, "kernels.fallback");
        assert_eq!(events.len(), 2, "one event per degradation");
        assert_eq!(events[0].str_arg("from"), Some("tex2D++"));
        assert_eq!(events[1].str_arg("from"), Some("tex2D"));
        for e in &events {
            assert!(e.instant, "fallback must be an instant event");
        }
    }
}

/// Every serving response is traced exactly once, whichever admission path
/// produced it: drained from the queue (miss, hit, launch-deadline verdict),
/// degraded one rung and served inline, terminally shed at the software
/// floor, or deadline-exceeded by retry backoff alone. One `serve.request`
/// span per response, in response order; one `serve.deadline` event per
/// `DeadlineExceeded` response; and the `serve.requests` counter agrees
/// with the server's own count.
#[test]
fn every_serving_response_is_traced_once_whatever_its_path() {
    use defcon::core::serve::{
        RequestPolicy, ServeConfig, ServeDevice, ServeOutcome, SimRequest, SimServer,
    };
    use defcon::kernels::backend::BackendKind;
    use defcon::kernels::op::OpFamily;
    let req = |c: usize, kernel_family: SamplingMethod, deadline_cycles: u64| SimRequest {
        device: ServeDevice::XavierAgx,
        layer: DeformLayerShape::same3x3(c, c, 8, 8),
        kernel_family,
        op_family: OpFamily::DcnV1,
        backend: BackendKind::Gpusim,
        policy: RequestPolicy {
            max_blocks: 16,
            deadline_cycles,
            ..RequestPolicy::default()
        },
    };
    let _obs = obs::arm(ObsConfig::default());
    let mut server = SimServer::new(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 16,
        ..ServeConfig::default()
    });
    // Through the queue: a miss, a one-cycle budget that trips at the
    // first launch, then the miss repeated (a hit).
    let mut out = {
        let _quiet = fault::quiesce();
        let mut out = server.serve(&[
            req(4, SamplingMethod::Tex2d, 0),
            req(2, SamplingMethod::SoftwareBilinear, 1),
        ]);
        out.extend(server.serve(&[req(4, SamplingMethod::Tex2d, 0)]));
        out
    };
    // Every admission shed (obs lock first, then fault): a texture request
    // degrades and is served inline, a software request is terminally
    // shed, and a one-cycle budget is spent by the first retry backoff.
    {
        let _armed = fault::arm(FaultPlan::new(85).point("serve.enqueue", Schedule::Always));
        out.extend(server.serve(&[
            req(6, SamplingMethod::Tex2d, 0),
            req(6, SamplingMethod::SoftwareBilinear, 0),
            req(6, SamplingMethod::Tex2dPlusPlus, 1),
        ]));
    }
    assert_eq!(out.len(), 6);
    assert_eq!(out[1].outcome, ServeOutcome::DeadlineExceeded);
    assert!(out[2].from_cache);
    assert!(out[3].degraded_admission);
    assert_eq!(out[3].outcome, ServeOutcome::Served);
    assert_eq!(out[4].outcome, ServeOutcome::Shed);
    assert_eq!(out[5].outcome, ServeOutcome::DeadlineExceeded);
    assert!(out[5]
        .error
        .as_deref()
        .is_some_and(|e| e.contains("serve backoff")));

    let forest = obs::snapshot();
    let requests = find_spans(&forest, "serve.request");
    assert_eq!(
        requests.len(),
        out.len(),
        "one serve.request span per response"
    );
    for (span, resp) in requests.iter().zip(&out) {
        assert_eq!(
            span.str_arg("key"),
            Some(format!("{:016x}", resp.key).as_str())
        );
    }
    let exceeded = out
        .iter()
        .filter(|r| r.outcome == ServeOutcome::DeadlineExceeded)
        .count();
    assert_eq!(find_spans(&forest, "serve.deadline").len(), exceeded);
    assert_eq!(obs::counter("serve.requests"), server.served());
    assert_eq!(server.served(), out.len() as u64);
}
