//! `net-yolact`: the whole YOLACT++ ResNet-50 network at 550² on the
//! Xavier model, through `models::zoo::simulate_network`.
//!
//! An op is one network; a run alternates the paper's YOLACT++ baseline
//! (interval-3 DCNs, software kernels) with full DEFCON (searched
//! placement, P = 7, lightweight offset conv, tex2D++), so every loop
//! step is one pair. The engine runs at one thread: totals are the
//! golden-path bytes, and the second core stays free.
//!
//! Chosen because this is where a user waits: rigid GEMM launches
//! dominate and most launches repeat an earlier one, so it is the
//! workload that shows a launch memo, faster rigid traces, or parallelism
//! across launches. The network inventory is fixed, so the seed does not
//! change the inputs.

use crate::stats::{self, LaunchStats};
use crate::{guarded, refs, traced_op, Args, Budget, Outcome};
use defcon_core::pipeline::{DefconConfig, TileChoice};
use defcon_gpusim::{DeviceConfig, Gpu, SamplePolicy};
use defcon_kernels::{SamplingMethod, TileConfig};
use defcon_models::zoo::{num_dcn, resnet_3x3_slots, simulate_network, DcnLayout, NetLayer};

struct Config {
    name: &'static str,
    slots: Vec<NetLayer>,
    cfg: DefconConfig,
}

pub struct Setup {
    gpu: Gpu,
    configs: [Config; 2],
}

pub fn setup() -> Setup {
    Setup {
        gpu: Gpu::with_policy(
            DeviceConfig::xavier_agx(),
            SamplePolicy {
                max_blocks: 96,
                threads: 1,
            },
        ),
        configs: [
            Config {
                name: "baseline",
                slots: resnet_3x3_slots(50, DcnLayout::Interval(3)),
                cfg: DefconConfig::baseline(),
            },
            Config {
                name: "defcon",
                slots: resnet_3x3_slots(50, DcnLayout::Searched),
                cfg: DefconConfig {
                    interval_search: true,
                    bounded: Some(7.0),
                    lightweight: true,
                    method: SamplingMethod::Tex2dPlusPlus,
                    tile: TileChoice::Fixed(TileConfig::default16()),
                    ..DefconConfig::baseline()
                },
            },
        ],
    }
}

pub fn run(args: &Args) -> Outcome {
    let setup = setup();
    for c in &setup.configs {
        println!(
            "  config {}: {} 3x3 slots, {} DCNs, {} sampling",
            c.name,
            c.slots.len(),
            num_dcn(&c.slots),
            c.cfg.method.name()
        );
    }
    let mut out = Outcome::default();
    let budget = Budget::new(args.seconds);
    // Per-config network seconds (untraced ops only), all network
    // seconds, and per-pair seconds split by tracing.
    let mut per_config: [Vec<f64>; 2] = Default::default();
    let mut networks = Vec::new();
    let mut pairs_untraced = Vec::new();
    let mut pairs_traced = Vec::new();
    let mut pair_secs = Vec::new();
    let mut launches = LaunchStats::default();
    let mut totals = [None::<u64>; 2];
    let min_pairs = if args.trace { 2 } else { 1 };
    while budget.fits(pair_secs.len(), min_pairs, &pair_secs) {
        let traced = args.trace && pair_secs.len() % 2 == 1;
        let mut pair = 0.0;
        for (i, c) in setup.configs.iter().enumerate() {
            out.attempted += 1;
            let ((total, secs), forest) = traced_op(traced, || {
                stats::timed("bench.simulate_network", || {
                    guarded("simulate_network", || {
                        simulate_network(&setup.gpu, &c.slots, &c.cfg)
                    })
                })
            });
            let Some(total) = total else {
                out.failed += 1;
                continue;
            };
            let bits = total.to_bits();
            let expected = refs::net_total(c.name);
            if expected.is_some_and(|e| e != bits) || totals[i].is_some_and(|t| t != bits) {
                out.failed += 1;
                eprintln!(
                    "perfbench: {} network total {total} ({}) differs from the reference",
                    c.name,
                    refs::to_hex(bits)
                );
            }
            totals[i].get_or_insert(bits);
            pair += secs;
            if traced {
                launches.add_spans(&forest);
            } else {
                per_config[i].push(secs);
                networks.push(secs);
            }
        }
        pair_secs.push(pair);
        if traced {
            pairs_traced.push(pair);
        } else {
            pairs_untraced.push(pair);
        }
    }

    for (c, bits) in setup.configs.iter().zip(totals) {
        let bits = bits.unwrap_or(0);
        let pinned = match refs::net_total(c.name) {
            Some(e) if e == bits => "matches pinned",
            Some(_) => "DIFFERS from pinned",
            None => "no pinned reference",
        };
        println!(
            "  {} total {} sim-ms (f64 bits {}, {pinned})",
            c.name,
            f64::from_bits(bits),
            refs::to_hex(bits)
        );
    }
    if args.emit_refs {
        println!(
            "refs: {{\"baseline\": \"{}\", \"defcon\": \"{}\"}}",
            refs::to_hex(totals[0].unwrap_or(0)),
            refs::to_hex(totals[1].unwrap_or(0))
        );
    }
    println!("  serve.repeat_share: n/a (no serving requests)");

    if args.trace {
        launches.metrics(&mut out.metrics);
        // Per network: the mean of the two configurations' totals.
        let sim_ms = totals
            .iter()
            .map(|t| f64::from_bits(t.unwrap_or(0)))
            .sum::<f64>()
            / 2.0;
        out.metrics.push(("gpusim.sim_ms".into(), sim_ms));
        let overhead = stats::ratio(stats::median(&pairs_traced), stats::median(&pairs_untraced));
        out.metrics.push(("obs.trace_overhead".into(), overhead));
        println!(
            "  gpusim.launch_repeat_share = {:.4} ({} of {} launches over {} networks repeat)",
            launches.repeat_share(),
            launches.repeats,
            launches.launches,
            launches.ops
        );
        for line in launches.describe() {
            println!("{line}");
        }
        println!(
            "  obs.trace_overhead = {overhead:.4} (traced {} vs untraced {} pairs)",
            pairs_traced.len(),
            pairs_untraced.len()
        );
        return out;
    }

    println!("  gpusim.launch_repeat_share: measured by the traced run (--trace 1)");
    // Config-balanced: the mean of the two configurations' medians, so the
    // figure does not depend on how many networks of each a run fitted.
    let net_s = (stats::median(&per_config[0]) + stats::median(&per_config[1])) / 2.0;
    let tail = stats::tail(&networks);
    let total_secs: f64 = networks.iter().sum();
    let metrics = [
        ("op_s", net_s),
        ("req_per_s", stats::ratio(networks.len() as f64, total_secs)),
        ("p50_ms", stats::median(&networks) * 1e3),
        ("tail_ms", tail.value * 1e3),
        ("peak_rss_mb", stats::peak_rss_mib()),
    ];
    println!(
        "  net_s = {net_s:.4} s (baseline median {:.4} s, defcon median {:.4} s, {} networks)",
        stats::median(&per_config[0]),
        stats::median(&per_config[1]),
        networks.len()
    );
    let each: Vec<String> = networks.iter().map(|s| format!("{s:.3}")).collect();
    println!("  network seconds in run order: {}", each.join(" "));
    println!(
        "  tail_ms: p{:.1} of {} networks, {} beyond",
        tail.percentile, tail.samples, tail.beyond
    );
    for (name, value) in metrics {
        println!("  {name} = {value}");
        out.metrics.push((name.into(), value));
    }
    out
}
