//! Order statistics, span self-times and process statistics shared by the
//! workloads.

use defcon_gpusim::KernelReport;
use defcon_support::obs::{self, SpanNode};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest order statistic that still
/// has at least ten samples above it, with its percentile rank. With
/// fewer than eleven samples no such statistic exists and the maximum is
/// reported, with the count of samples beyond it (zero) saying so.
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub beyond: usize,
    pub samples: usize,
}

pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (idx, beyond) = if n >= 11 {
        (n - 11, 10)
    } else {
        (n.saturating_sub(1), 0)
    };
    Tail {
        value: v.get(idx).copied().unwrap_or(0.0),
        percentile: if n == 0 {
            0.0
        } else {
            100.0 * (idx + 1) as f64 / n as f64
        },
        beyond,
        samples: n,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `f` inside a benchmark span named `name` and returns its result
/// with the host seconds it took. The span is recorded only while a traced
/// op has armed `support::obs`; the stopwatch always runs.
pub fn timed<T>(name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = obs::span(name);
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    drop(span);
    (out, secs)
}

/// Duration of a span minus the time its child spans cover, in µs.
pub fn self_us(node: &SpanNode) -> f64 {
    let children: u64 = node
        .children
        .iter()
        .filter(|c| !c.instant)
        .map(|c| c.dur)
        .sum();
    node.dur.saturating_sub(children) as f64
}

/// Total duration (µs) of every span named `name` in `forest`, with the
/// number of such spans.
pub fn span_total_us(forest: &[SpanNode], name: &str) -> (f64, usize) {
    let spans = obs::find_spans(forest, name);
    (spans.iter().map(|s| s.dur as f64).sum(), spans.len())
}

/// The kernel label with the operator-family suffix folded away, so
/// `deform_fused_tex2dpp_dcnv3` counts under `deform_fused_tex2dpp`.
pub fn label_group(label: &str) -> &str {
    label
        .strip_suffix("_dcnv2")
        .or_else(|| label.strip_suffix("_dcnv3"))
        .unwrap_or(label)
}

/// Kernel-label groups reported as `gpusim.kernel_s.<group>`.
pub const KERNEL_GROUPS: [&str; 9] = [
    "conv_gemm",
    "bottleneck_1x1",
    "head_conv",
    "offset_conv",
    "depthwise_conv",
    "offset_pointwise",
    "deform_im2col_sw",
    "deform_fused_tex2d",
    "deform_fused_tex2dpp",
];

/// Simulator statistics over a run's launches, gathered either from the
/// `gpusim.launch` spans of traced ops or from returned [`KernelReport`]s.
#[derive(Default)]
pub struct LaunchStats {
    pub ops: usize,
    pub launches: u64,
    /// Launches whose kernel, grid, cycles and cache counters repeat an
    /// earlier launch of the same op.
    pub repeats: u64,
    pub sampled_blocks: u64,
    /// Host self-time (µs) per kernel label; empty for report-derived stats.
    pub self_us: BTreeMap<String, f64>,
    /// (hits, accesses) for L1, texture and L2.
    pub l1: (u64, u64),
    pub tex: (u64, u64),
    pub l2: (u64, u64),
}

/// One launch as seen by [`LaunchStats`].
struct Launch {
    key: String,
    sampled_blocks: u64,
    l1: (u64, u64),
    tex: (u64, u64),
    l2: (u64, u64),
}

impl LaunchStats {
    fn add(&mut self, launches: Vec<Launch>) {
        self.ops += 1;
        let mut seen = BTreeSet::new();
        for l in launches {
            self.launches += 1;
            if !seen.insert(l.key) {
                self.repeats += 1;
            }
            self.sampled_blocks += l.sampled_blocks;
            for (acc, v) in [
                (&mut self.l1, l.l1),
                (&mut self.tex, l.tex),
                (&mut self.l2, l.l2),
            ] {
                acc.0 += v.0;
                acc.1 += v.1;
            }
        }
    }

    /// Adds one op's launches from its span forest, with their self-times.
    pub fn add_spans(&mut self, forest: &[SpanNode]) {
        let spans = obs::find_spans(forest, "gpusim.launch");
        for s in &spans {
            let label = s.str_arg("kernel").unwrap_or("?");
            *self.self_us.entry(label.to_string()).or_default() += self_us(s);
        }
        let u = |s: &SpanNode, k: &str| s.u64_arg(k).unwrap_or(0);
        self.add(
            spans
                .iter()
                .map(|s| {
                    let counters = [
                        "l1_hits",
                        "l1_accesses",
                        "tex_hits",
                        "tex_line_accesses",
                        "l2_hits",
                        "l2_accesses",
                    ]
                    .map(|k| u(s, k));
                    Launch {
                        key: format!(
                            "{}|{}|{:x}|{:?}",
                            s.str_arg("kernel").unwrap_or("?"),
                            u(s, "grid_blocks"),
                            s.num_arg("cycles").unwrap_or(0.0).to_bits(),
                            counters
                        ),
                        sampled_blocks: u(s, "sampled_blocks"),
                        l1: (counters[0], counters[1]),
                        tex: (counters[2], counters[3]),
                        l2: (counters[4], counters[5]),
                    }
                })
                .collect(),
        );
    }

    /// Adds one op's launches from the reports it returned.
    pub fn add_reports<'a>(&mut self, reports: impl IntoIterator<Item = &'a KernelReport>) {
        self.add(
            reports
                .into_iter()
                .map(|r| {
                    let c = &r.counters;
                    Launch {
                        key: format!(
                            "{}|{}|{:x}|{:?}",
                            r.kernel,
                            r.grid_blocks,
                            r.cycles.to_bits(),
                            [
                                c.l1_hits,
                                c.l1_accesses,
                                c.tex_hits,
                                c.tex_line_accesses,
                                c.l2_hits,
                                c.l2_accesses
                            ]
                        ),
                        sampled_blocks: r.simulated_blocks as u64,
                        l1: (c.l1_hits, c.l1_accesses),
                        tex: (c.tex_hits, c.tex_line_accesses),
                        l2: (c.l2_hits, c.l2_accesses),
                    }
                })
                .collect(),
        );
    }

    pub fn repeat_share(&self) -> f64 {
        ratio(self.repeats as f64, self.launches as f64)
    }

    /// Host self-time per op (s) of the launches whose label passes `keep`.
    pub fn self_s_per_op(&self, keep: impl Fn(&str) -> bool) -> f64 {
        let us: f64 = self
            .self_us
            .iter()
            .filter(|(l, _)| keep(l))
            .fold(0.0, |acc, (_, v)| acc + v);
        ratio(us, self.ops as f64) / 1e6
    }

    fn hit_rate(p: (u64, u64)) -> f64 {
        ratio(p.0 as f64, p.1 as f64)
    }

    /// The simulated-side and per-launch metrics this layer reports.
    pub fn metrics(&self, out: &mut Vec<(String, f64)>) {
        let per_op = |v: f64| ratio(v, self.ops as f64);
        out.push(("gpusim.launches".into(), per_op(self.launches as f64)));
        out.push(("gpusim.launch_repeat_share".into(), self.repeat_share()));
        out.push((
            "gpusim.sampled_blocks".into(),
            per_op(self.sampled_blocks as f64),
        ));
        out.push(("gpusim.l1_hit_rate".into(), Self::hit_rate(self.l1)));
        out.push(("gpusim.tex_hit_rate".into(), Self::hit_rate(self.tex)));
        out.push(("gpusim.l2_hit_rate".into(), Self::hit_rate(self.l2)));
        if self.self_us.is_empty() {
            return;
        }
        for g in KERNEL_GROUPS {
            out.push((
                format!("gpusim.kernel_s.{g}"),
                self.self_s_per_op(|l| label_group(l) == g),
            ));
        }
        out.push((
            "gpusim.rigid_s".into(),
            self.self_s_per_op(|l| !l.starts_with("deform_")),
        ));
        out.push((
            "gpusim.deform_s".into(),
            self.self_s_per_op(|l| l.starts_with("deform_")),
        ));
        let total_us: f64 = self.self_us.values().sum();
        out.push((
            "gpusim.us_per_block".into(),
            ratio(total_us, self.sampled_blocks as f64),
        ));
    }

    /// Per-label self-time lines for the human-readable output.
    pub fn describe(&self) -> Vec<String> {
        let mut rows: Vec<(&String, &f64)> = self.self_us.iter().collect();
        rows.sort_by(|a, b| b.1.total_cmp(a.1));
        rows.into_iter()
            .map(|(l, us)| {
                format!(
                    "  gpusim.kernel_s[{l}] = {:.4} s/op",
                    ratio(*us, self.ops as f64) / 1e6
                )
            })
            .collect()
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
