//! Old-vs-new benchmark for the zero-allocation trace hot path.
//!
//! Run with:
//!
//! ```sh
//! cargo bench -p defcon-bench --offline --bench hot_path
//! ```
//!
//! Measures serial (1-thread) blocks/sec on the paper's exhaustive 550×550
//! Table II layer for two kernel families — the software im2col sampling
//! kernel (the headline: scattered neighbour loads make it the hot path's
//! worst offender) and the fused texture kernel — comparing:
//!
//! * **legacy**: the full pre-optimization hot path — faithful copies of
//!   the old kernel bodies (per-instruction `Vec` collects), the allocating
//!   sort+dedup coalescer, and the old cache model (split `tags`/`stamps`
//!   arrays, `%`-based set indexing) in a bench-local [`legacy`] module;
//! * **current**: the shipped kernels on the `LaneBuf`/iterator staged path
//!   with the mask-indexed, move-to-front cache.
//!
//! Both sides run the exact per-block cadence of the serial engine (flush
//! L1 + texture cache, trace, merge counters). Two equivalence gates guard
//! the comparison: the legacy *bodies* must reproduce the shipped kernels'
//! serial reports byte-for-byte through the engine, and the legacy
//! *simulator* must produce identical counters and total exposed latency
//! over the timed grid — i.e. old and new disagree on nothing but speed.
//!
//! With `DEFCON_TINY` set (the CI smoke), a small layer runs the
//! equivalence gates only — for all three operator families at both one and
//! four engine threads. Otherwise full timings are written to
//! `BENCH_hotpath.json` at the repo root (`DEFCON_BENCH_OUT` overrides the
//! path) and the ratchets fire: the software im2col headline must show
//! ≥ 1.5× serial speedup and the fused tex2D kernel ≥ 1.4×.

use defcon_gpusim::cache::Cache;
use defcon_gpusim::report::Counters;
use defcon_gpusim::texture::LayeredTexture2d;
use defcon_gpusim::trace::{BlockTrace, TraceSink};
use defcon_gpusim::{DeviceConfig, Gpu, SamplePolicy};
use defcon_kernels::fused::FusedTexDeformKernel;
use defcon_kernels::im2col::{address_map, Im2colDeformKernel, Sampling};
use defcon_kernels::op::{synthetic_inputs, synthetic_modulation, OpFamily};
use defcon_kernels::{DeformLayerShape, TileConfig};
use defcon_support::json::{Json, ToJson};
use std::time::Instant;

// ---------------------------------------------------------------------------
// The pre-optimization memory system, kept verbatim in this bench so the old
// cost can still be measured after the library moved to the staged path.
// ---------------------------------------------------------------------------

mod legacy {
    use defcon_gpusim::coalesce::{coalesce, SECTOR_BYTES};
    use defcon_gpusim::device::{CacheGeometry, DeviceConfig};
    use defcon_gpusim::report::Counters;
    use defcon_gpusim::texture::{FilterMode, LayeredTexture2d};
    use defcon_gpusim::trace::BlockCost;

    /// The old set-associative LRU cache: two parallel arrays
    /// (`tags[set*ways+way]`, `stamps[...]`) and `line % sets` indexing on
    /// every access, power of two or not.
    pub struct LegacyCache {
        geometry: CacheGeometry,
        sets: usize,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
    }

    impl LegacyCache {
        pub fn new(geometry: CacheGeometry) -> Self {
            let sets = geometry.num_sets();
            LegacyCache {
                geometry,
                sets,
                tags: vec![u64::MAX; sets * geometry.ways],
                stamps: vec![0; sets * geometry.ways],
                clock: 0,
            }
        }

        pub fn line_bytes(&self) -> usize {
            self.geometry.line_bytes
        }

        /// Accesses one line; returns `true` on hit. Same LRU semantics as
        /// the shipped cache (first invalid way, else oldest stamp).
        pub fn access_line(&mut self, line: u64) -> bool {
            self.clock += 1;
            let set = (line % self.sets as u64) as usize;
            let base = set * self.geometry.ways;
            let ways = &mut self.tags[base..base + self.geometry.ways];

            if let Some(w) = ways.iter().position(|&t| t == line) {
                self.stamps[base + w] = self.clock;
                return true;
            }
            let mut victim = 0;
            let mut oldest = u64::MAX;
            for w in 0..self.geometry.ways {
                let s = self.stamps[base + w];
                if self.tags[base + w] == u64::MAX {
                    victim = w;
                    break;
                }
                if s < oldest {
                    oldest = s;
                    victim = w;
                }
            }
            self.tags[base + victim] = line;
            self.stamps[base + victim] = self.clock;
            false
        }

        pub fn flush(&mut self) {
            self.tags.fill(u64::MAX);
        }
    }

    /// The old event sink: allocating coalescer, old caches, per-fetch `Vec`
    /// in the texture path — a faithful copy of the pre-optimization
    /// accounting (same counters, same latency model).
    pub struct LegacySink<'a> {
        cfg: &'a DeviceConfig,
        l1: &'a mut LegacyCache,
        tex: &'a mut LegacyCache,
        l2: &'a mut LegacyCache,
        pub counters: Counters,
        pub cost: BlockCost,
    }

    impl<'a> LegacySink<'a> {
        pub fn new(
            cfg: &'a DeviceConfig,
            l1: &'a mut LegacyCache,
            tex: &'a mut LegacyCache,
            l2: &'a mut LegacyCache,
            warps: usize,
        ) -> Self {
            LegacySink {
                cfg,
                l1,
                tex,
                l2,
                counters: Counters::default(),
                cost: BlockCost {
                    warps,
                    ..Default::default()
                },
            }
        }

        pub fn fma(&mut self, n: u64) {
            self.counters.flops += 2 * n;
            self.cost.flop_units += n;
        }

        pub fn flop(&mut self, n: u64) {
            self.counters.flops += n;
            self.cost.flop_units += n;
        }

        pub fn alu(&mut self, n: u64) {
            self.counters.alu_ops += n;
            self.cost.alu_units += n;
        }

        pub fn global_load(&mut self, lane_addrs: &[u64]) {
            if lane_addrs.is_empty() {
                return;
            }
            let r = coalesce(lane_addrs, 4);
            self.counters.gld_requests += 1;
            self.counters.gld_transactions += r.transactions();
            self.counters.gld_requested_bytes += r.requested_bytes;
            let mut worst = 0u32;
            for &sector in &r.sectors {
                let line = sector * SECTOR_BYTES / self.l1.line_bytes() as u64;
                let lat = self.global_line_access(line);
                worst = worst.max(lat);
            }
            self.cost.lsu_sectors += r.transactions();
            self.cost.latency_cycles += worst as u64;
        }

        pub fn global_store(&mut self, lane_addrs: &[u64]) {
            if lane_addrs.is_empty() {
                return;
            }
            let r = coalesce(lane_addrs, 4);
            self.counters.gst_requests += 1;
            self.counters.gst_transactions += r.transactions();
            self.counters.gst_requested_bytes += r.requested_bytes;
            self.counters.dram_write_bytes += r.moved_bytes();
            self.cost.lsu_sectors += r.transactions();
        }

        fn global_line_access(&mut self, line: u64) -> u32 {
            self.counters.l1_accesses += 1;
            if self.l1.access_line(line) {
                self.counters.l1_hits += 1;
                return self.cfg.l1.hit_latency;
            }
            self.counters.l2_accesses += 1;
            if self.l2.access_line(line) {
                self.counters.l2_hits += 1;
                return self.cfg.l2.hit_latency;
            }
            self.counters.dram_read_bytes += SECTOR_BYTES;
            self.cfg.dram_latency
        }

        pub fn tex_fetch_warp(
            &mut self,
            tex: &LayeredTexture2d,
            layer: usize,
            coords: &[(f32, f32)],
            out: &mut Vec<f32>,
        ) {
            debug_assert!(coords.len() <= self.cfg.warp_size);
            if coords.is_empty() {
                return;
            }
            self.counters.tex_requests += 1;
            match tex.filter_mode {
                FilterMode::Linear { frac_bits } if frac_bits <= 10 => {
                    self.cost.tex_fetches_fp16 += coords.len() as u64
                }
                _ => self.cost.tex_fetches_fp32 += coords.len() as u64,
            }
            let mut worst = 0u32;
            for &(y, x) in coords {
                // The verbatim pre-optimization sampler: per-texel address
                // mode resolution, division-based quantization, per-call
                // layer stride recomputation.
                let f = defcon_gpusim::oracle::fetch_legacy(tex, layer, y, x);
                out.push(f.value);
                let mut lines = [u64::MAX; 4];
                let mut n_lines = 0usize;
                for &a in &f.addresses[..f.len as usize] {
                    let line = a / self.tex.line_bytes() as u64;
                    if !lines[..n_lines].contains(&line) {
                        lines[n_lines] = line;
                        n_lines += 1;
                    }
                }
                for &line in &lines[..n_lines] {
                    self.counters.tex_line_accesses += 1;
                    let lat = if self.tex.access_line(line) {
                        self.counters.tex_hits += 1;
                        self.cfg.tex_hit_latency
                    } else {
                        self.counters.l2_accesses += 1;
                        if self.l2.access_line(line) {
                            self.counters.l2_hits += 1;
                            self.cfg.l2.hit_latency
                        } else {
                            self.counters.dram_read_bytes += self.tex.line_bytes() as u64;
                            self.cfg.dram_latency
                        }
                    };
                    worst = worst.max(lat);
                }
            }
            self.cost.latency_cycles += worst as u64;
        }
    }
}

// ---------------------------------------------------------------------------
// One legacy kernel body, two sinks: the same pre-optimization instruction
// stream drives either the old simulator (for timing) or the shipped sink's
// reference entry points (for the byte-identity gate through the engine).
// ---------------------------------------------------------------------------

trait EventSink {
    fn fma(&mut self, n: u64);
    fn flop(&mut self, n: u64);
    fn alu(&mut self, n: u64);
    fn global_load(&mut self, lane_addrs: &[u64]);
    fn global_store(&mut self, lane_addrs: &[u64]);
    fn tex_fetch_warp(
        &mut self,
        tex: &LayeredTexture2d,
        layer: usize,
        coords: &[(f32, f32)],
        out: &mut Vec<f32>,
    );
}

impl EventSink for TraceSink<'_> {
    fn fma(&mut self, n: u64) {
        TraceSink::fma(self, n)
    }
    fn flop(&mut self, n: u64) {
        TraceSink::flop(self, n)
    }
    fn alu(&mut self, n: u64) {
        TraceSink::alu(self, n)
    }
    fn global_load(&mut self, lane_addrs: &[u64]) {
        TraceSink::global_load_ref(self, lane_addrs)
    }
    fn global_store(&mut self, lane_addrs: &[u64]) {
        TraceSink::global_store_ref(self, lane_addrs)
    }
    fn tex_fetch_warp(
        &mut self,
        tex: &LayeredTexture2d,
        layer: usize,
        coords: &[(f32, f32)],
        out: &mut Vec<f32>,
    ) {
        TraceSink::tex_fetch_warp(self, tex, layer, coords, out)
    }
}

impl EventSink for legacy::LegacySink<'_> {
    fn fma(&mut self, n: u64) {
        legacy::LegacySink::fma(self, n)
    }
    fn flop(&mut self, n: u64) {
        legacy::LegacySink::flop(self, n)
    }
    fn alu(&mut self, n: u64) {
        legacy::LegacySink::alu(self, n)
    }
    fn global_load(&mut self, lane_addrs: &[u64]) {
        legacy::LegacySink::global_load(self, lane_addrs)
    }
    fn global_store(&mut self, lane_addrs: &[u64]) {
        legacy::LegacySink::global_store(self, lane_addrs)
    }
    fn tex_fetch_warp(
        &mut self,
        tex: &LayeredTexture2d,
        layer: usize,
        coords: &[(f32, f32)],
        out: &mut Vec<f32>,
    ) {
        legacy::LegacySink::tex_fetch_warp(self, tex, layer, coords, out)
    }
}

/// A legacy kernel body that can drive either sink.
trait LegacyKernel {
    fn grid_blocks(&self) -> usize;
    fn block_threads(&self) -> usize;
    fn trace_legacy(&self, block: usize, sink: &mut legacy::LegacySink);
}

/// The pre-optimization software im2col body: per-warp `Vec` collects for
/// lanes, offset addresses, the 4 neighbour slots and the column store.
struct LegacyIm2colSw<'a>(&'a Im2colDeformKernel<'a>);

impl LegacyIm2colSw<'_> {
    fn sample_coord(&self, ni: usize, g: usize, tap: usize, oy: usize, ox: usize) -> (f32, f32) {
        let k = self.0;
        let s = k.shape;
        let kk = s.kernel * s.kernel;
        let (ki, kj) = (tap / s.kernel, tap % s.kernel);
        let ch = 2 * (g * kk + tap);
        let dy = k.offset_transform.apply(k.offsets.at4(ni, ch, oy, ox));
        let dx = k.offset_transform.apply(k.offsets.at4(ni, ch + 1, oy, ox));
        let py = (oy * s.stride + ki) as f32 - s.pad as f32 + dy;
        let px = (ox * s.stride + kj) as f32 - s.pad as f32 + dx;
        (py, px)
    }

    fn trace_into<S: EventSink>(&self, block: usize, sink: &mut S) {
        let k = self.0;
        let s = k.shape;
        let (oh, ow) = s.out_hw();
        let (ty_count, tx_count) = (oh.div_ceil(k.tile.h), ow.div_ceil(k.tile.w));
        let blocks_per_channel = ty_count * tx_count;
        let ci = (block / blocks_per_channel) % s.c_in;
        let ni = block / (s.c_in * blocks_per_channel);
        let t = block % blocks_per_channel;
        let (tile_y, tile_x) = (t / tx_count, t % tx_count);
        let g = ci / (s.c_in / s.deform_groups);
        let kk = s.kernel * s.kernel;

        let offset_addr = |ni: usize, ch: usize, oy: usize, ox: usize| {
            let oc = s.offset_channels();
            address_map::OFFSETS + 4 * (((ni * oc + ch) * oh + oy) * ow + ox) as u64
        };
        let input_addr = |ni: usize, ci: usize, y: usize, x: usize| {
            address_map::INPUT + 4 * (((ni * s.c_in + ci) * s.h + y) * s.w + x) as u64
        };
        let col_addr = |ni: usize, row: usize, col: usize| {
            let rows = s.c_in * kk;
            address_map::COLUMNS + 4 * ((ni * rows + row) * oh * ow + col) as u64
        };
        let modulation_addr = |ni: usize, ch: usize, oy: usize, ox: usize| {
            let mc = s.deform_groups * kk;
            address_map::MODULATION + 4 * (((ni * mc + ch) * oh + oy) * ow + ox) as u64
        };

        let threads = k.tile.threads();
        for warp_start in (0..threads).step_by(32) {
            let lanes: Vec<(usize, usize)> = (warp_start..(warp_start + 32).min(threads))
                .filter_map(|tid| {
                    let oy = tile_y * k.tile.h + tid / k.tile.w;
                    let ox = tile_x * k.tile.w + tid % k.tile.w;
                    (oy < oh && ox < ow).then_some((oy, ox))
                })
                .collect();
            if lanes.is_empty() {
                continue;
            }
            let nl = lanes.len() as u64;

            for tap in 0..kk {
                let ch = 2 * (g * kk + tap);
                let dy_addrs: Vec<u64> = lanes
                    .iter()
                    .map(|&(oy, ox)| offset_addr(ni, ch, oy, ox))
                    .collect();
                let dx_addrs: Vec<u64> = lanes
                    .iter()
                    .map(|&(oy, ox)| offset_addr(ni, ch + 1, oy, ox))
                    .collect();
                sink.global_load(&dy_addrs);
                sink.global_load(&dx_addrs);
                sink.alu(4 * nl);
                sink.flop(4 * nl);

                // Family-specific modulation traffic, per-warp `Vec`
                // collects as everywhere else in the old body; same event
                // stream as the shipped kernel's family arms.
                match k.family {
                    OpFamily::DcnV1 => {}
                    OpFamily::DcnV2 => {
                        let m_addrs: Vec<u64> = lanes
                            .iter()
                            .map(|&(oy, ox)| modulation_addr(ni, g * kk + tap, oy, ox))
                            .collect();
                        sink.global_load(&m_addrs);
                        sink.flop(nl);
                    }
                    OpFamily::DcnV3 => {
                        let m_addrs: Vec<u64> = lanes
                            .iter()
                            .map(|&(oy, ox)| modulation_addr(ni, g * kk + tap, oy, ox))
                            .collect();
                        sink.global_load(&m_addrs);
                        sink.flop(3 * nl);
                        sink.alu(nl);
                    }
                }

                let mut neigh: [Vec<u64>; 4] = [
                    Vec::with_capacity(32),
                    Vec::with_capacity(32),
                    Vec::with_capacity(32),
                    Vec::with_capacity(32),
                ];
                for &(oy, ox) in &lanes {
                    let (py, px) = self.sample_coord(ni, g, tap, oy, ox);
                    let (y0, x0) = (py.floor() as isize, px.floor() as isize);
                    for (slot, (qy, qx)) in [(y0, x0), (y0, x0 + 1), (y0 + 1, x0), (y0 + 1, x0 + 1)]
                        .iter()
                        .enumerate()
                    {
                        if *qy >= 0 && *qy < s.h as isize && *qx >= 0 && *qx < s.w as isize {
                            neigh[slot].push(input_addr(ni, ci, *qy as usize, *qx as usize));
                        }
                    }
                }
                for addrs in &neigh {
                    sink.global_load(addrs);
                }
                sink.flop(8 * nl);
                sink.alu(6 * nl);

                let row = ci * kk + tap;
                let col_addrs: Vec<u64> = lanes
                    .iter()
                    .map(|&(oy, ox)| col_addr(ni, row, oy * ow + ox))
                    .collect();
                sink.global_store(&col_addrs);
            }
        }
    }
}

impl BlockTrace for LegacyIm2colSw<'_> {
    fn grid_blocks(&self) -> usize {
        self.0.grid_blocks()
    }

    fn block_threads(&self) -> usize {
        self.0.block_threads()
    }

    fn label(&self) -> String {
        self.0.label()
    }

    fn trace_block(&self, block: usize, sink: &mut TraceSink) {
        self.trace_into(block, sink);
    }
}

impl LegacyKernel for LegacyIm2colSw<'_> {
    fn grid_blocks(&self) -> usize {
        self.0.grid_blocks()
    }

    fn block_threads(&self) -> usize {
        self.0.block_threads()
    }

    fn trace_legacy(&self, block: usize, sink: &mut legacy::LegacySink) {
        self.trace_into(block, sink);
    }
}

/// The pre-optimization fused texture body: `Vec` collects for lanes and
/// addresses, the sampling coordinates recomputed for **every channel** of
/// the deform group (the hoist the shipped kernel applies), and a per-fetch
/// output `Vec` in the texture path.
struct LegacyFused<'a>(&'a FusedTexDeformKernel<'a>);

impl LegacyFused<'_> {
    fn trace_into<S: EventSink>(&self, block: usize, sink: &mut S) {
        let k = self.0;
        let s = k.shape;
        let (oh, ow) = s.out_hw();
        let (ty_count, tx_count) = (oh.div_ceil(k.tile.h), ow.div_ceil(k.tile.w));
        let per_n = k.co_blocks * ty_count * tx_count;
        let ni = block / per_n;
        let rem = block % per_n;
        let co_blk = rem / (ty_count * tx_count);
        let t = rem % (ty_count * tx_count);
        let (tile_y, tile_x) = (t / tx_count, t % tx_count);
        let kk = s.kernel * s.kernel;
        let ch_per_group = s.c_in / s.deform_groups;
        let co_per_blk = s.c_out.div_ceil(k.co_blocks);
        let co_lo = co_blk * co_per_blk;
        let co_here = co_per_blk.min(s.c_out.saturating_sub(co_lo));
        if co_here == 0 {
            return;
        }

        let offset_addr = |ni: usize, ch: usize, oy: usize, ox: usize| {
            let oc = s.offset_channels();
            address_map::OFFSETS + 4 * (((ni * oc + ch) * oh + oy) * ow + ox) as u64
        };
        let modulation_addr = |ni: usize, ch: usize, oy: usize, ox: usize| {
            let mc = s.deform_groups * kk;
            address_map::MODULATION + 4 * (((ni * mc + ch) * oh + oy) * ow + ox) as u64
        };

        let threads = k.tile.threads();
        let mut tex_out = Vec::with_capacity(32);
        for warp_start in (0..threads).step_by(32) {
            let lanes: Vec<(usize, usize)> = (warp_start..(warp_start + 32).min(threads))
                .filter_map(|tid| {
                    let oy = tile_y * k.tile.h + tid / k.tile.w;
                    let ox = tile_x * k.tile.w + tid % k.tile.w;
                    (oy < oh && ox < ow).then_some((oy, ox))
                })
                .collect();
            if lanes.is_empty() {
                continue;
            }
            let nl = lanes.len() as u64;

            for g in 0..s.deform_groups {
                for tap in 0..kk {
                    let ch = 2 * (g * kk + tap);
                    let dy_addrs: Vec<u64> = lanes
                        .iter()
                        .map(|&(oy, ox)| offset_addr(ni, ch, oy, ox))
                        .collect();
                    let dx_addrs: Vec<u64> = lanes
                        .iter()
                        .map(|&(oy, ox)| offset_addr(ni, ch + 1, oy, ox))
                        .collect();
                    sink.global_load(&dy_addrs);
                    sink.global_load(&dx_addrs);
                    sink.alu(4 * nl);
                    sink.flop(4 * nl);

                    // Family-specific modulation traffic, old-style `Vec`
                    // collects; same stream as the shipped family arms.
                    match k.family {
                        OpFamily::DcnV1 => {}
                        OpFamily::DcnV2 => {
                            let m_addrs: Vec<u64> = lanes
                                .iter()
                                .map(|&(oy, ox)| modulation_addr(ni, g * kk + tap, oy, ox))
                                .collect();
                            sink.global_load(&m_addrs);
                            sink.flop(nl);
                        }
                        OpFamily::DcnV3 => {
                            let m_addrs: Vec<u64> = lanes
                                .iter()
                                .map(|&(oy, ox)| modulation_addr(ni, g * kk + tap, oy, ox))
                                .collect();
                            sink.global_load(&m_addrs);
                            sink.flop(3 * nl);
                            sink.alu(nl);
                        }
                    }

                    let (ki, kj) = (tap / s.kernel, tap % s.kernel);
                    for ci in g * ch_per_group..(g + 1) * ch_per_group {
                        let layer = ni * s.c_in + ci;
                        let coords: Vec<(f32, f32)> = lanes
                            .iter()
                            .map(|&(oy, ox)| {
                                let dy = k.offset_transform.apply(k.offsets.at4(ni, ch, oy, ox));
                                let dx =
                                    k.offset_transform.apply(k.offsets.at4(ni, ch + 1, oy, ox));
                                let py = (oy * s.stride + ki) as f32 - s.pad as f32 + dy;
                                let px = (ox * s.stride + kj) as f32 - s.pad as f32 + dx;
                                (py, px)
                            })
                            .collect();
                        tex_out.clear();
                        sink.tex_fetch_warp(&k.texture, layer, &coords, &mut tex_out);
                        sink.fma(nl * co_here as u64);
                    }
                }
            }
        }
        let wf = s.c_in * kk * co_here;
        for w0 in (0..wf).step_by(32) {
            let lanes_w = 32.min(wf - w0);
            let addrs: Vec<u64> = (0..lanes_w)
                .map(|l| address_map::WEIGHTS + ((w0 + l) * 4) as u64)
                .collect();
            sink.global_load(&addrs);
        }
        for warp_start in (0..threads).step_by(32) {
            let lanes: Vec<(usize, usize)> = (warp_start..(warp_start + 32).min(threads))
                .filter_map(|tid| {
                    let oy = tile_y * k.tile.h + tid / k.tile.w;
                    let ox = tile_x * k.tile.w + tid % k.tile.w;
                    (oy < oh && ox < ow).then_some((oy, ox))
                })
                .collect();
            if lanes.is_empty() {
                continue;
            }
            for co in co_lo..co_lo + co_here {
                let addrs: Vec<u64> = lanes
                    .iter()
                    .map(|&(oy, ox)| {
                        address_map::OUTPUT + 4 * (((ni * s.c_out + co) * oh + oy) * ow + ox) as u64
                    })
                    .collect();
                sink.global_store(&addrs);
            }
        }
    }
}

impl BlockTrace for LegacyFused<'_> {
    fn grid_blocks(&self) -> usize {
        self.0.grid_blocks()
    }

    fn block_threads(&self) -> usize {
        self.0.block_threads()
    }

    fn label(&self) -> String {
        self.0.label()
    }

    fn trace_block(&self, block: usize, sink: &mut TraceSink) {
        self.trace_into(block, sink);
    }
}

impl LegacyKernel for LegacyFused<'_> {
    fn grid_blocks(&self) -> usize {
        self.0.grid_blocks()
    }

    fn block_threads(&self) -> usize {
        self.0.block_threads()
    }

    fn trace_legacy(&self, block: usize, sink: &mut legacy::LegacySink) {
        self.trace_into(block, sink);
    }
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct Comparison {
    name: String,
    grid_blocks: usize,
    old_blocks_per_sec: f64,
    new_blocks_per_sec: f64,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.new_blocks_per_sec / self.old_blocks_per_sec
    }
}

/// Byte-identity of the engine reports: the legacy body + reference
/// coalescer must tell exactly the same story as the staged path, both on
/// the serial engine and through the banded parallel partition.
fn check_equivalence(name: &str, legacy_body: &dyn BlockTrace, current: &dyn BlockTrace) {
    for threads in [1usize, 4] {
        let gpu = Gpu::with_policy(
            DeviceConfig::xavier_agx(),
            SamplePolicy::exhaustive().with_threads(threads),
        );
        let old = gpu.launch(legacy_body).to_json().to_string();
        let new = gpu.launch(current).to_json().to_string();
        assert_eq!(
            old, new,
            "{name}: legacy and staged paths diverged at {threads} threads"
        );
        println!(
            "hot_path: {name} equivalence OK at {threads} threads ({} bytes)",
            new.len()
        );
    }
}

/// What a timed pass observed: launch-wide counters plus the summed exposed
/// latency. Old and new must agree on this exactly — they may differ only
/// in how fast they computed it.
fn fingerprint(counters: &Counters, latency_cycles: u64) -> String {
    format!("{} latency_cycles={latency_cycles}", counters.to_json())
}

/// Serial blocks/sec of the shipped staged path, best of `reps` full-grid
/// passes with the engine's per-block cadence (flush L1 + texture cache,
/// fresh sink, merge counters).
fn time_current(kernel: &dyn BlockTrace, cfg: &DeviceConfig, reps: usize) -> (f64, String) {
    let warps = kernel.block_threads().div_ceil(cfg.warp_size);
    let grid = kernel.grid_blocks();
    let mut best = f64::INFINITY;
    let mut fp = String::new();
    for _ in 0..reps {
        let mut l1 = Cache::new(cfg.l1);
        let mut texc = Cache::new(cfg.tex_cache);
        let mut l2 = Cache::new(cfg.l2);
        let mut counters = Counters::default();
        let mut latency = 0u64;
        let start = Instant::now();
        for b in 0..grid {
            l1.flush();
            texc.flush();
            let mut sink = TraceSink::new(cfg, &mut l1, &mut texc, &mut l2, warps);
            kernel.trace_block(b, &mut sink);
            latency += sink.cost.latency_cycles;
            counters.merge(&sink.counters);
        }
        best = best.min(start.elapsed().as_secs_f64());
        fp = fingerprint(&counters, latency);
    }
    (grid as f64 / best, fp)
}

/// Serial blocks/sec of the pre-optimization path (old kernel body, old
/// coalescer, old caches), same cadence as [`time_current`].
fn time_legacy<K: LegacyKernel + ?Sized>(
    kernel: &K,
    cfg: &DeviceConfig,
    reps: usize,
) -> (f64, String) {
    let warps = kernel.block_threads().div_ceil(cfg.warp_size);
    let grid = kernel.grid_blocks();
    let mut best = f64::INFINITY;
    let mut fp = String::new();
    for _ in 0..reps {
        let mut l1 = legacy::LegacyCache::new(cfg.l1);
        let mut texc = legacy::LegacyCache::new(cfg.tex_cache);
        let mut l2 = legacy::LegacyCache::new(cfg.l2);
        let mut counters = Counters::default();
        let mut latency = 0u64;
        let start = Instant::now();
        for b in 0..grid {
            l1.flush();
            texc.flush();
            let mut sink = legacy::LegacySink::new(cfg, &mut l1, &mut texc, &mut l2, warps);
            kernel.trace_legacy(b, &mut sink);
            latency += sink.cost.latency_cycles;
            counters.merge(&sink.counters);
        }
        best = best.min(start.elapsed().as_secs_f64());
        fp = fingerprint(&counters, latency);
    }
    (grid as f64 / best, fp)
}

fn compare<K: LegacyKernel + BlockTrace>(
    name: String,
    legacy_kernel: &K,
    current: &dyn BlockTrace,
    cfg: &DeviceConfig,
    reps: usize,
) -> Comparison {
    // Interleave old/new passes (rather than all-old-then-all-new) so that
    // slow machine-load drift over the run hits both sides alike instead
    // of biasing whichever side ran in the slower window.
    let (mut old, mut new) = (0f64, 0f64);
    let (mut old_fp, mut new_fp) = (String::new(), String::new());
    for _ in 0..reps {
        let (o, fp) = time_legacy(legacy_kernel, cfg, 1);
        old = old.max(o);
        old_fp = fp;
        let (n, fp) = time_current(current, cfg, 1);
        new = new.max(n);
        new_fp = fp;
    }
    assert_eq!(
        old_fp, new_fp,
        "{name}: legacy simulator diverged from the shipped one"
    );
    let c = Comparison {
        name,
        grid_blocks: current.grid_blocks(),
        old_blocks_per_sec: old,
        new_blocks_per_sec: new,
    };
    println!(
        "hot_path: {} ({} blocks): old {:.0} blocks/s, new {:.0} blocks/s, speedup {:.2}x",
        c.name,
        c.grid_blocks,
        c.old_blocks_per_sec,
        c.new_blocks_per_sec,
        c.speedup()
    );
    c
}

fn main() {
    let tiny = defcon_bench::tiny_mode();
    let shape = if tiny {
        DeformLayerShape::same3x3(4, 4, 40, 40)
    } else {
        DeformLayerShape::same3x3(16, 16, 550, 550)
    };
    let cfg = DeviceConfig::xavier_agx();
    let (x, offsets) = synthetic_inputs(&shape, 4.0, 0xA11C);

    // Every family now has a legacy twin (the family arms were added to the
    // bench-local bodies in the same un-hoisted style as the rest), so all
    // three run the full old-vs-new pipeline: engine byte identity at 1 and
    // 4 threads, fingerprint identity, and (full mode) timed comparisons.
    let mut results: Vec<Comparison> = Vec::new();
    for family in OpFamily::all() {
        let modulation = synthetic_modulation(&shape, family, 0xA11C);
        let im2col = Im2colDeformKernel::new_family(
            shape,
            TileConfig::default16(),
            &x,
            &offsets,
            defcon_tensor::sample::OffsetTransform::Identity,
            Sampling::Software,
            cfg.max_texture_layers,
            cfg.max_texture_dim,
            family,
            modulation.as_ref(),
        )
        .expect("texture limits exceeded");
        let mut fused = FusedTexDeformKernel::new_family(
            shape,
            TileConfig::default16(),
            &x,
            &offsets,
            defcon_tensor::sample::OffsetTransform::Identity,
            23,
            cfg.max_texture_layers,
            cfg.max_texture_dim,
            family,
            modulation.as_ref(),
        )
        .expect("texture limits exceeded");
        fused.co_blocks =
            FusedTexDeformKernel::pick_co_blocks(&shape, TileConfig::default16(), &cfg);
        let legacy_im2col = LegacyIm2colSw(&im2col);
        let legacy_fused = LegacyFused(&fused);
        let im2col_name = format!("deform_im2col_sw{}", family.label_suffix());
        let fused_name = format!("deform_fused_tex2d{}", family.label_suffix());

        // Gate 1 (both modes): engine-level byte identity of the reports
        // at 1 and 4 threads.
        check_equivalence(&im2col_name, &legacy_im2col, &im2col);
        check_equivalence(&fused_name, &legacy_fused, &fused);
        if tiny {
            // Gate 2 on the tiny layer: the bench-local legacy simulator
            // must match the shipped one exactly (counters + latency),
            // without the cost of full timing runs.
            let (_, old_fp) = time_legacy(&legacy_im2col, &cfg, 1);
            let (_, new_fp) = time_current(&im2col, &cfg, 1);
            assert_eq!(old_fp, new_fp, "legacy simulator diverged ({im2col_name})");
            let (_, old_fp) = time_legacy(&legacy_fused, &cfg, 1);
            let (_, new_fp) = time_current(&fused, &cfg, 1);
            assert_eq!(old_fp, new_fp, "legacy simulator diverged ({fused_name})");
        } else {
            // Gate 2 runs inside `compare` on the full layer (the timed
            // passes already observe the launch-wide counters).
            results.push(compare(im2col_name, &legacy_im2col, &im2col, &cfg, 2));
            results.push(compare(fused_name, &legacy_fused, &fused, &cfg, 2));
        }
    }
    if tiny {
        println!("hot_path: DEFCON_TINY set — equivalence smoke only, no timings");
        return;
    }

    let out_path =
        defcon_support::env::or_die(defcon_support::env::path(defcon_support::env::BENCH_OUT))
            .unwrap_or_else(|| {
                std::path::PathBuf::from(concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../../BENCH_hotpath.json"
                ))
            });
    let kernels: Vec<(String, Json)> = results
        .iter()
        .map(|c| {
            (
                c.name.clone(),
                Json::obj(vec![
                    ("grid_blocks", Json::from(c.grid_blocks)),
                    ("old_blocks_per_sec", Json::from(c.old_blocks_per_sec)),
                    ("new_blocks_per_sec", Json::from(c.new_blocks_per_sec)),
                    ("speedup", Json::from(c.speedup())),
                ]),
            )
        })
        .collect();
    let doc = Json::obj(vec![
        ("layer", Json::str("same3x3(16,16,550,550)")),
        (
            "policy",
            Json::str("exhaustive, 1 thread (serial wall-clock)"),
        ),
        ("kernels", Json::Obj(kernels)),
    ]);
    std::fs::write(&out_path, format!("{}\n", doc)).expect("write BENCH_hotpath.json");
    println!("hot_path: wrote {}", out_path.display());

    // Ratchets: the software im2col headline keeps its 1.5× bar from the
    // original hot-path PR; the fused texture kernel — the subject of the
    // tex2D-gap work — must now clear 1.4×.
    let headline = &results[0];
    assert!(
        headline.speedup() >= 1.5,
        "headline {} speedup {:.2}x below the 1.5x bar",
        headline.name,
        headline.speedup()
    );
    let fused_v1 = &results[1];
    assert!(
        fused_v1.speedup() >= 1.4,
        "{} speedup {:.2}x below the 1.4x bar",
        fused_v1.name,
        fused_v1.speedup()
    );
}
