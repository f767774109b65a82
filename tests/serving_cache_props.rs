//! Property tests for the serving cache key and eviction behaviour.
//!
//! The content-addressed cache is only sound if (DESIGN.md §9):
//! 1. canonicalization is **total** — every request renders to valid
//!    canonical JSON;
//! 2. canonicalization is **injective** — distinct requests render to
//!    distinct bytes (so the full-string check in the cache can never
//!    conflate two jobs, even under 64-bit hash collisions);
//! 3. the hash is **stable** — a pure function of those bytes, pinned
//!    across runs, platforms, and releases;
//! 4. LRU eviction changes **hit rates only**, never response bytes.

use defcon::core::serve::{
    fnv1a64, ReportCache, RequestPolicy, ServeConfig, ServeDevice, SimRequest, SimServer,
};
use defcon::kernels::backend::BackendKind;
use defcon::kernels::op::{OpFamily, SamplingMethod};
use defcon::kernels::DeformLayerShape;
use defcon_support::json::Json;
use defcon_support::prop::{self, Config};
use defcon_support::rng::{Rng, SeedableRng, StdRng};
use defcon_support::{fault, prop_assert, prop_assert_eq};

/// Draws an arbitrary request over the full field space the serving API
/// accepts (shapes beyond the paper sweep included — canonicalization
/// must not depend on a shape table).
fn gen_request(rng: &mut StdRng) -> SimRequest {
    let devices = ServeDevice::all();
    let families = SamplingMethod::ladder();
    let ops = OpFamily::all();
    SimRequest {
        device: devices[rng.gen_range(0..devices.len())],
        layer: DeformLayerShape {
            n: rng.gen_range(1usize..3),
            c_in: rng.gen_range(1usize..64),
            c_out: rng.gen_range(1usize..64),
            h: rng.gen_range(4usize..48),
            w: rng.gen_range(4usize..48),
            kernel: rng.gen_range(1usize..4),
            stride: rng.gen_range(1usize..3),
            pad: rng.gen_range(0usize..2),
            deform_groups: 1,
        },
        kernel_family: families[rng.gen_range(0..families.len())],
        op_family: ops[rng.gen_range(0..ops.len())],
        // Mix backends so totality/injectivity cover the optional
        // `backend` field the same way they cover op_family/deadline.
        backend: if rng.gen_range(0u32..4) == 0 {
            BackendKind::Accel
        } else {
            BackendKind::Gpusim
        },
        policy: RequestPolicy {
            max_blocks: rng.gen_range(1usize..128),
            seed: rng.gen_range(0u64..u64::MAX),
            spread_milli: rng.gen_range(0u32..8000),
            // Mix unbudgeted (0) and budgeted requests so injectivity and
            // totality cover the optional `deadline_cycles` field.
            deadline_cycles: if rng.gen_range(0u32..4) == 0 {
                rng.gen_range(1u64..u64::MAX)
            } else {
                0
            },
        },
    }
}

#[test]
fn canonicalization_is_total() {
    prop::check(
        "canonicalization_total",
        &Config::cases(128),
        gen_request,
        |req| {
            let canonical = req.canonical_string();
            prop_assert!(!canonical.is_empty());
            let doc = Json::parse(&canonical)
                .map_err(|e| format!("canonical form must parse as JSON: {e}"))?;
            prop_assert_eq!(
                doc.str_field("device").map(str::to_string),
                Ok(req.device.canonical_name().to_string())
            );
            // Rendering is a pure function of the request.
            prop_assert_eq!(req.canonical_string(), canonical);
            prop_assert_eq!(req.cache_key(), fnv1a64(canonical.as_bytes()));
            Ok(())
        },
    );
}

#[test]
fn canonicalization_is_injective_on_distinct_requests() {
    prop::check(
        "canonicalization_injective",
        &Config::cases(128),
        |rng| (gen_request(rng), gen_request(rng)),
        |(a, b)| {
            if a == b {
                prop_assert_eq!(a.canonical_string(), b.canonical_string());
                prop_assert_eq!(a.cache_key(), b.cache_key());
            } else {
                prop_assert!(
                    a.canonical_string() != b.canonical_string(),
                    "distinct requests rendered identically"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn single_field_mutations_change_the_canonical_form() {
    // Injectivity at distance one: flipping any single field must change
    // the bytes (random pairs rarely probe near-collisions).
    let base = SimRequest {
        device: ServeDevice::XavierAgx,
        layer: DeformLayerShape::same3x3(8, 8, 12, 12),
        kernel_family: SamplingMethod::Tex2d,
        op_family: OpFamily::DcnV1,
        backend: BackendKind::Gpusim,
        policy: RequestPolicy::default(),
    };
    let mut mutants = vec![
        SimRequest {
            device: ServeDevice::Rtx2080Ti,
            ..base.clone()
        },
        SimRequest {
            kernel_family: SamplingMethod::Tex2dPlusPlus,
            ..base.clone()
        },
        SimRequest {
            op_family: OpFamily::DcnV2,
            ..base.clone()
        },
        SimRequest {
            op_family: OpFamily::DcnV3,
            ..base.clone()
        },
        SimRequest {
            backend: BackendKind::Accel,
            ..base.clone()
        },
        SimRequest {
            layer: DeformLayerShape::same3x3(8, 8, 12, 13),
            ..base.clone()
        },
    ];
    for (max_blocks, seed, spread_milli) in [(97, 2024, 4000), (96, 2025, 4000), (96, 2024, 4001)] {
        mutants.push(SimRequest {
            policy: RequestPolicy {
                max_blocks,
                seed,
                spread_milli,
                ..RequestPolicy::default()
            },
            ..base.clone()
        });
    }
    // A deadline budget must be visible to the canonical form (and two
    // distinct budgets must render distinctly).
    for deadline_cycles in [1u64, 1 << 20] {
        mutants.push(SimRequest {
            policy: RequestPolicy {
                deadline_cycles,
                ..base.policy
            },
            ..base.clone()
        });
    }
    for m in &mutants {
        assert_ne!(
            m.canonical_string(),
            base.canonical_string(),
            "mutation invisible to the canonical form: {m:?}"
        );
        assert_ne!(m.cache_key(), base.cache_key());
    }
}

#[test]
fn hash_is_pinned_across_runs_and_releases() {
    // The content address is part of the serving contract: if this test
    // breaks, every persisted digest and golden trace breaks with it.
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"defcon"), 0xa2fe_d20c_73b5_9b48);
    let req = SimRequest {
        device: ServeDevice::XavierAgx,
        layer: DeformLayerShape::same3x3(8, 8, 12, 12),
        kernel_family: SamplingMethod::Tex2dPlusPlus,
        op_family: OpFamily::DcnV1,
        backend: BackendKind::Gpusim,
        policy: RequestPolicy::default(),
    };
    // A DCNv1 request canonicalizes WITHOUT an `op_family` field, so every
    // pre-DCNv2/v3 persisted digest keeps its original content address.
    assert!(!req.canonical_string().contains("op_family"));
    assert_eq!(req.cache_key(), 0x8e6b_e8af_ed20_e412);

    // v2/v3 requests add the field (right after `kernel_family`) and land
    // on their own pinned addresses.
    let v2 = SimRequest {
        op_family: OpFamily::DcnV2,
        ..req.clone()
    };
    let v3 = SimRequest {
        op_family: OpFamily::DcnV3,
        ..req.clone()
    };
    assert!(v2.canonical_string().contains("\"op_family\":\"DCNv2\""));
    assert!(v3.canonical_string().contains("\"op_family\":\"DCNv3\""));
    assert_eq!(v2.cache_key(), 0x0775_2b87_cb8a_6dfb);
    assert_eq!(v3.cache_key(), 0x32b5_84fd_5755_73a2);

    // A deadline budget appends `deadline_cycles` (16-digit hex, last in
    // the policy object) and lands on its own pinned address. Unbudgeted
    // requests omit the field entirely, so every pre-deadline persisted
    // digest keeps its original content address (checked above).
    assert!(!req.canonical_string().contains("deadline_cycles"));
    let budgeted = SimRequest {
        policy: RequestPolicy {
            deadline_cycles: 0x0002_0000,
            ..req.policy
        },
        ..req.clone()
    };
    assert!(budgeted
        .canonical_string()
        .contains("\"deadline_cycles\":\"0000000000020000\""));
    assert_eq!(budgeted.cache_key(), 0xfb42_147a_ac58_4a00);
}

#[test]
fn lru_eviction_changes_hit_rates_only() {
    let _quiet = fault::quiesce();
    // A repeating stream with more distinct keys than the tight cache
    // holds: responses must match a roomy server byte-for-byte while the
    // hit statistics diverge.
    let mut rng = StdRng::seed_from_u64(0xE71C);
    let pool: Vec<SimRequest> = (0..6)
        .map(|_| {
            let mut req = gen_request(&mut rng);
            // Keep simulation cheap: clamp the layer to tiny.
            req.layer =
                DeformLayerShape::same3x3(req.layer.c_in.min(8), req.layer.c_out.min(8), 8, 8);
            req.policy.max_blocks = req.policy.max_blocks.min(16);
            req
        })
        .collect();
    let stream: Vec<SimRequest> = (0..18).map(|i| pool[i % pool.len()].clone()).collect();
    let cfg = |cache_capacity| ServeConfig {
        workers: 1,
        queue_capacity: 4,
        cache_capacity,
        ..ServeConfig::default()
    };
    let mut tight = SimServer::new(cfg(2));
    let mut roomy = SimServer::new(cfg(64));
    let sorted = |server: &mut SimServer| -> Vec<String> {
        let mut c: Vec<String> = server
            .serve(&stream)
            .iter()
            .map(|r| r.content_string())
            .collect();
        c.sort();
        c
    };
    assert_eq!(sorted(&mut tight), sorted(&mut roomy));
    assert!(tight.cache().evictions() > 0);
    assert_eq!(roomy.cache().evictions(), 0);
    assert!(tight.cache().hits() < roomy.cache().hits());
    assert!(tight.cache().len() <= 2, "capacity bound violated");
}

#[test]
fn cache_never_exceeds_capacity() {
    let _quiet = fault::quiesce();
    let mut cache = ReportCache::new(3);
    for key in 0..10u64 {
        cache.insert(key, format!("req-{key}"), &[], SamplingMethod::Tex2d, &[]);
        assert!(cache.len() <= 3);
    }
    assert_eq!(cache.evictions(), 7);
    // Re-inserting a resident key refreshes it instead of evicting.
    cache.insert(9, "req-9".into(), &[], SamplingMethod::Tex2d, &[]);
    assert_eq!(cache.evictions(), 7);
    assert_eq!(cache.len(), 3);
}
