//! Reference outputs pinned in `refs.json`.
//!
//! Every simulated quantity is deterministic, so a pinned value is an exact
//! check: network totals as f64 bit patterns, lattice cells and serving
//! sessions as FNV-1a digests. `perfbench --emit-refs` prints the fragment
//! for one workload and seed; paste it into `refs.json` only after checking
//! that the change that moved it was meant to.

use defcon_support::json::Json;
use std::collections::BTreeMap;
use std::sync::OnceLock;

fn doc() -> &'static Json {
    static DOC: OnceLock<Json> = OnceLock::new();
    DOC.get_or_init(|| Json::parse(include_str!("../refs.json")).expect("refs.json parses"))
}

fn hex(j: &Json) -> Option<u64> {
    u64::from_str_radix(j.as_str()?, 16).ok()
}

/// Formats a reference value the way `refs.json` stores it.
pub fn to_hex(v: u64) -> String {
    format!("{v:016x}")
}

/// Pinned f64 bits of a `net-yolact` configuration's network total.
pub fn net_total(config: &str) -> Option<u64> {
    hex(doc().get("net-yolact")?.get(config)?)
}

fn seeded(workload: &str, seed: u64) -> Option<&'static Json> {
    doc().get(workload)?.get(&seed.to_string())
}

/// Pinned per-cell report digests of a `layer-sweep` seed.
pub fn sweep_cells(seed: u64) -> Option<BTreeMap<String, u64>> {
    let Json::Obj(pairs) = seeded("layer-sweep", seed)? else {
        return None;
    };
    pairs
        .iter()
        .map(|(k, v)| Some((k.clone(), hex(v)?)))
        .collect()
}

/// Pinned session digest and outcome counts of a `serve-mixed` seed.
pub fn serve_session(seed: u64) -> Option<(u64, Vec<u64>)> {
    let j = seeded("serve-mixed", seed)?;
    let outcomes = j
        .get("outcomes")?
        .as_arr()?
        .iter()
        .map(Json::as_u64)
        .collect::<Option<Vec<u64>>>()?;
    Some((hex(j.get("digest")?)?, outcomes))
}
