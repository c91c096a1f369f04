//! Precomputed entity-payload plane: static candidate representations,
//! cached and served (PR 8).
//!
//! Bootleg's serving insight (CIDR 2021 §4) is that each entity's signal
//! payload — its embedding row, the additive-attention pools over its type
//! and relation bags, and its title mean vector — depends only on the
//! *weights*, never on the mention. [`EntityReprCache`] materializes those
//! payloads once per entity into contiguous rows so the inference `embed`
//! phase collapses to plain row copies; the mention-dependent parts
//! (coarse-type prediction, position encoding) stay live.
//!
//! # Bit-identity
//!
//! Payload rows are built by the *same* kernels the uncached path runs per
//! request — [`BootlegModel::pool_bags_batched`] and
//! [`BootlegModel::pool_titles_batched`] — whose outputs are row-wise
//! independent of which other entities share the build batch (the ragged
//! attention pool is pad-width invariant, the segment mean replays
//! `mean_rows` per segment). A cached row is therefore bit-identical to
//! what the request would have computed, and cached forward outputs are
//! bit-identical to uncached ones (property-tested across ablation
//! variants in `tests/entity_cache.rs`).
//!
//! # Invalidation
//!
//! Every mutable access to [`bootleg_tensor::ParamStore`] bumps a version
//! stamp (train steps, checkpoint restores and compression all mutate
//! through it). Cached planes record the stamp they were built at and are
//! discarded when it moves. Mutation requires `&mut` model while inference
//! borrows `&` model, so a stale plane can never be *raced* — only
//! observed sequentially, where the stamp check catches it.
//!
//! # Policies
//!
//! `BOOTLEG_ENTITY_CACHE` selects the fill policy at model construction:
//! `full` (default) eagerly materializes every entity in parallel over
//! entity shards via `bootleg-pool` on first use (or at `serve` warmup);
//! `off` disables caching entirely (the kill switch, and the oracle the
//! bit-identity tests compare against).

use crate::config::BootlegConfig;
use crate::model::BootlegModel;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use bootleg_tensor::{Graph, Tensor};

/// Fill policy for the entity-payload cache
/// (`BOOTLEG_ENTITY_CACHE=full|off`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CachePolicy {
    /// No caching: every request recomputes its payloads.
    Off,
    /// Eagerly materialize every entity's payload (built in parallel over
    /// entity shards on first use, or ahead of time by
    /// [`BootlegModel::warm_entity_cache`]).
    Full,
}

impl CachePolicy {
    /// Reads `BOOTLEG_ENTITY_CACHE`; unset or unparsable values fall back
    /// to [`CachePolicy::Full`].
    pub fn from_env() -> Self {
        Self::from_setting(std::env::var("BOOTLEG_ENTITY_CACHE").ok().as_deref())
    }

    fn from_setting(value: Option<&str>) -> Self {
        match value {
            Some(v) => Self::parse(v).unwrap_or_else(|| {
                bootleg_obs::warn!("entitycache.bad_env", value = v);
                CachePolicy::Full
            }),
            None => CachePolicy::Full,
        }
    }

    /// Parses `full` or `off` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(CachePolicy::Off),
            "full" | "1" | "on" => Some(CachePolicy::Full),
            _ => None,
        }
    }
}

/// Byte offsets of each signal inside a payload row, derived from the
/// config's enabled signals. A `(offset, width)` of width 0 means the
/// signal is ablated away.
#[derive(Clone, Copy, Debug)]
struct PayloadLayout {
    entity: (usize, usize),
    types: (usize, usize),
    rels: (usize, usize),
    titles: (usize, usize),
    /// Total floats per payload row.
    width: usize,
}

impl PayloadLayout {
    fn of(cfg: &BootlegConfig) -> Self {
        let mut off = 0;
        let mut seg = |w: usize| {
            let s = (off, w);
            off += w;
            s
        };
        let entity = seg(if cfg.use_entity() { cfg.entity_dim } else { 0 });
        let types = seg(if cfg.use_types() { cfg.type_dim } else { 0 });
        let rels = seg(if cfg.use_kg() { cfg.rel_dim } else { 0 });
        let titles = seg(if cfg.title_feature { cfg.word_encoder.d_model } else { 0 });
        Self { entity, types, rels, titles, width: off }
    }
}

/// Per-signal `(S, width)` matrices for one request's candidate rows, ready
/// to enter the tape as leaves. Fields are `None` for ablated signals.
pub(crate) struct CachedParts {
    pub entity: Option<Tensor>,
    pub types: Option<Tensor>,
    pub rels: Option<Tensor>,
    pub titles: Option<Tensor>,
}

/// Builder for [`CachedParts`]: per-signal row buffers filled one payload
/// row at a time.
struct PartsBuf {
    layout: PayloadLayout,
    n: usize,
    entity: Vec<f32>,
    types: Vec<f32>,
    rels: Vec<f32>,
    titles: Vec<f32>,
}

impl PartsBuf {
    fn new(layout: PayloadLayout, n: usize) -> Self {
        Self {
            layout,
            n,
            entity: vec![0.0; n * layout.entity.1],
            types: vec![0.0; n * layout.types.1],
            rels: vec![0.0; n * layout.rels.1],
            titles: vec![0.0; n * layout.titles.1],
        }
    }

    /// Copies payload row `row` into candidate slot `i` of every signal.
    fn set_row(&mut self, i: usize, row: &[f32]) {
        let l = self.layout;
        for ((off, w), buf) in [
            (l.entity, &mut self.entity),
            (l.types, &mut self.types),
            (l.rels, &mut self.rels),
            (l.titles, &mut self.titles),
        ] {
            if w > 0 {
                buf[i * w..(i + 1) * w].copy_from_slice(&row[off..off + w]);
            }
        }
    }

    fn finish(self) -> CachedParts {
        let n = self.n;
        let tensor = |w: usize, v: Vec<f32>| (w > 0).then(|| Tensor::new([n, w], v));
        CachedParts {
            entity: tensor(self.layout.entity.1, self.entity),
            types: tensor(self.layout.types.1, self.types),
            rels: tensor(self.layout.rels.1, self.rels),
            titles: tensor(self.layout.titles.1, self.titles),
        }
    }
}

/// Fully materialized payload plane: one contiguous row per entity.
#[derive(Debug)]
struct FullPlane {
    /// `params.version()` the plane was built at.
    version: u64,
    /// `(n_entities, width)` row-major payload matrix.
    rows: Vec<f32>,
    width: usize,
}

/// Inference-only cache of static per-entity payload rows. Owned by
/// [`BootlegModel`]; interior-mutable so `&model` inference paths can fill
/// it (the model is shared immutably across serving workers).
pub struct EntityReprCache {
    policy: CachePolicy,
    full: RwLock<Option<Arc<FullPlane>>>,
}

impl std::fmt::Debug for EntityReprCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntityReprCache").field("policy", &self.policy).finish_non_exhaustive()
    }
}

impl EntityReprCache {
    pub fn new(policy: CachePolicy) -> Self {
        Self { policy, full: RwLock::new(None) }
    }

    pub fn policy(&self) -> &CachePolicy {
        &self.policy
    }

    /// Gathers the cached payload parts for `cand` (one row per candidate
    /// occurrence), filling the cache as its policy allows. `None` when
    /// caching is off or the model has no static signals.
    fn gather(&self, model: &BootlegModel, cand: &[u32]) -> Option<CachedParts> {
        let layout = PayloadLayout::of(&model.config);
        if layout.width == 0 || matches!(self.policy, CachePolicy::Off) {
            return None;
        }
        Some(self.gather_full(model, layout, cand))
    }

    /// Returns the current full plane, building it (in parallel over entity
    /// shards) if absent or stale.
    fn full_plane(&self, model: &BootlegModel, layout: PayloadLayout) -> Arc<FullPlane> {
        let cur = model.params.version();
        if let Some(p) = self.full.read().expect("entity cache lock").as_ref() {
            if p.version == cur {
                return p.clone();
            }
        }
        let mut slot = self.full.write().expect("entity cache lock");
        // Another thread may have rebuilt while we waited for the lock.
        if let Some(p) = slot.as_ref() {
            if p.version == cur {
                return p.clone();
            }
        }
        let start = Instant::now();
        let n = model.n_entities;
        let w = layout.width;
        let mut rows = vec![0.0f32; n * w];
        // Chunk so every pool worker gets a few chunks to steal.
        let per_chunk = (n / (bootleg_pool::num_threads() * 4).max(1)).clamp(16, 1024);
        bootleg_pool::parallel_chunks_mut(&mut rows, per_chunk * w, |ci, chunk| {
            let lo = ci * per_chunk;
            let ids: Vec<u32> = (lo..lo + chunk.len() / w).map(|e| e as u32).collect();
            build_payload_rows(model, layout, &ids, chunk);
        });
        bootleg_obs::counter!("entitycache.misses").add(n as u64);
        bootleg_obs::counter!("entitycache.build_ns").add(start.elapsed().as_nanos() as u64);
        bootleg_obs::gauge!("entitycache.bytes").set((rows.len() * 4) as f64);
        let plane = Arc::new(FullPlane { version: cur, rows, width: w });
        *slot = Some(plane.clone());
        plane
    }

    fn gather_full(&self, model: &BootlegModel, layout: PayloadLayout, cand: &[u32]) -> CachedParts {
        let plane = self.full_plane(model, layout);
        let w = plane.width;
        let mut buf = PartsBuf::new(layout, cand.len());
        for (i, &e) in cand.iter().enumerate() {
            let e = e as usize;
            buf.set_row(i, &plane.rows[e * w..(e + 1) * w]);
        }
        bootleg_obs::counter!("entitycache.hits").add(cand.len() as u64);
        buf.finish()
    }

    /// Installs a prebuilt full plane stamped at `version` (the frozen-
    /// artifact thaw path). The caller has validated width and row count.
    fn install_full(&self, version: u64, width: usize, rows: Vec<f32>) {
        bootleg_obs::gauge!("entitycache.bytes").set((rows.len() * 4) as f64);
        *self.full.write().expect("entity cache lock") =
            Some(Arc::new(FullPlane { version, rows, width }));
    }

    /// Bytes currently held by the cache (0 when off or not yet filled).
    pub fn bytes(&self) -> usize {
        self.full.read().expect("entity cache lock").as_ref().map_or(0, |p| p.rows.len() * 4)
    }
}

/// Builds the payload rows of `ids` into `out` (`ids.len() × layout.width`)
/// with the same kernels the uncached forward path runs, so every row is
/// bit-identical to what a request would compute live.
fn build_payload_rows(model: &BootlegModel, layout: PayloadLayout, ids: &[u32], out: &mut [f32]) {
    let w = layout.width;
    debug_assert_eq!(out.len(), ids.len() * w);
    if layout.entity.1 > 0 {
        let table = &model.params.get(model.entity_emb).data;
        let (off, ew) = layout.entity;
        for (i, &e) in ids.iter().enumerate() {
            out[i * w + off..i * w + off + ew].copy_from_slice(table.row(e as usize));
        }
    }
    // One throwaway inference tape per build batch.
    let g = Graph::new();
    let mut scatter = |var: bootleg_tensor::Var, (off, sw): (usize, usize)| {
        for (i, row) in var.value().data().chunks_exact(sw).enumerate() {
            out[i * w + off..i * w + off + sw].copy_from_slice(row);
        }
    };
    if layout.types.1 > 0 {
        let v = model.pool_bags_batched(
            &g,
            ids,
            model.type_emb,
            &model.entity_types,
            &model.type_attn,
        );
        scatter(v, layout.types);
    }
    if layout.rels.1 > 0 {
        let v =
            model.pool_bags_batched(&g, ids, model.rel_emb, &model.entity_rels, &model.rel_attn);
        scatter(v, layout.rels);
    }
    if layout.titles.1 > 0 {
        let v = model.pool_titles_batched(&g, ids);
        scatter(v, layout.titles);
    }
}

impl BootlegModel {
    /// Gathers the static payload parts for the candidate rows from the
    /// entity-repr cache (`None` when caching is off). Inference-only
    /// callers: the returned parts enter the tape as leaves, which carry no
    /// parameter gradients.
    pub(crate) fn gather_cached_parts(&self, cand: &[u32]) -> Option<CachedParts> {
        self.repr_cache.gather(self, cand)
    }

    /// Eagerly materializes the payload plane under the `Full` policy (the
    /// serve-startup warmup); a no-op for `Off` and when the plane is
    /// already current.
    pub fn warm_entity_cache(&self) {
        if matches!(self.repr_cache.policy(), CachePolicy::Full) {
            let layout = PayloadLayout::of(&self.config);
            if layout.width > 0 {
                let _ = self.repr_cache.full_plane(self, layout);
            }
        }
    }

    /// Materializes (if needed) and snapshots the full payload plane —
    /// `(width, rows)` — for the frozen serving artifact. `None` unless the
    /// policy is `Full` and the model has static signals: `Off`
    /// deployments rebuild payloads live and freeze nothing.
    pub fn export_entity_plane(&self) -> Option<(usize, Vec<f32>)> {
        if !matches!(self.repr_cache.policy(), CachePolicy::Full) {
            return None;
        }
        let layout = PayloadLayout::of(&self.config);
        if layout.width == 0 {
            return None;
        }
        let plane = self.repr_cache.full_plane(self, layout);
        Some((plane.width, plane.rows.clone()))
    }

    /// Installs a payload plane thawed from a frozen artifact, stamped at
    /// the *current* parameter version — callers must install it only after
    /// the frozen weights (which the plane was built from) are restored.
    /// Returns `false` (plane ignored) when the policy is not `Full` or the
    /// shape doesn't match this model's payload layout.
    pub fn install_entity_plane(&self, width: usize, rows: Vec<f32>) -> bool {
        let layout = PayloadLayout::of(&self.config);
        if !matches!(self.repr_cache.policy(), CachePolicy::Full)
            || width == 0
            || width != layout.width
            || rows.len() != self.n_entities * width
        {
            return false;
        }
        self.repr_cache.install_full(self.params.version(), width, rows);
        true
    }

    /// Replaces the cache policy (dropping any cached payloads). Mostly for
    /// tests and benches; deployments set `BOOTLEG_ENTITY_CACHE` instead.
    pub fn set_entity_cache_policy(&mut self, policy: CachePolicy) {
        self.repr_cache = EntityReprCache::new(policy);
    }

    /// The active cache policy.
    pub fn entity_cache_policy(&self) -> &CachePolicy {
        self.repr_cache.policy()
    }

    /// Bytes currently held by the entity-repr cache.
    pub fn entity_cache_bytes(&self) -> usize {
        self.repr_cache.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parses() {
        assert_eq!(CachePolicy::parse("off"), Some(CachePolicy::Off));
        assert_eq!(CachePolicy::parse("full"), Some(CachePolicy::Full));
        assert_eq!(CachePolicy::parse("FULL"), Some(CachePolicy::Full));
        assert_eq!(CachePolicy::parse("banana"), None);
        // `lru:<n>` is not a policy: it takes the unparsable path, a warning
        // and `full`.
        assert_eq!(CachePolicy::parse("lru:1024"), None);
        assert_eq!(CachePolicy::from_setting(Some("lru:1024")), CachePolicy::Full);
        assert_eq!(CachePolicy::from_setting(None), CachePolicy::Full);
        assert_eq!(CachePolicy::from_setting(Some("off")), CachePolicy::Off);
    }
}
