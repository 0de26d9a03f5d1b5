//! The cube-keyed megaflow cache in front of the compiled tier.
//!
//! [`crate::OvsSim`] models OVS's cache bottom-up: the slow path records
//! which mask bits the walk examined and installs that conservative
//! megaflow. [`CachedEngine`] derives the megaflows top-down from the
//! symbolic structure we already compute: `mapro_sym::compile` partitions
//! the input space into disjoint behavior atoms, and the cube of the atom
//! a packet lands in *is* its megaflow — maximal by construction (the
//! atom is the whole forwarding equivalence class) and exact (every
//! packet in the cube provably gets the cached verdict, by the cover's
//! partition invariant — no conservative unwildcarding needed).
//!
//! Invalidation is precise rather than flush-the-world: a flow-mod's
//! [`mapro_sym::invalidation_cube`] describes the input region whose
//! behavior the update can touch (its match row restricted to *stable*
//! coordinates — match fields never targeted by a `SetField`), and only
//! cached entries whose cubes intersect it are dropped. Entries for
//! disjoint regions keep serving packets across the update, which is
//! what keeps churn workloads off the slow path.
//!
//! When the symbolic compiler cannot express the pipeline (goto cycle,
//! blown budget — see [`mapro_sym::Unsupported`]), the cache is disabled
//! and every packet takes the inner compiled engine: slower, never
//! wrong.

use crate::compile::{CompileError, CompiledEngine, ProcessOut, TemplatePolicy};
use crate::cost::CostParams;
use crate::Switch;
use mapro_core::{Packet, Pipeline};
use mapro_sym::{BehaviorCover, Cube, FieldSpace, SymConfig};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Default megaflow capacity (OVS's `flow-limit` default). With
/// cube-exact megaflows the working set is the atom count, typically far
/// below this.
pub const DEFAULT_CACHE_CAPACITY: usize = 200_000;

/// Budgets for the cache's behavior-cover compilation: tighter than the
/// equivalence checker's defaults, because a cover too large to build
/// quickly would also be too large to probe profitably — past this size
/// the engine degrades to the (still correct) uncached compiled tier.
fn cache_sym_config() -> SymConfig {
    SymConfig {
        max_atoms: 1 << 16,
        partition_budget: 1 << 16,
        ..SymConfig::default()
    }
}

/// A tuple-space megaflow table: one masked-key hash map per distinct
/// mask tuple, probed in installation order, with FIFO eviction at a
/// capacity. Both megaflow caches ([`crate::OvsSim`]'s conservative
/// masks, [`CachedEngine`]'s atom cubes) store their entries here; they
/// differ only in how they derive a miss's mask.
pub(crate) struct MegaflowTable<V> {
    #[allow(clippy::type_complexity)]
    tuples: Vec<(Vec<u64>, HashMap<Vec<u64>, V>)>,
    /// Installed (mask, masked key) pairs in insertion order.
    fifo: VecDeque<(Vec<u64>, Vec<u64>)>,
    probe: Vec<u64>,
}

impl<V> MegaflowTable<V> {
    /// An empty table over keys of `width` columns.
    pub(crate) fn new(width: usize) -> MegaflowTable<V> {
        MegaflowTable {
            tuples: Vec::new(),
            fifo: VecDeque::new(),
            probe: vec![0; width],
        }
    }

    /// Entries installed.
    pub(crate) fn len(&self) -> usize {
        self.tuples.iter().map(|(_, m)| m.len()).sum()
    }

    /// Distinct mask tuples (the probe count of a full miss).
    pub(crate) fn tuples(&self) -> usize {
        self.tuples.len()
    }

    /// The entry whose masked key matches `key` under its tuple's mask.
    #[inline]
    pub(crate) fn lookup(&mut self, key: &[u64]) -> Option<&V> {
        debug_assert_eq!(key.len(), self.probe.len());
        for (mask, map) in &self.tuples {
            for ((p, k), m) in self.probe.iter_mut().zip(key).zip(mask) {
                *p = k & m;
            }
            if let Some(v) = map.get(self.probe.as_slice()) {
                return Some(v);
            }
        }
        None
    }

    /// Install `v` under `(mask, masked)`, first evicting the oldest
    /// entries until fewer than `capacity` remain. Returns the number
    /// evicted.
    pub(crate) fn install(
        &mut self,
        mask: Vec<u64>,
        masked: Vec<u64>,
        v: V,
        capacity: usize,
    ) -> u64 {
        let mut evicted = 0;
        while self.len() >= capacity {
            let Some((emask, ekey)) = self.fifo.pop_front() else {
                break;
            };
            if let Some((_, map)) = self.tuples.iter_mut().find(|(m, _)| *m == emask) {
                if map.remove(&ekey).is_some() {
                    evicted += 1;
                }
            }
            self.tuples.retain(|(_, m)| !m.is_empty());
        }
        self.fifo.push_back((mask.clone(), masked.clone()));
        let map = match self.tuples.iter().position(|(m, _)| *m == mask) {
            Some(i) => &mut self.tuples[i].1,
            None => {
                self.tuples.push((mask, HashMap::new()));
                &mut self.tuples.last_mut().expect("just pushed").1
            }
        };
        map.insert(masked, v);
        evicted
    }

    /// Drop every entry.
    pub(crate) fn clear(&mut self) {
        self.tuples.clear();
        self.fifo.clear();
    }

    /// Drop every entry `keep` rejects. Returns the number dropped.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) -> u64 {
        let before = self.len();
        for (_, map) in &mut self.tuples {
            map.retain(|_, v| keep(v));
        }
        let removed = (before - self.len()) as u64;
        if removed > 0 {
            self.tuples.retain(|(_, m)| !m.is_empty());
            let tuples = &self.tuples;
            self.fifo.retain(|(mask, mkey)| {
                tuples
                    .iter()
                    .any(|(m, map)| m == mask && map.contains_key(mkey))
            });
        }
        removed
    }
}

#[derive(Debug, Clone, PartialEq)]
struct MegaVerdict {
    output: Option<Arc<str>>,
    dropped: bool,
    /// The atom cube this megaflow was derived from, kept for precise
    /// flow-mod invalidation (cube intersection).
    cube: Cube,
}

/// Cache-behavior counters, mirrored locally so reports work with the
/// `obs` feature compiled out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MegaflowStats {
    /// Fast-path hits.
    pub hits: u64,
    /// Slow-path misses (inner engine walks).
    pub misses: u64,
    /// Entries evicted by the capacity FIFO.
    pub evictions: u64,
    /// Entries dropped by flow-mod cube invalidation.
    pub invalidations: u64,
}

/// Why a flow-mod could not be applied to a [`CachedEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheUpdateError {
    /// The update itself was invalid (unknown table, no matching entry…).
    Apply(mapro_control::ApplyError),
    /// The updated pipeline no longer compiles.
    Compile(CompileError),
}

impl fmt::Display for CacheUpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheUpdateError::Apply(e) => write!(f, "{e}"),
            CacheUpdateError::Compile(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CacheUpdateError {}

impl From<mapro_control::ApplyError> for CacheUpdateError {
    fn from(e: mapro_control::ApplyError) -> Self {
        CacheUpdateError::Apply(e)
    }
}

impl From<CompileError> for CacheUpdateError {
    fn from(e: CompileError) -> Self {
        CacheUpdateError::Compile(e)
    }
}

/// The compiled tier fronted by a cube-keyed megaflow cache.
pub struct CachedEngine {
    inner: CompiledEngine,
    pipeline: Pipeline,
    space: FieldSpace,
    /// `None` ⇒ the symbolic compiler declined the pipeline; the cache is
    /// disabled and every packet takes the inner engine.
    cover: Option<BehaviorCover>,
    /// The megaflow cache, keyed by atom cubes. Atom disjointness
    /// guarantees at most one tuple can hit a given key.
    table: MegaflowTable<MegaVerdict>,
    /// Maximum cached megaflows before eviction.
    pub cache_capacity: usize,
    /// Modeled extra cost of a miss (atom search + install), ns. In-process
    /// specialization, not an OVS upcall — orders of magnitude below
    /// `OvsSim::slow_path_ns`.
    pub install_ns: f64,
    stats: MegaflowStats,
    key: Vec<u64>,
}

impl CachedEngine {
    /// Build the cached engine: compile the inner tier, then the behavior
    /// cover the cache is keyed on. All four `switch.megaflow.*` counters
    /// are registered here so they appear in metrics dumps even when the
    /// run never exercises them.
    pub fn new(
        p: &Pipeline,
        policy: TemplatePolicy,
        params: CostParams,
    ) -> Result<CachedEngine, CompileError> {
        mapro_obs::counter!("switch.megaflow.hits");
        mapro_obs::counter!("switch.megaflow.misses");
        mapro_obs::counter!("switch.megaflow.evictions");
        mapro_obs::counter!("switch.megaflow.invalidations");
        let inner = CompiledEngine::compile(p, policy, params)?;
        let space = FieldSpace::from_pipelines(&[p]);
        let cover = match mapro_sym::compile(p, &space, &cache_sym_config()) {
            Ok(c) => Some(c),
            Err(e) => {
                mapro_obs::counter!("switch.megaflow.disabled").inc();
                let _ = e.label(); // cause is visible via sym.fallback.* too
                None
            }
        };
        let ncols = space.coords.len();
        Ok(CachedEngine {
            inner,
            pipeline: p.clone(),
            space,
            cover,
            table: MegaflowTable::new(ncols),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            install_ns: 500.0,
            stats: MegaflowStats::default(),
            key: vec![0; ncols],
        })
    }

    /// The ESwitch-policy cached engine (twin of [`CompiledEngine::eswitch`]).
    pub fn eswitch(p: &Pipeline) -> Result<CachedEngine, CompileError> {
        CachedEngine::new(
            p,
            TemplatePolicy::Specialize {
                generic: mapro_classifier::TemplateKind::Linear,
            },
            CostParams::eswitch(),
        )
    }

    /// Cache-behavior counters so far.
    pub fn stats(&self) -> MegaflowStats {
        self.stats
    }

    /// Megaflow entries currently installed.
    pub fn cache_entries(&self) -> usize {
        self.table.len()
    }

    /// Whether the cube cache is active (the symbolic compiler accepted
    /// the pipeline).
    pub fn cache_enabled(&self) -> bool {
        self.cover.is_some()
    }

    /// Apply a control-plane flow-mod: invalidate precisely the cached
    /// megaflows whose cubes intersect the update's dirty region,
    /// recompile the touched table of the inner engine, and incrementally
    /// refresh the cover. If the updated table no longer compiles, the
    /// engine is left exactly as it was and the error is returned.
    ///
    /// The dirty region is *one* cube computation
    /// ([`mapro_control::delta_rows`] → [`mapro_sym::dirty_region`],
    /// against the pre-update pipeline — for Modify, old and new match
    /// rows both contribute when `set` rewrites match cells), shared by
    /// cache invalidation and the incremental cover refresh — the same
    /// cubes the inline verifier rechecks, so churn costs one region
    /// analysis, not three.
    pub fn apply_update(
        &mut self,
        update: &mapro_control::RuleUpdate,
    ) -> Result<(), CacheUpdateError> {
        let rows = mapro_control::delta_rows(&self.pipeline, update);
        let dirty = self
            .cover
            .is_some()
            .then(|| mapro_sym::dirty_region(&self.pipeline, &self.space, &rows))
            .flatten();

        let before = self
            .pipeline
            .table(update.table())
            .map(|t| t.entries.clone());
        mapro_control::apply_update(&mut self.pipeline, update)?;
        if let Err(e) = self.inner.recompile_table(&self.pipeline, update.table()) {
            if let (Some(entries), Some(t)) = (before, self.pipeline.table_mut(update.table())) {
                t.entries = entries;
            }
            return Err(e.into());
        }
        // The space is stable under entry edits (match columns are fixed
        // per table), so cached cubes and new-cover cubes stay comparable.
        // Touched atoms are re-tiled in place where possible; a refresh
        // failure (budget, unsupported construct) falls back to a full
        // recompile, and an unexpressible dirty region flushes the cache.
        self.cover = match (&self.cover, &dirty) {
            (Some(cover), Some(d)) => {
                match mapro_sym::refresh_cover(cover, &self.pipeline, d, &cache_sym_config()) {
                    Ok((next, _fresh)) => Some(next),
                    Err(_) => {
                        mapro_sym::compile(&self.pipeline, &self.space, &cache_sym_config()).ok()
                    }
                }
            }
            _ => mapro_sym::compile(&self.pipeline, &self.space, &cache_sym_config()).ok(),
        };

        let removed = match (&self.cover, &dirty) {
            (Some(_), Some(dirty)) => self
                .table
                .retain(|v| !dirty.iter().any(|d| d.intersects(&v.cube))),
            // Cache disabled or dirty region unknown: nothing cached can
            // be trusted to survive the update.
            _ => {
                let flushed = self.table.len() as u64;
                self.table.clear();
                flushed
            }
        };
        self.stats.invalidations += removed;
        mapro_obs::counter!("switch.megaflow.invalidations").add(removed);
        Ok(())
    }

    #[inline]
    fn run_one(&mut self, pkt: &Packet) -> ProcessOut {
        let Some(cover) = &self.cover else {
            return self.inner.process(pkt);
        };
        self.space.key_into(pkt, &mut self.key);
        // Fast path: tuple-space probe over the installed mask tuples.
        let ntuples = self.table.tuples().max(1);
        if let Some(hit) = self.table.lookup(&self.key) {
            self.stats.hits += 1;
            mapro_obs::counter!("switch.megaflow.hits").inc();
            let params = self.inner.params();
            let cost = params.per_packet_ns + params.tss_tuple_ns * ntuples as f64;
            return ProcessOut {
                output: hit.output.clone(),
                dropped: hit.dropped,
                lookups: 1,
                service_ns: cost,
                latency_ns: cost,
                slow_path: false,
            };
        }
        // Miss: run the compiled tier, install the atom's cube-exact
        // megaflow with the verdict the inner engine just produced (the
        // cover's partition invariant extends it to the whole cube).
        self.stats.misses += 1;
        mapro_obs::counter!("switch.megaflow.misses").inc();
        let mut r = self.inner.process(pkt);
        if let Some(ai) = cover.atom_of(&self.key) {
            let cube = &cover.atoms[ai].cube;
            // `bits ⊆ mask` per column (the `Tern` invariant), so the
            // cube's bits vector is exactly the masked key of every
            // member packet.
            let mask = cube.0.iter().map(|t| t.mask).collect();
            let masked = cube.0.iter().map(|t| t.bits).collect();
            let v = MegaVerdict {
                output: r.output.clone(),
                dropped: r.dropped,
                cube: cube.clone(),
            };
            let evicted = self.table.install(mask, masked, v, self.cache_capacity);
            if evicted > 0 {
                self.stats.evictions += evicted;
                mapro_obs::counter!("switch.megaflow.evictions").add(evicted);
            }
        }
        r.service_ns += self.install_ns;
        r.latency_ns += self.install_ns;
        r.slow_path = true;
        r
    }
}

impl Switch for CachedEngine {
    fn name(&self) -> &'static str {
        "cached"
    }

    fn process(&mut self, pkt: &Packet) -> ProcessOut {
        self.run_one(pkt)
    }

    fn process_batch(&mut self, pkts: &[&Packet], out: &mut Vec<ProcessOut>) {
        out.clear();
        out.reserve(pkts.len());
        for pkt in pkts {
            let r = self.run_one(pkt);
            out.push(r);
        }
    }

    fn queue_factor(&self) -> f64 {
        self.inner.params().queue_factor
    }
}

impl fmt::Debug for CachedEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CachedEngine")
            .field("cache_enabled", &self.cache_enabled())
            .field("cache_entries", &self.cache_entries())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::{ActionSem, Catalog, Table, Value};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The OvsSim test pipeline: 3 tenants × 2 backend prefixes.
    fn universal() -> Pipeline {
        let mut c = Catalog::new();
        let src = c.field("ip_src", 32);
        let dst = c.field("ip_dst", 32);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t0", vec![src, dst], vec![out]);
        for tenant in 0..3u64 {
            for b in 0..2u64 {
                t.row(
                    vec![Value::prefix(b << 31, 1, 32), Value::Int(tenant)],
                    vec![Value::sym(format!("vm{}", tenant * 2 + b))],
                );
            }
        }
        Pipeline::single(c, t)
    }

    #[test]
    fn first_packet_misses_then_cube_hits() {
        let p = universal();
        let mut sim = CachedEngine::eswitch(&p).unwrap();
        assert!(sim.cache_enabled());
        let a = Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", 1)]);
        let first = sim.process(&a);
        assert!(first.slow_path);
        assert_eq!(first.output.as_deref(), Some("vm2"));
        // The cube covers the whole /1 × tenant region, not just the packet.
        let b = Packet::from_fields(&p.catalog, &[("ip_src", 123_456), ("ip_dst", 1)]);
        let r = sim.process(&b);
        assert!(!r.slow_path, "cube megaflow must cover the atom");
        assert_eq!(r.output.as_deref(), Some("vm2"));
        assert_eq!(sim.stats().hits, 1);
        assert_eq!(sim.stats().misses, 1);
        // Other half of the /1 split is a different atom.
        let c = Packet::from_fields(&p.catalog, &[("ip_src", 1u64 << 31), ("ip_dst", 1)]);
        let r = sim.process(&c);
        assert!(r.slow_path);
        assert_eq!(r.output.as_deref(), Some("vm3"));
    }

    #[test]
    fn verdicts_agree_with_inner_engine_everywhere() {
        let p = universal();
        let mut cached = CachedEngine::eswitch(&p).unwrap();
        let mut plain = CompiledEngine::eswitch(&p).unwrap();
        for src in [0u64, 7, 1 << 31, (1 << 31) + 9] {
            for dst in 0..4u64 {
                let pkt = Packet::from_fields(&p.catalog, &[("ip_src", src), ("ip_dst", dst)]);
                // Twice: once cold (miss), once warm (hit).
                for _ in 0..2 {
                    let a = cached.process(&pkt);
                    let b = plain.process(&pkt);
                    assert_eq!(a.output, b.output, "src={src} dst={dst}");
                    assert_eq!(a.dropped, b.dropped, "src={src} dst={dst}");
                }
            }
        }
    }

    #[test]
    fn dropped_atoms_cached_too() {
        let p = universal();
        let mut sim = CachedEngine::eswitch(&p).unwrap();
        let pkt = Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", 99)]);
        let first = sim.process(&pkt);
        assert!(first.dropped && first.slow_path);
        let second = sim.process(&pkt);
        assert!(second.dropped && !second.slow_path);
    }

    #[test]
    fn flowmod_invalidates_intersecting_cubes_only() {
        use mapro_control::RuleUpdate;
        let p = universal();
        let out = p.catalog.lookup("out").unwrap();
        let mut sim = CachedEngine::eswitch(&p).unwrap();
        let hot = Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", 1)]);
        let other = Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", 2)]);
        assert_eq!(sim.process(&hot).output.as_deref(), Some("vm2"));
        assert_eq!(sim.process(&other).output.as_deref(), Some("vm4"));
        assert!(!sim.process(&hot).slow_path);
        assert!(!sim.process(&other).slow_path);
        // Rewire tenant 1's low half; tenant 2's megaflow must survive.
        sim.apply_update(&RuleUpdate::Modify {
            table: "t0".into(),
            matches: vec![Value::prefix(0, 1, 32), Value::Int(1)],
            set: vec![(out, Value::sym("vmX"))],
        })
        .unwrap();
        assert!(sim.stats().invalidations >= 1);
        let r = sim.process(&hot);
        assert!(r.slow_path, "stale megaflow must not serve vm2");
        assert_eq!(r.output.as_deref(), Some("vmX"));
        let r = sim.process(&other);
        assert!(!r.slow_path, "disjoint megaflow survives the flow-mod");
        assert_eq!(r.output.as_deref(), Some("vm4"));
    }

    #[test]
    fn capacity_fifo_evicts() {
        let p = universal();
        let mut sim = CachedEngine::eswitch(&p).unwrap();
        sim.cache_capacity = 2;
        let pkts: Vec<_> = (0..3u64)
            .map(|t| Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", t)]))
            .collect();
        for pkt in &pkts {
            assert!(sim.process(pkt).slow_path);
        }
        assert_eq!(sim.cache_entries(), 2);
        assert!(sim.stats().evictions >= 1);
        assert!(sim.process(&pkts[0]).slow_path);
        assert!(!sim.process(&pkts[2]).slow_path);
    }

    #[test]
    fn unsupported_pipeline_disables_cache_but_stays_correct() {
        // A goto cycle: sym declines, the compiled engine's cycle guard kicks
        // in, and cached must agree with compiled.
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let goto = c.action("goto", ActionSem::Goto);
        let mut t0 = Table::new("t0", vec![f], vec![goto]);
        t0.row(vec![Value::Any], vec![Value::sym("t0")]);
        let p = Pipeline::single(c, t0);
        let mut cached = CachedEngine::eswitch(&p).unwrap();
        assert!(!cached.cache_enabled());
        let mut plain = CompiledEngine::eswitch(&p).unwrap();
        let pkt = Packet::from_fields(&p.catalog, &[("f", 1)]);
        assert_eq!(cached.process(&pkt), plain.process(&pkt));
        assert_eq!(cached.cache_entries(), 0);
    }

    #[test]
    fn hit_cost_cheaper_than_miss_cost() {
        let p = universal();
        let mut sim = CachedEngine::eswitch(&p).unwrap();
        let pkt = Packet::from_fields(&p.catalog, &[("ip_src", 7), ("ip_dst", 1)]);
        let miss = sim.process(&pkt);
        let hit = sim.process(&pkt);
        assert!(hit.service_ns < miss.service_ns);
        assert_eq!(hit.lookups, 1);
    }

    /// A random flow-mod against `p`: delete an entry, insert a copy of
    /// one with a perturbed match cell, or rewrite an action cell with a
    /// parameter already used in its column. One rewrite in eight names
    /// `nosuch` instead — a dangling target in a goto column, a bad
    /// parameter in a set-field column — which the engines must refuse
    /// without changing state.
    fn random_update(p: &Pipeline, rng: &mut SmallRng) -> mapro_control::RuleUpdate {
        use mapro_control::RuleUpdate;
        let t = &p.tables[rng.gen_range(0..p.tables.len())];
        let table = t.name.clone();
        let e = &t.entries[rng.gen_range(0..t.entries.len())];
        match rng.gen_range(0..4u32) {
            0 => RuleUpdate::Delete {
                table,
                matches: e.matches.clone(),
            },
            1 => {
                let mut entry = e.clone();
                let c = rng.gen_range(0..entry.matches.len());
                entry.matches[c] = Value::Int(rng.gen_range(0..4u64));
                RuleUpdate::Insert { table, entry }
            }
            _ if t.action_attrs.is_empty() => RuleUpdate::Delete {
                table,
                matches: e.matches.clone(),
            },
            _ => {
                let col = rng.gen_range(0..t.action_attrs.len());
                let donor = &t.entries[rng.gen_range(0..t.entries.len())];
                let v = if rng.gen_range(0..8u32) == 0 {
                    Value::sym("nosuch")
                } else {
                    donor.actions[col].clone()
                };
                RuleUpdate::Modify {
                    table,
                    matches: e.matches.clone(),
                    set: vec![(t.action_attrs[col], v)],
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// After every flow-mod of a random sequence, the per-table
        /// recompiled engines — inside `CachedEngine` and `LiveSwitch` —
        /// give the same `ProcessOut` as a fresh compile of the updated
        /// pipeline, on every trace packet.
        #[test]
        fn per_table_recompile_matches_fresh_compile(
            seed in 0u64..1000,
            mods in 1usize..10,
            join in 0usize..2,
        ) {
            use mapro_workloads::Gwlb;
            let g = Gwlb::random(4, 2, seed);
            let join = [mapro_normalize::JoinKind::Goto, mapro_normalize::JoinKind::Metadata][join];
            let p = g.normalized(join).unwrap();
            let trace = mapro_packet::generate(&p.catalog, &g.trace_spec(), 200, seed);
            let mut cached = CachedEngine::eswitch(&p).unwrap();
            let mut live = crate::LiveSwitch::eswitch(p).unwrap();
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..mods {
                if cached.pipeline.tables.iter().any(|t| t.entries.is_empty()) {
                    break;
                }
                let u = random_update(&cached.pipeline, &mut rng);
                let a = cached.apply_update(&u).is_ok();
                let b = live.apply_update(&u).is_ok();
                prop_assert_eq!(a, b, "{:?}", u);
                prop_assert_eq!(&cached.pipeline, live.pipeline());
                let mut fresh = CompiledEngine::eswitch(&cached.pipeline).unwrap();
                for (_, pkt) in &trace.packets {
                    let want = fresh.process(pkt);
                    prop_assert_eq!(&cached.inner.process(pkt), &want);
                    prop_assert_eq!(&live.process(pkt), &want);
                }
            }
        }
    }
}
