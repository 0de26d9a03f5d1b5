//! The executor every switch model runs on: a pipeline specialized into
//! monomorphic classifier programs driven by a tight dispatch loop.
//!
//! [`CompiledEngine`] compiles a pipeline down to data:
//!
//! * one shared register file holding every attribute any table matches
//!   (loaded once per packet; `SetField` writes that can never be
//!   re-matched are dropped at compile time — they are unobservable);
//! * per table a monomorphic classifier — a direct `u64` hash probe for
//!   all-exact shapes, a flat `(bits, mask)` ternary scan for the rest —
//!   dispatched by one `match`, no boxing, no per-lookup counters;
//! * per entry a pre-resolved program: the winning `Output`, the register
//!   stores, and the successor table index (`goto.or(next)` folded in).
//!
//! A switch model is a [`TemplatePolicy`] plus [`CostParams`]: the policy
//! picks the `mapro-classifier` template each table would compile to on
//! that switch, and the template's stats fix the modeled per-visit cost
//! (`CostParams::lookup_ns`, pre-evaluated at compile time). Verdicts
//! follow [`mapro_core::Pipeline::run`] — every template agrees with
//! first-match semantics — which `tests/engine_differential.rs` checks
//! packet by packet, together with the cost sum. Batched processing
//! ([`Switch::process_batch`]) amortizes the remaining per-packet dyn
//! dispatch over [`BATCH`]-packet chunks.

use crate::cost::CostParams;
use crate::Switch;
use mapro_classifier::{
    build_generic, build_specialized, table_shape, Classifier, TableShape, TableView, TemplateKind,
};
use mapro_core::AttrId;
use mapro_core::{ActionSem, AttrKind, MissPolicy, Packet, Pipeline, Table, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Batch size of the compiled tier's dispatch loop (also used by the
/// harness when chunking traces). 128 keeps a chunk of keys and results
/// comfortably inside L1/L2 while amortizing per-batch overheads.
pub const BATCH: usize = 128;

/// How a switch model chooses classifier templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplatePolicy {
    /// Pick the cheapest template the table's shape admits (ESwitch).
    Specialize {
        /// Fallback for general-shaped tables.
        generic: TemplateKind,
    },
    /// Use one generic template for every table (Lagopus: TSS).
    Uniform(TemplateKind),
    /// Hardware TCAM everywhere.
    Tcam,
}

/// Why a pipeline could not be compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The start table or a goto/next/fall target does not exist.
    UnknownTable(String),
    /// A goto or output parameter was not symbolic, or a set-field
    /// parameter was not an integer.
    BadActionParam {
        /// Offending table.
        table: String,
    },
    /// A match cell was symbolic.
    BadMatchCell {
        /// Offending table.
        table: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            CompileError::BadActionParam { table } => {
                write!(f, "table {table:?}: bad action parameter")
            }
            CompileError::BadMatchCell { table } => {
                write!(f, "table {table:?}: symbolic match cell")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Result of processing one packet.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessOut {
    /// Output port, if forwarded.
    pub output: Option<Arc<str>>,
    /// True if the packet was dropped (miss with drop policy).
    pub dropped: bool,
    /// Table lookups performed.
    pub lookups: usize,
    /// Modeled service time (occupancy) in ns.
    pub service_ns: f64,
    /// Modeled one-way latency in ns (before the reporting queue factor).
    pub latency_ns: f64,
    /// True if the packet took a slow path (megaflow cache miss).
    pub slow_path: bool,
}

/// A table's monomorphic classifier over the engine's register file.
enum Cls {
    /// Single active exact column: one `u64` hash probe.
    Exact1 { reg: usize, map: HashMap<u64, u32> },
    /// All-exact shape over `regs` (possibly empty: a table whose rows
    /// constrain nothing maps the empty key to its first row).
    Exact {
        regs: Vec<usize>,
        map: HashMap<Vec<u64>, u32>,
    },
    /// First-match scan over the flat canonical ternary cells
    /// ([`TableView::ternary_rows`]), row-major.
    Scan {
        regs: Vec<usize>,
        cells: Vec<(u64, u64)>,
        ncols: usize,
    },
}

impl Cls {
    #[inline]
    fn lookup(&self, regs: &[u64], key_buf: &mut Vec<u64>) -> Option<u32> {
        match self {
            Cls::Exact1 { reg, map } => map.get(&regs[*reg]).copied(),
            Cls::Exact { regs: cols, map } => {
                key_buf.clear();
                key_buf.extend(cols.iter().map(|&r| regs[r]));
                map.get(key_buf.as_slice()).copied()
            }
            Cls::Scan {
                regs: cols,
                cells,
                ncols,
            } => {
                // Zero-column tables are AllExact-shaped and take the
                // hash path, so `ncols >= 1` here.
                'row: for (i, row) in cells.chunks_exact(*ncols).enumerate() {
                    for (c, &(bits, mask)) in row.iter().enumerate() {
                        if (regs[cols[c]] ^ bits) & mask != 0 {
                            continue 'row;
                        }
                    }
                    return Some(i as u32);
                }
                None
            }
        }
    }
}

/// One entry's pre-resolved action program.
struct EntryProg {
    /// Register stores in action order (`SetField` targets that some
    /// table matches; unmatchable targets are compiled away).
    sets: Vec<(usize, u64)>,
    /// The last `Output` parameter, if any.
    output: Option<Arc<str>>,
    /// Successor: last `Goto` folded with the table's `next`.
    next: Option<u32>,
}

/// A table's compiled miss continuation.
#[derive(Clone, Copy)]
enum MissProg {
    Drop,
    Controller,
    Fall(u32),
}

struct CTable {
    name: String,
    /// The template the switch model's policy picks for this table.
    template: TemplateKind,
    cls: Cls,
    /// `CostParams::lookup_ns` of the policy's template stats,
    /// pre-evaluated.
    cost_ns: f64,
    entries: Vec<EntryProg>,
    miss: MissProg,
}

/// A pipeline compiled for one switch model: the single executor behind
/// every model in this crate.
pub struct CompiledEngine {
    name: &'static str,
    tables: Vec<CTable>,
    start: usize,
    /// Attribute per register, load order.
    reg_attrs: Vec<AttrId>,
    policy: TemplatePolicy,
    params: CostParams,
    regs: Vec<u64>,
    key: Vec<u64>,
}

/// Position of `name` in the pipeline's table list — the resolver every
/// model uses for start, goto, next and fall targets.
fn table_index(p: &Pipeline, name: &str) -> Result<u32, CompileError> {
    p.tables
        .iter()
        .position(|t| t.name == name)
        .map(|i| i as u32)
        .ok_or_else(|| CompileError::UnknownTable(name.to_owned()))
}

/// Resolve `t`'s per-entry action programs and miss continuation against
/// `p`. Register stores go through `reg_of`; targets it maps to `None`
/// are unobservable and dropped.
fn table_progs(
    p: &Pipeline,
    t: &Table,
    reg_of: impl Fn(AttrId) -> Option<usize>,
) -> Result<(Vec<EntryProg>, MissProg), CompileError> {
    let table_next = match &t.next {
        Some(n) => Some(table_index(p, n)?),
        None => None,
    };
    let mut entries = Vec::with_capacity(t.len());
    for e in &t.entries {
        let mut prog = EntryProg {
            sets: Vec::new(),
            output: None,
            next: table_next,
        };
        for (col, &attr) in t.action_attrs.iter().enumerate() {
            let param = &e.actions[col];
            if matches!(param, Value::Any) {
                continue;
            }
            let sem = match &p.catalog.attr(attr).kind {
                AttrKind::Action(s) => s,
                _ => unreachable!("action column"),
            };
            match (sem, param) {
                (ActionSem::Output, Value::Sym(s)) => prog.output = Some(s.clone()),
                (ActionSem::Goto, Value::Sym(s)) => prog.next = Some(table_index(p, s)?),
                (ActionSem::SetField(target), Value::Int(v)) => {
                    if let Some(r) = reg_of(*target) {
                        prog.sets.push((r, *v));
                    }
                }
                (ActionSem::Opaque, _) => {}
                _ => {
                    return Err(CompileError::BadActionParam {
                        table: t.name.clone(),
                    })
                }
            }
        }
        entries.push(prog);
    }
    let miss = match &t.miss {
        MissPolicy::Drop => MissProg::Drop,
        MissPolicy::Controller => MissProg::Controller,
        MissPolicy::Fall(n) => MissProg::Fall(table_index(p, n)?),
    };
    Ok((entries, miss))
}

/// Check that `p` names only existing tables (start, goto, next, fall)
/// and that every action parameter has the right kind, without building
/// any classifier.
pub(crate) fn resolve(p: &Pipeline) -> Result<(), CompileError> {
    for t in &p.tables {
        table_progs(p, t, |_| None)?;
    }
    table_index(p, &p.start).map(|_| ())
}

/// Compile one table of `p` over the register file `reg_attrs`.
fn compile_table(
    p: &Pipeline,
    t: &Table,
    reg_attrs: &[AttrId],
    policy: TemplatePolicy,
    params: &CostParams,
) -> Result<CTable, CompileError> {
    let reg_of = |a: AttrId| reg_attrs.iter().position(|&x| x == a);
    let view = TableView::of(t, &p.catalog);
    for row in &view.rows {
        if row.iter().any(|v| matches!(v, Value::Sym(_))) {
            return Err(CompileError::BadMatchCell {
                table: t.name.clone(),
            });
        }
    }
    // The policy's real classifier is built once, solely for its template
    // stats: they fix the modeled per-visit cost.
    let stats = match policy {
        TemplatePolicy::Specialize { generic } => build_specialized(&view, generic).stats(),
        TemplatePolicy::Uniform(kind) => build_generic(&view, kind).stats(),
        TemplatePolicy::Tcam => mapro_classifier::TcamModel::build(&view, usize::MAX)
            .expect("unbounded capacity")
            .stats(),
    };

    // The monomorphic classifier depends only on the table shape: every
    // template agrees with first-match semantics, so a hash probe
    // (all-exact) or flat ternary scan (everything else) reproduces any
    // policy's decisions.
    let reg = |a: AttrId| reg_of(a).expect("matched attr has a register");
    let cls = match table_shape(&view) {
        TableShape::AllExact { cols } if cols.len() == 1 => {
            let col = cols[0];
            let mut map = HashMap::with_capacity(view.len());
            for (i, row) in view.rows.iter().enumerate() {
                let Value::Int(v) = row[col] else {
                    unreachable!("all-exact shape guarantees Int cells")
                };
                // Duplicate keys: first (highest-priority) row wins.
                map.entry(v).or_insert(i as u32);
            }
            Cls::Exact1 {
                reg: reg(t.match_attrs[col]),
                map,
            }
        }
        TableShape::AllExact { cols } => {
            let regs: Vec<usize> = cols.iter().map(|&c| reg(t.match_attrs[c])).collect();
            let mut map = HashMap::with_capacity(view.len());
            if cols.is_empty() {
                // Active-column-free rows match every packet.
                if !view.is_empty() {
                    map.insert(Vec::new(), 0u32);
                }
            } else {
                for (i, row) in view.rows.iter().enumerate() {
                    let key: Vec<u64> = cols
                        .iter()
                        .map(|&c| match row[c] {
                            Value::Int(v) => v,
                            _ => unreachable!("all-exact shape guarantees Int cells"),
                        })
                        .collect();
                    map.entry(key).or_insert(i as u32);
                }
            }
            Cls::Exact { regs, map }
        }
        TableShape::SinglePrefix { .. } | TableShape::General => Cls::Scan {
            regs: t.match_attrs.iter().map(|&a| reg(a)).collect(),
            cells: view
                .ternary_rows()
                .expect("symbolic match cells rejected above"),
            ncols: view.cols(),
        },
    };

    let (entries, miss) = table_progs(p, t, reg_of)?;
    Ok(CTable {
        name: t.name.clone(),
        template: stats.kind,
        cls,
        cost_ns: params.lookup_ns(&stats),
        entries,
        miss,
    })
}

impl CompiledEngine {
    /// Compile `p` under a template policy and cost model. Compilation
    /// time lands in the `switch.compile.ns` timer.
    pub fn compile(
        p: &Pipeline,
        policy: TemplatePolicy,
        params: CostParams,
    ) -> Result<CompiledEngine, CompileError> {
        CompiledEngine::compile_named("compiled", p, policy, params)
    }

    fn compile_named(
        name: &'static str,
        p: &Pipeline,
        policy: TemplatePolicy,
        params: CostParams,
    ) -> Result<CompiledEngine, CompileError> {
        mapro_obs::counter!("switch.compiled.compiles").inc();
        let _t = mapro_obs::time!("switch.compile.ns");

        // Register file: every attribute any table matches on, in first
        // appearance order. SetField targets outside this set can never
        // influence a later lookup and are dropped.
        let mut reg_attrs: Vec<AttrId> = Vec::new();
        for t in &p.tables {
            for &a in &t.match_attrs {
                if !reg_attrs.contains(&a) {
                    reg_attrs.push(a);
                }
            }
        }
        let tables = p
            .tables
            .iter()
            .map(|t| compile_table(p, t, &reg_attrs, policy, &params))
            .collect::<Result<Vec<_>, _>>()?;
        let start = table_index(p, &p.start)? as usize;
        let nregs = reg_attrs.len();
        Ok(CompiledEngine {
            name,
            tables,
            start,
            reg_attrs,
            policy,
            params,
            regs: vec![0; nregs],
            key: Vec::new(),
        })
    }

    /// The ESwitch model: per-table template specialization. The
    /// universal GWLB table (prefix + exact columns together) only fits
    /// the slow linear wildcard template; the goto-decomposed pipeline
    /// compiles to an exact-match stage plus tiny LPM stages, hence the
    /// paper's >50% throughput gain and halved latency.
    pub fn eswitch(p: &Pipeline) -> Result<CompiledEngine, CompileError> {
        CompiledEngine::compile_named(
            "eswitch",
            p,
            TemplatePolicy::Specialize {
                generic: TemplateKind::Linear,
            },
            CostParams::eswitch(),
        )
    }

    /// The Lagopus model: uniform tuple-space tables whose per-packet
    /// cost is dominated by fixed I/O overhead — representation-agnostic,
    /// low rate.
    pub fn lagopus(p: &Pipeline) -> Result<CompiledEngine, CompileError> {
        CompiledEngine::compile_named(
            "lagopus",
            p,
            TemplatePolicy::Uniform(TemplateKind::Tss),
            CostParams::lagopus(),
        )
    }

    /// Recompile the table `name` after its entries changed, reusing every
    /// other table. `p` must be the pipeline this engine was compiled
    /// from modulo entry edits: table order and match columns fix the
    /// compiled table indices and the register file, so they may not
    /// change.
    pub fn recompile_table(&mut self, p: &Pipeline, name: &str) -> Result<(), CompileError> {
        mapro_obs::counter!("switch.compiled.table_recompiles").inc();
        let i = table_index(p, name)? as usize;
        self.tables[i] =
            compile_table(p, &p.tables[i], &self.reg_attrs, self.policy, &self.params)?;
        Ok(())
    }

    /// The template each table compiles to under this model's policy.
    pub fn templates(&self) -> Vec<(String, TemplateKind)> {
        self.tables
            .iter()
            .map(|t| (t.name.clone(), t.template))
            .collect()
    }

    /// Cost parameters in use.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Address of each table's entry programs, in table order. Only for
    /// tests that assert per-table recompiles reuse untouched tables.
    #[cfg(test)]
    pub(crate) fn table_addrs(&self) -> Vec<usize> {
        self.tables
            .iter()
            .map(|t| t.entries.as_ptr() as usize)
            .collect()
    }

    /// The dispatch loop, over registers instead of a cloned packet.
    #[inline]
    fn run_one(&mut self, pkt: &Packet) -> ProcessOut {
        for (i, &a) in self.reg_attrs.iter().enumerate() {
            self.regs[i] = pkt.get(a);
        }
        let mut cur = Some(self.start);
        let mut out = ProcessOut {
            output: None,
            dropped: false,
            lookups: 0,
            service_ns: self.params.per_packet_ns,
            latency_ns: self.params.per_packet_ns,
            slow_path: false,
        };
        let limit = self.tables.len() * 2 + 8;
        let mut steps = 0;
        while let Some(ti) = cur {
            steps += 1;
            if steps > limit {
                break; // cycle guard
            }
            let t = &self.tables[ti];
            out.lookups += 1;
            out.service_ns += t.cost_ns;
            out.latency_ns += t.cost_ns;
            match t.cls.lookup(&self.regs, &mut self.key) {
                None => match t.miss {
                    MissProg::Drop => {
                        out.dropped = true;
                        cur = None;
                    }
                    MissProg::Controller => cur = None,
                    MissProg::Fall(n) => cur = Some(n as usize),
                },
                Some(row) => {
                    let e = &t.entries[row as usize];
                    for &(r, v) in &e.sets {
                        self.regs[r] = v;
                    }
                    if let Some(o) = &e.output {
                        out.output = Some(o.clone());
                    }
                    cur = e.next.map(|n| n as usize);
                }
            }
        }
        out
    }
}

impl Switch for CompiledEngine {
    fn name(&self) -> &'static str {
        self.name
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
        self.params.queue_factor
    }
}

impl fmt::Debug for CompiledEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledEngine")
            .field("name", &self.name)
            .field("tables", &self.templates())
            .field("regs", &self.reg_attrs.len())
            .field("start", &self.start)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_core::{ActionSem, Catalog};

    fn two_stage() -> Pipeline {
        let mut c = Catalog::new();
        let dst = c.field("dst", 16);
        let src = c.field("src", 32);
        let m = c.meta("m", 32);
        let set_m = c.action("set_m", ActionSem::SetField(m));
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("t0", vec![dst], vec![set_m]);
        t0.row(vec![Value::Int(1)], vec![Value::Int(10)]);
        t0.row(vec![Value::Int(2)], vec![Value::Int(20)]);
        t0.next = Some("t1".into());
        let mut t1 = Table::new("t1", vec![m, src], vec![out]);
        t1.row(
            vec![Value::Int(10), Value::prefix(0, 1, 32)],
            vec![Value::sym("a")],
        );
        t1.row(
            vec![Value::Int(10), Value::prefix(0x8000_0000, 1, 32)],
            vec![Value::sym("b")],
        );
        t1.row(vec![Value::Int(20), Value::Any], vec![Value::sym("c")]);
        Pipeline::new(c, vec![t0, t1], "t0")
    }

    #[test]
    fn specialization_templates_visible() {
        let p = two_stage();
        let ce = CompiledEngine::eswitch(&p).unwrap();
        let t: Vec<_> = ce.templates().into_iter().map(|(_, k)| k).collect();
        // t0: single exact column → Exact; t1: meta exact + prefix → General.
        assert_eq!(t, [TemplateKind::Exact, TemplateKind::Linear]);
        let lagopus = CompiledEngine::lagopus(&p).unwrap();
        assert!(lagopus
            .templates()
            .iter()
            .all(|(_, k)| *k == TemplateKind::Tss));
    }

    #[test]
    fn costs_accumulate_per_stage() {
        let p = two_stage();
        let mut ce = CompiledEngine::compile(
            &p,
            TemplatePolicy::Uniform(TemplateKind::Linear),
            CostParams::eswitch(),
        )
        .unwrap();
        let pkt = Packet::from_fields(&p.catalog, &[("dst", 1), ("src", 0)]);
        let r = ce.process(&pkt);
        assert_eq!(r.lookups, 2);
        assert!(r.service_ns > CostParams::eswitch().per_packet_ns);
    }

    #[test]
    fn fall_and_controller_miss_policies() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("t0", vec![f], vec![out]);
        t0.row(vec![Value::Int(1)], vec![Value::sym("fast")]);
        t0.miss = MissPolicy::Fall("t1".into());
        let mut t1 = Table::new("t1", vec![f], vec![out]);
        t1.row(vec![Value::Int(2)], vec![Value::sym("slow")]);
        t1.miss = MissPolicy::Controller;
        let p = Pipeline::new(c, vec![t0, t1], "t0");
        let mut ce = CompiledEngine::eswitch(&p).unwrap();
        for f in 0..4u64 {
            let pkt = Packet::from_fields(&p.catalog, &[("f", f)]);
            let want = p.run(&pkt).unwrap();
            let got = ce.process(&pkt);
            assert_eq!(got.output, want.output, "f={f}");
            assert_eq!(got.dropped, want.dropped, "f={f}");
            assert_eq!(got.lookups, want.lookups, "f={f}");
        }
    }

    #[test]
    fn batch_matches_singles() {
        let p = two_stage();
        let mut ce = CompiledEngine::eswitch(&p).unwrap();
        let pkts: Vec<Packet> = (0..10u64)
            .map(|i| Packet::from_fields(&p.catalog, &[("dst", i % 3), ("src", i * 977)]))
            .collect();
        let singles: Vec<ProcessOut> = pkts.iter().map(|pk| ce.process(pk)).collect();
        let refs: Vec<&Packet> = pkts.iter().collect();
        let mut batched = Vec::new();
        ce.process_batch(&refs, &mut batched);
        assert_eq!(batched, singles);
    }

    #[test]
    fn cycle_guard_bounds_the_walk() {
        let mut c = Catalog::new();
        let f = c.field("f", 4);
        let goto = c.action("goto", ActionSem::Goto);
        let mut t0 = Table::new("t0", vec![f], vec![goto]);
        t0.row(vec![Value::Any], vec![Value::sym("t0")]);
        let p = Pipeline::single(c, t0);
        let mut ce = CompiledEngine::eswitch(&p).unwrap();
        let r = ce.process(&Packet::from_fields(&p.catalog, &[("f", 1)]));
        // `2 × tables + 8` visits: the budget past which the reference
        // semantics reports a goto cycle.
        assert_eq!(r.lookups, 10);
        assert!(!r.dropped && r.output.is_none());
    }

    #[test]
    fn recompile_table_matches_fresh_compile() {
        let mut p = two_stage();
        let mut ce = CompiledEngine::eswitch(&p).unwrap();
        p.tables[1].entries[0].actions[0] = Value::sym("z");
        ce.recompile_table(&p, "t1").unwrap();
        let mut fresh = CompiledEngine::eswitch(&p).unwrap();
        for (dst, src) in [(1u64, 0u64), (1, u32::MAX as u64), (2, 5), (3, 5)] {
            let pkt = Packet::from_fields(&p.catalog, &[("dst", dst), ("src", src)]);
            assert_eq!(ce.process(&pkt), fresh.process(&pkt));
        }
        assert!(matches!(
            ce.recompile_table(&p, "nope"),
            Err(CompileError::UnknownTable(_))
        ));
    }

    #[test]
    fn bad_programs_rejected() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let g = c.action("g", ActionSem::Goto);
        let mut t = Table::new("t", vec![f], vec![g]);
        t.row(vec![Value::Int(1)], vec![Value::sym("zzz")]);
        let p = Pipeline::new(c, vec![t], "t");
        assert!(matches!(
            CompiledEngine::eswitch(&p),
            Err(CompileError::UnknownTable(_))
        ));
        assert!(matches!(resolve(&p), Err(CompileError::UnknownTable(_))));

        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let mut t = Table::new("t", vec![f], vec![]);
        t.row(vec![Value::sym("oops")], vec![]);
        let p = Pipeline::single(c, t);
        assert!(matches!(
            CompiledEngine::eswitch(&p),
            Err(CompileError::BadMatchCell { .. })
        ));

        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let t = Table::new("t", vec![f], vec![]);
        let mut p = Pipeline::single(c, t);
        p.start = "nosuch".into();
        assert!(matches!(
            CompiledEngine::eswitch(&p),
            Err(CompileError::UnknownTable(_))
        ));
        assert!(matches!(resolve(&p), Err(CompileError::UnknownTable(_))));
    }
}
