//! The offline toolchain as `mapro check` takes a program: `mapro_lint::lint`
//! → `mapro_normalize::normalize` (3NF) → `mapro_sym::check_equivalent_explain`
//! → `CachedEngine::eswitch`, with a planted non-equivalent mutant (one
//! output cell changed in the normal form) that the check must refute.
//! The `churn` workload runs it on its spec before the churn starts.

use crate::ledger::{self, Counters, Report, Tracer};
use mapro_core::{ActionSem, AttrKind, EquivConfig, EquivOutcome, Packet, Pipeline, Value};
use mapro_switch::CachedEngine;
use mapro_sym::SymConfig;

/// One program for the toolchain.
pub struct Program {
    pub name: &'static str,
    pub pipeline: Pipeline,
    /// Plant a non-equivalent edit into the normalized form.
    pub mutant: bool,
}

/// Change one output cell of `norm` so that a packet which reaches it
/// leaves by another port; returns the mutant and that packet. The probe
/// packets are built from the rows of the input program's tables, every
/// field a row does not match on left at zero.
fn plant(orig: &Pipeline, norm: &Pipeline) -> Option<(Pipeline, Packet)> {
    let rows = orig
        .tables
        .iter()
        .flat_map(|t| t.entries.iter().take(64).map(move |e| (t, e)));
    for (table, e) in rows {
        let mut pkt = Packet::zero(&norm.catalog);
        for (attr, v) in table.match_attrs.iter().zip(&e.matches) {
            match v {
                Value::Int(x) => pkt.set(*attr, *x),
                Value::Prefix { bits, .. } => pkt.set(*attr, *bits),
                _ => {}
            }
        }
        let Ok(v) = norm.run(&pkt) else { continue };
        for (tname, hit) in v.path.iter().zip(&v.hits).rev() {
            let (Some(row), Some(t)) = (hit, norm.table(tname)) else {
                continue;
            };
            let out_col = t
                .action_attrs
                .iter()
                .position(|&a| norm.catalog.attr(a).kind == AttrKind::Action(ActionSem::Output));
            let Some(c) = out_col.filter(|&c| t.entries[*row].actions[c] != Value::Any) else {
                continue;
            };
            let mut m = norm.clone();
            m.table_mut(tname)?.entries[*row].actions[c] = Value::sym("mutant-port");
            let differs = match (m.run(&pkt), orig.run(&pkt)) {
                (Ok(a), Ok(b)) => a.observable() != b.observable(),
                _ => false,
            };
            if differs {
                return Some((m, pkt));
            }
        }
    }
    None
}

/// One program's trip through the toolchain.
pub struct Trip {
    pub name: &'static str,
    mutant: bool,
    /// Lint + normalize + check + compile wall time [ns]; planting the
    /// mutant is not counted.
    pub total_ns: f64,
    lint_ns: f64,
    normalize_ns: f64,
    check_ns: f64,
    compile_ns: f64,
    unknown: usize,
    steps: usize,
    tables_out: usize,
    /// `Ok(outcome)` of the check, or why the program never reached it.
    outcome: Result<EquivOutcome, String>,
    /// Why the symbolic engine handed the check to the enumerative one.
    fallback: Option<&'static str>,
    /// The checked pair, kept for the counterexample oracle.
    pair: Option<(Pipeline, Pipeline)>,
    compiled: bool,
}

pub fn trip(prog: Program, id: u32, tr: &mut Tracer) -> Trip {
    let outer = tr.enter("bench.program", id);
    let sp = tr.enter("lint.lint", id);
    let lint = mapro_lint::lint(&prog.pipeline, &mapro_lint::LintConfig::default());
    let lint_ns = tr.exit(sp) as f64;
    let sp = tr.enter("normalize.normalize", id);
    let norm =
        mapro_normalize::normalize(&prog.pipeline, &mapro_normalize::NormalizeOpts::default());
    let normalize_ns = tr.exit(sp) as f64;
    let mut t = Trip {
        name: prog.name,
        mutant: prog.mutant,
        total_ns: 0.0,
        lint_ns,
        normalize_ns,
        check_ns: 0.0,
        compile_ns: 0.0,
        unknown: lint.unknown_findings,
        steps: norm.steps.len(),
        tables_out: norm.pipeline.tables.len(),
        outcome: Err("not checked".into()),
        fallback: None,
        pair: None,
        compiled: false,
    };
    let candidate = if prog.mutant {
        match plant(&prog.pipeline, &norm.pipeline) {
            Some((m, _)) => m,
            None => {
                t.outcome = Err("no output cell to mutate".into());
                tr.exit(outer);
                return t;
            }
        }
    } else {
        norm.pipeline
    };
    // `check_equivalent` with the fallback cause kept: `mapro check`'s path.
    let sp = tr.enter("sym.check", id);
    let outcome = mapro_sym::check_equivalent_explain(
        &prog.pipeline,
        &candidate,
        &EquivConfig::default(),
        &SymConfig::default(),
    );
    t.check_ns = tr.exit(sp) as f64;
    let (outcome, fallback) = match outcome {
        Ok((o, f)) => (Ok(o), f),
        Err(e) => (Err(format!("{e:?}")), None),
    };
    if !prog.mutant && outcome.as_ref().is_ok_and(EquivOutcome::is_equivalent) {
        let sp = tr.enter("switch.compile", id);
        t.compiled = CachedEngine::eswitch(&candidate).is_ok();
        t.compile_ns = tr.exit(sp) as f64;
    }
    t.outcome = outcome;
    t.fallback = fallback.map(|f| f.cause);
    t.pair = Some((prog.pipeline, candidate));
    t.total_ns = t.lint_ns + t.normalize_ns + t.check_ns + t.compile_ns;
    tr.exit(outer);
    t
}

/// The oracle, outside any timing: a normalized program must be
/// equivalent and compile; a mutant must be reported not equivalent with
/// a counterexample on which the two pipelines really differ.
pub fn correct(t: &Trip) -> bool {
    match (&t.outcome, &t.pair) {
        (Ok(EquivOutcome::Equivalent { .. }), Some(_)) => !t.mutant && t.compiled,
        (Ok(EquivOutcome::Counterexample(cex)), Some((l, r))) => {
            t.mutant
                && match (l.run(&cex.packet), r.run(&cex.packet)) {
                    (Ok(a), Ok(b)) => a.observable() != b.observable(),
                    _ => false,
                }
        }
        _ => false,
    }
}

/// The verdict, the engine that reached it, and why it escalated.
pub fn method(t: &Trip) -> String {
    let escalated = t
        .fallback
        .map(|c| format!(" after the symbolic engine gave up ({c})"))
        .unwrap_or_default();
    match &t.outcome {
        Ok(EquivOutcome::Equivalent {
            method,
            packets_checked,
            ..
        }) => format!("equivalent, decided {method} over {packets_checked} atoms{escalated}"),
        Ok(EquivOutcome::Counterexample(_)) => {
            let engine = if t.fallback.is_some() {
                "enumerative"
            } else {
                "symbolic"
            };
            format!("not equivalent, counterexample from the {engine} engine{escalated}")
        }
        Err(e) => format!("error: {e}"),
    }
}

/// Report the toolchain's per-layer figures for `trips`, with the
/// `mapro_obs` counters taken before (`c0`) and after (`c1`) them.
pub fn layers(r: &mut Report, trips: &[Trip], c0: &Counters, c1: &Counters) {
    let n = trips.len() as f64;
    let avg = |f: &dyn Fn(&Trip) -> f64| trips.iter().map(f).sum::<f64>() / n;
    let of = |mutant: bool| -> Vec<f64> {
        trips
            .iter()
            .filter(|t| t.mutant == mutant)
            .map(|t| t.check_ns / 1e6)
            .collect()
    };
    let mut decided = [0u64; 3];
    let mut atoms = 0usize;
    for t in trips {
        if let Ok(EquivOutcome::Equivalent {
            method,
            packets_checked,
            ..
        }) = &t.outcome
        {
            atoms += packets_checked;
            decided[match method {
                mapro_core::CheckMethod::Symbolic => 0,
                mapro_core::CheckMethod::Exhaustive => 1,
                mapro_core::CheckMethod::Sampled => 2,
            }] += 1;
        }
    }
    r.layer("lint.ms", avg(&|t| t.lint_ns) / 1e6);
    r.layer("lint.findings", c1.delta(c0, "lint.findings"));
    r.layer(
        "lint.unknown_findings",
        trips.iter().map(|t| t.unknown as f64).sum(),
    );
    r.layer("normalize.ms", avg(&|t| t.normalize_ns) / 1e6);
    r.layer("normalize.steps", avg(&|t| t.steps as f64));
    r.layer("normalize.tables_out", avg(&|t| t.tables_out as f64));
    r.layer("sym.check_ms.equivalent", ledger::mean(&of(false)));
    r.layer("sym.check_ms.mutant", ledger::mean(&of(true)));
    r.layer("sym.check_atoms", atoms as f64);
    r.layer("sym.decided.symbolic", decided[0] as f64);
    r.layer("sym.decided.exhaustive", decided[1] as f64);
    r.layer("sym.decided.sampled", decided[2] as f64);
    for name in ["sym.fallbacks", "sym.auto.dd_retry", "sym.auto.dd_wide"] {
        r.layer(name, c1.delta(c0, name));
    }
    for (name, d) in c1.moved(c0, "sym.fallback.") {
        r.note(name.as_str(), d);
    }
    // Shadow: normal-form analysis of every input table, outside the
    // timed chain (normalize calls it internally).
    let mut fd_ms = Vec::new();
    for t in trips {
        if let Some((p, _)) = &t.pair {
            let ta = std::time::Instant::now();
            for table in &p.tables {
                let _ = mapro_fd::analyze(table, &p.catalog);
            }
            fd_ms.push(ledger::secs(ta) * 1e3);
        }
    }
    r.layer("fd.analyze_ms", ledger::mean(&fd_ms));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_workloads::Gwlb;

    #[test]
    fn every_mutant_gets_a_planted_edit() {
        for seed in 0..20 {
            let spec = Gwlb::random(10, 8, seed).universal;
            let norm = mapro_normalize::normalize(&spec, &Default::default());
            assert!(plant(&spec, &norm.pipeline).is_some(), "seed {seed}");
        }
    }
}
