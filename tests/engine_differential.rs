//! Differential harness for the replay engines against the reference
//! semantics, [`Pipeline::run_indexed`].
//!
//! Every switch model runs on `CompiledEngine`; this file checks it under
//! the ESwitch, Lagopus and TCAM template policies, plus the two megaflow
//! caches in front of it (`CachedEngine`'s atom cubes, `OvsSim`'s
//! conservative masks). Per packet:
//!
//! * every engine's output port and drop bit equal the reference
//!   verdict's;
//! * each compiled engine's `lookups` equals the length of the reference
//!   verdict's table path, and its modeled `service_ns` equals
//!   `per_packet_ns + Σ lookup_ns(template stats)` summed over that path
//!   in visit order — bit for bit.
//!
//! Replay digests agree across all engines at 1 and 4 workers. The
//! caches' costs differ by design (hits are cheaper), so only their
//! observable behavior is compared.
//!
//! CI runs this file at `MAPRO_THREADS=1` and `=4` and diffs the output,
//! so everything asserted here must be thread-count independent.

use mapro::prelude::*;
use mapro_classifier::{build_generic, build_specialized, Classifier, TableView, TcamModel};
use mapro_packet::{generate, FlowSpec, Popularity, Trace, TraceSpec};
use mapro_switch::{replay_digest, CachedEngine, CompiledEngine, CostParams, TemplatePolicy};
use mapro_workloads::{random_table, RandomSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

type Factory = Box<dyn Fn() -> Box<dyn Switch + Send> + Sync>;

/// The compiled models: name, policy, cost model.
fn models() -> [(&'static str, TemplatePolicy, CostParams); 3] {
    [
        (
            "eswitch",
            TemplatePolicy::Specialize {
                generic: mapro_classifier::TemplateKind::Linear,
            },
            CostParams::eswitch(),
        ),
        (
            "lagopus",
            TemplatePolicy::Uniform(mapro_classifier::TemplateKind::Tss),
            CostParams::lagopus(),
        ),
        ("tcam", TemplatePolicy::Tcam, CostParams::noviflow()),
    ]
}

/// One factory per engine over the same pipeline: the three compiled
/// models, then the two caches.
fn engine_factories(p: &Pipeline) -> Vec<(&'static str, Factory)> {
    let mut out: Vec<(&'static str, Factory)> = models()
        .into_iter()
        .map(|(name, policy, params)| {
            let p = p.clone();
            let f: Factory = Box::new(move || {
                Box::new(CompiledEngine::compile(&p, policy, params.clone()).expect("compiles"))
            });
            (name, f)
        })
        .collect();
    let (a, b) = (p.clone(), p.clone());
    out.push((
        "cached",
        Box::new(move || Box::new(CachedEngine::eswitch(&a).expect("cached tier compiles"))),
    ));
    out.push((
        "ovs",
        Box::new(move || Box::new(OvsSim::compile(&b).expect("ovs compiles"))),
    ));
    out
}

/// The modeled per-visit cost of each table under `policy`, computed
/// from the real `mapro-classifier` template the policy picks.
fn visit_costs(p: &Pipeline, policy: TemplatePolicy, params: &CostParams) -> HashMap<String, f64> {
    p.tables
        .iter()
        .map(|t| {
            let view = TableView::of(t, &p.catalog);
            let stats = match policy {
                TemplatePolicy::Specialize { generic } => build_specialized(&view, generic).stats(),
                TemplatePolicy::Uniform(kind) => build_generic(&view, kind).stats(),
                TemplatePolicy::Tcam => TcamModel::build(&view, usize::MAX)
                    .expect("unbounded capacity")
                    .stats(),
            };
            (t.name.clone(), params.lookup_ns(&stats))
        })
        .collect()
}

/// Assert every engine agrees with the reference semantics packet by
/// packet (verdicts; lookups and modeled cost for the compiled models),
/// and that all replay digests match at 1 and 4 workers.
fn engines_match_reference(p: &Pipeline, trace: &Trace, ctx: &str) {
    let index: HashMap<&str, usize> = p
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| (t.name.as_str(), i))
        .collect();
    let costs: Vec<(CostParams, HashMap<String, f64>)> = models()
        .into_iter()
        .map(|(_, policy, params)| {
            let c = visit_costs(p, policy, &params);
            (params, c)
        })
        .collect();
    let engines = engine_factories(p);
    let mut sims: Vec<(&str, Box<dyn Switch + Send>)> =
        engines.iter().map(|(n, f)| (*n, f())).collect();

    for (i, (_, pkt)) in trace.packets.iter().enumerate() {
        let want = p.run_indexed(pkt, &index).expect("reference evaluates");
        for (k, (name, sim)) in sims.iter_mut().enumerate() {
            let got = sim.process(pkt);
            assert_eq!(
                (&got.output, got.dropped),
                (&want.output, want.dropped),
                "{ctx}: {name} diverged from the reference on packet {i}"
            );
            let Some((params, visit)) = costs.get(k) else {
                continue; // a cache: only observable behavior is compared
            };
            assert_eq!(
                got.lookups,
                want.path.len(),
                "{ctx}: {name} lookups on packet {i}"
            );
            let mut service = params.per_packet_ns;
            for t in &want.path {
                service += visit[t];
            }
            assert_eq!(
                got.service_ns.to_bits(),
                service.to_bits(),
                "{ctx}: {name} modeled cost on packet {i}: {} vs {service}",
                got.service_ns
            );
        }
    }

    for workers in [1usize, 4] {
        let digests: Vec<(&str, u64)> = engines
            .iter()
            .map(|(n, f)| (*n, replay_digest(&**f, trace, workers)))
            .collect();
        for (name, d) in &digests[1..] {
            assert_eq!(
                digests[0].1, *d,
                "{ctx}: {name} digest differs from {} at {workers} workers",
                digests[0].0
            );
        }
    }
}

/// Trace over a random table's field space: values land in
/// `0..domain + 2`, so a slice of packets miss every row and exercise the
/// drop path (and the cache's dropped-atom cubes) alongside the hits.
fn random_trace(
    rt: &mapro_workloads::RandomTable,
    spec: &RandomSpec,
    popularity: Popularity,
    nflows: usize,
    packets: usize,
    seed: u64,
) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let flows = (0..nflows)
        .map(|_| FlowSpec {
            fields: rt
                .field_ids
                .iter()
                .map(|&id| (id, rng.gen::<u64>() % (spec.domain + 2)))
                .collect(),
            weight: 1 + rng.gen::<u64>() % 4,
        })
        .collect();
    let tspec = TraceSpec { flows, popularity };
    generate(&rt.pipeline.catalog, &tspec, packets, seed)
}

#[test]
fn gwlb_representations_identical_across_engines() {
    let g = Gwlb::fig1();
    let goto = g.normalized(JoinKind::Goto).expect("decomposes");
    let spec = TraceSpec {
        flows: g.trace_spec().flows,
        popularity: Popularity::Zipf(1.1),
    };
    for (name, repr) in [("universal", &g.universal), ("goto", &goto)] {
        let trace = generate(&repr.catalog, &spec, 4_000, 2019);
        engines_match_reference(repr, &trace, &format!("gwlb {name}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random single-table pipelines under uniform traffic: every engine
    /// matches the reference, including on flows that miss every row.
    #[test]
    fn random_tables_identical_uniform(
        seed in 0u64..1000,
        fields in 2usize..4,
        rows in 4usize..12,
        nflows in 8usize..40,
    ) {
        let spec = RandomSpec { fields, rows, domain: 6, planted: vec![] };
        let rt = random_table(&spec, seed);
        let trace = random_trace(&rt, &spec, Popularity::Weighted, nflows, 2_000, seed);
        engines_match_reference(&rt.pipeline, &trace, "random uniform");
    }

    /// Same, under Zipf-skewed traffic — the regime where the megaflow
    /// caches serve almost everything from installed entries.
    #[test]
    fn random_tables_identical_zipf(
        seed in 1000u64..2000,
        fields in 2usize..4,
        rows in 4usize..12,
        nflows in 8usize..40,
    ) {
        let spec = RandomSpec { fields, rows, domain: 6, planted: vec![] };
        let rt = random_table(&spec, seed);
        let trace = random_trace(&rt, &spec, Popularity::Zipf(1.2), nflows, 2_000, seed);
        engines_match_reference(&rt.pipeline, &trace, "random zipf");
    }
}
