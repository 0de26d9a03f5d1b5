//! `churn`: controller writes beside datapath reads on one engine.
//!
//! GWLB 20×8 (the paper's §5 size): the universal table is the spec and
//! the goto form is deployed in a `CachedEngine`. The spec first goes
//! through the offline toolchain (see `toolchain`) as part of set-up.
//! One `IncrementalChecker` session runs between the two. A
//! single-threaded open loop serves, in due-time order, packets offered
//! at a fixed rate and a seeded Poisson stream of intents
//! (`mapro_control::poisson_stream`): port-move round trips and backend
//! reweights, about 3:1. Each intent is compiled for both
//! representations, applied to each, re-proven on each side, and only
//! when the second proof reads `Equivalent` installed in the engine with
//! `CachedEngine::apply_update`. A slow intent delays the packets queued
//! behind it, as in the paper's Fig. 4.

use crate::forward::{population, BATCH, SETUP_REPS, ZIPF};
use crate::ledger::{self, derive, secs, Counters, LogHist, Report, Rng, Tracer};
use crate::toolchain::{self, Program, Trip};
use crate::Args;
use mapro_control::UpdatePlan;
use mapro_core::{EquivConfig, Packet, Pipeline, Value};
use mapro_normalize::JoinKind;
use mapro_packet::{Popularity, Trace, TraceSpec};
use mapro_switch::{CachedEngine, CompiledEngine, ProcessOut, Switch};
use mapro_sym::{FieldSpace, IncrementalChecker, Side, SymConfig};
use mapro_workloads::Gwlb;
use std::sync::Arc;
use std::time::Instant;

/// Offered packet rate [packets/s]: about a quarter of what `forward`
/// sustains on a 2-core host.
const PKT_RATE: f64 = 2.0e6;
/// Mean intent arrival rate [1/s].
const INTENT_RATE: f64 = 3.5;
/// Intents a run holds at least, so ten lie beyond p90.
const MIN_INTENTS: usize = 100;
/// Packets the loop lets queue before it polls them, as a poll-mode
/// datapath reads its receive ring in bursts.
const BURST: u64 = 32;
/// Intents per cycle of the schedule: three port-move round trips (two
/// intents each), then one reweight.
const CYCLE: usize = 7;
/// The ports a moved service may land on.
const PORTS: [u16; 5] = [80, 443, 22, 8080, 53];
/// Backend weight patterns a reweight picks from (8 backends each).
const SPLITS: [[u64; 8]; 4] = [
    [4, 2, 2, 2, 2, 2, 1, 1],
    [2, 2, 2, 2, 2, 2, 2, 2],
    [8, 2, 1, 1, 1, 1, 1, 1],
    [4, 4, 2, 2, 1, 1, 1, 1],
];
/// Intents of each kind whose engine updates are re-timed layer by layer
/// after a traced run.
const SHADOW_MOVES: usize = 4;
const SHADOW_REWEIGHTS: usize = 2;

struct Size {
    services: usize,
    backends: usize,
    flows: usize,
    packets: usize,
    pkt_rate: f64,
    min_intents: usize,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Move a service to another well-known port (`choice` indexes the
    /// ports other than its own).
    Away { svc: usize, choice: usize },
    /// Move it back home.
    Back { svc: usize },
    /// Replace a service's backend split.
    Reweight { svc: usize, split: usize },
}

impl Kind {
    fn is_move(self) -> bool {
        !matches!(self, Kind::Reweight { .. })
    }
}

struct Intent {
    due_s: f64,
    kind: Kind,
}

/// Draw the intent schedule: Poisson arrival times, and kinds in a fixed
/// cycle of three port-move round trips (away, then back home) and one
/// reweight, so every run holds the same mix and a reweight always finds
/// its service at home. Reweights visit the services in turn and cycle
/// through the splits; moved services and their ports are drawn from the
/// seed. The stream holds whole cycles: as many intents as `seconds`
/// brings on average, and at least `min`. The count does not depend on
/// how the arrivals fall, since the caches the intents fill make a run's
/// memory grow with it.
fn schedule(seed: u64, seconds: f64, min: usize, services: usize) -> Vec<Intent> {
    let n = ((seconds * INTENT_RATE).max(min as f64) / CYCLE as f64).ceil() as usize * CYCLE;
    let horizon = n as f64 / INTENT_RATE * 4.0;
    let stream = mapro_control::poisson_stream(INTENT_RATE, horizon, seed, |k| UpdatePlan {
        intent: format!("intent {k}"),
        updates: Vec::new(),
    });
    assert!(stream.len() >= n, "the stream holds {n} intents");
    let mut rng = Rng::new(seed);
    let mut away: Option<usize> = None;
    let mut out = Vec::new();
    for (k, ev) in stream.into_iter().take(n).enumerate() {
        let kind = if let Some(svc) = away.take() {
            Kind::Back { svc }
        } else if k % CYCLE < CYCLE - 1 {
            let svc = rng.below(services);
            away = Some(svc);
            Kind::Away {
                svc,
                choice: rng.below(PORTS.len() - 1),
            }
        } else {
            Kind::Reweight {
                svc: (k / CYCLE) % services,
                split: (k / CYCLE) % SPLITS.len(),
            }
        };
        out.push(Intent {
            due_s: ev.at_sec,
            kind,
        });
    }
    out
}

/// Spec, deployed program, their proof session and the serving engine.
struct State {
    g: Gwlb,
    spec: Pipeline,
    dep: Pipeline,
    session: IncrementalChecker,
    engine: CachedEngine,
    txn: u64,
    reweights: u64,
}

struct SetupTimes {
    total_s: f64,
    trace_gen_s: f64,
    compile_ms: f64,
    session_open_ms: f64,
}

/// The spec's trips through the offline toolchain, with the counters
/// around them.
struct Checked {
    trips: Vec<Trip>,
    before: Counters,
    after: Counters,
}

fn setup(size: &Size, seed: u64) -> (State, Trace, SetupTimes, Checked) {
    let t0 = Instant::now();
    let g = Gwlb::random(size.services, size.backends, seed);
    let spec = g.universal.clone();
    // The spec goes through the toolchain as `mapro check` takes it, and
    // a mutant of its normal form must be refuted, before the goto form
    // is deployed.
    let before = Counters::snapshot();
    let mut untraced = Tracer::new(false);
    let trips = [("spec", false), ("spec-mutant", true)]
        .into_iter()
        .map(|(name, mutant)| {
            let prog = Program {
                name,
                pipeline: spec.clone(),
                mutant,
            };
            toolchain::trip(prog, 0, &mut untraced)
        })
        .collect();
    let checked = Checked {
        trips,
        before,
        after: Counters::snapshot(),
    };
    let dep = g
        .normalized(JoinKind::Goto)
        .expect("GWLB decomposes along ip_dst -> tcp_dst");
    let t = Instant::now();
    let tspec = TraceSpec {
        flows: population(&g, size.flows),
        popularity: Popularity::Zipf(ZIPF),
    };
    let trace = mapro_packet::generate(&dep.catalog, &tspec, size.packets, seed);
    let trace_gen_s = secs(t);
    let t = Instant::now();
    let engine = CachedEngine::eswitch(&dep).expect("the goto form compiles");
    let compile_ms = secs(t) * 1e3;
    let t = Instant::now();
    let session = IncrementalChecker::new(&spec, &dep, &SymConfig::default())
        .expect("a session opens on a GWLB pair");
    let session_open_ms = secs(t) * 1e3;
    let st = State {
        g,
        spec,
        dep,
        session,
        engine,
        txn: 0,
        reweights: 0,
    };
    let times = SetupTimes {
        total_s: secs(t0),
        trace_gen_s,
        compile_ms,
        session_open_ms,
    };
    (st, trace, times, checked)
}

/// Run one packet of every distinct flow through the engine and through
/// `Pipeline::run` on the deployed program; returns (flows, mismatches)
/// and the reference cost per flow in ns.
fn oracle(st: &mut State, trace: &Trace) -> (u64, u64, f64) {
    let index = st.dep.name_index();
    let mut seen = std::collections::HashSet::new();
    let (mut n, mut bad, mut ref_ns) = (0u64, 0u64, 0u128);
    for (f, pkt) in &trace.packets {
        if !seen.insert(*f) {
            continue;
        }
        let t = Instant::now();
        let want = st
            .dep
            .run_indexed(pkt, &index)
            .expect("the deployed program evaluates every packet");
        ref_ns += t.elapsed().as_nanos();
        let got = st.engine.process(pkt);
        n += 1;
        if got.output != want.output || got.dropped != want.dropped {
            bad += 1;
        }
    }
    (n, bad, ref_ns as f64 / n.max(1) as f64)
}

/// Per-layer accounting of the intents of one region.
#[derive(Default)]
struct IntentStats {
    /// Intents handled per kind (0 = move, 1 = reweight).
    intents: [u64; 2],
    /// Per kind (0 = move, 1 = reweight): side-update proof times [ns].
    proof_ns: [Vec<f64>; 2],
    /// Per kind: side updates kept on the delta path, and all of them.
    delta: [(u64, u64); 2],
    plan_ns: Vec<f64>,
    apply_ns: Vec<f64>,
    rule_update_ns: Vec<f64>,
    updates_goto: u64,
    updates_universal: u64,
    /// (deployed program before, goto plan) of the first intents of each
    /// kind, re-timed layer by layer after the region.
    shadow: Vec<(Pipeline, UpdatePlan)>,
    shadow_kinds: [usize; 2],
}

/// Handle one intent end to end; returns whether it became visible with
/// an `Equivalent` proof.
fn handle(
    st: &mut State,
    kind: Kind,
    id: u32,
    tr: &mut Tracer,
    acc: &mut IntentStats,
    fallbacks: &Arc<mapro_obs::Counter>,
) -> bool {
    let k = usize::from(!kind.is_move());
    acc.intents[k] += 1;
    let sp = tr.enter("workloads.plan", id);
    let (pu, pg) = match kind {
        Kind::Away { svc, choice } => {
            let home = st.g.services[svc].port;
            let port = PORTS
                .iter()
                .copied()
                .filter(|&p| p != home)
                .nth(choice)
                .expect("four other ports");
            (
                st.g.move_service_port(&st.spec, svc, port),
                st.g.move_service_port(&st.dep, svc, port),
            )
        }
        Kind::Back { svc } => {
            let home = st.g.services[svc].port;
            (
                st.g.move_service_port(&st.spec, svc, home),
                st.g.move_service_port(&st.dep, svc, home),
            )
        }
        Kind::Reweight { svc, split } => {
            st.reweights += 1;
            let backends: Vec<(Value, String)> = mapro_workloads::weighted_split(&SPLITS[split])
                .into_iter()
                .enumerate()
                .map(|(i, pfx)| (pfx, format!("rw{}-{i}", st.reweights)))
                .collect();
            (
                st.g.reweight_backends(&st.spec, svc, &backends),
                st.g.reweight_backends(&st.dep, svc, &backends),
            )
        }
    };
    acc.plan_ns.push(tr.exit(sp) as f64);
    acc.updates_universal += pu.updates.len() as u64;
    acc.updates_goto += pg.updates.len() as u64;
    if tr.on() && acc.shadow_kinds[k] < [SHADOW_MOVES, SHADOW_REWEIGHTS][k] {
        acc.shadow_kinds[k] += 1;
        acc.shadow.push((st.dep.clone(), pg.clone()));
    }

    let sp = tr.enter("control.apply", id);
    let ru = mapro_control::plan_delta_rows(&st.spec, &pu);
    let rg = mapro_control::plan_delta_rows(&st.dep, &pg);
    let applied = mapro_control::apply_plan_silent(&mut st.spec, &pu).is_ok()
        && mapro_control::apply_plan_silent(&mut st.dep, &pg).is_ok();
    acc.apply_ns.push(tr.exit(sp) as f64);
    if !applied {
        return false;
    }

    let mut token = None;
    for (side, p, rows) in [(Side::Left, &st.spec, &ru), (Side::Right, &st.dep, &rg)] {
        st.txn += 1;
        let fb = fallbacks.get();
        let sp = tr.enter("sym.incr.update", id);
        let t = st.session.update(side, p, rows, 1, st.txn);
        acc.proof_ns[k].push(tr.exit(sp) as f64);
        acc.delta[k].0 += u64::from(fallbacks.get() == fb);
        acc.delta[k].1 += 1;
        token = t.ok();
    }
    if !token.is_some_and(|t| t.verdict.is_equivalent()) {
        return false;
    }
    for u in &pg.updates {
        let sp = tr.enter("switch.megaflow.apply_update", id);
        let ok = st.engine.apply_update(u).is_ok();
        acc.rule_update_ns.push(tr.exit(sp) as f64);
        if !ok {
            return false;
        }
    }
    true
}

/// What one open-loop region measured.
struct Region {
    intent_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    bad_intents: u64,
    pkt: LogHist,
    pkt_wait_ns: f64,
    batch_sum_ns: f64,
    batches: u64,
    packets: u64,
    dropped: u64,
    last_done_s: f64,
    wall_ns: u64,
    idle_ns: u64,
    control_ns: u64,
    acc: IntentStats,
}

fn region(
    st: &mut State,
    trace: &Trace,
    sched: &[Intent],
    seconds: f64,
    rate: f64,
    tr: &mut Tracer,
) -> Region {
    let fallbacks = mapro_obs::registry().counter("sym.incr.fallbacks");
    let n_pkts = (seconds * rate) as u64;
    let len = trace.len() as u64;
    let mut r = Region {
        intent_ms: Vec::new(),
        wait_ms: Vec::new(),
        bad_intents: 0,
        pkt: LogHist::new(),
        pkt_wait_ns: 0.0,
        batch_sum_ns: 0.0,
        batches: 0,
        packets: 0,
        dropped: 0,
        last_done_s: 0.0,
        wall_ns: 0,
        idle_ns: 0,
        control_ns: 0,
        acc: IntentStats::default(),
    };
    let mut batch: Vec<&Packet> = Vec::with_capacity(BATCH);
    let mut out: Vec<ProcessOut> = Vec::with_capacity(BATCH);
    let (mut pi, mut ei) = (0u64, 0usize);
    let due = |i: u64| i as f64 / rate;
    let start = Instant::now();
    loop {
        let now = secs(start);
        let intent_due = sched.get(ei).map(|i| i.due_s);
        let pkt_due = (pi < n_pkts).then(|| due(pi));
        if intent_due.is_none() && pkt_due.is_none() {
            break;
        }
        let intent_ready = intent_due.is_some_and(|d| d <= now);
        if intent_ready && pkt_due.is_none_or(|p| intent_due.is_some_and(|d| d <= p)) {
            let it = &sched[ei];
            let sp = tr.enter("bench.intent", ei as u32);
            let ok = handle(st, it.kind, ei as u32, tr, &mut r.acc, &fallbacks);
            r.control_ns += tr.exit(sp);
            let done = secs(start);
            r.intent_ms.push((done - it.due_s) * 1e3);
            r.wait_ms.push((now - it.due_s) * 1e3);
            r.bad_intents += u64::from(!ok);
            ei += 1;
            continue;
        }
        if let Some(p) = pkt_due {
            let burst_last = due((pi + BURST - 1).min(n_pkts - 1));
            if burst_last <= now || (intent_ready && p <= now) {
                // Packets due after a waiting intent queue behind it.
                let limit = intent_due.filter(|_| intent_ready).unwrap_or(now);
                batch.clear();
                let first = pi;
                while pi < n_pkts && batch.len() < BATCH && due(pi) <= limit {
                    batch.push(&trace.packets[(pi % len) as usize].1);
                    pi += 1;
                }
                let began = secs(start);
                let sp = tr.enter("switch.megaflow.process_batch", 0);
                st.engine.process_batch(&batch, &mut out);
                r.batch_sum_ns += tr.exit(sp) as f64;
                r.batches += 1;
                let done = secs(start);
                for i in first..pi {
                    r.pkt.record(((done - due(i)) * 1e9) as u64);
                    r.pkt_wait_ns += (began - due(i)).max(0.0) * 1e9;
                }
                r.dropped += out.iter().filter(|o| o.dropped).count() as u64;
                r.packets += pi - first;
                r.last_done_s = done;
                continue;
            }
        }
        // Nothing due: wait for the next intent or the next full burst.
        let wake = [
            intent_due,
            pkt_due.map(|_| due((pi + BURST - 1).min(n_pkts - 1))),
        ]
        .into_iter()
        .flatten()
        .fold(f64::INFINITY, f64::min);
        let idle = Instant::now();
        while secs(start) < wake {
            std::hint::spin_loop();
        }
        r.idle_ns += idle.elapsed().as_nanos() as u64;
    }
    r.wall_ns = start.elapsed().as_nanos() as u64;
    r
}

/// Re-time the engine-update layers of the recorded intents one public
/// call at a time: recompiling the compiled tier, computing the dirty
/// region, and refreshing the behavior cover. Returns mean µs of each.
fn shadow(samples: &[(Pipeline, UpdatePlan)]) -> (f64, f64, f64) {
    // The cache's own cover budgets (see `mapro_switch::megaflow`).
    let cfg = SymConfig {
        max_atoms: 1 << 16,
        partition_budget: 1 << 16,
        ..SymConfig::default()
    };
    let (mut recompile, mut dirty_ns, mut refresh) = (Vec::new(), Vec::new(), Vec::new());
    for (before, plan) in samples {
        let mut p = before.clone();
        let space = FieldSpace::from_pipelines(&[&p]);
        for u in &plan.updates {
            let rows = mapro_control::delta_rows(&p, u);
            let t = Instant::now();
            let dirty = mapro_sym::dirty_region(&p, &space, &rows);
            dirty_ns.push(t.elapsed().as_nanos() as f64);
            let cover = mapro_sym::compile(&p, &space, &cfg).ok();
            let mut next = p.clone();
            if mapro_control::apply_update(&mut next, u).is_err() {
                break;
            }
            let t = Instant::now();
            let _ = CompiledEngine::eswitch(&next);
            recompile.push(t.elapsed().as_nanos() as f64);
            if let (Some(cover), Some(d)) = (cover, dirty) {
                let t = Instant::now();
                let _ = mapro_sym::refresh_cover(&cover, &next, &d, &cfg);
                refresh.push(t.elapsed().as_nanos() as f64);
            }
            p = next;
        }
    }
    (
        ledger::mean(&recompile) / 1e3,
        ledger::mean(&dirty_ns) / 1e3,
        ledger::mean(&refresh) / 1e3,
    )
}

pub fn run(args: &Args) -> Report {
    let size = if args.smoke {
        Size {
            services: 10,
            backends: 8,
            flows: 1 << 12,
            packets: 1 << 14,
            pkt_rate: 2.0e5,
            min_intents: 10,
        }
    } else {
        Size {
            services: 20,
            backends: 8,
            flows: 1 << 16,
            packets: 1 << 19,
            pkt_rate: PKT_RATE,
            min_intents: MIN_INTENTS,
        }
    };
    let mut r = Report::default();

    let mut times = Vec::new();
    let mut st = None;
    for rep in 0..SETUP_REPS {
        drop(st.take());
        let (s, trace, t, checked) = setup(&size, derive(args.seed, rep));
        st = Some((s, trace, checked));
        times.push(t);
    }
    let (mut st, trace, checked) = st.expect("at least one set-up");
    for t in &checked.trips {
        r.count(1, u64::from(!toolchain::correct(t)));
        r.note(
            &format!("toolchain {}", t.name),
            format!("{:.1} ms, {}", t.total_ns / 1e6, toolchain::method(t)),
        );
    }
    let med = |f: &dyn Fn(&SetupTimes) -> f64| {
        ledger::median(&mut times.iter().map(f).collect::<Vec<_>>())
    };

    // Untimed oracle pass on the initial program; it also warms the cache.
    let (n, bad, ref_ns) = oracle(&mut st, &trace);
    r.count(n, bad);

    let sched = schedule(
        derive(args.seed, 100),
        args.seconds,
        size.min_intents,
        size.services,
    );
    let (c0, m0) = (Counters::snapshot(), st.engine.stats());
    let mut tracer = Tracer::new(args.trace);
    let reg = region(
        &mut st,
        &trace,
        &sched,
        args.seconds,
        size.pkt_rate,
        &mut tracer,
    );
    r.count(reg.intent_ms.len() as u64, reg.bad_intents);
    r.count(reg.packets, 0);

    // Final oracle: the engine against the reference on every flow, and a
    // from-scratch check agreeing with the session.
    let (n, bad, _) = oracle(&mut st, &trace);
    r.count(n, bad);
    let fresh = mapro_sym::check_equivalent(&st.spec, &st.dep, &EquivConfig::default());
    let agree = fresh.is_ok_and(|o| o.is_equivalent()) && st.session.verdict().is_equivalent();
    r.count(1, u64::from(!agree));

    let mut lat = reg.intent_ms.clone();
    r.e2e("setup_s", med(&|t| t.total_s));
    r.e2e("peak_rss_mb", ledger::peak_rss_mb());
    r.e2e(
        "items_per_s",
        reg.packets as f64 / reg.last_done_s.max(1e-9),
    );
    r.e2e("latency_p50_ms", reg.pkt.quantile(0.5) / 1e6);
    let intent_p50_ms = ledger::quantile(&mut lat, 0.5);
    let tail_ms = ledger::quantile(&mut lat, 0.9);
    let service: Vec<f64> = reg
        .intent_ms
        .iter()
        .zip(&reg.wait_ms)
        .map(|(l, w)| l - w)
        .collect();
    r.e2e("service_geomean_ms", ledger::geomean(&service));

    let [moves, reweights] = reg.acc.intents;
    r.note(
        "workload",
        format!(
            "GWLB {}x{}: universal spec, goto deployed in CachedEngine::eswitch",
            size.services, size.backends
        ),
    );
    r.note(
        "offered",
        format!(
            "{} packets/s open loop, {INTENT_RATE} intents/s Poisson",
            size.pkt_rate
        ),
    );
    r.note(
        "intents",
        format!(
            "{} ({moves} moves, {reweights} reweights); latency samples = {}, \
             p50 {intent_p50_ms:.1} ms, p90 {tail_ms:.1} ms",
            reg.intent_ms.len(),
            reg.intent_ms.len()
        ),
    );
    r.note(
        "delta_share.move",
        ledger::ratio(reg.acc.delta[0].0, reg.acc.delta[0].1),
    );
    r.note(
        "delta_share.reweight",
        ledger::ratio(reg.acc.delta[1].0, reg.acc.delta[1].1),
    );
    r.note("dropped_share", ledger::ratio(reg.dropped, reg.packets));
    r.note(
        "packets",
        format!(
            "{} (p50 {:.1} us, p99 {:.1} us)",
            reg.packets,
            reg.pkt.quantile(0.5) / 1e3,
            reg.pkt.quantile(0.99) / 1e3
        ),
    );
    r.note("control_share", ledger::ratio(reg.control_ns, reg.wall_ns));
    r.note(
        "final",
        format!(
            "session {}, from-scratch check agrees: {agree}",
            st.session.verdict().label()
        ),
    );

    if args.trace {
        let c1 = Counters::snapshot();
        let m1 = st.engine.stats();
        let (hits, misses) = (m1.hits - m0.hits, m1.misses - m0.misses);
        let miss_share = ledger::ratio(misses, hits + misses);
        let a = &reg.acc;
        r.layer(
            "switch.megaflow.batch_ns",
            reg.batch_sum_ns / reg.batches.max(1) as f64,
        );
        r.layer("switch.megaflow.hit_rate", 1.0 - miss_share);
        r.layer(
            "switch.megaflow.misses",
            c1.delta(&c0, "switch.megaflow.misses"),
        );
        r.layer("switch.megaflow.entries", st.engine.cache_entries() as f64);
        r.layer(
            "switch.megaflow.invalidations",
            c1.delta(&c0, "switch.megaflow.invalidations"),
        );
        r.layer(
            "switch.megaflow.apply_update_us",
            ledger::mean(&a.rule_update_ns) / 1e3,
        );

        let mut compiled = CompiledEngine::eswitch(&st.dep).expect("the goto form compiles");
        let mut out = Vec::with_capacity(BATCH);
        let pkts: Vec<&Packet> = trace.packets.iter().map(|(_, p)| p).collect();
        let tc = Instant::now();
        for chunk in pkts.chunks(BATCH) {
            compiled.process_batch(chunk, &mut out);
        }
        let pkt_ns = tc.elapsed().as_nanos() as f64 / pkts.len() as f64;
        r.layer("switch.compiled.pkt_ns", pkt_ns);
        r.layer("switch.compiled.miss_cost_ns", pkt_ns * miss_share);
        let (recompile_us, dirty_us, refresh_us) = shadow(&a.shadow);
        r.layer("switch.shadow.recompile_us", recompile_us);
        r.layer("sym.shadow.dirty_region_us", dirty_us);
        r.layer("sym.shadow.refresh_cover_us", refresh_us);
        r.layer("switch.compile_ms", med(&|t| t.compile_ms));

        r.layer("sym.proof_us.move", ledger::mean(&a.proof_ns[0]) / 1e3);
        r.layer("sym.proof_us.reweight", ledger::mean(&a.proof_ns[1]) / 1e3);
        r.layer(
            "sym.atoms_rechecked",
            c1.delta(&c0, "sym.incr.atoms_rechecked"),
        );
        r.layer("sym.incr.fallbacks", c1.delta(&c0, "sym.incr.fallbacks"));
        r.layer(
            "sym.delta_share.move",
            ledger::ratio(a.delta[0].0, a.delta[0].1),
        );
        r.layer(
            "sym.delta_share.reweight",
            ledger::ratio(a.delta[1].0, a.delta[1].1),
        );
        r.layer("sym.session_open_ms", med(&|t| t.session_open_ms));
        toolchain::layers(&mut r, &checked.trips, &checked.before, &checked.after);
        r.layer("sym.cache.hits", c1.delta(&c0, "sym.cache.hits"));
        r.layer("sym.cache.misses", c1.delta(&c0, "sym.cache.misses"));
        r.layer("dd.nodes", c1.delta(&c0, "dd.nodes"));

        let intents = reg.intent_ms.len() as f64;
        r.layer("workloads.plan_us", ledger::mean(&a.plan_ns) / 1e3);
        r.layer(
            "workloads.updates_per_intent.goto",
            a.updates_goto as f64 / intents.max(1.0),
        );
        r.layer(
            "workloads.updates_per_intent.universal",
            a.updates_universal as f64 / intents.max(1.0),
        );
        r.layer("control.apply_us", ledger::mean(&a.apply_ns) / 1e3);
        r.layer("churn.intents", intents);
        r.layer("churn.intent_p50_ms", intent_p50_ms);
        r.layer("churn.intent_wait_ms", ledger::mean(&reg.wait_ms));
        r.layer(
            "churn.control_share",
            ledger::ratio(reg.control_ns, reg.wall_ns),
        );
        r.layer(
            "churn.pkt_wait_us",
            reg.pkt_wait_ns / reg.packets.max(1) as f64 / 1e3,
        );
        r.layer("churn.pkt_p50_us", reg.pkt.quantile(0.5) / 1e3);
        r.layer("churn.pkt_p99_us", reg.pkt.quantile(0.99) / 1e3);
        r.layer(
            "workload.dropped_share",
            ledger::ratio(reg.dropped, reg.packets),
        );
        r.layer("workload.distinct_flows", trace.distinct_flows() as f64);
        r.layer("workload.samples", intents);
        r.layer("workload.latency_tail_ms", tail_ms);
        r.layer("packet.trace_gen_s", med(&|t| t.trace_gen_s));
        r.layer("core.ref_ns", ref_ns);

        // Tracing cost: the busy time over the same work with the measured
        // per-span cost taken out (no untraced twin runs the same intents).
        let busy = (reg.wall_ns - reg.idle_ns) as f64;
        let cost = ledger::span_cost_ns() * tracer.spans.len() as f64;
        r.layer("trace.overhead", busy / (busy - cost).max(1.0));
        ledger::ledger(&mut r, &tracer, reg.wall_ns, reg.idle_ns);
        crate::write_spans(&mut r, &tracer, "churn");
    }
    r
}
