//! `forward`: the steady-state datapath.
//!
//! GWLB 60×16 normalized to the goto form (the deployed normal form),
//! served by `CachedEngine::eswitch`. A closed loop replays a Zipf(1.1)
//! trace over a population of 2^20 flows placed inside the backend
//! prefixes, in 128-packet `process_batch` calls. The flows far outnumber
//! the 960 megaflow cubes, so the fast path does nearly all the work, the
//! compiled tier runs only on the first packet of each cube, and the
//! verifier and normalizer never run.

use crate::ledger::{self, derive, secs, Counters, LogHist, Report, Tracer};
use crate::Args;
use mapro_core::{Packet, Pipeline, Value};
use mapro_normalize::JoinKind;
use mapro_packet::{FlowSpec, Popularity, Trace, TraceSpec};
use mapro_switch::{CachedEngine, CompiledEngine, ProcessOut, Switch};
use mapro_workloads::Gwlb;
use std::sync::Arc;
use std::time::Instant;

/// Packets per `process_batch` call (the engines' own batch size).
pub const BATCH: usize = mapro_switch::compile::BATCH;
/// Zipf exponent of flow popularity.
pub const ZIPF: f64 = 1.1;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: u64 = 3;

struct Size {
    services: usize,
    backends: usize,
    flows: usize,
    packets: usize,
}

/// `Pipeline::run`'s (output port, dropped) per flow id; `None` for flows
/// the trace never sends.
type Reference = Vec<Option<(Option<String>, bool)>>;

/// The deployed program and its traffic, with reference verdicts.
struct Setup {
    pipeline: Pipeline,
    trace: Trace,
    reference: Reference,
    engine: CachedEngine,
    trace_gen_s: f64,
    ref_ns_per_flow: f64,
    compile_ms: f64,
}

/// The E20 flow population: flow `k` cycles the (service, backend) pairs
/// and varies the low 16 `ip_src` bits inside the backend's prefix, so the
/// population grows into the millions while the cube count stays fixed.
pub fn population(g: &Gwlb, flows: usize) -> Vec<FlowSpec> {
    let pairs: Vec<(u64, u64, u64)> = g
        .services
        .iter()
        .flat_map(|s| {
            s.backends.iter().map(move |(pfx, _)| {
                let base = match *pfx {
                    Value::Prefix { bits, .. } => bits,
                    Value::Int(v) => v,
                    _ => 0,
                };
                (base, u64::from(s.ip), u64::from(s.port))
            })
        })
        .collect();
    (0..flows)
        .map(|k| {
            let (base, ip, port) = pairs[k % pairs.len()];
            let low = (k / pairs.len()) as u64 & 0xffff;
            FlowSpec {
                fields: vec![(g.ip_src, base | low), (g.ip_dst, ip), (g.tcp_dst, port)],
                weight: 1,
            }
        })
        .collect()
}

/// Reference verdicts for every flow the trace sends, from the reference
/// semantics; returns them with the mean cost per flow in ns.
fn reference(p: &Pipeline, trace: &Trace, flows: usize) -> (Reference, f64) {
    let t = Instant::now();
    let index = p.name_index();
    let mut refs: Reference = vec![None; flows];
    let mut n = 0u64;
    for (f, pkt) in &trace.packets {
        if refs[*f].is_none() {
            let v = p
                .run_indexed(pkt, &index)
                .expect("a normalized GWLB program evaluates every packet");
            refs[*f] = Some((v.output.as_deref().map(str::to_owned), v.dropped));
            n += 1;
        }
    }
    (refs, t.elapsed().as_nanos() as f64 / n.max(1) as f64)
}

fn setup(size: &Size, seed: u64) -> Setup {
    let g = Gwlb::random(size.services, size.backends, seed);
    let pipeline = g
        .normalized(JoinKind::Goto)
        .expect("GWLB decomposes along ip_dst -> tcp_dst");
    let t = Instant::now();
    let spec = TraceSpec {
        flows: population(&g, size.flows),
        popularity: Popularity::Zipf(ZIPF),
    };
    let trace = mapro_packet::generate(&pipeline.catalog, &spec, size.packets, seed);
    let trace_gen_s = secs(t);
    let (reference, ref_ns_per_flow) = reference(&pipeline, &trace, size.flows);
    let t = Instant::now();
    let engine = CachedEngine::eswitch(&pipeline).expect("the goto form compiles");
    let compile_ms = secs(t) * 1e3;
    Setup {
        pipeline,
        trace,
        reference,
        engine,
        trace_gen_s,
        ref_ns_per_flow,
        compile_ms,
    }
}

/// A verdict as one word: the address of the output port's name (the
/// engine hands out shared `Arc<str>` ports, so a warm cache returns the
/// same one every pass) with the drop flag in the low bit.
fn code(o: &ProcessOut) -> u64 {
    o.output
        .as_ref()
        .map_or(0, |s| Arc::as_ptr(s).cast::<u8>() as usize as u64)
        | u64::from(o.dropped)
}

/// Reference verdicts per flow and the oracle pass's verdict codes per
/// packet, which every timed pass must reproduce.
struct Oracle<'a> {
    reference: &'a Reference,
    flows: Vec<usize>,
    codes: Vec<u64>,
}

impl Oracle<'_> {
    /// Whether packet `i` got its reference verdict.
    fn agrees(&self, i: usize, o: &ProcessOut) -> bool {
        let (port, dropped) = self.reference[self.flows[i]]
            .as_ref()
            .expect("every traced flow has a reference verdict");
        o.output.as_deref() == port.as_deref() && o.dropped == *dropped
    }

    /// Packets of batch `ci` whose verdict differs from the reference: a
    /// verdict code unlike the oracle pass's is compared by content.
    fn mismatches(&self, ci: usize, out: &[ProcessOut]) -> u64 {
        let base = ci * BATCH;
        out.iter()
            .enumerate()
            .filter(|&(j, o)| code(o) != self.codes[base + j] && !self.agrees(base + j, o))
            .count() as u64
    }
}

/// The quantile of a batch's times over passes that stands for its cost.
/// The host's neighbours only ever add time to a batch, and on a shared
/// host they come and go on a scale of seconds, so a low quantile measures
/// the program where a median would measure how busy the host was.
pub const FLOOR_Q: f64 = 0.02;

/// What one timed region measured.
struct Region {
    /// `batch_ns[b]`: the wall time of batch `b` of the trace in each pass
    /// (a batch takes microseconds, so `u32` holds it and keeps the
    /// samples of a long run small).
    batch_ns: Vec<Vec<u32>>,
    /// Every batch time of the region, as it came.
    all: LogHist,
    passes: usize,
    packets: u64,
    wall_ns: u64,
    /// Packets whose verdict differed from the reference.
    bad: u64,
}

impl Region {
    /// Per batch of the trace, its `FLOOR_Q` quantile time over passes.
    fn floors(&self) -> Vec<f64> {
        self.batch_ns
            .iter()
            .map(|t| {
                ledger::quantile(
                    &mut t.iter().map(|&ns| f64::from(ns)).collect::<Vec<_>>(),
                    FLOOR_Q,
                )
            })
            .collect()
    }

    /// Packets per second with every batch at its floor.
    fn floor_rate(&self, packets: usize) -> f64 {
        packets as f64 / self.floors().iter().sum::<f64>() * 1e9
    }

    /// Mean batch time over the region [ns].
    fn mean_ns(&self) -> f64 {
        let n = self.batch_ns.iter().map(Vec::len).sum::<usize>();
        self.batch_ns
            .iter()
            .flatten()
            .map(|&ns| f64::from(ns))
            .sum::<f64>()
            / n.max(1) as f64
    }
}

/// Replay whole passes of the trace until `seconds` have gone by, timing
/// every batch and checking every verdict against the oracle.
fn region(
    engine: &mut CachedEngine,
    chunks: &[Vec<&Packet>],
    oracle: &Oracle,
    seconds: f64,
    tr: &mut Tracer,
) -> Region {
    let mut out: Vec<ProcessOut> = Vec::with_capacity(BATCH);
    let mut r = Region {
        batch_ns: vec![Vec::new(); chunks.len()],
        all: LogHist::new(),
        passes: 0,
        packets: 0,
        wall_ns: 0,
        bad: 0,
    };
    let t0 = Instant::now();
    while secs(t0) < seconds {
        for (ci, chunk) in chunks.iter().enumerate() {
            let sp = tr.enter("switch.megaflow.process_batch", 0);
            engine.process_batch(chunk, &mut out);
            let ns = tr.exit(sp);
            r.batch_ns[ci].push(u32::try_from(ns).unwrap_or(u32::MAX));
            r.all.record(ns);
            r.packets += chunk.len() as u64;
            r.bad += oracle.mismatches(ci, &out);
        }
        r.passes += 1;
    }
    r.wall_ns = t0.elapsed().as_nanos() as u64;
    r
}

pub fn run(args: &Args) -> Report {
    let size = if args.smoke {
        Size {
            services: 20,
            backends: 8,
            flows: 1 << 14,
            packets: 1 << 16,
        }
    } else {
        Size {
            services: 60,
            backends: 16,
            flows: 1 << 20,
            packets: 1 << 20,
        }
    };
    let mut r = Report::default();

    // Set-up, several times on fresh inputs; the last one is served.
    let mut times: Vec<[f64; 4]> = Vec::new();
    let mut s = None;
    for rep in 0..SETUP_REPS {
        drop(s.take());
        let t = Instant::now();
        let next = setup(&size, derive(args.seed, rep));
        times.push([
            secs(t),
            next.trace_gen_s,
            next.ref_ns_per_flow,
            next.compile_ms,
        ]);
        s = Some(next);
    }
    let med = |i: usize| ledger::median(&mut times.iter().map(|t| t[i]).collect::<Vec<_>>());
    let Setup {
        pipeline,
        trace,
        reference,
        mut engine,
        ..
    } = s.expect("at least one set-up");

    // Oracle pass, untimed: every packet against the reference. It also
    // fills the megaflow cache, as a warm datapath would have it.
    let chunks: Vec<Vec<&Packet>> = {
        let pkts: Vec<&Packet> = trace.packets.iter().map(|(_, p)| p).collect();
        pkts.chunks(BATCH).map(<[&Packet]>::to_vec).collect()
    };
    let mut out = Vec::with_capacity(BATCH);
    let mut oracle = Oracle {
        reference: &reference,
        flows: trace.packets.iter().map(|(f, _)| *f).collect(),
        codes: Vec::with_capacity(trace.len()),
    };
    let (mut bad, mut dropped) = (0u64, 0u64);
    for (ci, chunk) in chunks.iter().enumerate() {
        engine.process_batch(chunk, &mut out);
        for (j, o) in out.iter().enumerate() {
            bad += u64::from(!oracle.agrees(ci * BATCH + j, o));
            dropped += u64::from(o.dropped);
            oracle.codes.push(code(o));
        }
    }
    r.count(trace.len() as u64, bad);

    let mut tracer = Tracer::new(false);
    let (plain, traced) = if args.trace {
        let plain = region(
            &mut engine,
            &chunks,
            &oracle,
            args.seconds / 2.0,
            &mut tracer,
        );
        let before = (Counters::snapshot(), engine.stats());
        tracer = Tracer::new(true);
        let traced = region(
            &mut engine,
            &chunks,
            &oracle,
            args.seconds / 2.0,
            &mut tracer,
        );
        (plain, Some((traced, before)))
    } else {
        (
            region(&mut engine, &chunks, &oracle, args.seconds, &mut tracer),
            None,
        )
    };
    for reg in std::iter::once(&plain).chain(traced.as_ref().map(|(t, _)| t)) {
        r.count(reg.packets, reg.bad);
    }

    let mut floors = plain.floors();
    r.e2e("setup_s", med(0));
    r.e2e("peak_rss_mb", ledger::peak_rss_mb());
    r.e2e("items_per_s", plain.floor_rate(trace.len()));
    r.e2e("latency_p50_ms", ledger::median(&mut floors) / 1e6);
    r.e2e("service_geomean_ms", ledger::geomean(&floors) / 1e6);

    let stats = engine.stats();
    r.note(
        "workload",
        format!(
            "GWLB {}x{} goto form, CachedEngine::eswitch",
            size.services, size.backends
        ),
    );
    r.note(
        "trace",
        format!(
            "{} packets, {} distinct flows of {}, Zipf({ZIPF})",
            trace.len(),
            trace.distinct_flows(),
            size.flows
        ),
    );
    r.note("megaflow.entries", engine.cache_entries());
    r.note(
        "megaflow.hit_rate (with the cache fill)",
        ledger::ratio(stats.hits, stats.hits + stats.misses),
    );
    r.note("dropped_share", ledger::ratio(dropped, trace.len() as u64));
    r.note(
        "timed",
        format!(
            "{} passes of {} batches; each batch counts at the {FLOOR_Q} \
             quantile of its times",
            plain.passes,
            chunks.len()
        ),
    );
    r.note(
        "as it came (host load included)",
        format!(
            "{:.0} packets/s, batch p50 {:.1} us, p99 {:.1} us",
            plain.packets as f64 / plain.wall_ns as f64 * 1e9,
            plain.all.quantile(0.5) / 1e3,
            plain.all.quantile(0.99) / 1e3
        ),
    );

    if let Some((traced, (c0, m0))) = traced {
        let c1 = Counters::snapshot();
        let m1 = engine.stats();
        let (hits, misses) = (m1.hits - m0.hits, m1.misses - m0.misses);
        r.layer("switch.megaflow.batch_ns", traced.mean_ns());
        r.layer(
            "switch.megaflow.hit_rate",
            ledger::ratio(hits, hits + misses),
        );
        r.layer(
            "switch.megaflow.misses",
            c1.delta(&c0, "switch.megaflow.misses"),
        );
        r.layer("switch.megaflow.entries", engine.cache_entries() as f64);
        r.layer(
            "switch.megaflow.invalidations",
            c1.delta(&c0, "switch.megaflow.invalidations"),
        );
        r.layer("switch.compile_ms", med(3));
        r.layer("packet.trace_gen_s", med(1));
        r.layer("core.ref_ns", med(2));
        r.layer("workload.samples", (traced.passes * chunks.len()) as f64);
        r.layer("workload.latency_tail_ms", plain.all.quantile(0.99) / 1e6);
        r.layer(
            "workload.dropped_share",
            ledger::ratio(dropped, trace.len() as u64),
        );
        r.layer("workload.distinct_flows", trace.distinct_flows() as f64);

        // Shadow replay of the same trace through the compiled tier alone:
        // the per-packet cost of a megaflow miss.
        let mut compiled = CompiledEngine::eswitch(&pipeline).expect("the goto form compiles");
        let t = Instant::now();
        for chunk in &chunks {
            compiled.process_batch(chunk, &mut out);
        }
        let pkt_ns = t.elapsed().as_nanos() as f64 / trace.len() as f64;
        r.layer("switch.compiled.pkt_ns", pkt_ns);
        r.layer(
            "switch.compiled.miss_cost_ns",
            pkt_ns * ledger::ratio(misses, hits + misses),
        );

        let overhead = plain.floor_rate(trace.len()) / traced.floor_rate(trace.len());
        r.layer("trace.overhead", overhead);
        ledger::ledger(&mut r, &tracer, traced.wall_ns, 0);
        crate::write_spans(&mut r, &tracer, "forward");
    }
    r
}
