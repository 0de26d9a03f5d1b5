//! Measurement plumbing shared by the workloads: the in-memory span
//! tracer, sample statistics, a log-linear latency histogram, `mapro_obs`
//! counter deltas, and the metric list a run reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The end-to-end metrics every run reports with `--trace 0`, in
/// `BENCHMARK.json` order: (name, unit). Each workload measures them on
/// the request type it was built around (see `BENCHMARK.json`).
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("service_geomean_ms", "ms"),
];

/// The per-layer metrics every run reports with `--trace 1`, in
/// `BENCHMARK.json` order: (name, unit). A layer a workload never calls
/// reads 0 there.
pub const LAYERS: &[(&str, &str)] = &[
    ("switch.megaflow.batch_ns", "ns"),
    ("switch.megaflow.hit_rate", "ratio"),
    ("switch.megaflow.misses", "count"),
    ("switch.megaflow.entries", "count"),
    ("switch.megaflow.invalidations", "count"),
    ("switch.megaflow.apply_update_us", "us"),
    ("switch.compiled.pkt_ns", "ns"),
    ("switch.compiled.miss_cost_ns", "ns"),
    ("switch.shadow.recompile_us", "us"),
    ("sym.shadow.dirty_region_us", "us"),
    ("sym.shadow.refresh_cover_us", "us"),
    ("switch.compile_ms", "ms"),
    ("sym.proof_us.move", "us"),
    ("sym.proof_us.reweight", "us"),
    ("sym.atoms_rechecked", "count"),
    ("sym.incr.fallbacks", "count"),
    ("sym.delta_share.move", "ratio"),
    ("sym.delta_share.reweight", "ratio"),
    ("sym.session_open_ms", "ms"),
    ("sym.check_ms.equivalent", "ms"),
    ("sym.check_ms.mutant", "ms"),
    ("sym.check_atoms", "count"),
    ("sym.decided.symbolic", "count"),
    ("sym.decided.exhaustive", "count"),
    ("sym.decided.sampled", "count"),
    ("sym.fallbacks", "count"),
    ("sym.auto.dd_retry", "count"),
    ("sym.auto.dd_wide", "count"),
    ("sym.cache.hits", "count"),
    ("sym.cache.misses", "count"),
    ("dd.nodes", "count"),
    ("lint.ms", "ms"),
    ("lint.findings", "count"),
    ("lint.unknown_findings", "count"),
    ("fd.analyze_ms", "ms"),
    ("normalize.ms", "ms"),
    ("normalize.steps", "count"),
    ("normalize.tables_out", "count"),
    ("workloads.plan_us", "us"),
    ("workloads.updates_per_intent.goto", "count"),
    ("workloads.updates_per_intent.universal", "count"),
    ("control.apply_us", "us"),
    ("churn.intents", "count"),
    ("churn.intent_p50_ms", "ms"),
    ("churn.intent_wait_ms", "ms"),
    ("churn.control_share", "ratio"),
    ("churn.pkt_wait_us", "us"),
    ("churn.pkt_p50_us", "us"),
    ("churn.pkt_p99_us", "us"),
    ("workload.dropped_share", "ratio"),
    ("workload.distinct_flows", "count"),
    ("workload.samples", "count"),
    ("workload.latency_tail_ms", "ms"),
    ("packet.trace_gen_s", "s"),
    ("core.ref_ns", "ns"),
    ("share.switch.megaflow.process_batch", "ratio"),
    ("share.switch.megaflow.apply_update", "ratio"),
    ("share.sym.incr.update", "ratio"),
    ("share.workloads.plan", "ratio"),
    ("share.control.apply", "ratio"),
    ("share.idle", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
    ("host.nproc", "count"),
    ("host.pool_threads", "count"),
];

/// One reported figure: a name from `BENCHMARK.json`, its unit and value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one workload run hands back to `main` for printing.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: packets, intents or programs.
    pub attempted: u64,
    /// Operations whose output disagreed with the reference semantics.
    pub failed: u64,
    /// End-to-end values by name, measured with tracing off.
    e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name, filled only by a traced run.
    layers: BTreeMap<&'static str, f64>,
    /// Human-readable workload properties, one `key = value` per line.
    pub notes: Vec<String>,
}

fn known(catalog: &[(&'static str, &'static str)], name: &str) -> &'static str {
    catalog
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
        .0
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.insert(known(E2E, name), value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(known(LAYERS, name), value);
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push(format!("{key} = {value}"));
    }

    /// Count `n` operations, `bad` of which failed the oracle.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Every metric of `catalog` in order; one never set reads 0.
    pub fn metrics(&self, traced: bool) -> Vec<Metric> {
        let (catalog, values) = if traced {
            (LAYERS, &self.layers)
        } else {
            (E2E, &self.e2e)
        };
        catalog
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: values.get(name).copied().unwrap_or(0.0),
            })
            .collect()
    }
}

// ------------------------------------------------------------ spans ----

/// A closed span: which layer call ran, when, under which parent span,
/// and for which intent or program (`tag`).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`], `u32::MAX` at top.
    pub parent: u32,
    pub tag: u32,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(u32, Instant);

/// Spans kept in memory while a traced region runs and written out when
/// the run ends. When off, `enter`/`exit` only read the clock, so the
/// same code path serves timed and traced regions.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Parent marker for a top-level span.
const TOP: u32 = u32::MAX;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span named after the layer call it wraps.
    #[inline]
    pub fn enter(&mut self, name: &'static str, tag: u32) -> Open {
        let now = Instant::now();
        if !self.on {
            return Open(TOP, now);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: (now - self.origin).as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(TOP),
            tag,
        });
        self.stack.push(idx);
        Open(idx, now)
    }

    /// Close a span; returns its duration in nanoseconds whether or not
    /// tracing is on.
    #[inline]
    pub fn exit(&mut self, open: Open) -> u64 {
        let now = Instant::now();
        let dur = (now - open.1).as_nanos() as u64;
        if self.on {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(open.0), "spans close in LIFO order");
            self.spans[open.0 as usize].end_ns = (now - self.origin).as_nanos() as u64;
        }
        dur
    }

    /// Per-name totals: (calls, summed self time), where self time is a
    /// span's duration minus that of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != TOP {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(*c);
        }
        out
    }

    /// Write every span as `name,tag,parent,start_ns,end_ns` lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name,tag,parent,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = if s.parent == TOP {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{},{},{},{},{}",
                s.name, s.tag, parent, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Measured cost of one traced `enter`/`exit` pair [ns], for traced runs
/// with no untraced twin doing the same work (`churn` never repeats an intent).
pub fn span_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let mut t = Tracer::new(true);
    t.spans.reserve(N as usize);
    let start = Instant::now();
    for i in 0..N {
        let s = t.enter("bench.calibrate", i);
        t.exit(s);
    }
    start.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Report the span ledger of a traced region: each layer's self time as
/// a share of the region's wall time, and `trace.coverage`, the summed
/// self time of every layer span plus `idle_ns` (time the load generator
/// waited for due work) over `wall_ns`. Spans named `bench.*` are the
/// benchmark's own glue and do not count as covered.
pub fn ledger(r: &mut Report, tr: &Tracer, wall_ns: u64, idle_ns: u64) {
    let mut covered = idle_ns;
    for (name, (calls, self_ns)) in tr.self_times() {
        if !name.starts_with("bench.") {
            covered += self_ns;
            r.layer(&format!("share.{name}"), ratio(self_ns, wall_ns));
        }
        r.note(
            &format!("span {name}"),
            format!("{calls} calls, {:.3} s self", self_ns as f64 / 1e9),
        );
    }
    r.layer("share.idle", ratio(idle_ns, wall_ns));
    r.layer("trace.coverage", ratio(covered, wall_ns));
    r.layer("trace.spans", tr.spans.len() as f64);
}

pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

// ------------------------------------------------------------- stats ----

/// Quantile `q` of `xs` by linear interpolation between closest ranks;
/// sorts `xs`. Zero for an empty sample.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Median of `xs` (sorts it).
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean of positive samples; zero for an empty sample.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (s / xs.len() as f64).exp()
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A log-linear histogram of nanosecond latencies (64 linear sub-buckets
/// per power of two, so under 1.6% relative bucket width), for sample
/// counts too large to keep: the churn workload records tens of millions
/// of packet latencies.
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;

impl LogHist {
    pub fn new() -> LogHist {
        LogHist {
            counts: vec![0; (64 * SUB) as usize],
            total: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros() - SUB_BITS;
        let sub = (v >> exp) & (SUB - 1);
        ((u64::from(exp + 1) << SUB_BITS) + sub) as usize
    }

    /// Lower bound and width of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let exp = (i >> SUB_BITS) - 1;
        let sub = i & (SUB - 1);
        let lo = (SUB + sub) << exp;
        (lo as f64, (1u64 << exp) as f64)
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    /// Quantile `q`, interpolated linearly inside the bucket it lands in.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * (self.total - 1) as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 > rank {
                let (lo, width) = Self::bounds(i);
                return lo + width * ((rank - seen as f64 + 0.5) / c as f64).min(1.0);
            }
            seen += c;
        }
        Self::bounds(self.counts.len() - 1).0
    }
}

// ---------------------------------------------------------- counters ----

/// A snapshot of every counter and gauge in the `mapro_obs` registry.
pub struct Counters(BTreeMap<String, i128>);

impl Counters {
    pub fn snapshot() -> Counters {
        let mut m = BTreeMap::new();
        for e in mapro_obs::registry().snapshot().entries {
            let v = match e.value {
                mapro_obs::MetricValue::Counter(c) => i128::from(c),
                mapro_obs::MetricValue::Gauge(g) => i128::from(g),
                mapro_obs::MetricValue::Histogram(h) => i128::from(h.count),
            };
            m.insert(e.name, v);
        }
        Counters(m)
    }

    /// `self - before` for `name` (zero when neither snapshot has it).
    pub fn delta(&self, before: &Counters, name: &str) -> f64 {
        let a = self.0.get(name).copied().unwrap_or(0);
        let b = before.0.get(name).copied().unwrap_or(0);
        (a - b) as f64
    }

    /// Every name under `prefix` whose value moved since `before`.
    pub fn moved(&self, before: &Counters, prefix: &str) -> Vec<(String, f64)> {
        self.0
            .keys()
            .filter(|k| k.starts_with(prefix))
            .map(|k| (k.clone(), self.delta(before, k)))
            .filter(|(_, d)| *d != 0.0)
            .collect()
    }
}

// ------------------------------------------------------------- misc ----

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// SplitMix64: a seeded stream for the benchmark's own choices (which
/// service an intent targets, which sub-seed a program uses).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6d61_7072_6f62_656e)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A sub-seed for the `k`-th derived input of `seed`, so repeated set-ups
/// and later passes get inputs no earlier request has seen.
pub fn derive(seed: u64, k: u64) -> u64 {
    let mut r = Rng::new(seed.wrapping_add(k.wrapping_mul(0x9e37_79b9)));
    r.next_u64()
}

/// Render metrics as the JSON object of the final output line.
pub fn metrics_json(ms: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in ms.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(v),
            m.unit
        );
    }
    s.push('}');
    s
}

fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loghist_quantiles_track_exact_ones() {
        let mut h = LogHist::new();
        let mut xs: Vec<f64> = Vec::new();
        let mut r = Rng::new(7);
        for _ in 0..100_000 {
            let v = 1_000 + r.below(1_000_000) as u64;
            h.record(v);
            xs.push(v as f64);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = quantile(&mut xs, q);
            let approx = h.quantile(q);
            assert!(
                (approx - exact).abs() / exact < 0.02,
                "q{q}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let a = t.enter("outer", 0);
        let b = t.enter("inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(b);
        t.exit(a);
        let st = t.self_times();
        let outer = &t.spans[0];
        let inner = &t.spans[1];
        let inner_dur = inner.end_ns - inner.start_ns;
        assert_eq!(st["outer"].1, outer.end_ns - outer.start_ns - inner_dur);
        assert_eq!(st["inner"].1, inner_dur);
    }
}
