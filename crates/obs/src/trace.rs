//! # mapro-trace — structured span tracing with per-thread ring buffers
//!
//! The metrics half of this crate answers *how much* (counters,
//! histograms); this module answers *where time goes*: hierarchical
//! spans with typed key/value fields, collected into per-thread ring
//! buffers and exported as a Chrome trace-event JSON timeline
//! (Perfetto / `chrome://tracing`) or collapsed-stack text
//! (flamegraph / speedscope), plus a [`TraceSummary`] phase-attribution
//! report (per-phase total/self time, span counts, critical-path
//! estimate).
//!
//! ## Model
//!
//! - A process has at most one active **trace session** ([`start`] /
//!   [`stop`]). When no session is active, [`span`] costs one relaxed
//!   atomic load and allocates nothing; with the `enabled` feature off
//!   it compiles to an inline empty body.
//! - Each thread buffers events in a thread-local **ring buffer**
//!   (capacity [`TraceConfig::buffer_capacity`]); the emit path takes
//!   no lock. A thread's buffer flushes into the global collector when
//!   its outermost open span closes (an event emitted outside any span
//!   flushes at once), so everything a thread recorded is collected
//!   once it has no span open — e.g. as soon as a scoped thread's body
//!   returns. The collector keeps at most the capacity per thread, too:
//!   the oldest events are discarded and counted in
//!   [`TraceData::dropped`].
//! - Spans carry a **logical path** (`check.cross.chunk`) independent
//!   of which thread ran them: the innermost open span on the current
//!   thread is the parent, and `mapro-par` propagates the spawning
//!   thread's path to its workers via [`ambient_scope`], so the span
//!   *tree* is identical at any thread count even though events land
//!   on different **tracks** (timeline lanes, one per named thread).
//! - Scheduler activity (worker lifetimes, steals, cancellation) is
//!   recorded in the [`Category::Sched`] category and excluded from
//!   the logical tree ([`TraceData::structure`]) — it varies with
//!   thread count by design.
//!
//! Timestamps come from a process-wide monotonic epoch
//! ([`std::time::Instant`]), so events from all threads and sessions
//! share one clock.

use std::fmt::Write as _;
use std::sync::Arc;

#[cfg(feature = "enabled")]
use std::cell::RefCell;
#[cfg(feature = "enabled")]
use std::collections::VecDeque;
#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
#[cfg(feature = "enabled")]
use std::sync::{Mutex, OnceLock};
#[cfg(feature = "enabled")]
use std::time::Instant;

use crate::json_str;

/// Default per-thread ring-buffer capacity, in events.
pub const DEFAULT_BUFFER_CAPACITY: usize = 1 << 16;

/// Configuration for a trace session.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Per-thread ring-buffer capacity in events. On overflow the
    /// oldest buffered event on that thread is dropped (and counted).
    pub buffer_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            buffer_capacity: DEFAULT_BUFFER_CAPACITY,
        }
    }
}

/// Event category: logical program phase vs. scheduler bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// A program phase — part of the deterministic logical span tree.
    Phase,
    /// Scheduler activity (worker lifetime, steal, cancel). Varies
    /// with thread count; excluded from [`TraceData::structure`].
    Sched,
}

/// A typed span/instant field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldVal {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String (e.g. a table name).
    Str(String),
    /// Boolean (e.g. a cache hit flag).
    Bool(bool),
}

impl From<u64> for FieldVal {
    fn from(v: u64) -> Self {
        FieldVal::U64(v)
    }
}
impl From<usize> for FieldVal {
    fn from(v: usize) -> Self {
        FieldVal::U64(v as u64)
    }
}
impl From<u32> for FieldVal {
    fn from(v: u32) -> Self {
        FieldVal::U64(v as u64)
    }
}
impl From<i64> for FieldVal {
    fn from(v: i64) -> Self {
        FieldVal::I64(v)
    }
}
impl From<f64> for FieldVal {
    fn from(v: f64) -> Self {
        FieldVal::F64(v)
    }
}
impl From<bool> for FieldVal {
    fn from(v: bool) -> Self {
        FieldVal::Bool(v)
    }
}
impl From<&str> for FieldVal {
    fn from(v: &str) -> Self {
        FieldVal::Str(v.to_owned())
    }
}
impl From<String> for FieldVal {
    fn from(v: String) -> Self {
        FieldVal::Str(v)
    }
}

/// What kind of event was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A closed span with a duration.
    Span {
        /// Elapsed nanoseconds between open and close.
        dur_ns: u64,
    },
    /// A point-in-time marker.
    Instant,
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Span/instant name (one path segment; must not contain `.`).
    pub name: &'static str,
    /// Logical phase or scheduler bookkeeping.
    pub cat: Category,
    /// Span-with-duration or instant.
    pub kind: EventKind,
    /// Start time in nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Track (timeline lane) the event was recorded on.
    pub track: u32,
    /// Full logical path, e.g. `check.cross.chunk` (for
    /// [`Category::Sched`] events: just the name).
    pub path: Arc<str>,
    /// Typed key/value annotations.
    pub fields: Vec<(&'static str, FieldVal)>,
}

impl Event {
    /// Span duration, or 0 for instants.
    pub fn dur_ns(&self) -> u64 {
        match self.kind {
            EventKind::Span { dur_ns } => dur_ns,
            EventKind::Instant => 0,
        }
    }
}

/// One timeline lane. Tracks are keyed by *name*: sequential pool runs
/// reuse the `worker-N` lanes so a timeline shows a stable set of rows
/// rather than one row per short-lived scoped thread.
#[derive(Debug, Clone)]
pub struct TrackInfo {
    /// Track id (the Chrome `tid`).
    pub id: u32,
    /// Human-readable lane name (`main`, `worker-0`, …).
    pub name: String,
}

// ---------------------------------------------------------------------
// Global session state (feature "enabled" only)
// ---------------------------------------------------------------------

#[cfg(feature = "enabled")]
static TRACING: AtomicBool = AtomicBool::new(false);
#[cfg(feature = "enabled")]
static SESSION: AtomicU64 = AtomicU64::new(0);

#[cfg(feature = "enabled")]
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[cfg(feature = "enabled")]
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[cfg(feature = "enabled")]
#[derive(Default)]
struct Collector {
    session: u64,
    capacity: usize,
    /// Events flushed since the last drain, one queue per registered
    /// thread buffer (indexed by [`ThreadBuf::slot`]), each holding at
    /// most `capacity` events.
    buffers: Vec<VecDeque<Event>>,
    /// Events already handed out by [`drain`], kept so [`stop`]
    /// returns the whole session.
    archived: Vec<Event>,
    tracks: Vec<TrackInfo>,
    dropped: u64,
}

#[cfg(feature = "enabled")]
impl Collector {
    fn track_for_name(&mut self, name: &str) -> u32 {
        if let Some(t) = self.tracks.iter().find(|t| t.name == name) {
            return t.id;
        }
        let id = self.tracks.len() as u32;
        self.tracks.push(TrackInfo {
            id,
            name: name.to_owned(),
        });
        id
    }
}

#[cfg(feature = "enabled")]
fn collector() -> &'static Mutex<Collector> {
    static C: OnceLock<Mutex<Collector>> = OnceLock::new();
    C.get_or_init(|| Mutex::new(Collector::default()))
}

#[cfg(feature = "enabled")]
struct ThreadBuf {
    session: u64,
    /// This buffer's queue in [`Collector::buffers`].
    slot: usize,
    track: u32,
    capacity: usize,
    ring: VecDeque<Event>,
    dropped: u64,
    /// Paths of the open [`Category::Phase`] spans on this thread.
    stack: Vec<Arc<str>>,
    /// Open spans of any category on this thread; the buffer flushes
    /// when this returns to zero.
    open: usize,
    /// Logical parent inherited from a spawning thread (pool workers).
    ambient: Option<Arc<str>>,
}

#[cfg(feature = "enabled")]
struct TlsSlot(Option<ThreadBuf>);

#[cfg(feature = "enabled")]
impl Drop for TlsSlot {
    fn drop(&mut self) {
        if let Some(mut buf) = self.0.take() {
            flush_buf(&mut buf);
        }
    }
}

#[cfg(feature = "enabled")]
thread_local! {
    static TLS: RefCell<TlsSlot> = const { RefCell::new(TlsSlot(None)) };
}

/// Move a thread buffer's events to its queue in the collector
/// (discarding them if their session has ended), dropping the oldest
/// beyond the capacity.
#[cfg(feature = "enabled")]
fn flush_buf(buf: &mut ThreadBuf) {
    let mut guard = collector().lock().unwrap();
    let c = &mut *guard;
    // `stop` empties `buffers`, so a stopped session has no queue left.
    match c.buffers.get_mut(buf.slot) {
        Some(queue) if c.session == buf.session => {
            queue.extend(buf.ring.drain(..));
            let excess = queue.len().saturating_sub(c.capacity);
            queue.drain(..excess);
            c.dropped += std::mem::take(&mut buf.dropped) + excess as u64;
        }
        _ => buf.ring.clear(),
    }
}

/// Run `f` on the current thread's buffer if a session is active,
/// registering the thread (and its track) on first use.
#[cfg(feature = "enabled")]
fn with_buf<R>(f: impl FnOnce(&mut ThreadBuf) -> R) -> Option<R> {
    with_buf_named(None, f)
}

/// Like [`with_buf`], but if the thread has not been registered in the
/// current session yet, its track is created directly under `preferred`
/// (when given) instead of an auto-generated default. This lets
/// [`set_track_name`] avoid leaving behind an empty `t{n}` track for
/// every fresh pool worker.
#[cfg(feature = "enabled")]
fn with_buf_named<R>(preferred: Option<&str>, f: impl FnOnce(&mut ThreadBuf) -> R) -> Option<R> {
    if !TRACING.load(Relaxed) {
        return None;
    }
    let session = SESSION.load(Relaxed);
    TLS.with(|slot| {
        let mut slot = slot.borrow_mut();
        let stale = match &slot.0 {
            Some(b) => b.session != session,
            None => true,
        };
        if stale {
            if let Some(mut old) = slot.0.take() {
                // Old-session leftovers: flush (discards on mismatch).
                flush_buf(&mut old);
            }
            let mut c = collector().lock().unwrap();
            if c.session != session {
                return None; // session changed underneath us; drop
            }
            let default_name = match preferred {
                Some(n) => n.to_owned(),
                None => match std::thread::current().name() {
                    Some(n) => n.to_owned(),
                    None => format!("t{}", c.tracks.len()),
                },
            };
            let track = c.track_for_name(&default_name);
            let capacity = c.capacity.max(1);
            c.buffers.push(VecDeque::new());
            slot.0 = Some(ThreadBuf {
                session,
                slot: c.buffers.len() - 1,
                track,
                capacity,
                ring: VecDeque::with_capacity(capacity.min(1024)),
                dropped: 0,
                stack: Vec::new(),
                open: 0,
                ambient: None,
            });
        }
        slot.0.as_mut().map(f)
    })
}

/// Buffer `ev`, flushing when no span is open on this thread any more.
#[cfg(feature = "enabled")]
fn push_event(buf: &mut ThreadBuf, ev: Event) {
    if buf.ring.len() >= buf.capacity {
        buf.ring.pop_front();
        buf.dropped += 1;
    }
    buf.ring.push_back(ev);
    if buf.open == 0 {
        flush_buf(buf);
    }
}

// ---------------------------------------------------------------------
// Public API: session control
// ---------------------------------------------------------------------

/// Begin a trace session. Returns `false` (and changes nothing) if a
/// session is already active or the `enabled` feature is off.
pub fn start(cfg: &TraceConfig) -> bool {
    #[cfg(feature = "enabled")]
    {
        let mut c = collector().lock().unwrap();
        if TRACING.load(Relaxed) {
            return false;
        }
        let _ = epoch(); // anchor the clock before the first event
        c.session += 1;
        c.capacity = cfg.buffer_capacity.max(1);
        c.buffers.clear();
        c.archived.clear();
        c.tracks.clear();
        c.dropped = 0;
        SESSION.store(c.session, Relaxed);
        TRACING.store(true, Relaxed);
        true
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = cfg;
        false
    }
}

/// True while a trace session is active (one relaxed load).
#[inline(always)]
pub fn active() -> bool {
    #[cfg(feature = "enabled")]
    {
        TRACING.load(Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// Collect the events recorded since the last [`drain`] (flushing the
/// calling thread's buffer) without ending the session. The drained
/// events are also archived so a later [`stop`] still returns the full
/// session. Events buffered on *other threads* are included once the
/// outermost span open there has closed — after a `mapro-par` pool run
/// returns, all worker events are visible.
///
/// Returns an empty [`TraceData`] when no session is active.
pub fn drain() -> TraceData {
    #[cfg(feature = "enabled")]
    {
        flush_current_thread();
        let mut c = collector().lock().unwrap();
        if !TRACING.load(Relaxed) {
            return TraceData::default();
        }
        let events: Vec<Event> = c.buffers.iter_mut().flat_map(|q| q.drain(..)).collect();
        c.archived.extend(events.iter().cloned());
        let mut data = TraceData {
            events,
            tracks: c.tracks.clone(),
            dropped: c.dropped,
        };
        data.normalize();
        data
    }
    #[cfg(not(feature = "enabled"))]
    {
        TraceData::default()
    }
}

/// End the session and return everything recorded during it (including
/// previously [`drain`]ed events). Returns an empty [`TraceData`] when no
/// session is active.
///
/// The calling thread's buffer is flushed here; another thread's events
/// reach the session when its outermost open span closes. So stop after
/// helper threads have closed their spans — joining them, explicitly or
/// at the end of a `std::thread::scope`, is enough; spans still open on
/// a running thread are not included.
pub fn stop() -> TraceData {
    #[cfg(feature = "enabled")]
    {
        flush_current_thread();
        let mut c = collector().lock().unwrap();
        if !TRACING.load(Relaxed) {
            return TraceData::default();
        }
        TRACING.store(false, Relaxed);
        let mut events = std::mem::take(&mut c.archived);
        events.extend(c.buffers.drain(..).flatten());
        let mut data = TraceData {
            events,
            tracks: std::mem::take(&mut c.tracks),
            dropped: c.dropped,
        };
        data.normalize();
        data
    }
    #[cfg(not(feature = "enabled"))]
    {
        TraceData::default()
    }
}

#[cfg(feature = "enabled")]
fn flush_current_thread() {
    TLS.with(|slot| {
        if let Some(b) = &mut slot.borrow_mut().0 {
            flush_buf(b);
        }
    });
}

// ---------------------------------------------------------------------
// Public API: emitting events
// ---------------------------------------------------------------------

/// RAII guard for an open span; records a [`EventKind::Span`] event
/// with the elapsed duration on drop. Inert (no allocation, no clock
/// read) when no session is active.
#[must_use = "a trace Span records on drop; binding it to `_` drops immediately"]
pub struct Span {
    #[cfg(feature = "enabled")]
    inner: Option<SpanInner>,
    #[cfg(not(feature = "enabled"))]
    _noop: (),
}

#[cfg(feature = "enabled")]
struct SpanInner {
    name: &'static str,
    cat: Category,
    path: Arc<str>,
    start_ns: u64,
    fields: Vec<(&'static str, FieldVal)>,
}

impl Span {
    /// Attach a typed field to the span (recorded at close).
    pub fn set(&mut self, key: &'static str, val: impl Into<FieldVal>) {
        #[cfg(feature = "enabled")]
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key, val.into()));
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = (key, val.into());
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some(inner) = self.inner.take() {
            let dur_ns = now_ns().saturating_sub(inner.start_ns);
            let _ = with_buf(|b| {
                if inner.cat == Category::Phase && b.stack.last() == Some(&inner.path) {
                    b.stack.pop();
                }
                b.open = b.open.saturating_sub(1);
                let track = b.track;
                push_event(
                    b,
                    Event {
                        name: inner.name,
                        cat: inner.cat,
                        kind: EventKind::Span { dur_ns },
                        ts_ns: inner.start_ns,
                        track,
                        path: inner.path,
                        fields: inner.fields,
                    },
                );
            });
        }
    }
}

/// Open a [`Category::Phase`] span nested under the innermost open
/// span on this thread (or the ambient parent inherited from the
/// spawning thread; see [`ambient_scope`]).
#[inline]
pub fn span(name: &'static str) -> Span {
    span_kv(name, Vec::new())
}

/// [`span`] with initial key/value fields.
pub fn span_kv(name: &'static str, fields: Vec<(&'static str, FieldVal)>) -> Span {
    #[cfg(feature = "enabled")]
    {
        let inner = with_buf(|b| {
            let path: Arc<str> = match b.stack.last().or(b.ambient.as_ref()) {
                Some(parent) => Arc::from(format!("{parent}.{name}").as_str()),
                None => Arc::from(name),
            };
            b.stack.push(Arc::clone(&path));
            b.open += 1;
            SpanInner {
                name,
                cat: Category::Phase,
                path,
                start_ns: now_ns(),
                fields,
            }
        });
        Span { inner }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (name, fields);
        Span { _noop: () }
    }
}

/// Open a [`Category::Sched`] span (worker lifetime etc.): shown on
/// its thread track in the timeline, but not part of the logical span
/// tree and never a parent of phase spans.
pub fn sched_span(name: &'static str) -> Span {
    #[cfg(feature = "enabled")]
    {
        let inner = with_buf(|b| {
            b.open += 1;
            SpanInner {
                name,
                cat: Category::Sched,
                path: Arc::from(name),
                start_ns: now_ns(),
                fields: Vec::new(),
            }
        });
        Span { inner }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        Span { _noop: () }
    }
}

/// Record a point-in-time [`Category::Phase`] marker under the current
/// span path.
#[inline]
pub fn instant(name: &'static str) {
    instant_kv(name, Vec::new());
}

/// [`instant`] with key/value fields.
pub fn instant_kv(name: &'static str, fields: Vec<(&'static str, FieldVal)>) {
    #[cfg(feature = "enabled")]
    {
        let _ = with_buf(|b| {
            let path: Arc<str> = match b.stack.last().or(b.ambient.as_ref()) {
                Some(parent) => Arc::from(format!("{parent}.{name}").as_str()),
                None => Arc::from(name),
            };
            let (track, ts) = (b.track, now_ns());
            push_event(
                b,
                Event {
                    name,
                    cat: Category::Phase,
                    kind: EventKind::Instant,
                    ts_ns: ts,
                    track,
                    path,
                    fields,
                },
            );
        });
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (name, fields);
    }
}

/// Record a point-in-time [`Category::Sched`] marker (steal, cancel).
pub fn sched_instant(name: &'static str, fields: Vec<(&'static str, FieldVal)>) {
    #[cfg(feature = "enabled")]
    {
        let _ = with_buf(|b| {
            let (track, ts) = (b.track, now_ns());
            push_event(
                b,
                Event {
                    name,
                    cat: Category::Sched,
                    kind: EventKind::Instant,
                    ts_ns: ts,
                    track,
                    path: Arc::from(name),
                    fields,
                },
            );
        });
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (name, fields);
    }
}

/// The innermost open span path on this thread (or the ambient
/// parent), for handing to [`ambient_scope`] on a spawned worker.
pub fn current_path() -> Option<Arc<str>> {
    #[cfg(feature = "enabled")]
    {
        with_buf(|b| b.stack.last().or(b.ambient.as_ref()).map(Arc::clone)).flatten()
    }
    #[cfg(not(feature = "enabled"))]
    {
        None
    }
}

/// Run `f` with `parent` installed as this thread's logical parent for
/// spans opened while no local span is on the stack. Used by
/// `mapro-par` so spans emitted inside worker tasks keep the spawning
/// thread's path as their parent — making the logical span tree
/// independent of the thread count.
pub fn ambient_scope<R>(parent: Option<Arc<str>>, f: impl FnOnce() -> R) -> R {
    #[cfg(feature = "enabled")]
    {
        match with_buf(|b| std::mem::replace(&mut b.ambient, parent)) {
            Some(prev) => {
                let r = f();
                let _ = with_buf(|b| b.ambient = prev);
                r
            }
            None => f(),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = parent;
        f()
    }
}

/// Name the current thread's timeline track (e.g. `worker-2`). Tracks
/// are keyed by name, so sequential pool runs share lanes.
pub fn set_track_name(name: &str) {
    #[cfg(feature = "enabled")]
    {
        let _ = with_buf_named(Some(name), |b| {
            let mut c = collector().lock().unwrap();
            if c.session == b.session {
                b.track = c.track_for_name(name);
            }
        });
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
    }
}

// ---------------------------------------------------------------------
// Collected trace data, exporters, and phase attribution
// ---------------------------------------------------------------------

/// Everything collected from a trace session (or one [`drain`] slice):
/// events sorted by timestamp, the track table, and the overflow count.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// Recorded events, sorted by start timestamp.
    pub events: Vec<Event>,
    /// Track id → name table.
    pub tracks: Vec<TrackInfo>,
    /// Events lost to ring-buffer overflow (cumulative for the session).
    pub dropped: u64,
}

impl TraceData {
    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    fn normalize(&mut self) {
        self.events.sort_by_key(|e| e.ts_ns);
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Wall-clock extent: last event end minus first event start.
    pub fn wall_ns(&self) -> u64 {
        let start = self.events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
        let end = self
            .events
            .iter()
            .map(|e| e.ts_ns + e.dur_ns())
            .max()
            .unwrap_or(0);
        end.saturating_sub(start)
    }

    /// The deterministic logical span tree: sorted `(path, count)` for
    /// every [`Category::Phase`] span. Identical at any thread count
    /// for a fixed-seed run (timestamps, tracks, fields and
    /// [`Category::Sched`] events excluded by construction).
    pub fn structure(&self) -> Vec<(String, usize)> {
        let mut counts = std::collections::BTreeMap::new();
        for e in &self.events {
            if e.cat == Category::Phase && matches!(e.kind, EventKind::Span { .. }) {
                *counts.entry(e.path.to_string()).or_insert(0usize) += 1;
            }
        }
        counts.into_iter().collect()
    }

    /// Export as Chrome trace-event JSON (open in Perfetto or
    /// `chrome://tracing`). Spans become complete (`"ph":"X"`) events,
    /// instants become `"ph":"i"`, and each track gets a
    /// `thread_name` metadata record.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"mapro\"}}",
        );
        for t in &self.tracks {
            let _ = write!(
                out,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":{}}}}}",
                t.id,
                json_str(&t.name)
            );
        }
        for e in &self.events {
            let cat = match e.cat {
                Category::Phase => "phase",
                Category::Sched => "sched",
            };
            let ts_us = e.ts_ns as f64 / 1000.0;
            match e.kind {
                EventKind::Span { dur_ns } => {
                    let _ = write!(
                        out,
                        ",\n{{\"name\":{},\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{ts_us:.3},\
                         \"dur\":{:.3},\"pid\":1,\"tid\":{}",
                        json_str(e.name),
                        dur_ns as f64 / 1000.0,
                        e.track
                    );
                }
                EventKind::Instant => {
                    let _ = write!(
                        out,
                        ",\n{{\"name\":{},\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\
                         \"ts\":{ts_us:.3},\"pid\":1,\"tid\":{}",
                        json_str(e.name),
                        e.track
                    );
                }
            }
            let _ = write!(out, ",\"args\":{{\"path\":{}", json_str(&e.path));
            for (k, v) in &e.fields {
                let _ = write!(out, ",{}:", json_str(k));
                match v {
                    FieldVal::U64(n) => {
                        let _ = write!(out, "{n}");
                    }
                    FieldVal::I64(n) => {
                        let _ = write!(out, "{n}");
                    }
                    FieldVal::F64(x) => {
                        let _ = write!(out, "{x}");
                    }
                    FieldVal::Str(s) => out.push_str(&json_str(s)),
                    FieldVal::Bool(b) => {
                        let _ = write!(out, "{b}");
                    }
                }
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Export as collapsed-stack text (one `a;b;c value` line per
    /// logical path, value = self time in nanoseconds) — feed to
    /// flamegraph.pl or paste into speedscope.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for p in &self.phase_stats() {
            if p.self_ns > 0 {
                let _ = writeln!(out, "{} {}", p.path.replace('.', ";"), p.self_ns);
            }
        }
        out
    }

    /// Aggregate phase statistics by logical path (sorted by path).
    fn phase_stats(&self) -> Vec<PhaseStat> {
        // Per path: total, count, and the parent path (names may contain
        // dots, so the parent is the path minus `.{name}`).
        let mut totals: std::collections::BTreeMap<String, (u64, u64, Option<&str>)> =
            std::collections::BTreeMap::new();
        for e in &self.events {
            if e.cat == Category::Phase {
                if let EventKind::Span { dur_ns } = e.kind {
                    let parent = e
                        .path
                        .strip_suffix(e.name)
                        .and_then(|p| p.strip_suffix('.'));
                    let t = totals.entry(e.path.to_string()).or_insert((0, 0, parent));
                    t.0 += dur_ns;
                    t.1 += 1;
                }
            }
        }
        // Self time = total minus the summed totals of direct children.
        // Children running in parallel can oversubscribe the parent's
        // wall time; clamp at zero.
        let mut child_sum: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
        for (total, _, parent) in totals.values() {
            if let Some(parent) = parent {
                *child_sum.entry(parent).or_insert(0) += *total;
            }
        }
        totals
            .iter()
            .map(|(path, (total, count, _))| PhaseStat {
                path: path.clone(),
                count: *count,
                total_ns: *total,
                self_ns: total.saturating_sub(*child_sum.get(path.as_str()).unwrap_or(&0)),
            })
            .collect()
    }

    /// Phase-attribution summary: per-path total/self time and span
    /// counts, wall-clock extent, root-span coverage, and a
    /// critical-path estimate.
    pub fn summary(&self) -> TraceSummary {
        let phases = self.phase_stats();
        // Roots: spans without a parent (path = name). They run
        // sequentially on the driving thread, so their summed durations
        // estimate the critical path and their interval union the
        // covered time.
        let mut root_ivals: Vec<(u64, u64)> = self
            .events
            .iter()
            .filter(|e| e.cat == Category::Phase && *e.path == *e.name)
            .filter_map(|e| match e.kind {
                EventKind::Span { dur_ns } => Some((e.ts_ns, e.ts_ns + dur_ns)),
                EventKind::Instant => None,
            })
            .collect();
        root_ivals.sort_unstable();
        let critical_path_ns = root_ivals.iter().map(|(s, e)| e - s).sum();
        let mut covered = 0u64;
        let mut cursor = 0u64;
        for (s, e) in root_ivals {
            let s = s.max(cursor);
            if e > s {
                covered += e - s;
                cursor = e;
            }
        }
        TraceSummary {
            phases,
            wall_ns: self.wall_ns(),
            covered_ns: covered,
            critical_path_ns,
            dropped: self.dropped,
        }
    }
}

/// Aggregated statistics for one logical span path.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Logical path, e.g. `check.compile.table`.
    pub path: String,
    /// Number of spans recorded at this path.
    pub count: u64,
    /// Summed span durations (across all threads — may exceed wall
    /// time under parallel execution).
    pub total_ns: u64,
    /// Total minus the summed totals of direct children (clamped ≥ 0).
    pub self_ns: u64,
}

/// Phase-attribution report computed from a [`TraceData`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Per-path statistics, sorted by path.
    pub phases: Vec<PhaseStat>,
    /// Wall-clock extent of the trace (first start → last end).
    pub wall_ns: u64,
    /// Union of root-span intervals — the instrumented share of the
    /// wall clock.
    pub covered_ns: u64,
    /// Summed root-span durations: an estimate of the critical path
    /// (roots are sequential on the driving thread).
    pub critical_path_ns: u64,
    /// Ring-buffer overflow count for the session.
    pub dropped: u64,
}

impl TraceSummary {
    /// Fraction of wall time covered by root spans (`0.0 ..= 1.0`).
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.covered_ns as f64 / self.wall_ns as f64
        }
    }

    /// Statistics for one exact path, if recorded.
    pub fn get(&self, path: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.path == path)
    }

    /// Render as an aligned text table plus a coverage footer.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let width = self
            .phases
            .iter()
            .map(|p| p.path.len())
            .max()
            .unwrap_or(5)
            .max(5);
        let _ = writeln!(
            out,
            "{:<width$}  {:>7}  {:>12}  {:>12}",
            "phase", "count", "total_ms", "self_ms"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{:<width$}  {:>7}  {:>12.3}  {:>12.3}",
                p.path,
                p.count,
                p.total_ns as f64 / 1e6,
                p.self_ns as f64 / 1e6
            );
        }
        let _ = writeln!(
            out,
            "wall {:.3} ms, covered {:.3} ms ({:.1}%), critical path {:.3} ms, dropped {}",
            self.wall_ns as f64 / 1e6,
            self.covered_ns as f64 / 1e6,
            self.coverage() * 100.0,
            self.critical_path_ns as f64 / 1e6,
            self.dropped
        );
        out
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    /// Trace sessions are process-global; serialize the tests touching
    /// them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: OnceLock<Mutex<()>> = OnceLock::new();
        match M.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn spans_nest_and_export() {
        let _g = lock();
        assert!(start(&TraceConfig::default()));
        assert!(!start(&TraceConfig::default()), "second start refused");
        {
            let mut outer = span("outer");
            outer.set("k", 7u64);
            let _inner = span("inner");
            instant("tick");
        }
        let data = stop();
        let tree = data.structure();
        assert_eq!(
            tree,
            vec![("outer".to_string(), 1), ("outer.inner".to_string(), 1)]
        );
        let json = data.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"outer.inner\""));
        let sum = data.summary();
        assert_eq!(sum.get("outer").unwrap().count, 1);
        assert!(sum.get("outer").unwrap().total_ns >= sum.get("outer.inner").unwrap().total_ns);
    }

    #[test]
    fn inert_without_session() {
        let _g = lock();
        let _s = span("ignored");
        instant("ignored");
        assert!(stop().is_empty());
        assert!(current_path().is_none());
    }

    #[test]
    fn ambient_parent_applies() {
        let _g = lock();
        assert!(start(&TraceConfig::default()));
        {
            let _root = span("root");
            let parent = current_path();
            std::thread::scope(|s| {
                s.spawn(|| {
                    ambient_scope(parent.clone(), || {
                        let _child = span("child");
                    });
                });
            });
        }
        let data = stop();
        let tree = data.structure();
        assert!(tree.contains(&("root.child".to_string(), 1)), "{tree:?}");
    }

    #[test]
    fn scoped_threads_are_collected_without_explicit_joins() {
        let _g = lock();
        for _ in 0..20 {
            assert!(start(&TraceConfig::default()));
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        let _w = span("w");
                        instant("tick");
                    });
                    s.spawn(|| instant("loose"));
                }
            });
            let data = stop();
            assert_eq!(data.structure(), vec![("w".to_string(), 4)]);
            assert_eq!(data.events.len(), 12, "spans and instants all collected");
        }
    }

    #[test]
    fn dotted_span_names_nest_in_the_summary() {
        let _g = lock();
        assert!(start(&TraceConfig::default()));
        {
            let _outer = span("a.outer");
            let _inner = span("b.inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let sum = stop().summary();
        let outer = sum.get("a.outer").unwrap();
        let inner = sum.get("a.outer.b.inner").unwrap();
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(sum.critical_path_ns, outer.total_ns);
        assert_eq!(sum.covered_ns, outer.total_ns);
    }

    #[test]
    fn ring_overflow_drops_oldest() {
        let _g = lock();
        assert!(start(&TraceConfig { buffer_capacity: 4 }));
        for _ in 0..10 {
            instant("e");
        }
        let data = stop();
        assert_eq!(data.events.len(), 4);
        assert_eq!(data.dropped, 6);
    }
}
