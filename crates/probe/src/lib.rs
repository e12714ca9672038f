//! # pcc-probe — measured per-stage observability
//!
//! The `pcc-edge` device model predicts where a frame's time should go;
//! this crate measures where it actually goes. Pipeline stages wrap their
//! hot sections in [`span`] guards; each guard records a wall-clock
//! interval into a *per-thread* buffer (recording threads never contend
//! with each other), and [`take_report`] drains every thread's buffer,
//! live or exited, into a [`Report`]: a span recorded on a long-lived
//! thread, such as a `pcc-parallel` pool worker, is collected as soon as
//! it has closed. Byte-volume gauges ([`add_bytes`]) ride the same
//! buffers; event counts live in the counter structs of the crates that
//! own the events, not here.
//!
//! ## Cost model
//!
//! The recording machinery is always compiled in and switched only at
//! runtime, so every build measures with the same instrument.
//!
//! * Not enabled at runtime (the default): one relaxed atomic load per
//!   probe call, no allocation.
//! * Enabled (environment variable `PCC_PROBE=1`, or [`set_enabled`]):
//!   two `Instant` reads plus an amortized `Vec` push under the
//!   thread's own (uncontended) buffer lock per span.
//!
//! Recording never feeds back into encoded output: bitstreams are
//! byte-identical with probes on and off (asserted by
//! `tests/determinism.rs` in the workspace root).
//!
//! ```
//! pcc_probe::set_enabled(true);
//! {
//!     let mut sp = pcc_probe::span("demo/stage");
//!     sp.add_bytes(128);
//! }
//! let report = pcc_probe::take_report();
//! assert_eq!(report.stage("demo/stage").map(|s| s.bytes), Some(128));
//! pcc_probe::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Environment variable consulted (once) for the runtime switch:
/// `1`/`true`/`on`/`yes` enable recording.
pub const PROBE_ENV: &str = "PCC_PROBE";

/// One recorded span: a named wall-clock interval on one thread.
///
/// Timestamps are nanoseconds relative to the process-wide probe epoch
/// (the first instant the recording machinery was touched), so spans
/// from different threads share one timebase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage label, e.g. `"morton/radix_sort"` — slash-separated
    /// prefixes group related stages, mirroring `pcc-edge` timelines.
    pub stage: &'static str,
    /// Start time in nanoseconds since the probe epoch.
    pub start_ns: u64,
    /// Measured duration in nanoseconds (at least 1).
    pub dur_ns: u64,
    /// Recording thread's lane id (0, 1, 2, … in first-record order).
    pub lane: u32,
    /// Bytes attached via [`Span::add_bytes`].
    pub bytes: u64,
}

/// One gauge event: bytes attributed to a stage without timing anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GaugeRecord {
    stage: &'static str,
    bytes: u64,
}

/// Aggregated statistics for one stage across a [`Report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// The stage label.
    pub stage: &'static str,
    /// Number of spans recorded for the stage.
    pub calls: usize,
    /// Sum of span durations (ns).
    pub total_ns: u64,
    /// Shortest span (ns); 0 when no spans (gauge-only stage).
    pub min_ns: u64,
    /// Median span duration (ns; lower midpoint).
    pub p50_ns: u64,
    /// Longest span (ns).
    pub max_ns: u64,
    /// Bytes attached to the stage (span bytes + gauge bytes).
    pub bytes: u64,
}

/// A drained collection of spans and gauges with aggregation helpers.
#[derive(Debug, Clone, Default)]
pub struct Report {
    spans: Vec<SpanRecord>,
    gauges: Vec<GaugeRecord>,
}

impl Report {
    /// All spans, ordered by start time (ties by lane).
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.gauges.is_empty()
    }

    /// Per-stage aggregates, sorted by stage name.
    pub fn by_stage(&self) -> Vec<StageStats> {
        use std::collections::BTreeMap;
        let mut durs: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut bytes: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.spans {
            durs.entry(s.stage).or_default().push(s.dur_ns);
            *bytes.entry(s.stage).or_default() += s.bytes;
        }
        for g in &self.gauges {
            durs.entry(g.stage).or_default();
            *bytes.entry(g.stage).or_default() += g.bytes;
        }
        durs.into_iter()
            .map(|(stage, mut d)| {
                d.sort_unstable();
                StageStats {
                    stage,
                    calls: d.len(),
                    total_ns: d.iter().sum(),
                    min_ns: d.first().copied().unwrap_or(0),
                    p50_ns: if d.is_empty() { 0 } else { d[(d.len() - 1) / 2] },
                    max_ns: d.last().copied().unwrap_or(0),
                    bytes: bytes.get(stage).copied().unwrap_or(0),
                }
            })
            .collect()
    }

    /// Aggregate for one stage, if anything was recorded under it.
    pub fn stage(&self, name: &str) -> Option<StageStats> {
        self.by_stage().into_iter().find(|s| s.stage == name)
    }

    /// Total span nanoseconds under `prefix` (exact match or
    /// `prefix/...`), mirroring `Timeline::stage_ms` matching.
    pub fn stage_total_ns(&self, prefix: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| {
                s.stage == prefix
                    || (s.stage.len() > prefix.len()
                        && s.stage.starts_with(prefix)
                        && s.stage.as_bytes()[prefix.len()] == b'/')
            })
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Renders the per-stage aggregation as an aligned text table
    /// (durations in milliseconds).
    pub fn table(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>6} {:>10} {:>10} {:>10} {:>10} {:>12}",
            "stage", "calls", "min ms", "p50 ms", "max ms", "total ms", "bytes"
        );
        for s in self.by_stage() {
            let _ = writeln!(
                out,
                "{:<24} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>12}",
                s.stage,
                s.calls,
                ms(s.min_ns),
                ms(s.p50_ns),
                ms(s.max_ns),
                ms(s.total_ns),
                if s.bytes == 0 { "-".to_string() } else { s.bytes.to_string() },
            );
        }
        out
    }

    /// Folds another report's events into this one (re-sorting spans).
    pub fn merge(&mut self, other: Report) {
        self.spans.extend(other.spans);
        self.gauges.extend(other.gauges);
        self.spans.sort_by_key(|s| (s.start_ns, s.lane));
    }
}

/// 0 = read env on first use, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Every thread's buffer, in registration order. A buffer leaves once
/// its thread has exited and [`take_report`] has drained it.
static BUFFERS: Mutex<Vec<Arc<Mutex<LocalBuf>>>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Locks `m`, ignoring poison: recording never panics while holding a
/// buffer, so a poisoned lock still guards consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One thread's events. Only its thread appends; [`take_report`], on
/// any thread, drains it under the same lock.
struct LocalBuf {
    lane: u32,
    spans: Vec<SpanRecord>,
    gauges: Vec<GaugeRecord>,
    /// Set as the thread's TLS is torn down: no event follows.
    exited: bool,
}

/// The calling thread's handle on its registered buffer.
struct Local(Arc<Mutex<LocalBuf>>);

impl Local {
    fn register() -> Local {
        let buf = Arc::new(Mutex::new(LocalBuf {
            lane: NEXT_LANE.fetch_add(1, Ordering::Relaxed),
            spans: Vec::new(),
            gauges: Vec::new(),
            exited: false,
        }));
        lock(&BUFFERS).push(Arc::clone(&buf));
        Local(buf)
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        lock(&self.0).exited = true;
    }
}

thread_local! {
    static BUF: Local = Local::register();
}

/// Runs `f` on the calling thread's buffer; a no-op while the thread's
/// TLS is being torn down.
fn with_buf(f: impl FnOnce(&mut LocalBuf)) {
    let _ = BUF.try_with(|b| f(&mut lock(&b.0)));
}

/// A live stage-scoped span guard: records a [`SpanRecord`] when dropped
/// (or explicitly via [`stop`](Span::stop)).
///
/// With recording disabled it holds `None` and drops for free.
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct Span {
    live: Option<LiveSpan>,
}

#[derive(Debug)]
struct LiveSpan {
    stage: &'static str,
    start: Instant,
    bytes: u64,
}

/// Opens a span for `stage`; the returned guard records on drop.
#[inline]
pub fn span(stage: &'static str) -> Span {
    let live = enabled().then(|| {
        // Fix the epoch first, so no span starts before it.
        epoch();
        LiveSpan { stage, start: Instant::now(), bytes: 0 }
    });
    Span { live }
}

impl Span {
    /// Attaches `n` bytes to this span (a byte-volume gauge riding the
    /// span record; summed if called repeatedly).
    #[inline]
    pub fn add_bytes(&mut self, n: u64) {
        if let Some(live) = &mut self.live {
            live.bytes += n;
        }
    }

    /// Ends the span now, returning the measured duration in nanoseconds
    /// (0 when recording is disabled).
    #[inline]
    pub fn stop(mut self) -> u64 {
        self.finish()
    }

    // A span that never went live finishes here without a call.
    #[inline]
    fn finish(&mut self) -> u64 {
        self.live.take().map_or(0, LiveSpan::record)
    }
}

impl LiveSpan {
    /// Pushes the ended span into the thread's buffer and returns its
    /// duration in nanoseconds.
    fn record(self) -> u64 {
        let dur_ns = (self.start.elapsed().as_nanos() as u64).max(1);
        let start_ns = self.start.saturating_duration_since(epoch()).as_nanos() as u64;
        with_buf(|b| {
            b.spans.push(SpanRecord {
                stage: self.stage,
                start_ns,
                dur_ns,
                lane: b.lane,
                bytes: self.bytes,
            });
        });
        dur_ns
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        self.finish();
    }
}

/// Records a byte-volume gauge against `stage` without timing anything.
#[inline]
pub fn add_bytes(stage: &'static str, bytes: u64) {
    if enabled() {
        with_buf(|b| b.gauges.push(GaugeRecord { stage, bytes }));
    }
}

/// Whether recording is currently on.
///
/// The first call reads [`PROBE_ENV`]; [`set_enabled`] overrides it.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => enabled_from_env(),
    }
}

/// The first [`enabled`] call: reads [`PROBE_ENV`] into the state.
#[cold]
fn enabled_from_env() -> bool {
    let on = std::env::var(PROBE_ENV)
        .is_ok_and(|v| matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "on" | "yes"));
    // A `set_enabled` on another thread during this first read wins: the
    // environment only fills a state nobody has set.
    let state = if on { 2 } else { 1 };
    match STATE.compare_exchange(0, state, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => on,
        Err(set) => set == 2,
    }
}

/// Turns recording on or off for the whole process (tests and examples
/// use this instead of mutating the environment).
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Discards the current thread's buffered events *without* reporting
/// them, keeping the buffers' capacity. Steady-state measurement loops
/// (the workspace's `tests/alloc_steady_state.rs`) call this between
/// frames so recording with probes enabled stays allocation-free, where
/// [`take_report`] would allocate the report's vectors.
pub fn discard_thread() {
    with_buf(|b| {
        b.spans.clear();
        b.gauges.clear();
    });
}

/// Drains every thread's buffer — the caller's, other live threads'
/// (a span is there as soon as it has closed) and exited threads' — into
/// a [`Report`].
pub fn take_report() -> Report {
    let (mut spans, mut gauges) = (Vec::new(), Vec::new());
    lock(&BUFFERS).retain(|buf| {
        let mut b = lock(buf);
        spans.append(&mut b.spans);
        gauges.append(&mut b.gauges);
        !b.exited
    });
    spans.sort_by_key(|s| (s.start_ns, s.lane));
    Report { spans, gauges }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Probe state is process-global, so every test here runs under one
    // lock to keep enable/drain cycles from interleaving.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spans_record_and_aggregate() {
        let _l = locked();
        set_enabled(true);
        let _ = take_report(); // drain anything stale
        {
            let mut sp = span("t/alpha");
            sp.add_bytes(10);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        {
            let _sp = span("t/alpha");
        }
        {
            let _sp = span("t/beta");
        }
        add_bytes("t/beta", 99);
        let report = take_report();
        set_enabled(false);

        assert_eq!(report.spans().len(), 3);
        let alpha = report.stage("t/alpha").expect("alpha recorded");
        assert_eq!(alpha.calls, 2);
        assert_eq!(alpha.bytes, 10);
        assert!(alpha.max_ns >= 1_000_000, "slept 1ms, got {}ns", alpha.max_ns);
        assert!(alpha.min_ns <= alpha.p50_ns && alpha.p50_ns <= alpha.max_ns);
        let beta = report.stage("t/beta").expect("beta recorded");
        assert_eq!((beta.calls, beta.bytes), (1, 99));
        assert_eq!(report.stage_total_ns("t"), alpha.total_ns + beta.total_ns);
        // "t" must not prefix-match a stage named "t2".
        assert_eq!(report.stage_total_ns("t/al"), 0);

        let table = report.table();
        assert!(table.contains("t/alpha") && table.contains("t/beta"), "{table}");
    }

    #[test]
    fn disabled_records_nothing_and_stop_returns_zero() {
        let _l = locked();
        set_enabled(false);
        let _ = take_report();
        let mut sp = span("t/off");
        sp.add_bytes(5);
        assert_eq!(sp.stop(), 0);
        add_bytes("t/off", 1);
        assert!(take_report().is_empty());
    }

    #[test]
    fn worker_thread_buffers_flush_on_exit() {
        let _l = locked();
        set_enabled(true);
        let _ = take_report();
        // Three threads of their own, so three lanes.
        #[allow(clippy::disallowed_methods)]
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let _sp = span("t/worker");
                });
            }
        });
        let report = take_report();
        set_enabled(false);
        let w = report.stage("t/worker").expect("worker spans collected");
        assert_eq!(w.calls, 3);
        // Lanes are distinct per thread.
        let lanes: std::collections::BTreeSet<u32> =
            report.spans().iter().map(|s| s.lane).collect();
        assert_eq!(lanes.len(), 3);
    }

    #[test]
    fn a_live_threads_closed_spans_are_collected() {
        let _l = locked();
        set_enabled(true);
        let _ = take_report();
        let (recorded_tx, recorded_rx) = std::sync::mpsc::channel();
        let (reported_tx, reported_rx) = std::sync::mpsc::channel::<()>();
        // A thread that outlives the report, as a parked pool worker does.
        #[allow(clippy::disallowed_methods)]
        std::thread::scope(|s| {
            s.spawn(move || {
                drop(span("t/live"));
                recorded_tx.send(()).unwrap();
                reported_rx.recv().unwrap();
            });
            recorded_rx.recv().unwrap();
            let report = take_report();
            reported_tx.send(()).unwrap();
            set_enabled(false);
            assert_eq!(report.stage("t/live").map(|s| s.calls), Some(1));
        });
    }

    #[test]
    fn stop_records_once_and_drop_does_not_double() {
        let _l = locked();
        set_enabled(true);
        let _ = take_report();
        let sp = span("t/once");
        let ns = sp.stop();
        assert!(ns >= 1);
        let report = take_report();
        set_enabled(false);
        assert_eq!(report.stage("t/once").map(|s| s.calls), Some(1));
    }

    #[test]
    fn merge_combines_reports() {
        let _l = locked();
        set_enabled(true);
        let _ = take_report();
        {
            let _sp = span("t/m1");
        }
        let mut a = take_report();
        {
            let _sp = span("t/m2");
        }
        let b = take_report();
        set_enabled(false);
        a.merge(b);
        assert!(a.stage("t/m1").is_some() && a.stage("t/m2").is_some());
        assert!(a.spans().windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn empty_report_shape() {
        let report = Report::default();
        assert!(report.is_empty());
        assert!(report.by_stage().is_empty());
        assert_eq!(report.stage_total_ns("x"), 0);
        assert!(report.table().starts_with("stage"));
    }
}
