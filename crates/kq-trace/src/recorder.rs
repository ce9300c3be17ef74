//! The recorder: TLS buffers, the sink, and session scoping.
//!
//! # Overhead model
//!
//! With no session live anywhere in the process, [`enabled`] is one
//! `Relaxed` atomic load and every builder ([`span`], [`instant`],
//! [`counter`], [`meta`]) returns an inert `None` wrapper before touching
//! the clock or allocating — the cost of an instrumentation point is a
//! branch. While some session is live, a thread that does not belong to
//! it pays one more thread-local read and is just as inert. On a thread
//! that does belong to a live session, a span costs two `Instant::now()`
//! reads plus a push onto the thread's own buffer behind an uncontended
//! per-thread mutex; the only locks shared across threads (the sink, the
//! buffer registry and the live-session list) are taken once per thread
//! lifetime and once per session boundary.
//!
//! # Sessions are scoped to the threads that carry them
//!
//! A thread records only while it carries a live session's id in a
//! thread-local. [`TraceSession::start`] puts the new id on the calling
//! thread; a thread pool passes it on by capturing [`current`] before it
//! spawns and calling [`SessionRef::attach`] first thing in each worker.
//! Every record is tagged with the id of the thread that emitted it and
//! [`TraceSession::finish`] drains only its own id, so an untraced run on
//! another thread of the same process records nothing and two sessions
//! at once produce disjoint traces. Timestamps come from one process-wide
//! monotonic epoch, so they are comparable across threads and sessions.
//!
//! # Why a buffer registry instead of TLS destructors
//!
//! The obvious design — flush each thread's buffer from its
//! `thread_local!` destructor — silently loses records: `thread::scope`
//! returns when every spawned closure has *returned*, which happens
//! before the OS thread runs its TLS destructors. A scoped pool worker
//! can therefore flush after the executor (and the session) has already
//! finished. Instead, every thread's buffer is an `Arc` registered in a
//! process-global registry the moment the thread first records, and
//! [`TraceSession::finish`] drains every registered buffer directly —
//! live threads included. The TLS destructor only moves leftovers to the
//! sink and deregisters; correctness never depends on when it runs.

use crate::record::{Kind, Record};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// A record and the id of the session it belongs to.
type Tagged = (u64, Record);

/// `LIVE_IDS.len()`, mirrored for the lock-free disabled check.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static LIVE_IDS: Mutex<Vec<u64>> = Mutex::new(Vec::new());
static SINK: Mutex<Vec<Tagged>> = Mutex::new(Vec::new());
static REGISTRY: Mutex<Vec<Arc<Mutex<Vec<Tagged>>>>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
/// Session ids start at 1; 0 means "this thread carries no session".
static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The session this thread records into (0: none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static TLS: TlsBuf = TlsBuf::new();
}

/// True when the calling thread carries a session and some session is
/// live. The one check every instrumentation point pays when tracing is
/// off.
#[inline]
pub fn enabled() -> bool {
    recording_into().is_some()
}

/// The session the calling thread records into, if it records at all.
#[inline]
fn recording_into() -> Option<u64> {
    if LIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    Some(CURRENT.with(Cell::get)).filter(|&session| session != 0)
}

/// Nanoseconds since the process trace epoch (first use).
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct TlsBuf {
    tid: u64,
    buf: Arc<Mutex<Vec<Tagged>>>,
}

impl TlsBuf {
    fn new() -> TlsBuf {
        let buf = Arc::new(Mutex::new(Vec::new()));
        registry().push(Arc::clone(&buf));
        TlsBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            buf,
        }
    }
}

impl Drop for TlsBuf {
    fn drop(&mut self) {
        // Lock order (everywhere): sink, then registry/buffer. Holding the
        // sink throughout serializes this against a concurrent drain, so
        // leftovers either land in the sink before the drain takes them
        // or are drained from the buffer by the drain itself.
        let mut sink = sink();
        let records = std::mem::take(&mut *lock(&self.buf));
        sink.extend(records);
        registry().retain(|b| !Arc::ptr_eq(b, &self.buf));
    }
}

fn sink() -> MutexGuard<'static, Vec<Tagged>> {
    SINK.lock().unwrap_or_else(|e| e.into_inner())
}

fn registry() -> MutexGuard<'static, Vec<Arc<Mutex<Vec<Tagged>>>>> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

fn live_ids() -> MutexGuard<'static, Vec<u64>> {
    LIVE_IDS.lock().unwrap_or_else(|e| e.into_inner())
}

fn lock(buf: &Mutex<Vec<Tagged>>) -> MutexGuard<'_, Vec<Tagged>> {
    buf.lock().unwrap_or_else(|e| e.into_inner())
}

fn push(session: u64, record: Record) {
    // `try_with` so a record emitted during thread teardown (after the TLS
    // destructor ran) is dropped instead of panicking.
    let _ = TLS.try_with(|t| lock(&t.buf).push((session, record)));
}

fn current_tid() -> u64 {
    TLS.try_with(|t| t.tid).unwrap_or(u64::MAX)
}

/// The session a thread records into, as a value another thread can take
/// up: capture [`current`] before spawning a worker and
/// [`attach`](SessionRef::attach) it inside.
#[derive(Debug, Clone, Copy)]
pub struct SessionRef(u64);

/// The calling thread's session (possibly none — attaching that is a
/// no-op that keeps the worker untraced).
#[inline]
pub fn current() -> SessionRef {
    SessionRef(CURRENT.with(Cell::get))
}

impl SessionRef {
    /// Makes the calling thread record into this session until the
    /// returned guard drops.
    pub fn attach(self) -> Attached {
        Attached {
            previous: CURRENT.with(|c| c.replace(self.0)),
            _this_thread: PhantomData,
        }
    }
}

/// Restores the thread's previous session when dropped (see
/// [`SessionRef::attach`]).
pub struct Attached {
    previous: u64,
    /// The guard undoes a thread-local write: it must stay on its thread.
    _this_thread: PhantomData<*const ()>,
}

impl Drop for Attached {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.previous));
    }
}

/// One recording window: from [`start`](TraceSession::start) to
/// [`finish`](TraceSession::finish), the starting thread and every thread
/// the session was [attached](SessionRef::attach) to record into it.
pub struct TraceSession {
    id: u64,
    /// `Some` until the session has been drained.
    attached: Option<Attached>,
}

impl TraceSession {
    /// Begins recording on the calling thread.
    pub fn start() -> TraceSession {
        let id = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
        {
            let mut ids = live_ids();
            ids.push(id);
            LIVE.store(ids.len(), Ordering::SeqCst);
        }
        TraceSession {
            id,
            attached: Some(SessionRef(id).attach()),
        }
    }

    /// Stops recording and returns this session's records, ordered by
    /// start time.
    ///
    /// Drains every registered thread buffer directly — including threads
    /// whose TLS destructors have not run yet (`thread::scope` returns
    /// before they do), so scoped pool workers never lose records.
    pub fn finish(mut self) -> Vec<Record> {
        let mut records = self.drain();
        records.sort_by_key(|r| (r.t0, r.t1, r.tid));
        records
    }

    /// Ends the session: detaches the calling thread, takes this
    /// session's records out of the sink and every thread buffer, and
    /// discards what sessions that no longer exist left behind (a span
    /// that outlived its session).
    fn drain(&mut self) -> Vec<Record> {
        if self.attached.take().is_none() {
            return Vec::new();
        }
        let live = {
            let mut ids = live_ids();
            ids.retain(|&id| id != self.id);
            LIVE.store(ids.len(), Ordering::SeqCst);
            ids.clone()
        };
        let mut mine = Vec::new();
        let mut take = |tagged: &mut Vec<Tagged>| {
            for (id, record) in std::mem::take(tagged) {
                if id == self.id {
                    mine.push(record);
                } else if live.contains(&id) {
                    tagged.push((id, record));
                }
            }
        };
        let mut sink = sink();
        take(&mut sink);
        for buf in registry().iter() {
            take(&mut lock(buf));
        }
        mine
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        // Abandoned without `finish` (error path): stop recording and
        // throw the records away.
        self.drain();
    }
}

struct SpanInner {
    /// The session the span was opened under.
    session: u64,
    cat: &'static str,
    name: &'static str,
    label: String,
    si: Option<u64>,
    ni: Option<u64>,
    seq: Option<u64>,
    v: Option<f64>,
    t0: u64,
}

/// An in-flight span; records its interval when dropped (or via
/// [`Span::done`]). Inert — no clock, no allocation — when tracing is off.
pub struct Span(Option<SpanInner>);

/// Opens a span now. The builder methods are no-ops on an inert span, so
/// callers pay nothing for labels when tracing is off.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    let Some(session) = recording_into() else {
        return Span(None);
    };
    Span(Some(SpanInner {
        session,
        cat,
        name,
        label: String::new(),
        si: None,
        ni: None,
        seq: None,
        v: None,
        t0: now_ns(),
    }))
}

impl Span {
    /// Attaches a human-readable label.
    pub fn label(mut self, label: impl AsRef<str>) -> Span {
        if let Some(inner) = &mut self.0 {
            inner.label = label.as_ref().to_owned();
        }
        self
    }

    /// Attaches the statement index.
    pub fn si(mut self, si: usize) -> Span {
        if let Some(inner) = &mut self.0 {
            inner.si = Some(si as u64);
        }
        self
    }

    /// Attaches the node / stage / segment index.
    pub fn ni(mut self, ni: usize) -> Span {
        if let Some(inner) = &mut self.0 {
            inner.ni = Some(ni as u64);
        }
        self
    }

    /// Attaches the chunk / piece / round ordinal.
    pub fn seq(mut self, seq: usize) -> Span {
        if let Some(inner) = &mut self.0 {
            inner.seq = Some(seq as u64);
        }
        self
    }

    /// Attaches an auxiliary quantity (bytes, chunks, ...).
    pub fn v(mut self, v: f64) -> Span {
        if let Some(inner) = &mut self.0 {
            inner.v = Some(v);
        }
        self
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn done(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            let record = Record {
                kind: Kind::Span,
                cat: inner.cat.to_owned(),
                name: inner.name.to_owned(),
                label: inner.label,
                si: inner.si,
                ni: inner.ni,
                seq: inner.seq,
                t0: inner.t0,
                t1: now_ns(),
                tid: current_tid(),
                v: inner.v,
            };
            push(inner.session, record);
        }
    }
}

/// A point record under construction ([`instant`], [`counter`], or
/// [`meta`]); emitted when dropped. Inert when tracing is off.
pub struct Event(Option<Tagged>);

fn event(kind: Kind, cat: &'static str, name: &'static str, v: Option<f64>) -> Event {
    let Some(session) = recording_into() else {
        return Event(None);
    };
    let now = now_ns();
    let record = Record {
        kind,
        cat: cat.to_owned(),
        name: name.to_owned(),
        label: String::new(),
        si: None,
        ni: None,
        seq: None,
        t0: now,
        t1: now,
        tid: current_tid(),
        v,
    };
    Event(Some((session, record)))
}

/// A point event at the current time.
#[inline]
pub fn instant(cat: &'static str, name: &'static str) -> Event {
    event(Kind::Instant, cat, name, None)
}

/// A named quantity observed at the current time.
#[inline]
pub fn counter(cat: &'static str, name: &'static str, v: f64) -> Event {
    event(Kind::Counter, cat, name, Some(v))
}

/// A structural record (graph node, dependency edge, run config).
#[inline]
pub fn meta(cat: &'static str, name: &'static str) -> Event {
    event(Kind::Meta, cat, name, None)
}

impl Event {
    /// Attaches a human-readable label.
    pub fn label(mut self, label: impl AsRef<str>) -> Event {
        if let Some((_, r)) = &mut self.0 {
            r.label = label.as_ref().to_owned();
        }
        self
    }

    /// Attaches the statement index.
    pub fn si(mut self, si: usize) -> Event {
        if let Some((_, r)) = &mut self.0 {
            r.si = Some(si as u64);
        }
        self
    }

    /// Attaches the node / stage / segment index.
    pub fn ni(mut self, ni: usize) -> Event {
        if let Some((_, r)) = &mut self.0 {
            r.ni = Some(ni as u64);
        }
        self
    }

    /// Attaches the chunk / piece / round ordinal.
    pub fn seq(mut self, seq: usize) -> Event {
        if let Some((_, r)) = &mut self.0 {
            r.seq = Some(seq as u64);
        }
        self
    }

    /// Attaches (or overrides) the value.
    pub fn v(mut self, v: f64) -> Event {
        if let Some((_, r)) = &mut self.0 {
            r.v = Some(v);
        }
        self
    }

    /// Emits the record now (equivalent to dropping it).
    pub fn emit(self) {}
}

impl Drop for Event {
    fn drop(&mut self) {
        if let Some((session, record)) = self.0.take() {
            push(session, record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_emits_nothing() {
        // No session: builders are inert.
        span("t", "noop").label("x").si(1).done();
        counter("t", "noop", 1.0).emit();
        let session = TraceSession::start();
        let records = session.finish();
        assert!(records.is_empty(), "{records:?}");
    }

    #[test]
    fn session_collects_spans_across_scoped_threads() {
        let session = TraceSession::start();
        span("t", "main").label("m").done();
        let trace = current();
        std::thread::scope(|scope| {
            for i in 0..4 {
                scope.spawn(move || {
                    let _trace = trace.attach();
                    span("t", "worker").seq(i).done();
                });
            }
            // A thread the session was not handed to stays untraced.
            scope.spawn(|| span("t", "stranger").done());
        });
        let records = session.finish();
        assert_eq!(records.len(), 5, "{records:?}");
        assert_eq!(records.iter().filter(|r| r.name == "worker").count(), 4);
        let tids: std::collections::HashSet<u64> = records
            .iter()
            .filter(|r| r.name == "worker")
            .map(|r| r.tid)
            .collect();
        assert_eq!(tids.len(), 4, "one tid per worker thread");
        for r in &records {
            assert!(r.t1 >= r.t0);
        }
    }

    #[test]
    fn consecutive_sessions_do_not_leak_records() {
        let first = TraceSession::start();
        span("t", "first").done();
        let got = first.finish();
        assert_eq!(got.len(), 1);
        let second = TraceSession::start();
        span("t", "second").done();
        let got = second.finish();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].name, "second");
    }

    #[test]
    fn concurrent_sessions_are_disjoint_and_untraced_threads_are_silent() {
        // Both sessions are live at once (the barrier sits between start
        // and finish), each fans out to attached workers, and a third
        // thread runs untraced throughout.
        let barrier = std::sync::Barrier::new(3);
        let traced = |name: &'static str| {
            let session = TraceSession::start();
            barrier.wait();
            let trace = current();
            std::thread::scope(|scope| {
                for i in 0..3 {
                    scope.spawn(move || {
                        let _trace = trace.attach();
                        span("t", name).seq(i).done();
                    });
                }
            });
            span("t", name).done();
            barrier.wait();
            session.finish()
        };
        std::thread::scope(|scope| {
            let a = scope.spawn(|| traced("a"));
            let b = scope.spawn(|| traced("b"));
            scope.spawn(|| {
                barrier.wait();
                assert!(!enabled(), "no session was handed to this thread");
                span("t", "untraced").done();
                barrier.wait();
            });
            for (handle, name) in [(a, "a"), (b, "b")] {
                let records = handle.join().unwrap();
                assert_eq!(records.len(), 4, "{records:?}");
                assert!(records.iter().all(|r| r.name == name), "{records:?}");
            }
        });
    }

    #[test]
    fn a_span_that_outlives_its_session_is_discarded() {
        let first = TraceSession::start();
        let late = span("t", "late");
        assert!(first.finish().is_empty());
        let second = TraceSession::start();
        drop(late);
        assert!(second.finish().is_empty());
        assert!(lock(&TLS.with(|t| Arc::clone(&t.buf))).is_empty());
    }

    #[test]
    fn records_sort_by_start_time() {
        let session = TraceSession::start();
        let outer = span("t", "outer");
        span("t", "inner").done();
        outer.done();
        instant("t", "after").emit();
        let records = session.finish();
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "after"]);
    }

    #[test]
    fn abandoned_session_stops_recording() {
        let session = TraceSession::start();
        span("t", "lost").done();
        drop(session);
        assert!(!enabled());
        let session = TraceSession::start();
        assert!(enabled());
        assert!(session.finish().is_empty());
    }
}
