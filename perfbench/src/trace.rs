//! The traced run's recorder: spans opened by the benchmark's own code
//! around each call into a layer, plus the timing wrappers that let it
//! see inside the storage layers without changing them.
//!
//! A span has a name, a start, an end, the span it nests in, and the id
//! of the operation (one verification, one service job) it belongs to.
//! Spans are kept in memory and written out when the run ends; a span's
//! self time is its duration minus the time of the spans nested in it.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use pnp_kernel::{SnapshotError, SnapshotSink, Vfs, VfsHandle};

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Payload bytes the call moved (reads, writes, snapshot stores).
    pub bytes: u64,
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The open spans of this thread, innermost last: `(span id, op id)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// An open span; it is recorded when finished or dropped.
pub struct Guard {
    name: &'static str,
    id: u64,
    parent: u64,
    op: u64,
    start_ns: u64,
    bytes: u64,
}

/// Opens a span nested in this thread's innermost open span, sharing its
/// operation id (0 when the thread has none open).
pub fn enter(name: &'static str) -> Guard {
    let (parent, op) = OPEN.with(|open| open.borrow().last().copied().unwrap_or((0, 0)));
    open_span(name, parent, op)
}

/// Opens the root span of operation `op`.
pub fn enter_op(name: &'static str, op: u64) -> Guard {
    open_span(name, 0, op)
}

fn open_span(name: &'static str, parent: u64, op: u64) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    OPEN.with(|open| open.borrow_mut().push((id, op)));
    Guard {
        name,
        id,
        parent,
        op,
        start_ns: now_ns(),
        bytes: 0,
    }
}

impl Guard {
    /// Records how many payload bytes the spanned call moved.
    pub fn bytes(&mut self, bytes: usize) {
        self.bytes = bytes as u64;
    }

    /// Closes the span and returns its duration in seconds.
    pub fn finish(self) -> f64 {
        let seconds = (now_ns() - self.start_ns) as f64 * 1e-9;
        drop(self);
        seconds
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&(id, _)| id == self.id) {
                open.remove(pos);
            }
        });
        let span = Span {
            name: self.name,
            id: self.id,
            parent: self.parent,
            op: self.op,
            start_ns: self.start_ns,
            end_ns,
            bytes: self.bytes,
        };
        // Never panic in drop: a poisoned recorder just loses the span.
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Takes every span recorded so far, in the order they finished.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("no span recorder panics"))
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub seconds: f64,
    pub self_seconds: f64,
    pub bytes: u64,
}

/// Sums spans by name. Self time subtracts the duration of each span's
/// direct children; a span's children run on its thread, inside it.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for span in spans {
        if span.parent != 0 {
            *child_ns.entry(span.parent).or_default() += span.end_ns - span.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for span in spans {
        let duration = span.end_ns - span.start_ns;
        let own = duration.saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
        let total = out.entry(span.name).or_default();
        total.count += 1;
        total.seconds += duration as f64 * 1e-9;
        total.self_seconds += own as f64 * 1e-9;
        total.bytes += span.bytes;
    }
    out
}

/// Writes spans as JSON lines to `path`.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}",
            s.name, s.id, s.parent, s.op, s.start_ns, s.end_ns, s.bytes
        )?;
    }
    out.flush()
}

/// A [`Vfs`] that records a span around every call into the one it wraps:
/// `vfs.read`, `vfs.write`, `vfs.sync` (file and directory syncs) and
/// `vfs.meta` (renames, removals, listings, existence checks, mkdir).
#[derive(Debug)]
pub struct TimingVfs {
    inner: VfsHandle,
}

impl TimingVfs {
    pub fn wrap(inner: VfsHandle) -> VfsHandle {
        std::sync::Arc::new(TimingVfs { inner })
    }
}

impl Vfs for TimingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut span = enter("vfs.read");
        let out = self.inner.read(path);
        if let Ok(bytes) = &out {
            span.bytes(bytes.len());
        }
        out
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut span = enter("vfs.write");
        span.bytes(bytes.len());
        self.inner.write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let _span = enter("vfs.sync");
        self.inner.sync_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let _span = enter("vfs.sync");
        self.inner.sync_dir(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let _span = enter("vfs.meta");
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let _span = enter("vfs.meta");
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let _span = enter("vfs.meta");
        self.inner.list(dir)
    }

    fn list_dirs(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let _span = enter("vfs.meta");
        self.inner.list_dirs(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        let _span = enter("vfs.meta");
        self.inner.exists(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let _span = enter("vfs.meta");
        self.inner.create_dir_all(dir)
    }
}

/// A [`SnapshotSink`] that records a `durable.store` span around every
/// store into the sink it wraps.
pub struct TimingSink<S> {
    inner: S,
}

impl<S: SnapshotSink> TimingSink<S> {
    pub fn wrap(inner: S) -> TimingSink<S> {
        TimingSink { inner }
    }
}

impl<S: SnapshotSink> SnapshotSink for TimingSink<S> {
    fn store(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut span = enter("durable.store");
        span.bytes(bytes.len());
        self.inner.store(bytes)
    }
}
