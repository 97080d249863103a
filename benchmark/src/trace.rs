//! Spans kept in memory, and the counting allocator.
//!
//! The traced run records a span — name, start, end, parent, op id —
//! around each of the generator's wire calls and around each call of the
//! in-process replay into a layer's public function. Spans of one request
//! share its op id. Per-layer times are aggregates of these spans; the file
//! written at exit keeps the first [`SPANS_WRITTEN`] so it stays readable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Spans written to `trace-<workload>.json` (aggregates cover all of them).
pub const SPANS_WRITTEN: usize = 20_000;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `proto.frame_read`.
    pub name: &'static str,
    /// Request this span belongs to.
    pub op: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

/// An in-memory span log with one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Every span recorded, in completion order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (threads of one run share it).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Record `[start, end]`; returns the span's index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        (self.spans.len() - 1) as u32
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let id = self.push(name, op, parent, start, Instant::now());
        (out, id)
    }

    /// Append another thread's spans (same origin), fixing parent indexes.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Mean duration (ns) of the spans called `name`; 0 when there are none.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            return 0.0;
        }
        d.iter().sum::<u64>() as f64 / d.len() as f64
    }

    /// Total self time per span name: a span's duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(kids);
        }
        out
    }

    /// Write the log as one JSON document.
    pub fn write_json(&self, w: &mut impl Write, workload: &str, seed: u64) -> io::Result<()> {
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"ns since the run's origin\",\
             \"spans_recorded\":{},\"self_time_ns\":{{",
            self.spans.len()
        )?;
        let self_times = self.self_times();
        for (i, (name, ns)) in self_times.iter().enumerate() {
            let comma = if i + 1 < self_times.len() { "," } else { "" };
            writeln!(w, "  \"{name}\":{ns}{comma}")?;
        }
        writeln!(w, "}},\"spans\":[")?;
        let n = self.spans.len().min(SPANS_WRITTEN);
        for (i, s) in self.spans[..n].iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < n { "," } else { "" };
            writeln!(
                w,
                "  {{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")
    }
}

/// The system allocator with a call counter, so the replay can report
/// allocations per frame — a count that repeats exactly where times do not.
/// It lives here, not in a product crate, which all `forbid(unsafe_code)`.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic that
// publishes no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block, per the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls (alloc, zeroed alloc, realloc) made by this process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let at = |ns: u64| origin + Duration::from_nanos(ns);
        let mut t = Tracer::new(origin);
        let root = t.push("op", 1, None, at(0), at(100));
        let read = t.push("read", 1, Some(root), at(10), at(70));
        t.push("parse", 1, Some(read), at(20), at(60));
        let st = t.self_times();
        assert_eq!(st["op"], 40);
        assert_eq!(st["read"], 20);
        assert_eq!(st["parse"], 40);
        assert_eq!(t.mean_ns("parse"), 40.0);

        let mut other = Tracer::new(origin);
        let r = other.push("op", 2, None, at(200), at(260));
        other.push("read", 2, Some(r), at(210), at(220));
        t.absorb(other);
        assert_eq!(t.spans[4].parent, Some(3));
        assert_eq!(t.self_times()["op"], 90);

        let mut out = Vec::new();
        t.write_json(&mut out, "w", 7).unwrap();
        let doc = ged_proto::Json::parse(&String::from_utf8(out).unwrap()).unwrap();
        assert_eq!(doc.get_arr("spans").unwrap().len(), 5);
    }

    #[test]
    fn the_allocator_counts() {
        let before = allocations();
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(32));
        assert!(allocations() > before);
        drop(v);
    }
}
