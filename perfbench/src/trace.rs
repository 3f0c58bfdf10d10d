//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span carries a name, start, end, parent span and request id. Spans
//! stay in memory (one [`Tracer`] per thread) and are written out as JSON
//! lines when the run ends. A layer's self time is its span's duration
//! minus the part of that interval its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (the tracer's tag in the top 16 bits).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Layer call name, e.g. `cache.lookup`.
    pub name: &'static str,
    /// Request (or batch) the span belongs to.
    pub req: u64,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Work units the call covered (rows in a batch; 1 otherwise).
    pub units: u64,
}

/// A span that has started but not ended; its id can parent children.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// The id the span will carry.
    pub id: u64,
    start_ns: u64,
}

/// Per-thread in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    tag: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose span ids are unique across tracers with distinct
    /// `tag`s sharing one `epoch`.
    pub fn new(epoch: Instant, tag: u16) -> Self {
        Tracer {
            epoch,
            tag: u64::from(tag) << 48,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span whose id children may name as their parent.
    pub fn open(&mut self) -> Open {
        self.next += 1;
        Open {
            id: self.tag | self.next,
            start_ns: self.now_ns(),
        }
    }

    /// Ends `open`, recording it; returns its id.
    pub fn close(
        &mut self,
        open: Open,
        name: &'static str,
        parent: u64,
        req: u64,
        units: u64,
    ) -> u64 {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id: open.id,
            parent,
            name,
            req,
            start_ns: open.start_ns,
            end_ns,
            units,
        });
        open.id
    }

    /// Records a span whose times were taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        (start_ns, end_ns): (u64, u64),
        units: u64,
    ) -> u64 {
        self.next += 1;
        let id = self.tag | self.next;
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns,
            units,
        });
        id
    }

    /// Times `f` as a childless span.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        units: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open();
        let out = f();
        self.close(open, name, parent, req, units);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in input order: its duration minus the union
/// of its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return total;
            };
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            total - covered.min(total)
        })
        .collect()
}

/// Total self time and work units per span name.
pub fn per_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.0 += own;
        entry.1 += span.units;
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"units\":{}}}",
            s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns, s.units
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 0,
            start_ns: start,
            end_ns: end,
            units: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "request", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "b", 20, 40),  // overlaps a: covered once
            span(4, 1, "c", 90, 120), // clipped at the parent's end
            span(5, 3, "d", 25, 35),  // grandchild: b's, not request's
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 30, 10]);
        let totals = per_name(&spans);
        assert_eq!(totals["request"], (60, 1));
        assert_eq!(totals["b"], (10, 1));
    }

    #[test]
    fn tracer_ids_are_unique_per_tag_and_nest() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 1);
        let root = t.open();
        let x = t.leaf("leaf", root.id, 7, 1, || 2 + 2);
        assert_eq!(x, 4);
        let root_id = t.close(root, "root", 0, 7, 1);
        let mut u = Tracer::new(epoch, 2);
        let other = u.record("other", 0, 7, (0, 1), 1);
        let spans = t.into_spans();
        assert_eq!(spans[0].parent, root_id);
        assert_ne!(other, root_id);
        assert!(spans[1].end_ns >= spans[0].end_ns);
    }
}
