//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of each public call into a
//! layer — the program under test carries no instrumentation yet — kept in
//! memory, and written out once when the traced pass ends. A span knows the
//! span that caused it (`parent`) and the operation it belongs to (`op`),
//! so one request's spans can be pulled out of the dump by `op`.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same dump.
    pub parent: Option<usize>,
    /// The operation (request, GEMM) this span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. Threads each own a tracer sharing
/// one epoch; [`Tracer::absorb`] joins them for the dump. A tracer that is
/// off records nothing, so the timed code is the same with tracing on and
/// off and the difference between the two passes is the tracer's cost.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn on(epoch: Instant) -> Self {
        Tracer {
            epoch: Some(epoch),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Tracer {
            epoch: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer for another thread: same epoch, same on/off state.
    pub fn sibling(&self) -> Self {
        Tracer {
            epoch: self.epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one; pair with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, op: u64) {
        let Some(epoch) = self.epoch else { return };
        let start_ns = epoch.elapsed().as_nanos() as u64;
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            op,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let Some(epoch) = self.epoch else { return };
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = epoch.elapsed().as_nanos() as u64;
    }

    /// Times `body` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        body: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.enter(name, op);
        let result = body(self);
        self.exit();
        result
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children (two threads working for one parent) are counted
/// once, so self time is never negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
            let clipped = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            children[parent].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        *totals.entry(span.name).or_insert(0) += self_ns;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t.x",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn nested_children_subtract_from_their_own_parent_only() {
        // root 0..100 > child 10..60 > grandchild 20..30
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn adjacent_children_add_up() {
        let spans = [
            span(0, 100, None),
            span(0, 40, Some(0)),
            span(40, 100, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![0, 40, 60]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two workers busy for one parent: 10..50 and 30..80 cover 70 ns.
        let spans = [
            span(0, 100, None),
            span(30, 80, Some(0)),
            span(10, 50, Some(0)),
            span(20, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that outlives its parent (another thread's clock read)
        // cannot drive the parent's self time negative.
        let spans = [
            span(10, 50, None),
            span(0, 30, Some(0)),
            span(40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn tracer_links_parents_and_absorb_rebases_them() {
        let epoch = Instant::now();
        let mut main = Tracer::on(epoch);
        main.span("a.outer", 1, |t| t.span("b.inner", 1, |_| ()));
        let mut worker = main.sibling();
        worker.span("c.outer", 2, |t| t.span("d.inner", 2, |_| ()));
        main.absorb(worker);
        let parents: Vec<_> = main.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
        assert!(main.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let by_name = self_time_by_name(main.spans());
        assert_eq!(by_name.len(), 4);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut tracer = Tracer::off();
        assert_eq!(tracer.span("a.b", 0, |t| t.span("c.d", 0, |_| 7)), 7);
        assert!(tracer.spans().is_empty());
        assert!(tracer.sibling().epoch.is_none());
    }
}
