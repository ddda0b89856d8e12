//! Event tracing: an optional, structured record of every charge a DPU
//! takes, for debugging kernels and visualizing dataflows.
//!
//! Tracing is off by default (zero overhead beyond a branch); enable it
//! with [`Dpu::enable_trace`](crate::Dpu::enable_trace) and collect the
//! events with [`Dpu::take_trace`](crate::Dpu::take_trace).

use crate::stats::Category;
use core::fmt;

/// One recorded simulation event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time at which the event *ends* (total elapsed seconds
    /// after the charge).
    pub at_seconds: f64,
    /// Duration of the event in seconds.
    pub seconds: f64,
    /// The category charged.
    pub category: Category,
    /// What happened.
    pub kind: TraceKind,
}

/// The kind of a traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// DRAM bank → WRAM stream of the given bytes.
    DramRead {
        /// Bytes streamed.
        bytes: u64,
    },
    /// WRAM → DRAM bank writeback of the given bytes.
    DramWrite {
        /// Bytes streamed.
        bytes: u64,
    },
    /// Instruction sequence.
    Instructions {
        /// Instructions retired.
        count: u64,
    },
    /// LUT slice entry-pair stream (`L_D` units).
    LutPairStream {
        /// Entry pairs streamed.
        pairs: u64,
    },
    /// Lookup+accumulate composites (`L_local` units).
    LookupAccum {
        /// Composites executed.
        count: u64,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12.6e}s] {:<18} {:>10.3e}s  {:?}",
            self.at_seconds,
            self.category.label(),
            self.seconds,
            self.kind
        )
    }
}

/// A bounded trace buffer.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// Creates a trace buffer bounded to `capacity` events (older events
    /// are never evicted; overflow events are counted and dropped so the
    /// head of an execution stays inspectable).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Records an event (drops it when full).
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The buffer's capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events that were dropped due to the capacity bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(secs: f64) -> TraceEvent {
        TraceEvent {
            at_seconds: secs,
            seconds: secs,
            category: Category::Compute,
            kind: TraceKind::Instructions { count: 1 },
        }
    }

    #[test]
    fn bounded_buffer_drops_overflow() {
        let mut t = Trace::with_capacity(2);
        t.record(event(1.0));
        t.record(event(2.0));
        t.record(event(3.0));
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.events()[0].at_seconds, 1.0);
    }

    #[test]
    fn display_is_informative() {
        let s = event(0.5).to_string();
        assert!(s.contains("compute"));
        assert!(s.contains("Instructions"));
    }
}
