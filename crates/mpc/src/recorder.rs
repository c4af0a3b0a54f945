//! The ring-buffered [`Recorder`] and the trace side of the run
//! context.
//!
//! [`install`] puts a sink in the [run context](crate::context) and
//! returns the guard that removes it on drop (panic-safe), [`span`]
//! labels an algorithm phase on the live sink (a no-op when none is
//! installed, so instrumentation costs one thread-local read when
//! tracing is off), and [`Recorder::capture`] wraps the common
//! install–run–collect pattern. Communication events are fed by
//! `Cluster` through the context's crate-private `observe`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::context::{self, ContextGuard, Instrument};
use crate::event::{TraceEvent, TraceSink};

/// Default ring capacity: plenty for every in-tree experiment while
/// bounding memory for adversarial event volumes.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// A bounded, in-order event buffer: the standard [`TraceSink`].
///
/// When the ring is full the *oldest* event is discarded and
/// [`dropped`](Recorder::dropped) is incremented, so the recorder
/// always holds the most recent window of the run. The sequence
/// number of the first retained event is exactly `dropped()`; totals
/// computed from a recorder are therefore only exact when
/// `dropped() == 0`.
#[derive(Debug)]
pub struct Recorder {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder with the [`DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder holding at most `capacity` events (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            events: VecDeque::with_capacity(capacity.min(DEFAULT_CAPACITY)),
            capacity,
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events discarded because the ring was full. Also the
    /// logical sequence number (`seq`) of the first retained event.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Run `f` with a fresh recorder installed as the thread's sink
    /// and return the recorder alongside `f`'s result.
    ///
    /// The previous sink (if any) is restored afterwards, even if `f`
    /// panics.
    pub fn capture<R>(f: impl FnOnce() -> R) -> (Recorder, R) {
        context::capture(Recorder::new(), |shared| Instrument::Sink(shared), f)
    }
}

impl TraceSink for Recorder {
    fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// Install `sink` as this thread's trace sink until the returned guard
/// drops. Nesting is allowed; the innermost install wins and the outer
/// sink resumes when the inner guard drops.
pub fn install(sink: Rc<RefCell<dyn TraceSink>>) -> ContextGuard {
    context::install(Instrument::Sink(sink))
}

/// Whether a sink is currently installed.
pub fn is_enabled() -> bool {
    context::is_traced()
}

/// An open algorithm phase; emits [`TraceEvent::SpanEnd`] on drop.
#[must_use = "dropping the span immediately closes it"]
pub struct Span {
    label: &'static str,
}

impl Span {
    /// The label this span was opened with.
    pub fn label(&self) -> &'static str {
        self.label
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        context::emit(TraceEvent::SpanEnd { label: self.label });
    }
}

/// Open an algorithm phase span (e.g. `"hypercube/shuffle"`). The
/// phase closes when the returned [`Span`] drops. A no-op (beyond the
/// guard) when no sink is installed.
pub fn span(label: &'static str) -> Span {
    context::emit(TraceEvent::SpanBegin { label });
    Span { label }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recv(round: usize, server: usize, n: u64) -> TraceEvent {
        TraceEvent::Recv {
            round,
            server,
            tuples: n,
            words: n,
        }
    }

    #[test]
    fn ring_drops_oldest() {
        let mut r = Recorder::with_capacity(3);
        for i in 0..5 {
            r.record(recv(0, i, 1));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let servers: Vec<usize> = r
            .events()
            .map(|e| match e {
                TraceEvent::Recv { server, .. } => *server,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(servers, vec![2, 3, 4]);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut r = Recorder::with_capacity(0);
        r.record(recv(0, 0, 1));
        r.record(recv(0, 1, 1));
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn span_emits_begin_and_end() {
        let (rec, ()) = Recorder::capture(|| {
            let s = span("test/phase");
            assert_eq!(s.label(), "test/phase");
            context::emit(recv(0, 0, 1));
        });
        let kinds: Vec<&TraceEvent> = rec.events().collect();
        assert_eq!(kinds.len(), 3);
        assert_eq!(
            kinds[0],
            &TraceEvent::SpanBegin {
                label: "test/phase"
            }
        );
        assert_eq!(
            kinds[2],
            &TraceEvent::SpanEnd {
                label: "test/phase"
            }
        );
    }
}
