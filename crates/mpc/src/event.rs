//! The trace event model and the sink trait.
//!
//! Events mirror the simulator's ledger at exchange granularity: one
//! `RoundBegin … RoundEnd` block per recorded round, containing one
//! `Recv` per server that received anything (zero-load servers are
//! elided — `RoundBegin::servers` lets analyses reconstruct the
//! zeros), one `Send` per server whose fan-out was attributed via
//! `Exchange::set_sender`, and at most one `Topology` carrying the
//! grid dimensions when the round used HyperCube addressing. Span
//! events are the only kind algorithm crates trigger (through
//! `trace::span`); everything else is emitted by `Cluster` alone — the
//! feeding hook is private to this crate.

/// One structured observation about a simulated MPC run.
///
/// `round` is the cluster-local round index (the value
/// `Cluster::rounds_so_far()` had when the round was recorded). A
/// capture that spans several clusters — e.g. SkewHC running one
/// residual HyperCube per heavy-hitter combination — simply contains
/// several interleaved numbering sequences; the recorder's `seq`
/// ordering keeps the stream unambiguous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A recorded round is being finalized on a cluster of `servers`.
    RoundBegin {
        /// Cluster-local round index.
        round: usize,
        /// Cluster size `p`.
        servers: usize,
    },
    /// The round routed messages over a `p₁ × … × p_k` grid.
    Topology {
        /// Cluster-local round index.
        round: usize,
        /// Per-dimension grid sizes (the HyperCube shares).
        dims: Vec<usize>,
    },
    /// Server `server` sent `msgs` messages totalling `words` words
    /// this round. Present only when the algorithm attributed senders
    /// via `Exchange::set_sender`; receive-side `Recv` events are the
    /// ground truth the ledger charges.
    Send {
        /// Cluster-local round index.
        round: usize,
        /// Sending server rank.
        server: usize,
        /// Messages sent by `server`.
        msgs: u64,
        /// Words sent by `server`.
        words: u64,
    },
    /// Server `server` received `tuples` tuples (`words` words) this
    /// round. Emitted only for servers with nonzero load.
    Recv {
        /// Cluster-local round index.
        round: usize,
        /// Receiving server rank.
        server: usize,
        /// Tuples received by `server`.
        tuples: u64,
        /// Words received by `server`.
        words: u64,
    },
    /// The round closed with the given communication totals.
    RoundEnd {
        /// Cluster-local round index.
        round: usize,
        /// Total tuples received across all servers this round.
        tuples: u64,
        /// Total words received across all servers this round.
        words: u64,
    },
    /// A scheduled fault fired on `server` while ledger round `round`
    /// was being recorded (see [`crate::faults`]). Emitted by `Cluster`
    /// alone, like every non-span event.
    FaultInjected {
        /// Ledger round index the fault was charged to.
        round: usize,
        /// Victim server rank.
        server: usize,
        /// Stable fault name (`"crash"`, `"drop"`, `"duplicate"`,
        /// `"straggle"`).
        kind: &'static str,
    },
    /// Recovery from the fault at `(round, server)` began.
    RecoveryBegin {
        /// Ledger round index of the fault being recovered from.
        round: usize,
        /// Victim server rank.
        server: usize,
        /// Stable mechanism name (`"checkpoint"`, `"replication"`,
        /// `"retransmit"`, `"speculate"`, `"dedup"`).
        strategy: &'static str,
    },
    /// Recovery completed, having appended `rounds` extra ledger
    /// rounds and charged the given extra load.
    RecoveryEnd {
        /// Ledger round index of the *last* round recovery touched.
        round: usize,
        /// Victim server rank.
        server: usize,
        /// Extra ledger rounds appended (0 for same-round recovery).
        rounds: usize,
        /// Extra tuples charged to the ledger.
        tuples: u64,
        /// Extra words charged to the ledger.
        words: u64,
    },
    /// An algorithm phase opened (e.g. `"hypercube/shuffle"`).
    SpanBegin {
        /// Static phase label, conventionally `"algorithm/phase"`.
        label: &'static str,
    },
    /// The matching algorithm phase closed.
    SpanEnd {
        /// Static phase label.
        label: &'static str,
    },
}

/// A consumer of [`TraceEvent`]s.
///
/// The in-tree implementation is the ring-buffered
/// [`Recorder`](crate::trace::Recorder); tests may provide their own.
/// A sink's [`record`](TraceSink::record) must not re-enter itself
/// (opening a [`span`](crate::trace::span) or running a round from
/// inside `record` panics on the installed sink's `RefCell`).
pub trait TraceSink {
    /// Observe one event. Called in deterministic program order.
    fn record(&mut self, event: TraceEvent);
}
