//! The simulated MPC cluster: `p` servers, rounds, and exchanges.
//!
//! An algorithm on the cluster is structured as:
//!
//! ```
//! use parqp_mpc::Cluster;
//!
//! let mut cluster = Cluster::new(4);
//! // Input starts distributed (the model assumes O(IN/p) per server).
//! let local: Vec<Vec<u64>> = cluster.scatter((0..100u64).collect());
//!
//! // One round: every server computes locally, then sends messages.
//! let mut ex = cluster.exchange::<u64>();
//! for (server, items) in local.iter().enumerate() {
//!     for &v in items {
//!         ex.send((v % 4) as usize, v); // e.g. hash partition
//!     }
//!     let _ = server;
//! }
//! let inboxes = ex.finish();
//!
//! let report = cluster.report();
//! assert_eq!(report.num_rounds(), 1);
//! assert_eq!(report.total_tuples(), 100);
//! assert_eq!(inboxes.iter().map(Vec::len).sum::<usize>(), 100);
//! ```
//!
//! The cluster does not own server state; algorithms keep it in ordinary
//! `Vec`s indexed by server rank. What the cluster owns is the *ledger*:
//! every message sent through an [`Exchange`] is charged to its destination
//! server for the current round, producing the `(L, r, C)` cost summary
//! that the paper's theorems are about.

use crate::context::{self, observe};
use crate::error::MpcError;
use crate::faults::{FaultKind, FaultRuntime, RecoveryStrategy};
use crate::grid::Grid;
use crate::metrics;
use crate::stats::{LoadReport, RoundStats};
use crate::trace::TraceEvent;
use crate::weight::Weight;
use parqp_store as store;

/// A simulated MPC cluster of `p` shared-nothing servers.
#[derive(Debug)]
pub struct Cluster {
    p: usize,
    rounds: Vec<RoundStats>,
    /// Worker pool snapshotted from the run context at construction:
    /// `None` runs [`Cluster::map`] inline (serial mode).
    pub(crate) pool: Option<std::rc::Rc<parqp_testkit::pool::WorkerPool>>,
}

impl Cluster {
    /// Create a cluster of `p` servers.
    ///
    /// # Panics
    /// Panics if `p == 0`; use [`Cluster::try_new`] to handle that case.
    pub fn new(p: usize) -> Self {
        match Self::try_new(p) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Cluster::new`]: errors on an empty cluster instead of
    /// panicking, for callers sizing clusters from untrusted input.
    #[must_use = "the cluster (or the sizing error) must be inspected"]
    pub fn try_new(p: usize) -> Result<Self, MpcError> {
        if p == 0 {
            return Err(MpcError::EmptyTopology { what: "cluster" });
        }
        // Give every virtual server its buffer pool up front, so paged
        // scans never race pool creation (a no-op when no store runtime
        // is installed, and when a sub-cluster reuses servers 0..p).
        store::ensure_servers(p);
        Ok(Self {
            p,
            rounds: Vec::new(),
            pool: context::pool(),
        })
    }

    /// The execution mode this cluster snapshotted at construction.
    pub fn exec_mode(&self) -> crate::exec::ExecMode {
        crate::exec::ExecMode::of(self.pool.as_ref())
    }

    /// Number of servers `p`.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Start a communication round. Messages are sent through the returned
    /// [`Exchange`]; calling [`Exchange::finish`] delivers them and records
    /// the round's statistics.
    pub fn exchange<T: Weight>(&mut self) -> Exchange<'_, T> {
        Exchange {
            inboxes: (0..self.p).map(|_| Vec::new()).collect(),
            charges: Charges::new(self.p),
            cluster: self,
        }
    }

    /// Start a communication round that moves fixed-width rows of
    /// `u64` words instead of one heap message per send: stream `i`
    /// carries rows of `strides[i]` words (one stream per relation,
    /// the routing metadata a tagged message would carry), and every
    /// (stream, destination) pair is one flat buffer. Accounting,
    /// trace and fault behaviour are exactly [`Cluster::exchange`]'s
    /// for a message of `strides[i]` words per row — see
    /// [`RowExchange`].
    pub fn exchange_rows(&mut self, strides: &[usize]) -> RowExchange<'_> {
        let uniform = strides.windows(2).all(|w| w.first() == w.last());
        RowExchange {
            streams: strides
                .iter()
                .map(|&stride| RowStream {
                    stride,
                    bufs: (0..self.p).map(|_| Vec::new()).collect(),
                })
                .collect(),
            runs: (!uniform).then(|| (0..self.p).map(|_| Vec::new()).collect()),
            charges: Charges::new(self.p),
            cluster: self,
        }
    }

    /// Distribute input items round-robin across servers *without* counting
    /// a communication round: the MPC model assumes the input starts evenly
    /// distributed (`O(IN/p)` per server, slide 6).
    pub fn scatter<T>(&self, items: Vec<T>) -> Vec<Vec<T>> {
        // Parts grow as they fill, on purpose. Sized exactly, a process
        // that scatters a fresh clone per run (`perf`'s `sort_psrs`)
        // measured two peak-RSS levels 8 MiB apart, chosen by seed and
        // by run count: whether glibc finds the next clone's one large
        // block a hole among the last run's freed parts. Grown parts
        // keep it at one level (CHANGES.md, PR 16).
        let mut out: Vec<Vec<T>> = (0..self.p).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            out[i % self.p].push(item);
        }
        out
    }

    /// Run one *local compute* phase: apply `f` to every server's item
    /// (typically its inbox) and return the outputs in server order,
    /// `out[s] == f(s, items[s])`.
    ///
    /// Under [`ExecMode::Serial`](crate::exec::ExecMode) this is an
    /// inline loop; under `Parallel` each server's closure runs on a
    /// pool worker and `map` blocks until the whole phase finishes (the
    /// exchange boundaries on the calling thread are the barriers).
    /// Results always merge in server order, and in both modes `f`
    /// sees an empty run context and no paged store (the serial loop
    /// runs [detached](crate::context)), so spans, announced bounds and
    /// paged reads inside `f` are inert and both modes are
    /// byte-identical.
    ///
    /// # Panics
    /// Re-raises the first panicking server's panic (in submit order),
    /// with the run context and the store restored; use
    /// [`Cluster::try_map`] for a typed error instead.
    pub fn map<I, O, F>(&self, items: Vec<I>, f: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(usize, I) -> O + Sync,
    {
        match &self.pool {
            None => detached(|| {
                items
                    .into_iter()
                    .enumerate()
                    .map(|(s, it)| f(s, it))
                    .collect()
            }),
            Some(pool) => match pool.map(items, f) {
                Ok(out) => out,
                Err(e) => std::panic::resume_unwind(Box::new(e.message)),
            },
        }
    }

    /// Fallible [`Cluster::map`]: a panic on any server is caught and
    /// returned as [`MpcError::WorkerPanic`] naming the first panicking
    /// server in submit order — never a hang, and the run context and
    /// the store are restored. Whether later servers still run is not
    /// part of the contract: the serial loop stops at the panic, the
    /// pool finishes the batch.
    pub fn try_map<I, O, F>(&self, items: Vec<I>, f: F) -> Result<Vec<O>, MpcError>
    where
        I: Send,
        O: Send,
        F: Fn(usize, I) -> O + Sync,
    {
        match &self.pool {
            None => detached(|| {
                let mut out = Vec::with_capacity(items.len());
                for (s, it) in items.into_iter().enumerate() {
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(s, it))) {
                        Ok(o) => out.push(o),
                        Err(payload) => {
                            return Err(MpcError::WorkerPanic {
                                server: s,
                                message: parqp_testkit::pool::panic_message(payload.as_ref()),
                            })
                        }
                    }
                }
                Ok(out)
            }),
            Some(pool) => pool.map(items, f).map_err(|e| MpcError::WorkerPanic {
                server: e.job,
                message: e.message,
            }),
        }
    }

    /// Record one round — the single point every recorded round flows
    /// through: applies planned fault injections, emits the round's
    /// trace block, pushes the `RoundStats`, then charges recovery to
    /// the ledger per the installed strategy.
    fn commit_round(&mut self, charges: Charges, planned: Vec<PlannedFault>) {
        let Charges {
            mut tuples,
            mut words,
            trace: xt,
        } = charges;
        let xt = xt.as_deref();
        // In-round injections first: duplicate deliveries inflate the
        // victim's load, and a straggler's backup speculatively
        // re-executes its round at the same inbound load. Per-fault
        // recovery charges are collected for the log.
        let mut charges = Vec::with_capacity(planned.len());
        for f in &planned {
            let charge = match f.kind {
                FaultKind::Duplicate { .. } => {
                    tuples[f.server] += f.batch.0;
                    words[f.server] += f.batch.1;
                    f.batch
                }
                FaultKind::Straggle => {
                    let backup = (f.server + 1) % self.p;
                    let spec = (tuples[f.server], words[f.server]);
                    tuples[backup] += spec.0;
                    words[backup] += spec.1;
                    spec
                }
                _ => f.batch,
            };
            charges.push(charge);
        }
        let fault_round = self.rounds.len();
        emit_round_events(
            fault_round,
            self.p,
            &tuples,
            &words,
            xt.map(|t| (t.sent_msgs.as_slice(), t.sent_words.as_slice())),
            xt.and_then(|t| t.dims.as_deref()),
        );
        self.rounds.push(RoundStats { tuples, words });

        // Recovery, charged honestly after the faulty round: drops
        // retransmit in one extra round, crashes recover per strategy,
        // duplicates/stragglers already paid their same-round charge.
        for (f, &(ct, cw)) in planned.iter().zip(&charges) {
            context::with_faults(|rt| rt.note_injected(fault_round, f.server, f.kind.name()));
            observe(TraceEvent::FaultInjected {
                round: fault_round,
                server: f.server,
                kind: f.kind.name(),
            });
            match f.kind {
                FaultKind::Duplicate { .. } | FaultKind::Straggle => {
                    let mechanism = if matches!(f.kind, FaultKind::Straggle) {
                        "speculate"
                    } else {
                        "dedup"
                    };
                    observe(TraceEvent::RecoveryBegin {
                        round: fault_round,
                        server: f.server,
                        strategy: mechanism,
                    });
                    observe(TraceEvent::RecoveryEnd {
                        round: fault_round,
                        server: f.server,
                        rounds: 0,
                        tuples: ct,
                        words: cw,
                    });
                    context::with_faults(|rt| rt.note_recovery(0, ct, cw));
                }
                FaultKind::Drop { .. } => {
                    observe(TraceEvent::RecoveryBegin {
                        round: fault_round,
                        server: f.server,
                        strategy: "retransmit",
                    });
                    let mut t = vec![0; self.p];
                    let mut w = vec![0; self.p];
                    t[f.server] = ct;
                    w[f.server] = cw;
                    let idx = self.push_recovery_round(t, w);
                    observe(TraceEvent::RecoveryEnd {
                        round: idx,
                        server: f.server,
                        rounds: 1,
                        tuples: ct,
                        words: cw,
                    });
                    context::with_faults(|rt| rt.note_recovery(1, ct, cw));
                }
                FaultKind::Crash => self.recover_crash(fault_round, f.server),
            }
        }
        flush_io();
    }

    /// Charge crash recovery to the ledger per the installed strategy.
    fn recover_crash(&mut self, fault_round: usize, server: usize) {
        match context::with_faults(|rt| rt.strategy).unwrap_or_default() {
            RecoveryStrategy::Checkpoint { every } => {
                // Roll back to the last checkpoint and replay every
                // ledger round since, at its original loads.
                let every = every.max(1);
                let first = fault_round - (fault_round % every);
                observe(TraceEvent::RecoveryBegin {
                    round: fault_round,
                    server,
                    strategy: "checkpoint",
                });
                let replay: Vec<RoundStats> = self.rounds[first..=fault_round].to_vec();
                let n = replay.len();
                let (mut t, mut w) = (0u64, 0u64);
                for rs in replay {
                    t += rs.total_tuples();
                    w += rs.total_words();
                    self.push_recovery_round(rs.tuples, rs.words);
                }
                observe(TraceEvent::RecoveryEnd {
                    round: self.rounds.len() - 1,
                    server,
                    rounds: n,
                    tuples: t,
                    words: w,
                });
                context::with_faults(|rt| rt.note_recovery(n, t, w));
            }
            RecoveryStrategy::Replication { replicas } => {
                // One redistribution round: the replacement server
                // re-fetches the cumulative partitions of the victim's
                // replica group (the victim plus the `replicas − 1`
                // partitions it mirrored), ≈ replicas × IN/p.
                let replicas = replicas.clamp(1, self.p);
                observe(TraceEvent::RecoveryBegin {
                    round: fault_round,
                    server,
                    strategy: "replication",
                });
                let mut t = vec![0u64; self.p];
                let mut w = vec![0u64; self.p];
                for i in 0..replicas {
                    let member = (server + i) % self.p;
                    for rs in &self.rounds {
                        t[server] += rs.tuples[member];
                        w[server] += rs.words[member];
                    }
                }
                let (ct, cw) = (t[server], w[server]);
                let idx = self.push_recovery_round(t, w);
                observe(TraceEvent::RecoveryEnd {
                    round: idx,
                    server,
                    rounds: 1,
                    tuples: ct,
                    words: cw,
                });
                context::with_faults(|rt| rt.note_recovery(1, ct, cw));
            }
        }
    }

    /// Append a recovery round to the ledger (with its trace block).
    /// Recovery rounds do not tick the fault runtime's logical clock,
    /// so injected overhead never shifts the fault schedule.
    fn push_recovery_round(&mut self, tuples: Vec<u64>, words: Vec<u64>) -> usize {
        let round = self.rounds.len();
        emit_round_events(round, self.p, &tuples, &words, None, None);
        self.rounds.push(RoundStats { tuples, words });
        round
    }

    /// The `(L, r, C)` summary of all rounds recorded so far.
    pub fn report(&self) -> LoadReport {
        // Final IO flush: paged scans after the last exchange (output
        // digests, result materialization) land in the registry too.
        flush_io();
        LoadReport {
            servers: self.p,
            rounds: self.rounds.clone(),
        }
    }

    /// The `(L, r, C)` summary of the rounds recorded *after* `mark`
    /// (a prior [`Cluster::rounds_so_far`] value): the per-query slice
    /// of a long-lived cluster's ledger. Serving layers mark the ledger
    /// before each admitted query and attribute the delta — including
    /// any recovery rounds faults appended during it — to exactly that
    /// query, so per-query slices sum to [`Cluster::report`] with no
    /// round counted twice or dropped. Like `report`, this flushes the
    /// page-IO ledger first, so a query's paged scans reach the metrics
    /// registry before its slice is taken. A `mark` at or beyond the
    /// current round count yields an empty report.
    pub fn report_since(&self, mark: usize) -> LoadReport {
        flush_io();
        LoadReport {
            servers: self.p,
            rounds: self.rounds.get(mark..).unwrap_or_default().to_vec(),
        }
    }

    /// Number of rounds recorded so far.
    pub fn rounds_so_far(&self) -> usize {
        self.rounds.len()
    }

    /// Forget all recorded rounds (e.g. between benchmark iterations)
    /// and rewind any installed fault plan's logical round clock, so a
    /// recovery replay starts from a clean ledger and sees the same
    /// schedule from round 0 again. In-flight exchanges cannot survive
    /// a reset — an [`Exchange`] borrows the cluster mutably — and the
    /// trace sink is left alone (it belongs to the caller's capture).
    pub fn reset(&mut self) {
        self.rounds.clear();
        context::with_faults(FaultRuntime::reset_round_clock);
        // The page-IO ledger rewinds with the communication ledger:
        // pools drop residency and zero their counters, so a replay
        // re-pays the exact cold-start IO of the original run.
        store::reset_io();
    }
}

/// One fault scheduled for the round being recorded, with the batch
/// (tuples, words) its drop/duplicate injection affects — resolved
/// from real inboxes by [`Exchange::finish`] and
/// [`RowExchange::finish`].
#[derive(Debug, Clone, Copy)]
struct PlannedFault {
    server: usize,
    kind: FaultKind,
    batch: (u64, u64),
}

/// Per-exchange trace state, allocated only while a trace sink is
/// installed (the one reader of `Send` and `Topology` events):
/// send-side attribution and the grid the round routed over. Boxed so the untraced hot path pays one
/// `Option` discriminant, not three vectors.
#[derive(Debug)]
struct ExchangeTrace {
    /// Server whose sends are currently being attributed, set by
    /// [`Exchange::set_sender`]; `None` = unattributed.
    sender: Option<usize>,
    sent_msgs: Vec<u64>,
    sent_words: Vec<u64>,
    dims: Option<Vec<usize>>,
}

impl ExchangeTrace {
    fn new(p: usize) -> Self {
        Self {
            sender: None,
            sent_msgs: vec![0; p],
            sent_words: vec![0; p],
            dims: None,
        }
    }
}

/// Run a serial local-compute phase the way a pool thread would see
/// it: with both ambient slots (run context, store) empty.
fn detached<R>(phase: impl FnOnce() -> R) -> R {
    context::detached(|| store::detached(phase))
}

/// Tick the live fault runtime's round clock and return the faults
/// scheduled for the round being recorded; empty on the fault-free
/// path.
fn next_round_faults(p: usize) -> Vec<(usize, FaultKind)> {
    context::with_faults(|rt| rt.next_round_faults(p)).unwrap_or_default()
}

/// Drain the store runtime's page-IO delta into the live metrics
/// registry: `Cluster` is the only bridge between the two slots,
/// called at every round boundary and once more from
/// [`Cluster::report`]. The drain itself advances the store's
/// snapshots only when a registry is listening, so unobserved runs
/// keep their cumulative per-server totals intact for `io_report`.
fn flush_io() {
    if context::is_metered() {
        let delta = store::drain_io();
        if !delta.is_zero() {
            metrics::emit_io(&delta);
        }
    }
}

/// Emit one round's trace block: `RoundBegin`, optional `Topology`,
/// per-server `Send`s (attributed fan-out) and `Recv`s (nonzero loads
/// only — `RoundBegin.servers` reconstructs the zeros), `RoundEnd`
/// with the round totals. This free function is the single place
/// communication events are born; everything downstream of it only
/// *reads* the stream.
fn emit_round_events(
    round: usize,
    servers: usize,
    tuples: &[u64],
    words: &[u64],
    sent: Option<(&[u64], &[u64])>,
    dims: Option<&[usize]>,
) {
    if !context::is_observed() {
        return;
    }
    observe(TraceEvent::RoundBegin { round, servers });
    if let Some(dims) = dims {
        observe(TraceEvent::Topology {
            round,
            dims: dims.to_vec(),
        });
    }
    if let Some((msgs, sent_words)) = sent {
        for (server, (&m, &w)) in msgs.iter().zip(sent_words).enumerate() {
            if m > 0 {
                observe(TraceEvent::Send {
                    round,
                    server,
                    msgs: m,
                    words: w,
                });
            }
        }
    }
    let mut total_tuples = 0;
    let mut total_words = 0;
    for (server, (&t, &w)) in tuples.iter().zip(words).enumerate() {
        total_tuples += t;
        total_words += w;
        if t > 0 || w > 0 {
            observe(TraceEvent::Recv {
                round,
                server,
                tuples: t,
                words: w,
            });
        }
    }
    observe(TraceEvent::RoundEnd {
        round,
        tuples: total_tuples,
        words: total_words,
    });
}

/// What a round in progress has charged so far. Both containers —
/// [`Exchange`]'s per-message inboxes and [`RowExchange`]'s flat
/// buffers — charge through this one struct and hand it to
/// [`Cluster::commit_round`], so there is one ledger and one
/// trace path whatever carried the payload.
#[derive(Debug)]
struct Charges {
    tuples: Vec<u64>,
    words: Vec<u64>,
    /// `Some` iff a trace sink was installed when the round began.
    trace: Option<Box<ExchangeTrace>>,
}

impl Charges {
    fn new(p: usize) -> Self {
        Self {
            tuples: vec![0; p],
            words: vec![0; p],
            trace: context::is_traced().then(|| Box::new(ExchangeTrace::new(p))),
        }
    }

    /// Charge `msgs` messages totalling `words` words to `dest`, which
    /// the caller has already bounds-checked against its own
    /// `p`-length container. The trace branch costs one
    /// predictable-`None` test when no sink is installed.
    #[inline]
    fn charge(&mut self, dest: usize, msgs: u64, words: u64) {
        self.tuples[dest] += msgs;
        self.words[dest] += words;
        if let Some(tr) = &mut self.trace {
            if let Some(s) = tr.sender {
                tr.sent_msgs[s] += msgs;
                tr.sent_words[s] += words;
            }
        }
    }

    #[inline]
    fn set_sender(&mut self, sender: usize) {
        if let Some(tr) = &mut self.trace {
            tr.sender = (sender < tr.sent_msgs.len()).then_some(sender);
        }
    }

    /// Charge `dest` what each server `s` in turn setting itself as the
    /// sender and sending `sent[s]` rows of `stride` words would.
    fn charge_placed(&mut self, dest: usize, sent: &[u64], stride: u64) {
        for (sender, &rows) in sent.iter().enumerate() {
            self.set_sender(sender);
            self.charge(dest, rows, rows * stride);
        }
    }

    /// Remember the first grid the round routed over, for the trace's
    /// `Topology` event.
    fn note_grid(&mut self, grid: &Grid) {
        if let Some(tr) = &mut self.trace {
            if tr.dims.is_none() {
                tr.dims = Some(grid.dims().to_vec());
            }
        }
    }
}

/// Resolve the round's scheduled faults into [`PlannedFault`]s:
/// `batch(server, msgs, from_tail)` prices the drop (`from_tail`, the
/// *last* messages delivered) or duplicate (the *first*) batch at
/// exact message weights.
fn plan_faults(p: usize, batch: impl Fn(usize, u64, bool) -> (u64, u64)) -> Vec<PlannedFault> {
    next_round_faults(p)
        .into_iter()
        .map(|(server, kind)| PlannedFault {
            server,
            kind,
            batch: match kind {
                FaultKind::Drop { msgs } => batch(server, msgs, true),
                FaultKind::Duplicate { msgs } => batch(server, msgs, false),
                _ => (0, 0),
            },
        })
        .collect()
}

/// An in-progress communication round on a [`Cluster`], one message
/// value per send.
///
/// Created by [`Cluster::exchange`]; every `send` charges the destination
/// server. Dropping an `Exchange` without calling [`Exchange::finish`]
/// discards the round (no statistics are recorded).
///
/// Rounds that move relation tuples use [`RowExchange`] instead; for
/// them `send`, `send_matching` and `finish_untracked` here are the
/// per-message adaptors (one owned message per routed copy) that
/// benchmarks compose to price what the flat format saves.
#[derive(Debug)]
pub struct Exchange<'c, T: Weight> {
    cluster: &'c mut Cluster,
    inboxes: Vec<Vec<T>>,
    charges: Charges,
}

impl<T: Weight> Exchange<'_, T> {
    /// Number of servers in the underlying cluster.
    pub fn p(&self) -> usize {
        self.cluster.p
    }

    /// Send `msg` to server `dest`.
    ///
    /// # Panics
    /// Panics if `dest` is not a valid server rank; use
    /// [`Exchange::try_send`] to handle that case.
    #[inline]
    pub fn send(&mut self, dest: usize, msg: T) {
        if let Err(e) = self.try_send(dest, msg) {
            panic!("{e}");
        }
    }

    /// Fallible [`Exchange::send`]: errors on an out-of-range destination
    /// instead of panicking. This is the simulator's hottest path — the
    /// single bounds probe below is the only check, and the two charged
    /// counters are in-bounds by construction (all three vectors share
    /// length `p`).
    #[inline]
    #[must_use = "an Err means the message was NOT sent or charged"]
    pub fn try_send(&mut self, dest: usize, msg: T) -> Result<(), MpcError> {
        let Some(inbox) = self.inboxes.get_mut(dest) else {
            return Err(MpcError::BadServer {
                dest,
                p: self.cluster.p,
            });
        };
        let w = msg.words();
        inbox.push(msg);
        self.charges.charge(dest, 1, w);
        Ok(())
    }

    /// Send every item of `items` to server `dest`, in order: charged
    /// exactly as that many sends, delivered by one `extend`. For
    /// senders whose items for a destination are already contiguous (a
    /// sorted run cut at the splitters).
    ///
    /// # Panics
    /// Panics if `dest` is not a valid server rank.
    pub fn send_all(&mut self, dest: usize, items: impl IntoIterator<Item = T>) {
        let Some(inbox) = self.inboxes.get_mut(dest) else {
            let p = self.cluster.p;
            panic!("{}", MpcError::BadServer { dest, p });
        };
        let before = inbox.len();
        inbox.extend(items);
        let sent = inbox.get(before..).unwrap_or_default();
        let words = sent.iter().map(Weight::words).sum();
        self.charges.charge(dest, sent.len() as u64, words);
    }

    /// Reserve room for `additional` more messages to `dest`. A
    /// capacity hint only: it touches no counter and an out-of-range
    /// `dest` is ignored.
    pub fn reserve(&mut self, dest: usize, additional: usize) {
        if let Some(inbox) = self.inboxes.get_mut(dest) {
            inbox.reserve(additional);
        }
    }

    /// Declare that subsequent sends originate from server `sender`, for
    /// the trace's per-server fan-out attribution. Purely observational:
    /// the ledger charges destinations regardless, and the call is a
    /// no-op when no trace sink is installed. Out-of-range senders are
    /// recorded as unattributed.
    #[inline]
    pub fn set_sender(&mut self, sender: usize) {
        self.charges.set_sender(sender);
    }

    /// Send `msg` to every server (a broadcast costs `p` messages).
    pub fn broadcast(&mut self, msg: T)
    where
        T: Clone,
    {
        for dest in 0..self.inboxes.len() {
            self.send(dest, msg.clone());
        }
    }

    /// Send `msg` to every server of `grid` whose coordinates match
    /// `partial` (`None` = `*`): the HyperCube placement primitive.
    ///
    /// `grid.len()` must equal the cluster size.
    pub fn send_matching(&mut self, grid: &Grid, partial: &[Option<usize>], msg: T)
    where
        T: Clone,
    {
        debug_assert_eq!(grid.len(), self.cluster.p, "grid does not span the cluster");
        self.charges.note_grid(grid);
        let mut ranks = grid.matching_ranks(partial);
        // Clone for every destination but the last, which takes `msg`.
        let Some(mut dest) = ranks.next() else {
            return;
        };
        for following in ranks {
            self.send(dest, msg.clone());
            dest = following;
        }
        self.send(dest, msg);
    }

    /// Deliver all messages, record the round, and return per-server
    /// inboxes. When a trace sink is installed this also emits the
    /// round's event block ([`TraceEvent::RoundBegin`] … `RoundEnd`),
    /// mirroring exactly what the ledger records — dropped and
    /// [`finish_untracked`](Exchange::finish_untracked) exchanges emit
    /// nothing, so trace totals always agree with the [`LoadReport`].
    ///
    /// When a fault plan is installed (see [`crate::faults`]) this is
    /// where scheduled faults fire: the runtime's round clock ticks
    /// once per finished exchange, injections are charged to this
    /// round, and recovery rounds are appended to the ledger. The
    /// returned inboxes are always the *post-recovery* view — faults
    /// never alter delivered data, so a recovered run's output is
    /// byte-identical to its fault-free run by construction.
    pub fn finish(self) -> Vec<Vec<T>> {
        let Exchange {
            cluster,
            inboxes,
            charges,
        } = self;
        // Drop/duplicate batches resolve against real inboxes: drops
        // lose the *last* messages delivered, duplicates re-deliver the
        // *first*, each at exact message weights.
        let planned = plan_faults(cluster.p, |server, msgs, from_tail| {
            let inbox = &inboxes[server];
            let eff = (msgs as usize).min(inbox.len());
            let batch = if from_tail {
                &inbox[inbox.len() - eff..]
            } else {
                &inbox[..eff]
            };
            (eff as u64, batch.iter().map(Weight::words).sum())
        });
        cluster.commit_round(charges, planned);
        inboxes
    }

    /// Deliver all messages **without** recording a round. Used for
    /// communication the model does not charge (e.g. re-delivering data a
    /// server already holds when two logical phases are fused into one
    /// physical round).
    pub fn finish_untracked(self) -> Vec<Vec<T>> {
        self.inboxes
    }
}

/// One stream of a [`RowExchange`]: rows of `stride` words, one flat
/// buffer per destination.
#[derive(Debug)]
struct RowStream {
    stride: usize,
    bufs: Vec<Vec<u64>>,
}

/// An in-progress communication round that moves fixed-width rows
/// into per-(stream, destination) flat buffers.
///
/// Created by [`Cluster::exchange_rows`]. A send is one
/// `extend_from_slice` plus the counter bumps [`Exchange::try_send`]
/// makes; [`RowExchange::finish`] records the round through the same
/// ledger, trace and fault path as [`Exchange::finish`], charging a row
/// of stream `i` as one tuple of `strides[i]` words. What differs is
/// the container: the delivered buffer of stream `i` at server `d`
/// holds that server's rows of the stream back to back, in send order,
/// ready to be read as a row-major relation fragment without touching
/// a row. (This crate names rows as `&[u64]`, not as a relation type:
/// the dependency DAG has no `mpc → data` edge.)
///
/// Rows of one stream keep their send order; the order *between*
/// streams at a destination is not part of the delivered data. The
/// fault rules are defined on it ("the last / first messages
/// delivered"), so when streams differ in width the round keeps a
/// run-length log of it per destination — appended only when the
/// stream changes — and prices drop/duplicate batches against that.
#[derive(Debug)]
pub struct RowExchange<'c> {
    cluster: &'c mut Cluster,
    streams: Vec<RowStream>,
    /// Per destination, the delivery order as `(stream, rows)` runs;
    /// `None` when all strides agree (a batch of `n` rows then weighs
    /// `n × stride` whatever its streams).
    runs: Option<Vec<Vec<(usize, u64)>>>,
    charges: Charges,
}

impl RowExchange<'_> {
    /// Number of servers in the underlying cluster.
    pub fn p(&self) -> usize {
        self.cluster.p
    }

    /// Send `row` on `stream` to server `dest`.
    ///
    /// # Panics
    /// Panics where [`RowExchange::try_send_row`] errors.
    #[inline]
    pub fn send_row(&mut self, stream: usize, dest: usize, row: &[u64]) {
        if let Err(e) = self.try_send_row(stream, dest, row) {
            panic!("{e}");
        }
    }

    /// Fallible [`RowExchange::send_row`]: errors on an unknown stream,
    /// a row whose width is not the stream's stride, or an out-of-range
    /// destination, and then neither delivers nor charges anything.
    #[inline]
    #[must_use = "an Err means the row was NOT sent or charged"]
    pub fn try_send_row(
        &mut self,
        stream: usize,
        dest: usize,
        row: &[u64],
    ) -> Result<(), MpcError> {
        let Some(s) = self.streams.get_mut(stream) else {
            return Err(MpcError::BadStream {
                stream,
                streams: self.streams.len(),
            });
        };
        if row.len() != s.stride {
            return Err(MpcError::BadRowWidth {
                stream,
                got: row.len(),
                stride: s.stride,
            });
        }
        let Some(buf) = s.bufs.get_mut(dest) else {
            return Err(MpcError::BadServer {
                dest,
                p: self.cluster.p,
            });
        };
        buf.extend_from_slice(row);
        self.charges.charge(dest, 1, row.len() as u64);
        self.log_run(stream, dest, 1);
        Ok(())
    }

    /// Deliver to `dest`, in one call, rows of `stream` their senders
    /// have already placed: `rows` holds them back to back, sender by
    /// sender, and `sent[s]` of them come from server `s`. The round is
    /// charged, attributed, logged for fault resolution and delivered
    /// exactly as if each server `s` in turn had called `set_sender(s)`
    /// and sent its `sent[s]` rows with [`RowExchange::send_row`];
    /// `rows` becomes the delivered buffer, uncopied, when nothing else
    /// reached `dest` on `stream`.
    ///
    /// Errors on an unknown stream, an out-of-range `dest`, or `rows`
    /// that are not `Σ sent` rows of the stream's stride (`got` is then
    /// the row width `rows` implies, or its length when it implies
    /// none), and then neither delivers nor charges anything.
    #[must_use = "an Err means the rows were NOT delivered or charged"]
    pub fn try_send_placed(
        &mut self,
        stream: usize,
        dest: usize,
        sent: &[u64],
        rows: Vec<u64>,
    ) -> Result<(), MpcError> {
        let Some(s) = self.streams.get_mut(stream) else {
            return Err(MpcError::BadStream {
                stream,
                streams: self.streams.len(),
            });
        };
        let Some(buf) = s.bufs.get_mut(dest) else {
            return Err(MpcError::BadServer {
                dest,
                p: self.cluster.p,
            });
        };
        let count: u64 = sent.iter().sum();
        let words = rows.len() as u64;
        if words != count * s.stride as u64 {
            let implied = (count > 0 && words.is_multiple_of(count)).then(|| words / count);
            return Err(MpcError::BadRowWidth {
                stream,
                got: implied.unwrap_or(words) as usize,
                stride: s.stride,
            });
        }
        if buf.is_empty() {
            *buf = rows;
        } else {
            buf.extend_from_slice(&rows);
        }
        self.charges.charge_placed(dest, sent, s.stride as u64);
        if count > 0 {
            self.log_run(stream, dest, count);
        }
        Ok(())
    }

    /// Log `rows` more rows of `stream` delivered to `dest`, extending
    /// the destination's last run when it is the same stream's.
    #[inline]
    fn log_run(&mut self, stream: usize, dest: usize, rows: u64) {
        if let Some(runs) = &mut self.runs {
            let log = &mut runs[dest];
            match log.last_mut() {
                Some((last, n)) if *last == stream => *n += rows,
                _ => log.push((stream, rows)),
            }
        }
    }

    /// Reserve room for exactly `rows` more rows of `stream` at `dest`,
    /// for a sender that has counted them: the delivered buffer is then
    /// allocated once and holds no growth slack. A capacity hint only,
    /// as [`Exchange::reserve`]: it touches no counter and an unknown
    /// stream or destination is ignored.
    pub fn reserve(&mut self, stream: usize, dest: usize, rows: usize) {
        if let Some(s) = self.streams.get_mut(stream) {
            if let Some(buf) = s.bufs.get_mut(dest) {
                buf.reserve_exact(rows.saturating_mul(s.stride));
            }
        }
    }

    /// As [`Exchange::set_sender`].
    #[inline]
    pub fn set_sender(&mut self, sender: usize) {
        self.charges.set_sender(sender);
    }

    /// Declare that this round places rows on `grid`, for the trace's
    /// `Topology` event (the first grid declared wins). Purely
    /// observational, as [`RowExchange::set_sender`]: a no-op when no
    /// trace sink is installed. A replicating sender declares its grid
    /// and sends each row to the ranks of the grid's
    /// [`Grid::fan_out`].
    pub fn note_grid(&mut self, grid: &Grid) {
        self.charges.note_grid(grid);
    }

    /// Deliver all rows, record the round exactly as
    /// [`Exchange::finish`] does (ledger, trace block, scheduled
    /// faults, recovery rounds), and return the flat buffers indexed
    /// `[stream][dest]`.
    pub fn finish(self) -> Vec<Vec<Vec<u64>>> {
        let RowExchange {
            cluster,
            streams,
            runs,
            charges,
        } = self;
        let planned = plan_faults(cluster.p, |server, msgs, from_tail| {
            // Every send delivered one row: the inbox holds `tuples` rows.
            let eff = msgs.min(charges.tuples[server]);
            let words = match &runs {
                None => eff * streams.first().map_or(0, |s| s.stride as u64),
                Some(runs) => {
                    let log = runs[server]
                        .iter()
                        .map(|&(stream, rows)| (streams[stream].stride, rows));
                    if from_tail {
                        batch_words(log.rev(), eff)
                    } else {
                        batch_words(log, eff)
                    }
                }
            };
            (eff, words)
        });
        cluster.commit_round(charges, planned);
        streams.into_iter().map(|s| s.bufs).collect()
    }
}

/// Words of the first `eff` rows of a delivery order given as
/// `(stride, rows)` runs.
fn batch_words(runs: impl Iterator<Item = (usize, u64)>, mut eff: u64) -> u64 {
    let mut words = 0;
    for (stride, rows) in runs {
        let take = rows.min(eff);
        words += take * stride as u64;
        eff -= take;
        if eff == 0 {
            break;
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_accounts_per_destination() {
        let mut c = Cluster::new(3);
        let mut ex = c.exchange::<Vec<u64>>();
        ex.send(0, vec![1, 2]);
        ex.send(0, vec![3]);
        ex.send(2, vec![4, 5, 6]);
        let inboxes = ex.finish();
        assert_eq!(inboxes[0], vec![vec![1, 2], vec![3]]);
        assert!(inboxes[1].is_empty());
        assert_eq!(inboxes[2], vec![vec![4, 5, 6]]);

        let r = c.report();
        assert_eq!(r.num_rounds(), 1);
        assert_eq!(r.rounds[0].tuples, vec![2, 0, 1]);
        assert_eq!(r.rounds[0].words, vec![3, 0, 3]);
        assert_eq!(r.max_load_tuples(), 2);
        assert_eq!(r.max_load_words(), 3);
    }

    #[test]
    fn broadcast_charges_every_server() {
        let mut c = Cluster::new(4);
        let mut ex = c.exchange::<u64>();
        ex.broadcast(9);
        let inboxes = ex.finish();
        assert!(inboxes.iter().all(|b| b == &vec![9]));
        assert_eq!(c.report().total_tuples(), 4);
    }

    #[test]
    fn send_all_is_that_many_sends_and_reserve_is_only_a_hint() {
        use crate::trace::Recorder;
        let runs: [&[Vec<u64>]; 2] = [&[vec![1, 2], vec![3]], &[]];
        let route = |whole: bool| {
            Recorder::capture(|| {
                let mut c = Cluster::new(3);
                let mut ex = c.exchange::<Vec<u64>>();
                ex.reserve(2, 8);
                ex.reserve(9, 8); // out of range: ignored
                ex.set_sender(1);
                for run in runs {
                    if whole {
                        ex.send_all(2, run.iter().cloned());
                    } else {
                        run.iter().for_each(|m| ex.send(2, m.clone()));
                    }
                }
                (ex.finish(), c.report())
            })
        };
        let (whole_trace, whole) = route(true);
        let (each_trace, each) = route(false);
        assert_eq!(whole, each);
        assert_eq!(whole.1.rounds[0].tuples, vec![0, 0, 2]);
        assert_eq!(whole.1.rounds[0].words, vec![0, 0, 3]);
        assert!(whole_trace.events().eq(each_trace.events()));
    }

    #[test]
    fn scatter_is_even_and_free() {
        let c = Cluster::new(4);
        let parts = c.scatter((0..10u64).collect());
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        assert_eq!(c.report().num_rounds(), 0);
    }

    #[test]
    fn dropped_exchange_records_nothing() {
        let mut c = Cluster::new(2);
        {
            let mut ex = c.exchange::<u64>();
            ex.send(0, 1);
            // dropped without finish()
        }
        assert_eq!(c.report().num_rounds(), 0);
    }

    #[test]
    fn untracked_finish_records_nothing() {
        let mut c = Cluster::new(2);
        let mut ex = c.exchange::<u64>();
        ex.send(1, 5);
        let inboxes = ex.finish_untracked();
        assert_eq!(inboxes[1], vec![5]);
        assert_eq!(c.report().num_rounds(), 0);
    }

    #[test]
    fn send_matching_uses_grid() {
        let mut c = Cluster::new(6);
        let g = Grid::new(vec![2, 3]);
        let mut ex = c.exchange::<u64>();
        ex.send_matching(&g, &[Some(1), None], 7);
        let inboxes = ex.finish();
        let received: Vec<usize> = (0..6).filter(|&s| !inboxes[s].is_empty()).collect();
        assert_eq!(received, g.matching(&[Some(1), None]));
        assert_eq!(c.report().total_tuples(), 3);
    }

    #[test]
    fn send_matching_clones_for_all_but_the_last_destination() {
        use std::cell::Cell;
        use std::rc::Rc;

        /// Counts its clones; equal payloads whatever their history.
        #[derive(Debug)]
        struct Counted(Rc<Cell<u32>>);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                self.0.set(self.0.get() + 1);
                Counted(Rc::clone(&self.0))
            }
        }
        impl Weight for Counted {
            fn words(&self) -> u64 {
                1
            }
        }

        let clones = Rc::new(Cell::new(0));
        let mut c = Cluster::new(6);
        let g = Grid::new(vec![2, 3]);
        let mut ex = c.exchange::<Counted>();
        ex.send_matching(&g, &[None, Some(2)], Counted(Rc::clone(&clones)));
        ex.send_matching(&g, &[Some(0), Some(0)], Counted(Rc::clone(&clones)));
        let inboxes = ex.finish();
        let lens: Vec<usize> = inboxes.iter().map(Vec::len).collect();
        assert_eq!(lens, vec![1, 0, 1, 0, 0, 1]);
        assert_eq!(clones.get(), 1, "two destinations, then one: one clone");
    }

    #[test]
    fn report_since_slices_the_ledger_exactly() {
        let mut c = Cluster::new(2);
        let mut ex = c.exchange::<u64>();
        ex.send(0, 1);
        ex.finish();
        let mark = c.rounds_so_far();
        let mut ex = c.exchange::<u64>();
        ex.send(1, 7);
        ex.send(1, 8);
        ex.finish();
        let delta = c.report_since(mark);
        assert_eq!(delta.num_rounds(), 1);
        assert_eq!(delta.rounds[0].tuples, vec![0, 2]);
        assert_eq!(delta.servers, 2);
        // Slices partition the full ledger: prefix + delta == report.
        let full = c.report();
        assert_eq!(full.num_rounds(), 2);
        assert_eq!(full.rounds[mark..], delta.rounds[..]);
        // Marks at or past the end are empty, not a panic.
        assert_eq!(c.report_since(2).num_rounds(), 0);
        assert_eq!(c.report_since(99).num_rounds(), 0);
    }

    #[test]
    fn rounds_accumulate() {
        let mut c = Cluster::new(2);
        for _ in 0..3 {
            let mut ex = c.exchange::<u64>();
            ex.send(0, 1);
            ex.finish();
        }
        assert_eq!(c.report().num_rounds(), 3);
        c.reset();
        assert_eq!(c.report().num_rounds(), 0);
    }

    #[test]
    fn reset_rewinds_per_server_page_io_counters() {
        let cfg = store::StoreConfig {
            page_size: 4,
            pool_pages: 2,
        };
        let (totals, ()) = store::capture(cfg, || {
            let mut c = Cluster::new(3);
            store::touch_page(0, store::alloc_pages(1).unwrap(), 4);
            store::touch_page(2, store::alloc_pages(1).unwrap(), 1);
            assert!(store::io_report().iter().any(|s| !s.is_zero()));
            c.reset();
            assert!(
                store::io_report().iter().all(|s| s.is_zero()),
                "reset must rewind every server's IO ledger"
            );
            assert_eq!(c.report().num_rounds(), 0);
        });
        assert_eq!(totals.len(), 3, "ensure_servers sized one pool per server");
        assert!(totals.iter().all(|s| s.is_zero()));
    }

    #[test]
    fn serial_map_hides_both_slots_and_restores_them_after_a_panic() {
        let cfg = store::StoreConfig {
            page_size: 4,
            pool_pages: 2,
        };
        let (reg, (totals, ())) = metrics::capture(|| {
            store::capture(cfg, || {
                let c = Cluster::new(2);
                assert_eq!(c.exec_mode(), crate::exec::ExecMode::Serial);
                let dies = |s: usize, page: u64| {
                    assert!(!context::is_metered() && !store::is_enabled());
                    store::touch_page(s, page, 9); // charged to nobody
                    assert!(s != 1, "server one dies");
                };
                let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    c.map(vec![0, 1], dies)
                }));
                assert!(unwound.is_err());
                assert!(context::is_metered() && store::is_enabled(), "after map");
                let err = c.try_map(vec![0, 1], dies).unwrap_err();
                assert!(matches!(err, MpcError::WorkerPanic { server: 1, .. }));
                assert!(
                    context::is_metered() && store::is_enabled(),
                    "after try_map"
                );
                // The restored store and registry are the ones installed
                // above, still live and still wired to each other.
                store::touch_page(0, store::alloc_pages(1).unwrap(), 3);
                let _ = c.report();
            })
        });
        assert_eq!(reg.io().reads, 3);
        assert_eq!(totals.iter().map(|s| s.reads).sum::<u64>(), 3);
    }

    #[test]
    fn round_boundaries_drain_io_into_the_metrics_registry() {
        let cfg = store::StoreConfig {
            page_size: 4,
            pool_pages: 2,
        };
        let (reg, ()) = metrics::capture(|| {
            let (_totals, ()) = store::capture(cfg, || {
                let mut c = Cluster::new(2);
                let page = store::alloc_pages(1).unwrap();
                store::touch_page(0, page, 5);
                let mut ex = c.exchange::<u64>();
                ex.send(1, 9);
                ex.finish(); // round boundary: the delta drains here
                store::touch_page(1, page, 2);
                let _ = c.report(); // final flush catches the tail
            });
        });
        assert_eq!((reg.io().reads, reg.io().misses), (7, 2));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        Cluster::new(0);
    }

    #[test]
    fn traced_exchange_emits_round_block() {
        use crate::trace::{Recorder, TraceEvent};
        let (rec, report) = Recorder::capture(|| {
            let mut c = Cluster::new(3);
            let mut ex = c.exchange::<Vec<u64>>();
            ex.set_sender(1);
            ex.send(0, vec![1, 2]);
            ex.send(2, vec![3]);
            ex.finish();
            c.report()
        });
        let events: Vec<&TraceEvent> = rec.events().collect();
        assert_eq!(
            events[0],
            &TraceEvent::RoundBegin {
                round: 0,
                servers: 3
            }
        );
        assert_eq!(
            events[1],
            &TraceEvent::Send {
                round: 0,
                server: 1,
                msgs: 2,
                words: 3
            }
        );
        // Zero-load server 1 is elided from the Recv events.
        assert_eq!(
            events[2],
            &TraceEvent::Recv {
                round: 0,
                server: 0,
                tuples: 1,
                words: 2
            }
        );
        assert_eq!(
            events[3],
            &TraceEvent::Recv {
                round: 0,
                server: 2,
                tuples: 1,
                words: 1
            }
        );
        assert_eq!(
            events[4],
            &TraceEvent::RoundEnd {
                round: 0,
                tuples: 2,
                words: 3
            }
        );
        assert_eq!(events.len(), 5);
        assert_eq!(report.total_tuples(), 2);
    }

    #[test]
    fn traced_send_matching_carries_topology() {
        use crate::trace::{Recorder, TraceEvent};
        let (rec, ()) = Recorder::capture(|| {
            let mut c = Cluster::new(6);
            let g = Grid::new(vec![2, 3]);
            let mut ex = c.exchange::<u64>();
            ex.send_matching(&g, &[Some(1), None], 7);
            ex.finish();
        });
        assert!(rec.events().any(|e| matches!(
            e,
            TraceEvent::Topology { round: 0, dims } if dims == &vec![2, 3]
        )));
    }

    #[test]
    fn untracked_and_dropped_exchanges_emit_nothing() {
        use crate::trace::Recorder;
        let (rec, ()) = Recorder::capture(|| {
            let mut c = Cluster::new(2);
            let mut ex = c.exchange::<u64>();
            ex.send(0, 1);
            ex.finish_untracked();
            let mut ex = c.exchange::<u64>();
            ex.send(1, 2);
            drop(ex);
        });
        assert!(rec.is_empty(), "trace must mirror the ledger exactly");
    }

    #[test]
    fn untraced_run_allocates_no_trace_state() {
        let mut c = Cluster::new(2);
        let ex = c.exchange::<u64>();
        assert!(ex.charges.trace.is_none());
    }

    #[test]
    fn metrics_only_run_feeds_registry() {
        // With no trace sink installed, an installed metrics registry
        // alone still folds every round — and, reading no send-side
        // attribution, costs the exchange no trace state.
        let (reg, report) = metrics::capture(|| {
            assert!(!crate::trace::is_enabled());
            let mut c = Cluster::new(3);
            let mut ex = c.exchange::<Vec<u64>>();
            assert!(ex.charges.trace.is_none());
            ex.set_sender(1);
            ex.send(0, vec![1, 2]);
            ex.send(2, vec![3]);
            ex.finish();
            c.report()
        });
        assert_eq!(reg.rounds(), &report.rounds[..]);
        assert_eq!(
            reg.load_max(metrics::LoadUnit::Tuples),
            report.max_load_tuples()
        );
    }

    mod faulted {
        use super::*;
        use crate::faults::{capture, FaultLog, FaultPlan};

        /// One 2-server round: s0 gets [1,2] (3 words), s1 gets [3] (1 word).
        fn one_round(c: &mut Cluster) -> Vec<Vec<Vec<u64>>> {
            let mut ex = c.exchange::<Vec<u64>>();
            ex.send(0, vec![1, 2]);
            ex.send(1, vec![3]);
            ex.finish()
        }

        fn run_plan(plan: FaultPlan, strategy: RecoveryStrategy) -> (FaultLog, LoadReport) {
            capture(plan, strategy, || {
                let mut c = Cluster::new(2);
                one_round(&mut c);
                c.report()
            })
        }

        #[test]
        fn inboxes_are_the_post_recovery_view() {
            let plan = FaultPlan::new()
                .with_fault(0, 0, FaultKind::Drop { msgs: 9 })
                .with_fault(0, 1, FaultKind::Duplicate { msgs: 1 });
            let (log, (clean, faulty)) = capture(plan, RecoveryStrategy::default(), || {
                let mut c = Cluster::new(2);
                let faulty = one_round(&mut c);
                let mut c2 = Cluster::new(2);
                let _guard_free = (); // second run is past the plan's round 0
                let clean = one_round(&mut c2);
                (clean, faulty)
            });
            assert_eq!(clean, faulty, "faults must never alter delivered data");
            assert_eq!(log.fired(), 2);
        }

        #[test]
        fn duplicate_charges_same_round() {
            let plan = FaultPlan::new().with_fault(0, 0, FaultKind::Duplicate { msgs: 1 });
            let (log, report) = run_plan(plan, RecoveryStrategy::default());
            // s0's first message [1,2] (2 tuples? no: 1 msg, 2 words) re-delivered.
            assert_eq!(report.num_rounds(), 1);
            assert_eq!(report.rounds[0].tuples, vec![2, 1]);
            assert_eq!(report.rounds[0].words, vec![4, 1]);
            assert_eq!(log.recovery_rounds, 0);
            assert_eq!(log.recovery_tuples, 1);
            assert_eq!(log.recovery_words, 2);
        }

        #[test]
        fn duplicate_batch_caps_at_inbox() {
            let plan = FaultPlan::new().with_fault(0, 1, FaultKind::Duplicate { msgs: 50 });
            let (log, report) = run_plan(plan, RecoveryStrategy::default());
            assert_eq!(report.rounds[0].tuples, vec![1, 2]);
            assert_eq!(log.recovery_tuples, 1);
        }

        #[test]
        fn drop_appends_retransmission_round() {
            let plan = FaultPlan::new().with_fault(0, 0, FaultKind::Drop { msgs: 1 });
            let (log, report) = run_plan(plan, RecoveryStrategy::default());
            assert_eq!(report.num_rounds(), 2);
            // Faulty round is charged as sent…
            assert_eq!(report.rounds[0].tuples, vec![1, 1]);
            // …and the lost tail ([1,2], the last message to s0) again.
            assert_eq!(report.rounds[1].tuples, vec![1, 0]);
            assert_eq!(report.rounds[1].words, vec![2, 0]);
            assert_eq!(log.recovery_rounds, 1);
            assert_eq!((log.recovery_tuples, log.recovery_words), (1, 2));
        }

        #[test]
        fn straggler_gets_speculative_backup() {
            let plan = FaultPlan::new().with_fault(0, 0, FaultKind::Straggle);
            let (log, report) = run_plan(plan, RecoveryStrategy::default());
            assert_eq!(report.num_rounds(), 1);
            // Backup (s0+1)%2 = s1 re-receives s0's inbound in-round.
            assert_eq!(report.rounds[0].tuples, vec![1, 2]);
            assert_eq!(report.rounds[0].words, vec![2, 3]);
            assert_eq!(log.recovery_rounds, 0);
            assert_eq!((log.recovery_tuples, log.recovery_words), (1, 2));
        }

        #[test]
        fn crash_checkpoint_replays_since_last_checkpoint() {
            // 3 algorithm rounds, crash at round 2, checkpoints every 2:
            // replay rounds 2..=2 (1 round).
            let plan = FaultPlan::new().with_fault(2, 0, FaultKind::Crash);
            let (log, report) = capture(plan, RecoveryStrategy::Checkpoint { every: 2 }, || {
                let mut c = Cluster::new(2);
                for _ in 0..3 {
                    one_round(&mut c);
                }
                c.report()
            });
            assert_eq!(report.num_rounds(), 4);
            assert_eq!(report.rounds[3].tuples, report.rounds[2].tuples);
            assert_eq!(log.recovery_rounds, 1);
            assert_eq!(log.recovery_tuples, report.rounds[2].total_tuples());
            assert_eq!(log.injected.len(), 1);
            assert_eq!(log.injected[0].kind, "crash");
            assert_eq!(log.injected[0].round, 2);
        }

        #[test]
        fn crash_checkpoint_replays_full_interval() {
            // Crash at round 3 with every=4: replay rounds 0..=3.
            let plan = FaultPlan::new().with_fault(3, 1, FaultKind::Crash);
            let (log, report) = capture(plan, RecoveryStrategy::Checkpoint { every: 4 }, || {
                let mut c = Cluster::new(2);
                for _ in 0..4 {
                    one_round(&mut c);
                }
                c.report()
            });
            assert_eq!(report.num_rounds(), 8);
            assert_eq!(log.recovery_rounds, 4);
            assert_eq!(log.recovery_tuples, 4 * 2);
        }

        #[test]
        fn crash_replication_costs_one_redistribution_round() {
            let plan = FaultPlan::new().with_fault(1, 0, FaultKind::Crash);
            let (log, report) =
                capture(plan, RecoveryStrategy::Replication { replicas: 2 }, || {
                    let mut c = Cluster::new(2);
                    one_round(&mut c);
                    one_round(&mut c);
                    c.report()
                });
            assert_eq!(report.num_rounds(), 3);
            // Replica group of s0 on p=2, r=2 is {s0, s1}: the
            // replacement re-fetches both cumulative partitions
            // (2 rounds × 2 tuples).
            assert_eq!(report.rounds[2].tuples, vec![4, 0]);
            assert_eq!(log.recovery_rounds, 1);
            assert_eq!(log.recovery_tuples, 4);
        }

        #[test]
        fn fault_clock_ignores_untracked_and_recovery_rounds() {
            // A drop at logical round 1 must fire on the *second
            // recorded* round even though an untracked exchange and a
            // recovery round (from the round-0 drop) sit in between.
            let plan = FaultPlan::new()
                .with_fault(0, 0, FaultKind::Drop { msgs: 1 })
                .with_fault(1, 1, FaultKind::Drop { msgs: 1 });
            let (log, _) = capture(plan, RecoveryStrategy::default(), || {
                let mut c = Cluster::new(2);
                one_round(&mut c); // logical round 0: drop fires, +1 recovery round
                let mut ex = c.exchange::<u64>();
                ex.send(0, 7);
                ex.finish_untracked(); // no tick
                one_round(&mut c); // logical round 1: second drop fires
                c.report()
            });
            let kinds: Vec<_> = log.injected.iter().map(|f| (f.round, f.server)).collect();
            assert_eq!(
                kinds,
                vec![(0, 0), (2, 1)],
                "ledger rounds shift, logical rounds don't"
            );
        }

        #[test]
        fn reset_rewinds_fault_clock_for_recovery_replays() {
            // Regression (satellite): a replay after Cluster::reset must
            // see the schedule from round 0 again on a clean ledger.
            let plan = FaultPlan::new().with_fault(0, 0, FaultKind::Duplicate { msgs: 1 });
            let (log, (first, second)) = capture(plan, RecoveryStrategy::default(), || {
                let mut c = Cluster::new(2);
                one_round(&mut c);
                let first = c.report();
                c.reset();
                one_round(&mut c);
                (first, c.report())
            });
            assert_eq!(first, second, "replay must see identical faults");
            assert_eq!(log.fired(), 2, "the fault fired in both runs");
            assert_eq!(second.num_rounds(), 1, "reset cleared the ledger");
        }

        #[test]
        fn faulted_trace_totals_match_report() {
            use crate::trace::Recorder;
            let plan = FaultPlan::new()
                .with_fault(0, 0, FaultKind::Duplicate { msgs: 1 })
                .with_fault(1, 1, FaultKind::Drop { msgs: 1 })
                .with_fault(2, 0, FaultKind::Crash)
                .with_fault(3, 1, FaultKind::Straggle);
            let (_, (rec, report)) =
                capture(plan, RecoveryStrategy::Checkpoint { every: 2 }, || {
                    Recorder::capture(|| {
                        let mut c = Cluster::new(2);
                        for _ in 0..4 {
                            one_round(&mut c);
                        }
                        c.report()
                    })
                });
            let totals = crate::trace::analyze::totals(&rec);
            assert_eq!(totals.rounds, report.num_rounds());
            assert_eq!(totals.tuples, report.total_tuples());
            assert_eq!(totals.words, report.total_words());
            assert!(rec
                .events()
                .any(|e| matches!(e, TraceEvent::FaultInjected { kind: "crash", .. })));
            // Every RecoveryBegin has a matching RecoveryEnd.
            let begins = rec
                .events()
                .filter(|e| matches!(e, TraceEvent::RecoveryBegin { .. }))
                .count();
            let ends = rec
                .events()
                .filter(|e| matches!(e, TraceEvent::RecoveryEnd { .. }))
                .count();
            assert_eq!(begins, 4);
            assert_eq!(begins, ends);
        }

        #[test]
        fn fault_free_plan_is_invisible() {
            let clean = {
                let mut c = Cluster::new(2);
                one_round(&mut c);
                c.report()
            };
            let (log, faulted) = run_plan(FaultPlan::new(), RecoveryStrategy::default());
            assert_eq!(clean, faulted);
            assert_eq!(log, FaultLog::default());
        }
    }

    #[test]
    fn try_variants_return_typed_errors() {
        assert!(Cluster::try_new(0).is_err());
        assert_eq!(Cluster::try_new(3).map(|c| c.p()), Ok(3));

        let mut c = Cluster::new(2);
        let mut ex = c.exchange::<u64>();
        assert_eq!(
            ex.try_send(5, 1),
            Err(crate::error::MpcError::BadServer { dest: 5, p: 2 })
        );
        assert_eq!(ex.try_send(1, 7), Ok(()));
        let inboxes = ex.finish();
        assert_eq!(inboxes[1], vec![7]);
        // The failed send must not have been charged to the ledger.
        assert_eq!(c.report().total_tuples(), 1);
    }
}
