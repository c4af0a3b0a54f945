//! Property tests for the simulator substrate: grid addressing, load
//! conservation, and report composition; and for fault schedules: seed
//! determinism, seed sensitivity, and agreement with `parqp-testkit`'s
//! SplitMix64.

use parqp_mpc::faults::{self, FaultKind, FaultLog, FaultPlan, FaultSpec, RecoveryStrategy};
use parqp_mpc::trace::{Recorder, TraceEvent};
use parqp_mpc::{Cluster, Grid, HashFamily, LoadReport, Weight};
use parqp_testkit::prelude::*;
use parqp_testkit::splitmix64;

fn arb_dims() -> impl Strategy<Value = Vec<usize>> {
    collection::vec(1usize..5, 1..4)
}

proptest! {
    #[test]
    fn grid_rank_coord_roundtrip(dims in arb_dims()) {
        let g = Grid::new(dims);
        for r in 0..g.len() {
            prop_assert_eq!(g.rank(&g.coords(r)), r);
        }
    }

    #[test]
    fn grid_matching_counts_and_partitions(dims in arb_dims(), fix in 0usize..3) {
        let g = Grid::new(dims.clone());
        let fix = fix.min(dims.len() - 1);
        // Fixing one dimension partitions the grid into disjoint slabs.
        let mut seen = vec![false; g.len()];
        for c in 0..dims[fix] {
            let partial: Vec<Option<usize>> = (0..dims.len())
                .map(|d| if d == fix { Some(c) } else { None })
                .collect();
            let m = g.matching(&partial);
            prop_assert_eq!(m.len(), g.matching_count(&partial));
            for r in m {
                prop_assert!(!seen[r], "slabs must be disjoint");
                seen[r] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "slabs must cover the grid");
    }

    #[test]
    fn exchange_conserves_messages(
        p in 1usize..10,
        msgs in collection::vec((0usize..10, 0u64..100), 0..200),
    ) {
        let mut c = Cluster::new(p);
        let mut ex = c.exchange::<u64>();
        let mut sent = 0u64;
        for &(dest, v) in &msgs {
            ex.send(dest % p, v);
            sent += 1;
        }
        let inboxes = ex.finish();
        let received: usize = inboxes.iter().map(Vec::len).sum();
        prop_assert_eq!(received as u64, sent);
        let report = c.report();
        prop_assert_eq!(report.total_tuples(), sent);
        prop_assert!(report.max_load_tuples() <= sent);
    }

    #[test]
    fn hash_family_stays_in_range(seed in any::<u64>(), k in 1usize..5, buckets in 1usize..50) {
        let h = HashFamily::new(seed, k);
        for i in 0..k {
            for v in 0..200u64 {
                prop_assert!(h.hash(i, v, buckets) < buckets);
            }
        }
    }

    #[test]
    fn parallel_composition_preserves_totals(
        a_rounds in collection::vec(collection::vec(0u64..50, 2), 0..4),
        b_rounds in collection::vec(collection::vec(0u64..50, 3), 0..4),
    ) {
        // Each round delivers `t[s]` one-word messages to server `s`.
        let mk = |rounds: &[Vec<u64>], servers: usize| {
            let mut c = Cluster::new(servers);
            for t in rounds {
                let mut ex = c.exchange::<u64>();
                for (dest, &n) in t.iter().enumerate() {
                    ex.send_all(dest, 0..n);
                }
                ex.finish();
            }
            c.report()
        };
        let a = mk(&a_rounds, 2);
        let b = mk(&b_rounds, 3);
        let m = LoadReport::parallel(&[a.clone(), b.clone()]);
        prop_assert_eq!(m.servers, 5);
        prop_assert_eq!(m.total_tuples(), a.total_tuples() + b.total_tuples());
        prop_assert_eq!(m.num_rounds(), a.num_rounds().max(b.num_rounds()));
        prop_assert_eq!(
            m.max_load_tuples(),
            a.max_load_tuples().max(b.max_load_tuples())
        );
    }
}

fn arb_spec() -> impl Strategy<Value = FaultSpec> {
    (0usize..3, 0usize..3, 0usize..3, 0usize..3, 1u64..10).prop_map(
        |(crashes, drops, duplicates, stragglers, max_batch)| FaultSpec {
            crashes,
            drops,
            duplicates,
            stragglers,
            max_batch,
        },
    )
}

proptest! {
    #[test]
    fn same_seed_same_schedule(seed in any::<u64>(), p in 1usize..64, rounds in 1usize..16, spec in arb_spec()) {
        let a = FaultPlan::random(seed, p, rounds, &spec);
        let b = FaultPlan::random(seed, p, rounds, &spec);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn schedule_respects_spec(seed in any::<u64>(), p in 1usize..64, rounds in 1usize..16, spec in arb_spec()) {
        let plan = FaultPlan::random(seed, p, rounds, &spec);
        prop_assert!(plan.len() <= spec.total());
        prop_assert!(plan.crashes() <= spec.crashes);
        for (round, server, kind) in plan.schedule() {
            prop_assert!(round < rounds);
            prop_assert!(server < p);
            if let FaultKind::Drop { msgs } | FaultKind::Duplicate { msgs } = kind {
                prop_assert!(msgs >= 1 && msgs <= spec.max_batch);
            }
        }
        // The grid is never over-filled, and when it is large enough the
        // full spec fits.
        if p * rounds >= 64 * spec.total().max(1) {
            prop_assert_eq!(plan.len(), spec.total());
        }
    }
}

/// Disjoint seeds must yield distinct schedules (on a grid big enough
/// that a collision would imply the generator ignores its seed).
#[test]
fn disjoint_seeds_distinct_schedules() {
    let spec = FaultSpec::default();
    let mut rng = Rng::seed_from_u64(0xfa17);
    for _ in 0..50 {
        let s1 = rng.next_u64();
        let s2 = s1 ^ rng.next_u64().max(1);
        let a = FaultPlan::random(s1, 64, 16, &spec);
        let b = FaultPlan::random(s2, 64, 16, &spec);
        assert_ne!(a, b, "seeds {s1:#x} vs {s2:#x} collided");
    }
}

/// The schedule generator must stay bit-identical to the testkit's
/// SplitMix64: pin the schedule a known seed produces through the
/// testkit generator's first draws.
#[test]
fn generator_matches_testkit_splitmix64() {
    // FaultPlan::random(seed, p, rounds, …) draws round-then-server
    // per fault via multiply-shift reduction over splitmix64 outputs.
    let draw =
        |state: &mut u64, n: u64| ((u128::from(splitmix64(state)) * u128::from(n)) >> 64) as u64;
    let (seed, p, rounds) = (42u64, 8usize, 4usize);
    let spec = FaultSpec {
        crashes: 1,
        drops: 0,
        duplicates: 0,
        stragglers: 0,
        max_batch: 1,
    };
    let mut state = seed;
    let round = draw(&mut state, rounds as u64) as usize;
    let server = draw(&mut state, p as u64) as usize;
    let plan = FaultPlan::random(seed, p, rounds, &spec);
    let sched: Vec<_> = plan.schedule().collect();
    assert_eq!(sched, vec![(round, server, FaultKind::Crash)]);
}

/// A row tagged with its stream — the per-message twin of one
/// `RowExchange` row. The tag is routing metadata and weighs nothing.
#[derive(Debug, Clone, PartialEq)]
struct TaggedRow {
    stream: usize,
    row: Vec<u64>,
}

impl Weight for TaggedRow {
    fn words(&self) -> u64 {
        self.row.len() as u64
    }
}

/// One routed row: `(stream, dest, sender, how)`, each reduced modulo
/// its range by the round; `how` picks a direct send, a broadcast, or a
/// grid-matched send (which adds a `Topology` event).
type Send = (usize, usize, usize, u8);

/// What one container did with a round schedule, everything observable.
#[derive(Debug, PartialEq)]
struct Observed {
    report: LoadReport,
    events: Vec<TraceEvent>,
    log: FaultLog,
    /// Delivered words indexed `[round][stream][dest]`.
    delivered: Vec<Vec<Vec<Vec<u64>>>>,
}

fn observe_rounds(
    plan: &FaultPlan,
    strategy: RecoveryStrategy,
    run: impl FnOnce() -> (LoadReport, Vec<Vec<Vec<Vec<u64>>>>),
) -> Observed {
    let (log, (rec, (report, delivered))) =
        faults::capture(plan.clone(), strategy, || Recorder::capture(run));
    Observed {
        report,
        events: rec.events().cloned().collect(),
        log,
        delivered,
    }
}

proptest! {
    /// `RowExchange` and `Exchange` fed the same sends under the same
    /// fault plan are indistinguishable: equal ledgers, equal trace
    /// streams (sends, receives, topology, fault and recovery events),
    /// equal fault logs, and the same rows delivered per stream. Only
    /// the flat side reserves, so `RowExchange::reserve` is shown to be
    /// a hint: no counter, event or delivered word moves with it.
    #[test]
    fn row_exchange_is_exchange_with_a_flat_container(
        p in 1usize..7,
        strides in collection::vec(1usize..5, 1..5),
        rounds in collection::vec(
            collection::vec((0usize..4, 0usize..7, 0usize..8, 0u8..8), 0..40),
            1..4,
        ),
        spec in arb_spec(),
        seed in any::<u64>(),
        checkpoint in any::<bool>(),
        knob in 1usize..4,
    ) {
        let plan = FaultPlan::random(seed, p, rounds.len(), &spec);
        let strategy = if checkpoint {
            RecoveryStrategy::Checkpoint { every: knob }
        } else {
            RecoveryStrategy::Replication { replicas: knob }
        };
        let line = Grid::line(p);
        let row_of = |n: usize, &(stream, ..): &Send| -> (usize, Vec<u64>) {
            let stream = stream % strides.len();
            (stream, (0..strides[stream]).map(|c| (n * 8 + c) as u64).collect())
        };

        let flat = observe_rounds(&plan, strategy, || {
            let mut c = Cluster::new(p);
            let mut delivered = Vec::new();
            for sends in &rounds {
                let mut ex = c.exchange_rows(&strides);
                for (n, send) in sends.iter().enumerate() {
                    let (stream, row) = row_of(n, send);
                    let &(raw_stream, dest, sender, how) = send;
                    // Unreduced, so some name no stream or no server: ignored.
                    ex.reserve(raw_stream, dest, n);
                    ex.set_sender(sender); // 7 is out of range below p = 7: unattributed
                    match how {
                        0 => {
                            for to in 0..p {
                                ex.send_row(stream, to, &row);
                            }
                        }
                        1 | 2 => {
                            // The fan-out of a fixed (1) or free (2) line.
                            ex.note_grid(&line);
                            let fan = line.fan_out(|_| how == 1);
                            let base = if how == 1 { dest % p } else { 0 };
                            for to in fan.ranks(base) {
                                ex.send_row(stream, to, &row);
                            }
                        }
                        _ => ex.send_row(stream, dest % p, &row),
                    }
                }
                delivered.push(ex.finish());
            }
            (c.report(), delivered)
        });

        let boxed = observe_rounds(&plan, strategy, || {
            let mut c = Cluster::new(p);
            let mut delivered = Vec::new();
            for sends in &rounds {
                let mut ex = c.exchange::<TaggedRow>();
                for (n, send) in sends.iter().enumerate() {
                    let (stream, row) = row_of(n, send);
                    let msg = TaggedRow { stream, row };
                    let &(_, dest, sender, how) = send;
                    ex.set_sender(sender);
                    match how {
                        0 => ex.broadcast(msg),
                        1 => ex.send_matching(&line, &[Some(dest % p)], msg),
                        2 => ex.send_matching(&line, &[None], msg),
                        _ => ex.send(dest % p, msg),
                    }
                }
                let inboxes = ex.finish();
                delivered.push(
                    (0..strides.len())
                        .map(|stream| {
                            inboxes
                                .iter()
                                .map(|inbox| {
                                    inbox
                                        .iter()
                                        .filter(|m| m.stream == stream)
                                        .flat_map(|m| m.row.iter().copied())
                                        .collect()
                                })
                                .collect()
                        })
                        .collect(),
                );
            }
            (c.report(), delivered)
        });
        prop_assert_eq!(flat, boxed);
    }
}

#[test]
fn row_exchange_refuses_bad_sends_with_typed_errors() {
    use parqp_mpc::MpcError;
    let mut c = Cluster::new(2);
    let mut ex = c.exchange_rows(&[2, 3]);
    assert_eq!(
        ex.try_send_row(2, 0, &[1, 2]),
        Err(MpcError::BadStream {
            stream: 2,
            streams: 2
        })
    );
    assert_eq!(
        ex.try_send_row(1, 0, &[1, 2]),
        Err(MpcError::BadRowWidth {
            stream: 1,
            got: 2,
            stride: 3
        })
    );
    assert_eq!(
        ex.try_send_row(0, 2, &[1, 2]),
        Err(MpcError::BadServer { dest: 2, p: 2 })
    );
    assert_eq!(ex.try_send_row(1, 1, &[7, 8, 9]), Ok(()));
    // A placed delivery refuses the same three ways; two rows of stream
    // 0 (stride 2) in five words imply no width, in six a width of 3.
    assert_eq!(
        ex.try_send_placed(2, 0, &[1], vec![1, 2]),
        Err(MpcError::BadStream {
            stream: 2,
            streams: 2
        })
    );
    assert_eq!(
        ex.try_send_placed(0, 2, &[1], vec![1, 2]),
        Err(MpcError::BadServer { dest: 2, p: 2 })
    );
    assert_eq!(
        ex.try_send_placed(0, 1, &[1, 1], vec![1; 5]),
        Err(MpcError::BadRowWidth {
            stream: 0,
            got: 5,
            stride: 2
        })
    );
    assert_eq!(
        ex.try_send_placed(0, 1, &[2, 0], vec![1; 6]),
        Err(MpcError::BadRowWidth {
            stream: 0,
            got: 3,
            stride: 2
        })
    );
    assert_eq!(ex.try_send_placed(0, 0, &[0, 1], vec![4, 5]), Ok(()));
    let delivered = ex.finish();
    assert_eq!(delivered[1][1], vec![7, 8, 9]);
    assert_eq!(delivered[0][0], vec![4, 5]);
    assert!(delivered[0][1].is_empty() && delivered[1][0].is_empty());
    // Refused sends were neither delivered nor charged.
    let report = c.report();
    assert_eq!((report.total_tuples(), report.total_words()), (2, 5));
}

/// One bulk delivery of a placed round: `counts[s][d]` rows of `stream`
/// from server `s` to server `d`, then (if `tail`) one more row to
/// server 0 sent with no `set_sender` of its own.
type Placement = (usize, Vec<Vec<usize>>, bool);

/// The `k`-th row server `s` sends server `d` in placement `n`.
fn placed_row(n: usize, s: usize, d: usize, k: usize, stride: usize) -> Vec<u64> {
    (0..stride)
        .map(|c| ((((n * 8 + s) * 8 + d) * 8 + k) * 8 + c) as u64)
        .collect()
}

/// `placements`, round by round, each delivered to one destination at
/// a time with `try_send_placed`.
fn run_placed(
    p: usize,
    strides: &[usize],
    rounds: &[Vec<Placement>],
) -> (LoadReport, Vec<Vec<Vec<Vec<u64>>>>) {
    let mut c = Cluster::new(p);
    let mut delivered = Vec::new();
    for placements in rounds {
        let mut ex = c.exchange_rows(strides);
        for (n, (stream, counts, tail)) in placements.iter().enumerate() {
            let (stream, stride) = (stream % strides.len(), strides[stream % strides.len()]);
            let senders: Vec<&Vec<usize>> = (0..p).map(|s| &counts[s % counts.len()]).collect();
            for d in 0..p {
                let sent: Vec<u64> = senders.iter().map(|to| to[d] as u64).collect();
                let rows = (0..p)
                    .flat_map(|s| {
                        (0..sent[s] as usize).flat_map(move |k| placed_row(n, s, d, k, stride))
                    })
                    .collect();
                ex.try_send_placed(stream, d, &sent, rows)
                    .expect("well-formed placement");
            }
            if *tail {
                ex.send_row(stream, 0, &placed_row(n, 7, 7, 7, stride));
            }
        }
        delivered.push(ex.finish());
    }
    (c.report(), delivered)
}

proptest! {
    /// A placed delivery is the same rows sent one by one in sender
    /// order — `set_sender(s)`, then each of `s`'s rows to its
    /// destination — under any fault plan and either recovery strategy:
    /// equal buffers, ledgers, `Send`/`Recv` and fault events, fault
    /// logs, and the sender a later unattributed send is charged to.
    #[test]
    fn placed_delivery_is_rows_sent_in_sender_order(
        p in 1usize..7,
        strides in collection::vec(1usize..5, 1..4),
        rounds in collection::vec(
            collection::vec(
                (0usize..3, collection::vec(collection::vec(0usize..4, 6), 1..7), any::<bool>()),
                0..5,
            ),
            1..4,
        ),
        spec in arb_spec(),
        seed in any::<u64>(),
        checkpoint in any::<bool>(),
        knob in 1usize..4,
    ) {
        let plan = FaultPlan::random(seed, p, rounds.len(), &spec);
        let strategy = if checkpoint {
            RecoveryStrategy::Checkpoint { every: knob }
        } else {
            RecoveryStrategy::Replication { replicas: knob }
        };
        let placed = observe_rounds(&plan, strategy, || {
            run_placed(p, &strides, &rounds)
        });
        let one_by_one = observe_rounds(&plan, strategy, || {
            let mut c = Cluster::new(p);
            let mut delivered = Vec::new();
            for placements in &rounds {
                let mut ex = c.exchange_rows(&strides);
                for (n, (stream, counts, tail)) in placements.iter().enumerate() {
                    let (stream, stride) = (stream % strides.len(), strides[stream % strides.len()]);
                    for s in 0..p {
                        ex.set_sender(s);
                        for (d, &rows) in counts[s % counts.len()].iter().enumerate().take(p) {
                            for k in 0..rows {
                                ex.send_row(stream, d, &placed_row(n, s, d, k, stride));
                            }
                        }
                    }
                    if *tail {
                        ex.send_row(stream, 0, &placed_row(n, 7, 7, 7, stride));
                    }
                }
                delivered.push(ex.finish());
            }
            (c.report(), delivered)
        });
        prop_assert_eq!(placed, one_by_one);
    }
}
