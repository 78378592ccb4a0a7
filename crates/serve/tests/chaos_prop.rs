//! Property coverage for the chaos harness: *random* failpoint
//! schedules — fsync/append errors, enqueue sheds, trainer delays —
//! driven against a live serving session must never panic the process,
//! reads must always answer, bounded writes must return within their
//! deadline, and a post-kill recovery must land on exactly the acked
//! event prefix.
//!
//! The failpoint registry is process-global, so every generated case
//! arms it under one lock and disarms on the way out (failure paths
//! included) via the [`Armed`] guard.

use glodyne::{EmbedderSession, EpochPolicy, GloDyNE, GloDyNEConfig};
use glodyne_chaos::{sites, Action, Rule};
use glodyne_durable::{DurableConfig, DurableSession, FsyncPolicy};
use glodyne_embed::walks::WalkConfig;
use glodyne_embed::SgnsConfig;
use glodyne_graph::state::GraphEvent;
use glodyne_graph::NodeId;
use glodyne_serve::{Admission, NearestMode, ServeError, ServingSession, SessionSpec};
use proptest::prelude::*;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

struct Armed<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);

impl Armed<'_> {
    fn lock() -> Self {
        let guard = CHAOS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        glodyne_chaos::disarm();
        Armed(guard)
    }
}

impl Drop for Armed<'_> {
    fn drop(&mut self) {
        glodyne_chaos::disarm();
    }
}

fn tiny_model() -> GloDyNE {
    let cfg = GloDyNEConfig {
        alpha: 0.5,
        walk: WalkConfig {
            walks_per_node: 1,
            walk_length: 6,
            seed: 3,
        },
        sgns: SgnsConfig {
            dim: 4,
            window: 2,
            negatives: 1,
            epochs: 1,
            parallel: false,
            ..Default::default()
        },
        ..Default::default()
    };
    GloDyNE::new(cfg).unwrap()
}

/// One generated failpoint: (site, rule) decoded from small integers so
/// the strategy stays a plain tuple. Only error/delay/shed actions —
/// stalls and panics get deterministic dedicated tests (`chaos.rs`,
/// session unit tests) because their recovery is part of the contract,
/// not noise to fuzz over.
fn decode(site: u8, rule: u8, n: u8) -> (&'static str, Rule) {
    let site = match site % 4 {
        0 => sites::WAL_FSYNC,
        1 => sites::WAL_APPEND,
        2 => sites::INGEST_ENQUEUE,
        _ => sites::TRAINER_STEP,
    };
    let n = u64::from(n % 4) + 1;
    let action = if site == sites::TRAINER_STEP {
        Action::Delay(n) // an error channel does not exist there
    } else {
        Action::Fail
    };
    let rule = match rule % 3 {
        0 => Rule::Always(action),
        1 => Rule::Times(action, n),
        _ => Rule::EveryNth(action, n),
    };
    (site, rule)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any schedule of injected errors, sheds, and delays: no panic
    /// escapes, every read answers, bounded writes return promptly, and
    /// after disarm the session flushes cleanly.
    #[test]
    fn random_schedules_never_panic_and_reads_always_answer(
        schedule in prop::collection::vec((0u8..4, 0u8..3, 0u8..8), 0..4),
        ops in prop::collection::vec((0u8..3, 0u8..64), 4..24),
    ) {
        let _armed = Armed::lock();
        let session =
            EmbedderSession::new(tiny_model(), EpochPolicy::EveryNEvents(8)).unwrap();
        let serving = ServingSession::spawn(session, SessionSpec::new(4)).unwrap();
        // Seed one committed epoch before the chaos starts.
        for i in 0..6u32 {
            serving.ingest(&[GraphEvent::add_edge(NodeId(i), NodeId(i + 1), 0)]).unwrap();
        }
        serving.flush().unwrap();

        for (site, rule, n) in &schedule {
            let (site, rule) = decode(*site, *rule, *n);
            glodyne_chaos::set(site, rule);
        }

        let mut t = 1u64;
        for (op, x) in &ops {
            match op % 3 {
                0 => {
                    // Shed or accept — either way a structured result.
                    let ev = GraphEvent::add_edge(NodeId(u32::from(*x)), NodeId(u32::from(*x) + 1), t);
                    t += 1;
                    match serving.ingest_with(&[ev], Admission::Shed) {
                        Ok(_) | Err(ServeError::Overloaded { .. }) => {}
                        Err(other) => prop_assert!(false, "unstructured ingest failure: {other}"),
                    }
                }
                1 => {
                    // Bounded flush: any outcome, but within the bound.
                    let started = Instant::now();
                    let deadline = Instant::now() + Duration::from_millis(200);
                    let _ = serving.flush_with(Admission::Until(deadline));
                    prop_assert!(
                        started.elapsed() < Duration::from_secs(10),
                        "deadline flush overstayed: {:?}",
                        started.elapsed()
                    );
                }
                _ => {
                    // Reads always answer, instantly, from the epoch.
                    let started = Instant::now();
                    let epoch = serving.query(NodeId(u32::from(*x % 8)), |epoch, _| epoch);
                    prop_assert!(epoch >= 1, "published epoch lost");
                    let hits = serving
                        .nearest(NodeId(0), 3, NearestMode::Exact)
                        .map(|(_, hits, _)| hits)
                        .unwrap_or_default();
                    prop_assert!(hits.len() <= 3);
                    prop_assert!(
                        started.elapsed() < Duration::from_secs(5),
                        "read blocked behind chaos: {:?}",
                        started.elapsed()
                    );
                }
            }
        }

        // Disarmed, the session is healthy again: a write-then-flush
        // round-trip succeeds and health reports clean.
        glodyne_chaos::disarm();
        serving
            .ingest(&[GraphEvent::add_edge(NodeId(90), NodeId(91), t)])
            .unwrap();
        serving.flush().unwrap();
        let health = serving.health();
        prop_assert!(!health.degraded, "degraded after full recovery");
        prop_assert!(health.trainer_alive);
        serving.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Kill-under-chaos recovery: random append failures, fsync delays,
    /// and snapshot failures while a durable lineage ingests, then a
    /// drop without finalize. Recovery must (a) succeed, (b) land on
    /// exactly the acked events, (c) reproduce the acked prefix state
    /// bit-for-bit against a chaos-free control run.
    #[test]
    fn post_kill_recovery_is_exactly_the_acked_prefix(
        (append_n, snap_always, fsync_delay_n) in (0u8..5, 0u8..2, 1u8..4),
        count in 8usize..28,
    ) {
        let _armed = Armed::lock();
        let dir = std::env::temp_dir().join(format!(
            "glodyne-chaos-prop-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let dcfg = DurableConfig {
            // Sync inside every append: whatever was acked is durable,
            // so the acked set and the WAL contents coincide exactly.
            fsync: FsyncPolicy::EveryNEvents(1),
            snapshot_every: 2,
            ..DurableConfig::default()
        };
        let policy = EpochPolicy::EveryNEvents(4);
        let session = EmbedderSession::new(tiny_model(), policy).unwrap();
        let mut durable = DurableSession::create(&dir, session, dcfg).unwrap();

        // Arm after creation (the genesis snapshot must exist).
        // Append failures fire *before* any byte is written, so a
        // rejected event is cleanly absent from both the WAL and the
        // live session — no torn gray zone in this schedule.
        if append_n > 0 {
            glodyne_chaos::set(sites::WAL_APPEND, Rule::EveryNth(Action::Fail, u64::from(append_n)));
        }
        if snap_always == 1 {
            glodyne_chaos::set(sites::SNAPSHOT_WRITE, Rule::Always(Action::Fail));
        }
        glodyne_chaos::set(
            sites::WAL_FSYNC,
            Rule::EveryNth(Action::Delay(1), u64::from(fsync_delay_n)),
        );

        let events: Vec<GraphEvent> = (0..count as u32)
            .map(|i| GraphEvent::add_edge(NodeId(i % 9), NodeId((i + 1) % 9), u64::from(i)))
            .collect();
        let mut acked: Vec<GraphEvent> = Vec::new();
        let mut acked_seq = 0u64;
        for (i, event) in events.iter().enumerate() {
            let seq = i as u64 + 1;
            if durable.apply(seq, *event).is_ok() {
                acked.push(*event);
                acked_seq = seq;
            }
            let _ = durable.maybe_snapshot();
        }
        drop(durable); // kill: no finalize, no final snapshot

        glodyne_chaos::disarm();
        let recovered = DurableSession::recover(&dir, dcfg, policy, false, tiny_model);
        prop_assert!(recovered.is_ok(), "recovery failed: {:?}", recovered.err());
        let (recovered, _report) = recovered.unwrap();
        prop_assert_eq!(recovered.last_seq(), acked_seq, "recovery drifted off the acked prefix");

        // Bit-exact: replaying the acked events on a clean session
        // yields the same embedding the recovered lineage serves.
        let mut control = EmbedderSession::new(tiny_model(), policy).unwrap();
        for event in &acked {
            control.apply(*event);
        }
        for node in 0..9u32 {
            prop_assert_eq!(
                recovered.session().query(NodeId(node)),
                control.query(NodeId(node)),
                "node {} diverged from the acked prefix", node
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
