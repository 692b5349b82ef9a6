//! Snapshot determinism and the stall watchdog, end to end.
//!
//! Two properties of the introspection layer are pinned here:
//!
//! * **Snapshot determinism** — a quiesced snapshot is a pure function of
//!   the program's communication pattern: same seed + fault plan must
//!   render byte-identical text *and* JSON on every rank, across library
//!   versions (eager vs defer), across repeats, and across conduits (the
//!   simulated delay queue vs real kernel sockets).
//! * **Watchdog diagnosis** — a seeded partition stall must trip the
//!   wait-graph watchdog with a diagnosis that names the blocked rank, the
//!   notify-word edge it waits on, the partitioned peer whose carrier is
//!   stuck on the wire, and the last flight-recorder event touching it —
//!   deterministically, so the text itself replays byte for byte.

use gasnex::Transport;
use simtest::{fault_plans, observe, watchdog_stall_demo, Setup, Workload};
use upcr::{launch, LibVersion, RuntimeConfig};

#[test]
fn quiesced_snapshots_byte_identical_across_versions_and_repeats() {
    let (_, plan) = fault_plans(13).pop().expect("combined plan");
    let run = |version| {
        let o = observe(
            Workload::SignalStorm,
            version,
            13,
            Some(plan),
            Setup::default(),
        );
        (o.outcome, o.snapshots)
    };
    let (o_defer, defer) = run(LibVersion::V2021_3_6Defer);
    let (o_eager, eager) = run(LibVersion::V2021_3_6Eager);
    let (_, again) = run(LibVersion::V2021_3_6Eager);
    assert_eq!(o_defer, o_eager, "outcomes must agree before snapshots can");
    assert_eq!(
        defer, eager,
        "quiesced snapshots must be byte-identical across library versions"
    );
    assert_eq!(
        eager, again,
        "quiesced snapshots must replay byte-identically"
    );
    assert_eq!(defer.len(), simtest::RANKS);
    for (rank, (text, json)) in defer.iter().enumerate() {
        assert!(
            text.starts_with(&format!(
                "=== upcr snapshot: rank {rank}/{} ===",
                simtest::RANKS
            )),
            "{text}"
        );
        // Quiesced: every dynamic section drained, every badge consumed.
        assert!(text.contains("pending ops: 0"), "{text}");
        assert!(text.contains("in-flight messages: 0"), "{text}");
        assert!(text.contains("notify words: 0"), "{text}");
        let v = upcr::trace::parse_json(json).expect("snapshot JSON parses");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("snapshot.v1")
        );
    }
}

/// Leave unconsumed badge residue on rank 0 and snapshot at quiesce, on
/// the chosen conduit under its wall-clock default network. Both ranks see
/// the same world-global notify state, and the rendering must not depend
/// on which conduit carried the signal.
fn badge_residue_snapshots(transport: Transport) -> Vec<(String, String)> {
    let rt = RuntimeConfig::udp(2, 1)
        .with_segment_size(1 << 14)
        .with_transport(transport);
    launch(rt, |u| {
        let mine = u.new_::<u64>(0);
        let target = u.broadcast(mine, 0);
        u.barrier();
        // Both ranks post a badge to rank 0's word 3; nobody consumes it.
        u.put_signal(u.rank_me() as u64 + 1, target, 3, 1 << u.rank_me())
            .wait();
        u.barrier();
        while u.net_stats().pending > 0 {
            u.progress();
        }
        u.barrier();
        let s = u.snapshot();
        (s.render_text(), s.render_json())
    })
}

#[test]
fn quiesced_snapshots_byte_identical_across_conduits() {
    let sim = badge_residue_snapshots(Transport::Sim);
    let udp = badge_residue_snapshots(Transport::UdpSocket);
    assert_eq!(
        sim, udp,
        "quiesced snapshots must not depend on the conduit that carried the signals"
    );
    for (text, json) in &sim {
        assert!(
            text.contains("notify words: 1"),
            "badge residue must survive quiesce: {text}"
        );
        assert!(
            text.contains("rank 0 word 3 bits 0x3 (no waiter)"),
            "{text}"
        );
        assert!(json.contains(
            "\"notify_words\":[{\"rank\":0,\"word\":3,\"bits\":3,\"waiter_mask\":null}]"
        ));
    }
}

#[test]
fn watchdog_diagnosis_names_partitioned_rank_pair_deterministically() {
    let diagnosis = watchdog_stall_demo(700);
    // The blocked rank and the exact wait-graph edge it sits on...
    assert!(
        diagnosis.contains(
            "wait-graph stall: rank 0 blocked 700ms in wait_signal on notify word 0 mask 0x2"
        ),
        "{diagnosis}"
    );
    assert!(
        diagnosis.contains("rank 0 --[notify word 0 mask 0x2]--> unsatisfied (no badge posted)"),
        "{diagnosis}"
    );
    // ...the partitioned peer whose carrier is stuck on the wire...
    assert!(
        diagnosis.contains("candidate carriers in flight toward rank 0:"),
        "{diagnosis}"
    );
    assert!(diagnosis.contains("from rank 1 (attempt 0)"), "{diagnosis}");
    // ...and the flight recorder's last sighting of that carrier.
    assert!(
        diagnosis.contains("flight recorder: last wire event touching this edge:"),
        "{diagnosis}"
    );
    assert!(diagnosis.ends_with("injected\n"), "{diagnosis}");
    // Seeded stall, seeded diagnosis: the whole text replays.
    let again = watchdog_stall_demo(700);
    assert_eq!(diagnosis, again, "stall diagnosis must be deterministic");
}
