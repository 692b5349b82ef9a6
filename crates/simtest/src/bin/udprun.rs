//! Multi-process UDP runner: ranks as real OS processes, data as real
//! datagrams.
//!
//! The in-process `UdpConduit` proves the *control* path is
//! transport-independent (closures cannot cross the wire, so its DATA
//! frames carry no payload). This runner closes the remaining gap: it
//! forks each rank as a separate OS process, and the PutGetStorm payload
//! words themselves travel inside loopback datagrams between processes
//! that share no memory at all. Each rank builds its slice of the final
//! image purely out of what arrived on the wire, digests it, and the
//! parent folds the per-rank digests in rank order — the same digest
//! formula the in-process harness uses — then checks the result against
//! the analytic final image and (unless `--no-sim`) against in-process
//! simulator runs of the same workload under both notification versions.
//!
//! ```text
//! udprun [--ranks N] [--seed S] [--no-sim] [--signals] [--watchdog-ms N]
//!        [--progress-thread] [--trace-out PATH]
//! ```
//!
//! With `--signals` the storm is replaced by the multi-process analogue of
//! `wait_signal`: each rank datagrams its badge (`1 << rank`) to every
//! peer as a SIG frame, a socket-service thread ORs arriving badges into a
//! condvar-guarded notification word, and the **main thread parks on the
//! condvar** — never touching the socket — until the expected mask is
//! covered, then reports `SIGDONE <mask>` for the parent to verify.
//!
//! Protocol (parent <-> child over pipes, child <-> child over UDP):
//!
//! 1. Parent spawns `udprun --child R --ranks N --seed S` per rank.
//! 2. Each child binds 127.0.0.1:0 and prints `ADDR <addr>`.
//! 3. Parent broadcasts `PEERS <addr0> <addr1> ...` on every stdin.
//! 4. Children exchange PUT/ACK datagrams (retransmitting on a timer,
//!    deduplicating by `(src, msg)`) until every PUT they sent is acked,
//!    then print `PUTS_DONE`.
//! 5. Parent waits for all, broadcasts `GO`; children digest their local
//!    arrays and print `DIGEST <hex> APPLIED <n>`.
//! 6. Parent folds digests in rank order and verifies.
//!
//! With `--trace-out PATH` every frame grows 8 bytes to piggyback the
//! sender's Lamport clock (30 → 38 bytes), each child keeps its own
//! logical clock (tick on send, `max(local, carried)+1` merge on
//! receive), records its span and wire events, and ships them back over
//! the pipe after `DIGEST` as `TEV`/`NEV` lines terminated by
//! `TRACE_END` (step 5½). The parent rebuilds a [`upcr::trace::TraceBundle`]
//! from all ranks' lines — wire message ids are globally unique,
//! `(src << 32) | seq` — runs the same causal assembler the sim conduit
//! feeds, writes the Chrome trace with flow arrows to PATH, and *reports*
//! (never asserts zero) causality violations: each OS process stamps
//! wall time from its own clock, and detecting that skew is exactly what
//! the assembler's violation counter is for.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, UdpSocket};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use simtest::{fold, run, storm_slot_val, Workload, STORM_WORDS};
use upcr::LibVersion;

const MAGIC: u8 = 0xC8;
const KIND_PUT: u8 = 3;
const KIND_ACK: u8 = 4;
const KIND_SIG: u8 = 5;
const KIND_SIGACK: u8 = 6;
const FRAME_LEN: usize = 38;
const RTO: Duration = Duration::from_millis(5);
/// Default protocol watchdog: any child stuck past this long (serving the
/// wire, or parked on the signal condvar) aborts with a diagnosis line
/// instead of hanging CI. Override with `--watchdog-ms N`.
const DEADLINE: Duration = Duration::from_secs(30);

/// `[magic][kind][msg u64][src u32][target u32][slot u32][value u64][lclock u64]`;
/// ACK frames echo the PUT's header and ignore the value field. The
/// trailing Lamport stamp (grown in PR 9, 30 → 38 bytes) carries the
/// sender's logical clock at first transmission; retransmissions re-send
/// the same frame — a retry is the same logical send. Untraced runs
/// carry 0 there and never read it.
fn encode(
    kind: u8,
    msg: u64,
    src: u32,
    target: u32,
    slot: u32,
    value: u64,
    lclock: u64,
) -> [u8; FRAME_LEN] {
    let mut b = [0u8; FRAME_LEN];
    b[0] = MAGIC;
    b[1] = kind;
    b[2..10].copy_from_slice(&msg.to_le_bytes());
    b[10..14].copy_from_slice(&src.to_le_bytes());
    b[14..18].copy_from_slice(&target.to_le_bytes());
    b[18..22].copy_from_slice(&slot.to_le_bytes());
    b[22..30].copy_from_slice(&value.to_le_bytes());
    b[30..38].copy_from_slice(&lclock.to_le_bytes());
    b
}

#[allow(clippy::type_complexity)]
fn decode(b: &[u8]) -> Option<(u8, u64, u32, u32, u32, u64, u64)> {
    if b.len() != FRAME_LEN || b[0] != MAGIC {
        return None;
    }
    Some((
        b[1],
        u64::from_le_bytes(b[2..10].try_into().ok()?),
        u32::from_le_bytes(b[10..14].try_into().ok()?),
        u32::from_le_bytes(b[14..18].try_into().ok()?),
        u32::from_le_bytes(b[18..22].try_into().ok()?),
        u64::from_le_bytes(b[22..30].try_into().ok()?),
        u64::from_le_bytes(b[30..38].try_into().ok()?),
    ))
}

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Wall nanoseconds since the UNIX epoch — the one clock base every child
/// process shares. Real kernel clock jitter between processes is exactly
/// the skew hazard the causal assembler's violation counter detects.
fn epoch_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("system clock before the unix epoch")
        .as_nanos() as u64
}

/// Child-side causal recorder: one Lamport counter per process (the
/// multi-process analogue of the sim conduit's per-rank clock slot),
/// ticked on every recorded event, merged `max(local, carried)+1` on
/// every received frame. Events are buffered as the `TEV`/`NEV` pipe
/// lines the parent parses back into a [`upcr::trace::TraceBundle`].
struct Tracer {
    lc: u64,
    seq: u64,
    tev: Vec<String>,
    nev: Vec<String>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            lc: 0,
            seq: 0,
            tev: Vec::new(),
            nev: Vec::new(),
        }
    }

    fn tick(&mut self) -> u64 {
        self.lc += 1;
        self.lc
    }

    fn merge(&mut self, carried: u64) -> u64 {
        self.lc = self.lc.max(carried) + 1;
        self.lc
    }

    fn span(&mut self, rest: std::fmt::Arguments) {
        let lc = self.tick();
        let seq = self.seq;
        self.seq += 1;
        self.tev
            .push(format!("TEV {} {seq} {lc} {rest}", epoch_ns()));
    }

    fn init(&mut self, op: u64) {
        self.span(format_args!("init {op}"));
    }

    fn inject(&mut self, op: u64, msg: u64) {
        self.span(format_args!("inject {op} {msg}"));
    }

    fn notify(&mut self, op: u64, latency_ns: u64) {
        self.span(format_args!("notify {op} {latency_ns}"));
    }

    fn net(&mut self, lclock: u64, msg: u64, attempt: u32, kind: &str) {
        self.nev.push(format!(
            "NEV {} {lclock} {msg} {attempt} {kind}",
            epoch_ns()
        ));
    }

    /// Ship everything over the pipe, terminated by `TRACE_END`.
    fn dump(&self) {
        for l in self.tev.iter().chain(self.nev.iter()) {
            println!("{l}");
        }
        println!("TRACE_END");
        std::io::stdout().flush().unwrap();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ranks: usize = parse_flag(&args, "--ranks")
        .map(|v| v.parse().expect("--ranks"))
        .unwrap_or(4);
    let seed: u64 = parse_flag(&args, "--seed")
        .map(|v| v.parse().expect("--seed"))
        .unwrap_or(0);
    let signals = args.iter().any(|a| a == "--signals");
    let watchdog_ms: Option<u64> =
        parse_flag(&args, "--watchdog-ms").map(|v| v.parse().expect("--watchdog-ms"));
    let deadline = watchdog_ms.map_or(DEADLINE, Duration::from_millis);
    let trace_out = parse_flag(&args, "--trace-out");
    if let Some(me) = parse_flag(&args, "--child") {
        let me = me.parse().expect("--child");
        if signals {
            child_signals(me, ranks, deadline);
        } else {
            child(
                me,
                ranks,
                seed,
                deadline,
                args.iter().any(|a| a == "--trace"),
            );
        }
    } else if signals {
        parent_signals(ranks, seed, watchdog_ms);
    } else {
        parent(
            ranks,
            seed,
            !args.iter().any(|a| a == "--no-sim"),
            args.iter().any(|a| a == "--progress-thread"),
            watchdog_ms,
            trace_out,
        );
    }
}

/// Receive the `PEERS` broadcast (spawning the stdin-relay thread) and
/// return the peer address list plus the stdin channel.
fn recv_peers(ranks: usize) -> (Vec<SocketAddr>, mpsc::Receiver<String>) {
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::spawn(move || {
        for line in BufReader::new(std::io::stdin()).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let peers: Vec<SocketAddr> = loop {
        let line = rx.recv().expect("parent closed stdin before PEERS");
        if let Some(rest) = line.strip_prefix("PEERS ") {
            break rest
                .split_whitespace()
                .map(|a| a.parse().expect("peer addr"))
                .collect();
        }
    };
    assert_eq!(peers.len(), ranks, "parent sent wrong peer count");
    (peers, rx)
}

/// Multi-process `wait_signal`: each rank datagrams its badge (`1 << me`)
/// to every peer as a SIG frame (retransmitted until SIGACKed, duplicates
/// re-acked and OR-suppressed), while a dedicated socket-service thread
/// ORs arriving badges into a condvar-guarded notification word. The main
/// thread **parks on the condvar** — it never touches the socket, the
/// process-level analogue of the in-runtime zero-polls-while-parked
/// guarantee — until the word covers the full expected mask, then prints
/// `SIGDONE <mask>` for the parent to verify.
fn child_signals(me: usize, ranks: usize, deadline: Duration) {
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
    sock.set_nonblocking(true).expect("nonblocking");
    println!("ADDR {}", sock.local_addr().expect("local_addr"));
    std::io::stdout().flush().unwrap();
    let (peers, rx) = recv_peers(ranks);

    let expected: u64 = (0..ranks)
        .filter(|&r| r != me)
        .fold(0, |m, r| m | (1u64 << r));
    let word = std::sync::Arc::new((std::sync::Mutex::new(0u64), std::sync::Condvar::new()));

    let w2 = std::sync::Arc::clone(&word);
    let service = std::thread::spawn(move || {
        struct Flight {
            frame: [u8; FRAME_LEN],
            to: SocketAddr,
            due: Instant,
        }
        let badge = 1u64 << me;
        let mut unacked: HashMap<u64, Flight> = HashMap::new();
        for (t, peer) in peers.iter().enumerate() {
            if t == me {
                continue;
            }
            let frame = encode(KIND_SIG, t as u64, me as u32, t as u32, 0, badge, 0);
            let _ = sock.send_to(&frame, peer);
            unacked.insert(
                t as u64,
                Flight {
                    frame,
                    to: *peer,
                    due: Instant::now() + RTO,
                },
            );
        }
        let mut applied: HashSet<(u32, u64)> = HashSet::new();
        let mut buf = [0u8; 64];
        let start = Instant::now();
        loop {
            assert!(
                start.elapsed() < deadline,
                "rank {me}: signal watchdog ({deadline:?}) expired with {} unacked signals",
                unacked.len()
            );
            loop {
                let (len, _) = match sock.recv_from(&mut buf) {
                    Ok(r) => r,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => panic!("rank {me}: recv: {e}"),
                };
                let Some((kind, msg, src, target, _slot, value, _lclock)) = decode(&buf[..len])
                else {
                    continue;
                };
                match kind {
                    KIND_SIG => {
                        assert_eq!(target as usize, me, "rank {me}: misrouted SIG");
                        // First arrival ORs the badge in and wakes the
                        // parked main thread if the mask is now covered;
                        // duplicates only re-ack (the badge OR would be
                        // idempotent anyway — that's the coalescing law).
                        if applied.insert((src, msg)) {
                            let (lock, cv) = &*w2;
                            let mut bits = lock.lock().unwrap();
                            *bits |= value;
                            if *bits & expected == expected {
                                cv.notify_all();
                            }
                        }
                        let ack = encode(KIND_SIGACK, msg, me as u32, src, 0, 0, 0);
                        let _ = sock.send_to(&ack, peers[src as usize]);
                    }
                    KIND_SIGACK => {
                        unacked.remove(&msg);
                    }
                    _ => {}
                }
            }
            let now = Instant::now();
            for f in unacked.values_mut() {
                if f.due <= now {
                    let _ = sock.send_to(&f.frame, f.to);
                    f.due = now + RTO;
                }
            }
            // Keep serving (re-acks for peers whose SIGACKs got lost)
            // until the parent releases the world.
            match rx.try_recv() {
                Ok(line) if line.trim() == "GO" => break,
                Ok(_) => {}
                Err(mpsc::TryRecvError::Empty) => {}
                Err(mpsc::TryRecvError::Disconnected) => panic!("rank {me}: parent vanished"),
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        assert!(unacked.is_empty(), "rank {me}: exited with unacked signals");
    });

    // The parked waiter: condvar only, no socket, no spinning.
    let (lock, cv) = &*word;
    let mut bits = lock.lock().unwrap();
    while *bits & expected != expected {
        let (guard, timeout) = cv
            .wait_timeout(bits, deadline)
            .expect("notification word poisoned");
        bits = guard;
        assert!(
            !timeout.timed_out(),
            "rank {me}: parked past the watchdog ({deadline:?}) still missing badge \
             bits {:#x} of {expected:#x}",
            expected & !*bits
        );
    }
    let got = *bits;
    drop(bits);
    println!("SIGDONE {got:016x}");
    std::io::stdout().flush().unwrap();
    service.join().expect("service thread");
}

/// Parent half of `--signals`: same PEERS handshake, then each child must
/// report a `SIGDONE` mask equal to everyone-but-itself.
fn parent_signals(ranks: usize, seed: u64, watchdog_ms: Option<u64>) {
    assert!(ranks <= 64, "badges are bits of one u64 word");
    let exe = std::env::current_exe().expect("current_exe");
    let mut children = Vec::new();
    for r in 0..ranks {
        let mut args = vec![
            "--child".to_string(),
            r.to_string(),
            "--ranks".to_string(),
            ranks.to_string(),
            "--seed".to_string(),
            seed.to_string(),
            "--signals".to_string(),
        ];
        if let Some(ms) = watchdog_ms {
            args.push("--watchdog-ms".to_string());
            args.push(ms.to_string());
        }
        let child = Command::new(&exe)
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn child rank");
        children.push(child);
    }
    let mut stdins = Vec::new();
    let mut stdouts = Vec::new();
    for c in &mut children {
        stdins.push(c.stdin.take().expect("child stdin"));
        stdouts.push(BufReader::new(c.stdout.take().expect("child stdout")));
    }
    let expect_line = |r: &mut BufReader<std::process::ChildStdout>, prefix: &str| -> String {
        let mut line = String::new();
        loop {
            line.clear();
            assert!(
                r.read_line(&mut line).expect("read child") > 0,
                "child exited before sending {prefix}"
            );
            if let Some(rest) = line.trim_end().strip_prefix(prefix) {
                return rest.to_string();
            }
        }
    };

    let addrs: Vec<String> = stdouts
        .iter_mut()
        .map(|r| expect_line(r, "ADDR "))
        .collect();
    let peers_line = format!("PEERS {}\n", addrs.join(" "));
    for s in &mut stdins {
        s.write_all(peers_line.as_bytes()).expect("send PEERS");
        s.flush().unwrap();
    }
    for (rank, r) in stdouts.iter_mut().enumerate() {
        let rest = expect_line(r, "SIGDONE ");
        let got = u64::from_str_radix(rest.trim(), 16).expect("SIGDONE hex");
        let expected: u64 = (0..ranks)
            .filter(|&p| p != rank)
            .fold(0, |m, p| m | (1u64 << p));
        assert_eq!(got, expected, "rank {rank} woke with the wrong badge mask");
    }
    for s in &mut stdins {
        s.write_all(b"GO\n").expect("send GO");
        s.flush().unwrap();
    }
    for c in &mut children {
        assert!(c.wait().expect("wait child").success(), "child rank failed");
    }
    println!("udprun: ranks={ranks} signal masks verified, waiters parked without polling");
    println!("udprun: OK");
}

fn child(me: usize, ranks: usize, seed: u64, deadline: Duration, trace: bool) {
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
    sock.set_nonblocking(true).expect("nonblocking");
    println!("ADDR {}", sock.local_addr().expect("local_addr"));
    std::io::stdout().flush().unwrap();

    // Stdin lines arrive on a channel so the main loop can keep serving
    // datagrams while waiting for the parent's coordination messages.
    let (peers, rx) = recv_peers(ranks);

    let mut tr = trace.then(Tracer::new);
    // Queue every PUT this rank owns: slot j of target t for j ≡ me (mod n).
    struct Flight {
        frame: [u8; FRAME_LEN],
        to: SocketAddr,
        due: Instant,
        attempt: u32,
        op: u64,
        init_ns: u64,
    }
    let mut unacked: HashMap<u64, Flight> = HashMap::new();
    let mut msg_seq = 0u64;
    for (t, peer) in peers.iter().enumerate() {
        for j in (me..STORM_WORDS).step_by(ranks) {
            let v = storm_slot_val(seed, t, j);
            // Globally unique wire id: rank-local sequence tagged with the
            // source rank, so the parent can merge all ranks' wire events
            // into one per-message chain.
            let gmsg = ((me as u64) << 32) | msg_seq;
            let op = msg_seq + 1;
            let init_ns = epoch_ns();
            let mut wire_lc = 0;
            if let Some(tc) = tr.as_mut() {
                tc.init(op);
                tc.inject(op, gmsg);
                wire_lc = tc.tick();
                tc.net(wire_lc, gmsg, 0, "inject");
            }
            let frame = encode(KIND_PUT, gmsg, me as u32, t as u32, j as u32, v, wire_lc);
            let _ = sock.send_to(&frame, peer);
            unacked.insert(
                gmsg,
                Flight {
                    frame,
                    to: *peer,
                    due: Instant::now() + RTO,
                    attempt: 0,
                    op,
                    init_ns,
                },
            );
            msg_seq += 1;
        }
    }

    let mut array = [0u64; STORM_WORDS];
    let mut applied: HashSet<(u32, u64)> = HashSet::new();
    let mut announced = false;
    let mut buf = [0u8; 64];
    let start = Instant::now();
    loop {
        assert!(
            start.elapsed() < deadline,
            "rank {me}: protocol watchdog ({deadline:?}) expired with {} unacked puts",
            unacked.len()
        );
        // Serve the wire.
        loop {
            let (len, _) = match sock.recv_from(&mut buf) {
                Ok(r) => r,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => panic!("rank {me}: recv: {e}"),
            };
            let Some((kind, msg, src, target, slot, value, lclock)) = decode(&buf[..len]) else {
                continue;
            };
            match kind {
                KIND_PUT => {
                    assert_eq!(target as usize, me, "rank {me}: misrouted PUT");
                    let fresh = applied.insert((src, msg));
                    if fresh {
                        array[slot as usize] = value;
                    }
                    if let Some(tc) = tr.as_mut() {
                        // Merge the carried stamp even for duplicates: the
                        // frame was observed, so the clock saw it.
                        let merged = tc.merge(lclock);
                        tc.net(merged, msg, 0, if fresh { "deliver" } else { "dup" });
                    }
                    // Ack (and re-ack duplicates: our previous ack may be
                    // the datagram that got lost). ACKs carry lclock 0,
                    // matching the sim conduit's untraced carrier frames.
                    let ack = encode(KIND_ACK, msg, me as u32, src, slot, 0, 0);
                    let _ = sock.send_to(&ack, peers[src as usize]);
                }
                KIND_ACK => {
                    if let Some(f) = unacked.remove(&msg) {
                        if let Some(tc) = tr.as_mut() {
                            // The first ACK completes the op: the deferred
                            // notification path of the multi-process world.
                            tc.notify(f.op, epoch_ns().saturating_sub(f.init_ns));
                        }
                    }
                }
                _ => {}
            }
        }
        // Retransmit overdue flights. A retry is the same logical send, so
        // the frame (and its Lamport stamp) goes out unmodified; the retry
        // wire event still ticks the clock — it is a fresh observable act.
        let now = Instant::now();
        for (gmsg, f) in unacked.iter_mut() {
            if f.due <= now {
                let _ = sock.send_to(&f.frame, f.to);
                f.due = now + RTO;
                f.attempt += 1;
                if let Some(tc) = tr.as_mut() {
                    let lc = tc.tick();
                    tc.net(lc, *gmsg, f.attempt, "retry");
                }
            }
        }
        if unacked.is_empty() && !announced {
            println!("PUTS_DONE");
            std::io::stdout().flush().unwrap();
            announced = true;
        }
        // GO only arrives after every rank's PUTs are acked, i.e. applied.
        match rx.try_recv() {
            Ok(line) if line.trim() == "GO" => break,
            Ok(_) => {}
            Err(mpsc::TryRecvError::Empty) => {}
            Err(mpsc::TryRecvError::Disconnected) => panic!("rank {me}: parent vanished"),
        }
        std::thread::sleep(Duration::from_micros(200));
    }

    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for w in array {
        h = fold(h, w);
    }
    println!("DIGEST {h:016x} APPLIED {}", applied.len());
    std::io::stdout().flush().unwrap();
    if let Some(tc) = &tr {
        tc.dump();
    }
}

/// Parse one child `TEV <ts> <seq> <lclock> <kind> ...` line back into the
/// core trace event type. Every multi-process op is a Put completing on the
/// deferred path (the ACK is the notification).
fn parse_tev(rest: &str, rank: usize) -> upcr::trace::TraceEvent {
    use upcr::trace::{CompletionPath, EventKind, OpKind, TraceOp};
    let mut it = rest.split_whitespace();
    fn num(it: &mut std::str::SplitWhitespace, rank: usize, rest: &str) -> u64 {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("rank {rank}: malformed TEV field in {rest:?}"))
    }
    let (ts_ns, seq, lclock) = (
        num(&mut it, rank, rest),
        num(&mut it, rank, rest),
        num(&mut it, rank, rest),
    );
    let kind_s = it
        .next()
        .unwrap_or_else(|| panic!("rank {rank}: TEV kind missing in {rest:?}"));
    let op_id = num(&mut it, rank, rest);
    let kind = match kind_s {
        "init" => EventKind::Init,
        "inject" => EventKind::NetInject {
            msg: num(&mut it, rank, rest),
        },
        "notify" => EventKind::Notify {
            path: CompletionPath::Deferred,
            latency_ns: num(&mut it, rank, rest),
        },
        other => panic!("rank {rank}: unknown TEV kind {other:?}"),
    };
    upcr::trace::TraceEvent {
        ts_ns,
        seq,
        op: TraceOp {
            id: op_id,
            kind: OpKind::Put,
        },
        kind,
        lclock,
    }
}

/// Parse one child `NEV <ts> <lclock> <msg> <attempt> <kind>` line.
fn parse_nev(rest: &str, rank: usize) -> upcr::trace::NetTraceEvent {
    use upcr::trace::NetEventKind;
    let mut it = rest.split_whitespace();
    let mut num = || -> u64 {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("rank {rank}: malformed NEV field in {rest:?}"))
    };
    let (ts_ns, lclock, msg, attempt) = (num(), num(), num(), num() as u32);
    let kind = match it.next() {
        Some("inject") => NetEventKind::Inject,
        Some("retry") => NetEventKind::Retry,
        Some("deliver") => NetEventKind::Deliver,
        Some("dup") => NetEventKind::DupDiscard,
        other => panic!("rank {rank}: unknown NEV kind {other:?}"),
    };
    upcr::trace::NetTraceEvent {
        ts_ns,
        msg,
        attempt,
        kind,
        lclock,
    }
}

fn parent(
    ranks: usize,
    seed: u64,
    verify_sim: bool,
    progress_thread: bool,
    watchdog_ms: Option<u64>,
    trace_out: Option<String>,
) {
    let exe = std::env::current_exe().expect("current_exe");
    let mut children = Vec::new();
    for r in 0..ranks {
        let mut args = vec![
            "--child".to_string(),
            r.to_string(),
            "--ranks".to_string(),
            ranks.to_string(),
            "--seed".to_string(),
            seed.to_string(),
        ];
        if trace_out.is_some() {
            args.push("--trace".to_string());
        }
        if let Some(ms) = watchdog_ms {
            args.push("--watchdog-ms".to_string());
            args.push(ms.to_string());
        }
        let child = Command::new(&exe)
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn child rank");
        children.push(child);
    }
    let mut stdins = Vec::new();
    let mut stdouts = Vec::new();
    for c in &mut children {
        stdins.push(c.stdin.take().expect("child stdin"));
        stdouts.push(BufReader::new(c.stdout.take().expect("child stdout")));
    }
    let expect_line = |r: &mut BufReader<std::process::ChildStdout>, prefix: &str| -> String {
        let mut line = String::new();
        loop {
            line.clear();
            assert!(
                r.read_line(&mut line).expect("read child") > 0,
                "child exited before sending {prefix}"
            );
            if let Some(rest) = line.trim_end().strip_prefix(prefix) {
                return rest.to_string();
            }
        }
    };

    let addrs: Vec<String> = stdouts
        .iter_mut()
        .map(|r| expect_line(r, "ADDR "))
        .collect();
    let peers_line = format!("PEERS {}\n", addrs.join(" "));
    for s in &mut stdins {
        s.write_all(peers_line.as_bytes()).expect("send PEERS");
        s.flush().unwrap();
    }
    for r in &mut stdouts {
        expect_line(r, "PUTS_DONE");
    }
    for s in &mut stdins {
        s.write_all(b"GO\n").expect("send GO");
        s.flush().unwrap();
    }

    let mut digest = 0u64;
    let mut total_applied = 0u64;
    let mut bundle = upcr::trace::TraceBundle::default();
    for (rank, r) in stdouts.iter_mut().enumerate() {
        let rest = expect_line(r, "DIGEST ");
        let mut it = rest.split_whitespace();
        let h = u64::from_str_radix(it.next().expect("digest"), 16).expect("digest hex");
        let applied: u64 = match (it.next(), it.next()) {
            (Some("APPLIED"), Some(n)) => n.parse().expect("applied count"),
            _ => panic!("malformed DIGEST line from rank {rank}"),
        };
        digest = fold(digest, h);
        total_applied += applied;
        if trace_out.is_some() {
            // Step 5½: drain this rank's trace lines up to TRACE_END.
            let mut events = Vec::new();
            let mut line = String::new();
            loop {
                line.clear();
                assert!(
                    r.read_line(&mut line).expect("read child") > 0,
                    "rank {rank} exited before TRACE_END"
                );
                let l = line.trim_end();
                if l == "TRACE_END" {
                    break;
                } else if let Some(rest) = l.strip_prefix("TEV ") {
                    events.push(parse_tev(rest, rank));
                } else if let Some(rest) = l.strip_prefix("NEV ") {
                    bundle.net.push(parse_nev(rest, rank));
                }
            }
            bundle.ranks.push(upcr::trace::RankTrace {
                rank: rank as u32,
                events,
                dropped: 0,
            });
        }
    }
    for c in &mut children {
        assert!(c.wait().expect("wait child").success(), "child rank failed");
    }

    if let Some(path) = &trace_out {
        use upcr::trace::NetEventKind;
        // The assembler expects each message's wire chain in causal order.
        // Lamport-major gets inject < deliver < dup right (the receiver
        // merges before stamping both); the kind rank breaks inject/retry
        // ties (retries re-send the original stamp).
        fn kind_rank(k: &NetEventKind) -> u8 {
            match k {
                NetEventKind::Inject => 0,
                NetEventKind::Retry => 1,
                NetEventKind::Deliver => 2,
                NetEventKind::DupDiscard => 3,
                _ => 4,
            }
        }
        bundle
            .net
            .sort_by_key(|e| (e.msg, e.lclock, kind_rank(&e.kind), e.ts_ns));
        let asm = upcr::trace::assemble(&bundle);
        let flows = upcr::trace::chrome_trace_json_with_flows(&bundle, &asm);
        std::fs::write(path, &flows).unwrap_or_else(|e| panic!("udprun: writing {path}: {e}"));
        // Violations are *reported*, never asserted zero: each OS process
        // stamps its own kernel clock, and surfacing their skew against
        // Lamport order is the point of the counter.
        println!(
            "udprun: causal nodes={} hb_edges={} violations={} chain_depth={} -> {path}",
            asm.nodes.len(),
            asm.hb_edges(),
            asm.violations,
            asm.chain_depth
        );
    }

    // Analytic expectation: the same fold over the known final image.
    let mut expected = 0u64;
    for t in 0..ranks {
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        for j in 0..STORM_WORDS {
            h = fold(h, storm_slot_val(seed, t, j));
        }
        expected = fold(expected, h);
    }
    println!(
        "udprun: ranks={ranks} seed={seed} datagrams_applied={total_applied} \
         digest={digest:#018x}"
    );
    assert_eq!(
        digest, expected,
        "multi-process digest diverged from the analytic final image"
    );
    assert_eq!(total_applied as usize, ranks * STORM_WORDS);

    if verify_sim && ranks != simtest::RANKS {
        println!(
            "udprun: skipping sim differential (harness is fixed at {} ranks)",
            simtest::RANKS
        );
    } else if verify_sim {
        // The same workload through the in-process runtime on the simulated
        // conduit, both notification versions — the three-way differential.
        for version in [LibVersion::V2021_3_6Eager, LibVersion::V2021_3_6Defer] {
            let o = run(Workload::PutGetStorm, version, seed, None);
            assert_eq!(
                o.digest, digest,
                "{version:?} simulator digest diverged from the multi-process run"
            );
            println!("udprun: {version:?} sim digest matches");
        }
        if progress_thread {
            // Fourth leg of the differential: the in-process runtime on the
            // real kernel-socket conduit with the background progress
            // thread actually running (wall clock), same digest required.
            let setup = simtest::Setup {
                transport: gasnex::Transport::UdpSocket,
                progress_thread: true,
                ..simtest::Setup::default()
            };
            let o = simtest::observe(
                Workload::PutGetStorm,
                LibVersion::V2021_3_6Eager,
                seed,
                None,
                setup,
            )
            .outcome;
            assert_eq!(
                o.digest, digest,
                "progress-thread UDP-conduit digest diverged from the multi-process run"
            );
            println!("udprun: progress-thread udp-conduit digest matches");
        }
    }
    println!("udprun: OK");
}
