//! Trace exporters: Chrome `trace_event` JSON and a plain-text summary.
//!
//! The JSON exporter emits the "JSON Array Format" variant of the Chrome
//! tracing schema wrapped in an object (`{"traceEvents": [...]}`), which
//! both `chrome://tracing` and Perfetto load directly. Layout:
//!
//! * one *process* per rank (`pid` = rank), plus a synthetic process
//!   `pid` = [`NET_PID`] for wire-level events;
//! * completed spans (initiation → notification) as `"ph": "X"` complete
//!   events named `{kind}:{path}` (e.g. `put:eager`, `amo:deferred`);
//! * everything else (`init`, `inject`, `wakeup`, `drain`, and all net
//!   events) as `"ph": "i"` instant events.
//!
//! Output is a pure function of the recorded events: fixed field order, no
//! floating-point formatting (timestamps are printed as `µs.nnn` with
//! integer math), no hash-map iteration. Under `ClockMode::Virtual` with a
//! seeded `FaultPlan` and a deterministic drive, two runs produce
//! byte-identical files — the property `tests/trace.rs` locks in.
//!
//! A minimal JSON reader ([`parse_json`], [`count_notifications`]) lives
//! here too so the CI trace smoke job can validate an exported file
//! without external dependencies.

use std::fmt::Write as _;

use super::causal::{CausalAssembly, EdgeKind, WIRE_LANE};
use super::hist::Histograms;
use super::{EventKind, NetEventKind, NetTraceEvent, RankTrace, TraceEvent};

/// Synthetic Chrome-trace process id for wire-level (network) events —
/// far above any plausible rank count.
pub const NET_PID: u64 = 1_000_000;

/// Everything a run recorded: per-rank span traces plus the world-global
/// wire-level trace.
#[derive(Clone, Debug, Default)]
pub struct TraceBundle {
    pub ranks: Vec<RankTrace>,
    pub net: Vec<NetTraceEvent>,
}

/// Append a Chrome-trace timestamp: microseconds with the nanosecond
/// remainder as three fixed decimals, via integer math only.
fn push_ts(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

fn push_instant(out: &mut String, name: &str, pid: u64, ts_ns: u64, args: &str) {
    out.push_str("{\"name\":\"");
    out.push_str(name);
    let _ = write!(
        out,
        "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":0,\"ts\":"
    );
    push_ts(out, ts_ns);
    let _ = write!(out, ",\"args\":{{{args}}}}}");
}

fn push_rank_event(out: &mut String, rank: u32, e: &TraceEvent, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let pid = u64::from(rank);
    match e.kind {
        EventKind::Init => {
            let mut name = String::from("init:");
            name.push_str(e.op.kind.name());
            let args = format!("\"op\":{},\"seq\":{}", e.op.id, e.seq);
            push_instant(out, &name, pid, e.ts_ns, &args);
        }
        EventKind::NetInject { msg } => {
            let mut name = String::from("inject:");
            name.push_str(e.op.kind.name());
            let args = format!("\"op\":{},\"msg\":{},\"seq\":{}", e.op.id, msg, e.seq);
            push_instant(out, &name, pid, e.ts_ns, &args);
        }
        EventKind::Notify { path, latency_ns } => {
            // A complete ("X") event spanning initiation → notification.
            let mut name = String::from(e.op.kind.name());
            name.push(':');
            name.push_str(path.name());
            out.push_str("{\"name\":\"");
            out.push_str(&name);
            let _ = write!(out, "\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":");
            push_ts(out, e.ts_ns.saturating_sub(latency_ns));
            out.push_str(",\"dur\":");
            push_ts(out, latency_ns);
            let _ = write!(out, ",\"args\":{{\"op\":{},\"seq\":{}}}}}", e.op.id, e.seq);
        }
        EventKind::Wakeup { token } => {
            let args = format!("\"token\":{},\"seq\":{}", token, e.seq);
            push_instant(out, "wakeup", pid, e.ts_ns, &args);
        }
        EventKind::Drain { items } => {
            let args = format!("\"items\":{},\"seq\":{}", items, e.seq);
            push_instant(out, "drain", pid, e.ts_ns, &args);
        }
        EventKind::BatchFlush { msg, ops, reason } => {
            let args = format!(
                "\"msg\":{},\"ops\":{},\"reason\":\"{}\",\"seq\":{}",
                msg,
                ops,
                reason.name(),
                e.seq
            );
            push_instant(out, "batch_flush", pid, e.ts_ns, &args);
        }
        EventKind::Signal { word, badge } => {
            let args = format!("\"word\":{},\"badge\":{},\"seq\":{}", word, badge, e.seq);
            push_instant(out, "signal", pid, e.ts_ns, &args);
        }
        EventKind::CallbackRun => {
            let mut name = String::from("callback:");
            name.push_str(e.op.kind.name());
            let args = format!("\"op\":{},\"seq\":{}", e.op.id, e.seq);
            push_instant(out, &name, pid, e.ts_ns, &args);
        }
    }
}

fn push_net_event(out: &mut String, e: &NetTraceEvent, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    match e.kind {
        NetEventKind::Inject => {
            let args = format!("\"msg\":{}", e.msg);
            push_instant(out, "net:inject", NET_PID, e.ts_ns, &args);
        }
        NetEventKind::Drop { backoff_ns } => {
            let args = format!(
                "\"msg\":{},\"attempt\":{},\"backoff_ns\":{}",
                e.msg, e.attempt, backoff_ns
            );
            push_instant(out, "net:drop", NET_PID, e.ts_ns, &args);
        }
        NetEventKind::Retry => {
            let args = format!("\"msg\":{},\"attempt\":{}", e.msg, e.attempt);
            push_instant(out, "net:retry", NET_PID, e.ts_ns, &args);
        }
        NetEventKind::Deliver => {
            let args = format!("\"msg\":{},\"attempt\":{}", e.msg, e.attempt);
            push_instant(out, "net:deliver", NET_PID, e.ts_ns, &args);
        }
        NetEventKind::DupDiscard => {
            let args = format!("\"msg\":{}", e.msg);
            push_instant(out, "net:dup", NET_PID, e.ts_ns, &args);
        }
        NetEventKind::Signal { rank, token } => {
            let args = format!("\"rank\":{rank},\"token\":{token}");
            push_instant(out, "net:signal", NET_PID, e.ts_ns, &args);
        }
    }
}

/// Emit the `"ph":"M"` metadata pair naming one Chrome-trace row: the
/// process label shown in the track header plus a thread label for its
/// single lane.
fn push_row_metadata(out: &mut String, pid: u64, name: &str, thread: &str, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"{name}\"}}}},\
         {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"{thread}\"}}}}"
    );
}

/// Shared body of the Chrome exporters: metadata rows, rank events, wire
/// events — everything except the enclosing object and any flow events.
fn push_trace_events(bundle: &TraceBundle, out: &mut String, first: &mut bool) {
    let mut ranks: Vec<&RankTrace> = bundle.ranks.iter().collect();
    ranks.sort_by_key(|r| r.rank);
    for r in &ranks {
        let name = format!("rank {}", r.rank);
        push_row_metadata(out, u64::from(r.rank), &name, "ops", first);
        if r.dropped > 0 {
            let args = format!("\"dropped\":{}", r.dropped);
            push_instant_ev(out, "ring:dropped", u64::from(r.rank), 0, &args, first);
        }
    }
    if !bundle.net.is_empty() {
        push_row_metadata(out, NET_PID, "wire", "wire", first);
    }
    for r in &ranks {
        for e in &r.events {
            push_rank_event(out, r.rank, e, first);
        }
    }
    for e in &bundle.net {
        push_net_event(out, e, first);
    }
}

fn push_instant_ev(
    out: &mut String,
    name: &str,
    pid: u64,
    ts_ns: u64,
    args: &str,
    first: &mut bool,
) {
    if !*first {
        out.push(',');
    }
    *first = false;
    push_instant(out, name, pid, ts_ns, args);
}

/// Render a bundle as Chrome `trace_event` JSON. Deterministic: ranks in
/// ascending rank order, events in recording order, fixed field order.
pub fn chrome_trace_json(bundle: &TraceBundle) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    push_trace_events(bundle, &mut out, &mut first);
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Like [`chrome_trace_json`], plus Chrome *flow* events (`"ph":"s"` /
/// `"ph":"f"`) for every cross-lane happens-before edge of `assembly` —
/// Perfetto draws them as arrows from the injecting rank onto the wire
/// row and from wire signals back into the waking rank. Program-order
/// edges are omitted (within-row arrows are noise). Flow ids are the
/// edge's index in [`CausalAssembly::edges`], so the export stays a pure
/// deterministic function of (bundle, assembly).
pub fn chrome_trace_json_with_flows(bundle: &TraceBundle, assembly: &CausalAssembly) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    push_trace_events(bundle, &mut out, &mut first);
    let pid_of = |lane: u32| -> u64 {
        if lane == WIRE_LANE {
            NET_PID
        } else {
            u64::from(lane)
        }
    };
    for (id, e) in assembly.edges.iter().enumerate() {
        if e.kind == EdgeKind::Program {
            continue;
        }
        let (from, to) = (&assembly.nodes[e.from], &assembly.nodes[e.to]);
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"cat\":\"causal\",\"ph\":\"s\",\"id\":{id},\
             \"pid\":{fpid},\"tid\":0,\"ts\":",
            name = e.kind.name(),
            fpid = pid_of(from.lane),
        );
        push_ts(&mut out, from.ts_ns);
        let _ = write!(
            out,
            "}},{{\"name\":\"{name}\",\"cat\":\"causal\",\"ph\":\"f\",\"bp\":\"e\",\
             \"id\":{id},\"pid\":{tpid},\"tid\":0,\"ts\":",
            name = e.kind.name(),
            tpid = pid_of(to.lane),
        );
        push_ts(&mut out, to.ts_ns);
        out.push('}');
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Render latency histograms as a plain-text summary table.
pub fn summary_table(hists: &Histograms) -> String {
    let rows = hists.rows();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<9} {:>10} {:>12} {:>12} {:>12}",
        "op", "path", "count", "p50(ns)", "p99(ns)", "max(ns)"
    );
    if rows.is_empty() {
        let _ = writeln!(out, "(no samples)");
        return out;
    }
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:<9} {:>10} {:>12} {:>12} {:>12}",
            r.kind.name(),
            r.path.name(),
            r.count,
            r.p50_ns,
            r.p99_ns,
            r.max_ns
        );
    }
    out
}

/// A parsed JSON value — just enough structure for trace validation.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {}", self.pos, msg)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.s[start..self.pos]).map_err(|_| self.err("utf8"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.s.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.s[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("utf8 in \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is valid UTF-8:
                    // it came from a &str).
                    let rest =
                        std::str::from_utf8(&self.s[self.pos..]).map_err(|_| self.err("utf8"))?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parse a JSON document (minimal reader for trace validation — not a
/// general-purpose parser).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.s.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Parse an exported Chrome trace and count notification events by path:
/// returns `(eager, deferred)`. Errors if the text is not valid JSON or
/// lacks a `traceEvents` array.
pub fn count_notifications(text: &str) -> Result<(u64, u64), String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut eager = 0u64;
    let mut deferred = 0u64;
    for e in events {
        if let Some(name) = e.get("name").and_then(|n| n.as_str()) {
            if name.ends_with(":eager") {
                eager += 1;
            } else if name.ends_with(":deferred") {
                deferred += 1;
            }
        }
    }
    Ok((eager, deferred))
}

#[cfg(test)]
mod tests {
    use super::super::{CompletionPath, LamportClocks, OpKind, RankTracer};
    use super::*;

    fn sample_bundle() -> TraceBundle {
        let mut t0 = RankTracer::new(0, LamportClocks::new(1));
        let a = t0.op_init(OpKind::Put, 100, true);
        t0.net_inject(a, 0, 120);
        t0.notify(a, CompletionPath::Deferred, 2_500);
        let b = t0.op_init(OpKind::Amo, 3_000, true);
        t0.notify(b, CompletionPath::Eager, 3_000);
        t0.wakeup(17, 2_400);
        t0.drain(2, 2_600);
        let mut t1 = RankTracer::new(1, LamportClocks::new(1));
        let c = t1.op_init(OpKind::Rpc, 500, true);
        t1.notify(c, CompletionPath::Deferred, 9_999);
        TraceBundle {
            ranks: vec![t1.take(), t0.take()], // out of order on purpose
            net: vec![
                NetTraceEvent {
                    ts_ns: 120,
                    msg: 0,
                    attempt: 0,
                    kind: NetEventKind::Inject,
                    lclock: 3,
                },
                NetTraceEvent {
                    ts_ns: 1_120,
                    msg: 0,
                    attempt: 0,
                    kind: NetEventKind::Drop { backoff_ns: 800 },
                    lclock: 3,
                },
                NetTraceEvent {
                    ts_ns: 1_920,
                    msg: 0,
                    attempt: 1,
                    kind: NetEventKind::Retry,
                    lclock: 3,
                },
                NetTraceEvent {
                    ts_ns: 2_400,
                    msg: 0,
                    attempt: 1,
                    kind: NetEventKind::Deliver,
                    lclock: 4,
                },
            ],
        }
    }

    #[test]
    fn chrome_export_parses_and_counts_paths() {
        let json = chrome_trace_json(&sample_bundle());
        let doc = parse_json(&json).expect("exported trace must be valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 3 × (process_name + thread_name) metadata + 9 rank events +
        // 4 net events.
        assert_eq!(events.len(), 19);
        let (eager, deferred) = count_notifications(&json).unwrap();
        assert_eq!(eager, 1);
        assert_eq!(deferred, 2);
        // Ranks are emitted in ascending order regardless of input order.
        let r0 = json.find("\"rank 0\"").unwrap();
        let r1 = json.find("\"rank 1\"").unwrap();
        assert!(r0 < r1);
    }

    #[test]
    fn export_is_deterministic() {
        let a = chrome_trace_json(&sample_bundle());
        let b = chrome_trace_json(&sample_bundle());
        assert_eq!(a, b);
    }

    #[test]
    fn flow_export_adds_cross_lane_arrows() {
        let bundle = sample_bundle();
        let assembly = super::super::causal::assemble(&bundle);
        let json = chrome_trace_json_with_flows(&bundle, &assembly);
        let doc = parse_json(&json).expect("flow export must stay valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let ph = |e: &Json| e.get("ph").and_then(|p| p.as_str()).map(str::to_owned);
        let starts = events
            .iter()
            .filter(|e| ph(e).as_deref() == Some("s"))
            .count();
        let finishes = events
            .iter()
            .filter(|e| ph(e).as_deref() == Some("f"))
            .count();
        // msg 0's wire chain (3 edges) + the inject fan-in (1) — program
        // edges draw no arrows.
        assert_eq!(starts, 4);
        assert_eq!(starts, finishes);
        // The wire row is labeled "wire", not "net".
        assert!(json.contains("\"name\":\"wire\""));
        assert!(!json.contains("\"name\":\"net\""));
        // And it is deterministic like the plain exporter.
        assert_eq!(json, chrome_trace_json_with_flows(&bundle, &assembly));
    }

    #[test]
    fn summary_table_lists_each_pair() {
        let mut t = RankTracer::new(0, LamportClocks::new(1));
        let a = t.op_init(OpKind::Put, 0, true);
        t.notify(a, CompletionPath::Eager, 0);
        let b = t.op_init(OpKind::Put, 0, true);
        t.notify(b, CompletionPath::Deferred, 1_000);
        let table = summary_table(&t.histograms());
        assert!(table.contains("put"));
        assert!(table.contains("eager"));
        assert!(table.contains("deferred"));
    }

    #[test]
    fn json_parser_handles_basics_and_rejects_garbage() {
        let v = parse_json(r#"{"a": [1, 2.5, -3], "b": "x\ny", "c": null, "d": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "x\ny");
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} extra").is_err());
    }
}
