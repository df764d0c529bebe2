//! Set-up, the closed-loop TCP drivers, and the reply oracle.

use crate::calib::{Pace, Reference};
use crate::ops::{self, Dataset, Expected, Op};
use crate::spec::{Workload, GRAPH_KEY};
use crate::stats::{median, percentile};
use redisgraph_server::{GraphServer, RedisGraphServer, RespClient, RespValue, ServerConfig};
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// What one run sends: the op list of every list-driven connection, and
/// whether a writer connection runs beside them.
pub struct Plan {
    pub seed: u64,
    pub lists: Vec<Vec<Op>>,
    /// Ops per round of a list: a list is one round, or
    /// [`ops::ROUNDS_PER_LIST`] of them drawn alike.
    pub round_len: usize,
    /// Requests per burst on the list-driven connections.
    pub pipeline: usize,
    /// Ops per round of the writer connection, if there is one.
    pub writer_round: Option<u64>,
    /// Cheap requests of the workload's own shape, sent once per set-up so
    /// the plan cache and the first snapshot exist before timing.
    pub warm: Vec<Op>,
    pub ops_fnv: u64,
}

impl Plan {
    pub fn new(workload: Workload, data: &Dataset, seed: u64, writer_round: u64) -> Plan {
        let (lists, pipeline, writer_round) = match workload {
            Workload::Khop(k) => (vec![ops::khop_ops(data, seed, k)], 1, None),
            Workload::PointRead => {
                (ops::point_ops(data, seed, ops::CONNECTIONS), ops::PIPELINE_DEPTH, None)
            }
            Workload::RowStream => (ops::row_stream_ops(data, seed, ops::CONNECTIONS), 1, None),
            Workload::MixedRead | Workload::MixedWrite => {
                (vec![ops::reader_ops(data, seed)], 1, Some(writer_round))
            }
        };
        let round_len = match workload {
            Workload::Khop(_) | Workload::RowStream => lists[0].len() / ops::ROUNDS_PER_LIST,
            _ => lists[0].len(),
        };
        // The cheapest vertex of the ranking answers any shape in microseconds.
        let cheap = data.cheapest();
        let warm = match workload {
            Workload::Khop(k) => vec![Op::Khop { k, v: cheap }; 2],
            Workload::RowStream => vec![Op::Chain2(cheap); 2],
            _ => lists[0].iter().take(32).copied().collect(),
        };
        let fingerprinted = if writer_round.is_some() { ops::WRITER_FINGERPRINT_OPS } else { 0 };
        let writer_ops: Vec<Op> =
            (0..fingerprinted).map(|i| ops::writer_op(data.vertices, seed, i)).collect();
        let ops_fnv = ops::ops_fnv(
            lists
                .iter()
                .map(Vec::as_slice)
                .chain(writer_round.is_some().then_some(writer_ops.as_slice())),
        );
        Plan { seed, lists, round_len, pipeline, writer_round, warm, ops_fnv }
    }
}

/// A served graph: the in-process server behind a loopback listener.
pub struct Instance {
    pub server: Arc<RedisGraphServer>,
    net: GraphServer,
}

impl Instance {
    pub fn addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    pub fn edge_count(&self) -> usize {
        self.server.graph(GRAPH_KEY).read().edge_count()
    }

    /// Stop the listener and join every server thread.
    pub fn shutdown(self) {
        self.net.shutdown();
    }
}

/// Wall-clock time of one set-up, and of the `bulk_load` inside it.
pub struct SetupTime {
    pub total_s: f64,
    pub bulk_load_s: f64,
}

/// Generate the dataset, load it, bind a loopback listener and warm up.
pub fn setup(scale: u32, plan: &Plan) -> io::Result<(Instance, SetupTime)> {
    let started = Instant::now();
    let el = ops::generate_edges(scale);
    let server = Arc::new(RedisGraphServer::new(ServerConfig::default()));
    let load_started = Instant::now();
    server.graph(GRAPH_KEY).write().bulk_load(el.num_vertices, &el.edges);
    let bulk_load_s = load_started.elapsed().as_secs_f64();
    drop(el);
    let net = GraphServer::bind_with("127.0.0.1:0", server.clone())?;
    let mut client = RespClient::connect(net.local_addr())?;
    client.command(&["PING"])?;
    for op in &plan.warm {
        client.send(&op.command())?;
        client.read_reply()?;
    }
    let time = SetupTime { total_s: started.elapsed().as_secs_f64(), bulk_load_s };
    Ok((Instance { server, net }, time))
}

/// `GRAPH.INFO` over the socket, flattened to `field -> integer`.
pub fn fetch_info(addr: SocketAddr) -> io::Result<BTreeMap<String, i64>> {
    let reply = RespClient::connect(addr)?.command(&["GRAPH.INFO"])?;
    let mut fields = BTreeMap::new();
    let RespValue::Array(sections) = reply else { return Ok(fields) };
    for section in sections {
        let RespValue::Array(parts) = section else { continue };
        let Some(RespValue::Array(kvs)) = parts.get(1) else { continue };
        for pair in kvs.chunks(2) {
            if let [RespValue::BulkString(k), RespValue::Integer(v)] = pair {
                fields.insert(k.clone(), *v);
            }
        }
    }
    Ok(fields)
}

/// The part of a reply the oracle checks, extracted as soon as the reply is
/// timed so the reply itself need not be kept.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Digest {
    Count(u64),
    Rows {
        n: u64,
        sum: u64,
    },
    Write {
        created: u64,
        deleted: u64,
    },
    /// An `-ERR` reply, or one of the wrong shape.
    Bad(String),
}

/// Reduce a `GRAPH.QUERY` reply (`[header, rows, stats]`) to its digest.
pub fn digest(op: &Op, reply: &RespValue) -> Digest {
    let bad = || Digest::Bad(reply.to_string().chars().take(120).collect());
    let RespValue::Array(sections) = reply else { return bad() };
    let [_, RespValue::Array(rows), RespValue::Array(stats)] = sections.as_slice() else {
        return bad();
    };
    let cell = |row: &RespValue| match row {
        RespValue::Array(cells) => match cells.as_slice() {
            [RespValue::Integer(n)] => u64::try_from(*n).ok(),
            _ => None,
        },
        _ => None,
    };
    match op {
        Op::Khop { .. } | Op::PointLit(_) | Op::PointParam(_) => match rows.as_slice() {
            [row] => cell(row).map_or_else(bad, Digest::Count),
            _ => bad(),
        },
        Op::Chain2(_) => {
            let mut sum = 0u64;
            for row in rows {
                match cell(row) {
                    Some(id) => sum += id,
                    None => return bad(),
                }
            }
            Digest::Rows { n: rows.len() as u64, sum }
        }
        Op::Create { .. } | Op::Delete { .. } => {
            let stat = |label: &str| {
                stats.iter().find_map(|s| match s {
                    RespValue::BulkString(s) => s.strip_prefix(label)?.trim().parse::<u64>().ok(),
                    _ => None,
                })
            };
            match (stat("Relationships created:"), stat("Relationships deleted:")) {
                (Some(created), Some(deleted)) => Digest::Write { created, deleted },
                _ => bad(),
            }
        }
    }
}

/// Whether `got` is what the reference engine answers for `op`. A CREATE
/// must acknowledge exactly one relationship, a DELETE at least one (the
/// pair may have been created twice).
pub fn correct(op: &Op, got: &Digest, want: Expected) -> bool {
    match (got, want) {
        (Digest::Count(n), Expected::Count(want)) => *n == want,
        (Digest::Rows { n, sum }, Expected::Rows { n: wn, sum: ws }) => (*n, *sum) == (wn, ws),
        (Digest::Write { created, deleted }, Expected::Write) => match op {
            Op::Create { .. } => (*created, *deleted) == (1, 0),
            _ => *created == 0 && *deleted >= 1,
        },
        _ => false,
    }
}

/// Everything one connection observed.
#[derive(Default)]
pub struct ConnLog {
    /// Per reply, in arrival order: when the burst containing its request
    /// was sent and when it was decoded, in wall-clock seconds since the
    /// run's start. An op's latency is the distance between the two.
    times: Vec<(f64, f64)>,
    /// Replies received by the end of each whole round. The figures of a run
    /// are medians over its rounds (see [`Summary`]).
    round_ends: Vec<usize>,
    /// Replies checked against what the reference engine answered before the
    /// window, each right after its latency was taken. (Kept to be checked
    /// after the window, the digests of a fast run outgrew the memory set-up
    /// had already touched, and `peak_rss_mb` on `point_read` followed the
    /// number of requests completed: 188 MB at 328 k, 195 MB at 393 k.)
    pub verdict: Verdict,
    /// Relationships the writer's replies acknowledged.
    pub created: u64,
    pub deleted: u64,
    /// Traced runs only: every other burst records a span per reply, `(op
    /// index, burst sent, reply decoded)`, and the wall-clock latencies of
    /// span-recording and plain bursts are kept apart, so the overhead of
    /// recording is measured between neighbours in time rather than between
    /// two windows.
    pub spans: Vec<(u64, Instant, Instant)>,
    pub traced_ms: Vec<f64>,
    pub plain_ms: Vec<f64>,
    pub rows: u64,
    /// Requests sent whose reply never arrived (the connection died).
    pub lost: u64,
    /// The writer connection only: `VmHWM` at the end of its round
    /// [`RSS_ROUND`] (of its last one, in a run that holds fewer).
    pub peak_rss_mb: Option<f64>,
}

impl ConnLog {
    /// `span`: `None` in an untraced run, else whether this burst records.
    /// `want`: `None` beside a writer, where the graph changes under the
    /// reader and its replies only have to be well-formed counts.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        pace: &Pace,
        index: u64,
        op: &Op,
        reply: &RespValue,
        sent: Instant,
        span: Option<bool>,
        want: Option<Expected>,
    ) {
        let done = Instant::now();
        self.times.push((pace.at(sent), pace.at(done)));
        let ms = (done - sent).as_secs_f64() * 1e3;
        match span {
            Some(true) => {
                if self.spans.len() < MAX_SPANS_PER_CONN {
                    self.spans.push((index, sent, done));
                }
                self.traced_ms.push(ms);
            }
            Some(false) => self.plain_ms.push(ms),
            None => {}
        }
        let got = digest(op, reply);
        match got {
            Digest::Count(_) => self.rows += 1,
            Digest::Rows { n, .. } => self.rows += n,
            Digest::Write { created, deleted } => {
                self.created += created;
                self.deleted += deleted;
            }
            Digest::Bad(_) => {}
        }
        self.verdict.check(match want {
            Some(want) => correct(op, &got, want),
            None => matches!(got, Digest::Count(_)),
        });
    }

    /// Mark the end of a round. Connections stop at the round end nearest
    /// the end of the window (taking the next round to last as long as this
    /// one), so every round counted is a whole one and a run measures, on
    /// average, for as long as it was asked to.
    fn round_done(&mut self, pace: &Pace, round_began_s: f64, window_s: f64) -> bool {
        self.round_ends.push(self.times.len());
        let now = pace.wall_s();
        now + (now - round_began_s) / 2.0 >= window_s
    }
}

/// The writer round at whose end the mixed workloads read peak memory. How
/// many rounds fit a window follows the machine's speed, and every writer
/// round grows the process (203 MB after one, 232–238 after two, 237–256 after
/// three), so memory read after the window spread 6% where a timing spread 3%.
/// The second round's end is the same amount of work in every run, and holds
/// the first delta fold, which happens as the second round begins. (The
/// read-only workloads do the same work every round and read memory after the
/// window: the longer two connections run, the surer their largest replies
/// have coincided once.)
const RSS_ROUND: usize = 2;

/// Peak resident set of this process (server, client and oracle together).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Spans kept per connection: enough for any ladder arithmetic, and a bound
/// on `rgbench-trace.json`.
const MAX_SPANS_PER_CONN: usize = 50_000;

/// How far the writer connection has come, for the reader beside it: the
/// reader's rounds are the writer's, and it stops when the writer does.
#[derive(Default)]
struct WriterProgress {
    rounds: AtomicU64,
    finished: AtomicBool,
}

/// What every connection of a run is handed.
#[derive(Clone, Copy)]
struct Shared<'a> {
    addr: SocketAddr,
    window_s: f64,
    trace: bool,
    pace: &'a Pace,
    /// Releases all connections together.
    start: &'a Barrier,
    writer: &'a WriterProgress,
}

/// Closed loop over the fixed op list of connection `conn`: send a burst, read
/// its replies, repeat, round after round — its own rounds, or beside a writer
/// (no `expected`) the writer's. Connection 0 also takes the calibration
/// ticks.
fn drive_list(run: Shared, plan: &Plan, conn: usize, expected: Option<&[Expected]>) -> ConnLog {
    let (list, pipeline, round_len) = (&plan.lists[conn], plan.pipeline, plan.round_len);
    let (leads, beside_writer) = (conn == 0, expected.is_none());
    let Shared { addr, window_s, trace, pace, start, writer } = run;
    let bursts: Vec<Vec<u8>> = list
        .chunks(pipeline)
        .map(|ops| {
            let mut bytes = Vec::new();
            for op in ops {
                op.command().encode_into(&mut bytes);
            }
            bytes
        })
        .collect();
    let client = RespClient::connect(addr);
    start.wait();
    let mut log = ConnLog::default();
    let Ok(mut client) = client else {
        log.lost = 1;
        return log;
    };
    let mut writer_rounds = 0;
    let mut round_began_s = pace.wall_s();
    for pass in 0.. {
        for (b, bytes) in bursts.iter().enumerate() {
            let ops = &list[b * pipeline..list.len().min((b + 1) * pipeline)];
            // Alternate by burst, and flip every pass so no op is always on
            // one side.
            let span = trace.then_some((b + pass) % 2 == 1);
            let in_flight = pace.in_flight();
            let sent = Instant::now();
            let mut pending = ops.len() as u64;
            if client.send_raw(bytes).is_ok() {
                for (i, op) in ops.iter().enumerate() {
                    let Ok(reply) = client.read_reply() else { break };
                    let index = b * pipeline + i;
                    let want = expected.map(|e| e[index]);
                    log.record(pace, index as u64, op, &reply, sent, span, want);
                    pending -= 1;
                }
            }
            drop(in_flight);
            log.lost = pending;
            if pending > 0 {
                return log;
            }
            if leads {
                pace.tick();
            }
            if beside_writer {
                let rounds = writer.rounds.load(Ordering::SeqCst);
                if rounds > writer_rounds {
                    writer_rounds = rounds;
                    log.round_ends.push(log.times.len());
                }
                if writer.finished.load(Ordering::SeqCst) {
                    return log;
                }
            } else {
                let sent = list.len().min((b + 1) * pipeline);
                if sent.is_multiple_of(round_len) || sent == list.len() {
                    if log.round_done(pace, round_began_s, window_s) {
                        return log;
                    }
                    round_began_s = pace.wall_s();
                }
            }
        }
    }
    log
}

/// Closed loop over the writer's op sequence, for as many rounds of `round`
/// ops as the window is taken to hold (see [`ops::WRITER_ROUND_S`]).
fn drive_writer(run: Shared, vertices: u64, seed: u64, round: u64) -> ConnLog {
    let Shared { addr, window_s, trace, pace, start, writer: progress } = run;
    let rounds = ((window_s / ops::WRITER_ROUND_S).round() as usize).max(1);
    let client = RespClient::connect(addr);
    start.wait();
    let mut log = ConnLog::default();
    let Ok(mut client) = client else {
        log.lost = 1;
        progress.finished.store(true, Ordering::SeqCst);
        return log;
    };
    for index in 0.. {
        let op = ops::writer_op(vertices, seed, index);
        let frame = op.command().encode();
        let in_flight = pace.in_flight();
        let sent = Instant::now();
        let reply = client.send_raw(&frame).and_then(|()| client.read_reply());
        drop(in_flight);
        let Ok(reply) = reply else {
            log.lost = 1;
            break;
        };
        // Alternate by block of ten, so both sides hold the same mix of ops.
        let span = trace.then_some((index / ops::WRITE_BLOCK) % 2 == 1);
        log.record(pace, index, &op, &reply, sent, span, Some(Expected::Write));
        if (index + 1) % round == 0 {
            progress.rounds.fetch_add(1, Ordering::SeqCst);
            if log.round_ends.len() < RSS_ROUND {
                log.peak_rss_mb = peak_rss_mb().ok();
            }
            log.round_ends.push(log.times.len());
            if log.round_ends.len() == rounds {
                break;
            }
        }
    }
    progress.finished.store(true, Ordering::SeqCst);
    log
}

/// The logs of one timed run, and the clock they were taken on.
pub struct Traffic {
    pub lists: Vec<ConnLog>,
    pub writer: Option<ConnLog>,
    pub pace: Pace,
}

/// Run every connection of `plan` against `addr`, all released together.
pub fn run_traffic(
    addr: SocketAddr,
    plan: &Plan,
    data: &Dataset,
    window_s: f64,
    trace: bool,
) -> Traffic {
    // The reference engine answers every op before the window opens.
    let beside_writer = plan.writer_round.is_some();
    let expected: Vec<Option<Vec<Expected>>> = plan
        .lists
        .iter()
        .map(|list| (!beside_writer).then(|| list.iter().map(|op| data.expected(op)).collect()))
        .collect();
    let start = Barrier::new(plan.lists.len() + usize::from(plan.writer_round.is_some()));
    let progress = WriterProgress::default();
    let pace = Pace::start();
    let run = Shared { addr, window_s, trace, pace: &pace, start: &start, writer: &progress };
    let (lists, writer) = std::thread::scope(|scope| {
        let readers: Vec<_> = expected
            .iter()
            .enumerate()
            .map(|(conn, expected)| {
                scope.spawn(move || drive_list(run, plan, conn, expected.as_deref()))
            })
            .collect();
        let writer = plan
            .writer_round
            .map(|round| scope.spawn(move || drive_writer(run, data.vertices, plan.seed, round)));
        (
            readers.into_iter().map(|h| h.join().expect("reader thread")).collect(),
            writer.map(|h| h.join().expect("writer thread")),
        )
    });
    Traffic { lists, writer, pace }
}

/// Client-observed figures of one side of a run, on one clock (the reference
/// clock for the metrics, the wall clock for the `raw=` notes).
///
/// Besides its slow spells the sandbox has short ones: for a few seconds in
/// every ten or twenty everything runs ~30% slower. A mean over the window
/// would carry however much of such a burst the window happened to contain,
/// so each figure is the **median over rounds** of the round's own figure:
/// its completion rate, its p50, its p90.
pub struct Summary {
    /// Σ over connections of the median round's ops per second.
    pub qps: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// Whole rounds, over all connections.
    pub rounds: usize,
    /// Reply rows per second over the whole window.
    pub rows_per_s: f64,
    /// Every latency of the window in ms, ascending.
    pub sorted_ms: Vec<f64>,
}

impl Summary {
    /// `None` when no request completed.
    pub fn of(logs: &[&ConnLog], clock: &Reference) -> Option<Summary> {
        let (mut qps, mut rows_per_s) = (0.0, 0.0);
        let (mut p50s, mut p90s, mut sorted_ms) = (Vec::new(), Vec::new(), Vec::new());
        for log in logs.iter().filter(|l| !l.times.is_empty()) {
            let times: Vec<(f64, f64)> =
                log.times.iter().map(|&(sent, done)| (clock.at(sent), clock.at(done))).collect();
            // A run too short for one whole round is one round.
            let mut ends: Vec<usize> = log.round_ends.iter().copied().filter(|&e| e > 0).collect();
            ends.dedup();
            if ends.is_empty() {
                ends.push(times.len());
            }
            let mut rates = Vec::new();
            let (mut from, mut began_s) = (0, times[0].0);
            for to in ends {
                let ended_s = times[to - 1].1;
                rates.push((to - from) as f64 / (ended_s - began_s));
                let mut ms: Vec<f64> =
                    times[from..to].iter().map(|(sent, done)| (done - sent) * 1e3).collect();
                ms.sort_by(f64::total_cmp);
                p50s.push(percentile(&ms, 50.0));
                p90s.push(percentile(&ms, 90.0));
                (from, began_s) = (to, ended_s);
            }
            qps += median(&rates);
            let total_s = times[times.len() - 1].1 - times[0].0;
            rows_per_s += log.rows as f64 / total_s;
            sorted_ms.extend(times.iter().map(|(sent, done)| (done - sent) * 1e3));
        }
        if p50s.is_empty() {
            return None;
        }
        sorted_ms.sort_by(f64::total_cmp);
        Some(Summary {
            qps,
            p50_ms: median(&p50s),
            p90_ms: median(&p90s),
            rounds: p50s.len(),
            rows_per_s,
            sorted_ms,
        })
    }

    /// A percentile of the whole window's latencies.
    pub fn pct(&self, pct: f64) -> f64 {
        percentile(&self.sorted_ms, pct)
    }

    pub fn samples(&self) -> usize {
        self.sorted_ms.len()
    }
}

/// Ops attempted and ops that failed (lost, `-ERR`, or contradicting the
/// reference engine).
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
}

impl Verdict {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `n` requests whose reply never came.
    fn lost(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    pub fn add(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The verdict of a run: what its connections checked reply by reply, the
/// requests they lost, and the edge count.
///
/// Read-only workloads: every count and every row set must equal the
/// baseline's. Mixed workload: the graph changes under the reader, so its
/// replies only have to be well-formed counts; every CREATE must acknowledge
/// exactly one relationship, every DELETE at least one, and the final edge
/// count must equal the initial one plus acknowledged creates minus
/// acknowledged deletes.
pub fn verify(traffic: &Traffic, edges_before: usize, edges_after: usize) -> Verdict {
    let mut verdict = Verdict::default();
    for log in traffic.lists.iter().chain(&traffic.writer) {
        verdict.add(log.verdict);
        verdict.lost(log.lost);
    }
    let (created, deleted) = traffic.writer.as_ref().map_or((0, 0), |w| (w.created, w.deleted));
    verdict.check(edges_before as u64 + created == edges_after as u64 + deleted);
    verdict
}
