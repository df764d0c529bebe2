//! The per-layer ladder: the workloads' own ops replayed rung by rung —
//! graphblas kernels, the store, plan, plan + execute, `RedisGraphServer::
//! handle`, loopback TCP — each call inside a span. A layer's self time is
//! its rung minus the rung below; `wire.*` is that subtraction done here.
//!
//! The ladder runs on a served graph of its own (the second of the run's
//! set-ups), so its write rungs never disturb the workload under test, and
//! its op lists depend on `--seed` only, not on the workload selected.

use crate::ops::{self, Dataset, Expected, Op, Rng};
use crate::run::{correct, digest, fetch_info, Digest, Instance, Verdict};
use crate::spec::GRAPH_KEY;
use crate::stats::median;
use crate::trace::Tracer;
use graphblas::prelude::*;
use redisgraph_core::{Graph, QueryError, ResultSet};
use redisgraph_server::{
    normalize, Command, RespClient, RespValue, ServerConfig, StreamDecoder, ThreadPool,
};
use std::collections::BTreeMap;
use std::io;

/// Ops per rung, sized to take tens of milliseconds each — except the deep
/// k-hop ops, which cost milliseconds in the store but most of a second from
/// the executor up: two of them per rung.
const POINT_OPS: usize = 256;
const KHOP_OPS: [(u32, usize); 4] = [(1, 64), (2, 8), (3, 2), (6, 2)];
const CHAIN2_OPS: usize = 8;
const WRITE_OPS: u64 = 200;
const PENDING_INSERTS: usize = 9_000;
const PENDING_DELETES: usize = 1_000;
const BULK_ADDS: usize = 10_000;
const KERNEL_REPS: usize = 3;
const SNAPSHOT_REPS: usize = 5;
const MICRO_REPS: usize = 1_000;
const DECODE_REPS: usize = 200;
const ENCODE_REPS: usize = 5;

/// The ladder's op lists: prefixes of the workloads' own lists for `seed`.
pub struct LadderOps {
    khop: Vec<(u32, Vec<Op>)>,
    point: Vec<Op>,
    chain2: Vec<Op>,
    writes: Vec<Op>,
}

impl LadderOps {
    pub fn new(data: &Dataset, seed: u64) -> LadderOps {
        let prefix = |mut ops: Vec<Op>, n: usize| {
            ops.truncate(n);
            ops
        };
        let point = ops::point_ops(data, seed, 1).swap_remove(0);
        LadderOps {
            khop: KHOP_OPS
                .iter()
                .map(|&(k, n)| (k, prefix(ops::khop_ops(data, seed, k), n)))
                .collect(),
            point: prefix(point, POINT_OPS)
                .into_iter()
                .map(|op| match op {
                    Op::PointLit(v) => Op::PointParam(v),
                    other => other,
                })
                .collect(),
            chain2: prefix(ops::row_stream_ops(data, seed, 1).swap_remove(0), CHAIN2_OPS),
            writes: (0..3 * WRITE_OPS).map(|i| ops::writer_op(data.vertices, seed, i)).collect(),
        }
    }

    fn khop(&self, k: u32) -> &[Op] {
        &self.khop.iter().find(|(kk, _)| *kk == k).expect("k in KHOP_OPS").1
    }
}

/// Metric name → value, as the ladder fills it in.
pub type Metrics = BTreeMap<&'static str, f64>;

fn seed_vertex(op: &Op) -> u64 {
    match *op {
        Op::Khop { v, .. } | Op::PointLit(v) | Op::PointParam(v) | Op::Chain2(v) => v,
        Op::Create { a, .. } | Op::Delete { a, .. } => a,
    }
}

/// Run every rung against `inst`; returns how many cross-checks between
/// rungs and the baseline were made and how many failed.
pub fn run(
    inst: &Instance,
    data: &Dataset,
    ops: &LadderOps,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> io::Result<Verdict> {
    let mut verdict = Verdict::default();
    let graph: Graph = inst.server.graph(GRAPH_KEY).read().clone();
    graphblas_rungs(&graph, data, ops, tr, m, &mut verdict);
    store_rungs(&graph, data, ops, tr, m, &mut verdict);
    plan_and_exec_rungs(&graph, data, ops, tr, m, &mut verdict);
    drop(graph);
    server_and_wire_rungs(inst, data, ops, tr, m, &mut verdict)?;
    Ok(verdict)
}

fn graphblas_rungs(
    graph: &Graph,
    data: &Dataset,
    ops: &LadderOps,
    tr: &mut Tracer,
    m: &mut Metrics,
    verdict: &mut Verdict,
) {
    let adj = graph.adjacency_matrix();

    // The k=6 seeds' BFS levels, kernel by kernel, as `Graph::khop_reach` runs
    // them: a complement-masked vxm, then the visited set grown by ewise-add.
    let semiring = Semiring::<bool>::lor_land();
    let desc = Descriptor::new().with_mask_complement().with_mask_structure();
    let (mut hops, mut hop_us, mut frontier_nnz, mut edges_scanned) = (0u64, 0.0, 0u64, 0u64);
    let parent = tr.open("rung", 0, 0);
    for (i, op) in ops.khop(6).iter().enumerate() {
        let source = seed_vertex(op);
        let mut frontier = SparseVector::<bool>::new(graph.dim());
        frontier.set_element(source, true);
        let mut visited = frontier.clone();
        for _ in 0..6 {
            if frontier.is_empty() {
                break;
            }
            frontier_nnz += frontier.nvals() as u64;
            edges_scanned +=
                frontier.indices().iter().map(|&v| adj.row_degree(v) as u64).sum::<u64>();
            let id = tr.open("graphblas.vxm_hop", parent, i as u64);
            let next = vxm(&frontier, &adj, &semiring, Some(&VectorMask::new(&visited)), &desc);
            visited = ewise_add_vector(&visited, &next, &BinaryOp::LOr);
            hop_us += tr.close(id);
            hops += 1;
            frontier = next;
        }
        verdict.check(Expected::Count(visited.nvals() as u64 - 1) == data.expected(op));
    }
    tr.close(parent);
    m.insert("graphblas.vxm_hop_us", hop_us / hops.max(1) as f64);
    m.insert("graphblas.vxm_frontier_nnz", frontier_nnz as f64 / hops.max(1) as f64);
    m.insert("graphblas.vxm_edges_scanned", edges_scanned as f64);

    // The row_stream seeds' two hops as one frontier matrix times the LINK
    // counting matrix, twice: the product the fused traversal evaluates.
    let link = graph.schema.rel_type_id("LINK").expect("bulk_load creates LINK");
    let counts = graph.relation_count_matrix(link, false).expect("LINK has a matrix");
    let entries: Vec<(u64, u64)> =
        ops.chain2.iter().enumerate().map(|(i, op)| (i as u64, seed_vertex(op))).collect();
    let f = frontier_matrix::<u64>(entries.len() as u64, graph.dim(), &entries, 1);
    let flops = |a: &SparseMatrix<u64>| -> u64 {
        a.col_indices().iter().map(|&k| counts.row_degree(k) as u64).sum()
    };
    let plus_times = Semiring::<u64>::plus_times();
    let id = tr.open("graphblas.mxm_2hop", 0, 0);
    let hop1 = mxm(&f, &counts, &plus_times, None, &Descriptor::new());
    let hop2 = mxm(&hop1, &counts, &plus_times, None, &Descriptor::new());
    m.insert("graphblas.mxm_2hop_us", tr.close(id));
    m.insert("graphblas.mxm_flops", (flops(&f) + flops(&hop1)) as f64);
    let paths: u64 = hop2.raw_values().iter().sum();
    let want: u64 = ops
        .chain2
        .iter()
        .map(|op| match data.expected(op) {
            Expected::Rows { n, .. } => n,
            _ => 0,
        })
        .sum();
    verdict.check(paths == want);

    // A delta fold with 10 000 changes pending on a copy of the adjacency.
    let mut rng = Rng::new(data.edges_fnv, 200);
    let flush_us: Vec<f64> = (0..KERNEL_REPS)
        .map(|rep| {
            let mut dm = DeltaMatrix::from_matrix(adj.clone().into_owned());
            dm.set_flush_threshold(usize::MAX);
            let mut pending = 0;
            while pending < PENDING_INSERTS {
                let (r, c) = (rng.below(data.vertices), rng.below(data.vertices));
                if !dm.contains(r, c) {
                    dm.set_element(r, c, true);
                    pending += 1;
                }
            }
            let mut pending = 0;
            while pending < PENDING_DELETES.min(data.distinct_edges() / 2) {
                let r = rng.below(data.vertices);
                let out = data.base.out_neighbors(r);
                if out.is_empty() {
                    continue;
                }
                let c = out[rng.below(out.len() as u64) as usize];
                if dm.contains(r, c) {
                    dm.remove_element(r, c).expect("in bounds");
                    pending += 1;
                }
            }
            let id = tr.open("graphblas.flush_10k", 0, rep as u64);
            dm.flush();
            tr.close(id)
        })
        .collect();
    m.insert("graphblas.flush_10k_us", median(&flush_us));

    let reps: Vec<usize> = (0..KERNEL_REPS).collect();
    let transpose_us = tr.rung("graphblas.transpose", &reps, |_| transpose(&adj));
    m.insert("graphblas.transpose_us", median(&transpose_us));
}

fn store_rungs(
    graph: &Graph,
    data: &Dataset,
    ops: &LadderOps,
    tr: &mut Tracer,
    m: &mut Metrics,
    verdict: &mut Verdict,
) {
    for (k, us_name, ratio_name) in [
        (1, "store.khop_k1_us", None),
        (2, "store.khop_k2_us", Some("store.khop_k2_vs_baseline")),
        (3, "store.khop_k3_us", Some("store.khop_k3_vs_baseline")),
        (6, "store.khop_k6_us", Some("store.khop_k6_vs_baseline")),
    ] {
        let seeds = ops.khop(k);
        let mut counts = Vec::new();
        let us = tr.rung("store.khop_count", seeds, |op| {
            let n = graph.khop_count(seed_vertex(op), k);
            counts.push(n);
            n
        });
        for (op, n) in seeds.iter().zip(counts) {
            verdict.check(Expected::Count(n) == data.expected(op));
        }
        m.insert(us_name, median(&us));
        if let Some(ratio_name) = ratio_name {
            let base_us = tr
                .rung("baseline.khop_count", seeds, |op| data.base.khop_count(seed_vertex(op), k));
            m.insert(ratio_name, us.iter().sum::<f64>() / base_us.iter().sum::<f64>());
        }
    }

    // Buffered writes: 10 000 edges added with no fold in between, then the
    // fold of every matrix at once.
    let mut twin = graph.clone();
    twin.set_flush_threshold(usize::MAX);
    let mut rng = Rng::new(data.edges_fnv, 201);
    let pairs: Vec<(u64, u64)> =
        (0..BULK_ADDS).map(|_| (rng.below(data.vertices), rng.below(data.vertices))).collect();
    let id = tr.open("store.add_edge_x10k", 0, 0);
    for &(a, b) in &pairs {
        twin.add_edge(a, b, "LINK", vec![]).expect("both endpoints exist");
    }
    m.insert("store.add_edge_us", tr.close(id) / BULK_ADDS as f64);
    let id = tr.open("store.sync_matrices", 0, 0);
    twin.sync_matrices();
    m.insert("store.sync_matrices_10k_us", tr.close(id));

    // What a reader pays right after a write: the snapshot, and the first
    // read on it.
    let point = ops.point[0].literal_text();
    let (mut snapshot_us, mut first_read_us) = (Vec::new(), Vec::new());
    for (rep, &(a, b)) in pairs.iter().take(SNAPSHOT_REPS).enumerate() {
        twin.add_edge(b, a, "LINK", vec![]).expect("both endpoints exist");
        let id = tr.open("store.snapshot", 0, rep as u64);
        let snapshot = twin.snapshot();
        snapshot_us.push(tr.close(id));
        let id = tr.open("store.snapshot_first_read", 0, rep as u64);
        let rs = snapshot.query_readonly(&point);
        first_read_us.push(tr.close(id));
        verdict.check(rs.is_ok());
    }
    m.insert("store.snapshot_us", median(&snapshot_us));
    m.insert("store.snapshot_first_read_us", median(&first_read_us));
}

fn plan_and_exec_rungs(
    graph: &Graph,
    data: &Dataset,
    ops: &LadderOps,
    tr: &mut Tracer,
    m: &mut Metrics,
    verdict: &mut Verdict,
) {
    let writes = &ops.writes[..WRITE_OPS as usize];
    for (name, list) in [
        ("plan.point_us", &ops.point[..]),
        ("plan.khop_us", ops.khop(1)),
        ("plan.chain2_us", &ops.chain2[..]),
        ("plan.write_us", writes),
    ] {
        let us = tr.rung("plan.explain", list, |op| graph.explain(&op.literal_text()).is_ok());
        m.insert(name, median(&us));
    }

    // One digest type for every rung: a result set reduced the way a reply is.
    let mut check = |op: &Op, rs: Result<ResultSet, QueryError>| -> u64 {
        let got = match (rs, data.expected(op)) {
            (Err(e), _) => Digest::Bad(e.to_string()),
            (Ok(rs), Expected::Count(_)) => rs
                .scalar()
                .and_then(|v| u64::try_from(v.as_i64()?).ok())
                .map_or(Digest::Bad("not a count".to_string()), Digest::Count),
            (Ok(rs), Expected::Rows { .. }) => Digest::Rows {
                n: rs.rows.len() as u64,
                sum: rs.rows.iter().filter_map(|r| r[0].as_i64()).sum::<i64>() as u64,
            },
            (Ok(rs), Expected::Write) => Digest::Write {
                created: rs.stats.relationships_created as u64,
                deleted: rs.stats.relationships_deleted as u64,
            },
        };
        verdict.check(correct(op, &got, data.expected(op)));
        match got {
            Digest::Rows { n, .. } => n,
            _ => 1,
        }
    };

    let snapshot = graph.snapshot();
    let mut exec = |name: &'static str, list: &[Op], tr: &mut Tracer| -> (Vec<f64>, u64) {
        let mut results = Vec::new();
        let us = tr.rung(name, list, |op| {
            results.push(snapshot.query_readonly(&op.literal_text()));
        });
        (us, list.iter().zip(results).map(|(op, rs)| check(op, rs)).sum())
    };
    let (us, _) = exec("exec.point", &ops.point, tr);
    m.insert("exec.point_us", median(&us));
    for (k, name) in [
        (1, "exec.khop_k1_us"),
        (2, "exec.khop_k2_us"),
        (3, "exec.khop_k3_us"),
        (6, "exec.khop_k6_us"),
    ] {
        let (us, _) = exec("exec.khop", ops.khop(k), tr);
        m.insert(name, median(&us));
    }
    m.insert("exec.khop_k6_vs_store", m["exec.khop_k6_us"] / m["store.khop_k6_us"]);
    let (us, rows) = exec("exec.chain2", &ops.chain2, tr);
    m.insert("exec.chain2_us", median(&us));
    m.insert("exec.chain2_rows_per_s", rows as f64 / (us.iter().sum::<f64>() / 1e6));

    let mut twin = graph.clone();
    let mut results = Vec::new();
    let us = tr.rung("exec.write", writes, |op| results.push(twin.query(&op.literal_text())));
    for (op, rs) in writes.iter().zip(results) {
        check(op, rs);
    }
    m.insert("exec.write_us", median(&us));
}

fn server_and_wire_rungs(
    inst: &Instance,
    data: &Dataset,
    ops: &LadderOps,
    tr: &mut Tracer,
    m: &mut Metrics,
    verdict: &mut Verdict,
) -> io::Result<()> {
    // `handle` and TCP run the same ops, except that the two write rungs use
    // disjoint stretches of the writer's sequence.
    let w = WRITE_OPS as usize;
    let k6 = ops.khop(6);
    let rungs: [(&[Op], &[Op], [&'static str; 3]); 4] = [
        (&ops.point, &ops.point, ["server.handle_point_us", "wire.tcp_point_us", "wire.point_us"]),
        (k6, k6, ["server.handle_khop_k6_us", "wire.tcp_khop_k6_us", "wire.khop_k6_us"]),
        (
            &ops.chain2,
            &ops.chain2,
            ["server.handle_chain2_us", "wire.tcp_chain2_us", "wire.chain2_us"],
        ),
        (
            &ops.writes[w..2 * w],
            &ops.writes[2 * w..],
            ["server.handle_write_us", "wire.tcp_write_us", "wire.write_us"],
        ),
    ];
    let mut client = RespClient::connect(inst.addr())?;
    let mut biggest_reply: Option<(u64, RespValue)> = None;
    for (handle_list, tcp_list, [handle_name, tcp_name, wire_name]) in rungs {
        let mut replies = Vec::new();
        let handle_us = tr.rung("server.handle", handle_list, |op| {
            replies.push(inst.server.handle(&op.command()));
        });
        for (op, reply) in handle_list.iter().zip(replies) {
            let got = digest(op, &reply);
            verdict.check(correct(op, &got, data.expected(op)));
            if let Digest::Rows { n, .. } = got {
                if biggest_reply.as_ref().is_none_or(|(rows, _)| n > *rows) {
                    biggest_reply = Some((n, reply));
                }
            }
        }
        let before = fetch_info(inst.addr())?;
        let mut replies = Vec::new();
        let tcp_us = tr.rung("tcp.request", tcp_list, |op| {
            replies.push(client.send(&op.command()).and_then(|()| client.read_reply()));
        });
        let after = fetch_info(inst.addr())?;
        let mut rows = 0u64;
        for (op, reply) in tcp_list.iter().zip(replies) {
            let got = digest(op, &reply?);
            verdict.check(correct(op, &got, data.expected(op)));
            if let Digest::Rows { n, .. } = got {
                rows += n;
            }
        }
        if rows > 0 {
            // GRAPH.INFO's own reply to `before` is in the delta; it is a few
            // hundred bytes against megabytes of rows.
            let bytes = after["bytes_out"] - before["bytes_out"];
            m.insert("server.bytes_out_per_row", bytes as f64 / rows as f64);
        }
        m.insert(handle_name, median(&handle_us));
        m.insert(tcp_name, median(&tcp_us));
        m.insert(wire_name, median(&tcp_us) - median(&handle_us));
    }

    // The parts of `handle` that can be called on their own.
    let commands: Vec<RespValue> = ops.point.iter().map(Op::command).collect();
    let us = tr.rung("server.command_parse", &commands, |c| Command::parse(c).is_ok());
    m.insert("server.command_parse_us", median(&us));
    let bodies: Vec<String> = ops.point.iter().map(Op::literal_text).collect();
    let us = tr.rung("server.normalize", &bodies, |b| normalize(b));
    m.insert("server.normalize_us", median(&us));
    let pool = ThreadPool::new(ServerConfig::default().thread_count);
    let reps: Vec<usize> = (0..MICRO_REPS).collect();
    let us = tr.rung("server.pool_roundtrip", &reps, |_| pool.execute_blocking(|| ()));
    m.insert("server.pool_roundtrip_us", median(&us));
    drop(pool);
    let mut burst = Vec::new();
    for c in commands.iter().take(ops::PIPELINE_DEPTH) {
        c.encode_into(&mut burst);
    }
    let us = tr.rung("server.resp_decode_burst16", &reps[..DECODE_REPS], |_| {
        StreamDecoder::new().feed(&burst).0.len()
    });
    m.insert("server.resp_decode_burst16_us", median(&us));
    let (rows, reply) = biggest_reply.expect("the chain2 rung ran");
    let mut bytes = 0usize;
    let us = tr.rung("server.resp_encode", &reps[..ENCODE_REPS], |_| {
        let mut out = Vec::new();
        reply.encode_into(&mut out);
        bytes = out.len();
    });
    m.insert("server.resp_encode_us_per_krow", median(&us) / (rows.max(1) as f64 / 1e3));
    m.insert("server.resp_encode_mb_s", bytes as f64 / median(&us));
    Ok(())
}
