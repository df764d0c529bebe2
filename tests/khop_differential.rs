//! Store-level differential for `Graph::khop_reached`, the direction-optimising
//! bitmap BFS behind every variable-length traversal: its reached set must
//! equal a plain queue BFS over the live edge list, for every direction,
//! typed and untyped, `min_hops` ∈ {0, 1, 2}, bounded and unbounded.
//!
//! Four graph families: sparse random multigraphs (self-loops, parallel and
//! cross-type edges), whose hops stay on the push step; a dense family
//! whose source has an edge to every other node, so the first outgoing hop
//! provably takes the pull step (Beamer's rule pulls once the frontier's
//! edges exceed 1/6 of the unexplored ones) and, on the larger sizes, the
//! second hop pulls too; a family over three 1 024-row matrix leaves whose
//! pulls cross leaves folded before the last writes and leaves those writes
//! left dirty; and a star of stars over the same leaves, whose second hop
//! pushes a frontier of more than 1/64 of the vertices, so the push's
//! bitmap of reached vertices fills words in every leaf. Every graph is checked unflushed (merged delta views),
//! after a node deletion, and flushed; the untyped outgoing case is also
//! checked against the `baseline` crate's own `khop_set`.

use baseline::AdjacencyListGraph;
use proptest::prelude::*;
use redisgraph_core::{Graph, TraverseDir};

const RELS: [&str; 3] = ["T0", "T1", "T2"];
const DIRS: [TraverseDir; 3] = [TraverseDir::Outgoing, TraverseDir::Incoming, TraverseDir::Both];

/// A graph and the edge list it holds, as `(src, dst, rel index)`.
struct Case {
    graph: Graph,
    nodes: u64,
    edges: Vec<(u64, u64, usize)>,
}

impl Case {
    fn new(nodes: u64) -> Case {
        let mut graph = Graph::new("khop");
        // Keep every write buffered: reads run on merged delta views.
        graph.set_flush_threshold(usize::MAX);
        for _ in 0..nodes {
            graph.add_node(&["N"], vec![]);
        }
        Case { graph, nodes, edges: Vec::new() }
    }

    fn add_edge(&mut self, src: u64, dst: u64, rel: usize) {
        self.graph.add_edge(src, dst, RELS[rel], vec![]).expect("live endpoints");
        self.edges.push((src, dst, rel));
    }

    fn delete_node(&mut self, node: u64) {
        assert!(self.graph.delete_node(node));
        self.edges.retain(|&(s, d, _)| s != node && d != node);
    }
}

/// The oracle: a queue BFS over the edge list, giving every vertex's
/// first-reach hop (`None` when unreachable).
fn oracle_hops(
    case: &Case,
    source: u64,
    dir: TraverseDir,
    rels: Option<&[usize]>,
) -> Vec<Option<u32>> {
    let mut out_edges = vec![Vec::new(); case.nodes as usize];
    for &(s, d, r) in &case.edges {
        if rels.is_some_and(|rs| !rs.contains(&r)) {
            continue;
        }
        if matches!(dir, TraverseDir::Outgoing | TraverseDir::Both) {
            out_edges[s as usize].push(d);
        }
        if matches!(dir, TraverseDir::Incoming | TraverseDir::Both) {
            out_edges[d as usize].push(s);
        }
    }
    let mut hops = vec![None; case.nodes as usize];
    hops[source as usize] = Some(0u32);
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        let h = hops[u as usize].expect("queued vertices have a hop count");
        for &v in &out_edges[u as usize] {
            if hops[v as usize].is_none() {
                hops[v as usize] = Some(h + 1);
                queue.push_back(v);
            }
        }
    }
    hops
}

/// Hop ranges `(min_hops, max_hops)` checked on a flushed graph: every
/// `min_hops` ∈ {0, 1, 2} against bounded and unbounded (`u32::MAX`, the
/// store-level `*`) maxima.
const ALL_RANGES: [(u32, u32); 10] = [
    (0, 0),
    (0, 1),
    (0, 2),
    (0, u32::MAX),
    (1, 1),
    (1, 2),
    (1, u32::MAX),
    (2, 1),
    (2, 2),
    (2, u32::MAX),
];
/// The subset checked on merged delta views, each of which costs a merge.
const DELTA_RANGES: [(u32, u32); 2] = [(0, 2), (2, u32::MAX)];

/// Every direction × relation selection × hop range from a few sources.
fn check(case: &Case, sources: &[u64], ranges: &[(u32, u32)]) -> Result<(), TestCaseError> {
    let g = &case.graph;
    // Relation selections by index into RELS; types no edge has yet are
    // absent from the schema and match nothing.
    let selections: [Option<Vec<usize>>; 4] =
        [None, Some(vec![0]), Some(vec![1, 2]), Some(Vec::new())];
    for &source in sources {
        for dir in DIRS {
            for rels in &selections {
                let ids: Option<Vec<usize>> = rels
                    .as_ref()
                    .map(|rs| rs.iter().filter_map(|&r| g.schema.rel_type_id(RELS[r])).collect());
                let hops = oracle_hops(case, source, dir, rels.as_deref());
                for &(min_hops, max_hops) in ranges {
                    let got: Vec<u64> = g
                        .khop_reached(source, min_hops, max_hops, dir, ids.as_deref())
                        .iter()
                        .collect();
                    let want: Vec<u64> = (0..case.nodes)
                        .filter(|&v| {
                            hops[v as usize].is_some_and(|h| (min_hops..=max_hops).contains(&h))
                        })
                        .collect();
                    prop_assert_eq!(
                        got,
                        want,
                        "khop_reached({}, {}..{}, {:?}, {:?})",
                        source,
                        min_hops,
                        max_hops,
                        dir,
                        rels
                    );
                }
            }
        }
    }
    // The baseline crate's own k-hop BFS (outgoing, untyped, `*1..k`).
    let mut dedup: Vec<(u64, u64)> =
        case.edges.iter().map(|&(s, d, _)| (s, d)).filter(|&(s, d)| s != d).collect();
    dedup.sort_unstable();
    dedup.dedup();
    let base = AdjacencyListGraph::from_edge_list(case.nodes, &dedup);
    for &source in sources {
        for k in [2, 6] {
            let got = g.khop_reached(source, 1, k, TraverseDir::Outgoing, None);
            prop_assert_eq!(got.iter().collect::<Vec<_>>(), base.khop_set(source, k), "khop_set");
        }
    }
    Ok(())
}

/// Delete a node while every write is still buffered and check the merged
/// views from the first source; then flush and check exhaustively. The deleted node stays a valid
/// source: it reaches only itself.
fn check_lifecycle(mut case: Case, sources: &[u64], victim: u64) -> Result<(), TestCaseError> {
    case.delete_node(victim);
    prop_assert!(case.edges.is_empty() || case.graph.has_pending_deltas());
    check(&case, &sources[..1], &DELTA_RANGES)?;
    case.graph.sync_matrices();
    prop_assert!(!case.graph.has_pending_deltas());
    check(&case, sources, &ALL_RANGES)
}

proptest! {
    #[test]
    fn khop_reach_matches_bfs_on_sparse_multigraphs(
        nodes in 1u64..40,
        raw_edges in prop::collection::vec((any::<u64>(), any::<u64>(), 0usize..3), 0..80),
        picks in prop::collection::vec(any::<u64>(), 3),
    ) {
        let mut case = Case::new(nodes);
        for &(s, d, r) in &raw_edges {
            case.add_edge(s % nodes, d % nodes, r);
        }
        let sources: Vec<u64> = picks.iter().map(|p| p % nodes).collect();
        check_lifecycle(case, &sources, picks[0] % nodes)?;
    }

    #[test]
    fn khop_reach_matches_bfs_when_the_first_hop_pulls(
        size_pick in 0usize..2,
        raw_edges in prop::collection::vec((any::<u64>(), any::<u64>(), 0usize..3), 0..200),
        victim_pick in any::<u64>(),
    ) {
        // Hub 0 points at every other node through two of the three types,
        // so its edges stay over 1/6 of the graph's beside 200 random ones;
        // a 699-node frontier is ≥ 1/48 of the 16 384-wide matrix, so the
        // larger size pulls at hop 2 too.
        let nodes = [24u64, 700][size_pick];
        let mut case = Case::new(nodes);
        for v in 1..nodes {
            case.add_edge(0, v, (v % 3) as usize);
            case.add_edge(0, v, ((v + 1) % 3) as usize);
        }
        for &(s, d, r) in &raw_edges {
            case.add_edge(s % nodes, d % nodes, r);
        }
        // Beamer's push→pull test at hop 1 of the untyped outgoing BFS, on
        // what it reads: degrees and entry counts summed over the relations.
        let (mut hub_degree, mut nvals) = (0, 0);
        for rel in 0..case.graph.relation_type_count() {
            let m = case.graph.relation_matrix(rel).expect("exists");
            hub_degree += m.row_degree(0) as u64;
            nvals += m.nvals() as u64;
        }
        prop_assert!(hub_degree * 6 > nvals);
        // The hub's own deletion would leave nothing to pull through.
        let victim = 1 + victim_pick % (nodes - 1);
        check_lifecycle(case, &[0, 1], victim)?;
    }

    #[test]
    fn khop_reach_matches_bfs_when_a_pull_crosses_folded_and_dirty_leaves(
        folded in prop::collection::vec((any::<u64>(), any::<u64>(), 0usize..3), 0..300),
        dirty in prop::collection::vec((0u64..2, any::<u64>(), any::<u64>(), 0usize..3), 1..60),
        victim_pick in any::<u64>(),
    ) {
        // Hub 0 points at every third node, 866 of them across all three
        // leaves: Beamer's rule pulls hop 1 (866 · 6 exceeds the ≤ 1 225
        // edges), and hop 2 too (866 ≥ 16 384 / 48).
        let nodes = 2_600u64;
        let mut case = Case::new(nodes);
        for v in (1..nodes).step_by(3) {
            case.add_edge(0, v, (v % 3) as usize);
        }
        for &(s, d, r) in &folded {
            case.add_edge(s % nodes, d % nodes, r);
        }
        case.graph.sync_matrices();
        // The last writes land in leaf 0 or leaf 2 of each transpose, the
        // matrices an outgoing pull walks, and leave its leaf 1 as the fold
        // left it: rows that had no edge gain one, and the victim's deletion
        // empties its rows.
        for &(leaf, s, d, r) in &dirty {
            let (s, d) = (s % nodes, leaf * 2_048 + d % 552);
            case.add_edge(s, d, r);
        }
        prop_assert!(866 * 6 > case.graph.edge_count());
        let victim = 1 + victim_pick % (nodes - 1);
        check_lifecycle(case, &[0, 1], victim)?;
    }

    #[test]
    fn khop_reach_matches_bfs_when_a_push_frontier_spans_every_leaf(
        folded in prop::collection::vec((any::<u64>(), any::<u64>(), 0usize..3), 0..100),
        dirty in prop::collection::vec((0u64..2, 0u64..60, any::<u64>(), 0usize..3), 1..40),
        victim_pick in any::<u64>(),
    ) {
        // Hub 0 points at the 325 centres 1, 9, 17, … across all three
        // leaves, each centre at its next two nodes, and every node with
        // `v % 8 ≥ 3` at three others: the centres' 650 edges are under 1/6
        // of the ~5 500 left unexplored, so hop 2 pushes 325 > 16 384 / 64
        // vertices.
        let nodes = 2_600u64;
        let mut case = Case::new(nodes);
        for c in (1..nodes).step_by(8) {
            case.add_edge(0, c, (c % 3) as usize);
            for leaf in [c + 1, c + 2] {
                case.add_edge(c, leaf, (leaf % 3) as usize);
            }
        }
        for v in (0..nodes).filter(|v| v % 8 >= 3) {
            for k in 1..=3 {
                case.add_edge(v, (v * 7 + k * 131) % nodes, k as usize - 1);
            }
        }
        for &(s, d, r) in &folded {
            case.add_edge(s % nodes, d % nodes, r);
        }
        case.graph.sync_matrices();
        // The last writes leave centres' rows in leaf 0 or leaf 2 dirty.
        for &(leaf, centre, d, r) in &dirty {
            case.add_edge(leaf * 2_048 + 1 + 8 * centre, d % nodes, r);
        }
        // Beamer's push test at hops 1 and 2 of the untyped outgoing BFS,
        // on the degrees and entry counts it reads.
        let matrices: Vec<_> = (0..case.graph.relation_type_count())
            .map(|rel| case.graph.relation_matrix(rel).expect("exists"))
            .collect();
        let degree = |v: u64| matrices.iter().map(|m| m.row_degree(v) as u64).sum::<u64>();
        let nvals: u64 = matrices.iter().map(|m| m.nvals() as u64).sum();
        let mut centres: Vec<u64> =
            case.edges.iter().filter(|&&(s, d, _)| s == 0 && d != 0).map(|&(_, d, _)| d).collect();
        centres.sort_unstable();
        centres.dedup();
        let frontier_edges: u64 = centres.iter().map(|&c| degree(c)).sum();
        prop_assert!(degree(0) <= nvals / 6, "hop 1 pushes");
        prop_assert!(frontier_edges <= (nvals - degree(0)) / 6, "hop 2 pushes");
        prop_assert!(centres.len() as u64 > case.graph.dim() / 64);
        let victim = 1 + victim_pick % (nodes - 1);
        check_lifecycle(case, &[0, 1], victim)?;
    }
}
