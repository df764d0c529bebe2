//! The matrix-backed property graph object — RedisGraph's `Graph` struct.
//!
//! Layout (exactly as described in the paper and the RedisGraph architecture
//! docs):
//!
//! * one **relation matrix per relationship type** whose stored values are
//!   edge ids (so traversals can recover the traversed edge entity), plus its
//!   transpose for reverse traversals — the only stored edge patterns: an
//!   untyped hop, and every `algo.*` procedure, reads every type's matrix
//!   and takes their union as it goes. A cell holding
//!   parallel same-type edges stores `LIST_TAG | slot` instead, naming an
//!   ascending edge-id list in a slot arena (RedisGraph 2.x's multi-edge
//!   cells). The transpose holds the pattern alone: a backward
//!   step that binds an edge finds each in-neighbour in the transpose's row
//!   and reads the cell from the neighbour's forward row. A backward count
//!   reads that cell only for a pair whose cell holds a list: each relation
//!   keeps the pattern of its tagged cells, transposed, beside it;
//! * one **label matrix per label**, a pattern with a diagonal entry for
//!   every node carrying that label: the only record of a node's labels;
//! * each node's property set alone in a slot whose index *is* the matrix
//!   row/column index, and each edge's property set, if it has one, in a
//!   slot named by its edge id; an edge without properties has no slot. An
//!   edge's endpoints and type are the relation cell that holds its id, and
//!   nowhere else: a traversal that finds an edge carries them in its
//!   [`Value::Edge`], as RedisGraph's `Edge` does, and the value reads as
//!   that edge only while the cell still holds the id. A stored edge without
//!   properties is one 12-byte entry of its relation (a `u32` column and the
//!   cell) and one 4-byte entry of the transpose; a node is a 16-byte slot
//!   and one 4-byte entry per label.
//!
//! All matrices share one dimension, grown in chunks as nodes are added.
//!
//! Every matrix is a [`DeltaMatrix`]: 1 024-row leaves, each an immutable CSR
//! slice plus pending-insert/pending-delete buffers that a mutation appends
//! to in O(log pending) instead of rebuilding CSR structures. The transposed
//! matrices are maintained incrementally (a new cell buffers `(dst, src)`
//! into the transpose) rather than recomputed after every write query.
//! Every reader sees the merged `main ∪ Δ⁺ \ Δ⁻` view in place, a
//! row at a time or in one walk of the leaves, merging only rows with
//! pending changes, so no read needs a flush or a whole-matrix copy. A leaf
//! folds its buffers into a fresh leaf alone, once its
//! pending inserts and deletes reach its share of [`Graph::flush_threshold`]
//! (`DELTA_MAX_PENDING_CHANGES`, which so caps each matrix's pending
//! changes), or explicitly via [`Graph::sync_matrices`]. Rewriting a stored
//! cell's value (a parallel-edge list taking over a cell, or giving it back)
//! is buffered too, but does not count: it changes no entry's presence. It
//! inserts or deletes the pair in the relation's list pattern, which does.
//!
//! [`Graph::snapshot`] pins each matrix's copy-on-write table of leaves,
//! and the slot blocks', into a [`GraphSnapshot`] that concurrent readers
//! query without holding any lock, while writers copy the leaves they touch
//! and publish folded leaves beside the pinned ones. A leaf is freed when
//! the last snapshot holding it drops.

use crate::error::QueryError;
use crate::exec::plan::{ExecutionPlan, GraphAccess, OpProfile, ParamValues, Params};
use crate::exec::resultset::ResultSet;
use crate::store::datablock::{IdAlloc, Slots};
use crate::store::entity::AttributeSet;
use crate::store::schema::{AttributeId, LabelId, RelTypeId, Schema};
use crate::value::Value;
use crate::{EdgeId, NodeId};
use graphblas::delta::Leaf;
use graphblas::prelude::*;
use std::borrow::Cow;
use std::mem::size_of;
use std::sync::Arc;
use std::time::Instant;

/// Matrices are grown in chunks of this many rows/columns so that node
/// insertion does not resize on every call (RedisGraph uses 16384).
const GROW_CHUNK: u64 = 16_384;

/// The top bit of a relation cell: clear, the cell is the one edge id it
/// holds; set, the other bits are a slot of [`Graph`]'s `edge_lists`. Edge
/// ids come from an [`IdAlloc`], far below this bit.
const LIST_TAG: u64 = 1 << 63;

/// Traversal direction at the storage level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraverseDir {
    /// Follow edges from source to destination.
    Outgoing,
    /// Follow edges backwards.
    Incoming,
    /// Follow edges in both directions.
    Both,
}

impl TraverseDir {
    /// A stored matrix `m` and its stored transpose `t` as the pairs one hop
    /// in this direction reads.
    fn pairs<'a>(self, m: &'a DeltaMatrix<u64>, t: &'a DeltaMatrix<()>) -> Vec<MatrixPair<'a>> {
        match self {
            TraverseDir::Outgoing => vec![MatrixPair::Forward(m, t)],
            TraverseDir::Incoming => vec![MatrixPair::Backward(t, m)],
            TraverseDir::Both => vec![MatrixPair::Forward(m, t), MatrixPair::Backward(t, m)],
        }
    }
}

/// One relation's stored matrices as a hop in one direction reads them:
/// the matrix a push step scans the frontier's rows of, and its transpose,
/// which a pull step walks. The relation matrix holds the cells and its
/// stored transpose only the pattern, so a forward and a backward pair hold
/// two value types in opposite order, and each kernel call is generic over
/// its own matrix's.
#[derive(Clone, Copy)]
enum MatrixPair<'a> {
    Forward(&'a DeltaMatrix<u64>, &'a DeltaMatrix<()>),
    Backward(&'a DeltaMatrix<()>, &'a DeltaMatrix<u64>),
}

impl MatrixPair<'_> {
    /// The relation's edges.
    fn nvals(self) -> u64 {
        let (MatrixPair::Forward(m, _) | MatrixPair::Backward(_, m)) = self;
        m.nvals() as u64
    }

    /// The push matrix's degrees of `rows`, summed.
    fn degree_sum(self, rows: &[NodeId]) -> u64 {
        match self {
            MatrixPair::Forward(m, _) => m.degree_sum(rows),
            MatrixPair::Backward(t, _) => t.degree_sum(rows),
        }
    }

    /// A push step's scan of the push matrix's `frontier` rows into
    /// `reached` ([`bfs_scan`]).
    fn scan(self, frontier: &[NodeId], reached: &mut Reached) {
        match self {
            MatrixPair::Forward(m, _) => bfs_scan(m, frontier, reached),
            MatrixPair::Backward(t, _) => bfs_scan(t, frontier, reached),
        }
    }

    /// A pull step through the push matrix's transpose ([`bfs_pull`]).
    fn pull(self, frontier: &Bitmap, visited: &mut Bitmap, next: &mut Vec<NodeId>) {
        match self {
            MatrixPair::Forward(_, t) => bfs_pull(t, frontier, visited, next),
            MatrixPair::Backward(_, m) => bfs_pull(m, frontier, visited, next),
        }
    }
}

/// Beamer's direction-switching rule (SC'12): a push hop turns to pull once
/// the frontier's edges exceed `1/PULL_ALPHA` of the edges not yet explored,
/// and a pull hop turns back to push once the frontier holds fewer than
/// `1/PUSH_BETA` of the vertices. SC'12 tuned α = 14, β = 24 for its own
/// kernels; these are re-derived from `examples/khop_hops.rs`, which times
/// both of this crate's kernels from each hop's state on rgbench's Graph500
/// graphs at scales 15 and 18. Push is the cheaper direction at frontier
/// edge shares up to 0.09 of the unexplored edges (heavy seeds' hop 2), and
/// pull from 0.38 up (typical seeds' hop 3), so α = 6 splits them. After a
/// pull, pull stays cheaper at frontiers of 1 348 of 32 768 vertices and
/// push at 2 474 of 262 144, so β = 48 splits those.
const PULL_ALPHA: u64 = 6;
const PUSH_BETA: u64 = 48;

/// Whether a BFS hop pulls, by Beamer's rule, after a hop that `pulled`.
pub fn beamer_pulls(
    pulled: bool,
    frontier: u64,
    frontier_edges: u64,
    unexplored: u64,
    dim: u64,
) -> bool {
    if pulled {
        frontier >= dim / PUSH_BETA
    } else {
        frontier_edges > unexplored / PULL_ALPHA
    }
}

/// Bytes each of a [`Graph`]'s stores holds ([`Graph::storage_bytes`]).
/// Matrices count their leaves' CSR arrays (a fold or a bulk load leaves no
/// pending buffer); slot stores count their allocated blocks plus the
/// attribute entries and edge-id lists their slots own, but no string
/// payload; the free-id stacks and allocator overhead are not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageBytes {
    /// The relation matrices: one edge-id cell per connected pair and type.
    pub relations: usize,
    /// Their stored transposes: the pattern alone.
    pub transposes: usize,
    /// The label matrices: the pattern alone.
    pub labels: usize,
    /// The edge attribute slots: a 64-slot block only where an edge has a
    /// property, so none for a graph whose edges have none.
    pub edge_slots: usize,
    /// The node attribute slots.
    pub node_slots: usize,
    /// The parallel-edge lists, and the pattern of the cells naming them.
    pub edge_lists: usize,
}

/// A property graph stored as GraphBLAS sparse matrices.
#[derive(Debug, Clone)]
pub struct Graph {
    name: Arc<str>,
    /// Label / relationship type / attribute registries, shared with every
    /// snapshot and copied only when a name is created.
    pub schema: Arc<Schema>,
    /// Node ids, and the live-node count.
    node_ids: IdAlloc,
    /// Each live node's property set, at its node id: a 16-byte slot,
    /// whose labels are the label diagonals that hold the id.
    nodes: Slots<AttributeSet>,
    /// The ids the relation cells hold, and the live-edge count.
    edge_ids: IdAlloc,
    /// The property set of each edge that has a property, at its edge id:
    /// an edge's endpoints and type are the relation cells that name the
    /// id, and an edge without properties has no slot.
    edge_attrs: Slots<AttributeSet>,
    dim: u64,
    relation_matrices: Vec<DeltaMatrix<u64>>,
    /// Each relation matrix's transpose: its pattern, no cell.
    relation_matrices_t: Vec<DeltaMatrix<()>>,
    /// Parallel same-type edges: the ascending edge-id list of every
    /// relation cell that holds **two or more** edges, at the slot its
    /// tagged cell (`LIST_TAG | slot`) names in the relation matrix. Cells
    /// with a single edge — the overwhelming majority — have no list. A
    /// clone shares the arena by the root of its copy-on-write table, like
    /// the attribute blocks.
    edge_lists: Slots<Vec<EdgeId>>,
    /// The slots of `edge_lists` that hold a list.
    list_ids: IdAlloc,
    /// Each relation's tagged cells, transposed: the pattern `(dst, src)` of
    /// every cell at `(src, dst)` that holds a list. Every other pair of the
    /// transpose is one edge, so a backward count reads the forward cell of
    /// these pairs alone.
    list_pairs_t: Vec<DeltaMatrix<()>>,
    label_matrices: Vec<DeltaMatrix<()>>,
    flush_threshold: usize,
    /// Logical write version: bumped on every mutation, pinned by snapshots.
    epoch: u64,
}

impl Graph {
    /// Create an empty graph with the given key name (the Redis key it would
    /// live under).
    pub fn new(name: &str) -> Self {
        Graph {
            name: name.into(),
            schema: Arc::default(),
            node_ids: IdAlloc::default(),
            nodes: Slots::default(),
            edge_ids: IdAlloc::default(),
            edge_attrs: Slots::default(),
            dim: GROW_CHUNK,
            relation_matrices: Vec::new(),
            relation_matrices_t: Vec::new(),
            edge_lists: Slots::default(),
            list_ids: IdAlloc::default(),
            list_pairs_t: Vec::new(),
            label_matrices: Vec::new(),
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
            epoch: 0,
        }
    }

    /// The logical write version of the graph: incremented by every mutation
    /// (not by flushes, which reorganise without changing contents). A
    /// [`GraphSnapshot`] observes the single epoch it was taken at, forever.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Pin the current state as an immutable snapshot.
    ///
    /// The underlying clone is structural and copies no stored entry: each
    /// matrix's leaves (CSR slices and delta buffers), the attribute and
    /// parallel-edge list slots and the free-id stacks are shared by the
    /// roots of their copy-on-write chunk tables, and the schema by `Arc`.
    /// Its cost is a few pointer bumps per matrix however large the graph,
    /// its pending buffers or its number of parallel cells. Alternating one
    /// write with one snapshot on a Graph500 scale-15 graph (0.8 M edges,
    /// 2-core x86 host), a snapshot takes 0.3–0.6 µs and dropping the one it
    /// replaces 1.9–3.0 µs, where one pointer bump per 256-row chunk and
    /// 1 024-slot block took 10–13 µs and 13–18 µs; at scale 17 (3.3 M
    /// edges) the snapshot takes 0.2 µs, against 41 µs. The first write
    /// after a snapshot copies one chunk path per matrix it touches and the
    /// path of each slot block it writes: 3.8–6.0 µs a write, against
    /// 16–20 µs for whole chunks and blocks. An edge without properties has
    /// no slot, so creating or deleting one writes no block. A write that
    /// frees an id (a delete) also copies the top 64-id chunk of that
    /// allocator's free stack and its path, however many ids are free; a
    /// create that reuses the id copies nothing.
    /// Pending deltas deliberately stay buffered: no plan needs a fold —
    /// traversals of every length run on merged row views. A fold after the
    /// snapshot rebuilds one 1 024-row leaf into a fresh one and leaves the old
    /// one to the snapshot, which frees it on its drop if no one else holds
    /// it.
    ///
    /// Later writes to this graph copy-on-write around the snapshot, so
    /// reading from it never takes a lock and never observes a concurrent
    /// writer.
    ///
    /// A caller holding a lock on this graph can split the two steps —
    /// `self.clone()` under the lock, [`GraphSnapshot::seal`] outside it —
    /// which is what the server's per-epoch snapshot cache does.
    pub fn snapshot(&self) -> GraphSnapshot {
        GraphSnapshot::seal(self.clone())
    }

    /// The cap on any one matrix's pending inserts and deletes (the
    /// `DELTA_MAX_PENDING_CHANGES` knob): each leaf folds its delta buffers
    /// into a fresh CSR slice at its share of it.
    pub fn flush_threshold(&self) -> usize {
        self.flush_threshold
    }

    /// Set the delta flush threshold on every matrix (existing and future).
    /// `1` restores the eager behaviour of flushing on every edge or label
    /// insert and delete.
    pub fn set_flush_threshold(&mut self, threshold: usize) {
        self.flush_threshold = threshold.max(1);
        for m in &mut self.relation_matrices {
            m.set_flush_threshold(self.flush_threshold);
        }
        for m in self.relation_matrices_t.iter_mut().chain(&mut self.list_pairs_t) {
            m.set_flush_threshold(self.flush_threshold);
        }
        for m in &mut self.label_matrices {
            m.set_flush_threshold(self.flush_threshold);
        }
    }

    /// A delta matrix sized and tuned for this graph.
    fn new_matrix<T: Scalar>(&self) -> DeltaMatrix<T> {
        let mut m = DeltaMatrix::new(self.dim, self.dim).expect("`ensure_dim` caps the dimension");
        m.set_flush_threshold(self.flush_threshold);
        m
    }

    /// True when any matrix has buffered changes awaiting a flush.
    pub fn has_pending_deltas(&self) -> bool {
        self.pending_delta_count() > 0
    }

    /// Total buffered changes across every matrix.
    pub fn pending_delta_count(&self) -> usize {
        self.relation_matrices.iter().map(DeltaMatrix::pending_count).sum::<usize>()
            + self.relation_matrices_t.iter().map(DeltaMatrix::pending_count).sum::<usize>()
            + self.list_pairs_t.iter().map(DeltaMatrix::pending_count).sum::<usize>()
            + self.label_matrices.iter().map(DeltaMatrix::pending_count).sum::<usize>()
    }

    /// Total leaf folds performed across every matrix over the graph's
    /// lifetime (`GRAPH.INFO`'s `delta_flushes`): one per 1 024-row leaf whose
    /// buffers were merged into a fresh CSR slice.
    pub fn delta_flush_count(&self) -> u64 {
        self.relation_matrices.iter().map(DeltaMatrix::flush_count).sum::<u64>()
            + self.relation_matrices_t.iter().map(DeltaMatrix::flush_count).sum::<u64>()
            + self.list_pairs_t.iter().map(DeltaMatrix::flush_count).sum::<u64>()
            + self.label_matrices.iter().map(DeltaMatrix::flush_count).sum::<u64>()
    }

    /// The graph's key name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.node_ids.live()
    }

    /// Number of live edges: a count kept by every create and delete.
    pub fn edge_count(&self) -> usize {
        self.edge_ids.live()
    }

    /// Current matrix dimension (≥ the highest node id ever created).
    pub fn dim(&self) -> u64 {
        self.dim
    }

    // ------------------------------------------------------------- queries

    /// Parse, plan and execute an openCypher query against this graph. The
    /// query takes no parameters: a `$name` in it is an error.
    pub fn query(&mut self, text: &str) -> Result<ResultSet, QueryError> {
        execute(GraphAccess::Write(self), text, None)
    }

    /// Parse, plan and execute a query with per-operator instrumentation
    /// (`GRAPH.PROFILE`): the result set plus one [`OpProfile`] per executed
    /// operator. Write clauses mutate the graph exactly as [`Graph::query`]
    /// would.
    pub fn profile(&mut self, text: &str) -> Result<(ResultSet, Vec<OpProfile>), QueryError> {
        let mut profiles = Vec::new();
        let rs = execute(GraphAccess::Write(self), text, Some(&mut profiles))?;
        Ok((rs, profiles))
    }

    /// Parse, plan and execute a **read-only** query through a shared
    /// reference. Errors if the query contains write clauses. Concurrent
    /// readers go through [`Graph::snapshot`] instead and never block.
    pub fn query_readonly(&self, text: &str) -> Result<ResultSet, QueryError> {
        execute(GraphAccess::Read(self), text, None)
    }

    /// Build the execution plan for a query without running it
    /// (`GRAPH.EXPLAIN`).
    pub fn explain(&self, text: &str) -> Result<Vec<String>, QueryError> {
        Ok(ExecutionPlan::build(&cypher::parse(text)?)?.describe())
    }

    // ------------------------------------------------------------ mutation

    /// Grow every matrix, by whole `GROW_CHUNK`s up to [`MAX_DIM`], to hold
    /// `needed` rows. Growing adds empty leaf slots and copies no leaf. A
    /// need past [`MAX_DIM`], the most a `u32` column indexes, is an error,
    /// refused before any matrix changes.
    fn ensure_dim(&mut self, needed: u64) -> Result<(), QueryError> {
        if needed <= self.dim {
            return Ok(());
        }
        if needed > MAX_DIM {
            let most = format!("{needed} node ids, past the {MAX_DIM} a matrix holds");
            return Err(QueryError::Unsupported(most));
        }
        let new_dim = (needed.div_ceil(GROW_CHUNK) * GROW_CHUNK).min(MAX_DIM);
        let grow = "a dimension up to MAX_DIM";
        for m in &mut self.relation_matrices {
            m.resize(new_dim, new_dim).expect(grow);
        }
        for m in self.relation_matrices_t.iter_mut().chain(&mut self.list_pairs_t) {
            m.resize(new_dim, new_dim).expect(grow);
        }
        for m in &mut self.label_matrices {
            m.resize(new_dim, new_dim).expect(grow);
        }
        self.dim = new_dim;
        Ok(())
    }

    /// The schema id of `name`: looked up by `find`, or created by
    /// `create` — on a copy of the schema if a snapshot shares it — only
    /// when the name is new.
    fn schema_id(
        &mut self,
        find: fn(&Schema, &str) -> Option<usize>,
        create: fn(&mut Schema, &str) -> usize,
        name: &str,
    ) -> usize {
        find(&self.schema, name).unwrap_or_else(|| create(Arc::make_mut(&mut self.schema), name))
    }

    /// Get or create an attribute (property key) id.
    pub(crate) fn attribute_id_or_create(&mut self, name: &str) -> AttributeId {
        self.schema_id(Schema::attribute_id, Schema::attribute_id_or_create, name)
    }

    /// Get or create a label id, creating its label matrix on first use.
    pub fn label_id_or_create(&mut self, name: &str) -> LabelId {
        let id = self.schema_id(Schema::label_id, Schema::label_id_or_create, name);
        while self.label_matrices.len() <= id {
            self.label_matrices.push(self.new_matrix());
        }
        id
    }

    /// Get or create a relationship type id, creating its matrices on first use.
    pub fn rel_type_id_or_create(&mut self, name: &str) -> RelTypeId {
        let id = self.schema_id(Schema::rel_type_id, Schema::rel_type_id_or_create, name);
        while self.relation_matrices.len() <= id {
            self.relation_matrices.push(self.new_matrix());
            self.relation_matrices_t.push(self.new_matrix());
            self.list_pairs_t.push(self.new_matrix());
        }
        id
    }

    /// Create a node with labels and properties; returns its id.
    ///
    /// # Panics
    /// Panics if the graph already holds [`MAX_DIM`] node ids.
    pub fn add_node(&mut self, labels: &[&str], props: Vec<(&str, Value)>) -> NodeId {
        let label_ids: Vec<LabelId> = labels.iter().map(|l| self.label_id_or_create(l)).collect();
        let attrs = self.attribute_set(props);
        self.create_node(label_ids, attrs).expect("a node id a matrix holds")
    }

    /// Create a node from label ids (each made by
    /// [`Graph::label_id_or_create`]) and attributes; returns its id. A
    /// node id past the matrices' [`MAX_DIM`] is an error, and creates
    /// nothing.
    pub(crate) fn create_node(
        &mut self,
        labels: Vec<LabelId>,
        attributes: AttributeSet,
    ) -> Result<NodeId, QueryError> {
        let id = self.node_ids.alloc();
        if let Err(e) = self.ensure_dim(id + 1) {
            self.node_ids.free(id);
            return Err(e);
        }
        self.nodes.put(id, attributes);
        for label in labels {
            self.label_matrices[label].set_element(id, id, ());
        }
        self.epoch += 1;
        Ok(id)
    }

    /// Named properties as an attribute set, creating keys as needed.
    fn attribute_set(&mut self, props: Vec<(&str, Value)>) -> AttributeSet {
        let mut attrs = AttributeSet::new();
        for (key, value) in props {
            let attr = self.attribute_id_or_create(key);
            attrs.set(attr, value);
        }
        attrs
    }

    /// Create an edge of the given relationship type; returns its id.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        rel_type: &str,
        props: Vec<(&str, Value)>,
    ) -> Result<EdgeId, QueryError> {
        if self.nodes.get(src).is_none() {
            return Err(QueryError::Internal(format!("source node {src} does not exist")));
        }
        if self.nodes.get(dst).is_none() {
            return Err(QueryError::Internal(format!("destination node {dst} does not exist")));
        }
        let rel = self.rel_type_id_or_create(rel_type);
        let attrs = self.attribute_set(props);
        Ok(self.create_edge(src, dst, rel, attrs))
    }

    /// Create an edge between two live nodes, of a relationship type id
    /// made by [`Graph::rel_type_id_or_create`]; returns its id. An edge
    /// without attributes gets an id and no slot.
    pub(crate) fn create_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        rel: RelTypeId,
        attributes: AttributeSet,
    ) -> EdgeId {
        let id = self.edge_ids.alloc();
        if !attributes.is_empty() {
            self.edge_attrs.put(id, attributes);
        }
        let m = &mut self.relation_matrices[rel];
        match m.extract_element(src, dst) {
            // First edge of this type between the endpoints: the cell is its
            // id, and the transpose gains the pair.
            None => {
                m.set_element(src, dst, id);
                self.relation_matrices_t[rel].set_element(dst, src, ());
            }
            // A third or later edge joins the cell's list; no matrix changes.
            Some(cell) if cell & LIST_TAG != 0 => {
                let list = self.edge_lists.get_mut(cell ^ LIST_TAG).expect("a live list");
                let pos = list.binary_search(&id).unwrap_err();
                list.insert(pos, id);
            }
            // A second edge: both ids move to a new list the cell names.
            Some(first) => {
                let slot = self.list_ids.alloc();
                self.edge_lists.put(slot, vec![first.min(id), first.max(id)]);
                m.set_element(src, dst, LIST_TAG | slot);
                self.list_pairs_t[rel].set_element(dst, src, ());
            }
        }
        self.epoch += 1;
        id
    }

    /// The id of the edge an edge value names, and the relation cell at the
    /// value's `(rel, src, dst)`, while that cell holds the id: `None` for a
    /// stale value, whose edge was deleted and whose id may since name
    /// another edge, and for any value that is not an edge. A cell only ever
    /// holds live ids, so this is the one test of an edge value's liveness.
    pub(crate) fn live_edge(&self, edge: &Value) -> Option<(EdgeId, u64)> {
        let &Value::Edge { id, src, dst, rel } = edge else { return None };
        let cell = self.relation_matrices.get(rel as RelTypeId)?.extract_element(src, dst)?;
        self.cell_edges(cell).any(|e| e == id).then_some((id, cell))
    }

    /// Delete the edge an edge value names: a [`Value::Edge`] as a
    /// traversal or a `CREATE` bound it. Returns false, and changes nothing,
    /// for a stale value ([`Graph::live_edge`]).
    pub fn delete_edge(&mut self, edge: &Value) -> bool {
        let (Some((id, cell)), &Value::Edge { src, dst, rel, .. }) = (self.live_edge(edge), edge)
        else {
            return false;
        };
        let rel = rel as RelTypeId;
        // The slot goes with the id, so an edge that reuses it has none.
        self.edge_ids.free(id);
        self.edge_attrs.take(id);
        if cell & LIST_TAG == 0 {
            self.relation_matrices[rel].remove_element(src, dst).expect("in-bounds");
            self.relation_matrices_t[rel].remove_element(dst, src).expect("in-bounds");
        } else {
            // Parallel edges survive: drop the id from the cell's list, and
            // once one edge is left, free the list and store that edge in
            // the cell again.
            let list = self.edge_lists.get_mut(cell ^ LIST_TAG).expect("a live list");
            list.retain(|&e| e != id);
            if let [survivor] = list[..] {
                self.edge_lists.take(cell ^ LIST_TAG);
                self.list_ids.free(cell ^ LIST_TAG);
                self.relation_matrices[rel].set_element(src, dst, survivor);
                self.list_pairs_t[rel].remove_element(dst, src).expect("in-bounds");
            }
        }
        self.epoch += 1;
        true
    }

    /// Delete a node and all edges incident to it.
    pub fn delete_node(&mut self, id: NodeId) -> bool {
        if self.nodes.get(id).is_none() {
            return false;
        }
        // The node's own rows, not an O(edges) scan. A self-loop sits in
        // both the row and the transposed row, hence the dedup.
        let mut incident = Vec::new();
        self.for_each_edge(id, None, TraverseDir::Both, |_, edge| incident.push(edge));
        incident.sort_unstable_by(Value::sort_cmp);
        incident.dedup();
        for edge in &incident {
            self.delete_edge(edge);
        }
        self.nodes.take(id);
        self.node_ids.free(id);
        for m in &mut self.label_matrices {
            m.remove_element(id, id).expect("in-bounds");
        }
        self.epoch += 1;
        true
    }

    /// Fold every leaf's pending buffers into a fresh CSR slice, as the
    /// flush threshold does one leaf at a time. Correctness never requires
    /// this — merged views stay consistent without it, and no query calls
    /// it — but it lets tests pin state. Each fold costs its own leaf's
    /// entries, and a snapshot keeps the leaves it held.
    pub fn sync_matrices(&mut self) {
        for m in &mut self.relation_matrices {
            m.flush();
        }
        for m in self.relation_matrices_t.iter_mut().chain(&mut self.list_pairs_t) {
            m.flush();
        }
        for m in &mut self.label_matrices {
            m.flush();
        }
    }

    // ------------------------------------------------------------- readers

    /// The property set of a live node, by id.
    pub fn node_attributes(&self, id: NodeId) -> Option<&AttributeSet> {
        self.nodes.get(id)
    }

    /// Whether node `id` carries label `label`: its entry in the label's
    /// diagonal. An unknown label is carried by no node.
    pub fn has_label(&self, id: NodeId, label: LabelId) -> bool {
        self.label_matrices.get(label).is_some_and(|m| m.contains(id, id))
    }

    /// The labels node `id` carries, in ascending label id: the order the
    /// graph first saw each label.
    pub fn node_labels(&self, id: NodeId) -> impl Iterator<Item = LabelId> + '_ {
        (0..self.label_matrices.len()).filter(move |&label| self.has_label(id, label))
    }

    /// The property set of a live edge, by id, or `None` when it has no
    /// property: the raw slot, for an id read from a relation cell (an edge
    /// value first passes [`Graph::live_edge`]).
    pub fn edge_attributes(&self, id: EdgeId) -> Option<&AttributeSet> {
        self.edge_attrs.get(id)
    }

    /// Read a node property by name (`Null` when absent).
    pub fn node_property(&self, id: NodeId, key: &str) -> Value {
        let Some(attr) = self.schema.attribute_id(key) else { return Value::Null };
        self.nodes.get(id).map_or(Value::Null, |a| a.get(attr))
    }

    /// Set a node property; returns false if the node does not exist.
    pub fn set_node_property(&mut self, id: NodeId, key: &str, value: Value) -> bool {
        let attr = self.attribute_id_or_create(key);
        self.set_node_attribute(id, attr, value)
    }

    /// Set a node attribute by key id; returns false if the node does not
    /// exist.
    pub(crate) fn set_node_attribute(
        &mut self,
        id: NodeId,
        attr: AttributeId,
        value: Value,
    ) -> bool {
        let Some(attributes) = self.nodes.get_mut(id) else { return false };
        attributes.set(attr, value);
        self.epoch += 1;
        true
    }

    /// Set an attribute, by key id, of the edge an edge value names; returns
    /// false, and sets nothing, for a stale value ([`Graph::live_edge`]).
    pub(crate) fn set_edge_attribute(
        &mut self,
        edge: &Value,
        attr: AttributeId,
        value: Value,
    ) -> bool {
        let Some((id, _)) = self.live_edge(edge) else { return false };
        // A set is stored only while non-empty: the first property creates
        // the edge's slot (and its block), and removing the last frees it.
        let mut attributes = self.edge_attrs.take(id).unwrap_or_default();
        attributes.set(attr, value);
        if !attributes.is_empty() {
            self.edge_attrs.put(id, attributes);
        }
        self.epoch += 1;
        true
    }

    /// All live node ids.
    pub fn all_node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|(id, _)| id).collect()
    }

    /// Ids of nodes carrying label `label`, ascending: the columns of its
    /// diagonal matrix, in one walk of its rows.
    pub fn nodes_with_label(&self, label: LabelId) -> Vec<NodeId> {
        let m = &self.label_matrices[label];
        let mut ids = Vec::with_capacity(m.nvals());
        m.runs(|_, cols, _| ids.extend(cols.iter().map(|&c| NodeId::from(c))));
        ids
    }

    /// The combined boolean adjacency matrix: the structural union of every
    /// relation matrix's merged view, read a row of each at a time and built
    /// on every call (always `Cow::Owned`; no combined copy of the edges is
    /// stored). rgbench's ladder only; T9a deletes.
    pub fn adjacency_matrix(&self) -> Cow<'_, SparseMatrix<bool>> {
        let relations: Vec<_> = self.relation_matrices.iter().collect();
        let (mut row_ptr, mut cols, mut row) = (vec![0], Vec::new(), Vec::new());
        for r in 0..self.dim {
            union_row(&relations, r, &mut row);
            cols.extend(row.iter().map(|&c| NodeId::from(c)));
            row_ptr.push(cols.len());
        }
        let values = vec![true; cols.len()];
        let union = SparseMatrix::from_csr(self.dim, self.dim, row_ptr, cols, values);
        Cow::Owned(union.expect("rows ascend, endpoints in range"))
    }

    /// The relation matrix for a relationship type id (merged view). A
    /// stored value is the cell's edge id, or `LIST_TAG | slot` when the
    /// cell holds parallel edges: [`Graph::edges_between`] and
    /// [`Graph::neighbors`] expand a cell to its edge ids.
    pub fn relation_matrix(&self, rel: RelTypeId) -> Option<SparseMatrix<u64>> {
        self.relation_matrices.get(rel).map(DeltaMatrix::export)
    }

    /// Number of relationship-type matrices currently allocated.
    pub fn relation_type_count(&self) -> usize {
        self.relation_matrices.len()
    }

    /// The **counting** relation matrix for a relationship type: cell
    /// `(i, j)` holds the number of parallel type-`rel` edges from `i` to `j`
    /// (`transposed` gives the reverse orientation), built from the rows the
    /// fused traversal reads in place. rgbench's ladder only (the operand of
    /// its whole-matrix `mxm` rung); T9a deletes.
    pub fn relation_count_matrix(
        &self,
        rel: RelTypeId,
        transposed: bool,
    ) -> Option<SparseMatrix<u64>> {
        self.relation_matrices.get(rel)?;
        let mut triples = Vec::new();
        for i in 0..self.dim {
            self.relation_row_counts(rel, transposed, i, |j, k| triples.push((i, j, k)));
        }
        Some(SparseMatrix::from_triples(self.dim, self.dim, &triples).expect("in range"))
    }

    /// One row of the counting relation matrix, read in place: call `f(nbr,
    /// k)` on each cell of `node`'s row in relation `rel`'s merged view (its
    /// column when `transposed`), in ascending `nbr` order, where `k` is how
    /// many parallel edges the cell holds. An unknown `rel` has no cells.
    pub(crate) fn relation_row_counts(
        &self,
        rel: RelTypeId,
        transposed: bool,
        node: NodeId,
        mut f: impl FnMut(NodeId, u64),
    ) {
        let Some(m) = self.relation_matrices.get(rel) else { return };
        let count = |cell| self.cell_edges(cell).count() as u64;
        if !transposed {
            m.any_entry_in_row(node, |nbr, cell| {
                f(nbr, count(cell));
                false
            });
            return;
        }
        // The row's pairs whose cell holds a list, ascending (most rows have
        // none, and then this allocates nothing); every other pair of the
        // transpose's row is one edge.
        let mut lists = Vec::new();
        self.list_pairs_t[rel].any_run(node, |cols, _| {
            lists.extend_from_slice(cols);
            false
        });
        self.relation_matrices_t[rel].any_in_row(node, |nbr| {
            let k = match lists.binary_search(&(nbr as u32)) {
                Ok(_) => count(m.extract_element(nbr, node).expect("a listed pair has its cell")),
                Err(_) => 1,
            };
            f(nbr, k);
            false
        });
    }

    /// Call `f(nbr, cell)` on each cell of `node`'s row in relation `rel`'s
    /// merged view, ascending by `nbr`; when `transposed`, on each cell of
    /// its column, `(nbr, node)`, found in the stored transpose's row and
    /// read from `nbr`'s forward row, since the transpose holds no cell. An
    /// unknown `rel` has no cells.
    fn row_cells(
        &self,
        rel: RelTypeId,
        transposed: bool,
        node: NodeId,
        mut f: impl FnMut(NodeId, u64),
    ) {
        let Some(m) = self.relation_matrices.get(rel) else { return };
        if !transposed {
            m.any_entry_in_row(node, |nbr, cell| {
                f(nbr, cell);
                false
            });
            return;
        }
        self.relation_matrices_t[rel].any_in_row(node, |nbr| {
            f(nbr, m.extract_element(nbr, node).expect("a transposed pair has its cell"));
            false
        });
    }

    /// The weight of a relation cell for `algo.sssp`: the smallest value of
    /// property `prop` among the edges the cell holds, where an edge without
    /// the property, or with a non-numeric value, weighs `default`.
    pub(crate) fn cell_weight(&self, prop: &str, default: f64) -> impl Fn(u64) -> f64 + '_ {
        let attr = self.schema.attribute_id(prop);
        let weight = move |id: EdgeId| {
            attr.and_then(|a| self.edge_attrs.get(id)?.get(a).as_f64()).unwrap_or(default)
        };
        move |cell| {
            self.cell_edges(cell).map(weight).reduce(f64::min).expect("a cell holds an edge")
        }
    }

    /// Every edge of type `rel` from `src` to `dst`, in ascending edge-id
    /// order. A point lookup that allocates nothing: Expand Into probes one
    /// cell per record with it instead of walking the source's whole row.
    pub fn edges_between(
        &self,
        rel: RelTypeId,
        src: NodeId,
        dst: NodeId,
    ) -> impl Iterator<Item = EdgeId> + '_ {
        let cell = self.relation_matrices.get(rel).and_then(|m| m.extract_element(src, dst));
        cell.into_iter().flat_map(move |cell| self.cell_edges(cell))
    }

    /// The edge ids a stored relation cell holds, ascending: an untagged
    /// cell is its one edge, a tagged one names its list in `edge_lists`.
    fn cell_edges(&self, cell: u64) -> impl Iterator<Item = EdgeId> + '_ {
        let (single, list) = match cell & LIST_TAG {
            0 => (Some(cell), &[][..]),
            _ => (None, &self.edge_lists.get(cell ^ LIST_TAG).expect("a live list")[..]),
        };
        single.into_iter().chain(list.iter().copied())
    }

    /// Out-neighbours (or in-neighbours, or both) of a node, optionally
    /// restricted to a set of relationship types. Returns `(neighbour, edge)`
    /// pairs by reading matrix rows; a cell holding parallel same-type edges
    /// expands to one pair per edge (ascending edge ids), which is what gives
    /// `MATCH (a)-[r:R]->(b)` one row per edge binding.
    pub fn neighbors(
        &self,
        node: NodeId,
        rel_types: Option<&[RelTypeId]>,
        dir: TraverseDir,
    ) -> Vec<(NodeId, EdgeId)> {
        let mut out = Vec::new();
        self.for_each_edge(node, rel_types, dir, |nbr, edge| {
            if let Value::Edge { id, .. } = edge {
                out.push((nbr, id));
            }
        });
        out
    }

    /// Call `f(neighbour, edge)` on every edge [`Graph::neighbors`] lists,
    /// in the same order, where `edge` is the [`Value::Edge`] naming the
    /// edge with its stored endpoints and type: a backward step's edge runs
    /// from the neighbour to `node`.
    pub(crate) fn for_each_edge(
        &self,
        node: NodeId,
        rel_types: Option<&[RelTypeId]>,
        dir: TraverseDir,
        mut f: impl FnMut(NodeId, Value),
    ) {
        let forward = matches!(dir, TraverseDir::Outgoing | TraverseDir::Both);
        let backward = matches!(dir, TraverseDir::Incoming | TraverseDir::Both);
        let mut visit = |rel: RelTypeId, transposed: bool| {
            self.row_cells(rel, transposed, node, |nbr, cell| {
                let (src, dst) = if transposed { (nbr, node) } else { (node, nbr) };
                for id in self.cell_edges(cell) {
                    f(nbr, Value::Edge { id, src, dst, rel: rel as u32 });
                }
            });
        };
        for rel in self.selected_rels(rel_types) {
            if forward {
                visit(rel, false);
            }
            if backward {
                visit(rel, true);
            }
        }
    }

    /// The relation types a pattern reads: the named types that exist, in
    /// the order named, or every type when the pattern is untyped.
    fn selected_rels<'a>(
        &self,
        rel_types: Option<&'a [RelTypeId]>,
    ) -> impl Iterator<Item = RelTypeId> + 'a {
        let count = self.relation_matrices.len();
        let every = if rel_types.is_none() { count } else { 0 };
        let named = rel_types.unwrap_or_default().iter().copied();
        named.filter(move |&rel| rel < count).chain(0..every)
    }

    /// The matrix pairs one traversal hop in direction `dir` runs on: the
    /// selected relation matrices (and/or their transposes), or every
    /// relation's when the pattern is untyped. Each pair is `(push, pull)`:
    /// the matrix a push step multiplies the frontier by, and its transpose,
    /// which a pull step walks. A hop ORs the pairs' products, so no O(nnz)
    /// union matrix is ever built; the price is that an untyped hop reads
    /// one row per relation type for each frontier vertex.
    fn hop_pairs(&self, dir: TraverseDir, rel_types: Option<&[RelTypeId]>) -> Vec<MatrixPair<'_>> {
        self.selected_rels(rel_types)
            .flat_map(|rel| dir.pairs(&self.relation_matrices[rel], &self.relation_matrices_t[rel]))
            .collect()
    }

    /// Every type's relation matrix, which the `algo.*` procedures read.
    pub(crate) fn relations(&self) -> Vec<&DeltaMatrix<u64>> {
        self.relation_matrices.iter().collect()
    }

    /// Every type's stored transpose: the in-rows `algo.pagerank` pulls.
    pub(crate) fn transposes(&self) -> Vec<&DeltaMatrix<()>> {
        self.relation_matrices_t.iter().collect()
    }

    /// Algebraic k-hop reachability: the set of nodes reachable from `source`
    /// in between `min_hops` and `max_hops` hops following `dir` — over every
    /// edge, or only over the relation types in `rel_types` — computed as a
    /// level-synchronous, direction-optimising BFS on a bitmap visited set
    /// (the core primitive behind the paper's k-hop benchmark), returned as
    /// that bitmap. A source outside the matrix dimension reaches nothing.
    pub fn khop_reached(
        &self,
        source: NodeId,
        min_hops: u32,
        max_hops: u32,
        dir: TraverseDir,
        rel_types: Option<&[RelTypeId]>,
    ) -> Bitmap {
        if source >= self.dim {
            return Bitmap::new(self.dim);
        }
        let pairs = self.hop_pairs(dir, rel_types);
        bitmap_bfs(self.dim, &pairs, (source, min_hops, max_hops), |_, _| {})
    }

    /// `algo.bfs`: the k-hop BFS from `source` over every outgoing edge,
    /// recording the hop that finds each node, ascending by node (the source
    /// at level 0).
    pub(crate) fn bfs_levels(&self, source: NodeId) -> Vec<(NodeId, u32)> {
        let mut levels = vec![0; self.dim as usize];
        let pairs = self.hop_pairs(TraverseDir::Outgoing, None);
        let reached = bitmap_bfs(self.dim, &pairs, (source, 0, u32::MAX), |hop, next| {
            next.iter().for_each(|&v| levels[v as usize] = hop);
        });
        reached.iter().map(|v| (v, levels[v as usize])).collect()
    }

    /// Count of distinct nodes reachable within `k` hops (the TigerGraph
    /// benchmark's k-hop neighbourhood count).
    pub fn khop_count(&self, source: NodeId, k: u32) -> u64 {
        self.khop_reached(source, 1, k, TraverseDir::Outgoing, None).nvals() as u64
    }

    // ----------------------------------------------------------- bulk load

    /// Bulk-load a generated edge list into an empty graph: every vertex
    /// becomes a `:Node` node whose `id` property equals its vertex id, and
    /// every edge becomes a `:LINK` relationship. Duplicate edges,
    /// self-loops and edges with an endpoint outside `0..num_vertices` are
    /// dropped, as an adjacency-matrix representation drops them.
    ///
    /// The matrices are built leaf by leaf by [`DeltaMatrix::from_pairs`]'s
    /// counting sort, with no copy of `edges`, no triple list and no
    /// whole-matrix copy: the label diagonal from the vertex ids, the
    /// relation from two walks of `edges`, which number the edges in
    /// (source, destination) order, and the transpose from two walks of the
    /// relation's leaves. An edge gets an id and no attribute slot.
    ///
    /// # Panics
    /// Panics if `num_vertices` is past [`MAX_DIM`].
    pub fn bulk_load(&mut self, num_vertices: u64, edges: &[(u64, u64)]) {
        let label = self.label_id_or_create("Node");
        let rel = self.rel_type_id_or_create("LINK");
        let id_attr = self.attribute_id_or_create("id");

        self.ensure_dim(num_vertices).expect("a vertex count a matrix holds");
        for v in 0..num_vertices {
            let mut attrs = AttributeSet::new();
            attrs.set(id_attr, Value::Int(v as i64));
            let id = self.node_ids.alloc();
            debug_assert_eq!(id, v, "bulk_load requires an empty graph");
            self.nodes.put(id, attrs);
        }
        let (dim, threshold, n) = (self.dim, self.flush_threshold, num_vertices);
        let diagonal = |f: &mut dyn FnMut(u64, u64)| (0..n).for_each(|v| f(v, v));
        self.label_matrices[label] = loaded(dim, threshold, diagonal, |_, _| ());

        let pairs = |f: &mut dyn FnMut(u64, u64)| {
            let kept = edges.iter().filter(|&&(s, d)| s != d && s < n && d < n);
            kept.for_each(|&(s, d)| f(s, d));
        };
        let ids = &mut self.edge_ids;
        let relation = loaded(dim, threshold, pairs, |_, _| ids.alloc());
        self.relation_matrices_t[rel] = relation.transposed();
        self.relation_matrices[rel] = relation;
        self.epoch += 1;
    }

    /// The bytes each store holds (see [`StorageBytes`]): O(nnz + entities)
    /// for the entity walks, a diagnostic rather than a serving path.
    pub fn storage_bytes(&self) -> StorageBytes {
        fn csr<T: Scalar>(matrices: &[DeltaMatrix<T>]) -> usize {
            matrices.iter().map(DeltaMatrix::main_bytes).sum()
        }
        let attributes = |a: &AttributeSet| a.len() * size_of::<(AttributeId, Value)>();
        let list = |l: &Vec<EdgeId>| l.capacity() * size_of::<EdgeId>();
        StorageBytes {
            relations: csr(&self.relation_matrices),
            transposes: csr(&self.relation_matrices_t),
            labels: csr(&self.label_matrices),
            edge_slots: self.edge_attrs.block_bytes()
                + self.edge_attrs.iter().map(|(_, a)| attributes(a)).sum::<usize>(),
            node_slots: self.nodes.block_bytes()
                + self.nodes.iter().map(|(_, a)| attributes(a)).sum::<usize>(),
            edge_lists: self.edge_lists.block_bytes()
                + self.edge_lists.iter().map(|(_, l)| list(l)).sum::<usize>()
                + csr(&self.list_pairs_t),
        }
    }

    /// Pin a relation matrix's current leaves. Diagnostic/test use: the
    /// epoch-reclamation tests assert through `Weak` handles derived from
    /// this that replaced leaves are freed, not accumulated.
    pub fn relation_epoch_pin(&self, rel: RelTypeId) -> Option<Vec<Arc<Leaf<u64>>>> {
        let m = self.relation_matrices.get(rel)?;
        Some(m.table().leaves().map(|(_, leaf)| Arc::clone(leaf)).collect())
    }
}

/// Parse and plan `text`, bind it an empty parameter map (so a `$name` in
/// it is an error) and run it on `access`, with one [`OpProfile`] per
/// operator into `profiles` when given: the one path of [`Graph::query`],
/// [`Graph::profile`] and [`Graph::query_readonly`].
fn execute(
    access: GraphAccess<'_>,
    text: &str,
    profiles: Option<&mut Vec<OpProfile>>,
) -> Result<ResultSet, QueryError> {
    let plan = ExecutionPlan::build(&cypher::parse(text)?)?;
    plan.run(access, &plan.bind(&Params::new())?, Instant::now(), profiles)
}

/// A `dim × dim` matrix folding at `threshold`, holding the in-range pairs
/// `walk` hands over, valued by `value` ([`DeltaMatrix::from_pairs`]), with
/// nothing pending.
fn loaded<T: Scalar>(
    dim: u64,
    threshold: usize,
    walk: impl Fn(&mut dyn FnMut(u64, u64)),
    value: impl FnMut(u64, u64) -> T,
) -> DeltaMatrix<T> {
    let mut m = DeltaMatrix::from_pairs(dim, dim, walk, value).expect("in-range pairs");
    m.set_flush_threshold(threshold);
    m
}

/// Level-synchronous BFS from `source` over the union of `pairs` (see
/// [`Graph::hop_pairs`]): the set of vertices first reached between
/// `min_hops` and `max_hops` hops, as a bitmap of size `dim`. After each
/// hop, `on_hop(hop, next)` sees the vertices that hop reached first; the
/// k-hop callers pass a no-op, which compiles away.
///
/// Each hop pushes the frontier through the push matrices or pulls it
/// through their transposes, whichever Beamer's rule picks, into buffers
/// that every hop reuses. One bitmap serves both kernels: a push ORs the
/// edges of every push matrix into it, one generic scan per matrix whatever
/// its value type, and takes `reached ∧ ¬visited` in one pass over the
/// words, handing it back empty, and a pull fills it with the frontier and
/// clears it after. A push emits `next` ascending (the union
/// of an undirected or untyped hop's several matrices in one pass), a pull
/// ascending per transpose, so the next hop's degree sum and push look each
/// leaf up once per run of rows. The kernels read the merged rows in place,
/// never a whole-matrix copy: a pull looks a leaf up once per 64 unvisited
/// rows, reads only the rows its CSR slice marks non-empty or that have an
/// insert pending, and merges only the rows with changes pending. A pull so
/// costs the edges it scans rather than the rows it passes: at rgbench's
/// scale 15, 8 944 of the 32 768 vertices have no in-edge, so as many rows
/// of the transpose that an outgoing pull walks are empty
/// (`examples/khop_hops.rs` times each hop both ways).
fn bitmap_bfs(
    dim: u64,
    pairs: &[MatrixPair<'_>],
    (source, min_hops, max_hops): (NodeId, u32, u32),
    mut on_hop: impl FnMut(u32, &[NodeId]),
) -> Bitmap {
    let mut unexplored: u64 = pairs.iter().map(|p| p.nvals()).sum();

    let mut visited = Bitmap::new(dim);
    visited.insert(source);
    // Vertices first reached before `min_hops` (hop 0 is the source itself:
    // a `*0..n` pattern matches the start node), dropped from the result.
    let mut early = if min_hops == 0 { Vec::new() } else { vec![source] };
    let (mut frontier, mut next) = (vec![source], Vec::new());
    // Empty between hops: a push's reached set, a pull's frontier.
    let (mut reached, mut bits) = (Reached::new(dim), Bitmap::new(dim));
    let mut pulling = false;
    for hop in 1..=max_hops {
        if frontier.is_empty() || pairs.is_empty() {
            break;
        }
        let frontier_edges: u64 = pairs.iter().map(|p| p.degree_sum(&frontier)).sum();
        pulling = beamer_pulls(pulling, frontier.len() as u64, frontier_edges, unexplored, dim);
        unexplored = unexplored.saturating_sub(frontier_edges);
        next.clear();
        if pulling {
            for &v in &frontier {
                bits.insert(v);
            }
            for p in pairs {
                p.pull(&bits, &mut visited, &mut next);
            }
            bits.clear();
        } else {
            for p in pairs {
                p.scan(&frontier, &mut reached);
            }
            bfs_push(&mut reached, &mut visited, &mut next);
        }
        on_hop(hop, &next);
        if hop < min_hops {
            early.extend_from_slice(&next);
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    for v in early {
        visited.remove(v);
    }
    visited
}

/// An immutable, epoch-pinned view of a [`Graph`].
///
/// Produced by [`Graph::snapshot`]. The server takes one per read-only query
/// under a momentary read lock, then executes entirely lock-free: the
/// snapshot shares the flushed epoch CSRs, the delta-buffer chunks, the
/// entity blocks and the schema with the live graph by `Arc`, so concurrent
/// writers copy-on-write around it and the snapshot observes exactly one
/// [`Graph::epoch`], forever, pending deltas and all.
///
/// `Deref<Target = Graph>` exposes every shared read accessor; there is no
/// way to reach the write surface, so a snapshot cannot leak writes.
#[derive(Debug, Clone)]
pub struct GraphSnapshot {
    graph: Graph,
}

impl GraphSnapshot {
    /// Seal an owned clone of a graph into an immutable snapshot. Sealing
    /// does no work: pending deltas stay buffered, read through merged views.
    pub fn seal(graph: Graph) -> GraphSnapshot {
        GraphSnapshot { graph }
    }

    /// Run an already-built **read-only** plan against the pinned state with
    /// its bound `params` (see [`ExecutionPlan::run`] for `started` and
    /// `profiles`). The server's plan cache goes through here: the plan is
    /// built once, then bound and executed in place per request, without
    /// re-parse, re-plan or copy.
    pub fn run(
        &self,
        plan: &ExecutionPlan,
        params: &ParamValues,
        started: Instant,
        profiles: Option<&mut Vec<OpProfile>>,
    ) -> Result<ResultSet, QueryError> {
        plan.run(GraphAccess::Read(&self.graph), params, started, profiles)
    }
}

impl std::ops::Deref for GraphSnapshot {
    type Target = Graph;

    fn deref(&self) -> &Graph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The nodes carrying the label named `label`; none for an unknown name.
    fn labelled(g: &Graph, label: &str) -> Vec<NodeId> {
        g.schema.label_id(label).map_or_else(Vec::new, |l| g.nodes_with_label(l))
    }

    fn triangle() -> Graph {
        let mut g = Graph::new("t");
        let a = g.add_node(&["Person"], vec![("name", Value::Str("a".into()))]);
        let b = g.add_node(&["Person"], vec![("name", Value::Str("b".into()))]);
        let c = g.add_node(&["City"], vec![("name", Value::Str("c".into()))]);
        g.add_edge(a, b, "KNOWS", vec![]).unwrap();
        g.add_edge(b, c, "LIVES_IN", vec![]).unwrap();
        g.add_edge(a, c, "LIVES_IN", vec![("since", Value::Int(2020))]).unwrap();
        g.sync_matrices();
        g
    }

    /// Property `key` of edge `id` (`Null` when absent).
    fn edge_property(g: &Graph, id: EdgeId, key: &str) -> Value {
        let attributes = g.edge_attributes(id);
        attributes.zip(g.schema.attribute_id(key)).map_or(Value::Null, |(a, k)| a.get(k))
    }

    /// The edge value of every live edge, by id, read from each node's
    /// outgoing cells: what a traversal binds.
    fn edge_values(g: &Graph) -> std::collections::HashMap<EdgeId, Value> {
        let mut out = std::collections::HashMap::new();
        for node in 0..g.dim() {
            g.for_each_edge(node, None, TraverseDir::Outgoing, |_, edge| {
                if let Value::Edge { id, .. } = edge {
                    out.insert(id, edge);
                }
            });
        }
        out
    }

    /// Delete edge `id` through the value a traversal would bind for it.
    fn delete_by_id(g: &mut Graph, id: EdgeId) -> bool {
        let edge = edge_values(g).remove(&id);
        edge.is_some_and(|edge| g.delete_edge(&edge))
    }

    #[test]
    fn add_nodes_and_edges() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.node_property(0, "name"), Value::Str("a".into()));
        assert_eq!(g.node_property(0, "missing"), Value::Null);
        assert_eq!(edge_property(&g, 2, "since"), Value::Int(2020));
        let person = g.schema.label_id("Person").unwrap();
        assert!(g.has_label(0, person));
        assert!(!g.has_label(2, person));
        assert_eq!(labelled(&g, "Person"), vec![0, 1]);
        assert_eq!(labelled(&g, "Nope"), Vec::<u64>::new());
    }

    #[test]
    fn node_label_membership() {
        // A node's labels are its diagonal entries alone: a repeated label
        // is one entry, the labels read back in label-id order, and a
        // delete clears them.
        let mut g = Graph::new("labels");
        let b = g.label_id_or_create("B");
        let n = g.add_node(&["A", "B", "A"], vec![]);
        let a = g.schema.label_id("A").unwrap();
        assert!(g.has_label(n, a) && g.has_label(n, b) && !g.has_label(n, 9));
        assert_eq!(g.node_labels(n).collect::<Vec<_>>(), vec![b, a]);
        assert_eq!(g.label_matrices[a].nvals(), 1);
        assert!(g.delete_node(n));
        assert_eq!(g.node_labels(n).count(), 0);
        assert_eq!(g.label_matrices[a].nvals() + g.label_matrices[b].nvals(), 0);
    }

    #[test]
    fn adjacency_matrix_reflects_edges() {
        let mut g = triangle();
        // A second type between the same endpoints adds no union cell.
        g.add_edge(0, 1, "LIVES_IN", vec![]).unwrap();
        let adj = g.adjacency_matrix();
        assert_eq!(adj.nvals(), 3);
        assert_eq!(adj.extract_element(0, 1), Some(true));
        assert_eq!(adj.extract_element(1, 0), None);
    }

    #[test]
    fn neighbors_by_type_and_direction() {
        let g = triangle();
        let knows = g.schema.rel_type_id("KNOWS").unwrap();
        let lives = g.schema.rel_type_id("LIVES_IN").unwrap();
        let out = g.neighbors(0, None, TraverseDir::Outgoing);
        assert_eq!(out.len(), 2);
        let only_knows = g.neighbors(0, Some(&[knows]), TraverseDir::Outgoing);
        assert_eq!(only_knows, vec![(1, 0)]);
        let incoming_c = g.neighbors(2, Some(&[lives]), TraverseDir::Incoming);
        assert_eq!(incoming_c.len(), 2);
        let both = g.neighbors(1, None, TraverseDir::Both);
        assert_eq!(both.len(), 2); // in from a, out to c
    }

    #[test]
    fn khop_reach_and_count() {
        // path 0→1→2→3 plus shortcut 0→2
        let mut g = Graph::new("k");
        for _ in 0..4 {
            g.add_node(&["Node"], vec![]);
        }
        g.add_edge(0, 1, "L", vec![]).unwrap();
        g.add_edge(1, 2, "L", vec![]).unwrap();
        g.add_edge(2, 3, "L", vec![]).unwrap();
        g.add_edge(0, 2, "L", vec![]).unwrap();
        g.sync_matrices();

        assert_eq!(g.khop_count(0, 1), 2); // {1,2}
        assert_eq!(g.khop_count(0, 2), 3); // {1,2,3}
        assert_eq!(g.khop_count(0, 6), 3);
        assert_eq!(g.khop_count(3, 3), 0);
        // min_hops: nodes first reached at exactly 2 hops
        let exactly2 = g.khop_reached(0, 2, 2, TraverseDir::Outgoing, None);
        // only node 3 (2 was already reached at hop 1)
        assert_eq!(exactly2.nvals(), 1);
        // incoming direction
        assert_eq!(g.khop_reached(3, 1, 3, TraverseDir::Incoming, None).nvals(), 3);
        // both directions from the middle
        assert!(g.khop_reached(2, 1, 1, TraverseDir::Both, None).nvals() >= 2);
    }

    #[test]
    fn khop_reach_min_hops_zero_includes_the_source() {
        // path 0→1→2; regression: the hop loop starts at 1, so hop 0 (the
        // source itself) used to be dropped from `reached`.
        let mut g = Graph::new("k0");
        for _ in 0..3 {
            g.add_node(&["Node"], vec![]);
        }
        g.add_edge(0, 1, "L", vec![]).unwrap();
        g.add_edge(1, 2, "L", vec![]).unwrap();
        g.sync_matrices();

        let zero_to_two = g.khop_reached(0, 0, 2, TraverseDir::Outgoing, None);
        assert_eq!(zero_to_two.iter().collect::<Vec<_>>(), &[0, 1, 2]);
        // `*0` (zero hops exactly) is just the source.
        let zero_only = g.khop_reached(1, 0, 0, TraverseDir::Outgoing, None);
        assert_eq!(zero_only.iter().collect::<Vec<_>>(), &[1]);
        // An isolated source still reaches itself at hop 0 …
        let iso = g.add_node(&["Node"], vec![]);
        assert_eq!(
            g.khop_reached(iso, 0, 5, TraverseDir::Both, None).iter().collect::<Vec<_>>(),
            &[iso]
        );
        // … and min_hops ≥ 1 still excludes it.
        assert_eq!(
            g.khop_reached(0, 1, 2, TraverseDir::Outgoing, None).iter().collect::<Vec<_>>(),
            &[1, 2]
        );
    }

    #[test]
    fn khop_from_a_source_outside_the_dimension_reaches_nothing() {
        // A source with no matrix row reaches nothing, as in the baseline,
        // instead of panicking.
        let g = triangle();
        for source in [g.dim(), g.dim() + 1, u64::MAX] {
            assert_eq!(g.khop_count(source, 3), 0);
            let reached = g.khop_reached(source, 0, 3, TraverseDir::Both, None);
            assert_eq!(reached.nvals(), 0);
            assert_eq!(reached.size(), g.dim());
        }
    }

    #[test]
    fn khop_reach_follows_only_the_named_relation_types() {
        // a -KNOWS-> b -LIVES_IN-> c, a -LIVES_IN-> c
        let g = triangle();
        let knows = g.schema.rel_type_id("KNOWS").unwrap();
        let lives = g.schema.rel_type_id("LIVES_IN").unwrap();
        let reach = |src, dir, types: &[RelTypeId]| {
            g.khop_reached(src, 1, 3, dir, Some(types)).iter().collect::<Vec<_>>()
        };
        assert_eq!(reach(0, TraverseDir::Outgoing, &[knows]), vec![1]);
        assert_eq!(reach(0, TraverseDir::Outgoing, &[lives]), vec![2]);
        assert_eq!(reach(0, TraverseDir::Outgoing, &[knows, lives]), vec![1, 2]);
        assert_eq!(reach(2, TraverseDir::Incoming, &[lives]), vec![0, 1]);
        // Undirected over LIVES_IN only: c reaches a and b, b reaches a via c.
        assert_eq!(reach(1, TraverseDir::Both, &[lives]), vec![0, 2]);
        assert_eq!(reach(1, TraverseDir::Outgoing, &[]), Vec::<NodeId>::new());
    }

    /// A graph of `n` nodes holding `edges`, each under the type it names;
    /// the edges before `folded` are flushed, the rest pending.
    fn typed(n: u64, edges: &[(u64, u64, &str)], folded: usize) -> Graph {
        let mut g = Graph::new("typed");
        g.set_flush_threshold(1_000_000);
        for _ in 0..n {
            g.add_node(&["Node"], vec![]);
        }
        for (i, &(src, dst, rel)) in edges.iter().enumerate() {
            if i == folded {
                g.sync_matrices();
            }
            g.add_edge(src, dst, rel, vec![]).unwrap();
        }
        g
    }

    #[test]
    fn bfs_levels_match_hop_distances() {
        // 0→1, 0→2, 1→3, 2→3, 3→4 over two types, the last two pending;
        // vertex 5 isolated.
        let edges = [(0, 1, "R"), (0, 2, "S"), (1, 3, "R"), (2, 3, "S"), (3, 4, "R")];
        let g = typed(6, &edges, 3);
        assert!(g.has_pending_deltas());
        assert_eq!(g.bfs_levels(0), [(0, 0), (1, 1), (2, 1), (3, 2), (4, 3)]);
    }

    #[test]
    fn bfs_from_a_sink_reaches_only_itself() {
        let edges = [(0, 1, "R"), (0, 2, "R"), (1, 3, "R"), (2, 3, "R"), (3, 4, "R")];
        assert_eq!(typed(6, &edges, 5).bfs_levels(4), [(4, 0)]);
    }

    #[test]
    fn bfs_shortcut_edges_produce_the_shorter_level() {
        let g = typed(4, &[(0, 1, "R"), (1, 2, "R"), (0, 2, "S")], 1);
        assert_eq!(g.bfs_levels(0), [(0, 0), (1, 1), (2, 1)]);
    }

    #[test]
    fn bfs_cycles_terminate() {
        let g = typed(3, &[(0, 1, "R"), (1, 2, "R"), (2, 0, "R")], 3);
        assert_eq!(g.bfs_levels(0), [(0, 0), (1, 1), (2, 2)]);
        // Each vertex reaches the 32 after it, cyclically: the second hop's
        // frontier holds half the edges, so it pulls.
        let edges: Vec<_> =
            (0..64).flat_map(|u| (1..33).map(move |k| (u, (u + k) % 64, "R"))).collect();
        let g = typed(64, &edges, 1000);
        let want: Vec<(u64, u32)> =
            (0..64).map(|v| (v, u32::from(v != 0) + u32::from(v > 32))).collect();
        assert_eq!(g.bfs_levels(0), want);
    }

    #[test]
    fn delete_edge_updates_matrices() {
        let mut g = triangle();
        let knows = Value::Edge { id: 0, src: 0, dst: 1, rel: 0 };
        assert!(g.delete_edge(&knows));
        g.sync_matrices();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.adjacency_matrix().extract_element(0, 1), None);
        assert!(!g.delete_edge(&knows));
    }

    #[test]
    fn delete_edge_ignores_a_stale_or_recycled_value() {
        use TraverseDir::Both;
        let mut g = Graph::new("stale");
        g.set_flush_threshold(1_000_000); // only `sync` folds
        let [a, b, c] = [(); 3].map(|_| g.add_node(&["N"], vec![]));
        let l = g.rel_type_id_or_create("L") as u32;
        let e = g.add_edge(a, b, "L", vec![]).unwrap();
        let value = Value::Edge { id: e, src: a, dst: b, rel: l };
        // A value naming another cell, relation or id, or no edge at all,
        // deletes nothing.
        for wrong in [
            Value::Edge { id: e, src: b, dst: a, rel: l },
            Value::Edge { id: e, src: a, dst: b, rel: l + 1 },
            Value::Edge { id: e, src: u64::MAX, dst: b, rel: l },
            Value::Edge { id: e + 1, src: a, dst: b, rel: l },
            Value::Node(e),
        ] {
            assert!(!g.delete_edge(&wrong), "{wrong:?}");
        }
        assert!(g.delete_edge(&value));
        let state = |g: &Graph| {
            let rows = (g.neighbors(a, None, Both), g.neighbors(c, None, Both));
            (g.epoch(), g.edge_count(), g.pending_delta_count(), rows)
        };
        for flushed in [false, true] {
            // Stale: its edge is gone.
            let before = state(&g);
            assert!(!g.delete_edge(&value), "flushed: {flushed}");
            assert_eq!(state(&g), before);
            // Recycled: the id now names an edge in another cell.
            let recycled = g.add_edge(c, a, "L", vec![]).unwrap();
            assert_eq!(recycled, e, "the freed id is reused");
            if flushed {
                g.sync_matrices();
            }
            let before = state(&g);
            assert!(!g.delete_edge(&value), "flushed: {flushed}");
            assert_eq!(state(&g), before);
            assert_eq!(g.edges_between(l as RelTypeId, c, a).collect::<Vec<_>>(), vec![e]);
            assert!(g.delete_edge(&Value::Edge { id: e, src: c, dst: a, rel: l }));
        }
    }

    #[test]
    fn deleting_one_parallel_edge_through_its_value_keeps_the_others() {
        for flushed in [false, true] {
            let mut g = Graph::new("parallel-value");
            let [a, b] = [(); 2].map(|_| g.add_node(&["N"], vec![]));
            let ids = [(); 3].map(|_| g.add_edge(a, b, "L", vec![]).unwrap());
            if flushed {
                g.sync_matrices();
            }
            let between = |g: &Graph| g.edges_between(0, a, b).collect::<Vec<_>>();
            // Forward and backward traversals bind the value of the one edge
            // the filter picks out of the cell.
            let deleted = |g: &mut Graph, pattern: &str, id: EdgeId| {
                let text = format!("MATCH {pattern} WHERE id(r) = {id} DELETE r");
                g.query(&text).unwrap().stats.relationships_deleted
            };
            assert_eq!(deleted(&mut g, "(x)-[r:L]->(y)", ids[1]), 1, "flushed: {flushed}");
            assert_eq!(between(&g), vec![ids[0], ids[2]]);
            // A live parallel edge's value with its endpoints swapped names
            // no cell of that edge.
            assert!(!g.delete_edge(&Value::Edge { id: ids[0], src: b, dst: a, rel: 0 }));
            assert_eq!(deleted(&mut g, "(y)<-[r:L]-(x)", ids[0]), 1);
            assert_eq!(between(&g), vec![ids[2]]);
            assert_eq!(
                (g.edge_count(), g.neighbors(b, None, TraverseDir::Incoming)),
                (1, vec![(a, ids[2])])
            );
        }
    }

    #[test]
    fn type_of_a_deleted_edge_is_null() {
        let mut g = triangle();
        let rs = g.query("MATCH (a)-[e:KNOWS]->(b) DELETE e RETURN type(e), id(e)").unwrap();
        assert_eq!(rs.stats.relationships_deleted, 1);
        assert_eq!(rs.rows.to_vec(), vec![vec![Value::Null, Value::Int(0)]]);
        // A live edge's type comes from the relation its value names.
        let rs = g.query("MATCH (a)-[e]->(c) RETURN type(e) ORDER BY id(e)").unwrap();
        let types = |t: &str| vec![Value::Str(t.into())];
        assert_eq!(rs.rows.to_vec(), vec![types("LIVES_IN"), types("LIVES_IN")]);
    }

    #[test]
    fn delete_node_removes_incident_edges() {
        let mut g = triangle();
        assert!(g.delete_node(2));
        g.sync_matrices();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1); // only a-KNOWS->b remains
        assert_eq!(g.adjacency_matrix().nvals(), 1);
        assert_eq!(labelled(&g, "City"), Vec::<u64>::new());
    }

    #[test]
    fn set_properties() {
        let mut g = triangle();
        assert!(g.set_node_property(0, "age", Value::Int(40)));
        assert_eq!(g.node_property(0, "age"), Value::Int(40));
        let w = g.attribute_id_or_create("w");
        let edge = edge_values(&g).remove(&0).unwrap();
        assert!(g.set_edge_attribute(&edge, w, Value::Float(0.5)));
        assert_eq!(edge_property(&g, 0, "w"), Value::Float(0.5));
        // A stale value sets nothing.
        assert!(g.delete_edge(&edge) && !g.set_edge_attribute(&edge, w, Value::Int(1)));
        assert!(!g.set_node_property(99, "x", Value::Int(1)));
    }

    #[test]
    fn bulk_load_builds_consistent_matrices() {
        let mut g = Graph::new("bulk");
        g.bulk_load(5, &[(0, 1), (0, 1), (1, 2), (2, 2), (3, 4), (4, 0)]);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4); // dup and self-loop dropped
        assert_eq!(g.adjacency_matrix().nvals(), 4);
        assert_eq!(g.node_property(3, "id"), Value::Int(3));
        assert_eq!(labelled(&g, "Node").len(), 5);
        assert_eq!(g.khop_count(0, 2), 2); // 0→1→2
    }

    /// A generated edge list with duplicates, self-loops and endpoints past
    /// `n`, bulk-loaded and built with `add_node`/`add_edge` from its
    /// deduplicated, in-range pairs, must give the same matrices, ids and
    /// counts.
    #[test]
    fn bulk_load_equals_the_incremental_build_of_its_deduplicated_list() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut below = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        // The last size fills more than the 32 × 32 edge blocks two table
        // levels hold, and more than 32 node blocks.
        for (n, m) in [(0, 4), (1, 3), (7, 60), (300, 4_000), (3_000, 70_000)] {
            let mut list: Vec<(u64, u64)> = (0..m).map(|_| (below(n + 3), below(n + 3))).collect();
            list.extend_from_within(..m / 10);
            let mut bulk = Graph::new("bulk");
            bulk.bulk_load(n, &list);

            let mut kept: Vec<_> =
                list.iter().copied().filter(|&(s, d)| s != d && s < n && d < n).collect();
            kept.sort_unstable();
            kept.dedup();
            let mut inc = Graph::new("incremental");
            inc.label_id_or_create("Node");
            inc.rel_type_id_or_create("LINK");
            for v in 0..n {
                assert_eq!(inc.add_node(&["Node"], vec![("id", Value::Int(v as i64))]), v);
            }
            for (id, &(s, d)) in kept.iter().enumerate() {
                assert_eq!(inc.add_edge(s, d, "LINK", vec![]).unwrap(), id as EdgeId);
            }
            inc.sync_matrices();

            let label = |g: &Graph| g.label_matrices[0].export();
            let rel = |g: &Graph| g.relation_matrices[0].export();
            let rel_t = |g: &Graph| g.relation_matrices_t[0].export();
            assert_eq!(bulk.dim(), inc.dim(), "n = {n}");
            assert_eq!(label(&bulk), label(&inc), "label diagonal, n = {n}");
            assert_eq!(rel(&bulk), rel(&inc), "relation, n = {n}");
            assert_eq!(rel_t(&bulk), rel_t(&inc), "transpose, n = {n}");
            assert_eq!(rel(&bulk).nvals(), kept.len());
            assert_eq!((bulk.edge_count(), bulk.node_count()), (kept.len(), n as usize));
            assert_eq!((inc.edge_count(), inc.node_count()), (kept.len(), n as usize));
            assert!(!bulk.has_pending_deltas() && bulk.list_ids.live() == 0);
            for v in (0..n).step_by(97) {
                assert_eq!(bulk.node_property(v, "id"), Value::Int(v as i64));
                assert_eq!(bulk.node_attributes(v), inc.node_attributes(v));
            }
            // Edge ids without attribute slots: not one block.
            assert_eq!(bulk.storage_bytes().edge_slots, 0);
            if n > 1 {
                let next = kept.len() as EdgeId;
                assert_eq!(bulk.add_edge(0, 1, "LINK", vec![]).unwrap(), next);
            }
        }
    }

    #[test]
    fn storage_bytes_counts_each_store_of_a_loaded_ring() {
        let n = 1_000u64;
        let mut g = Graph::new("bytes");
        g.bulk_load(n, &(0..n).map(|v| (v, (v + 1) % n)).collect::<Vec<_>>());
        // One leaf of 1 024 rows holds the ring, with 1 025 row pointers and
        // a 4-byte column per entry, plus an 8-byte edge-id cell in the
        // relation and none in the transpose or the label diagonal; the rest
        // of the dimension allocates nothing.
        let csr = |nnz: u64, cell: u64| (1025 * 8 + nnz * (4 + cell)) as usize;
        // 16 blocks of 64 node slots; an empty attribute set owns nothing,
        // and an edge without one has no slot.
        let slots = |slot: usize| 16 * 64 * slot;
        let node = size_of::<(AttributeId, Value)>();
        let expect = StorageBytes {
            relations: csr(n, 8),
            transposes: csr(n, 0),
            labels: csr(n, 0),
            edge_slots: 0,
            node_slots: slots(16) + n as usize * node,
            edge_lists: 0,
        };
        assert_eq!(g.storage_bytes(), expect);
        // A second edge in a cell: a block of lists, its two ids, and the
        // list pattern's one leaf, the pair pending and then folded.
        g.add_edge(0, 1, "LINK", vec![]).unwrap();
        let lists = 64 * size_of::<Option<Vec<EdgeId>>>() + 2 * 8;
        assert_eq!(g.storage_bytes().edge_lists, lists + csr(0, 0));
        g.sync_matrices();
        assert_eq!(g.storage_bytes().edge_lists, lists + csr(1, 0));
    }

    #[test]
    fn a_dimension_past_u32_is_refused_before_any_matrix_changes() {
        let mut g = triangle();
        let before = (g.dim(), g.relation_matrices[0].nrows(), g.label_matrices[0].nrows());
        assert!(matches!(g.ensure_dim(MAX_DIM + 1), Err(QueryError::Unsupported(_))));
        assert_eq!((g.dim(), g.relation_matrices[0].nrows(), g.label_matrices[0].nrows()), before);
        // Up to the cap, growth rounds to it, not past it; no leaf is made.
        g.ensure_dim(MAX_DIM).unwrap();
        assert_eq!((g.dim(), g.relation_matrices_t[1].ncols()), (MAX_DIM, MAX_DIM));
        assert_eq!(g.neighbors(0, None, TraverseDir::Outgoing).len(), 2);
    }

    /// Three parallel `L` edges a→b (one tagged cell), one c→b, one b→c,
    /// and an `M` edge a→b; pending, or folded.
    fn parallel_in_edges(folded: bool) -> (Graph, [NodeId; 3], Vec<EdgeId>) {
        let mut g = Graph::new("parallel-in");
        g.set_flush_threshold(1_000_000);
        let [a, b, c] = [(); 3].map(|_| g.add_node(&["N"], vec![]));
        let mut ids: Vec<_> = (0..3).map(|_| g.add_edge(a, b, "L", vec![]).unwrap()).collect();
        ids.push(g.add_edge(c, b, "L", vec![]).unwrap());
        ids.push(g.add_edge(b, c, "L", vec![]).unwrap());
        g.add_edge(a, b, "M", vec![]).unwrap();
        if folded {
            g.sync_matrices();
        }
        (g, [a, b, c], ids)
    }

    #[test]
    fn a_backward_expand_binds_each_edge_of_a_tagged_cell() {
        for folded in [false, true] {
            let (mut g, [a, b, c], ids) = parallel_in_edges(folded);
            let l = g.schema.rel_type_id("L").unwrap();
            assert_ne!(g.relation_matrices[l].extract_element(a, b).unwrap() & LIST_TAG, 0);
            let rows = |g: &mut Graph, q: &str| g.query(q).unwrap().rows.to_vec();
            let int = |v: u64| Value::Int(v as i64);
            // Every (dst, src, edge) binding, read backward and forward.
            let backward =
                rows(&mut g, "MATCH (x)<-[e:L]-(y) RETURN id(x), id(y), id(e) ORDER BY id(e)");
            let forward =
                rows(&mut g, "MATCH (y)-[e:L]->(x) RETURN id(x), id(y), id(e) ORDER BY id(e)");
            let want: Vec<_> =
                [(b, a, ids[0]), (b, a, ids[1]), (b, a, ids[2]), (b, c, ids[3]), (c, b, ids[4])]
                    .map(|(x, y, e)| vec![int(x), int(y), int(e)])
                    .into();
            assert_eq!((&backward, &forward), (&want, &want), "folded: {folded}");
            // The values bound backward name their stored endpoints.
            let mut bound = Vec::new();
            g.for_each_edge(b, Some(&[l]), TraverseDir::Incoming, |nbr, edge| {
                bound.push((nbr, edge))
            });
            let edge = |id, src, dst| Value::Edge { id, src, dst, rel: l as u32 };
            let want = vec![
                (a, edge(ids[0], a, b)),
                (a, edge(ids[1], a, b)),
                (a, edge(ids[2], a, b)),
                (c, edge(ids[3], c, b)),
            ];
            assert_eq!(bound, want, "folded: {folded}");
        }
    }

    #[test]
    fn a_fused_backward_two_hop_counts_parallel_edges() {
        for folded in [false, true] {
            let (mut g, [a, b, c], ids) = parallel_in_edges(folded);
            let l = g.schema.rel_type_id("L").unwrap();
            // Each cell's multiplicity, read through the transpose's row.
            let mut into_b = Vec::new();
            g.relation_row_counts(l, true, b, |nbr, k| into_b.push((nbr, k)));
            assert_eq!(into_b, vec![(a, 3), (c, 1)], "folded: {folded}");
            // Paths c←b←a (3), c←b←c (1) and b←c←b (1); the fused chain's
            // counts equal the forward chain's.
            let count = |g: &mut Graph, q: &str| g.query(q).unwrap().scalar().cloned();
            let backward = count(&mut g, "MATCH (x)<-[:L]-(y)<-[:L]-(z) RETURN count(*)");
            let forward = count(&mut g, "MATCH (z)-[:L]->(y)-[:L]->(x) RETURN count(*)");
            assert_eq!((backward.clone(), forward), (Some(Value::Int(5)), Some(Value::Int(5))));
            let from_c = count(
                &mut g,
                &format!("MATCH (x)<-[:L]-(y)<-[:L]-(z) WHERE id(x) = {c} RETURN count(*)"),
            );
            assert_eq!(from_c, Some(Value::Int(4)), "folded: {folded}");
            // Demoted back to single edges, the relation holds no list, and
            // the counts come from the transpose's pattern alone.
            assert_eq!(g.list_pairs_t[l].to_triples(), vec![(b, a, ())]);
            let values = edge_values(&g);
            let [x, y] = [0, 1].map(|i| values[&ids[i]].clone());
            assert!(g.delete_edge(&x) && g.delete_edge(&y));
            assert_eq!(g.list_pairs_t[l].nvals(), 0);
            let mut into_b = Vec::new();
            g.relation_row_counts(l, true, b, |nbr, k| into_b.push((nbr, k)));
            assert_eq!(into_b, vec![(a, 1), (c, 1)], "folded: {folded}");
            let backward = count(&mut g, "MATCH (x)<-[:L]-(y)<-[:L]-(z) RETURN count(*)");
            assert_eq!(backward, Some(Value::Int(3)), "folded: {folded}");
        }
    }

    /// Whether each relation's list pattern is exactly its tagged cells,
    /// transposed.
    fn list_pairs_are_the_tagged_cells_transposed(g: &Graph) -> bool {
        g.relation_matrices.iter().zip(&g.list_pairs_t).all(|(m, lists)| {
            let tagged = m.to_triples().into_iter().filter(|&(_, _, cell)| cell & LIST_TAG != 0);
            let mut want: Vec<_> = tagged.map(|(src, dst, _)| (dst, src, ())).collect();
            want.sort_unstable();
            lists.to_triples() == want
        })
    }

    #[test]
    fn the_list_pattern_follows_promotions_demotions_and_deletes() {
        // Random creates and deletes over five nodes and two types, so most
        // cells are promoted to lists and demoted again; with everything
        // pending until a sync every 40 writes, and with a leaf folding at
        // every second change.
        for threshold in [1_000_000, 2] {
            let mut g = Graph::new("lists");
            g.set_flush_threshold(threshold);
            let nodes: Vec<_> = (0..5).map(|_| g.add_node(&["N"], vec![])).collect();
            let (mut live, mut state) = (Vec::new(), 0x2545_f491_4f6c_dd1d_u64);
            for step in 0..400 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let pick = |n: usize, shift: u32| (state >> shift) as usize % n;
                if live.is_empty() || pick(3, 0) > 0 {
                    let (src, dst) = (nodes[pick(5, 8)], nodes[pick(5, 16)]);
                    let rel = ["L", "M"][pick(2, 24)];
                    let id = g.add_edge(src, dst, rel, vec![]).unwrap();
                    let rel = g.schema.rel_type_id(rel).unwrap() as u32;
                    live.push(Value::Edge { id, src, dst, rel });
                } else {
                    assert!(g.delete_edge(&live.swap_remove(pick(live.len(), 32))));
                }
                if threshold > 2 && step % 40 == 39 {
                    g.sync_matrices();
                }
                assert!(list_pairs_are_the_tagged_cells_transposed(&g), "step {step}");
                // Every backward count equals its forward cell's.
                for rel in 0..g.relation_type_count() {
                    let mut forward = Vec::new();
                    let counts = g.relation_count_matrix(rel, false).unwrap().to_triples();
                    forward.extend(counts.into_iter().map(|(i, j, k)| (j, i, k)));
                    forward.sort_unstable();
                    let backward = g.relation_count_matrix(rel, true).unwrap().to_triples();
                    assert_eq!(backward, forward, "step {step}, relation {rel}");
                }
            }
        }
    }

    #[test]
    fn grows_past_initial_dimension() {
        let mut g = Graph::new("grow");
        g.bulk_load(GROW_CHUNK + 5, &[(0, GROW_CHUNK + 1)]);
        assert!(g.dim() > GROW_CHUNK);
        assert_eq!(g.khop_count(0, 1), 1);
    }

    #[test]
    fn a_load_of_a_power_of_two_vertices_fills_its_dimension_exactly() {
        let n = 1 << 15;
        let mut g = Graph::new("exact");
        g.bulk_load(n, &(0..n).map(|v| (v, (v * 7 + 1) % n)).collect::<Vec<_>>());
        assert_eq!(g.dim(), 32_768, "no chunk of rows that no node can use");
        let snap = g.snapshot();
        let v = g.add_node(&["Node"], vec![("id", Value::Int(n as i64))]);
        assert_eq!((v, g.dim()), (n, 49_152));
        // Growth adds empty leaf slots: it copies no leaf of any matrix, and
        // the new node's label entry is one new leaf.
        assert_eq!(unshared_leaves(&g, &snap)[3..], [0, 0, 1, 0]);
        let e = g.add_edge(v, 0, "LINK", vec![]).unwrap();
        g.add_edge(n - 1, v, "LINK", vec![]).unwrap();
        assert_eq!(g.neighbors(v, None, TraverseDir::Outgoing), vec![(0, e)]);
        assert_eq!(g.node_property(v, "id"), Value::Int(n as i64));
        assert_eq!(labelled(&g, "Node").len(), n as usize + 1);
        // Two hops from the last old node: through the new one to 0, and
        // through its loaded edge.
        let two_hops = (((n - 1) * 7 + 1) % n * 7 + 1) % n;
        assert_eq!(
            g.khop_reached(n - 1, 2, 2, TraverseDir::Outgoing, None).iter().collect::<Vec<_>>(),
            [0, two_hops]
        );
        assert_eq!(snap.dim(), 32_768);
        assert_eq!(snap.neighbors(n - 1, None, TraverseDir::Outgoing).len(), 1);
    }

    // ------------------------------------------------- delta-path edge cases

    #[test]
    fn readd_after_delete_recycles_the_edge_id() {
        let mut g = Graph::new("readd");
        g.set_flush_threshold(1_000_000); // keep everything buffered
        let a = g.add_node(&["N"], vec![]);
        let b = g.add_node(&["N"], vec![]);
        let e = g.add_edge(a, b, "L", vec![]).unwrap();
        assert!(delete_by_id(&mut g, e));
        // The edge id allocator recycles the freed id, so the new edge gets
        // the just-deleted id back while the delete is still pending.
        let e2 = g.add_edge(a, b, "L", vec![("w", Value::Int(1))]).unwrap();
        assert_eq!(e2, e, "freed edge id must be recycled");
        assert_eq!(g.neighbors(a, None, TraverseDir::Outgoing), vec![(b, e2)]);
        assert_eq!(edge_property(&g, e2, "w"), Value::Int(1));
        g.sync_matrices();
        assert_eq!(g.neighbors(a, None, TraverseDir::Outgoing), vec![(b, e2)]);
        assert_eq!(g.adjacency_matrix().nvals(), 1);
    }

    #[test]
    fn delete_node_with_pending_incident_edge_inserts() {
        let mut g = Graph::new("pending-delete");
        g.set_flush_threshold(1_000_000);
        let a = g.add_node(&["N"], vec![]);
        let b = g.add_node(&["N"], vec![]);
        let c = g.add_node(&["N"], vec![]);
        g.add_edge(a, b, "L", vec![]).unwrap();
        g.add_edge(b, c, "L", vec![]).unwrap();
        g.add_edge(c, b, "L", vec![]).unwrap();
        assert!(g.has_pending_deltas(), "edge inserts must still be buffered");
        // Deleting b while its incident-edge inserts are still pending must
        // cancel them out of every matrix, including the transposes.
        assert!(g.delete_node(b));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.neighbors(a, None, TraverseDir::Both), vec![]);
        assert_eq!(g.neighbors(c, None, TraverseDir::Both), vec![]);
        assert_eq!(g.adjacency_matrix().nvals(), 0);
        g.sync_matrices();
        assert_eq!(g.adjacency_matrix().nvals(), 0);
        assert_eq!(g.khop_count(a, 3), 0);
    }

    #[test]
    fn delete_node_drops_self_loops_parallel_and_two_type_edges_from_its_rows() {
        let mut g = Graph::new("delete-node-rows");
        g.set_flush_threshold(1_000_000); // every change stays pending
        let [a, b, c] = [(); 3].map(|_| g.add_node(&["N"], vec![]));
        g.add_edge(a, a, "L", vec![]).unwrap();
        g.add_edge(a, b, "L", vec![]).unwrap();
        g.add_edge(a, b, "L", vec![]).unwrap();
        g.add_edge(a, c, "M", vec![]).unwrap();
        g.add_edge(c, a, "L", vec![]).unwrap();
        g.add_edge(b, a, "M", vec![]).unwrap();
        let survivor = g.add_edge(b, c, "L", vec![]).unwrap();
        let l = g.schema.rel_type_id("L").unwrap();
        assert_eq!(g.edges_between(l, a, b).count(), 2);

        assert!(g.delete_node(a));
        assert!(g.has_pending_deltas(), "deletes must stay buffered");
        for flushed in [false, true] {
            assert_eq!(g.edge_count(), 1, "flushed: {flushed}");
            assert_eq!(g.neighbors(b, None, TraverseDir::Both), vec![(c, survivor)]);
            assert_eq!(g.neighbors(c, None, TraverseDir::Both), vec![(b, survivor)]);
            assert_eq!(g.neighbors(a, None, TraverseDir::Both), vec![]);
            assert_eq!(g.edges_between(l, a, b).count(), 0);
            assert_eq!(g.khop_count(b, 3), 1);
            assert_eq!(g.khop_count(c, 3), 0);
            g.sync_matrices();
        }
    }

    #[test]
    fn ensure_dim_growth_with_pending_buffers() {
        let mut g = Graph::new("grow-pending");
        g.set_flush_threshold(1_000_000);
        // Up to the chunk boundary: the *next* node triggers growth.
        for _ in 0..GROW_CHUNK {
            g.add_node(&["N"], vec![]);
        }
        g.add_edge(0, 1, "L", vec![]).unwrap();
        g.add_edge(1, 2, "L", vec![]).unwrap();
        assert!(g.has_pending_deltas());
        let dim_before = g.dim();
        // The next node crosses the chunk boundary: every matrix grows while
        // its pending buffers are non-empty, and nothing is lost or flushed.
        let big = g.add_node(&["N"], vec![]);
        assert!(g.dim() > dim_before);
        assert!(g.has_pending_deltas(), "growth must not force a flush");
        g.add_edge(2, big, "L", vec![]).unwrap();
        assert_eq!(g.khop_count(0, 3), 3, "pre- and post-growth edges both traverse");
        g.sync_matrices();
        assert_eq!(g.khop_count(0, 3), 3);
        assert_eq!(g.adjacency_matrix().nvals(), 3);
    }

    #[test]
    fn parallel_edge_delete_repoints_matrix_at_survivor() {
        use TraverseDir::{Incoming, Outgoing};
        for flushed in [false, true] {
            let mut g = Graph::new("parallel");
            g.set_flush_threshold(1_000_000); // only `sync` folds
            let sync = |g: &mut Graph| {
                if flushed {
                    g.sync_matrices()
                }
            };
            let [a, b] = [(); 2].map(|_| g.add_node(&["N"], vec![]));
            let rel = g.rel_type_id_or_create("L");
            // The cell at (src, dst), and whether the transpose holds the
            // pair (dst, src): it holds no cell.
            let cells = |g: &Graph, src, dst| {
                let t = g.relation_matrices_t[rel].contains(dst, src);
                (g.relation_matrices[rel].extract_element(src, dst), t)
            };
            let between = |g: &Graph, src, dst| g.edges_between(rel, src, dst).collect::<Vec<_>>();

            // A recycled id below the cell's edge still lists ascending.
            let spare = g.add_edge(b, a, "L", vec![]).unwrap();
            let e1 = g.add_edge(a, b, "L", vec![]).unwrap();
            assert!(delete_by_id(&mut g, spare));
            sync(&mut g);
            let e0 = g.add_edge(a, b, "L", vec![]).unwrap();
            assert_eq!((e0, between(&g, a, b)), (spare, vec![e0, e1]), "flushed: {flushed}");
            let (tagged, paired) = cells(&g, a, b);
            assert!(paired, "the transpose holds the pair");
            let tagged = tagged.unwrap();
            assert_ne!(tagged & LIST_TAG, 0);
            sync(&mut g);

            // A third edge writes only the list: no matrix buffers a change.
            let pending = g.pending_delta_count();
            let e2 = g.add_edge(a, b, "L", vec![]).unwrap();
            assert_eq!(g.pending_delta_count(), pending);
            assert_eq!(cells(&g, a, b), (Some(tagged), true));
            assert_eq!(g.neighbors(a, None, Outgoing), vec![(b, e0), (b, e1), (b, e2)]);
            assert_eq!(g.neighbors(b, None, Incoming), vec![(a, e0), (a, e1), (a, e2)]);
            let counts = |t| g.relation_count_matrix(rel, t).unwrap();
            assert_eq!(
                (counts(false).extract_element(a, b), counts(true).extract_element(b, a)),
                (Some(3), Some(3))
            );

            // Deleting down to one edge frees the list and stores the
            // survivor in both cells, never a dead edge id.
            let snap = g.snapshot();
            assert!(delete_by_id(&mut g, e0));
            assert!(delete_by_id(&mut g, e2));
            sync(&mut g);
            assert_eq!(cells(&g, a, b), (Some(e1), true));
            assert_eq!(g.neighbors(a, None, Outgoing), vec![(b, e1)]);

            // A parallel self-loop promotes into the freed slot; the snapshot
            // taken before still reads the slot's old list.
            let loops = [(); 2].map(|_| g.add_edge(a, a, "L", vec![]).unwrap());
            let [lo, hi] = [loops[0].min(loops[1]), loops[0].max(loops[1])];
            assert_eq!(cells(&g, a, a), (Some(tagged), true), "the slot is reused");
            assert_eq!(g.neighbors(a, None, Outgoing), vec![(a, lo), (a, hi), (b, e1)]);
            assert_eq!(g.neighbors(a, None, Incoming), vec![(a, lo), (a, hi)]);
            sync(&mut g);
            assert_eq!(between(&snap, a, b), vec![e0, e1, e2]);
            assert_eq!(snap.neighbors(b, None, Incoming), vec![(a, e0), (a, e1), (a, e2)]);
            assert_eq!(between(&snap, a, a), vec![]);

            // Deleting the survivor clears its entries everywhere.
            assert!(delete_by_id(&mut g, e1));
            assert_eq!(g.neighbors(a, None, Outgoing), vec![(a, lo), (a, hi)]);
            assert_eq!(g.neighbors(b, None, Incoming), vec![]);
            assert_eq!(g.adjacency_matrix().nvals(), 1);
        }
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut g = triangle();
        g.set_flush_threshold(2); // force epoch publications mid-test
        let epoch = g.epoch();
        let snap = g.snapshot();

        // Mutate the live graph heavily after the snapshot was pinned.
        let d = g.add_node(&["Person"], vec![("name", Value::Str("d".into()))]);
        g.add_edge(0, d, "KNOWS", vec![]).unwrap();
        g.set_node_property(0, "name", Value::Str("renamed".into()));
        g.delete_node(2);
        g.sync_matrices();

        assert!(g.epoch() > epoch);
        assert_eq!(snap.epoch(), epoch, "a snapshot pins one epoch forever");
        // Entity reads, matrix reads and full queries all see the old state.
        assert_eq!(snap.node_count(), 3);
        assert_eq!(snap.node_property(0, "name"), Value::Str("a".into()));
        assert_eq!(snap.adjacency_matrix().nvals(), 3);
        let rs = snap.query_readonly("MATCH (n) RETURN count(n)").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(3)));
        // A var-length plan reads the snapshot's pinned rows, untouched by
        // the live graph's later writes and fold.
        let rs = snap.query_readonly("MATCH (a)-[*1..3]->(b) RETURN count(DISTINCT b)").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(2)));
        assert_eq!(snap.node_count(), 3);
        // Write clauses are rejected on the snapshot path.
        assert!(snap.query_readonly("CREATE (:Nope)").is_err());
    }

    /// `Weak` handles on relation `rel`'s current leaves.
    fn weak_leaves(g: &Graph, rel: RelTypeId) -> Vec<std::sync::Weak<Leaf<u64>>> {
        g.relation_epoch_pin(rel).unwrap().iter().map(Arc::downgrade).collect()
    }

    #[test]
    fn snapshot_epochs_are_reclaimed_not_accumulated() {
        let mut g = Graph::new("reclaim");
        g.set_flush_threshold(4);
        for _ in 0..34 {
            g.add_node(&["N"], vec![]);
        }
        let l = g.rel_type_id_or_create("L");
        // One edge, so the first epoch holds a relation leaf.
        g.add_edge(33, 0, "L", vec![]).unwrap();
        g.sync_matrices();

        let pinned = g.snapshot(); // long-lived reader on the current epoch
        let weak_first = weak_leaves(&g, l);
        assert_eq!(weak_first.len(), 1);

        // A write-heavy loop that keeps folding leaves (threshold 4) while
        // short-lived snapshots come and go, as the server's read path does.
        // Every edge fills a new cell: a third or later parallel edge
        // writes only its cell's list, so it would fold nothing.
        let mut weaks = Vec::new();
        for i in 0..32 {
            let s = g.snapshot();
            g.add_edge(i, i + 1, "L", vec![]).unwrap();
            g.add_edge(i + 2, i, "L", vec![]).unwrap();
            g.sync_matrices();
            weaks.extend(weak_leaves(&g, l));
            drop(s);
        }
        let current = g.relation_epoch_pin(l).unwrap();
        let live: Vec<_> = weaks.iter().filter_map(std::sync::Weak::upgrade).collect();
        let newest = |leaf: &Arc<Leaf<u64>>| current.iter().any(|c| Arc::ptr_eq(c, leaf));
        assert!(live.iter().all(newest), "only the newest relation leaves may stay alive");
        assert_eq!(live.len(), current.len());
        // The long-pinned first leaves are still alive through `pinned`…
        assert!(weak_first.iter().all(|w| w.upgrade().is_some()));
        assert_eq!(pinned.node_count(), 34);
        assert_eq!(pinned.edge_count(), 1);
        drop(pinned);
        // …and reclaimed the moment the last reader drops.
        let freed = weak_first.iter().all(|w| w.upgrade().is_none());
        assert!(freed, "dropping the last snapshot frees the leaves it alone held");
    }

    /// Whether `a` shares every table of `b` by pointer — the schema, the
    /// slot blocks, the free-id stacks, each matrix's leaves: what a clone
    /// must do in O(#matrices), whatever the graph's size.
    fn shares_every_root(a: &Graph, b: &Graph) -> bool {
        fn matrices<T: Scalar>(a: &[DeltaMatrix<T>], b: &[DeltaMatrix<T>]) -> bool {
            let same = |(a, b): (&DeltaMatrix<T>, &DeltaMatrix<T>)| a.table().ptr_eq(b.table());
            a.len() == b.len() && a.iter().zip(b).all(same)
        }
        fn slots<T>((a, a_ids): (&Slots<T>, &IdAlloc), (b, b_ids): (&Slots<T>, &IdAlloc)) -> bool {
            a.blocks().ptr_eq(b.blocks()) && a_ids.free_chunks().ptr_eq(b_ids.free_chunks())
        }
        Arc::ptr_eq(&a.name, &b.name)
            && Arc::ptr_eq(&a.schema, &b.schema)
            && slots((&a.nodes, &a.node_ids), (&b.nodes, &b.node_ids))
            && slots((&a.edge_attrs, &a.edge_ids), (&b.edge_attrs, &b.edge_ids))
            && slots((&a.edge_lists, &a.list_ids), (&b.edge_lists, &b.list_ids))
            && matrices(&a.relation_matrices, &b.relation_matrices)
            && matrices(&a.relation_matrices_t, &b.relation_matrices_t)
            && matrices(&a.label_matrices, &b.label_matrices)
            && matrices(&a.list_pairs_t, &b.list_pairs_t)
    }

    /// Per table, the leaves `g` holds that `snap` does not share by
    /// pointer: the edge attribute blocks, the node blocks, the
    /// parallel-edge list blocks, then every matrix's leaves (relations,
    /// transposes, labels, list patterns).
    fn unshared_leaves(g: &Graph, snap: &Graph) -> Vec<usize> {
        fn each<T: Scalar>(a: &[DeltaMatrix<T>], b: &[DeltaMatrix<T>]) -> Vec<usize> {
            let count = |(a, b): (&DeltaMatrix<T>, &DeltaMatrix<T>)| {
                a.table().leaves_not_shared_with(b.table())
            };
            a.iter().zip(b).map(count).collect()
        }
        fn blocks<T>(a: &Slots<T>, b: &Slots<T>) -> usize {
            a.blocks().leaves_not_shared_with(b.blocks())
        }
        let mut out = vec![
            blocks(&g.edge_attrs, &snap.edge_attrs),
            blocks(&g.nodes, &snap.nodes),
            blocks(&g.edge_lists, &snap.edge_lists),
        ];
        out.extend(each(&g.relation_matrices, &snap.relation_matrices));
        out.extend(each(&g.relation_matrices_t, &snap.relation_matrices_t));
        out.extend(each(&g.label_matrices, &snap.label_matrices));
        out.extend(each(&g.list_pairs_t, &snap.list_pairs_t));
        out
    }

    #[test]
    fn a_clone_shares_every_table_root_after_many_deletes() {
        let n = 20_000;
        let mut g = Graph::new("roots");
        g.bulk_load(
            n,
            &(0..n).flat_map(|i| [(i, (i + 1) % n), (i, (i + 2) % n)]).collect::<Vec<_>>(),
        );
        // 10 000 deleted edges: some folded, the rest pending, and every
        // freed id on the free stack, in 157 chunks of 64.
        g.set_flush_threshold(4_000);
        let values = edge_values(&g);
        for id in (0..40_000).step_by(4) {
            assert!(g.delete_edge(&values[&id]));
        }
        assert!(g.has_pending_deltas() && g.delta_flush_count() > 0);
        assert_eq!(g.edge_ids.free_chunks().iter().count(), 157);
        assert_eq!(g.edge_count(), 30_000);
        let snap = g.snapshot();
        assert!(shares_every_root(&g, &snap), "a clone copied a table");
        assert!(unshared_leaves(&g, &snap).iter().all(|&c| c == 0));
        // One more delete copies the free stack's top chunk, not the stack.
        assert!(g.delete_edge(&values[&1]));
        let free = g.edge_ids.free_chunks();
        assert_eq!(
            (free.iter().count(), free.leaves_not_shared_with(snap.edge_ids.free_chunks())),
            (157, 1)
        );
    }

    #[test]
    fn a_clone_shares_every_root_of_a_graph_with_10_000_parallel_cells() {
        let n = 10_000;
        let mut g = Graph::new("lists");
        let ring: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        g.bulk_load(n, &ring);
        for &(src, dst) in &ring {
            g.add_edge(src, dst, "LINK", vec![]).unwrap();
        }
        assert_eq!(g.list_ids.live(), n as usize);
        let snap = g.snapshot();
        assert!(shares_every_root(&g, &snap), "a clone copied a table");
        assert!(unshared_leaves(&g, &snap).iter().all(|&c| c == 0));
        // A third edge in a cell copies one list block and no matrix chunk,
        // and, without properties, no edge block.
        let e = g.add_edge(0, 1, "LINK", vec![]).unwrap();
        assert_eq!(unshared_leaves(&g, &snap), vec![0, 0, 1, 0, 0, 0, 0]);
        assert_eq!(g.edges_between(0, 0, 1).collect::<Vec<_>>(), vec![0, n, e]);
        assert_eq!(snap.edges_between(0, 0, 1).collect::<Vec<_>>(), vec![0, n]);
    }

    #[test]
    fn a_write_after_a_snapshot_copies_one_chunk_per_matrix_and_one_block() {
        let n = 4096;
        let mut g = Graph::new("share");
        g.bulk_load(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>());
        g.set_flush_threshold(1_000_000);
        // Two buffered matrix changes per new cell: rows 0..n gain `v → v+2`,
        // rows 0..904 also `v → v+3`.
        for i in 0..5000 {
            g.add_edge(i % n, (i + 2 + i / n) % n, "LINK", vec![]).unwrap();
        }
        assert!(g.pending_delta_count() >= 10_000);

        // Snapshotting ~10 k pending changes copies no buffer entry and no
        // slot: every table is shared whole.
        let snap = g.snapshot();
        assert!(shares_every_root(&g, &snap));

        // One edge insert without properties copies one leaf (with its
        // path) in each of the two matrices it touches, and nothing else:
        // no edge block, the node blocks, the label matrix, the schema and
        // the free-id stacks stay shared whole.
        let e = g.add_edge(100, 3000, "LINK", vec![]).unwrap();
        assert_eq!(unshared_leaves(&g, &snap), vec![0, 0, 0, 1, 1, 0, 0]);
        assert!(g.nodes.blocks().ptr_eq(snap.nodes.blocks()));
        assert!(g.label_matrices[0].table().ptr_eq(snap.label_matrices[0].table()));
        assert!(Arc::ptr_eq(&g.schema, &snap.schema));
        assert!(g.edge_ids.free_chunks().ptr_eq(snap.edge_ids.free_chunks()));
        assert_eq!(snap.edges_between(0, 100, 3000).count(), 0);
        assert_eq!(g.edges_between(0, 100, 3000).collect::<Vec<_>>(), vec![e]);
        assert_eq!(snap.edge_count() + 1, g.edge_count());
        drop(snap);

        // Likewise one delete, of a flushed edge, beside a fresh snapshot;
        // it also pushes the freed id onto a copy of the free stack's top
        // chunk, and the create that reuses the id copies nothing more.
        let snap = g.snapshot();
        assert!(g.delete_edge(&Value::Edge { id: 7, src: 7, dst: 8, rel: 0 }));
        assert_eq!(unshared_leaves(&g, &snap), vec![0, 0, 0, 1, 1, 0, 0]);
        let free_copies = |g: &Graph| {
            g.edge_ids.free_chunks().leaves_not_shared_with(snap.edge_ids.free_chunks())
        };
        assert_eq!(free_copies(&g), 1);
        assert!(g.node_ids.free_chunks().ptr_eq(snap.node_ids.free_chunks()));
        let survivors = vec![(9, n + 7), (10, 2 * n + 7)];
        assert_eq!(snap.neighbors(7, None, TraverseDir::Outgoing)[1..], survivors);
        assert_eq!(snap.neighbors(7, None, TraverseDir::Outgoing)[0], (8, 7));
        assert_eq!(g.neighbors(7, None, TraverseDir::Outgoing), survivors);
        let reused = g.add_edge(3000, 100, "LINK", vec![]).unwrap();
        assert_eq!((reused, free_copies(&g)), (7, 1));
        // A new property name copies the schema; a known one does not.
        let snap = g.snapshot();
        g.set_node_property(1, "id", Value::Int(-1));
        assert!(Arc::ptr_eq(&g.schema, &snap.schema));
        g.set_node_property(1, "fresh", Value::Int(1));
        assert!(!Arc::ptr_eq(&g.schema, &snap.schema));
        assert_eq!(snap.schema.attribute_id("fresh"), None);
    }

    #[test]
    fn a_snapshot_keeps_its_edge_properties_when_a_write_adds_a_blocks_first() {
        let n = 1_000;
        let mut g = Graph::new("frozen-props");
        g.bulk_load(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>());
        let values = edge_values(&g);
        let w = g.attribute_id_or_create("w");
        // One attributed edge, in block 1; block 0 has none.
        assert!(g.set_edge_attribute(&values[&70], w, Value::Int(1)));
        let snap = g.snapshot();
        assert!(snap.edge_attrs.blocks().get(0).is_none(), "a block with no property");

        // The first property in block 0 creates the block beside the
        // snapshot; a change in block 1 copies it; removing the last
        // property of block 1 drops the copy.
        assert!(g.set_edge_attribute(&values[&5], w, Value::Int(2)));
        assert!(g.set_edge_attribute(&values[&6], w, Value::Null));
        assert_eq!(g.edge_attrs.blocks().leaves_not_shared_with(snap.edge_attrs.blocks()), 1);
        assert!(g.set_edge_attribute(&values[&70], w, Value::Int(3)));
        assert_eq!(g.edge_attrs.blocks().leaves_not_shared_with(snap.edge_attrs.blocks()), 2);
        let read = |g: &Graph, id| edge_property(g, id, "w");
        assert_eq!([5, 6, 70].map(|id| read(&g, id)), [Value::Int(2), Value::Null, Value::Int(3)]);
        assert_eq!([5, 70].map(|id| read(&snap, id)), [Value::Null, Value::Int(1)]);
        assert!(g.set_edge_attribute(&values[&70], w, Value::Null));
        assert!(g.edge_attrs.blocks().get(1).is_none(), "a block left empty is dropped");
        assert_eq!(g.storage_bytes().edge_slots, 64 * 16 + size_of::<(AttributeId, Value)>());
        assert_eq!([5, 70].map(|id| read(&snap, id)), [Value::Null, Value::Int(1)]);
        assert!(snap.edge_attrs.blocks().get(0).is_none());
        // A delete clears the slot: the edge that reuses the id has none.
        assert!(g.delete_edge(&values[&5]));
        let reused = g.add_edge(5, 7, "LINK", vec![]).unwrap();
        assert_eq!((reused, read(&g, reused)), (5, Value::Null));
        assert_eq!(g.storage_bytes().edge_slots, 0);
    }

    /// Every live node's outgoing row and every live edge's slot and cell,
    /// checked against a model of `id → (src, dst)` of the one relation
    /// `LINK`, on `nodes` node ids.
    fn assert_reads_back(
        g: &Graph,
        nodes: u64,
        edges: &std::collections::BTreeMap<u64, (u64, u64)>,
    ) {
        assert_eq!((g.node_count() as u64, g.edge_count()), (nodes, edges.len()));
        let mut rows = vec![Vec::new(); nodes as usize];
        for (&id, &(src, dst)) in edges {
            assert!(g.edges_between(0, src, dst).any(|e| e == id), "edge {id}");
            rows[src as usize].push((dst, id));
        }
        for (v, mut row) in rows.into_iter().enumerate() {
            row.sort_unstable();
            assert_eq!(g.neighbors(v as u64, None, TraverseDir::Outgoing), row, "row {v}");
            assert_eq!(g.node_property(v as u64, "id"), Value::Int(v as i64), "node {v}");
        }
    }

    #[test]
    fn writes_behind_a_snapshot_past_two_table_levels_read_back_on_both_sides() {
        // 5 000 nodes fill 79 node blocks of 64 slots, past two 32-block
        // groups; 140 000 edges fill 2 188 edge blocks, past the 1 024 two
        // table levels hold.
        let n = 5_000;
        let mut links: Vec<(u64, u64)> =
            (0..n).flat_map(|v| (1..=28).map(move |k| (v, (v + 37 * k) % n))).collect();
        // `bulk_load` numbers the edges in sorted order.
        links.sort_unstable();
        let mut g = Graph::new("deep");
        g.bulk_load(n, &links);
        g.set_flush_threshold(1_000_000);
        let mut model: std::collections::BTreeMap<u64, (u64, u64)> =
            links.iter().enumerate().map(|(id, &e)| (id as u64, e)).collect();
        assert_eq!(g.edge_count(), 140_000);
        let snap = g.snapshot();
        let frozen = model.clone();

        // Deletes spread over every edge block, inserts that recycle their
        // ids and then extend the table, and nodes past the old dimension's
        // blocks.
        for id in (0..140_000).step_by(331) {
            let (src, dst) = model.remove(&id).unwrap();
            assert!(g.delete_edge(&Value::Edge { id, src, dst, rel: 0 }));
        }
        for i in 0..1_000 {
            let (src, dst) = ((i * 7919) % n, (i * 104_729 + 1) % n);
            if src != dst {
                model.insert(g.add_edge(src, dst, "LINK", vec![]).unwrap(), (src, dst));
            }
        }
        for v in n..n + 300 {
            assert_eq!(g.add_node(&["Node"], vec![("id", Value::Int(v as i64))]), v);
            model.insert(g.add_edge(v, v - n, "LINK", vec![]).unwrap(), (v, v - n));
        }
        assert!(g.has_pending_deltas());
        assert_reads_back(&g, n + 300, &model);
        assert_reads_back(&snap, n, &frozen);
        g.sync_matrices();
        assert_reads_back(&g, n + 300, &model);
        assert_reads_back(&snap, n, &frozen);
    }

    #[test]
    fn merged_views_serve_reads_without_a_flush() {
        let mut g = Graph::new("merged");
        g.set_flush_threshold(1_000_000);
        let a = g.add_node(&["Person"], vec![]);
        let b = g.add_node(&["Person"], vec![]);
        let c = g.add_node(&["City"], vec![]);
        g.add_edge(a, b, "KNOWS", vec![]).unwrap();
        g.add_edge(b, c, "LIVES_IN", vec![]).unwrap();
        assert!(g.has_pending_deltas());
        // Every read surface answers from the merged view.
        assert_eq!(labelled(&g, "Person"), vec![a, b]);
        assert_eq!(g.khop_count(a, 2), 2);
        assert_eq!(g.khop_reached(c, 1, 2, TraverseDir::Incoming, None).nvals(), 2);
        assert_eq!(g.adjacency_matrix().nvals(), 2);
        let rs = g.query_readonly("MATCH (p:Person)-[:KNOWS]->(q) RETURN count(q)").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(1)));
        assert!(g.has_pending_deltas(), "read-only queries must not flush");
    }
}
