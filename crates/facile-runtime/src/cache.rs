//! The specialized action cache (paper §2, Figure 2).
//!
//! The cache stores, per memoization key, the *dynamic actions* a slow
//! simulator recorded while executing one step: action numbers plus
//! run-time-static placeholder data, "linked together in the order in
//! which they execute". Actions that test dynamic values have multiple
//! successors keyed by the observed value; INDEX actions chain to the next
//! step's entry so the fast simulator can follow links instead of doing a
//! full lookup.
//!
//! Recording happens through a [`Cursor`]: the position of the pending
//! link. The fast simulator walks nodes; when a needed successor is
//! missing it converts its position back into a cursor and hands control
//! to the slow simulator (an *action-cache miss*, paper §2.1).
//!
//! Memory accounting (paper Table 2) charges each node its varint-encoded
//! payload size plus a small fixed overhead. A capacity limit is enforced
//! at step boundaries by one victim loop; the [`CachePolicy`] only picks
//! the victims: everything (§6.2's clear-on-full) or the coldest segments.
//!
//! # Segments
//!
//! All node storage lives in [`Segment`]s: plain-data arenas of nodes,
//! successor links and a slab of placeholder data and INDEX signatures
//! (nodes hold `(offset, len)` ranges, so replay walks linear memory).
//! The cache keeps one table of them, sorted by *sequence number*, and
//! resolves a [`NodeId`] — sequence number plus index — through it, with
//! a hot-slot hint that makes the common case one compare. Sequence
//! numbers are never reused, so a link into a retired segment fails to
//! resolve and reads as an ordinary miss.
//!
//! The last segment receives new recordings; the generational policy
//! *rotates* to a fresh one once it has spent its share of the budget.
//! The recording segment and the one holding the cursor's node are
//! pinned: an in-flight step is never evicted from under itself. A warm
//! start ([`ActionCache::install_frozen`]) puts the sealed segments of a
//! [`FrozenGens`] image at the front of the table, `Arc`-shared with
//! every cache that installed it: read-only, never evicted. Links
//! recorded *from* their nodes go to a private copy-on-write overlay.
//!
//! Successor lists carry a **hot index** (the position replay last took,
//! probed first) and are sorted past `LINEAR_MAX` (docs/PERFORMANCE.md).

use crate::key::{hash_bytes, varint_len, zigzag, Key};
use facile_obs::{ObsHandle, TraceEvent};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a node in the action cache: its segment's sequence
/// number (never reused, so an id whose segment was evicted or cleared
/// fails to resolve instead of aliasing) and its index in the segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId {
    /// Sequence number of the owning segment.
    gen: u32,
    /// Index within the segment.
    idx: u32,
}

impl NodeId {
    /// Reassembles an id from its segment sequence number and index (the
    /// snapshot decoder's constructor; [`FrozenGens::from_parts`] checks it).
    pub fn from_parts(gen: u32, idx: u32) -> NodeId {
        NodeId { gen, idx }
    }

    /// The id as a usable index within its segment.
    pub fn index(self) -> usize {
        self.idx as usize
    }

    /// The owning segment's sequence number.
    pub fn generation(self) -> u32 {
        self.gen
    }
}

/// A `(offset, len)` range into a segment's data slab.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlabRange {
    off: u32,
    len: u32,
}

impl SlabRange {
    /// The range of `len` values from `off`.
    pub fn new(off: u32, len: u32) -> SlabRange {
        SlabRange { off, len }
    }

    /// Start offset of the range within its segment's slab.
    pub fn off(self) -> usize {
        self.off as usize
    }

    /// Number of values in the range.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the range is empty.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// Successor lists longer than this are kept sorted and binary-searched;
/// at or below it they are scanned linearly (after the hot-index probe).
const LINEAR_MAX: usize = 8;

/// The discriminator of a successor list entry: a test value reads as
/// itself, an INDEX signature range as the slab values it covers.
pub trait LinkKey: Copy {
    /// What lookups compare.
    type Probe: Ord + ?Sized;
    /// The comparable form of this key, resolved against its slab.
    fn probe<'a>(&'a self, slab: &'a [i64]) -> &'a Self::Probe;
}

impl LinkKey for i64 {
    type Probe = i64;
    fn probe<'a>(&'a self, _: &'a [i64]) -> &'a i64 {
        self
    }
}

impl LinkKey for SlabRange {
    type Probe = [i64];
    fn probe<'a>(&'a self, slab: &'a [i64]) -> &'a [i64] {
        range_of(slab, *self)
    }
}

/// Successors of a multi-way node, one per discriminator, with a
/// hot-index inline cache remembering the last successor taken.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Links<K> {
    /// `(discriminator, successor)`; sorted by discriminator once the
    /// list outgrows [`LINEAR_MAX`].
    items: Vec<(K, NodeId)>,
    /// Index of the most recently taken successor (hint only).
    hot: u32,
}

/// Successors of a dynamic result test, keyed by the observed value.
pub type TestList = Links<i64>;

/// Successors of an INDEX action, keyed by the *dynamic* key components
/// only — the run-time-static components are identical on every execution
/// of the same node, so the dynamic signature discriminates fully and
/// replay never has to serialize the whole key (the paper's "faster to
/// follow the link"). Signatures live in the owning record's slab.
pub type IndexList = Links<SlabRange>;

impl<K> Links<K> {
    /// A list of recorded `(discriminator, successor)` pairs with a cold
    /// inline cache.
    pub fn new(items: Vec<(K, NodeId)>) -> Links<K> {
        Links { items, hot: 0 }
    }

    /// The recorded `(discriminator, successor)` pairs (order unspecified).
    pub fn items(&self) -> &[(K, NodeId)] {
        &self.items
    }
}

impl<K: LinkKey> Links<K> {
    /// Position and target of `probe`: the hot index first, then a
    /// linear scan or, past [`LINEAR_MAX`], a binary search.
    fn get(&self, slab: &[i64], probe: &K::Probe) -> Option<(usize, NodeId)> {
        let hot = self.hot as usize;
        let i = match self.items.get(hot) {
            Some((k, _)) if k.probe(slab) == probe => hot,
            _ if self.items.len() <= LINEAR_MAX => self
                .items
                .iter()
                .position(|(k, _)| k.probe(slab) == probe)?,
            _ => self
                .items
                .binary_search_by(|(k, _)| k.probe(slab).cmp(probe))
                .ok()?,
        };
        Some((i, self.items[i].1))
    }

    fn sort(&mut self, slab: &[i64]) {
        self.items
            .sort_unstable_by(|(a, _), (b, _)| a.probe(slab).cmp(b.probe(slab)));
    }

    /// Re-establishes the sorted lookup invariant of a decoded list and
    /// reports whether its discriminators are unique (a decoder must be
    /// able to trust lookups, not the writer's ordering).
    fn sort_checked(&mut self, slab: &[i64]) -> bool {
        if self.items.len() <= LINEAR_MAX {
            return true;
        }
        self.sort(slab);
        self.items
            .windows(2)
            .all(|w| w[0].0.probe(slab) != w[1].0.probe(slab))
    }

    /// Links `probe` to `target`, pointing the hot index at it: in place
    /// when already recorded (its old target was evicted), else as a new
    /// link whose key `store` keeps (it may decline), in sorted order past
    /// [`LINEAR_MAX`]. Returns whether a link was added (byte accounting).
    fn link(
        &mut self,
        slab: &mut Vec<i64>,
        probe: &K::Probe,
        target: NodeId,
        store: impl FnOnce(&mut Vec<i64>) -> Option<K>,
    ) -> bool {
        if let Some((i, _)) = self.get(slab, probe) {
            self.items[i].1 = target;
            self.hot = i as u32;
            return false;
        }
        let Some(key) = store(slab) else {
            return false;
        };
        let at = match self.items.len() {
            n if n < LINEAR_MAX => n,
            n => {
                if n == LINEAR_MAX {
                    self.sort(slab);
                }
                self.items
                    .binary_search_by(|(k, _)| k.probe(slab).cmp(probe))
                    .unwrap_err()
            }
        };
        self.items.insert(at, (key, target));
        self.hot = at as u32;
        true
    }
}

/// Successor links of a node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Succ {
    /// Not recorded yet.
    None,
    /// Straight-line link (plain actions).
    One(NodeId),
    /// Dynamic result test: one successor per observed value.
    Tests(TestList),
    /// INDEX action: successors are step entries, keyed by dynamic
    /// signature.
    Index(IndexList),
}

impl Succ {
    /// The inline-cached position of a multi-way record.
    fn hot(&self) -> usize {
        match self {
            Succ::Tests(l) => l.hot as usize,
            Succ::Index(l) => l.hot as usize,
            _ => 0,
        }
    }

    fn set_hot(&mut self, i: usize) {
        match self {
            Succ::Tests(l) => l.hot = i as u32,
            Succ::Index(l) => l.hot = i as u32,
            _ => {}
        }
    }
}

/// One recorded action.
#[derive(Clone, Copy, Debug)]
pub struct Node {
    /// The action number (an index into the fast engine's action table).
    pub action: u32,
    /// Run-time-static placeholder data, as a range into the owning
    /// segment's slab (resolve with [`ActionCache::node_data`]).
    pub data: SlabRange,
}

/// Where the next recorded node will be linked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cursor {
    /// Start of simulation (or right after a clear): the next node becomes
    /// the entry for this key.
    AtEntry(Key),
    /// After a plain action.
    AfterPlain(NodeId),
    /// After a dynamic result test that observed `1`-th value.
    AfterTest(NodeId, i64),
    /// After an INDEX action that computed this next key (with the
    /// dynamic signature used for the node-local link).
    AfterIndex(NodeId, Key, Vec<i64>),
}

/// What happens when the cache exceeds its byte capacity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// Wholesale clear-on-full (the paper's §6.2 policy).
    #[default]
    Clear,
    /// Generational partial eviction: retire only the coldest
    /// segments; hot memoized state stays resident.
    Generational,
}

/// Counters describing cache behaviour, for Tables 1 and 2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Nodes ever created (across clears and evictions).
    pub nodes_created: u64,
    /// Entries ever registered.
    pub entries_created: u64,
    /// Times the cache was cleared because it hit capacity.
    pub clears: u64,
    /// Bytes currently held.
    pub bytes_current: u64,
    /// Bytes ever memoized (monotonic; what Table 2 reports).
    pub bytes_total: u64,
    /// High-water mark of `bytes_current`.
    pub bytes_peak: u64,
    /// Bytes released by clears (cumulative).
    pub bytes_cleared: u64,
    /// Segments evicted by the generational policy (cumulative).
    pub evictions: u64,
    /// Bytes released by generational evictions (cumulative). Invariant:
    /// `bytes_total == bytes_current + bytes_cleared + bytes_evicted`.
    pub bytes_evicted: u64,
    /// Snapshot payload bytes installed by [`ActionCache::install_frozen`]
    /// (warm start). Frozen storage is read-only and pinned, so it is
    /// accounted here, *outside* `bytes_current` and the capacity
    /// budget — the byte invariant above is untouched by warm starts.
    pub bytes_frozen: u64,
    /// Frozen segments pinned by a warm start (0 when cold).
    pub frozen_gens: u64,
}

/// One slot of the open-addressing entry table.
#[derive(Clone, Debug)]
struct EntrySlot {
    /// Precomputed [`hash_bytes`] of the key (valid only when occupied).
    hash: u64,
    /// Entry node index, or [`EntryTable::VACANT`] when the slot is free.
    node: u32,
    /// Segment sequence number of the entry node.
    gen: u32,
    /// The key bytes (empty when the slot is free).
    key: Key,
}

/// Insert-only open-addressing hash table from [`Key`] to entry node.
/// Linear probing over a power-of-two slot array; no tombstones. Slots
/// whose target segment was evicted stay occupied (probe chains must
/// not break); they are overwritten in place on re-registration of the
/// same key, and dropped when the table grows.
#[derive(Clone, Debug, Default)]
struct EntryTable {
    slots: Vec<EntrySlot>,
    len: usize,
}

impl EntryTable {
    const VACANT: u32 = u32::MAX;
    const INITIAL_SLOTS: usize = 64;

    fn clear(&mut self) {
        for s in &mut self.slots {
            s.node = Self::VACANT;
            s.key = Key::default();
        }
        self.len = 0;
    }

    fn get(&self, bytes: &[u8]) -> Option<NodeId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let hash = hash_bytes(bytes);
        let mut i = hash as usize & mask;
        loop {
            let slot = &self.slots[i];
            if slot.node == Self::VACANT {
                return None;
            }
            if slot.hash == hash && slot.key.as_bytes() == bytes {
                return Some(NodeId::from_parts(slot.gen, slot.node));
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `key -> node` if the key is absent *or* its current
    /// target's segment is no longer resident (per `resident`); returns
    /// whether it (re)inserted. A live registration wins over a later one
    /// for the same key.
    fn insert(&mut self, key: Key, node: NodeId, resident: impl Fn(u32) -> bool + Copy) -> bool {
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow(resident);
        }
        let mask = self.slots.len() - 1;
        let hash = hash_bytes(key.as_bytes());
        let mut i = hash as usize & mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.node == Self::VACANT {
                *slot = EntrySlot {
                    hash,
                    node: node.idx,
                    gen: node.gen,
                    key,
                };
                self.len += 1;
                return true;
            }
            if slot.hash == hash && slot.key == key {
                if resident(slot.gen) {
                    return false; // first live registration wins
                }
                // Stale registration: point the slot at the new entry.
                slot.node = node.idx;
                slot.gen = node.gen;
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    /// Rehashes into a bigger table, dropping slots whose target
    /// segment is gone so eviction churn cannot grow the table
    /// unboundedly.
    fn grow(&mut self, resident: impl Fn(u32) -> bool) {
        let new_cap = (self.slots.len() * 2).max(Self::INITIAL_SLOTS);
        let old = std::mem::replace(
            &mut self.slots,
            vec![
                EntrySlot {
                    hash: 0,
                    node: Self::VACANT,
                    gen: 0,
                    key: Key::default(),
                };
                new_cap
            ],
        );
        self.len = 0;
        let mask = new_cap - 1;
        for slot in old {
            if slot.node == Self::VACANT || !resident(slot.gen) {
                continue;
            }
            let mut i = slot.hash as usize & mask;
            while self.slots[i].node != Self::VACANT {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
            self.len += 1;
        }
    }
}

/// One storage segment: recorded nodes, their successor links and the
/// slab holding their placeholder data and INDEX signatures.
///
/// Plain data — the cache keeps its bookkeeping for a segment (bytes
/// charged, touch stamp) in its own segment table — so a sealed segment
/// is `Sync` and caches share it behind an `Arc`.
#[derive(Clone, Debug, Default)]
pub struct Segment {
    /// Globally monotonic sequence number (never reused).
    seq: u32,
    nodes: Vec<Node>,
    /// Successor links, parallel to `nodes` (kept out of [`Node`] so the
    /// node header stays `Copy` and the replay walk reads a dense array).
    succs: Vec<Succ>,
    /// Contiguous backing store for placeholder data and INDEX link
    /// signatures.
    slab: Vec<i64>,
}

impl Segment {
    /// Assembles a segment from decoded parts, unchecked: seal it with
    /// [`FrozenGens::from_parts`], which validates every reference.
    pub fn from_parts(seq: u32, nodes: Vec<(Node, Succ)>, slab: Vec<i64>) -> Segment {
        let (nodes, succs) = nodes.into_iter().unzip();
        Segment {
            seq,
            nodes,
            succs,
            slab,
        }
    }

    /// The segment's (never reused) sequence number.
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// The recorded action nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The successor links of node `idx` (ranges in `Index` links
    /// resolve against this segment's [`slab`](Self::slab)).
    pub fn succ(&self, idx: usize) -> &Succ {
        &self.succs[idx]
    }

    /// The contiguous placeholder-data / signature store.
    pub fn slab(&self) -> &[i64] {
        &self.slab
    }
}

/// How the cache holds a segment.
#[derive(Clone, Debug)]
enum Store {
    /// Recorded by this cache: writable and evictable.
    Own(Segment),
    /// Sealed and shared with other caches (a warm-start image):
    /// read-only and resident for the life of the run.
    Shared(Arc<Segment>),
}

/// One row of the segment table: a segment plus the cache's private
/// bookkeeping for it.
#[derive(Clone, Debug)]
struct Slot {
    /// The segment's sequence number (the table's sort key).
    seq: u32,
    store: Store,
    /// Bytes charged to this segment (nodes, links, entries).
    bytes: u64,
    /// Touch-clock stamp of the last replay hit that landed here.
    last_touch: Cell<u64>,
    /// For a shared segment: one bit per node that has a private overlay
    /// record (empty until the first one).
    cow: Vec<u64>,
}

impl Slot {
    fn new(seq: u32, store: Store, stamp: u64) -> Slot {
        Slot {
            seq,
            store,
            bytes: 0,
            last_touch: Cell::new(stamp),
            cow: Vec::new(),
        }
    }

    /// A fresh, empty segment of this cache's own.
    fn own(seq: u32, stamp: u64) -> Slot {
        let seg = Segment {
            seq,
            ..Segment::default()
        };
        Slot::new(seq, Store::Own(seg), stamp)
    }

    fn seg(&self) -> &Segment {
        match &self.store {
            Store::Own(seg) => seg,
            Store::Shared(seg) => seg,
        }
    }
}

/// Whether bit `idx` is set: for a slot's `cow` bits, whether node `idx`
/// of the shared segment has an overlay record.
fn marked(bits: &[u64], idx: usize) -> bool {
    bits.get(idx / 64)
        .is_some_and(|&w| w >> (idx % 64) & 1 != 0)
}

/// Whether the segment table holds sequence number `seq`.
fn holds(slots: &[Slot], seq: u32) -> bool {
    slots.binary_search_by_key(&seq, |s| s.seq).is_ok()
}

/// An immutable image of an action cache: sealed segments sorted by
/// sequence number plus the entry registrations that point into them.
///
/// This is what [`ActionCache::freeze`] exports, what the snapshot codec
/// serializes (docs/PERSISTENCE.md), and what
/// [`ActionCache::install_frozen`] pins under a live cache for a warm
/// start. It is plain data — `Send + Sync` — so `facilec batch` lanes
/// share one image, and each lane's segment table shares its segments,
/// while each lane layers private copy-on-write recording on top.
#[derive(Clone, Debug, Default)]
pub struct FrozenGens {
    /// Sealed segments, sorted by `seq` ascending.
    gens: Vec<Arc<Segment>>,
    /// Entry registrations `key -> entry node`, in export order.
    entries: Vec<(Key, NodeId)>,
    /// Serialized payload size (set by the snapshot codec; 0 for images
    /// that never touched disk). Reported as `CacheStats::bytes_frozen`.
    bytes: u64,
}

impl FrozenGens {
    /// The sealed segments, sorted by sequence number.
    pub fn gens(&self) -> &[Arc<Segment>] {
        &self.gens
    }

    /// The entry registrations, in export order.
    pub fn entries(&self) -> &[(Key, NodeId)] {
        &self.entries
    }

    /// Serialized payload size in bytes (0 when never serialized).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Stamps the serialized payload size (the snapshot codec knows it,
    /// the image does not).
    pub fn set_bytes(&mut self, bytes: u64) {
        self.bytes = bytes;
    }

    /// Number of segments.
    pub fn generation_count(&self) -> usize {
        self.gens.len()
    }

    /// Total nodes across all segments.
    pub fn node_count(&self) -> usize {
        self.gens.iter().map(|g| g.nodes.len()).sum()
    }

    /// Number of entry registrations.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Seals decoded, untrusted segments and entries into an image — the
    /// snapshot decoder's constructor — after proving everything replay
    /// dereferences: sequence numbers increase, ranges lie in their slabs,
    /// every target resolves within the image (frozen links never
    /// dangle), plain and test links lead forward, action numbers are
    /// below `action_limit`, and long lists are sorted and duplicate-free.
    ///
    /// # Errors
    ///
    /// A description of the first failed check.
    pub fn from_parts(
        mut gens: Vec<Segment>,
        entries: Vec<(Key, NodeId)>,
        action_limit: u32,
    ) -> Result<FrozenGens, String> {
        if let Some(w) = gens.windows(2).find(|w| w[1].seq <= w[0].seq) {
            return Err(format!(
                "generation sequence numbers must increase: {} after {}",
                w[1].seq, w[0].seq
            ));
        }
        let resolve = |what: &str, n: NodeId| match gens.binary_search_by_key(&n.gen, |g| g.seq) {
            Ok(i) if n.index() < gens[i].nodes.len() => Ok(()),
            _ => Err(format!(
                "{what} target {}:{} is not in the snapshot",
                n.gen, n.idx
            )),
        };
        for g in &gens {
            let slab = g.slab.len() as u64;
            let fits = |what: &str, r: SlabRange| match r.off as u64 + r.len as u64 <= slab {
                true => Ok(()),
                false => Err(format!(
                    "{what} range {}+{} exceeds slab of {slab} values",
                    r.off, r.len
                )),
            };
            for (i, (node, s)) in g.nodes.iter().zip(&g.succs).enumerate() {
                if node.action >= action_limit {
                    return Err(format!(
                        "action number {} out of range (step has {action_limit} actions)",
                        node.action
                    ));
                }
                fits("node data", node.data)?;
                // Within a step, links lead to nodes recorded later, so
                // replay between two INDEX crossings always ends.
                let forward = |what: &str, n: NodeId| match (n.gen, n.index()) > (g.seq, i) {
                    true => resolve(what, n),
                    false => Err(format!("{what} from {}:{i} leads backwards", g.seq)),
                };
                match s {
                    Succ::None => {}
                    Succ::One(n) => forward("plain link", *n)?,
                    Succ::Tests(l) => l
                        .items
                        .iter()
                        .try_for_each(|&(_, n)| forward("test link", n))?,
                    Succ::Index(l) => l.items.iter().try_for_each(|&(r, n)| {
                        fits("INDEX signature", r)?;
                        resolve("INDEX link", n)
                    })?,
                }
            }
        }
        for &(_, n) in &entries {
            resolve("entry", n)?;
        }
        for g in &mut gens {
            for s in &mut g.succs {
                let (unique, what) = match s {
                    Succ::Tests(l) => (l.sort_checked(&g.slab), "test value"),
                    Succ::Index(l) => (l.sort_checked(&g.slab), "INDEX signature"),
                    _ => continue,
                };
                if !unique {
                    return Err(format!("duplicate {what} in successor list"));
                }
            }
        }
        Ok(FrozenGens {
            gens: gens.into_iter().map(Arc::new).collect(),
            entries,
            bytes: 0,
        })
    }
}

/// The specialized action cache.
#[derive(Clone, Debug)]
pub struct ActionCache {
    /// The segment table, sorted by sequence number: an installed
    /// image's shared segments first, then the cache's own; the last
    /// slot receives new recordings.
    slots: Vec<Slot>,
    /// Hint: the slot the last resolved [`NodeId`] lived in.
    hot: Cell<u32>,
    /// Next segment sequence number to hand out.
    next_seq: u32,
    /// Monotonic touch clock for eviction coldness.
    touch: Cell<u64>,
    entries: EntryTable,
    capacity: Option<u64>,
    policy: CachePolicy,
    /// Byte budget of one segment before rotation (generational policy;
    /// `u64::MAX` otherwise).
    gen_budget: u64,
    /// Maximum slab length / node count per segment. `u32::MAX`
    /// normally; shrunk by tests to exercise rotation-before-overflow.
    offset_limit: u32,
    stats: CacheStats,
    /// Observability hook; disabled (free) by default.
    obs: ObsHandle,
    /// The installed warm-start image (see
    /// [`install_frozen`](Self::install_frozen)); its segments sit at the
    /// front of `slots`, and its entries are re-registered after a clear.
    frozen: Option<Arc<FrozenGens>>,
    /// Private copy-on-write records of shared-segment nodes that had
    /// links recorded from them: a copy of the sealed record plus the new
    /// links, so the shared image is never written. Marked per node in
    /// the owning slot's `cow` bits.
    overlay: HashMap<NodeId, Succ>,
    /// Backing store for overlay INDEX signatures; `SlabRange`s inside
    /// `overlay` resolve against this, never against a segment's slab.
    overlay_slab: Vec<i64>,
}

/// Fixed per-node overhead charged to the byte budget (action number +
/// link), matching the paper's description of compact entries.
const NODE_OVERHEAD: u64 = 8;
/// Fixed per-entry overhead (hash-table slot + link).
const ENTRY_OVERHEAD: u64 = 16;
/// How many segments the generational policy aims to keep resident:
/// the per-segment budget is `capacity / GEN_TARGET`.
const GEN_TARGET: u64 = 8;
const STALE: &str = "stale NodeId: its segment was evicted or cleared";

impl ActionCache {
    /// An unbounded cache.
    pub fn new() -> Self {
        Self::with_policy(None, CachePolicy::Clear)
    }

    /// A cache with an optional byte capacity and an explicit
    /// over-capacity policy.
    pub fn with_policy(capacity: Option<u64>, policy: CachePolicy) -> Self {
        let gen_budget = match (capacity, policy) {
            (Some(cap), CachePolicy::Generational) => (cap / GEN_TARGET).max(1),
            _ => u64::MAX,
        };
        ActionCache {
            slots: vec![Slot::own(0, 0)],
            hot: Cell::new(0),
            next_seq: 1,
            touch: Cell::new(0),
            entries: EntryTable::default(),
            capacity,
            policy,
            gen_budget,
            offset_limit: u32::MAX,
            stats: CacheStats::default(),
            obs: ObsHandle::off(),
            frozen: None,
            overlay: HashMap::new(),
            overlay_slab: Vec::new(),
        }
    }

    /// Attaches the observability handle clears and evictions are
    /// announced through.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The configured over-capacity policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Advances whenever a resident node may have become stale (a clear
    /// or an eviction): holders of [`NodeId`]s outside the cache, like
    /// the VM's supertraces, re-validate only when it moved.
    #[inline]
    pub fn invalidation_epoch(&self) -> u64 {
        self.stats.clears + self.stats.evictions
    }

    /// Whether the segment with sequence number `seq` is still resident.
    #[inline]
    pub fn seq_resident(&self, seq: u32) -> bool {
        self.slot_of(seq).is_some()
    }

    /// Stamps each segment in `seqs` as recently used: supertraces bypass
    /// the lookups that feed the eviction touch clock, so they report
    /// the segments they read once per trace entry.
    pub fn touch_gens(&self, seqs: &[u32]) {
        for &s in seqs {
            self.touch_seq(s);
        }
    }

    fn own_slots(&self) -> impl Iterator<Item = &Slot> {
        self.slots
            .iter()
            .filter(|s| matches!(s.store, Store::Own(_)))
    }

    /// Number of nodes in the cache's own (non-shared) segments.
    pub fn node_count(&self) -> usize {
        self.own_slots().map(|s| s.seg().nodes.len()).sum()
    }

    /// Whether the byte budget is exhausted.
    pub fn over_capacity(&self) -> bool {
        self.capacity
            .is_some_and(|cap| self.stats.bytes_current > cap)
    }

    /// Whether `id` resolves to a resident node.
    #[inline]
    pub fn is_resident(&self, id: NodeId) -> bool {
        self.seq_resident(id.gen)
    }

    /// Slot of the segment with sequence number `seq`, hot hint first.
    #[inline]
    fn slot_of(&self, seq: u32) -> Option<usize> {
        let hot = self.hot.get() as usize;
        match self.slots.get(hot) {
            Some(s) if s.seq == seq => Some(hot),
            _ => self.search_slot(seq),
        }
    }

    /// [`slot_of`](Self::slot_of) past the hint, kept out of line so the
    /// hinted path stays small enough to inline into replay.
    #[cold]
    fn search_slot(&self, seq: u32) -> Option<usize> {
        let i = self.slots.binary_search_by_key(&seq, |s| s.seq).ok()?;
        self.hot.set(i as u32);
        Some(i)
    }

    /// The slot owning `id`; panics on a stale id.
    #[inline]
    fn slot(&self, id: NodeId) -> &Slot {
        &self.slots[self.slot_of(id.gen).expect(STALE)]
    }

    /// Stamps the segment owning `seq` with a fresh touch-clock tick.
    #[inline]
    fn touch_seq(&self, seq: u32) {
        if let Some(slot) = self.slot_of(seq) {
            let t = self.touch.get().wrapping_add(1);
            self.touch.set(t);
            self.slots[slot].last_touch.set(t);
        }
    }

    /// Drops all recorded behaviour (the clear-on-full policy, §6.2);
    /// outstanding ids and cursors read as stale. An installed image stays.
    pub fn clear(&mut self) {
        self.retire(0, None);
    }

    /// Brings the cache back under its byte capacity at a step boundary,
    /// per the configured policy. Returns whether `cursor` is still
    /// valid: `false` means recording must restart at the entry (the
    /// clear-on-full behaviour), `true` means the cursor's segment was
    /// pinned and recording can continue seamlessly.
    pub fn reclaim(&mut self, cursor: &Cursor) -> bool {
        match self.capacity {
            Some(cap) if self.stats.bytes_current > cap => {
                let keep = self.policy == CachePolicy::Generational;
                self.retire(cap, keep.then_some(cursor));
                keep
            }
            _ => true,
        }
    }

    /// Evicts the coldest segments until at most `target` bytes stay
    /// resident, whatever the policy (`Simulation::trim_cache`). Pinned
    /// segments stay, so the target is best-effort; a paused replay
    /// position is not pinned, and the engine heals its eviction through
    /// the slow path.
    pub fn shrink_to(&mut self, target: u64, cursor: &Cursor) {
        self.retire(target, Some(cursor));
    }

    /// The one victim loop behind [`clear`](Self::clear),
    /// [`reclaim`](Self::reclaim) and [`shrink_to`](Self::shrink_to).
    /// With a cursor, the coldest own segment that holds neither the
    /// recording position nor the cursor's node goes, one eviction at a
    /// time, until at most `target` bytes stay resident. Without one,
    /// every own segment goes and the result counts as one clear.
    fn retire(&mut self, target: u64, pin: Option<&Cursor>) {
        let wholesale = pin.is_none();
        let cursor = match pin {
            Some(Cursor::AfterPlain(n) | Cursor::AfterTest(n, _) | Cursor::AfterIndex(n, ..)) => {
                Some(n.gen)
            }
            _ => None,
        };
        let pinned = [self.slots.last().map(|s| s.seq), cursor];
        let (freed, nodes) = (self.stats.bytes_current, self.node_count() as u64);
        while wholesale || self.stats.bytes_current > target {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s.store, Store::Own(_)))
                .filter(|(_, s)| wholesale || !pinned.contains(&Some(s.seq)))
                .min_by_key(|(_, s)| s.last_touch.get())
                .map(|(i, _)| i);
            // Everything left is pinned: the budget is softly exceeded
            // until the next boundary.
            let Some(i) = victim else { break };
            let slot = self.slots.remove(i);
            if !wholesale {
                let s = &mut self.stats;
                s.bytes_current = s.bytes_current.saturating_sub(slot.bytes);
                s.bytes_evicted = s.bytes_evicted.saturating_add(slot.bytes);
                s.evictions = s.evictions.saturating_add(1);
                if self.obs.enabled() {
                    self.obs.emit(TraceEvent::CacheEvict {
                        gen: slot.seq as u64,
                        bytes: slot.bytes,
                        nodes: slot.seg().nodes.len() as u64,
                        evictions: s.evictions,
                    });
                }
            }
        }
        if wholesale {
            let seq = self.fresh_seq();
            self.slots.push(Slot::own(seq, self.touch.get()));
            self.entries.clear();
            // Every overlay link left with the own segments; shared
            // records read as sealed again.
            self.overlay.clear();
            self.overlay_slab.clear();
            self.slots.iter_mut().for_each(|s| s.cow.clear());
            let s = &mut self.stats;
            s.bytes_cleared = s.bytes_cleared.saturating_add(freed);
            s.bytes_current = 0;
            s.clears += 1;
            self.reregister_frozen_entries();
            if self.obs.enabled() {
                self.obs.emit(TraceEvent::CacheClear {
                    bytes: freed,
                    nodes,
                    clears: self.stats.clears,
                });
            }
        }
        self.hot.set(self.slots.len() as u32 - 1);
    }

    fn fresh_seq(&mut self) -> u32 {
        let seq = self.next_seq;
        self.next_seq = seq.checked_add(1).expect("sequence numbers exhausted");
        seq
    }

    /// Seals the recording segment and opens a fresh one.
    fn rotate(&mut self) {
        let seq = self.fresh_seq();
        let t = self.touch.get().wrapping_add(1);
        self.touch.set(t);
        self.slots.push(Slot::own(seq, t));
        self.hot.set(self.slots.len() as u32 - 1);
    }

    /// The entry node for `key`, if recorded and still resident.
    pub fn entry(&self, key: &Key) -> Option<NodeId> {
        self.entry_bytes(key.as_bytes())
    }

    /// [`entry`](Self::entry) from raw serialized key bytes (replay's
    /// reusable key buffer).
    pub fn entry_bytes(&self, bytes: &[u8]) -> Option<NodeId> {
        let n = self.entries.get(bytes).filter(|&n| self.is_resident(n))?;
        self.touch_seq(n.gen);
        Some(n)
    }

    /// The node behind `id`; panics if `id` is stale.
    pub fn node(&self, id: NodeId) -> Node {
        self.slot(id).seg().nodes[id.index()]
    }

    /// The placeholder data of a node, resolved from its segment's slab.
    pub fn node_data(&self, id: NodeId) -> &[i64] {
        let seg = self.slot(id).seg();
        range_of(&seg.slab, seg.nodes[id.index()].data)
    }

    /// The successor record lookups search for `id`: its segment's, or
    /// the private overlay copy of a shared node that had links recorded
    /// from it.
    pub fn succ(&self, id: NodeId) -> &Succ {
        self.record(id).0
    }

    /// [`succ`](Self::succ) plus the slab its INDEX ranges resolve
    /// against.
    fn record(&self, id: NodeId) -> (&Succ, &[i64]) {
        self.record_at(self.slot_of(id.gen).expect(STALE), id)
    }

    /// [`record`](Self::record) of a node of slot `s`: the one place the
    /// copy-on-write overlay is read.
    #[inline]
    fn record_at(&self, s: usize, id: NodeId) -> (&Succ, &[i64]) {
        let slot = &self.slots[s];
        let seg = match &slot.store {
            Store::Own(seg) => seg,
            Store::Shared(_) if marked(&slot.cow, id.index()) => {
                return (&self.overlay[&id], &self.overlay_slab);
            }
            Store::Shared(seg) => seg,
        };
        (&seg.succs[id.index()], &seg.slab)
    }

    /// The writable form of [`record`](Self::record). A shared node's
    /// first write copies its sealed record into the overlay (INDEX
    /// signatures into the overlay slab); the shared image is never
    /// written.
    fn record_mut(&mut self, id: NodeId) -> (&mut Succ, &mut Vec<i64>) {
        let s = self.slot_of(id.gen).expect(STALE);
        let idx = id.index();
        let slot = &mut self.slots[s];
        match &slot.store {
            Store::Own(_) => {}
            Store::Shared(_) if marked(&slot.cow, idx) => {}
            Store::Shared(seg) => {
                let copy = copy_succ(
                    &seg.succs[idx],
                    &seg.slab,
                    Some(&mut self.overlay_slab),
                    |_| true,
                );
                self.overlay.insert(id, copy);
                if slot.cow.is_empty() {
                    slot.cow = vec![0; seg.nodes.len().div_ceil(64)];
                }
                slot.cow[idx / 64] |= 1 << (idx % 64);
            }
        }
        match &mut slot.store {
            Store::Own(seg) => (&mut seg.succs[idx], &mut seg.slab),
            Store::Shared(_) => (
                self.overlay
                    .get_mut(&id)
                    .expect("overlay record was just made"),
                &mut self.overlay_slab,
            ),
        }
    }

    /// The link of `id` that `find` picks in the node's successor record
    /// (position, target), pointing the record's inline cache at it —
    /// unless the record is a sealed shared one, which other caches read
    /// too. A link whose target is no longer resident reads as missing.
    #[inline]
    fn follow(
        &mut self,
        id: NodeId,
        find: impl FnOnce(&Succ, &[i64]) -> Option<(usize, NodeId)>,
    ) -> Option<NodeId> {
        let s = self.slot_of(id.gen).expect(STALE);
        let (rec, slab) = self.record_at(s, id);
        let (i, n) = find(rec, slab).filter(|&(_, n)| self.is_resident(n))?;
        if i == rec.hot() {
            return Some(n);
        }
        let Slot { store, cow, .. } = &mut self.slots[s];
        match store {
            Store::Own(seg) => seg.succs[id.index()].set_hot(i),
            Store::Shared(_) if marked(cow, id.index()) => {
                if let Some(rec) = self.overlay.get_mut(&id) {
                    rec.set_hot(i);
                }
            }
            Store::Shared(_) => {}
        }
        Some(n)
    }

    /// Successor of a plain action. A link whose target was evicted
    /// reads as missing.
    pub fn next_plain(&self, id: NodeId) -> Option<NodeId> {
        match self.record(id).0 {
            Succ::One(n) if self.is_resident(*n) => Some(*n),
            _ => None,
        }
    }

    /// Successor of a dynamic result test for `value`, refreshing the
    /// node's hot-index inline cache on a hit.
    pub fn next_test_hot(&mut self, id: NodeId, value: i64) -> Option<NodeId> {
        self.follow(id, |s, slab| match s {
            Succ::Tests(l) => l.get(slab, &value),
            _ => None,
        })
    }

    /// Node-local successor of an INDEX action for a dynamic signature —
    /// the fast path, no key serialization needed — refreshing the
    /// node's hot-index inline cache on a hit and stamping the target's
    /// segment as recently used (once-per-step eviction coldness).
    pub fn next_index_local_hot(&mut self, id: NodeId, sig: &[i64]) -> Option<NodeId> {
        let n = self.follow(id, |s, slab| match s {
            Succ::Index(l) => l.get(slab, sig),
            _ => None,
        })?;
        self.touch_seq(n.gen);
        Some(n)
    }

    /// The `(value, target)` link a test's inline cache points at, if
    /// resident: the last edge replay took, which trace builders
    /// speculate on.
    pub fn predicted_test(&self, id: NodeId) -> Option<(i64, NodeId)> {
        let (Succ::Tests(l), _) = self.record(id) else {
            return None;
        };
        let &(v, n) = l.items.get(l.hot as usize)?;
        self.is_resident(n).then_some((v, n))
    }

    /// The `(signature, target)` link an INDEX node's inline cache
    /// points at, if resident.
    pub fn predicted_index(&self, id: NodeId) -> Option<(&[i64], NodeId)> {
        let (Succ::Index(l), slab) = self.record(id) else {
            return None;
        };
        let &(r, n) = l.items.get(l.hot as usize)?;
        self.is_resident(n).then(|| (range_of(slab, r), n))
    }

    // ----- recording -----

    /// The recording segment: always the table's last slot (it holds
    /// the newest sequence number).
    fn cur(&mut self) -> &mut Segment {
        match &mut self.slots.last_mut().expect("a recording segment").store {
            Store::Own(seg) => seg,
            Store::Shared(_) => unreachable!("the recording segment is never shared"),
        }
    }

    /// Makes sure the recording segment can absorb `extra` slab values
    /// and one more node, rotating to a fresh segment when its byte
    /// budget is spent or its `u32` offset space would overflow (the
    /// checked alternative to silently truncating `as u32` casts).
    fn ensure_room(&mut self, extra: usize) {
        let limit = self.offset_limit as usize;
        assert!(
            extra <= limit,
            "action payload ({extra} values) exceeds the slab offset width"
        );
        let slot = self.slots.last().expect("a recording segment");
        let seg = slot.seg();
        let over_offset = seg.slab.len() + extra > limit || seg.nodes.len() >= limit;
        // Offset exhaustion always forces a rotation; a spent byte budget
        // only does once the segment holds at least one node (an empty
        // segment over budget would rotate forever).
        if over_offset || (slot.bytes >= self.gen_budget && !seg.nodes.is_empty()) {
            self.rotate();
        }
    }

    /// Charges `bytes` to the segment owning `seq` (if still resident)
    /// and to the global counters, raising the high-water mark.
    fn charge(&mut self, seq: u32, bytes: u64) {
        let s = &mut self.stats;
        s.bytes_current = s.bytes_current.saturating_add(bytes);
        s.bytes_total = s.bytes_total.saturating_add(bytes);
        s.bytes_peak = s.bytes_peak.max(s.bytes_current);
        if let Some(slot) = self.slot_of(seq) {
            self.slots[slot].bytes = self.slots[slot].bytes.saturating_add(bytes);
        }
    }

    /// Adds the `sig -> target` link to INDEX node `n`; returns whether a
    /// link was added. It is skipped when the slab's offset space cannot
    /// take the signature: the entry table still resolves the crossing.
    fn index_insert(&mut self, n: NodeId, sig: &[i64], target: NodeId) -> bool {
        let limit = self.offset_limit as usize;
        let (rec, slab) = self.record_mut(n);
        let Succ::Index(list) = rec else {
            unreachable!("index link on non-index node");
        };
        list.link(slab, sig, target, |slab| {
            (slab.len() + sig.len() <= limit).then(|| {
                slab.extend_from_slice(sig);
                SlabRange::new((slab.len() - sig.len()) as u32, sig.len() as u32)
            })
        })
    }

    fn link(&mut self, cursor: Cursor, new: NodeId) {
        match cursor {
            Cursor::AtEntry(key) => self.register_entry(key, new),
            Cursor::AfterPlain(n) => {
                debug_assert!(
                    match self.succ(n) {
                        Succ::None => true,
                        Succ::One(t) => !self.is_resident(*t),
                        _ => false,
                    },
                    "plain link already filled with a live target"
                );
                *self.record_mut(n).0 = Succ::One(new);
            }
            Cursor::AfterTest(n, v) => {
                let (rec, slab) = self.record_mut(n);
                let Succ::Tests(list) = rec else {
                    unreachable!("test cursor on non-test node");
                };
                if list.link(slab, &v, new, |_| Some(v)) {
                    self.charge(n.gen, varint_len(zigzag(v)) as u64 + 4);
                }
            }
            Cursor::AfterIndex(n, key, sig) => {
                if self.index_insert(n, &sig, new) {
                    self.charge(n.gen, key.len() as u64 + 4);
                }
                self.register_entry(key, new);
            }
        }
    }

    fn register_entry(&mut self, key: Key, node: NodeId) {
        let bytes = key.len() as u64 + ENTRY_OVERHEAD;
        let slots = &self.slots;
        if self.entries.insert(key, node, |seq| holds(slots, seq)) {
            // Entry bytes are charged to the *target's* segment so an
            // eviction reclaims them along with the nodes they point at.
            self.charge(node.gen, bytes);
            self.stats.entries_created = self.stats.entries_created.saturating_add(1);
        }
    }

    /// Records a plain action at the cursor; advances the cursor.
    pub fn record_plain(&mut self, cursor: &mut Cursor, action: u32, data: &[i64]) -> NodeId {
        self.append(cursor, action, data, Succ::None, Cursor::AfterPlain)
    }

    /// Records a dynamic result test that observed `value`; advances the
    /// cursor to the pending `value` branch.
    pub fn record_test(
        &mut self,
        cursor: &mut Cursor,
        action: u32,
        data: &[i64],
        value: i64,
    ) -> NodeId {
        let succ = Succ::Tests(TestList::default());
        self.append(cursor, action, data, succ, |id| {
            Cursor::AfterTest(id, value)
        })
    }

    /// Records an INDEX action computing `next_key` (with dynamic
    /// signature `sig`); advances the cursor to the pending entry link.
    pub fn record_index(
        &mut self,
        cursor: &mut Cursor,
        action: u32,
        data: &[i64],
        next_key: Key,
        sig: Vec<i64>,
    ) -> NodeId {
        let succ = Succ::Index(IndexList::default());
        self.append(cursor, action, data, succ, |id| {
            Cursor::AfterIndex(id, next_key, sig)
        })
    }

    /// Appends a node to the recording segment, links it at `cursor`
    /// (taking the cursor's key rather than cloning it) and moves the
    /// cursor past it.
    fn append(
        &mut self,
        cursor: &mut Cursor,
        action: u32,
        data: &[i64],
        succ: Succ,
        next: impl FnOnce(NodeId) -> Cursor,
    ) -> NodeId {
        self.ensure_room(data.len());
        let seg = self.cur();
        let id = NodeId {
            gen: seg.seq,
            idx: seg.nodes.len() as u32,
        };
        let off = seg.slab.len() as u32;
        seg.slab.extend_from_slice(data);
        let data_range = match data.len() as u32 {
            0 => SlabRange::default(),
            len => SlabRange { off, len },
        };
        seg.nodes.push(Node {
            action,
            data: data_range,
        });
        seg.succs.push(succ);
        let bytes = data
            .iter()
            .map(|&v| varint_len(zigzag(v)) as u64)
            .sum::<u64>();
        self.charge(id.gen, NODE_OVERHEAD + bytes);
        self.stats.nodes_created = self.stats.nodes_created.saturating_add(1);
        let at = std::mem::replace(cursor, next(id));
        self.link(at, id);
        id
    }

    /// Links an existing entry after an INDEX cursor: the hand-off from
    /// recording to replay when the next key is already cached.
    pub fn link_existing(&mut self, cursor: &Cursor, entry: NodeId) {
        if let Cursor::AfterIndex(n, key, sig) = cursor {
            if self.is_resident(*n) && self.index_insert(*n, sig, entry) {
                self.charge(n.gen, key.len() as u64 + 4);
            }
        }
    }

    /// Shrinks the slab offset width, to test rotation-before-overflow.
    #[cfg(test)]
    fn set_offset_limit(&mut self, limit: u32) {
        self.offset_limit = limit;
    }

    // ----- persistence (docs/PERSISTENCE.md) -----

    /// The configured byte capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }

    /// Exports the cache's recorded behaviour as an immutable image, the
    /// checkpoint half of persistence: every non-empty segment in
    /// sequence order, each record as lookups see it, with stale links
    /// and entries pruned and inline caches cold — so every reference in
    /// the image resolves within it.
    pub fn freeze(&self) -> FrozenGens {
        let live = |n: NodeId| self.is_resident(n);
        let gens = self
            .slots
            .iter()
            .filter(|slot| !slot.seg().nodes.is_empty())
            .map(|slot| {
                let seg = slot.seg();
                let mut slab = seg.slab.clone();
                let succs = (0..seg.nodes.len())
                    .map(|i| {
                        let (rec, from) = self.record(NodeId::from_parts(seg.seq, i as u32));
                        copy_succ(rec, from, marked(&slot.cow, i).then_some(&mut slab), live)
                    })
                    .collect();
                Arc::new(Segment {
                    seq: seg.seq,
                    nodes: seg.nodes.clone(),
                    succs,
                    slab,
                })
            })
            .collect();
        let entries = self
            .entries
            .slots
            .iter()
            .filter(|s| s.node != EntryTable::VACANT)
            .map(|s| (s.key.clone(), NodeId::from_parts(s.gen, s.node)))
            .filter(|&(_, n)| live(n))
            .collect();
        let mut image = FrozenGens {
            gens,
            entries,
            bytes: 0,
        };
        // A nominal size until the snapshot codec stamps the payload's.
        image.bytes = image_bytes(&image);
        image
    }

    /// Pins a frozen image under this cache, the warm-start half of
    /// persistence. Only legal on a cache that has never recorded; the
    /// recording segment is renumbered above the image's sequence numbers.
    ///
    /// # Errors
    ///
    /// When a snapshot is already installed, the cache has recorded, or
    /// the sequence space is exhausted.
    pub fn install_frozen(&mut self, snap: Arc<FrozenGens>) -> Result<(), &'static str> {
        if self.frozen.is_some() {
            return Err("a snapshot is already installed");
        }
        if self.stats.nodes_created != 0 || self.entries.len != 0 {
            return Err("cache is not empty");
        }
        if let Some(last) = snap.gens.last() {
            self.next_seq = last
                .seq
                .checked_add(1)
                .ok_or("snapshot sequence space exhausted")?;
            let seq = self.fresh_seq();
            let shared = |seg: &Arc<Segment>| Slot::new(seg.seq, Store::Shared(seg.clone()), 0);
            self.slots = snap.gens.iter().map(shared).collect();
            self.slots.push(Slot::own(seq, self.touch.get()));
            self.hot.set(0);
        }
        self.stats.bytes_frozen = snap.bytes;
        self.stats.frozen_gens = snap.gens.len() as u64;
        if self.obs.enabled() {
            self.obs.emit(TraceEvent::SnapshotLoad {
                bytes: snap.bytes,
                gens: snap.gens.len() as u64,
                nodes: snap.node_count() as u64,
                entries: snap.entries.len() as u64,
            });
        }
        self.frozen = Some(snap);
        self.reregister_frozen_entries();
        Ok(())
    }

    /// (Re-)registers the image's entries at install and after a clear;
    /// frozen storage is accounted in `bytes_frozen`, not charged.
    fn reregister_frozen_entries(&mut self) {
        let Some(f) = self.frozen.clone() else {
            return;
        };
        for (key, node) in f.entries() {
            let slots = &self.slots;
            self.entries
                .insert(key.clone(), *node, |seq| holds(slots, seq));
        }
    }
}

/// Copies a successor record, dropping links to non-`live` targets and
/// resetting the inline cache (order is kept, so long lists stay sorted).
/// INDEX signatures are re-copied from `from` into `to` when given.
fn copy_succ(
    s: &Succ,
    from: &[i64],
    mut to: Option<&mut Vec<i64>>,
    live: impl Fn(NodeId) -> bool,
) -> Succ {
    match s {
        Succ::None => Succ::None,
        Succ::One(n) if live(*n) => Succ::One(*n),
        Succ::One(_) => Succ::None,
        Succ::Tests(l) => Succ::Tests(Links {
            items: l.items.iter().copied().filter(|&(_, n)| live(n)).collect(),
            hot: 0,
        }),
        Succ::Index(l) => Succ::Index(Links {
            items: l
                .items
                .iter()
                .filter(|&&(_, n)| live(n))
                .map(|&(r, n)| match &mut to {
                    Some(slab) => {
                        let off = slab.len() as u32;
                        slab.extend_from_slice(range_of(from, r));
                        (SlabRange { off, len: r.len }, n)
                    }
                    None => (r, n),
                })
                .collect(),
            hot: 0,
        }),
    }
}

/// Nominal in-memory size of an image: headers, links, slabs and keys.
fn image_bytes(image: &FrozenGens) -> u64 {
    let mut bytes = 0u64;
    for g in &image.gens {
        bytes += 12 + 8 * g.slab.len() as u64 + 12 * g.nodes.len() as u64;
        for s in &g.succs {
            bytes += match s {
                Succ::None => 1,
                Succ::One(_) => 9,
                Succ::Tests(list) => 5 + 16 * list.items.len() as u64,
                Succ::Index(list) => 5 + 16 * list.items.len() as u64,
            };
        }
    }
    for (key, _) in &image.entries {
        bytes += key.len() as u64 + 12;
    }
    bytes
}

fn range_of(slab: &[i64], r: SlabRange) -> &[i64] {
    &slab[r.off as usize..(r.off + r.len) as usize]
}

impl Default for ActionCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyWriter;

    fn key(v: i64) -> Key {
        let mut w = KeyWriter::new();
        w.scalar(v);
        w.finish()
    }

    fn assert_bytes_invariant(c: &ActionCache) {
        let s = c.stats();
        assert_eq!(
            s.bytes_total,
            s.bytes_current + s.bytes_cleared + s.bytes_evicted,
            "bytes_total == bytes_current + bytes_cleared + bytes_evicted"
        );
    }

    #[test]
    fn record_and_replay_straight_line() {
        let mut c = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(1));
        let a = c.record_plain(&mut cur, 10, &[5]);
        let b = c.record_plain(&mut cur, 11, &[6, 7]);

        let e = c.entry(&key(1)).expect("entry exists");
        assert_eq!(e, a);
        assert_eq!(c.node(e).action, 10);
        assert_eq!(c.node_data(e), &[5]);
        assert_eq!(c.node_data(b), &[6, 7]);
        assert_eq!(c.next_plain(e), Some(b));
        assert_eq!(c.next_plain(b), None);
    }

    #[test]
    fn test_node_multiple_successors() {
        // Record a hit path, then miss path, as in paper §2.2's load.
        let mut c = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(1));
        let t = c.record_test(&mut cur, 3, &[], 0);
        let hit = c.record_plain(&mut cur, 4, &[]);
        // Second recording of the same test with value 1.
        let mut cur2 = Cursor::AfterTest(t, 1);
        let miss = c.record_plain(&mut cur2, 5, &[]);

        assert_eq!(c.next_test_hot(t, 0), Some(hit));
        assert_eq!(c.next_test_hot(t, 1), Some(miss));
        assert_eq!(c.next_test_hot(t, 18), None);
        assert_eq!(c.next_test_hot(t, 0), Some(hit));
        assert_eq!(c.next_test_hot(t, 18), None);
    }

    #[test]
    fn test_dispatch_beyond_linear_threshold_sorts_and_searches() {
        // More successors than LINEAR_MAX: the list switches to sorted +
        // binary search and must still resolve every value.
        let mut c = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(1));
        let t = c.record_test(&mut cur, 3, &[], 0);
        let mut nodes = vec![c.record_plain(&mut cur, 100, &[])];
        // Insert values in a scrambled order to exercise sorted insertion.
        for v in [7, -3, 12, 5, 42, -99, 2, 30, 17, 9, -5, 64] {
            let mut cur2 = Cursor::AfterTest(t, v);
            nodes.push(c.record_plain(&mut cur2, 100 + v.unsigned_abs() as u32, &[]));
        }
        assert_eq!(c.next_test_hot(t, 0), Some(nodes[0]));
        for (i, v) in [7, -3, 12, 5, 42, -99, 2, 30, 17, 9, -5, 64]
            .iter()
            .enumerate()
        {
            assert_eq!(c.next_test_hot(t, *v), Some(nodes[i + 1]), "value {v}");
            // Hot hit on repeat.
            assert_eq!(
                c.next_test_hot(t, *v),
                Some(nodes[i + 1]),
                "value {v} (hot)"
            );
        }
        assert_eq!(c.next_test_hot(t, 1000), None);
    }

    #[test]
    fn index_chains_entries() {
        let mut c = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(1));
        let idx = c.record_index(&mut cur, 99, &[], key(2), vec![2]);
        // Next step's first action registers entry for key(2) and links
        // the dynamic signature locally.
        let e2 = c.record_plain(&mut cur, 7, &[]);
        assert_eq!(c.entry(&key(2)), Some(e2));
        assert_eq!(c.next_index_local_hot(idx, &[2]), Some(e2));
        assert_eq!(c.next_index_local_hot(idx, &[2]), Some(e2));
        // Unknown signature has no local link.
        assert_eq!(c.next_index_local_hot(idx, &[3]), None);
    }

    #[test]
    fn index_dispatch_beyond_linear_threshold() {
        let mut c = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(1));
        let idx = c.record_index(&mut cur, 99, &[], key(1000), vec![1000]);
        let first = c.record_plain(&mut cur, 1, &[]);
        assert_eq!(c.next_index_local_hot(idx, &[1000]), Some(first));
        let mut targets = Vec::new();
        for v in [9i64, 3, 27, 81, 1, 55, 13, 7, 99, 41, 2, 68] {
            let mut cur2 = Cursor::AfterIndex(idx, key(v), vec![v, v + 1]);
            targets.push((v, c.record_plain(&mut cur2, 50 + v as u32, &[])));
        }
        for (v, n) in &targets {
            assert_eq!(
                c.next_index_local_hot(idx, &[*v, *v + 1]),
                Some(*n),
                "sig {v}"
            );
            assert_eq!(
                c.next_index_local_hot(idx, &[*v, *v + 1]),
                Some(*n),
                "sig {v} hot"
            );
        }
        assert_eq!(c.next_index_local_hot(idx, &[1000]), Some(first));
        assert_eq!(c.next_index_local_hot(idx, &[10_000]), None);
    }

    #[test]
    fn index_fallback_to_entry_table() {
        let mut c = ActionCache::new();
        // Entry for key 2 recorded via a different path.
        let mut cur_a = Cursor::AtEntry(key(2));
        let e2 = c.record_plain(&mut cur_a, 1, &[]);
        // An index node that never locally linked key 2: the engine
        // falls back to the entry table by (re)building the key.
        let mut cur_b = Cursor::AtEntry(key(1));
        let idx = c.record_index(&mut cur_b, 99, &[], key(9), vec![9]);
        assert_eq!(c.next_index_local_hot(idx, &[2]), None);
        assert_eq!(c.entry(&key(2)), Some(e2));
        assert_eq!(c.entry_bytes(key(2).as_bytes()), Some(e2));
    }

    #[test]
    fn link_existing_creates_local_shortcut() {
        let mut c = ActionCache::new();
        let mut cur_a = Cursor::AtEntry(key(2));
        let e2 = c.record_plain(&mut cur_a, 1, &[]);
        let mut cur_b = Cursor::AtEntry(key(1));
        c.record_index(&mut cur_b, 99, &[], key(2), vec![2]);
        c.link_existing(&cur_b, e2);
        let Cursor::AfterIndex(idx, _, _) = cur_b else {
            panic!("cursor should be after index");
        };
        assert_eq!(c.next_index_local_hot(idx, &[2]), Some(e2));
        if let Succ::Index(list) = c.succ(idx) {
            assert_eq!(list.items().len(), 1);
        } else {
            panic!("index successors expected");
        }
        // Idempotent: a second link of the same signature is a no-op.
        let stats_before = c.stats();
        c.link_existing(&cur_b, e2);
        if let Succ::Index(list) = c.succ(idx) {
            assert_eq!(list.items().len(), 1);
        } else {
            panic!("index successors expected");
        }
        assert_eq!(c.stats(), stats_before);
    }

    #[test]
    fn byte_accounting_and_capacity() {
        let mut c = ActionCache::with_policy(Some(100), CachePolicy::Clear);
        let mut cur = Cursor::AtEntry(key(1));
        assert!(!c.over_capacity());
        for i in 0..20 {
            c.record_plain(&mut cur, i, &[i as i64, -(i as i64)]);
        }
        assert!(c.over_capacity());
        let before = c.stats();
        assert!(before.bytes_total >= before.bytes_current);
        c.clear();
        let after = c.stats();
        assert_eq!(after.bytes_current, 0);
        assert_eq!(after.clears, 1);
        assert_eq!(after.bytes_total, before.bytes_total, "total is monotonic");
        assert_eq!(c.entry(&key(1)), None);
        assert_ne!(c.invalidation_epoch(), 0);
        assert_bytes_invariant(&c);
    }

    #[test]
    fn small_values_cost_one_byte() {
        let mut c = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(1));
        c.record_plain(&mut cur, 0, &[1, 2, 3]);
        // 8 overhead + 3 single-byte varints + entry (1-byte key + 16).
        assert_eq!(c.stats().bytes_current, 8 + 3 + 1 + 16);
    }

    #[test]
    fn duplicate_entry_registration_is_idempotent() {
        let mut c = ActionCache::new();
        let mut cur1 = Cursor::AtEntry(key(1));
        let a = c.record_plain(&mut cur1, 0, &[]);
        let mut cur2 = Cursor::AtEntry(key(1));
        let _b = c.record_plain(&mut cur2, 0, &[]);
        // First registration wins; stats count one entry.
        assert_eq!(c.entry(&key(1)), Some(a));
        assert_eq!(c.stats().entries_created, 1);
    }

    #[test]
    fn entry_table_survives_growth() {
        let mut c = ActionCache::new();
        let mut expected = Vec::new();
        for i in 0..1000 {
            let mut cur = Cursor::AtEntry(key(i));
            expected.push((i, c.record_plain(&mut cur, 0, &[])));
        }
        assert_eq!(c.entries.len, 1000);
        for (i, n) in expected {
            assert_eq!(c.entry(&key(i)), Some(n), "key {i}");
        }
        assert_eq!(c.entry(&key(1_000_000)), None);
    }

    #[test]
    fn clear_accounts_released_bytes() {
        let mut c = ActionCache::with_policy(Some(50), CachePolicy::Clear);
        let mut cur = Cursor::AtEntry(key(1));
        for i in 0..10 {
            c.record_plain(&mut cur, i, &[1]);
        }
        let before = c.stats();
        c.clear();
        let mut cur2 = Cursor::AtEntry(key(2));
        c.record_plain(&mut cur2, 0, &[2]);
        let after = c.stats();
        assert_eq!(after.bytes_cleared, before.bytes_current);
        assert_bytes_invariant(&c);
    }

    #[test]
    fn clear_resets_entry_lookups() {
        let mut c = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(7));
        let idx = c.record_index(&mut cur, 9, &[], key(8), vec![8]);
        c.record_plain(&mut cur, 1, &[4]);
        c.clear();
        assert_eq!(c.entry(&key(7)), None);
        assert_eq!(c.entry(&key(8)), None);
        assert_eq!(c.node_count(), 0);
        // Recording works again from scratch.
        let mut cur2 = Cursor::AtEntry(key(7));
        let a = c.record_plain(&mut cur2, 2, &[1]);
        assert_eq!(c.entry(&key(7)), Some(a));
        // Pre-clear ids never resolve again: sequence numbers don't recur.
        assert!(!c.is_resident(idx));
    }

    #[test]
    fn clear_announces_itself_to_the_observer() {
        use facile_obs::{ObsConfig, ObsHandle, TraceEvent};
        let mut c = ActionCache::new();
        let obs = ObsHandle::new(ObsConfig::default());
        c.set_obs(obs.clone());
        let mut cur = Cursor::AtEntry(key(1));
        c.record_plain(&mut cur, 0, &[1, 2]);
        c.clear();
        let events = obs.drain_events();
        assert_eq!(events.len(), 1);
        match events[0] {
            TraceEvent::CacheClear {
                bytes,
                nodes,
                clears,
            } => {
                assert!(bytes > 0);
                assert_eq!(nodes, 1);
                assert_eq!(clears, 1);
            }
            other => panic!("expected CacheClear, got {other:?}"),
        }
        assert_eq!(obs.metrics().unwrap().cache_clears, 1);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut c = ActionCache::with_policy(Some(50), CachePolicy::Clear);
        let mut cur = Cursor::AtEntry(key(1));
        for i in 0..10 {
            c.record_plain(&mut cur, i, &[1]);
        }
        let peak = c.stats().bytes_peak;
        c.clear();
        assert_eq!(c.stats().bytes_peak, peak);
    }

    #[test]
    fn peak_tracks_test_and_index_link_growth() {
        // Regression: `bytes_current` grown on the AfterTest/AfterIndex
        // and link_existing paths must raise `bytes_peak` too.
        let mut c = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(1));
        let t = c.record_test(&mut cur, 0, &[], 0);
        c.record_plain(&mut cur, 1, &[]);
        let mut cur2 = Cursor::AfterTest(t, 1);
        c.record_plain(&mut cur2, 2, &[]);
        assert_eq!(
            c.stats().bytes_peak,
            c.stats().bytes_current,
            "peak lags current after AfterTest link"
        );

        let mut cur3 = Cursor::AtEntry(key(5));
        c.record_index(&mut cur3, 3, &[], key(6), vec![6]);
        c.record_plain(&mut cur3, 4, &[]);
        assert_eq!(
            c.stats().bytes_peak,
            c.stats().bytes_current,
            "peak lags current after AfterIndex link"
        );

        // link_existing growth path.
        let mut cur4 = Cursor::AtEntry(key(9));
        let e9 = c.record_plain(&mut cur4, 5, &[]);
        let mut cur5 = Cursor::AtEntry(key(10));
        c.record_index(&mut cur5, 6, &[], key(9), vec![9]);
        c.link_existing(&cur5, e9);
        assert_eq!(
            c.stats().bytes_peak,
            c.stats().bytes_current,
            "peak lags current after link_existing"
        );
    }

    #[test]
    fn slab_ranges_are_stable_across_growth() {
        let mut c = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(1));
        let mut ids = Vec::new();
        for i in 0..200i64 {
            ids.push(c.record_plain(&mut cur, i as u32, &[i, i * 2, i * 3]));
        }
        for (i, id) in ids.iter().enumerate() {
            let i = i as i64;
            assert_eq!(c.node_data(*id), &[i, i * 2, i * 3]);
        }
    }

    // ----- generational policy -----

    /// Evicts exactly the segment holding `n` through the real victim
    /// loop: it becomes the coldest, and the trim stops once it is gone.
    fn evict_segment_of(c: &mut ActionCache, n: NodeId) {
        for s in &c.slots {
            s.last_touch.set(if s.seq == n.gen { 0 } else { u64::MAX });
        }
        c.shrink_to(c.stats.bytes_current - 1, &Cursor::AtEntry(key(-1)));
        assert!(!c.is_resident(n));
    }

    /// Records `steps` straight-line entries keyed 0..steps, returning
    /// the ids.
    fn record_entries(c: &mut ActionCache, steps: i64) -> Vec<NodeId> {
        (0..steps)
            .map(|i| {
                let mut cur = Cursor::AtEntry(key(i));
                c.record_plain(&mut cur, i as u32, &[i, i + 1])
            })
            .collect()
    }

    #[test]
    fn generational_reclaim_keeps_hot_entries() {
        let mut c = ActionCache::with_policy(Some(600), CachePolicy::Generational);
        let ids = record_entries(&mut c, 100);
        assert!(c.over_capacity());
        assert!(c.own_slots().count() > 1, "budget forces rotation");
        // Touch the most recent entries so the oldest generations are
        // the cold ones.
        for i in 95..100 {
            assert!(c.entry(&key(i)).is_some());
        }
        let survived = c.reclaim(&Cursor::AtEntry(key(1000)));
        assert!(survived, "generational reclaim never invalidates cursors");
        assert!(!c.over_capacity());
        let s = c.stats();
        assert!(s.evictions > 0, "something was evicted");
        assert!(s.bytes_evicted > 0);
        assert_eq!(s.clears, 0, "no wholesale clear");
        assert_bytes_invariant(&c);
        // The touched (hot) tail survived; the cold head is gone.
        for i in 95..100 {
            assert!(c.entry(&key(i)).is_some(), "hot entry {i} survived");
        }
        assert!(
            ids.iter().any(|&id| !c.is_resident(id)),
            "cold nodes were evicted"
        );
        assert!(
            ids.iter().any(|&id| c.is_resident(id)),
            "eviction is partial, not wholesale"
        );
    }

    #[test]
    fn reclaim_pins_the_cursor_generation() {
        let mut c = ActionCache::with_policy(Some(200), CachePolicy::Generational);
        // Record until well over capacity; keep the last node as the
        // recording cursor's attachment point.
        let mut cur = Cursor::AtEntry(key(0));
        let mut last = c.record_plain(&mut cur, 0, &[0]);
        for i in 1..200 {
            if i % 10 == 0 {
                // Separate entries so generations are severable.
                cur = Cursor::AtEntry(key(i));
                last = c.record_plain(&mut cur, i as u32, &[i]);
            } else {
                last = c.record_plain(&mut cur, i as u32, &[i]);
            }
        }
        assert!(c.over_capacity());
        let survived = c.reclaim(&cur);
        assert!(survived);
        assert!(
            c.is_resident(last),
            "the cursor's generation must be pinned"
        );
        // Recording can continue seamlessly through the old cursor.
        let next = c.record_plain(&mut cur, 999, &[1]);
        assert_eq!(c.next_plain(last), Some(next));
        assert_bytes_invariant(&c);
    }

    #[test]
    fn stale_links_read_as_misses_and_can_be_rerecorded() {
        let mut c = ActionCache::with_policy(Some(10_000), CachePolicy::Generational);
        // Entry A (gen 0) --INDEX--> entry B. Then force B's generation
        // out and check the INDEX link reads as a miss, the entry lookup
        // misses, and re-recording B heals both.
        let mut cur = Cursor::AtEntry(key(1));
        let idx = c.record_index(&mut cur, 5, &[], key(2), vec![2]);
        // Rotate so B lands in its own generation.
        c.rotate();
        let b = c.record_plain(&mut cur, 6, &[42]);
        assert_eq!(c.next_index_local_hot(idx, &[2]), Some(b));
        assert_eq!(c.entry(&key(2)), Some(b));
        // Evict B's generation (A's generation is current? No: cur is
        // B's. Rotate again so B's gen is evictable, then evict it.)
        c.rotate();
        evict_segment_of(&mut c, b);
        assert!(!c.is_resident(b));
        assert!(c.is_resident(idx));
        // Stale INDEX link and entry read as ordinary misses.
        assert_eq!(c.next_index_local_hot(idx, &[2]), None);
        assert_eq!(c.next_index_local_hot(idx, &[2]), None);
        assert_eq!(c.entry(&key(2)), None);
        assert_bytes_invariant(&c);
        // Re-record B through the same cursor shape the engine would use.
        let mut cur2 = Cursor::AfterIndex(idx, key(2), vec![2]);
        let b2 = c.record_plain(&mut cur2, 6, &[42]);
        assert_eq!(c.next_index_local_hot(idx, &[2]), Some(b2));
        assert_eq!(c.entry(&key(2)), Some(b2));
        assert_bytes_invariant(&c);
    }

    #[test]
    fn stale_plain_and_test_links_are_rerecordable() {
        let mut c = ActionCache::with_policy(Some(10_000), CachePolicy::Generational);
        let mut cur = Cursor::AtEntry(key(1));
        let a = c.record_plain(&mut cur, 1, &[]);
        let t = c.record_test(&mut cur, 2, &[], 7);
        c.rotate();
        let tail = c.record_plain(&mut cur, 3, &[]);
        assert_eq!(c.next_test_hot(t, 7), Some(tail));
        // Evict the tail's generation.
        c.rotate();
        evict_segment_of(&mut c, tail);
        assert_eq!(c.next_test_hot(t, 7), None, "stale test link is a miss");
        assert_eq!(c.next_test_hot(t, 7), None);
        // Re-record over the stale pair: no duplicate, target replaced.
        let mut cur2 = Cursor::AfterTest(t, 7);
        let tail2 = c.record_plain(&mut cur2, 3, &[]);
        assert_eq!(c.next_test_hot(t, 7), Some(tail2));
        if let Succ::Tests(list) = c.succ(t) {
            assert_eq!(list.items().len(), 1, "replaced in place, not duplicated");
        } else {
            panic!("test successors expected");
        }
        // Same story for a plain link: a fresh pair recorded across a
        // generation boundary, then the successor's generation evicted.
        let _ = a;
        c.rotate();
        let mut cur3 = Cursor::AtEntry(key(2));
        let p = c.record_plain(&mut cur3, 4, &[]);
        c.rotate();
        let q = c.record_plain(&mut cur3, 5, &[]);
        assert_eq!(c.next_plain(p), Some(q));
        c.rotate();
        evict_segment_of(&mut c, q);
        assert_eq!(c.next_plain(p), None, "stale plain link is a miss");
        let mut cur4 = Cursor::AfterPlain(p);
        let q2 = c.record_plain(&mut cur4, 5, &[]);
        assert_eq!(c.next_plain(p), Some(q2));
        assert_bytes_invariant(&c);
    }

    #[test]
    fn eviction_announces_itself_to_the_observer() {
        use facile_obs::{ObsConfig, ObsHandle, TraceEvent};
        let mut c = ActionCache::with_policy(Some(300), CachePolicy::Generational);
        let obs = ObsHandle::new(ObsConfig::default());
        c.set_obs(obs.clone());
        record_entries(&mut c, 60);
        assert!(c.over_capacity());
        assert!(c.reclaim(&Cursor::AtEntry(key(1_000))));
        let events = obs.drain_events();
        let evicts: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::CacheEvict { .. }))
            .collect();
        assert!(!evicts.is_empty(), "evictions emit CacheEvict events");
        match evicts[0] {
            TraceEvent::CacheEvict { bytes, nodes, .. } => {
                assert!(*bytes > 0);
                assert!(*nodes > 0);
            }
            _ => unreachable!(),
        }
        let m = obs.metrics().unwrap();
        assert_eq!(m.cache_evictions, c.stats().evictions);
        assert_eq!(m.bytes_evicted, c.stats().bytes_evicted);
        assert_eq!(m.cache_clears, 0);
    }

    #[test]
    fn clear_policy_reclaim_clears_wholesale() {
        let mut c = ActionCache::with_policy(Some(100), CachePolicy::Clear);
        record_entries(&mut c, 20);
        assert!(c.over_capacity());
        let survived = c.reclaim(&Cursor::AtEntry(key(999)));
        assert!(!survived, "clear-on-full invalidates the cursor");
        assert_eq!(c.stats().clears, 1);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.node_count(), 0);
        assert_bytes_invariant(&c);
    }

    #[test]
    fn tiny_offset_width_rotates_instead_of_truncating() {
        // Regression for the unchecked `slab.len() as u32` casts: with an
        // artificially small offset width, recording must rotate to fresh
        // generations and keep every node's data intact instead of
        // silently wrapping offsets.
        let mut c = ActionCache::new();
        c.set_offset_limit(16);
        let mut cur = Cursor::AtEntry(key(1));
        let mut ids = Vec::new();
        for i in 0..100i64 {
            ids.push(c.record_plain(&mut cur, i as u32, &[i, i * 3, i * 5]));
        }
        assert!(
            c.own_slots().count() > 10,
            "tiny offset width forces rotations (got {})",
            c.own_slots().count()
        );
        for (i, id) in ids.iter().enumerate() {
            let i = i as i64;
            assert!(c.is_resident(*id), "rotation never evicts");
            assert_eq!(c.node_data(*id), &[i, i * 3, i * 5], "node {i} data intact");
        }
        // The whole chain replays across generation boundaries.
        let mut walk = c.entry(&key(1)).unwrap();
        let mut count = 1;
        while let Some(n) = c.next_plain(walk) {
            walk = n;
            count += 1;
        }
        assert_eq!(count, 100);
        assert_bytes_invariant(&c);
    }

    #[test]
    fn tiny_offset_width_skips_unindexable_sigs_without_losing_entries() {
        // INDEX signatures that no longer fit the owning generation's
        // offset width are not linked locally — but the entry-table
        // fallback still resolves the crossing.
        let mut c = ActionCache::new();
        c.set_offset_limit(8);
        let mut cur = Cursor::AtEntry(key(1));
        let idx = c.record_index(&mut cur, 9, &[1, 2, 3, 4, 5, 6], key(2), vec![2]);
        let e2 = c.record_plain(&mut cur, 1, &[]);
        // The sig may or may not have fit locally; the entry always
        // resolves.
        assert_eq!(c.entry(&key(2)), Some(e2));
        let _ = idx;
        assert_bytes_invariant(&c);
    }

    #[test]
    fn entry_table_growth_drops_evicted_registrations() {
        let mut c = ActionCache::with_policy(Some(400), CachePolicy::Generational);
        record_entries(&mut c, 50);
        c.reclaim(&Cursor::AtEntry(key(10_000)));
        let live_before = (0..50).filter(|&i| c.entry(&key(i)).is_some()).count();
        assert!(live_before < 50, "some entries went stale");
        // Force table growth: register many fresh entries.
        record_entries(&mut c, 50); // re-records 0..50 (stale ones re-register)
        for i in 1000..1600 {
            let mut cur = Cursor::AtEntry(key(i));
            c.record_plain(&mut cur, 0, &[]);
        }
        // Every resident registration still resolves.
        for i in 1000..1600 {
            if c.entry(&key(i)).is_none() {
                // May have been evicted again by rotation? No reclaim was
                // called, so everything since the last reclaim is live.
                panic!("fresh entry {i} lost by table growth");
            }
        }
        assert_bytes_invariant(&c);
    }

    #[test]
    fn send_holds_with_touch_cells() {
        const fn assert_send<T: Send>() {}
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send::<ActionCache>();
        // Sealed segments carry no bookkeeping cells, so images share.
        assert_send_sync::<FrozenGens>();
    }

    // ---- persistence: freeze / install / overlay COW -------------------

    /// A small graph exercising every node flavor: entry → plain →
    /// test (2 branches) and a second entry chained through an INDEX.
    fn record_sample_graph(c: &mut ActionCache) -> (NodeId, NodeId, NodeId) {
        let mut cur = Cursor::AtEntry(key(1));
        let p = c.record_plain(&mut cur, 1, &[10, 20]);
        let t = c.record_test(&mut cur, 2, &[], 0);
        c.record_plain(&mut cur, 3, &[]);
        let mut cur2 = Cursor::AfterTest(t, 5);
        c.record_plain(&mut cur2, 4, &[]);
        let mut cur3 = Cursor::AtEntry(key(2));
        let idx = c.record_index(&mut cur3, 5, &[], key(1), vec![7, 8]);
        c.link_existing(&cur3, p);
        (p, t, idx)
    }

    #[test]
    fn freeze_and_install_resolve_in_a_fresh_cache() {
        let mut donor = ActionCache::new();
        let (p, t, idx) = record_sample_graph(&mut donor);
        let hit = donor.next_test_hot(t, 0).unwrap();
        let miss = donor.next_test_hot(t, 5).unwrap();

        let image = donor.freeze();
        assert!(image.bytes() > 0, "freeze stamps a nominal size");
        let snap = Arc::new(image);

        let mut warm = ActionCache::new();
        warm.install_frozen(Arc::clone(&snap)).unwrap();
        // The same NodeIds resolve: freeze preserves seq numbers.
        assert_eq!(warm.entry(&key(1)), Some(p));
        assert_eq!(warm.node(p).action, 1);
        assert_eq!(warm.node_data(p), &[10, 20]);
        assert_eq!(warm.next_plain(p), Some(t));
        assert_eq!(warm.next_test_hot(t, 0), Some(hit));
        assert_eq!(warm.next_test_hot(t, 5), Some(miss));
        assert_eq!(warm.next_test_hot(t, 99), None);
        assert_eq!(warm.next_index_local_hot(idx, &[7, 8]), Some(p));
        assert_eq!(warm.next_index_local_hot(idx, &[7, 8]), Some(p));

        // Frozen storage is accounted outside the live byte budget.
        let s = warm.stats();
        assert_eq!(s.bytes_current, 0);
        assert_eq!(s.bytes_frozen, snap.bytes());
        assert_eq!(s.frozen_gens, snap.generation_count() as u64);
        assert_bytes_invariant(&warm);
    }

    #[test]
    fn install_rejects_nonempty_or_double() {
        let mut donor = ActionCache::new();
        record_sample_graph(&mut donor);
        let snap = Arc::new(donor.freeze());

        let mut dirty = ActionCache::new();
        let mut cur = Cursor::AtEntry(key(9));
        dirty.record_plain(&mut cur, 1, &[]);
        assert!(dirty.install_frozen(Arc::clone(&snap)).is_err());

        let mut warm = ActionCache::new();
        warm.install_frozen(Arc::clone(&snap)).unwrap();
        assert!(warm.install_frozen(snap).is_err());
    }

    #[test]
    fn overlay_links_are_private_to_each_installation() {
        let mut donor = ActionCache::new();
        let (p, t, idx) = record_sample_graph(&mut donor);
        // Frozen tail: the branch node after test-value 5 has no successor.
        let tail = donor.next_test_hot(t, 5).unwrap();
        let snap = Arc::new(donor.freeze());

        let mut a = ActionCache::new();
        a.install_frozen(Arc::clone(&snap)).unwrap();
        let mut b = ActionCache::new();
        b.install_frozen(Arc::clone(&snap)).unwrap();

        // Lane A extends the shared image copy-on-write: a plain link
        // off a frozen tail, a new test branch, a new INDEX signature.
        let mut cur = Cursor::AfterPlain(tail);
        let ext = a.record_plain(&mut cur, 6, &[1]);
        assert_eq!(a.next_plain(tail), Some(ext));
        let mut cur2 = Cursor::AfterTest(t, 42);
        let branch = a.record_plain(&mut cur2, 7, &[]);
        assert_eq!(a.next_test_hot(t, 42), Some(branch));
        assert_eq!(a.next_test_hot(t, 42), Some(branch));
        let mut cur3 = Cursor::AfterIndex(idx, key(3), vec![100]);
        let e3 = a.record_plain(&mut cur3, 8, &[]);
        assert_eq!(a.next_index_local_hot(idx, &[100]), Some(e3));
        assert_eq!(a.next_index_local_hot(idx, &[100]), Some(e3));
        // Base links still resolve through the overlay path.
        assert_eq!(
            a.next_test_hot(t, 0),
            Some(donor.next_test_hot(t, 0).unwrap())
        );
        assert_eq!(a.next_index_local_hot(idx, &[7, 8]), Some(p));
        assert_bytes_invariant(&a);

        // Lane B shares the same Arc and sees none of lane A's links.
        assert_eq!(b.next_plain(tail), None);
        assert_eq!(b.next_test_hot(t, 42), None);
        assert_eq!(b.next_index_local_hot(idx, &[100]), None);
        // And the frozen image itself is untouched.
        assert_eq!(snap.node_count(), donor.freeze().node_count());
    }

    #[test]
    fn refreeze_merges_overlay_and_live_recordings() {
        let mut donor = ActionCache::new();
        let (_, t, idx) = record_sample_graph(&mut donor);
        let tail = donor.next_test_hot(t, 5).unwrap();
        let snap = Arc::new(donor.freeze());

        let mut warm = ActionCache::new();
        warm.install_frozen(snap).unwrap();
        let mut cur = Cursor::AfterPlain(tail);
        let ext = warm.record_plain(&mut cur, 6, &[9]);
        let mut cur3 = Cursor::AfterIndex(idx, key(3), vec![100, 101]);
        let e3 = warm.record_plain(&mut cur3, 8, &[]);

        // Re-freezing folds the overlay into the exported base.
        let merged = Arc::new(warm.freeze());
        let mut next = ActionCache::new();
        next.install_frozen(merged).unwrap();
        assert_eq!(next.next_plain(tail), Some(ext));
        assert_eq!(
            next.next_test_hot(t, 0),
            Some(donor.next_test_hot(t, 0).unwrap())
        );
        assert_eq!(
            next.next_index_local_hot(idx, &[7, 8]),
            donor.next_index_local_hot(idx, &[7, 8])
        );
        assert_eq!(next.next_index_local_hot(idx, &[100, 101]), Some(e3));
        assert_eq!(next.entry(&key(3)), Some(e3));
        assert_bytes_invariant(&next);
    }

    #[test]
    fn clear_keeps_the_frozen_image_but_drops_the_overlay() {
        let mut donor = ActionCache::new();
        let (p, t, _) = record_sample_graph(&mut donor);
        let tail = donor.next_test_hot(t, 5).unwrap();
        let snap = Arc::new(donor.freeze());

        let mut warm = ActionCache::new();
        warm.install_frozen(Arc::clone(&snap)).unwrap();
        let mut cur = Cursor::AfterPlain(tail);
        warm.record_plain(&mut cur, 6, &[]);
        assert!(warm.next_plain(tail).is_some());

        warm.clear();
        // Frozen entries re-registered; frozen graph still resolves.
        assert_eq!(warm.entry(&key(1)), Some(p));
        assert_eq!(warm.next_plain(p), Some(t));
        // The overlay link's target went stale with the clear.
        assert_eq!(warm.next_plain(tail), None);
        let s = warm.stats();
        assert_eq!(s.bytes_frozen, snap.bytes());
        assert_eq!(s.bytes_current, 0);
        assert_bytes_invariant(&warm);
    }

    /// One decoded segment of nodes `(action, data range, successors)`.
    fn seg(seq: u32, slab: Vec<i64>, nodes: Vec<(u32, SlabRange, Succ)>) -> Segment {
        let nodes = nodes
            .into_iter()
            .map(|(action, data, s)| (Node { action, data }, s))
            .collect();
        Segment::from_parts(seq, nodes, slab)
    }

    #[test]
    fn builder_validates_structure() {
        // `FrozenGens::from_parts` builds images from untrusted parts.
        let none = || (0, SlabRange::default(), Succ::None);
        let seal = |gens: Vec<Segment>, entries: Vec<(Key, NodeId)>| {
            FrozenGens::from_parts(gens, entries, 16)
        };
        // Non-increasing segment sequence.
        assert!(seal(vec![seg(3, vec![], vec![]), seg(3, vec![], vec![])], vec![]).is_err());

        // Node data range past the slab.
        let past = (0, SlabRange::new(1, 2), Succ::None);
        assert!(seal(vec![seg(0, vec![1, 2], vec![past])], vec![]).is_err());

        // INDEX signature range past the slab.
        let far = NodeId::from_parts(0, 0);
        let index = Succ::Index(Links::new(vec![(SlabRange::new(0, 2), far)]));
        assert!(seal(
            vec![seg(0, vec![1], vec![(0, SlabRange::default(), index)])],
            vec![]
        )
        .is_err());

        // Link target out of bounds within the snapshot.
        let one = |gen, idx| {
            (
                0,
                SlabRange::default(),
                Succ::One(NodeId::from_parts(gen, idx)),
            )
        };
        assert!(seal(vec![seg(0, vec![], vec![one(0, 7)])], vec![]).is_err());

        // Link target in a segment outside the snapshot.
        assert!(seal(vec![seg(0, vec![], vec![one(9, 0)])], vec![]).is_err());

        // Entry target out of bounds.
        let entry = vec![(key(1), NodeId::from_parts(0, 1))];
        assert!(seal(vec![seg(0, vec![], vec![none()])], entry).is_err());

        // Action number at or past the step's action count.
        let big = (16, SlabRange::default(), Succ::None);
        assert!(seal(vec![seg(0, vec![], vec![big])], vec![]).is_err());

        // Duplicate test values in a beyond-linear list.
        let this = NodeId::from_parts(0, 0);
        let dups = (0..=LINEAR_MAX as i64).map(|_| (7, this)).collect();
        let tests = (0, SlabRange::default(), Succ::Tests(Links::new(dups)));
        assert!(seal(vec![seg(0, vec![], vec![tests])], vec![]).is_err());

        // A plain link that does not lead forward (replay would loop
        // within one step).
        assert!(seal(vec![seg(0, vec![], vec![none(), one(0, 0)])], vec![]).is_err());

        // And a well-formed segment seals.
        assert!(seal(vec![seg(0, vec![], vec![one(0, 1), none()])], vec![]).is_ok());
    }

    #[test]
    fn builder_roundtrips_a_frozen_image() {
        // Decode-style reconstruction: rebuild a frozen image from its
        // parts (as the snapshot codec does) and get an equal image.
        let mut donor = ActionCache::new();
        record_sample_graph(&mut donor);
        let image = donor.freeze();

        let gens = image
            .gens()
            .iter()
            .map(|g| {
                let nodes = (0..g.nodes().len())
                    .map(|i| (g.nodes()[i], g.succ(i).clone()))
                    .collect();
                Segment::from_parts(g.seq(), nodes, g.slab().to_vec())
            })
            .collect();
        let rebuilt = FrozenGens::from_parts(gens, image.entries().to_vec(), 16).unwrap();
        assert_eq!(rebuilt.generation_count(), image.generation_count());
        assert_eq!(rebuilt.node_count(), image.node_count());
        assert_eq!(rebuilt.entry_count(), image.entry_count());

        let mut warm = ActionCache::new();
        warm.install_frozen(Arc::new(rebuilt)).unwrap();
        assert_eq!(warm.entry(&key(1)), donor.entry(&key(1)));
        assert_eq!(warm.entry(&key(2)), donor.entry(&key(2)));
    }
}
