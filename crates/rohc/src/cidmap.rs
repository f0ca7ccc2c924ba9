//! Steady-state CID lookup structures for the ROHC fast path.
//!
//! Both endpoints resolve a flow 5-tuple to its context identifier on
//! every packet. The original implementation kept a `Vec<(FiveTuple,
//! u8)>` scanned linearly — fine for one flow, quadratic pain for a
//! dense-cell AP decompressing blobs from dozens of stations. This
//! module provides the replacements:
//!
//! * [`CidMap`] — a small open-addressed hash map from [`FiveTuple`] to
//!   CID, keyed by a cheap multiply-xor hash over the tuple words (no
//!   MD5, no SipHash). O(1) expected lookup independent of flow count.
//! * `CtxTable` — direct-indexed context storage. CIDs are single
//!   bytes, so a 256-slot table replaces `HashMap<u8, Ctx>`: lookup is
//!   an array index, no hashing at all. Slots allocate lazily on first
//!   insert so an idle endpoint costs nothing.
//! * `FlowTable` — the two together, and the one place the §3.3.2 rule
//!   lives on either end: a flow's CID is the low byte of the MD5 of
//!   its 5-tuple (derived once per flow, on first sight), a context is
//!   created only from a native ACK, and a flow whose CID another flow
//!   already holds gets no context and stays native-only.

use hack_tcp::FiveTuple;

/// A cheap, well-mixed hash of the flow 5-tuple. Addresses and ports
/// are folded into two words and mixed with multiply-xor (the
/// murmur-style finalizer); quality only needs to beat the table size,
/// not an adversary — CID allocation itself still uses MD5.
#[inline]
fn tuple_hash(t: &FiveTuple) -> u64 {
    let a = (u64::from(t.src_ip.0) << 32) | u64::from(t.dst_ip.0);
    let b = (u64::from(t.src_port) << 24) | (u64::from(t.dst_port) << 8) | u64::from(t.protocol);
    let mut h = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    h ^= h >> 29;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 32)
}

/// Open-addressed `FiveTuple -> CID` map with linear probing.
///
/// Capacity is always a power of two and grows at 3/4 load; entries are
/// never removed individually (a flow's CID is stable for its
/// lifetime), which keeps probing tombstone-free.
#[derive(Debug, Default, Clone)]
pub struct CidMap {
    slots: Vec<Option<(FiveTuple, u8)>>,
    len: usize,
}

impl CidMap {
    /// An empty map (no allocation until the first insert).
    pub fn new() -> Self {
        CidMap::default()
    }

    /// Number of cached flows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no flows are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cached CID for `tuple`, if present.
    #[inline]
    pub fn get(&self, tuple: &FiveTuple) -> Option<u8> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = tuple_hash(tuple) as usize & mask;
        loop {
            match &self.slots[i] {
                Some((t, cid)) if t == tuple => return Some(*cid),
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
    }

    /// Cache `tuple -> cid`. The caller has already derived the CID
    /// (MD5 on first sight); re-inserting an existing tuple is a no-op.
    pub fn insert(&mut self, tuple: FiveTuple, cid: u8) {
        if self.slots.len() < 2 * (self.len + 1) {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = tuple_hash(&tuple) as usize & mask;
        loop {
            match &self.slots[i] {
                Some((t, _)) if *t == tuple => return,
                Some(_) => i = (i + 1) & mask,
                None => {
                    self.slots[i] = Some((tuple, cid));
                    self.len += 1;
                    return;
                }
            }
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![None; new_cap]);
        let mask = new_cap - 1;
        for entry in old.into_iter().flatten() {
            let mut i = tuple_hash(&entry.0) as usize & mask;
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some(entry);
        }
    }
}

/// Direct-indexed context storage: CIDs are bytes, so contexts live in
/// a flat 256-slot table and lookup is a bounds-check-free array index.
///
/// The table allocates lazily on the first insert (one allocation for
/// the lifetime of the endpoint), so an empty table is free.
#[derive(Debug, Clone)]
struct CtxTable<T> {
    slots: Vec<Option<T>>,
    live: usize,
}

impl<T> CtxTable<T> {
    /// An empty table (no allocation until the first insert).
    fn new() -> Self {
        CtxTable {
            slots: Vec::new(),
            live: 0,
        }
    }

    /// Number of live contexts.
    fn len(&self) -> usize {
        self.live
    }

    /// The context at `cid`, if any.
    #[inline]
    fn get(&self, cid: u8) -> Option<&T> {
        self.slots.get(usize::from(cid))?.as_ref()
    }

    /// Mutable access to the context at `cid`, if any.
    #[inline]
    fn get_mut(&mut self, cid: u8) -> Option<&mut T> {
        self.slots.get_mut(usize::from(cid))?.as_mut()
    }

    /// Install (or replace) the context at `cid`.
    fn insert(&mut self, cid: u8, ctx: T) {
        if self.slots.is_empty() {
            self.slots.resize_with(256, || None);
        }
        if self.slots[usize::from(cid)].replace(ctx).is_none() {
            self.live += 1;
        }
    }

    /// Remove and return the context at `cid`.
    fn remove(&mut self, cid: u8) -> Option<T> {
        let old = self.slots.get_mut(usize::from(cid))?.take();
        if old.is_some() {
            self.live -= 1;
        }
        old
    }
}

/// A per-flow context: the 5-tuple it belongs to.
pub(crate) trait FlowContext {
    /// The flow (ACK direction).
    fn tuple(&self) -> &FiveTuple;
}

/// What a native ACK found at its flow's CID ([`FlowTable::observe`]).
pub(crate) enum Observed<'a, T> {
    /// The flow's own context, for the caller to refresh.
    Live(&'a mut T),
    /// The CID was free: the native's context now holds it.
    Created(u8),
    /// Another flow holds the CID: this flow stays native-only.
    Taken,
}

/// One endpoint's contexts, keyed by flow. Compressor and decompressor
/// each hold one, so both ends derive CIDs, create contexts and resolve
/// collisions by the same code.
#[derive(Debug)]
pub(crate) struct FlowTable<T> {
    /// Tuple → CID, so MD5 runs once per flow rather than once per ACK.
    cids: CidMap,
    slots: CtxTable<T>,
}

impl<T> Default for FlowTable<T> {
    fn default() -> Self {
        FlowTable {
            cids: CidMap::new(),
            slots: CtxTable::new(),
        }
    }
}

impl<T: FlowContext> FlowTable<T> {
    /// Number of live contexts.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// A native ACK of `fresh`'s flow: the flow's context if it has one,
    /// else `fresh` installed at the flow's CID if that is free. The
    /// only site that derives a CID (§3.3.2: MD5 of the 5-tuple, on
    /// first sight of the flow).
    pub(crate) fn observe(&mut self, fresh: T) -> Observed<'_, T> {
        let tuple = *fresh.tuple();
        let cid = match self.cids.get(&tuple) {
            Some(cid) => cid,
            None => {
                let cid = crate::md5::cid_for_tuple(&tuple.bytes());
                self.cids.insert(tuple, cid);
                cid
            }
        };
        if self.slots.get(cid).is_none() {
            self.slots.insert(cid, fresh);
            return Observed::Created(cid);
        }
        match self.slots.get_mut(cid) {
            Some(ctx) if *ctx.tuple() == tuple => Observed::Live(ctx),
            _ => Observed::Taken,
        }
    }

    /// The context of `tuple`'s flow and its CID. A flow never observed
    /// has none, so this derives nothing.
    #[inline]
    pub(crate) fn get_mut(&mut self, tuple: &FiveTuple) -> Option<(u8, &mut T)> {
        let cid = self.cids.get(tuple)?;
        let ctx = self.slots.get_mut(cid)?;
        (ctx.tuple() == tuple).then_some((cid, ctx))
    }

    /// The context holding `cid`, whichever flow it belongs to (a
    /// compressed segment names its CID, not its flow).
    #[inline]
    pub(crate) fn by_cid_mut(&mut self, cid: u8) -> Option<&mut T> {
        self.slots.get_mut(cid)
    }

    /// Forget `tuple`'s context (supervisor-driven refresh); the next
    /// native ACK of the flow re-seeds it. Whether there was one. A
    /// flow holding the same CID is untouched.
    pub(crate) fn drop(&mut self, tuple: &FiveTuple) -> bool {
        let Some((cid, _)) = self.get_mut(tuple) else {
            return false;
        };
        self.slots.remove(cid);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hack_tcp::Ipv4Addr;

    fn tuple(i: u32) -> FiveTuple {
        FiveTuple {
            src_ip: Ipv4Addr(0xC0A8_0000 | i),
            dst_ip: Ipv4Addr(0x0A00_0001),
            src_port: 40_000 + (i as u16 % 1000),
            dst_port: 5001,
            protocol: 6,
        }
    }

    #[test]
    fn map_roundtrips_many_flows() {
        let mut m = CidMap::new();
        assert!(m.is_empty());
        for i in 0..200 {
            assert_eq!(m.get(&tuple(i)), None);
            m.insert(tuple(i), i as u8);
        }
        assert_eq!(m.len(), 200);
        for i in 0..200 {
            assert_eq!(m.get(&tuple(i)), Some(i as u8), "flow {i}");
        }
        assert_eq!(m.get(&tuple(999)), None);
    }

    #[test]
    fn reinsert_is_idempotent() {
        let mut m = CidMap::new();
        m.insert(tuple(1), 42);
        m.insert(tuple(1), 99); // first binding wins; CIDs are stable
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&tuple(1)), Some(42));
    }

    #[test]
    fn probe_chains_survive_growth() {
        // Insert enough flows to force several doublings, interleaved
        // with lookups so chains formed pre-growth stay resolvable.
        let mut m = CidMap::new();
        for i in 0..500 {
            m.insert(tuple(i), (i % 256) as u8);
            for j in (0..=i).step_by(17) {
                assert_eq!(m.get(&tuple(j)), Some((j % 256) as u8));
            }
        }
    }

    #[test]
    fn ctx_table_insert_get_remove() {
        let mut t: CtxTable<String> = CtxTable::new();
        assert_eq!(t.len(), 0);
        assert_eq!(t.get(7), None);
        t.insert(7, "seven".into());
        t.insert(255, "max".into());
        t.insert(0, "zero".into());
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(7).map(String::as_str), Some("seven"));
        assert_eq!(t.get_mut(255).map(|s| s.as_str()), Some("max"));
        assert_eq!(t.remove(7), Some("seven".into()));
        assert_eq!(t.remove(7), None);
        assert_eq!(t.len(), 2);
        // Replacing keeps the count right.
        t.insert(0, "nil".into());
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0).map(String::as_str), Some("nil"));
    }
}
