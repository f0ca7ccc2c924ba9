//! CID lookup structures for the ROHC fast path.
//!
//! * [`CidMap`] — a small open-addressed hash map from [`FiveTuple`] to
//!   CID, keyed by a cheap multiply-xor hash over the tuple words (no
//!   MD5, no SipHash). O(1) expected lookup independent of flow count,
//!   for a caller that maps many flows at once.
//! * `FlowTable` — one endpoint's contexts, and the one place the
//!   §3.3.2 rule lives on either end: a flow's CID is the low byte of
//!   the MD5 of its 5-tuple (derived when a native ACK creates the
//!   flow's context), a context is created only from a native ACK, and
//!   a flow whose CID another flow already holds gets no context and
//!   stays native-only. A CID names a context within one ROHC channel
//!   (RFC 3095): one compressor and one decompressor, the two ends of
//!   one link. A table therefore holds the few flows of one link, in a
//!   short list scanned in place.

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
    /// `(CID, context)` of each flow that has a context; CIDs are
    /// distinct, and so are the contexts' flows.
    slots: Vec<(u8, T)>,
}

impl<T> Default for FlowTable<T> {
    fn default() -> Self {
        FlowTable { slots: Vec::new() }
    }
}

impl<T: FlowContext> FlowTable<T> {
    /// Number of live contexts.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// A native ACK of `fresh`'s flow: the flow's context if it has one,
    /// else `fresh` installed at the flow's CID if that is free. The
    /// only site that derives a CID (§3.3.2: MD5 of the 5-tuple).
    pub(crate) fn observe(&mut self, fresh: T) -> Observed<'_, T> {
        let tuple = fresh.tuple();
        if let Some(i) = self.slots.iter().position(|(_, c)| c.tuple() == tuple) {
            return Observed::Live(&mut self.slots[i].1);
        }
        let cid = crate::md5::cid_for_tuple(&tuple.bytes());
        if self.slots.iter().any(|&(c, _)| c == cid) {
            return Observed::Taken;
        }
        self.slots.push((cid, fresh));
        Observed::Created(cid)
    }

    /// The context of `tuple`'s flow and its CID. A flow never observed
    /// has none, so this derives nothing.
    #[inline]
    pub(crate) fn get_mut(&mut self, tuple: &FiveTuple) -> Option<(u8, &mut T)> {
        self.slots
            .iter_mut()
            .find(|(_, c)| c.tuple() == tuple)
            .map(|(cid, c)| (*cid, c))
    }

    /// The context holding `cid`, whichever flow it belongs to (a
    /// compressed segment names its CID, not its flow).
    #[inline]
    pub(crate) fn by_cid_mut(&mut self, cid: u8) -> Option<&mut T> {
        self.slots
            .iter_mut()
            .find(|(c, _)| *c == cid)
            .map(|(_, ctx)| ctx)
    }

    /// Forget `tuple`'s context (supervisor-driven refresh); the next
    /// native ACK of the flow re-seeds it. Whether there was one. A
    /// flow holding the same CID is untouched.
    pub(crate) fn drop(&mut self, tuple: &FiveTuple) -> bool {
        let Some(i) = self.slots.iter().position(|(_, c)| c.tuple() == tuple) else {
            return false;
        };
        self.slots.swap_remove(i);
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
        #[derive(Debug, PartialEq)]
        struct Ctx(FiveTuple, &'static str);
        impl FlowContext for Ctx {
            fn tuple(&self) -> &FiveTuple {
                &self.0
            }
        }
        let cid = |i| crate::md5::cid_for_tuple(&tuple(i).bytes());
        // Two flows whose CIDs collide (pigeonhole over 257 flows).
        let (a, b) = (0..257)
            .flat_map(|j| (0..j).map(move |i| (i, j)))
            .find(|&(i, j)| cid(i) == cid(j))
            .expect("257 flows share a CID");
        let c = (0..).find(|&k| cid(k) != cid(a)).unwrap();

        let mut t: FlowTable<Ctx> = FlowTable::default();
        assert_eq!(t.len(), 0);
        assert!(t.get_mut(&tuple(a)).is_none());
        assert!(t.by_cid_mut(cid(a)).is_none());
        assert!(matches!(t.observe(Ctx(tuple(a), "a")), Observed::Created(x) if x == cid(a)));
        assert!(matches!(t.observe(Ctx(tuple(c), "c")), Observed::Created(x) if x == cid(c)));
        // The flow's own context comes back as it was first installed.
        match t.observe(Ctx(tuple(a), "a again")) {
            Observed::Live(ctx) => assert_eq!(ctx.1, "a"),
            _ => panic!("flow a lost its context"),
        }
        // A second flow on a held CID stays native-only.
        assert!(matches!(t.observe(Ctx(tuple(b), "b")), Observed::Taken));
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.get_mut(&tuple(c)).map(|(x, ctx)| (x, ctx.1)),
            Some((cid(c), "c"))
        );
        assert!(t.get_mut(&tuple(b)).is_none());
        assert_eq!(t.by_cid_mut(cid(b)).map(|ctx| ctx.1), Some("a"));
        // Dropping another flow on the same CID leaves the holder alone.
        assert!(!t.drop(&tuple(b)));
        assert!(t.drop(&tuple(a)));
        assert!(!t.drop(&tuple(a)));
        assert_eq!(t.len(), 1);
        // The freed CID goes to the next flow that asks for it.
        assert!(matches!(t.observe(Ctx(tuple(b), "b")), Observed::Created(x) if x == cid(a)));
        assert_eq!(t.by_cid_mut(cid(a)).map(|ctx| ctx.1), Some("b"));
        assert_eq!(t.len(), 2);
    }
}
