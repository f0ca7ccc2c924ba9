//! A reusable scratch-buffer pool for byte vectors.
//!
//! The HACK hot path rebuilds a NIC blob on every held ACK and every
//! confirmation — previously a fresh `Vec<u8>` each time, dropped a few
//! microseconds later when the next rebuild displaced it. [`BufPool`]
//! closes that loop: `take` hands out a cleared buffer with its old
//! capacity intact, `put` returns a displaced buffer for reuse.
//!
//! The pool is deliberately dumb — a bounded LIFO stack of buffers, no
//! sizing classes — because the blob path recycles buffers of one
//! rough size.

/// A bounded pool of reusable `Vec<u8>` scratch buffers.
#[derive(Debug)]
pub struct BufPool {
    free: Vec<Vec<u8>>,
    max_pooled: usize,
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::new()
    }
}

impl BufPool {
    /// Default retention: one driver's worst blob churn (a 64-MPDU A-MPDU
    /// acknowledged segment by segment leaves 64 rebuilds in flight).
    const DEFAULT_MAX_POOLED: usize = 64;

    /// A pool retaining up to `DEFAULT_MAX_POOLED` (64) buffers.
    pub fn new() -> Self {
        BufPool::with_max_pooled(Self::DEFAULT_MAX_POOLED)
    }

    /// A pool retaining at most `max_pooled` free buffers; `put` beyond
    /// that drops the buffer.
    pub fn with_max_pooled(max_pooled: usize) -> Self {
        BufPool {
            free: Vec::new(),
            max_pooled,
        }
    }

    /// An empty buffer: recycled (capacity retained) when one is
    /// pooled, a new empty one otherwise.
    pub fn take(&mut self) -> Vec<u8> {
        let buf = self.free.pop().unwrap_or_default();
        debug_assert!(buf.is_empty());
        buf
    }

    /// Return a buffer for reuse. Cleared here so `take` is O(1).
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if self.free.len() < self.max_pooled && buf.capacity() > 0 {
            buf.clear();
            self.free.push(buf);
        }
    }

    /// Number of free buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_recycles_capacity() {
        let mut p = BufPool::new();
        let mut b = p.take();
        assert_eq!(b.capacity(), 0, "nothing pooled yet");
        b.extend_from_slice(&[1, 2, 3, 4]);
        let cap = b.capacity();
        p.put(b);
        let b2 = p.take();
        assert_eq!(p.pooled(), 0);
        assert!(b2.is_empty());
        assert_eq!(b2.capacity(), cap, "capacity survives the round trip");
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let mut p = BufPool::new();
        p.put(Vec::new());
        assert_eq!(p.pooled(), 0);
    }

    #[test]
    fn retention_is_bounded() {
        let mut p = BufPool::with_max_pooled(2);
        for _ in 0..5 {
            p.put(Vec::with_capacity(8));
        }
        assert_eq!(p.pooled(), 2);
    }

    #[test]
    fn lifo_order() {
        let mut p = BufPool::new();
        p.put(Vec::with_capacity(10));
        p.put(Vec::with_capacity(20));
        assert_eq!(p.take().capacity(), 20);
        assert_eq!(p.take().capacity(), 10);
    }
}
