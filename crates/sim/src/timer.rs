//! Cancellable timers on top of the non-removable event queue.
//!
//! A binary heap cannot cheaply remove an arbitrary entry, so cancellation
//! is **lazy**: each logical timer key carries a generation counter. Arming
//! a timer bumps the generation and embeds a [`TimerToken`] (key +
//! generation) in the scheduled event; cancelling or re-arming bumps the
//! generation again. When the event fires, the dispatcher asks
//! [`TimerTable::fire`] whether the token is still current — stale tokens
//! are dropped silently. This is the same pattern used by most production
//! discrete-event engines (including ns-3's `EventId::IsExpired`).

use std::hash::Hash;

use crate::hash::FastMap;

/// A handle embedded in a scheduled event identifying one arming of one
/// logical timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken<K> {
    key: K,
    generation: u64,
}

impl<K: Copy> TimerToken<K> {
    /// The logical timer key this token belongs to.
    pub fn key(&self) -> K {
        self.key
    }
}

/// Tracks the current generation of every logical timer key.
#[derive(Debug)]
pub struct TimerTable<K> {
    generations: FastMap<K, u64>,
    /// Number of stale tokens dropped at fire time (observability).
    stale_fired: u64,
}

impl<K: Eq + Hash + Copy> Default for TimerTable<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Copy> TimerTable<K> {
    /// Create an empty table.
    pub fn new() -> Self {
        TimerTable {
            generations: FastMap::default(),
            stale_fired: 0,
        }
    }

    /// Arm (or re-arm) the timer `key`, invalidating any previously armed
    /// instance, and return the token to embed in the scheduled event.
    pub fn arm(&mut self, key: K) -> TimerToken<K> {
        let entry = self.generations.entry(key).or_insert(0);
        *entry += 1;
        TimerToken {
            key,
            generation: *entry,
        }
    }

    /// Cancel the timer `key`. Any outstanding token becomes stale. Safe to
    /// call when the timer was never armed.
    pub fn cancel(&mut self, key: K) {
        if let Some(generation) = self.generations.get_mut(&key) {
            *generation += 1;
        }
    }

    /// Report that the event carrying `token` fired. Returns `true` if the
    /// token is current (the handler should run) and consumes the arming so
    /// a second delivery of the same token is stale.
    pub fn fire(&mut self, token: TimerToken<K>) -> bool {
        match self.generations.get_mut(&token.key) {
            Some(generation) if *generation == token.generation => {
                // Consume: a fired one-shot timer is no longer pending.
                *generation += 1;
                true
            }
            _ => {
                self.stale_fired += 1;
                false
            }
        }
    }

    /// Whether `token` would currently fire (without consuming it).
    pub fn is_current(&self, token: &TimerToken<K>) -> bool {
        self.generations.get(&token.key) == Some(&token.generation)
    }

    /// Number of stale tokens observed at fire time so far.
    pub fn stale_fired(&self) -> u64 {
        self.stale_fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Key {
        AckTimeout,
        Slot,
    }

    #[test]
    fn armed_timer_fires_once() {
        let mut t = TimerTable::new();
        let tok = t.arm(Key::AckTimeout);
        assert!(t.is_current(&tok));
        assert!(t.fire(tok));
        // Double delivery is stale.
        assert!(!t.fire(tok));
        assert_eq!(t.stale_fired(), 1);
    }

    #[test]
    fn cancel_invalidates() {
        let mut t = TimerTable::new();
        let tok = t.arm(Key::AckTimeout);
        t.cancel(Key::AckTimeout);
        assert!(!t.is_current(&tok));
        assert!(!t.fire(tok));
    }

    #[test]
    fn rearm_invalidates_previous() {
        let mut t = TimerTable::new();
        let old = t.arm(Key::Slot);
        let new = t.arm(Key::Slot);
        assert!(!t.fire(old));
        assert!(t.fire(new));
    }

    #[test]
    fn keys_are_independent() {
        let mut t = TimerTable::new();
        let a = t.arm(Key::AckTimeout);
        let s = t.arm(Key::Slot);
        t.cancel(Key::AckTimeout);
        assert!(!t.fire(a));
        assert!(t.fire(s));
    }

    #[test]
    fn cancel_unarmed_is_noop() {
        let mut t: TimerTable<Key> = TimerTable::new();
        t.cancel(Key::Slot); // must not panic or create state
        let tok = t.arm(Key::Slot);
        assert!(t.fire(tok));
    }
}
