//! Cancellable timers on top of the event queue.
//!
//! Each logical timer key carries a generation counter. Arming a timer
//! bumps the generation and embeds a [`TimerToken`] (key + generation)
//! in the scheduled event; cancelling or re-arming bumps the generation
//! again. When the event fires, the dispatcher asks [`TimerTable::fire`]
//! whether the token is still current.
//!
//! A timer armed through [`TimerTable::schedule`] also remembers its
//! event's [`EventHandle`]: re-arming it or cancelling it through
//! [`TimerTable::unschedule`] removes the superseded event from the
//! queue, so it is never dispatched (ns-2's MAC timers are cancelled on
//! its scheduler the same way). The generation check then only guards
//! what the queue cannot see — a token fired twice, or a table used with
//! [`TimerTable::arm`] alone, where cancellation stays lazy and stale
//! tokens are dropped at fire time.

use std::hash::Hash;

use crate::hash::FastMap;
use crate::queue::{EventHandle, Scheduler, Ticket};
use crate::time::SimTime;

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

/// One key's current generation and, if armed through
/// [`TimerTable::schedule`], the event carrying that arming.
#[derive(Debug, Default)]
struct Armed {
    generation: u64,
    event: Option<EventHandle>,
}

/// Tracks the current generation of every logical timer key.
#[derive(Debug)]
pub struct TimerTable<K> {
    keys: FastMap<K, Armed>,
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
            keys: FastMap::default(),
            stale_fired: 0,
        }
    }

    /// Arm (or re-arm) the timer `key`, invalidating any previously armed
    /// instance, and return the token to embed in the scheduled event.
    pub fn arm(&mut self, key: K) -> TimerToken<K> {
        let armed = self.keys.entry(key).or_default();
        armed.generation += 1;
        TimerToken {
            key,
            generation: armed.generation,
        }
    }

    /// Cancel the timer `key`. Any outstanding token becomes stale. Safe to
    /// call when the timer was never armed.
    pub fn cancel(&mut self, key: K) {
        if let Some(armed) = self.keys.get_mut(&key) {
            armed.generation += 1;
        }
    }

    /// Arm (or re-arm) `key` to fire `event(token)` at `at` on `sched`.
    /// The event of the key's previous arming, if still pending, leaves
    /// the queue unfired.
    pub fn schedule<E>(
        &mut self,
        sched: &mut Scheduler<E>,
        key: K,
        at: SimTime,
        event: impl FnOnce(TimerToken<K>) -> E,
    ) {
        let ticket = sched.reserve(at);
        self.schedule_reserved(sched, key, ticket, event);
    }

    /// [`TimerTable::schedule`] at a place [`Scheduler::reserve`] took:
    /// the event pops where one armed when the ticket was issued would
    /// have, so an arming can be decided early and pushed later.
    pub fn schedule_reserved<E>(
        &mut self,
        sched: &mut Scheduler<E>,
        key: K,
        ticket: Ticket,
        event: impl FnOnce(TimerToken<K>) -> E,
    ) {
        let armed = self.keys.entry(key).or_default();
        armed.generation += 1;
        if let Some(previous) = armed.event.take() {
            sched.cancel(previous);
        }
        let token = TimerToken {
            key,
            generation: armed.generation,
        };
        armed.event = Some(sched.schedule_reserved(ticket, event(token)));
    }

    /// Cancel `key` and take its pending event, if any, out of `sched`.
    /// Returns that event's payload.
    pub fn unschedule<E>(&mut self, sched: &mut Scheduler<E>, key: K) -> Option<E> {
        let armed = self.keys.get_mut(&key)?;
        armed.generation += 1;
        sched.cancel(armed.event.take()?)
    }

    /// Report that the event carrying `token` fired. Returns `true` if the
    /// token is current (the handler should run) and consumes the arming so
    /// a second delivery of the same token is stale.
    pub fn fire(&mut self, token: TimerToken<K>) -> bool {
        match self.keys.get_mut(&token.key) {
            Some(armed) if armed.generation == token.generation => {
                // Consume: a fired one-shot timer is no longer pending.
                armed.generation += 1;
                armed.event = None;
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
        self.keys
            .get(&token.key)
            .is_some_and(|armed| armed.generation == token.generation)
    }

    /// Number of stale tokens observed at fire time so far.
    pub fn stale_fired(&self) -> u64 {
        self.stale_fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Scheduler;

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
    fn scheduled_rearm_and_cancel_remove_the_superseded_event() {
        let mut t = TimerTable::new();
        let mut s = Scheduler::new();
        let at = |us| SimTime::from_micros(us);
        t.schedule(&mut s, Key::Slot, at(5), |tok| tok);
        t.schedule(&mut s, Key::Slot, at(3), |tok| tok);
        t.schedule(&mut s, Key::AckTimeout, at(4), |tok| tok);
        assert_eq!(s.pending(), 2, "the re-arm took the first event out");
        let ack = t.unschedule(&mut s, Key::AckTimeout).expect("pending");
        assert!(!t.is_current(&ack));
        assert_eq!(t.unschedule(&mut s, Key::AckTimeout), None);
        let (when, tok) = s.pop().expect("the re-armed slot timer");
        assert_eq!(when, at(3));
        assert!(t.fire(tok));
        assert_eq!((s.pop(), t.stale_fired()), (None, 0));
        // Fired, so nothing is left to take out.
        assert_eq!(t.unschedule(&mut s, Key::Slot), None);
    }

    #[test]
    fn a_reserved_arming_pops_in_its_tickets_place() {
        let mut t = TimerTable::new();
        let mut s = Scheduler::new();
        let at = SimTime::from_micros(5);
        t.schedule(&mut s, Key::Slot, at, |tok| ("stale", Some(tok)));
        let ticket = s.reserve(at);
        s.schedule_at(at, ("pushed later", None));
        t.schedule_reserved(&mut s, Key::Slot, ticket, |tok| ("reserved", Some(tok)));
        assert_eq!(s.pending(), 2, "the re-arm took the first event out");
        let (_, (first, tok)) = s.pop().expect("pending");
        assert_eq!(first, "reserved");
        assert!(t.fire(tok.expect("a timer event")));
        assert_eq!(s.pop().map(|(_, (what, _))| what), Some("pushed later"));
    }

    #[test]
    fn cancel_unarmed_is_noop() {
        let mut t: TimerTable<Key> = TimerTable::new();
        t.cancel(Key::Slot); // must not panic or create state
        let tok = t.arm(Key::Slot);
        assert!(t.fire(tok));
    }
}
