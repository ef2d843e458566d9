//! Slab storage for in-flight events.
//!
//! The event queue's calendar and wheel keep only slot indices and
//! `(time, key)` pairs; the payloads live here. Freed slots are chained
//! through an intrusive free-list (the
//! `next` pointer lives inside the vacant slot itself), so steady-state
//! insert/take cycles perform **zero heap allocations**: a run only
//! allocates while growing to its high-water mark of pending events.
//!
//! The queue files exactly one entry per occupied slot, so a slot index
//! is live by construction and needs no generation; timer staleness is
//! the wheel's own generational [`crate::TimerHandle`].

/// Sentinel for "no next free slot" in the intrusive free-list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
enum Slot<E> {
    Occupied(E),
    Free { next: u32 },
}

/// A slab with an intrusive free-list.
#[derive(Debug)]
pub(crate) struct Slab<E> {
    slots: Vec<Slot<E>>,
    free_head: u32,
}

impl<E> Slab<E> {
    /// Creates an empty slab (no allocation until the first insert).
    pub(crate) fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: NIL,
        }
    }

    /// Stores `event` and returns its slot, reusing the most recently
    /// freed slot if one exists (LIFO keeps the hot slots cache-resident).
    #[inline]
    pub(crate) fn insert(&mut self, event: E) -> u32 {
        if self.free_head != NIL {
            let slot = self.free_head;
            let s = &mut self.slots[slot as usize];
            let Slot::Free { next } = *s else {
                unreachable!("free-list head points at an occupied slot");
            };
            self.free_head = next;
            *s = Slot::Occupied(event);
            slot
        } else {
            let slot = u32::try_from(self.slots.len()).expect("slab capped at u32 slots");
            assert!(slot != NIL, "slab full: 2^32 - 1 live events");
            self.slots.push(Slot::Occupied(event));
            slot
        }
    }

    /// Removes and returns the event in `slot`, which must be occupied.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is vacant or out of bounds — either indicates
    /// queue/slab desynchronization, which must not be ignored.
    #[inline]
    pub(crate) fn take(&mut self, slot: u32) -> E {
        let s = self
            .slots
            .get_mut(slot as usize)
            .filter(|s| matches!(s, Slot::Occupied(_)))
            .unwrap_or_else(|| panic!("slab slot {slot} is not occupied"));
        let Slot::Occupied(event) = std::mem::replace(
            s,
            Slot::Free {
                next: self.free_head,
            },
        ) else {
            unreachable!("checked occupied above");
        };
        self.free_head = slot;
        event
    }

    /// The event in `slot`, which must be occupied (as for [`Slab::take`]).
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> &E {
        match &self.slots[slot as usize] {
            Slot::Occupied(event) => event,
            Slot::Free { .. } => panic!("slab slot {slot} is not occupied"),
        }
    }

    /// Mutable access to the event in `slot`, which must be occupied.
    pub(crate) fn get_mut(&mut self, slot: u32) -> &mut E {
        match &mut self.slots[slot as usize] {
            Slot::Occupied(event) => event,
            Slot::Free { .. } => panic!("slab slot {slot} is not occupied"),
        }
    }

    /// Total slots ever allocated (occupied + free-listed). This is the
    /// slab's high-water mark of concurrently live events; it only grows.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_roundtrip() {
        let mut slab = Slab::new();
        let h = slab.insert(42u64);
        assert_eq!(*slab.get(h), 42);
        assert_eq!(slab.take(h), 42);
    }

    #[test]
    fn freed_slot_is_reused_lifo() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        let c = slab.insert("c");
        assert_eq!(slab.capacity(), 3);
        slab.take(b);
        slab.take(a);
        // LIFO: 'a' was freed last, so it is reused first.
        let d = slab.insert("d");
        assert_eq!(d, a);
        let e = slab.insert("e");
        assert_eq!(e, b);
        // No new slots were allocated for the reuses.
        assert_eq!(slab.capacity(), 3);
        assert_eq!(slab.take(c), "c");
        assert_eq!(slab.take(d), "d");
        assert_eq!(slab.take(e), "e");
    }

    #[test]
    #[should_panic(expected = "not occupied")]
    fn take_panics_on_vacant_slot() {
        let mut slab = Slab::new();
        let a = slab.insert(7i32);
        slab.take(a);
        slab.take(a); // vacant now: queue/slab desync must be loud
    }

    #[test]
    fn steady_state_churn_does_not_grow_capacity() {
        let mut slab = Slab::new();
        let mut live: Vec<u32> = (0..8).map(|i| slab.insert(i)).collect();
        let cap = slab.capacity();
        for round in 0..10_000u64 {
            let h = live.remove((round % 7) as usize);
            slab.take(h);
            live.push(slab.insert(round));
        }
        assert_eq!(slab.capacity(), cap, "free-list reuse must cover churn");
    }
}
