//! Generational slab storage for in-flight events.
//!
//! The event queue's calendar and wheel keep only slot indices and
//! `(time, key)` pairs; the payloads live here. Freed slots are chained
//! through an intrusive free-list (the
//! `next` pointer lives inside the vacant slot itself), so steady-state
//! insert/remove cycles perform **zero heap allocations**: a run only
//! allocates while growing to its high-water mark of pending events.
//!
//! Each slot carries a generation counter, bumped on every free. A
//! [`SlotHandle`] captures the generation at insert time, and the
//! checked [`Slab::remove`] refuses a handle whose generation is stale —
//! so a handle that outlives its slot (e.g. through a future
//! event-cancellation API) is detected instead of silently returning an
//! unrelated event that reused the slot.

/// Sentinel for "no next free slot" in the intrusive free-list.
const NIL: u32 = u32::MAX;

/// A reference to a slab slot, valid until that slot is freed.
///
/// The generation makes staleness detectable: once the slot is removed
/// and reused, the handle no longer resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotHandle {
    /// Slot index within the slab.
    pub slot: u32,
    /// Generation of the slot at insert time.
    pub generation: u32,
}

#[derive(Debug)]
enum SlotState<E> {
    Occupied(E),
    Free { next: u32 },
}

#[derive(Debug)]
struct Slot<E> {
    generation: u32,
    state: SlotState<E>,
}

/// A generational slab with an intrusive free-list.
///
/// # Example
///
/// ```
/// use dcn_sim::Slab;
/// let mut slab: Slab<&str> = Slab::new();
/// let a = slab.insert("a");
/// assert_eq!(slab.remove(a), Some("a"));
/// let b = slab.insert("b");
/// assert_eq!(b.slot, a.slot, "freed slot is reused first");
/// assert_ne!(b.generation, a.generation, "…at a new generation");
/// assert_eq!(slab.remove(a), None, "stale handle no longer resolves");
/// ```
#[derive(Debug)]
pub struct Slab<E> {
    slots: Vec<Slot<E>>,
    free_head: u32,
    len: usize,
}

impl<E> Default for Slab<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Slab<E> {
    /// Creates an empty slab (no allocation until the first insert).
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: NIL,
            len: 0,
        }
    }

    /// Creates an empty slab with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(capacity),
            free_head: NIL,
            len: 0,
        }
    }

    /// Stores `event`, reusing the most recently freed slot if one
    /// exists (LIFO keeps the hot slots cache-resident).
    #[inline]
    pub fn insert(&mut self, event: E) -> SlotHandle {
        self.len += 1;
        if self.free_head != NIL {
            let slot = self.free_head;
            let s = &mut self.slots[slot as usize];
            let SlotState::Free { next } = s.state else {
                unreachable!("free-list head points at an occupied slot");
            };
            self.free_head = next;
            s.state = SlotState::Occupied(event);
            SlotHandle {
                slot,
                generation: s.generation,
            }
        } else {
            let slot = u32::try_from(self.slots.len()).expect("slab capped at u32 slots");
            assert!(slot != NIL, "slab full: 2^32 - 1 live events");
            self.slots.push(Slot {
                generation: 0,
                state: SlotState::Occupied(event),
            });
            SlotHandle {
                slot,
                generation: 0,
            }
        }
    }

    /// Removes and returns the event behind `handle`, or `None` if the
    /// handle is stale (its slot was freed, and possibly reused at a
    /// newer generation, since the handle was issued).
    pub fn remove(&mut self, handle: SlotHandle) -> Option<E> {
        let s = self.slots.get_mut(handle.slot as usize)?;
        if s.generation != handle.generation || matches!(s.state, SlotState::Free { .. }) {
            return None;
        }
        Some(self.free_slot(handle.slot))
    }

    /// Removes and returns the event in `slot`, which must be occupied.
    ///
    /// This is the event queue's pop path: the queue files exactly one
    /// entry per occupied slot, so liveness is guaranteed by
    /// construction and no generation needs to travel with the entry.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is vacant or out of bounds — either indicates
    /// queue/slab desynchronization, which must not be ignored.
    #[inline]
    pub fn take(&mut self, slot: u32) -> E {
        assert!(
            matches!(
                self.slots.get(slot as usize),
                Some(Slot {
                    state: SlotState::Occupied(_),
                    ..
                })
            ),
            "slab slot {slot} is not occupied"
        );
        self.free_slot(slot)
    }

    /// The event in `slot`, which must be occupied (as for [`Slab::take`]).
    #[inline]
    pub fn get(&self, slot: u32) -> &E {
        match &self.slots[slot as usize].state {
            SlotState::Occupied(event) => event,
            SlotState::Free { .. } => panic!("slab slot {slot} is not occupied"),
        }
    }

    /// Mutable access to the event in `slot`, which must be occupied.
    pub fn get_mut(&mut self, slot: u32) -> &mut E {
        match &mut self.slots[slot as usize].state {
            SlotState::Occupied(event) => event,
            SlotState::Free { .. } => panic!("slab slot {slot} is not occupied"),
        }
    }

    fn free_slot(&mut self, slot: u32) -> E {
        let s = &mut self.slots[slot as usize];
        let state = std::mem::replace(
            &mut s.state,
            SlotState::Free {
                next: self.free_head,
            },
        );
        let SlotState::Occupied(event) = state else {
            unreachable!("free_slot called on a vacant slot");
        };
        s.generation = s.generation.wrapping_add(1);
        self.free_head = slot;
        self.len -= 1;
        event
    }

    /// Live (occupied) slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots ever allocated (occupied + free-listed). This is the
    /// slab's high-water mark of concurrently live events; it only grows.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut slab = Slab::new();
        let h = slab.insert(42u64);
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.remove(h), Some(42));
        assert_eq!(slab.len(), 0);
        assert!(slab.is_empty());
    }

    #[test]
    fn freed_slot_is_reused_lifo() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        let c = slab.insert("c");
        assert_eq!(slab.capacity(), 3);
        slab.remove(b).unwrap();
        slab.remove(a).unwrap();
        // LIFO: 'a' was freed last, so it is reused first.
        let d = slab.insert("d");
        assert_eq!(d.slot, a.slot);
        let e = slab.insert("e");
        assert_eq!(e.slot, b.slot);
        // No new slots were allocated for the reuses.
        assert_eq!(slab.capacity(), 3);
        assert_eq!(slab.remove(c), Some("c"));
        assert_eq!(slab.remove(d), Some("d"));
        assert_eq!(slab.remove(e), Some("e"));
    }

    #[test]
    fn stale_generation_is_rejected() {
        let mut slab = Slab::new();
        let a = slab.insert(1u32);
        assert_eq!(slab.remove(a), Some(1));
        // Same slot, new generation.
        let b = slab.insert(2u32);
        assert_eq!(b.slot, a.slot);
        assert_ne!(b.generation, a.generation);
        // The stale handle must not resolve to the new occupant.
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.remove(b), Some(2));
        // Double-remove of a vacant slot is also rejected.
        assert_eq!(slab.remove(b), None);
    }

    #[test]
    fn take_pops_occupied_slot() {
        let mut slab = Slab::new();
        let a = slab.insert(7i32);
        assert_eq!(slab.take(a.slot), 7);
        assert!(slab.is_empty());
    }

    #[test]
    #[should_panic(expected = "not occupied")]
    fn take_panics_on_vacant_slot() {
        let mut slab = Slab::new();
        let a = slab.insert(7i32);
        slab.take(a.slot);
        slab.take(a.slot); // vacant now: queue/slab desync must be loud
    }

    #[test]
    fn steady_state_churn_does_not_grow_capacity() {
        let mut slab = Slab::with_capacity(8);
        let mut live: Vec<SlotHandle> = (0..8).map(|i| slab.insert(i)).collect();
        let cap = slab.capacity();
        for round in 0..10_000u64 {
            let h = live.remove((round % 7) as usize);
            slab.remove(h).unwrap();
            live.push(slab.insert(round));
        }
        assert_eq!(slab.capacity(), cap, "free-list reuse must cover churn");
        assert_eq!(slab.len(), 8);
    }
}
