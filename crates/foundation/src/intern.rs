//! Slot interning: dense `u32` indices for the hot-path id spaces.
//!
//! The routing planes of the RTE, the bus and the PIRTE all started life as
//! `HashMap<SomeId, …>` lookups on every signal.  Those ids change rarely —
//! ports appear when a component registers, frame subscriptions when a vehicle
//! is wired, plug-in ports when a plug-in is (un)installed — while signals
//! flow every tick.  An [`Interner`] assigns each key a dense [`Slot`] once,
//! on the slow reconfiguration plane, so the fast signal plane can index flat
//! `Vec`s instead of hashing.
//!
//! [`SlotSet`] is the companion bitset over slots, used for membership tests
//! such as bus acceptance filters.
//!
//! # Example
//! ```
//! use dynar_foundation::intern::{Interner, SlotSet};
//!
//! let mut interner = Interner::new();
//! let a = interner.intern("brake");
//! let b = interner.intern("throttle");
//! assert_eq!(interner.intern("brake"), a, "interning is idempotent");
//! assert_ne!(a, b);
//!
//! let mut set = SlotSet::new();
//! set.insert(a);
//! assert!(set.contains(a));
//! assert!(!set.contains(b));
//! ```

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use serde::{Deserialize, Serialize};

/// A dense index handed out by an [`Interner`].
///
/// Slots are plain `u32`s under the hood; [`Slot::index`] converts to `usize`
/// for direct `Vec` indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Slot(u32);

impl Slot {
    /// Creates a slot from a raw dense index (used by tables that mirror an
    /// interner's layout).
    pub fn from_raw(raw: u32) -> Self {
        Slot(raw)
    }

    /// The raw dense index.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The dense index as a `usize`, for `Vec` indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Maps keys of an id space onto dense [`Slot`]s.
///
/// Interning the same key twice returns the same slot.  Removing a key frees
/// its slot for reuse by the next interned key, so the dense table width
/// ([`Interner::capacity`]) stays bounded by the high-water mark of live keys
/// — reconfiguration cycles (install → uninstall → reinstall) do not leak
/// slots.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Interner<K> {
    slots: HashMap<K, Slot>,
    /// Dense table: slot index → key (`None` for freed slots).
    keys: Vec<Option<K>>,
    free: Vec<Slot>,
}

impl<K> Default for Interner<K> {
    fn default() -> Self {
        Interner {
            slots: HashMap::new(),
            keys: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<K: Eq + Hash + Clone> Interner<K> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Returns the slot for `key`, assigning the lowest free slot on first
    /// sight.
    pub fn intern(&mut self, key: K) -> Slot {
        if let Some(&slot) = self.slots.get(&key) {
            return slot;
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = Slot(u32::try_from(self.keys.len()).expect("interner overflow"));
                self.keys.push(None);
                slot
            }
        };
        self.keys[slot.index()] = Some(key.clone());
        self.slots.insert(key, slot);
        slot
    }

    /// The slot previously assigned to `key`, if any.
    pub fn get(&self, key: &K) -> Option<Slot> {
        self.slots.get(key).copied()
    }

    /// The slot of `key`, checking `hint` first: a caller that can predict
    /// slots (keys interned in a known order) resolves with one comparison
    /// against the dense key table and no hashing; a wrong or out-of-range
    /// hint costs the normal lookup.
    pub fn get_hinted(&self, key: &K, hint: Slot) -> Option<Slot> {
        if self.key_of(hint) == Some(key) {
            Some(hint)
        } else {
            self.get(key)
        }
    }

    /// The key occupying `slot`, if the slot is live.
    pub fn key_of(&self, slot: Slot) -> Option<&K> {
        self.keys.get(slot.index()).and_then(Option::as_ref)
    }

    /// Frees the slot of `key`, returning it for reuse.
    pub fn remove(&mut self, key: &K) -> Option<Slot> {
        let slot = self.slots.remove(key)?;
        self.keys[slot.index()] = None;
        self.free.push(slot);
        Some(slot)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if no keys are interned.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Width of the dense table (live + freed slots): the size any `Vec`
    /// indexed by these slots must have.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Iterates over the live `(slot, key)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &K)> {
        self.keys
            .iter()
            .enumerate()
            .filter_map(|(index, key)| key.as_ref().map(|k| (Slot(index as u32), k)))
    }
}

/// A bitset over [`Slot`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotSet {
    words: Vec<u64>,
    len: usize,
}

impl SlotSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        SlotSet::default()
    }

    /// Inserts a slot, returning `true` if it was not already present.
    pub fn insert(&mut self, slot: Slot) -> bool {
        let (word, bit) = (slot.index() / 64, slot.index() % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        if self.words[word] & mask != 0 {
            return false;
        }
        self.words[word] |= mask;
        self.len += 1;
        true
    }

    /// Removes a slot, returning `true` if it was present.
    pub fn remove(&mut self, slot: Slot) -> bool {
        let (word, bit) = (slot.index() / 64, slot.index() % 64);
        let Some(bits) = self.words.get_mut(word) else {
            return false;
        };
        let mask = 1u64 << bit;
        if *bits & mask == 0 {
            return false;
        }
        *bits &= !mask;
        self.len -= 1;
        true
    }

    /// Returns `true` if the slot is in the set.
    pub fn contains(&self, slot: Slot) -> bool {
        let (word, bit) = (slot.index() / 64, slot.index() % 64);
        self.words
            .get(word)
            .is_some_and(|bits| bits & (1u64 << bit) != 0)
    }

    /// Number of slots in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every slot.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Iterates over the slots in the set in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Slot> + '_ {
        self.words.iter().enumerate().flat_map(|(word, &bits)| {
            (0..64)
                .filter(move |bit| bits & (1u64 << bit) != 0)
                .map(move |bit| Slot((word * 64 + bit) as u32))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hinted_lookup_checks_the_hint_then_falls_back() {
        let mut interner = Interner::new();
        let a = interner.intern("a");
        let b = interner.intern("b");
        assert_eq!(interner.get_hinted(&"b", b), Some(b), "right hint");
        assert_eq!(
            interner.get_hinted(&"b", a),
            Some(b),
            "wrong hint falls back"
        );
        assert_eq!(
            interner.get_hinted(&"b", Slot::from_raw(99)),
            Some(b),
            "out-of-range hint falls back"
        );
        assert_eq!(interner.get_hinted(&"z", a), None);
        interner.remove(&"a");
        assert_eq!(
            interner.get_hinted(&"a", a),
            None,
            "freed slots never match"
        );
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut interner = Interner::new();
        let a = interner.intern("a");
        let b = interner.intern("b");
        assert_eq!(a.raw(), 0);
        assert_eq!(b.raw(), 1);
        assert_eq!(interner.intern("a"), a);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.capacity(), 2);
        assert_eq!(interner.get(&"a"), Some(a));
        assert_eq!(interner.key_of(b), Some(&"b"));
        assert_eq!(interner.get(&"zzz"), None);
    }

    #[test]
    fn removed_slots_are_reused_not_leaked() {
        let mut interner = Interner::new();
        let a = interner.intern("a");
        let _b = interner.intern("b");
        assert_eq!(interner.remove(&"a"), Some(a));
        assert_eq!(interner.get(&"a"), None);
        assert_eq!(interner.key_of(a), None);
        assert_eq!(interner.len(), 1);

        // The freed slot is handed to the next key; the table does not grow.
        let c = interner.intern("c");
        assert_eq!(c, a);
        assert_eq!(interner.capacity(), 2);
        assert_eq!(interner.remove(&"a"), None, "already removed");
    }

    #[test]
    fn install_uninstall_reinstall_cycle_keeps_capacity_bounded() {
        let mut interner = Interner::new();
        for _round in 0..100 {
            let slots: Vec<Slot> = (0..8).map(|i| interner.intern(i)).collect();
            assert!(slots.iter().all(|s| s.index() < 8));
            for i in 0..8 {
                interner.remove(&i);
            }
            assert!(interner.is_empty());
        }
        assert_eq!(interner.capacity(), 8, "no stale slots accumulate");
    }

    #[test]
    fn iter_yields_live_pairs_in_slot_order() {
        let mut interner = Interner::new();
        interner.intern("x");
        interner.intern("y");
        interner.intern("z");
        interner.remove(&"y");
        let pairs: Vec<(u32, &&str)> = interner.iter().map(|(s, k)| (s.raw(), k)).collect();
        assert_eq!(pairs, vec![(0, &"x"), (2, &"z")]);
    }

    #[test]
    fn slot_set_membership() {
        let mut set = SlotSet::new();
        assert!(set.insert(Slot::from_raw(3)));
        assert!(set.insert(Slot::from_raw(100)));
        assert!(!set.insert(Slot::from_raw(3)), "already present");
        assert!(set.contains(Slot::from_raw(3)));
        assert!(!set.contains(Slot::from_raw(4)));
        assert!(!set.contains(Slot::from_raw(100_000)), "beyond the words");
        assert_eq!(set.len(), 2);

        assert!(set.remove(Slot::from_raw(3)));
        assert!(!set.remove(Slot::from_raw(3)));
        assert!(!set.remove(Slot::from_raw(100_000)));
        assert_eq!(set.len(), 1);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![Slot::from_raw(100)]);

        set.clear();
        assert!(set.is_empty());
    }

    #[test]
    fn slot_display_and_accessors() {
        let slot = Slot::from_raw(7);
        assert_eq!(slot.raw(), 7);
        assert_eq!(slot.index(), 7);
        assert_eq!(slot.to_string(), "#7");
    }
}
