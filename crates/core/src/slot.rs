//! Dense-index slot tables — the allocation-free replacements for the
//! `HashMap`/`BTreeSet` state that used to sit on the per-event hot path.
//!
//! Every identifier in the simulator (`ThreadId`, `MutexId`, `ReplicaId`,
//! request numbers) is a small integer handed out contiguously from 0, so
//! associative containers are pure overhead: a `Vec` indexed by the id is
//! both faster (no hashing, no tree walks) and deterministic by
//! construction (iteration is id order, which is admission/age order for
//! threads). The tables grow on first touch and never shrink; a vacated
//! slot is `None` until the id is reused. See DESIGN.md ("Dense-ID
//! invariant").

/// A map keyed by a dense integer id, backed by `Vec<Option<T>>`.
#[derive(Clone, Debug)]
pub struct SlotMap<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for SlotMap<T> {
    fn default() -> Self {
        SlotMap {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<T> SlotMap<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn get(&self, i: usize) -> Option<&T> {
        self.slots.get(i).and_then(|s| s.as_ref())
    }

    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.slots.get_mut(i).and_then(|s| s.as_mut())
    }

    pub fn contains(&self, i: usize) -> bool {
        self.get(i).is_some()
    }

    /// Inserts `v` at slot `i`, growing the table as needed. Returns the
    /// previous occupant, if any.
    pub fn insert(&mut self, i: usize, v: T) -> Option<T> {
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let prev = self.slots[i].replace(v);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    pub fn remove(&mut self, i: usize) -> Option<T> {
        let prev = self.slots.get_mut(i).and_then(|s| s.take());
        if prev.is_some() {
            self.len -= 1;
        }
        prev
    }

    /// Returns the slot's value, inserting `f()` first if vacant.
    pub fn get_or_insert_with(&mut self, i: usize, f: impl FnOnce() -> T) -> &mut T {
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let slot = &mut self.slots[i];
        if slot.is_none() {
            *slot = Some(f());
            self.len += 1;
        }
        slot.as_mut().expect("just filled")
    }

    /// Occupied slots in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i, v)))
    }

    /// Mutable variant of [`SlotMap::iter`].
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|v| (i, v)))
    }

    /// Ascending ids of occupied slots.
    pub fn keys(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
    }
}

impl<T> std::ops::Index<usize> for SlotMap<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        self.get(i).expect("empty slot")
    }
}

/// A set of dense integer ids, backed by `Vec<bool>` plus a counter so
/// `len`/`is_empty` stay O(1).
#[derive(Clone, Debug, Default)]
pub struct DenseSet {
    bits: Vec<bool>,
    len: usize,
}

impl DenseSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn contains(&self, i: usize) -> bool {
        self.bits.get(i).copied().unwrap_or(false)
    }

    /// Returns true if `i` was newly inserted.
    pub fn insert(&mut self, i: usize) -> bool {
        if i >= self.bits.len() {
            self.bits.resize(i + 1, false);
        }
        let fresh = !self.bits[i];
        if fresh {
            self.bits[i] = true;
            self.len += 1;
        }
        fresh
    }

    /// Returns true if `i` was present.
    pub fn remove(&mut self, i: usize) -> bool {
        let present = self.contains(i);
        if present {
            self.bits[i] = false;
            self.len -= 1;
        }
        present
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slotmap_insert_get_remove() {
        let mut m: SlotMap<&str> = SlotMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(3, "c"), None);
        assert_eq!(m.insert(0, "a"), None);
        assert_eq!(m.insert(3, "c2"), Some("c"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(3), Some(&"c2"));
        assert!(m.contains(0));
        assert!(!m.contains(1));
        assert!(!m.contains(99));
        assert_eq!(m.remove(3), Some("c2"));
        assert_eq!(m.remove(3), None);
        assert_eq!(m.remove(42), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn slotmap_iterates_in_id_order() {
        let mut m = SlotMap::new();
        m.insert(5, 50);
        m.insert(1, 10);
        m.insert(3, 30);
        let pairs: Vec<_> = m.iter().map(|(i, &v)| (i, v)).collect();
        assert_eq!(pairs, vec![(1, 10), (3, 30), (5, 50)]);
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![1, 3, 5]);
        for (_, v) in m.iter_mut() {
            *v += 1;
        }
        assert_eq!(m[1], 11);
    }

    #[test]
    fn slotmap_get_or_insert_with() {
        let mut m: SlotMap<Vec<u32>> = SlotMap::new();
        m.get_or_insert_with(2, Vec::new).push(7);
        m.get_or_insert_with(2, || panic!("occupied slot must not refill"))
            .push(8);
        assert_eq!(m[2], vec![7, 8]);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn dense_set_basics() {
        let mut s = DenseSet::new();
        assert!(s.is_empty());
        assert!(s.insert(4));
        assert!(!s.insert(4));
        assert!(s.insert(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 4]);
        assert!(s.remove(4));
        assert!(!s.remove(4));
        assert!(!s.remove(9));
        assert_eq!(s.len(), 1);
        assert!(!s.contains(4));
        assert!(s.contains(1));
    }
}
