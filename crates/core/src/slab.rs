//! A slab: values filed under small, reused indices.
//!
//! The rank-local continuation tables (event waiters, RPC reply
//! continuations) file a value when an operation starts and take it back
//! by index when its completion arrives. A slab does both in O(1) with no
//! hashing, and reuses freed indices, so a table's storage stays at its
//! high-water mark instead of growing with every operation.

/// One slab entry: a filed value, or a link in the free list.
enum Entry<T> {
    Full(T),
    /// The next free index (`entries.len()` ends the list).
    Free(usize),
}

/// Values filed under indices that are reused once taken.
pub(crate) struct Slab<T> {
    entries: Vec<Entry<T>>,
    /// Head of the free list (`entries.len()` when none is free).
    free: usize,
    len: usize,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free: 0,
            len: 0,
        }
    }

    /// File `v` and return its index.
    pub(crate) fn insert(&mut self, v: T) -> usize {
        let i = self.free;
        if i == self.entries.len() {
            self.entries.push(Entry::Full(v));
            self.free = i + 1;
        } else {
            let Entry::Free(next) = std::mem::replace(&mut self.entries[i], Entry::Full(v)) else {
                unreachable!("the free list points at a full entry");
            };
            self.free = next;
        }
        self.len += 1;
        i
    }

    /// Take the value filed under `i`, freeing the index (`None` if
    /// nothing is filed there).
    pub(crate) fn remove(&mut self, i: usize) -> Option<T> {
        let e = self.entries.get_mut(i)?;
        match std::mem::replace(e, Entry::Free(self.free)) {
            Entry::Full(v) => {
                self.free = i;
                self.len -= 1;
                Some(v)
            }
            free => {
                *e = free;
                None
            }
        }
    }

    /// The value filed under `i`, if any.
    pub(crate) fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        match self.entries.get_mut(i) {
            Some(Entry::Full(v)) => Some(v),
            _ => None,
        }
    }

    /// Number of filed values.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_reused_after_removal() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!((a, b, s.len()), (0, 1, 2));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.remove(a), None, "an index is taken once");
        assert_eq!(s.insert("c"), a, "a freed index is reused first");
        assert_eq!(s.insert("d"), 2);
        *s.get_mut(b).unwrap() = "B";
        assert_eq!(s.remove(b), Some("B"));
        assert_eq!(s.get_mut(b), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(7), None, "out of range is empty");
    }

    #[test]
    fn storage_stays_at_the_high_water_mark() {
        let mut s = Slab::new();
        for round in 0..100 {
            let ids: Vec<_> = (0..8).map(|i| s.insert(round * 8 + i)).collect();
            for (i, id) in ids.into_iter().enumerate().rev() {
                assert_eq!(s.remove(id), Some(round * 8 + i));
            }
            assert!(s.is_empty());
        }
        assert_eq!(s.entries.len(), 8);
    }
}
