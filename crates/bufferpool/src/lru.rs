//! An intrusive doubly-linked LRU list over slot indices.
//!
//! Shared by every pool implementation that keeps its recency list in
//! host memory (the CXL pool keeps *its* list inside CXL memory blocks —
//! see `polarcxlmem` — but uses the same algorithmics).

/// Sentinel meaning "no slot".
pub const NIL: u32 = u32::MAX;

/// A fixed-capacity LRU list of slots `0..capacity`.
///
/// Slots must be linked at most once; the caller tracks which slots are
/// currently in the list.
#[derive(Debug, Clone)]
pub struct LruList {
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
}

impl LruList {
    /// A list able to hold slots `0..capacity`, initially empty.
    pub fn new(capacity: usize) -> Self {
        LruList {
            prev: vec![NIL; capacity],
            next: vec![NIL; capacity],
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of linked slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slots are linked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Most recently used slot, if any.
    pub fn front(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    /// Least recently used slot, if any.
    pub fn back(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// Link `slot` as most recently used.
    ///
    /// # Panics
    /// In debug builds, when the slot is already linked.
    pub fn push_front(&mut self, slot: u32) {
        debug_assert!(
            self.prev[slot as usize] == NIL && self.next[slot as usize] == NIL && self.head != slot,
            "slot {slot} already linked"
        );
        self.next[slot as usize] = self.head;
        self.prev[slot as usize] = NIL;
        if self.head != NIL {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
        self.len += 1;
    }

    /// Unlink `slot` from wherever it is.
    pub fn remove(&mut self, slot: u32) {
        let p = self.prev[slot as usize];
        let n = self.next[slot as usize];
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            debug_assert_eq!(self.head, slot, "removing unlinked slot {slot}");
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            debug_assert_eq!(self.tail, slot, "removing unlinked slot {slot}");
            self.tail = p;
        }
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = NIL;
        self.len -= 1;
    }

    /// Move `slot` to the front (touch on access).
    #[inline]
    pub fn touch(&mut self, slot: u32) {
        if self.head == slot {
            return;
        }
        self.remove(slot);
        self.push_front(slot);
    }

    /// Unlink and return the least recently used slot.
    pub fn pop_back(&mut self) -> Option<u32> {
        let t = self.back()?;
        self.remove(t);
        Some(t)
    }

    /// Iterate slots from most to least recently used (O(len)).
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                None
            } else {
                let s = cur;
                cur = self.next[cur as usize];
                Some(s)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::rng::SimRng;

    #[test]
    fn push_touch_pop_order() {
        let mut l = LruList::new(4);
        l.push_front(0);
        l.push_front(1);
        l.push_front(2);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![2, 1, 0]);
        l.touch(0);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![0, 2, 1]);
        assert_eq!(l.pop_back(), Some(1));
        assert_eq!(l.pop_back(), Some(2));
        assert_eq!(l.pop_back(), Some(0));
        assert_eq!(l.pop_back(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn remove_middle() {
        let mut l = LruList::new(4);
        for s in 0..4 {
            l.push_front(s);
        }
        l.remove(2);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![3, 1, 0]);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn single_element() {
        let mut l = LruList::new(1);
        l.push_front(0);
        assert_eq!(l.front(), Some(0));
        assert_eq!(l.back(), Some(0));
        l.touch(0);
        assert_eq!(l.pop_back(), Some(0));
        assert_eq!(l.front(), None);
    }

    /// The list behaves like a reference Vec-based model under seeded
    /// random interleavings of operations.
    #[test]
    fn matches_reference_model() {
        const CAP: usize = 8;
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from_u64(0x14B0_0000 + case);
            let n_ops = rng.gen_range(1usize..200);
            let mut l = LruList::new(CAP);
            let mut model: Vec<u32> = Vec::new(); // front = MRU
            let mut in_list = [false; CAP];
            for _ in 0..n_ops {
                let op = rng.gen_range(0u8..4);
                let rng_slot = rng.gen_range(0usize..CAP);
                let slot = rng_slot as u32;
                match op {
                    0 => {
                        // push if absent
                        if !in_list[rng_slot] {
                            l.push_front(slot);
                            model.insert(0, slot);
                            in_list[rng_slot] = true;
                        }
                    }
                    1 => {
                        // touch if present
                        if in_list[rng_slot] {
                            l.touch(slot);
                            model.retain(|&s| s != slot);
                            model.insert(0, slot);
                        }
                    }
                    2 => {
                        // remove if present
                        if in_list[rng_slot] {
                            l.remove(slot);
                            model.retain(|&s| s != slot);
                            in_list[rng_slot] = false;
                        }
                    }
                    _ => {
                        // pop_back
                        let got = l.pop_back();
                        let want = model.pop();
                        assert_eq!(got, want, "case {case}");
                        if let Some(s) = got {
                            in_list[s as usize] = false;
                        }
                    }
                }
                assert_eq!(l.len(), model.len(), "case {case}");
                assert_eq!(l.iter().collect::<Vec<_>>(), model, "case {case}");
            }
        }
    }
}
