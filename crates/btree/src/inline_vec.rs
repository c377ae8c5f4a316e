//! A stack of `Copy` items that lives in place until it outgrows `N`.
//!
//! A write statement latches one page and descends a path of one or two
//! levels; a `Vec` for either is one allocation per statement. Only a
//! structure modification wider or deeper than `N` spills to the heap.

/// Push/pop stack holding up to `N` items in place, more on the heap.
pub(crate) struct InlineVec<T, const N: usize> {
    /// Items in `inline`; zero once spilled (then `heap` holds them all).
    len: usize,
    inline: [T; N],
    heap: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    pub(crate) fn new() -> Self {
        InlineVec {
            len: 0,
            inline: [T::default(); N],
            heap: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, item: T) {
        if self.heap.is_empty() && self.len < N {
            self.inline[self.len] = item;
            self.len += 1;
            return;
        }
        if self.heap.is_empty() {
            self.heap.extend_from_slice(&self.inline);
            self.len = 0;
        }
        self.heap.push(item);
    }

    pub(crate) fn pop(&mut self) -> Option<T> {
        if let Some(item) = self.heap.pop() {
            return Some(item);
        }
        self.len = self.len.checked_sub(1)?;
        Some(self.inline[self.len])
    }

    pub(crate) fn as_slice(&self) -> &[T] {
        if self.heap.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::InlineVec;

    #[test]
    fn behaves_like_a_vec_across_the_spill() {
        let mut v: InlineVec<u64, 4> = InlineVec::new();
        let mut model = Vec::new();
        assert_eq!(v.pop(), None);
        // Grow past the inline capacity, shrink back to empty, grow again.
        for round in 0..3u64 {
            for i in 0..9 {
                v.push(round * 100 + i);
                model.push(round * 100 + i);
                assert_eq!(v.as_slice(), &model[..]);
            }
            for _ in 0..(9 - round) {
                assert_eq!(v.pop(), model.pop());
                assert_eq!(v.as_slice(), &model[..]);
            }
        }
        while let Some(want) = model.pop() {
            assert_eq!(v.pop(), Some(want));
        }
        assert_eq!(v.pop(), None);
        assert!(v.as_slice().is_empty());
    }
}
