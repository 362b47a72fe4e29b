//! A VM's dirty-page set: one bit per guest page id.
//!
//! Ids are the VM's resident page ids — the boot image `0..64` and the heap
//! from `0x100` up to the next unmapped page — so the bitmap is a few words
//! and every operation is array work.

/// Guest pages written since tracking was last drained.
#[derive(Debug, Default)]
pub(crate) struct DirtyPages {
    words: Vec<u64>,
    /// The `BTreeSet` the bitmap replaced, kept in unit-test builds as the
    /// reference every answer is checked against.
    #[cfg(test)]
    model: std::collections::BTreeSet<u64>,
}

impl DirtyPages {
    pub(crate) fn insert(&mut self, id: u64) {
        let word = (id / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (id % 64);
        #[cfg(test)]
        self.model.insert(id);
    }

    pub(crate) fn len(&self) -> usize {
        let len = self.words.iter().map(|w| w.count_ones() as usize).sum();
        #[cfg(test)]
        assert_eq!(len, self.model.len(), "dirty bitmap and set model disagree on len");
        len
    }

    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
        #[cfg(test)]
        self.model.clear();
    }

    /// Every id, ascending, leaving the set empty.
    pub(crate) fn take(&mut self) -> Vec<u64> {
        let mut ids = Vec::with_capacity(self.len());
        for (at, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                ids.push(at as u64 * 64 + u64::from(bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        #[cfg(test)]
        assert_eq!(ids, std::mem::take(&mut self.model).into_iter().collect::<Vec<_>>());
        ids
    }
}
