//! Dense `(vm, idx)` tables for the per-event consumer state.
//!
//! Every id a collector's per-vCPU and per-task state is keyed by is small
//! and dense: `vm` is a per-machine VM slot index, `vcpu` a per-VM vCPU
//! index and `task` an index into the guest's task table, and no emitter
//! stamps a sentinel id. So the checker, schedstat and wake-latency state
//! live in a `[vm][idx]` table rather than a hashed map: a lookup is two
//! bounds-checked indexings, and iteration runs in ascending `(vm, idx)`
//! order, which the schedstat and wake-latency renders list vCPUs in.

/// A map from `(vm, idx)` to `T`, stored as `[vm][idx]` slots that grow on
/// insertion. [`VcpuTable::len`] counts occupied slots exactly.
#[derive(Debug)]
pub(crate) struct VcpuTable<T> {
    rows: Vec<Vec<Option<T>>>,
    len: usize,
}

impl<T> Default for VcpuTable<T> {
    fn default() -> Self {
        Self {
            rows: Vec::new(),
            len: 0,
        }
    }
}

impl<T> VcpuTable<T> {
    pub(crate) fn get(&self, vm: u16, idx: usize) -> Option<&T> {
        self.rows.get(usize::from(vm))?.get(idx)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, vm: u16, idx: usize) -> Option<&mut T> {
        self.rows.get_mut(usize::from(vm))?.get_mut(idx)?.as_mut()
    }

    /// The slot for `(vm, idx)`, growing the table to reach it.
    fn slot(rows: &mut Vec<Vec<Option<T>>>, vm: u16, idx: usize) -> &mut Option<T> {
        let vm = usize::from(vm);
        if vm >= rows.len() {
            rows.resize_with(vm + 1, Vec::new);
        }
        let row = &mut rows[vm];
        if idx >= row.len() {
            row.resize_with(idx + 1, || None);
        }
        &mut row[idx]
    }

    /// Stores `value` at `(vm, idx)`, returning what it replaced.
    pub(crate) fn insert(&mut self, vm: u16, idx: usize, value: T) -> Option<T> {
        let old = Self::slot(&mut self.rows, vm, idx).replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Empties `(vm, idx)`, returning what it held.
    pub(crate) fn remove(&mut self, vm: u16, idx: usize) -> Option<T> {
        let old = self.rows.get_mut(usize::from(vm))?.get_mut(idx)?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The value at `(vm, idx)`, inserting `T::default()` if it is empty.
    pub(crate) fn get_or_default(&mut self, vm: u16, idx: usize) -> &mut T
    where
        T: Default,
    {
        let slot = Self::slot(&mut self.rows, vm, idx);
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(T::default)
    }

    /// Occupied slots.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Occupied slots in ascending `(vm, idx)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u16, usize, &T)> {
        self.rows.iter().enumerate().flat_map(|(vm, row)| {
            row.iter()
                .enumerate()
                .filter_map(move |(idx, v)| Some((vm as u16, idx, v.as_ref()?)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_counts_occupied_slots_exactly() {
        let mut t = VcpuTable::default();
        assert!(t.is_empty());
        assert_eq!(t.insert(1, 4, 'a'), None);
        assert_eq!(
            t.insert(1, 4, 'b'),
            Some('a'),
            "overwrite returns the old value"
        );
        assert_eq!(t.len(), 1, "overwriting an occupied slot adds nothing");
        assert_eq!(t.remove(0, 0), None, "row never grown");
        assert_eq!(t.remove(1, 9), None, "past the row's end");
        assert_eq!(t.remove(1, 2), None, "grown but empty");
        assert_eq!(t.len(), 1, "removing a missing key removes nothing");
        *t.get_or_default(3, 0) = 'c';
        *t.get_or_default(3, 0) = 'd';
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(1, 4), Some('b'));
        assert_eq!(t.remove(1, 4), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(3, 0), Some(&'d'));
        assert_eq!(t.get(1, 4), None);
    }

    #[test]
    fn iterates_in_ascending_vm_then_idx_order() {
        let mut t = VcpuTable::default();
        for (vm, idx) in [(2, 1), (0, 3), (0, 0), (1, 0)] {
            t.insert(vm, idx, ());
        }
        t.insert(5, 7, ());
        t.remove(5, 7);
        let keys: Vec<(u16, usize)> = t.iter().map(|(vm, idx, _)| (vm, idx)).collect();
        assert_eq!(keys, vec![(0, 0), (0, 3), (1, 0), (2, 1)]);
    }
}
