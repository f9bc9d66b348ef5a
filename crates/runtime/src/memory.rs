//! The shared cell arena.
//!
//! All COMMON storage lives at the front of one arena; each execution
//! thread owns a disjoint stack segment for activation records. Cells
//! are individually `UnsafeCell`-wrapped: the *compiler's* dependence
//! analysis (or the hand annotations) guarantees parallel iterations
//! touch disjoint shared cells, and the dynamic race checker validates
//! exactly that guarantee in tests.

use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::cell::UnsafeCell;

/// One storage word. Fortran storage association is by word; MiniFort
/// keeps the runtime type in the cell and treats uninitialized reads as
/// numeric zero (static zero-initialized storage, common F77 practice).
///
/// The layout is declared (`repr(u64)`: a `u64` tag, then the payload)
/// and `Uninit` is tag 0, so all-zero bytes are a valid `Cell::Uninit`.
/// [`Arena::new`] relies on that to take its storage zeroed from the
/// allocator instead of writing every cell.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(u64)]
pub enum Cell {
    Uninit = 0,
    Int(i64),
    Real(f64),
}

impl Cell {
    #[inline]
    pub fn as_real(self) -> f64 {
        match self {
            Cell::Real(v) => v,
            Cell::Int(v) => v as f64,
            Cell::Uninit => 0.0,
        }
    }

    #[inline]
    pub fn as_int(self) -> i64 {
        match self {
            Cell::Int(v) => v,
            Cell::Real(v) => v as i64,
            Cell::Uninit => 0,
        }
    }
}

/// The arena: commons at the front, then one stack segment per thread.
pub struct Arena {
    cells: Box<[UnsafeCell<Cell>]>,
    commons_len: usize,
    seg_len: usize,
    segments: usize,
}

// SAFETY: concurrent access discipline is enforced by the parallelizer
// (validated by the race checker); each cell is independently mutable.
unsafe impl Sync for Arena {}

impl Arena {
    /// `commons_len` words of global storage plus `segments` stacks of
    /// `seg_len` words each, all `Cell::Uninit`.
    ///
    /// The storage comes zeroed from the allocator, which for anything
    /// this large means fresh pages the OS maps on first touch: an
    /// arena costs what the program touches, not what it reserves, so
    /// `seg_len` is a bound on stack depth and not a price.
    pub fn new(commons_len: usize, segments: usize, seg_len: usize) -> Arena {
        let total = segments
            .checked_mul(seg_len)
            .and_then(|stacks| stacks.checked_add(commons_len))
            .expect("arena size overflows usize");
        let layout = Layout::array::<UnsafeCell<Cell>>(total)
            .expect("arena size overflows the address space");
        let cells: Box<[UnsafeCell<Cell>]> = if total == 0 {
            Box::new([])
        } else {
            // SAFETY: `layout` is the non-zero-sized layout of
            // `[UnsafeCell<Cell>; total]`, so a non-null `alloc_zeroed`
            // result is valid for `total` elements and is exactly what
            // the `Box` will later free with the global allocator.
            // `UnsafeCell<Cell>` has `Cell`'s layout, and all-zero bytes
            // are `Cell::Uninit` (tag 0 under `repr(u64)`; the payload
            // bytes of a unit variant carry no validity requirement), so
            // every element is initialized.
            unsafe {
                let p = alloc_zeroed(layout).cast::<UnsafeCell<Cell>>();
                if p.is_null() {
                    handle_alloc_error(layout);
                }
                Box::from_raw(std::ptr::slice_from_raw_parts_mut(p, total))
            }
        };
        Arena {
            cells,
            commons_len,
            seg_len,
            segments,
        }
    }

    /// The cell at `addr`; panics past the end.
    #[inline]
    pub fn read(&self, addr: usize) -> Cell {
        self.get(addr).expect("arena address in range")
    }

    /// Stores `v` at `addr`; panics past the end.
    #[inline]
    pub fn write(&self, addr: usize, v: Cell) {
        assert!(self.set(addr, v), "arena address in range");
    }

    /// The cell at `addr`, or `None` past the end: one bounds check.
    #[inline]
    pub fn get(&self, addr: usize) -> Option<Cell> {
        // SAFETY: `c` is an element of `cells`, so the pointer is valid
        // and aligned. No thread writes a cell while another reads or
        // writes it: the discipline `unsafe impl Sync for Arena` states.
        self.cells.get(addr).map(|c| unsafe { *c.get() })
    }

    /// Stores `v` at `addr`; `false` (and nothing stored) past the end.
    #[inline]
    #[must_use]
    pub fn set(&self, addr: usize, v: Cell) -> bool {
        match self.cells.get(addr) {
            Some(c) => {
                // SAFETY: as in `get`; this thread is the cell's only
                // accessor while it writes.
                unsafe { *c.get() = v };
                true
            }
            None => false,
        }
    }

    /// Words of COMMON/global storage at the front of the arena.
    pub fn commons_len(&self) -> usize {
        self.commons_len
    }

    /// Copies `[lo, hi)` out of the arena — the checkpoint a
    /// speculative parallel region restores on rollback. Must not run
    /// concurrently with writers to the range.
    pub fn snapshot_range(&self, lo: usize, hi: usize) -> Vec<Cell> {
        (lo..hi).map(|a| self.read(a)).collect()
    }

    /// Writes a snapshot back starting at `lo`.
    pub fn restore_range(&self, lo: usize, cells: &[Cell]) {
        for (i, &c) in cells.iter().enumerate() {
            self.write(lo + i, c);
        }
    }

    /// Base address of thread segment `tid`.
    pub fn segment_base(&self, tid: usize) -> usize {
        assert!(tid < self.segments, "thread segment out of range");
        self.commons_len + tid * self.seg_len
    }

    pub fn total_len(&self) -> usize {
        self.cells.len()
    }
}

/// Bump allocator over one thread's stack segment.
#[derive(Clone, Copy, Debug)]
pub struct BumpStack {
    pub base: usize,
    pub top: usize,
    pub limit: usize,
}

impl BumpStack {
    pub fn new(base: usize, len: usize) -> BumpStack {
        BumpStack {
            base,
            top: base,
            limit: base + len,
        }
    }

    /// Allocates `n` words; returns the base address.
    pub fn alloc(&mut self, n: usize) -> Result<usize, super::interp::RtError> {
        let at = self.top;
        if at + n > self.limit {
            return Err(super::interp::RtError::StackOverflow);
        }
        self.top += n;
        Ok(at)
    }

    /// Restores the stack to a saved mark.
    pub fn release_to(&mut self, mark: usize) {
        debug_assert!(mark >= self.base && mark <= self.top);
        self.top = mark;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_coercions() {
        assert_eq!(Cell::Uninit.as_real(), 0.0);
        assert_eq!(Cell::Uninit.as_int(), 0);
        assert_eq!(Cell::Int(3).as_real(), 3.0);
        assert_eq!(Cell::Real(2.7).as_int(), 2);
    }

    #[test]
    fn arena_layout() {
        let a = Arena::new(100, 3, 50);
        assert_eq!(a.total_len(), 250);
        assert_eq!(a.segment_base(0), 100);
        assert_eq!(a.segment_base(2), 200);
        a.write(10, Cell::Real(1.5));
        assert_eq!(a.read(10), Cell::Real(1.5));
        assert_eq!(a.read(11), Cell::Uninit);
    }

    #[test]
    fn zeroed_storage_reads_as_uninit() {
        // The default run's arena (five 2^22-word segments, 320 MiB of
        // address space): far past any allocator's small-block path, so
        // the cells are whatever `alloc_zeroed` and the OS hand out.
        let n = 5 << 22;
        let a = Arena::new(0, 5, 1 << 22);
        assert_eq!(a.total_len(), n);
        for addr in [0, n / 2, n - 1] {
            assert_eq!(a.read(addr), Cell::Uninit, "cell {}", addr);
        }
        a.write(n - 1, Cell::Int(7));
        assert_eq!(a.read(n - 1), Cell::Int(7));
        assert_eq!(Arena::new(0, 4, 0).total_len(), 0);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let a = Arena::new(8, 1, 8);
        for i in 0..8 {
            a.write(i, Cell::Int(i as i64));
        }
        let snap = a.snapshot_range(0, 8);
        for i in 0..8 {
            a.write(i, Cell::Real(-1.0));
        }
        a.restore_range(0, &snap);
        for i in 0..8 {
            assert_eq!(a.read(i), Cell::Int(i as i64));
        }
        assert_eq!(a.commons_len(), 8);
    }

    #[test]
    fn partial_snapshot_leaves_rest_untouched() {
        let a = Arena::new(10, 1, 4);
        for i in 0..10 {
            a.write(i, Cell::Int(100 + i as i64));
        }
        let snap = a.snapshot_range(3, 6);
        assert_eq!(snap.len(), 3);
        a.write(2, Cell::Int(-2));
        a.write(4, Cell::Int(-4));
        a.write(7, Cell::Int(-7));
        a.restore_range(3, &snap);
        assert_eq!(a.read(2), Cell::Int(-2), "outside range stays modified");
        assert_eq!(a.read(4), Cell::Int(104), "inside range restored");
        assert_eq!(a.read(7), Cell::Int(-7), "outside range stays modified");
    }

    #[test]
    fn bump_stack_discipline() {
        let mut s = BumpStack::new(100, 20);
        let a = s.alloc(8).unwrap();
        let mark = s.top;
        let b = s.alloc(8).unwrap();
        assert_eq!(a, 100);
        assert_eq!(b, 108);
        assert!(s.alloc(8).is_err());
        s.release_to(mark);
        assert_eq!(s.alloc(8).unwrap(), 108);
    }
}
