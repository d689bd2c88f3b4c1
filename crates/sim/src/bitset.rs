//! A dense fixed-length bitset.
//!
//! The round engine keeps its per-node halted, sleeping and committed
//! state columnar: one bit per node, packed 64 to a word. That makes
//! "skip a fully halted block of 64 nodes" a single word compare in the
//! sequential activation loop — the dominant win in the long
//! low-activity tail of algorithms whose nodes finish at very different
//! times (exactly the runs Definition 1's averages care about).

/// A fixed-length bitset over indices `0..len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
    len: usize,
}

impl Bitset {
    /// Creates a bitset of `len` zero bits.
    pub fn new(len: usize) -> Self {
        Bitset {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit {i} out of range for Bitset of {}",
            self.len
        );
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i` to 1.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit {i} out of range for Bitset of {}",
            self.len
        );
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Resets bit `i` to 0.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit {i} out of range for Bitset of {}",
            self.len
        );
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// The `w`-th 64-bit word (bit `i` lives in word `i / 64`).
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Number of words.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Zeroes every bit and resizes to `len`, reusing the word buffer —
    /// the reset path of the engine's reusable arenas (`Workspace`).
    pub fn clear_and_resize(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Calls `f` for every **zero** bit in `lo..hi`, in ascending order.
    ///
    /// This is the engine's live-frontier sweep: with one bit per node in
    /// the halted bitset, a fully-halted block of 64 nodes costs a single
    /// word compare, so a chunk pass over a mostly-dead region is O(words)
    /// rather than O(nodes). Boundary words are masked, so chunk limits
    /// need not be word-aligned.
    ///
    /// # Panics
    ///
    /// Panics if `hi > len` (debug builds).
    #[inline]
    pub fn for_each_zero_in(&self, lo: usize, hi: usize, f: impl FnMut(usize)) {
        self.sweep_zeros(lo, hi, |w| self.words[w], f);
    }

    /// Calls `f` for every index in `lo..hi` whose bit is zero in both
    /// `self` and `other`, in ascending order: the sweep of
    /// [`Bitset::for_each_zero_in`] over the union of two bitsets, at the
    /// cost of one extra load and OR per word. The engine sweeps its
    /// halted and sleeping bitsets this way.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or `hi > len` (debug builds).
    #[inline]
    pub fn for_each_zero_in_union(
        &self,
        other: &Bitset,
        lo: usize,
        hi: usize,
        f: impl FnMut(usize),
    ) {
        debug_assert_eq!(self.len, other.len, "bitset lengths differ");
        self.sweep_zeros(lo, hi, |w| self.words[w] | other.words[w], f);
    }

    /// The zero-bit sweep over the words `word(w)` yields.
    #[inline(always)]
    fn sweep_zeros(
        &self,
        lo: usize,
        hi: usize,
        word: impl Fn(usize) -> u64,
        mut f: impl FnMut(usize),
    ) {
        debug_assert!(hi <= self.len, "range {lo}..{hi} out of {}", self.len);
        if lo >= hi {
            return;
        }
        let (first, last) = (lo / 64, (hi - 1) / 64);
        for w in first..=last {
            // Invert: zeros (live nodes) become ones we can count through.
            let mut bits = !word(w);
            if w == first {
                bits &= u64::MAX << (lo % 64);
            }
            if w == last {
                let tail = hi - w * 64;
                if tail < 64 {
                    bits &= (1u64 << tail) - 1;
                }
            }
            if bits == 0 {
                continue; // 64 halted nodes skipped in one compare
            }
            let base = w * 64;
            while bits != 0 {
                f(base + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut b = Bitset::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        assert!(!b.get(0));
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(65) && !b.get(128));
        assert_eq!(b.count_ones(), 4);
        assert_eq!(b.word_count(), 3);
        assert_eq!(b.word(0), 1 | 1 << 63);
        assert_eq!(b.word(1), 1);
    }

    #[test]
    fn empty_bitset() {
        let b = Bitset::new(0);
        assert!(b.is_empty());
        assert_eq!(b.word_count(), 0);
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let b = Bitset::new(10);
        let _ = b.get(10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        let mut b = Bitset::new(64);
        b.set(64);
    }

    #[test]
    fn zero_sweep_respects_range_and_order() {
        let mut b = Bitset::new(200);
        for i in [0, 5, 63, 64, 128, 199] {
            b.set(i);
        }
        let collect = |lo, hi| {
            let mut out = Vec::new();
            b.for_each_zero_in(lo, hi, |i| out.push(i));
            out
        };
        // Full range: every index not set, ascending.
        let all = collect(0, 200);
        assert_eq!(all.len(), 200 - 6);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert!(!all.contains(&63) && !all.contains(&128));
        assert!(all.contains(&1) && all.contains(&198));
        // Unaligned sub-range, entirely inside one word.
        assert_eq!(collect(3, 8), vec![3, 4, 6, 7]);
        // Range crossing a word boundary.
        assert_eq!(collect(62, 66), vec![62, 65]);
        // Empty and inverted ranges are no-ops.
        assert_eq!(collect(10, 10), Vec::<usize>::new());
        assert_eq!(collect(200, 200), Vec::<usize>::new());
    }

    #[test]
    fn zero_sweep_skips_saturated_words() {
        let mut b = Bitset::new(192);
        for i in 64..128 {
            b.set(i);
        }
        let mut out = Vec::new();
        b.for_each_zero_in(60, 132, |i| out.push(i));
        assert_eq!(out, vec![60, 61, 62, 63, 128, 129, 130, 131]);
    }

    #[test]
    fn clear_resets_one_bit() {
        let mut b = Bitset::new(70);
        b.set(3);
        b.set(66);
        b.clear(3);
        b.clear(5); // already zero
        assert!(!b.get(3) && !b.get(5) && b.get(66));
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    fn union_sweep_skips_bits_set_in_either() {
        let mut a = Bitset::new(140);
        let mut b = Bitset::new(140);
        for i in 0..64 {
            a.set(i); // a whole word, from one side
        }
        for i in [64, 66, 130] {
            a.set(i);
        }
        for i in [65, 66, 67, 139] {
            b.set(i);
        }
        let mut out = Vec::new();
        a.for_each_zero_in_union(&b, 60, 140, |i| out.push(i));
        let want: Vec<usize> = (68..140).filter(|&i| i != 130 && i != 139).collect();
        assert_eq!(out, want);
        // With an all-zero partner it is the plain sweep.
        let zero = Bitset::new(140);
        let (mut plain, mut union) = (Vec::new(), Vec::new());
        a.for_each_zero_in(3, 131, |i| plain.push(i));
        a.for_each_zero_in_union(&zero, 3, 131, |i| union.push(i));
        assert_eq!(plain, union);
    }

    #[test]
    fn clear_and_resize_resets_all_bits() {
        let mut b = Bitset::new(100);
        b.set(3);
        b.set(99);
        b.clear_and_resize(100);
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.len(), 100);
        b.set(64);
        b.clear_and_resize(10);
        assert_eq!(b.len(), 10);
        assert_eq!(b.word_count(), 1);
        assert_eq!(b.count_ones(), 0);
        b.clear_and_resize(130);
        assert_eq!(b.word_count(), 3);
        assert_eq!(b.count_ones(), 0);
    }
}
