//! Compact variable/binding subsets.
//!
//! The backchase explores subsets of the universal plan's bindings; subsets
//! are represented as bitsets over variable ids so that memoization keys are
//! cheap to hash and compare.

#![deny(clippy::indexing_slicing)]

use cnb_ir::prelude::Var;
use std::fmt;

/// A growable bitset over [`Var`] ids, 16 bytes: ids below 64 live in one
/// inline word, larger ones in a boxed spill vector that no query this
/// workspace optimizes ever allocates. Size is the point. Every top-down
/// memo key, every border antichain entry, every lattice candidate and every
/// congruence term's support is one of these, and the walk over the
/// verdicts the backchase never chases is mostly reads of them — so a set is
/// one word and a null pointer, and every operation has a path for two sets
/// that do not spill that never touches the box.
///
/// `spill` is `None` unless an id ≥ 64 is present, and is dropped when the
/// last one is removed; when present it never ends in a zero word. So the
/// derived `Eq`/`Hash` are content-based: one set, one memo key, whatever
/// the set held before.
#[derive(PartialEq, Eq, Hash, Default)]
pub struct VarSet {
    /// Bits of ids 0..64.
    low: u64,
    /// Words of ids 64.., word `i` holding ids `64 * (i + 1)..`. The `Vec` is
    /// boxed for its thin pointer: an unboxed one would double the set.
    #[expect(
        clippy::box_collection,
        reason = "a thin pointer keeps the set at 16 bytes"
    )]
    spill: Option<Box<Vec<u64>>>,
}

impl Clone for VarSet {
    #[inline]
    fn clone(&self) -> VarSet {
        VarSet {
            low: self.low,
            spill: self.spill.clone(),
        }
    }

    /// Overwrites `self` in place, keeping its spill buffer when both sets
    /// spill: a set recycled through many candidates allocates once it has
    /// grown.
    #[inline]
    fn clone_from(&mut self, source: &VarSet) {
        self.low = source.low;
        self.spill.clone_from(&source.spill);
    }
}

impl VarSet {
    /// The empty set.
    pub fn new() -> VarSet {
        VarSet::default()
    }

    /// A set containing the given variables.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(vars: impl IntoIterator<Item = Var>) -> VarSet {
        let mut s = VarSet::new();
        for v in vars {
            s.insert(v);
        }
        s
    }

    /// Inserts `v`; returns true if it was new.
    #[inline]
    pub fn insert(&mut self, v: Var) -> bool {
        let bit = bit_of(v);
        let w = v.index() / 64;
        if w == 0 {
            let had = self.low & bit != 0;
            self.low |= bit;
            return !had;
        }
        let words = self.spill.get_or_insert_with(Box::default);
        match words.get_mut(w - 1) {
            Some(word) => {
                let had = *word & bit != 0;
                *word |= bit;
                !had
            }
            None => {
                words.resize(w - 1, 0);
                words.push(bit);
                true
            }
        }
    }

    /// Removes `v`; returns true if it was present.
    #[inline]
    pub fn remove(&mut self, v: Var) -> bool {
        let bit = bit_of(v);
        let w = v.index() / 64;
        if w == 0 {
            let had = self.low & bit != 0;
            self.low &= !bit;
            return had;
        }
        let Some(words) = &mut self.spill else {
            return false;
        };
        let Some(word) = words.get_mut(w - 1) else {
            return false;
        };
        let had = *word & bit != 0;
        *word &= !bit;
        while words.last() == Some(&0) {
            words.pop();
        }
        if words.is_empty() {
            self.spill = None;
        }
        had
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: Var) -> bool {
        let word = match v.index() / 64 {
            0 => self.low,
            w => self.spill_words().get(w - 1).copied().unwrap_or(0),
        };
        word & bit_of(v) != 0
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        let ones = |w: u64| w.count_ones() as usize;
        ones(self.low) + self.spill_words().iter().map(|&w| ones(w)).sum::<usize>()
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.low == 0 && self.spill.is_none()
    }

    /// True if `self ⊆ other`.
    #[inline]
    pub fn is_subset(&self, other: &VarSet) -> bool {
        if self.low & !other.low != 0 {
            return false;
        }
        match (&self.spill, &other.spill) {
            (None, _) => true,
            // `self`'s last spill word is not zero: an id `other` lacks.
            (Some(_), None) => false,
            (Some(mine), Some(theirs)) => {
                mine.len() <= theirs.len()
                    && mine.iter().zip(theirs.iter()).all(|(a, b)| a & !b == 0)
            }
        }
    }

    /// In-place union.
    #[inline]
    pub fn union_with(&mut self, other: &VarSet) {
        self.low |= other.low;
        let Some(theirs) = &other.spill else {
            return;
        };
        match &mut self.spill {
            Some(mine) => {
                if mine.len() < theirs.len() {
                    mine.resize(theirs.len(), 0);
                }
                for (a, b) in mine.iter_mut().zip(theirs.iter()) {
                    *a |= b;
                }
            }
            None => self.spill = Some(theirs.clone()),
        }
    }

    /// True if the sets share an element.
    #[inline]
    pub fn intersects(&self, other: &VarSet) -> bool {
        if self.low & other.low != 0 {
            return true;
        }
        match (&self.spill, &other.spill) {
            (Some(mine), Some(theirs)) => mine.iter().zip(theirs.iter()).any(|(a, b)| a & b != 0),
            _ => false,
        }
    }

    /// `self` without `v`, as a new set.
    #[inline]
    pub fn without(&self, v: Var) -> VarSet {
        let mut s = self.clone();
        s.remove(v);
        s
    }

    /// Iterates elements in increasing order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = Var> + '_ {
        Iter {
            bits: self.low,
            base: 0,
            rest: self.spill_words().iter(),
        }
    }

    /// The words of ids 64.., empty when the set does not spill.
    #[inline]
    fn spill_words(&self) -> &[u64] {
        self.spill.as_deref().map_or(&[], Vec::as_slice)
    }
}

/// The elements of a [`VarSet`], in increasing order: the bits left of the
/// current word, then the words after it.
struct Iter<'a> {
    bits: u64,
    /// The id of the current word's bit 0.
    base: u32,
    rest: std::slice::Iter<'a, u64>,
}

impl Iterator for Iter<'_> {
    type Item = Var;

    #[inline]
    fn next(&mut self) -> Option<Var> {
        while self.bits == 0 {
            self.bits = *self.rest.next()?;
            self.base += 64;
        }
        let b = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(Var(self.base + b))
    }
}

/// `v`'s bit within its word.
#[inline]
fn bit_of(v: Var) -> u64 {
    1 << (v.index() % 64)
}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "${}", v.0)?;
        }
        write!(f, "}}")
    }
}

/// A partial order a [`Border`] keeps its antichains in.
pub trait Poset: Clone {
    /// `self ≤ other`: a predicate monotone in this order that holds of
    /// `self` holds of `other`, and one that fails on `other` fails on `self`.
    fn leq(&self, other: &Self) -> bool;
}

impl Poset for VarSet {
    fn leq(&self, other: &VarSet) -> bool {
        self.is_subset(other)
    }
}

/// What has been learnt about a *monotone* predicate — over [`VarSet`]s, one
/// that holds of every superset of a set it holds of. Two antichains carry
/// it all: the minimal sets it is known to hold of, the maximal sets it is
/// known to fail on (see "Borders" in [`crate::backchase`]). Any other
/// [`Poset`] works the same way ([`crate::memo`] keeps borders over pairs).
#[derive(Clone, Debug)]
pub struct Border<T = VarSet> {
    minimal_yes: Vec<T>,
    maximal_no: Vec<T>,
}

impl<T> Default for Border<T> {
    fn default() -> Border<T> {
        Border {
            minimal_yes: Vec::new(),
            maximal_no: Vec::new(),
        }
    }
}

impl<T: Poset> Border<T> {
    /// Is the predicate known to hold of `set` — above a learnt yes?
    pub fn covers_yes(&self, set: &T) -> bool {
        self.minimal_yes.iter().any(|y| y.leq(set))
    }

    /// Is the predicate known to fail on `set` — below a learnt no?
    pub fn covers_no(&self, set: &T) -> bool {
        self.maximal_no.iter().any(|n| set.leq(n))
    }

    /// Records that the predicate holds of `set`, or fails on it. A set
    /// already covered adds nothing; a new one evicts what it covers.
    pub fn learn(&mut self, set: &T, holds: bool) {
        if holds && !self.covers_yes(set) {
            self.minimal_yes.retain(|y| !set.leq(y));
            self.minimal_yes.push(set.clone());
        } else if !holds && !self.covers_no(set) {
            self.maximal_no.retain(|n| !n.leq(set));
            self.maximal_no.push(set.clone());
        }
    }

    /// The two antichains: the minimal yes-sets, then the maximal no-sets.
    pub fn antichains(&self) -> [&[T]; 2] {
        [&self.minimal_yes, &self.maximal_no]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = VarSet::new();
        assert!(s.insert(Var(3)));
        assert!(!s.insert(Var(3)));
        assert!(s.contains(Var(3)));
        assert!(!s.contains(Var(4)));
        assert!(s.remove(Var(3)));
        assert!(!s.remove(Var(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn large_ids() {
        let mut s = VarSet::new();
        s.insert(Var(200));
        assert!(s.contains(Var(200)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Var(200)]);
    }

    #[test]
    fn subset_and_union() {
        let a = VarSet::from_iter([Var(1), Var(2)]);
        let b = VarSet::from_iter([Var(1), Var(2), Var(70)]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        let mut c = a.clone();
        c.union_with(&b);
        assert_eq!(c, b);
    }

    #[test]
    fn intersects() {
        let a = VarSet::from_iter([Var(1)]);
        let b = VarSet::from_iter([Var(2)]);
        let c = VarSet::from_iter([Var(1), Var(2)]);
        assert!(!a.intersects(&b));
        assert!(a.intersects(&c));
    }

    #[test]
    fn equality_is_content_based() {
        // Trailing zero words must not affect equality.
        let mut a = VarSet::new();
        a.insert(Var(100));
        a.remove(Var(100));
        assert_eq!(a, VarSet::new());
    }

    #[test]
    fn without_is_nonmutating() {
        let a = VarSet::from_iter([Var(1), Var(2)]);
        let b = a.without(Var(1));
        assert!(a.contains(Var(1)));
        assert!(!b.contains(Var(1)));
        assert_eq!(b.len(), 1);
    }

    /// What `s` spills into: its box and its buffer, or `None`.
    fn spill_ptrs(s: &VarSet) -> Option<(*const Vec<u64>, *const u64)> {
        s.spill
            .as_deref()
            .map(|v| (v as *const Vec<u64>, v.as_ptr()))
    }

    fn hash_of(s: &VarSet) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = crate::fxhash::FxHasher::default();
        s.hash(&mut h);
        h.finish()
    }

    /// The layout the lattice walks pay for: a word and a thin pointer.
    #[test]
    fn a_set_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<VarSet>(), 16);
    }

    /// A set that spilled and came back below 64 is the set that never did.
    #[test]
    fn a_set_back_below_64_is_the_set_that_never_spilled() {
        let never = VarSet::from_iter([Var(1), Var(63)]);
        let mut back = never.clone();
        back.insert(Var(64));
        back.insert(Var(190));
        assert!(back.spill.is_some());
        back.remove(Var(190));
        back.remove(Var(64));
        assert!(back.spill.is_none(), "the box is dropped with its last id");
        assert_eq!(back, never);
        assert_eq!(hash_of(&back), hash_of(&never));
        // The same through `union_with` and `clone_from`.
        let mut again = never.clone();
        again.union_with(&VarSet::from_iter([Var(130)]));
        again.clone_from(&never);
        assert!(again.spill.is_none());
        assert_eq!(hash_of(&again), hash_of(&never));
    }

    /// `clone_from` between two sets that spill reuses the target's box and
    /// buffer: neither moves, so nothing was allocated in their place.
    #[test]
    fn clone_from_into_a_spilled_set_reuses_its_buffer() {
        let mut target = VarSet::from_iter([Var(3), Var(190)]);
        let before = spill_ptrs(&target);
        assert!(before.is_some());
        let source = VarSet::from_iter([Var(5), Var(70), Var(130)]);
        target.clone_from(&source);
        assert_eq!(target, source);
        assert_eq!(spill_ptrs(&target), before);
    }

    /// Every operation against a `BTreeSet` model over ids 0..200, which
    /// crosses the inline word and three spill words: a seeded random walk
    /// over four sets.
    #[test]
    fn every_operation_agrees_with_a_btreeset() {
        use std::collections::BTreeSet;
        let mut state = 0x5eed_b175_u64;
        let mut next = move |bound: u64| {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        let mut sets: Vec<(VarSet, BTreeSet<u32>)> =
            (0..4).map(|_| (VarSet::new(), BTreeSet::new())).collect();
        let of = |m: &BTreeSet<u32>| VarSet::from_iter(m.iter().map(|&i| Var(i)));
        for _ in 0..20_000 {
            let (a, b) = (next(4) as usize, next(4) as usize);
            // Ids below 64 three times in four, so sets also come back from
            // spilling.
            let id = if next(4) == 0 { next(200) } else { next(64) } as u32;
            let (other, other_model) = sets.get(b).cloned().unwrap();
            let (set, model) = sets.get_mut(a).unwrap();
            match next(6) {
                0 | 1 => assert_eq!(set.insert(Var(id)), model.insert(id)),
                2 | 3 => assert_eq!(set.remove(Var(id)), model.remove(&id)),
                4 => {
                    set.union_with(&other);
                    model.extend(other_model.iter().copied());
                }
                _ => {
                    set.clone_from(&other);
                    model.clone_from(&other_model);
                }
            }
            assert_eq!(set.contains(Var(id)), model.contains(&id));
            assert_eq!(set.len(), model.len());
            assert_eq!(set.is_empty(), model.is_empty());
            let listed: Vec<u32> = set.iter().map(|v| v.0).collect();
            assert_eq!(listed, model.iter().copied().collect::<Vec<_>>());
            assert_eq!(set.is_subset(&other), model.is_subset(&other_model));
            assert_eq!(other.is_subset(set), other_model.is_subset(model));
            assert_eq!(set.intersects(&other), !model.is_disjoint(&other_model));
            let without = set.without(Var(id));
            assert!(!without.contains(Var(id)));
            assert_eq!(
                without.len(),
                model.len() - usize::from(model.contains(&id))
            );
            // Content-based equality and hashing, whatever the history.
            let fresh = of(model);
            assert_eq!(*set, fresh);
            assert_eq!(hash_of(set), hash_of(&fresh));
            assert_eq!(set.spill.is_some(), model.iter().any(|&i| i >= 64));
            assert_eq!(*set == other, *model == other_model);
        }
    }

    #[test]
    fn iter_order() {
        let s = VarSet::from_iter([Var(65), Var(2), Var(64)]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Var(2), Var(64), Var(65)]);
    }
}
