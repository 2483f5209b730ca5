//! Compact variable/binding subsets.
//!
//! The backchase explores subsets of the universal plan's bindings; subsets
//! are represented as bitsets over variable ids so that memoization keys are
//! cheap to hash and compare.

use cnb_ir::prelude::Var;
use std::fmt;

/// A growable bitset over [`Var`] ids. Ids below 64 live inline; larger ones
/// in a spill vector that stays empty (and unallocated) for every query this
/// workspace optimizes — each term's support and every lattice and memo key is
/// one of these, so the common case must not touch the heap.
///
/// `spill` never ends in a zero word, so the derived `Eq`/`Hash` are
/// content-based: one set, one memo key.
#[derive(PartialEq, Eq, Hash, Default)]
pub struct VarSet {
    /// Bits of ids 0..64.
    low: u64,
    /// Words of ids 64.., word `i` holding ids `64 * (i + 1)..`.
    spill: Vec<u64>,
}

impl Clone for VarSet {
    fn clone(&self) -> VarSet {
        VarSet {
            low: self.low,
            spill: self.spill.clone(),
        }
    }

    /// Overwrites `self` in place, keeping its spill buffer: a set recycled
    /// through many candidates allocates once it has grown.
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
    pub fn insert(&mut self, v: Var) -> bool {
        let bit = 1 << (v.index() % 64);
        let word = match v.index() / 64 {
            0 => &mut self.low,
            w => {
                if w > self.spill.len() {
                    self.spill.resize(w, 0);
                }
                &mut self.spill[w - 1]
            }
        };
        let had = *word & bit != 0;
        *word |= bit;
        !had
    }

    /// Removes `v`; returns true if it was present.
    pub fn remove(&mut self, v: Var) -> bool {
        let bit = 1 << (v.index() % 64);
        let word = match v.index() / 64 {
            0 => &mut self.low,
            w => match self.spill.get_mut(w - 1) {
                Some(word) => word,
                None => return false,
            },
        };
        let had = *word & bit != 0;
        *word &= !bit;
        while matches!(self.spill.last(), Some(0)) {
            self.spill.pop();
        }
        had
    }

    /// Membership test.
    pub fn contains(&self, v: Var) -> bool {
        let word = match v.index() / 64 {
            0 => self.low,
            w => self.spill.get(w - 1).copied().unwrap_or(0),
        };
        word & (1 << (v.index() % 64)) != 0
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words().map(|w| w.count_ones() as usize).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.low == 0 && self.spill.is_empty()
    }

    /// True if `self ⊆ other`.
    pub fn is_subset(&self, other: &VarSet) -> bool {
        self.low & !other.low == 0
            && self.spill.iter().enumerate().all(|(i, &w)| {
                let o = other.spill.get(i).copied().unwrap_or(0);
                w & !o == 0
            })
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &VarSet) {
        self.low |= other.low;
        if other.spill.len() > self.spill.len() {
            self.spill.resize(other.spill.len(), 0);
        }
        for (mine, &theirs) in self.spill.iter_mut().zip(&other.spill) {
            *mine |= theirs;
        }
    }

    /// True if the sets share an element.
    pub fn intersects(&self, other: &VarSet) -> bool {
        self.words().zip(other.words()).any(|(a, b)| a & b != 0)
    }

    /// `self` without `v`, as a new set.
    pub fn without(&self, v: Var) -> VarSet {
        let mut s = self.clone();
        s.remove(v);
        s
    }

    /// Iterates elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Var> + '_ {
        self.words().enumerate().flat_map(|(wi, w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                Some(Var((wi * 64) as u32 + b))
            })
        })
    }

    /// The words of the set, lowest ids first.
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.low).chain(self.spill.iter().copied())
    }
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

    #[test]
    fn iter_order() {
        let s = VarSet::from_iter([Var(65), Var(2), Var(64)]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Var(2), Var(64), Var(65)]);
    }
}
