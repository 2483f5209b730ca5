//! The workspace's one disjoint-set forest.
//!
//! Join classes ([`crate::hypergraph`], the engine's generic join), strata,
//! fragments and plan connectivity are all "group dense ids by a symmetric
//! relation". Path halving on `find`; on `union` the **smaller root wins**,
//! so a class's representative is its smallest member — a pure function of
//! the set of unions, never of the order they were issued in.

/// A disjoint-set forest over dense ids `0..len`.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton classes, ids `0..n`.
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    /// Adds one singleton class and returns its id.
    pub fn push(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        id
    }

    /// The representative of `i`'s class: its smallest member.
    pub fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    /// Merges the classes of `a` and `b`.
    pub fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representative_is_the_smallest_member_whatever_the_union_order() {
        let mut a = UnionFind::new(5);
        a.union(4, 3);
        a.union(3, 1);
        let mut b = UnionFind::new(5);
        b.union(1, 4);
        b.union(4, 3);
        for uf in [&mut a, &mut b] {
            let roots: Vec<usize> = (0..5).map(|i| uf.find(i)).collect();
            assert_eq!(roots, vec![0, 1, 2, 1, 1]);
        }
        let fresh = a.push();
        assert_eq!((fresh, a.find(fresh)), (5, 5));
        a.union(fresh, 2);
        assert_eq!(a.find(fresh), 2);
    }
}
