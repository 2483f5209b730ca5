//! Verdict borders kept across searches, per query skeleton.
//!
//! A [`Lattice`]'s borders die with it. Serving traffic asks one `from` /
//! `where` *skeleton* under many select lists — `serve_churn`'s 32 EC2
//! shapes share one — and every cache miss used to re-prove what a sibling
//! shape had already proved. A [`SkeletonMemo`] keeps, per skeleton, what
//! every search over it proved, and the next search over that skeleton
//! starts from there. That search still chases its own universal plan and
//! induces its own plans, so plan text, plan order and `explored` are what a
//! cold search gives; only where a verdict comes from changes (the border
//! sources of `verdicts` rise). Why a verdict proved under one select list may answer another is
//! rule (ii) of "Borders" in [`crate::backchase`]; `Shaped` is its order.
//!
//! **Key.** The exact `from` and `where` of the searched query plus a digest
//! of the exact constraint slice it ran under, so an OQF fragment or an OCS
//! stage keys on its own query and constraint subset. The key is not
//! alpha-renamed: borders are sets of variable ids. An entry also records its
//! universal plan's from-clause, and a search whose universal plan differs
//! (other variables or other ranges) starts empty and replaces the entry.
//!
//! **Guards.** Rule (i) is untouched: the lattice asks its equivalence border
//! only of well-formed subsets, imported yes-sets included. A chase cut
//! short by a cap decides nothing, so it teaches nothing: neither a capped
//! check nor a lattice whose universal chase was cut short learns a
//! verdict, and such a lattice reads none of what it imports. A select
//! list that repeats a label bypasses the memo — its output set is not the
//! set of its pairs. Debug builds re-prove by a chase every verdict that
//! did not come from one, so every debug suite audits every import.
//!
//! **Bound.** A memo holds at most its capacity of skeletons, least recently
//! used out (`cnb_engine::PlanServer` passes its plan cache's capacity;
//! capacity 0 keeps nothing, which is what
//! [`crate::optimizer::Optimizer::optimize`] runs with), and each entry holds
//! its borders' antichains and nothing else.

use std::hash::{Hash, Hasher};

use cnb_ir::prelude::{Binding, Constraint, Equality, PathExpr, Query, Symbol, Var};

use crate::backchase::Lattice;
use crate::bitset::{Border, Poset, VarSet};
use crate::fxhash::{FxHashMap, FxHasher};

/// Where a verdict stands: a kept set under an output set (ids into a
/// skeleton's output universe, one bit each).
#[derive(Clone, Debug)]
struct Shaped {
    outputs: VarSet,
    keep: VarSet,
}

impl Poset for Shaped {
    /// A yes here is a yes at `other`: it asks for no output this one did
    /// not, and keeps every binding this one kept.
    fn leq(&self, other: &Shaped) -> bool {
        other.outputs.is_subset(&self.outputs) && self.keep.is_subset(&other.keep)
    }
}

/// What the searches over one skeleton proved.
struct Skeleton {
    from: Vec<Binding>,
    where_: Vec<Equality>,
    /// Digest of the constraint slice.
    constraints: u64,
    /// The universal plan's from-clause: the variables the borders speak of.
    universal: Vec<Binding>,
    /// The output universe: output id `i` is `outputs[i]`.
    outputs: Vec<(Symbol, PathExpr)>,
    equivalence: Border<Shaped>,
    select: Border<Shaped>,
    /// Per universal-plan binding, as the lattice keeps them.
    ranges: Vec<Border>,
    /// The memo's clock at the last search over this skeleton.
    used: u64,
}

impl Skeleton {
    /// The ids of `select`'s outputs, new ones added to the universe.
    fn output_set(&mut self, select: &[(Symbol, PathExpr)]) -> VarSet {
        VarSet::from_iter(select.iter().map(|out| {
            let id = match self.outputs.iter().position(|o| o == out) {
                Some(id) => id,
                None => {
                    self.outputs.push(out.clone());
                    self.outputs.len() - 1
                }
            };
            Var(id as u32)
        }))
    }

    /// Teaches `lattice`, searching under `outputs`, every verdict this
    /// entry answers there; returns how many sets it handed over.
    fn seed(&self, lattice: &mut Lattice<'_>, outputs: &VarSet) -> usize {
        let mut handed = 0;
        for (kept, border) in [
            (&self.equivalence, &mut lattice.equivalence),
            (&self.select, &mut lattice.select),
        ] {
            let [yes, no] = kept.antichains();
            for y in yes.iter().filter(|y| outputs.is_subset(&y.outputs)) {
                border.learn(&y.keep, true);
                handed += 1;
            }
            for n in no.iter().filter(|n| n.outputs.is_subset(outputs)) {
                border.learn(&n.keep, false);
                handed += 1;
            }
        }
        lattice.ranges.clone_from(&self.ranges);
        let sets = |b: &Border| b.antichains().iter().map(|side| side.len()).sum::<usize>();
        handed + self.ranges.iter().map(sets).sum::<usize>()
    }

    /// Keeps what `lattice`, searching under `outputs`, knows at its end.
    fn keep(&mut self, lattice: &Lattice<'_>, outputs: &VarSet) {
        for (kept, border) in [
            (&mut self.equivalence, &lattice.equivalence),
            (&mut self.select, &lattice.select),
        ] {
            for (side, holds) in border.antichains().into_iter().zip([true, false]) {
                for keep in side {
                    let at = Shaped {
                        outputs: outputs.clone(),
                        keep: keep.clone(),
                    };
                    kept.learn(&at, holds);
                }
            }
        }
        self.ranges.clone_from(&lattice.ranges);
    }
}

/// Verdict borders per query skeleton, kept across searches (see the module
/// docs). Hand one to [`crate::optimizer::Optimizer::optimize_in`].
#[derive(Default)]
pub struct SkeletonMemo {
    entries: FxHashMap<u64, Skeleton>,
    /// `None` = unbounded.
    capacity: Option<usize>,
    /// Ticks once per lookup; an entry's `used` is unique, so the victim of
    /// an eviction is a pure function of the lookup history.
    clock: u64,
    lookups: usize,
    hits: usize,
    imported: usize,
}

/// A search's claim on its skeleton's entry, from [`SkeletonMemo::seed`] to
/// [`SkeletonMemo::keep`].
pub(crate) struct Ticket {
    key: u64,
    outputs: VarSet,
}

impl SkeletonMemo {
    /// An empty, unbounded memo.
    pub fn new() -> SkeletonMemo {
        SkeletonMemo::default()
    }

    /// An empty memo holding at most `capacity` skeletons; 0 keeps nothing.
    pub fn bounded(capacity: usize) -> SkeletonMemo {
        SkeletonMemo {
            capacity: Some(capacity),
            ..SkeletonMemo::default()
        }
    }

    /// Searches that looked their skeleton up (a bypassed search does not).
    pub fn lookups(&self) -> usize {
        self.lookups
    }

    /// Lookups that found their skeleton with the same universal plan.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Border sets handed to searches on a hit, summed: each one a verdict
    /// (or a range's verdict) a search did not have to prove.
    pub fn imported(&self) -> usize {
        self.imported
    }

    /// Starts `lattice`, about to search `q0` under `constraints`, from what
    /// the memo holds for its skeleton. `None` when the search bypasses the
    /// memo: capacity 0, or a select list that repeats a label.
    pub(crate) fn seed(
        &mut self,
        lattice: &mut Lattice<'_>,
        q0: &Query,
        constraints: &[Constraint],
    ) -> Option<Ticket> {
        let repeats = |i: usize| q0.select[..i].iter().any(|(l, _)| *l == q0.select[i].0);
        if self.capacity == Some(0) || (0..q0.select.len()).any(repeats) {
            return None;
        }
        let digest = {
            let mut h = FxHasher::default();
            constraints.hash(&mut h);
            h.finish()
        };
        let key = {
            let mut h = FxHasher::default();
            q0.from.hash(&mut h);
            q0.where_.hash(&mut h);
            digest.hash(&mut h);
            h.finish()
        };
        self.lookups += 1;
        self.clock += 1;
        let universal = lattice.bindings();
        let hit = self.entries.get(&key).is_some_and(|e| {
            e.constraints == digest
                && e.from == q0.from
                && e.where_ == q0.where_
                && e.universal == universal
        });
        if hit {
            self.hits += 1;
        } else {
            if !self.entries.contains_key(&key) {
                self.make_room();
            }
            let fresh = Skeleton {
                from: q0.from.clone(),
                where_: q0.where_.clone(),
                constraints: digest,
                universal: universal.to_vec(),
                outputs: Vec::new(),
                equivalence: Border::default(),
                select: Border::default(),
                ranges: vec![Border::default(); universal.len()],
                used: 0,
            };
            self.entries.insert(key, fresh);
        }
        let entry = self.entries.get_mut(&key).expect("found or just made");
        entry.used = self.clock;
        let outputs = entry.output_set(&q0.select);
        if hit {
            self.imported += entry.seed(lattice, &outputs);
        }
        Some(Ticket { key, outputs })
    }

    /// Keeps what `lattice` proved in the search `ticket` was issued for.
    pub(crate) fn keep(&mut self, ticket: Ticket, lattice: &Lattice<'_>) {
        let entry = self
            .entries
            .get_mut(&ticket.key)
            .expect("nothing evicts between a search's seed and its keep");
        entry.keep(lattice, &ticket.outputs);
    }

    /// Evicts least recently used skeletons until one more fits.
    fn make_room(&mut self) {
        let Some(capacity) = self.capacity else {
            return;
        };
        while self.entries.len() >= capacity {
            let oldest = self.entries.iter().min_by_key(|(_, e)| e.used);
            let Some(key) = oldest.map(|(key, _)| *key) else {
                return;
            };
            self.entries.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backchase::{chase_and_backchase, chase_and_backchase_in, BackchaseConfig};
    use cnb_ir::prelude::*;

    fn at(outputs: &[u32], keep: &[u32]) -> Shaped {
        let set = |ids: &[u32]| VarSet::from_iter(ids.iter().map(|&i| Var(i)));
        Shaped {
            outputs: set(outputs),
            keep: set(keep),
        }
    }

    /// Rule (ii) on the order itself: a yes answers sub-lists and larger
    /// kept sets, a no super-lists and smaller kept sets, and neither more.
    #[test]
    fn a_yes_answers_sub_lists_and_a_no_answers_super_lists() {
        let mut yes = Border::default();
        yes.learn(&at(&[0, 1], &[5]), true);
        assert!(yes.covers_yes(&at(&[1, 0], &[5])));
        assert!(yes.covers_yes(&at(&[1], &[5, 6])), "a sub-list, more kept");
        assert!(!yes.covers_yes(&at(&[0, 1, 2], &[5])), "a super-list");
        assert!(!yes.covers_yes(&at(&[0], &[6])), "a kept set without $5");
        let mut no = Border::default();
        no.learn(&at(&[0, 1], &[5, 6]), false);
        assert!(
            no.covers_no(&at(&[0, 1, 2], &[6])),
            "a super-list, less kept"
        );
        assert!(!no.covers_no(&at(&[0], &[5, 6])), "a sub-list");
        assert!(!no.covers_no(&at(&[0, 1], &[5, 6, 7])), "more kept");
    }

    /// `R(K, N, D)` with a view of `(K, N)`, and the query over it with
    /// outputs `A = K`, `B = N`, `C = D`, in `labels`' order. (No index on
    /// `K`: through one, the view alone would give `D` as `PI[v.K].D`.)
    fn three_outputs(labels: &[&str]) -> (Vec<Constraint>, Query) {
        let mut schema = Schema::new();
        schema.add_relation(
            "R",
            [
                (sym("K"), Type::Int),
                (sym("N"), Type::Int),
                (sym("D"), Type::Int),
            ],
        );
        let mut def = Query::new();
        let r = def.bind("r", Range::Name(sym("R")));
        def.output("K", PathExpr::from(r).dot("K"));
        def.output("N", PathExpr::from(r).dot("N"));
        add_materialized_view(&mut schema, "V", &def);
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        for label in labels {
            let field = match *label {
                "A" => "K",
                "B" => "N",
                _ => "D",
            };
            q.output(label, PathExpr::from(r).dot(field));
        }
        (schema.all_constraints(), q)
    }

    /// The same rule through real searches. `[A, C]` proves that the view
    /// alone cannot give `D` (a no), `[A, B]` that it alone is a plan (a
    /// yes). Seeding `[A]` hands it the yes and not the no; seeding
    /// `[A, B, C]` the no and not the yes. Every search, memo or not, emits
    /// the cold plans with the cold `explored`.
    #[test]
    fn a_yes_crosses_to_a_sub_list_and_a_no_to_a_super_list() {
        let cfg = BackchaseConfig::default();
        let mut memo = SkeletonMemo::new();
        for labels in [&["A", "C"][..], &["A", "B"]] {
            let (cs, q) = three_outputs(labels);
            chase_and_backchase_in(&q, &cs, &cfg, &mut memo);
        }
        let (cs, sub) = three_outputs(&["A"]);
        let (_, sup) = three_outputs(&["C", "B", "A"]);
        for (q, yes, no) in [(&sub, true, false), (&sup, false, true)] {
            let mut lattice = Lattice::chase(q, &cs, &cfg);
            let view = lattice
                .bindings()
                .iter()
                .find(|b| b.range == Range::Name(sym("V")))
                .map(|b| VarSet::from_iter([b.var]))
                .expect("the chase adds the view");
            assert!(memo.seed(&mut lattice, q, &cs).is_some());
            assert_eq!(lattice.equivalence.covers_yes(&view), yes, "{q}");
            assert_eq!(lattice.equivalence.covers_no(&view), no, "{q}");
        }
        for q in [&sub, &sup] {
            let cold = chase_and_backchase(q, &cs, &cfg);
            let warm = chase_and_backchase_in(q, &cs, &cfg, &mut memo);
            assert_eq!(warm.plans, cold.plans, "{q}");
            assert_eq!(warm.explored, cold.explored, "{q}");
            assert!(warm.verdicts.inferred() >= cold.verdicts.inferred(), "{q}");
            if q == &sub {
                assert_eq!(
                    warm.explored,
                    warm.verdicts.inferred(),
                    "[A] chased under [A, B]'s yes-sets"
                );
            }
        }
        assert_eq!(memo.entries.len(), 1, "one skeleton");
    }

    /// Least recently used out, and capacity 0 keeps nothing at all.
    #[test]
    fn the_bound_evicts_the_least_recently_used_skeleton() {
        let cfg = BackchaseConfig::default();
        let (cs, q) = three_outputs(&["A", "B"]);
        let mut narrower = q.clone();
        narrower.equate(PathExpr::from(q.from[0].var).dot("K"), PathExpr::from(1i64));
        let mut memo = SkeletonMemo::bounded(1);
        for q in [&q, &narrower, &q] {
            chase_and_backchase_in(q, &cs, &cfg, &mut memo);
        }
        assert_eq!((memo.entries.len(), memo.lookups(), memo.hits()), (1, 3, 0));
        let mut none = SkeletonMemo::bounded(0);
        chase_and_backchase_in(&q, &cs, &cfg, &mut none);
        assert_eq!((none.entries.len(), none.lookups()), (0, 0));
    }
}
