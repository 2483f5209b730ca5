//! Refuting a candidate from the universal plan's derivations, no chase —
//! and, for one that is not refuted, the constraints its chase needs.
//!
//! Most candidates a backchase chases are not equivalent (on `ec1_4_2`, 540
//! of 591): their implication chase cannot produce a copy of the original
//! query's body. The chased universal plan `U` already records every step
//! such a chase could take, so that can be read off `U` once, after the
//! provenance-directed C&B of Ileana, Cautis, Deutsch and Katsis (SIGMOD
//! 2014), and a candidate refuted by a closure over sets of bindings. Two
//! things are recorded, under a congruence savepoint that is rolled back
//! (`U` stays byte-identical, so no plan text can move):
//!
//! * **rules** — for each constraint, every homomorphism of its universal
//!   part into `U` gives one: the bindings of its premise's image, and the
//!   bindings of *one* witness of its conclusion (an existential search
//!   with `max_homs: 1`), tagged with the constraint. `U` is a chase
//!   fixpoint, so a witness exists;
//! * **images** — every homomorphism of `q0`'s body into `U` that maps each
//!   output path onto itself under `U`'s closure, as its bindings.
//!
//! A candidate `keep` is **refuted** when closing `keep` under the rules
//! (premise ⊆ set ⇒ add the witness) reaches a fixpoint that contains no
//! image. One closure answers both questions this module is asked:
//! `Derivations::support` is `None` exactly when `keep` is refuted.
//!
//! # Why a refutation is sound
//!
//! 1. The identity on `keep` maps the loaded candidate into `U`: its ranges
//!    are `U`'s, rewritten inside their classes, and its closure is `U`'s
//!    restricted to `keep` ([`crate::subquery::load_subquery`]).
//! 2. Say the map `g` sends the candidate's chase so far into `U`, every
//!    binding into the closure. The next step fires on a homomorphism `h` of
//!    a universal part into the chase; `g ∘ h` is a homomorphism into `U`,
//!    so it is one of the rules, and its premise lies in the closure. Send
//!    the step's fresh bindings to that rule's witness: any witness extends
//!    the premise map, ranges and conclusion included, so `g` extended is
//!    again a homomorphism, and the witness is in the closure too. So all of
//!    `chase(candidate)` maps into `U` inside the closure.
//! 3. An equivalence check accepts a homomorphism `e` of `q0`'s body into
//!    `chase(candidate)` that maps each output of `q0` onto the candidate's,
//!    which `U`'s closure equates with `q0`'s own. Then `g ∘ e` is an image,
//!    and all its bindings lie in the closure. No image there, no such `e`:
//!    the candidate is not equivalent.
//! 4. The closure grows with `keep`, so a refutation is monotone in `keep`
//!    and is learnt into the equivalence border exactly as a chased `false`
//!    is.
//!
//! The converse does not hold — an image in the closure proves nothing, the
//! witness chosen may not be the one the chase would build — so whatever is
//! not refuted is still chased. Debug builds re-prove every refutation by a
//! chase ([`crate::backchase::Lattice`]).
//!
//! # The support of a candidate
//!
//! What is chased need not be chased under all of Σ. A candidate's chase
//! regrows every view and index of `U` that its bindings imply (on
//! `ec4_4_3_2` it ends at 20 bindings where `U` has 12), but the check only
//! asks for one image of `q0`. The closure says which rules rebuild one: the
//! **support** of `keep` is read off it in three steps.
//!
//! 1. **Ranks.** The closure is computed one rule application at a time;
//!    a binding of `keep` has rank 0, a derived one the number of the
//!    application that added it.
//! 2. **Charging.** Each derived binding `b` is charged to one rule: among
//!    the rules whose witness holds `b` and whose premise lies in the
//!    closure with every rank below `b`'s, the one with the fewest fresh
//!    bindings (witness minus premise), ties to the earliest rule. The rule
//!    that first derived `b` qualifies, so there is always one; ranks fall
//!    along every charge, so the walk below ends. Charging the *first*
//!    deriver instead picks, on `ec4_4_3_2`, a view whose fresh `F` lacks
//!    the `F2..F4` the query needs, where the index rule that derives the
//!    same fact binding with `r = t` carries them.
//! 3. **Walk.** From the bindings of the first image in the closure that
//!    are outside `keep`, follow each binding's charged rule to its
//!    premise's bindings outside `keep`. The support is the constraints of
//!    the rules reached, plus every constraint without an existential part
//!    (the keys: their steps only merge classes, and the walk sees none of
//!    them).
//!
//! # Why a support proof is sound
//!
//! The lattice first chases the candidate under the support Σ′ alone
//! (`Chaser::chase_under` in [`crate::chase`]), and takes a yes there as the
//! verdict.
//!
//! 1. Σ′ ⊆ Σ. Every instance that satisfies Σ satisfies Σ′, so a candidate
//!    contained in `q0` under Σ′ is contained in it under Σ; `q0` is
//!    contained in every candidate already (the borders' argument). A yes
//!    under Σ′ is a yes under Σ — the monotonicity ROADMAP item 19 rests on.
//! 2. A subset of a weakly acyclic set is weakly acyclic (its dependency
//!    graph is a subgraph), so the support chase of a certified set
//!    terminates; the caps still guard an uncertified slice.
//! 3. A support chase that finds no output-preserving homomorphism, or hits
//!    a cap, decides nothing: Σ′ may simply be too small. The chase is
//!    *widened*: it goes on from where it stopped, on the same database,
//!    under all of Σ. Every step under Σ′ is a step under Σ, so that is a
//!    chase of the candidate under Σ, and a chase that terminates is a
//!    universal model of the candidate and Σ (Fagin, Kolaitis, Miller and
//!    Popa, *Data exchange*, ICDT 2003) — it has an output-preserving image
//!    of `q0` exactly when a fresh chase under Σ has one. So every verdict —
//!    and with it every border, plan and count of `explored` — is the one
//!    the full check gives; only where a verdict came from changes. Debug
//!    builds re-prove every verdict, widened ones included, by a fresh
//!    chase under Σ.

use cnb_ir::prelude::Var;

use crate::bitset::VarSet;
use crate::canon::CanonDb;
use crate::equivalence::CompiledChecker;

/// One derivation read off `U` (see the module docs).
struct Rule {
    /// The bindings of the universal part's image.
    premise: VarSet,
    /// The bindings of one witness of the existential part.
    witness: VarSet,
    /// The constraint it came from, as an index into the checker's slice.
    constraint: usize,
    /// How many bindings of `witness` are not in `premise`.
    fresh: usize,
}

/// The rules and images of one chased universal plan (see the module docs),
/// with the buffers a support recycles.
pub(crate) struct Derivations {
    /// One rule per homomorphism of a universal part into `U`, the ones
    /// whose witness lies inside their premise left out.
    rules: Vec<Rule>,
    /// The bindings of each output-preserving homomorphism of `q0` into `U`.
    images: Vec<VarSet>,
    /// Per constraint: it has no existential part. Every support holds it.
    keys: Vec<bool>,
    /// The closure under the rules of the set last asked about.
    closure: VarSet,
    /// Per variable of `U`: the rank of a closure binding (0 for the set
    /// asked about, else the rule application that added it). Stale
    /// outside `closure`.
    rank: Vec<u32>,
    /// The support being read off: per constraint, is it in?
    mask: Vec<bool>,
    /// The walk's bindings to charge, and the ones it has reached.
    stack: Vec<Var>,
    seen: VarSet,
}

impl Derivations {
    /// Reads the rules and images off `udb`, the universal plan chased by
    /// `checker`'s constraints, under a savepoint that is rolled back.
    pub(crate) fn build(checker: &mut CompiledChecker<'_>, udb: &mut CanonDb) -> Derivations {
        let set = |vars: &[Var]| VarSet::from_iter(vars.iter().copied());
        let sp = udb.cong.save();
        let mut rules = Vec::new();
        let fixpoint = checker
            .chaser
            .witnesses(udb, |constraint, premise, witness| {
                let (premise, witness) = (set(premise), set(witness));
                if !witness.is_subset(&premise) {
                    let fresh = witness.iter().filter(|&v| !premise.contains(v)).count();
                    rules.push(Rule {
                        premise,
                        witness,
                        constraint,
                        fresh,
                    });
                }
            });
        let mut images = Vec::new();
        checker.images(udb, |image| images.push(set(image)));
        udb.cong.rollback(sp);
        if !fixpoint {
            // Step 2 needs a witness for every premise. The empty image
            // lies in every closure: refute nothing.
            images = vec![VarSet::new()];
        }
        let keys: Vec<bool> = checker
            .spec
            .constraints
            .iter()
            .map(|c| c.existential.is_empty())
            .collect();
        Derivations {
            rules,
            images,
            mask: Vec::with_capacity(keys.len()),
            keys,
            closure: VarSet::new(),
            rank: vec![0; udb.query.var_bound() as usize],
            stack: Vec::new(),
            seen: VarSet::new(),
        }
    }

    /// The support of `keep` (module docs), as a mask over the checker's
    /// constraints; `None` when `keep` is refuted: its closure under the
    /// rules holds no image.
    pub(crate) fn support(&mut self, keep: &VarSet) -> Option<&[bool]> {
        self.close(keep);
        let Derivations {
            rules,
            images,
            keys,
            closure,
            rank,
            mask,
            stack,
            seen,
            ..
        } = self;
        let image = images.iter().find(|image| image.is_subset(closure))?;
        mask.clone_from(keys);
        seen.clone_from(keep);
        stack.clear();
        stack.extend(image.iter().filter(|&v| seen.insert(v)));
        while let Some(b) = stack.pop() {
            let below = |p: Var| closure.contains(p) && rank[p.index()] < rank[b.index()];
            let charged = rules
                .iter()
                .filter(|r| r.witness.contains(b) && r.premise.iter().all(below))
                .min_by_key(|r| r.fresh)?;
            mask[charged.constraint] = true;
            stack.extend(charged.premise.iter().filter(|&p| seen.insert(p)));
        }
        Some(mask)
    }

    /// Closes `keep` under the rules, one application at a time, ranking
    /// each binding it adds.
    fn close(&mut self, keep: &VarSet) {
        let Derivations {
            rules,
            closure,
            rank,
            ..
        } = self;
        closure.clone_from(keep);
        for v in keep.iter() {
            rank[v.index()] = 0;
        }
        let mut applied = 0;
        let mut grown = true;
        while grown {
            grown = false;
            for rule in rules.iter() {
                if rule.premise.is_subset(closure) && !rule.witness.is_subset(closure) {
                    applied += 1;
                    for v in rule.witness.iter() {
                        if closure.insert(v) {
                            rank[v.index()] = applied;
                        }
                    }
                    grown = true;
                }
            }
        }
    }
}
