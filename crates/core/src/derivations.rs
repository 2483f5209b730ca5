//! Refuting a candidate from the universal plan's derivations, no chase.
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
//!   with `max_homs: 1`). `U` is a chase fixpoint, so a witness exists;
//! * **images** — every homomorphism of `q0`'s body into `U` that maps each
//!   output path onto itself under `U`'s closure, as its bindings.
//!
//! A candidate `keep` is **refuted** when closing `keep` under the rules
//! (premise ⊆ set ⇒ add the witness) reaches a fixpoint that contains no
//! image.
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

use cnb_ir::prelude::Var;

use crate::bitset::VarSet;
use crate::canon::CanonDb;
use crate::equivalence::CompiledChecker;

/// The rules and images of one chased universal plan (see the module docs),
/// with the closure buffer a refutation recycles.
pub(crate) struct Derivations {
    /// `(premise, witness)` per homomorphism of a universal part into `U`,
    /// the ones whose witness lies inside their premise left out.
    rules: Vec<(VarSet, VarSet)>,
    /// The bindings of each output-preserving homomorphism of `q0` into `U`.
    images: Vec<VarSet>,
    /// The closure being computed.
    closure: VarSet,
}

impl Derivations {
    /// Reads the rules and images off `udb`, the universal plan chased by
    /// `checker`'s constraints, under a savepoint that is rolled back.
    pub(crate) fn build(checker: &mut CompiledChecker<'_>, udb: &mut CanonDb) -> Derivations {
        let set = |vars: &[Var]| VarSet::from_iter(vars.iter().copied());
        let sp = udb.cong.save();
        let mut rules = Vec::new();
        let fixpoint = checker.chaser.witnesses(udb, |premise, witness| {
            let (premise, witness) = (set(premise), set(witness));
            if !witness.is_subset(&premise) {
                rules.push((premise, witness));
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
        Derivations {
            rules,
            images,
            closure: VarSet::new(),
        }
    }

    /// Is `keep` refuted: does its closure under the rules hold no image?
    pub(crate) fn refutes(&mut self, keep: &VarSet) -> bool {
        let Derivations {
            rules,
            images,
            closure,
        } = self;
        closure.clone_from(keep);
        let mut grown = true;
        while grown {
            grown = false;
            for (premise, witness) in rules.iter() {
                if premise.is_subset(closure) && !witness.is_subset(closure) {
                    closure.union_with(witness);
                    grown = true;
                }
            }
        }
        !images.iter().any(|image| image.is_subset(closure))
    }
}
