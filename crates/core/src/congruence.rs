//! Congruence closure over path terms.
//!
//! The paper's prototype compiles queries and constraints into "a congruence
//! closure based canonical database representation … that allows for fast
//! reasoning about equality" (§4), a variation of Nelson–Oppen union/find
//! \[25\]. This module is that structure.
//!
//! Terms are hash-consed path expressions: variables, constants, field
//! projections, dictionary lookups and struct constructors. The closure
//! maintains:
//!
//! * **upward congruence** — if `a ≡ b` then `a.A ≡ b.A` and `M[a] ≡ M[b]`
//!   (for the parent terms that exist in the arena), and
//! * **downward struct injectivity** — if `struct(A=x,…) ≡ struct(A=y,…)`
//!   then `x ≡ y` (records are equal iff their fields are), which is what
//!   lets a composite-index key `k = struct(A=r.A, B=b, C=c)` propagate
//!   equalities onto its components.
//!
//! Two distinct constants in one class are merged like any other terms and
//! flagged nowhere: the serving path's placeholders `?0` and `?1` are
//! distinct constants here, and `?0 = ?1` holds under every binding that
//! gives them one value.
//!
//! # Savepoints
//!
//! The backchase probes thousands of restrictions of one closure; rebuilding
//! (or cloning) the structure per probe dominated its profile. Instead the
//! closure keeps an *undo trail*: while a [`Savepoint`] is active, every
//! mutation — arena pushes, intern/signature insertions, union-find parent
//! writes (path compression included), member/use-list splices, scratch
//! promotions — records its inverse, and [`Congruence::rollback`] replays the
//! inverses in reverse, restoring the structure **byte-exactly** in O(delta)
//! instead of O(db). Byte-exactness (not just logical equivalence) is what
//! lets the savepoint path replace the old clone-per-candidate path without
//! perturbing term-id tie-breaks, and with them plan text and order.
//! Savepoints nest; rolling back an outer savepoint discards inner ones.
//! With no savepoint active the trail is off and mutations cost nothing
//! extra.
//!
//! # List ownership
//!
//! A class's member and use lists are `Vec`s the closure owns, one pair per
//! arena slot, and they outlive the terms that fill them. [`Congruence::clear`]
//! and a rollback past a term's creation empty the slot's lists and keep
//! their buffers: the two list columns are at least as long as the arena,
//! the lists past it are empty spares, and the next term interned into a
//! slot pushes itself onto the list that is already there. A union appends
//! the absorbed representative's lists to the absorbing one's *by copy*, and
//! its undo copies the tails back; neither moves a `Vec`. Element order is
//! exactly what `extend` and `split_off` would give, and has to be:
//! [`Congruence::class_paths_over`] reads a member list in order, and the
//! order in which an absorbed class's parents are re-signatured decides which
//! unions the worklist performs first — and with them every later term id.
//!
//! So a closure that is recycled — the equivalence checker's scratch database
//! is cleared and reloaded once per backchase candidate, the universal plan is
//! rolled back once per candidate — allocates for its lists only until they
//! have grown to the largest class they ever held, and nothing but capacity
//! crosses a `clear()` (`tests/property_based.rs`,
//! `cleared_congruence_replays_like_a_fresh_one`). The same goes for the two
//! stacks the class rewrites walk (`snapshots`, `rewriting`): pushed and
//! popped, never allocated per call.

use cnb_ir::prelude::{PathExpr, Symbol, Value, Var};

use crate::bitset::VarSet;
use crate::fxhash::FxHashMap;

/// Handle to a hash-consed term.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TermId(u32);

impl TermId {
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One node of the term arena. Children are *original* (non-canonical) ids.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TermNode {
    /// A variable.
    Var(Var),
    /// A constant.
    Const(Value),
    /// `base.field`
    Field(TermId, Symbol),
    /// `dict[key]`
    Lookup(Symbol, TermId),
    /// `struct(f = t, ...)`
    Struct(Vec<(Symbol, TermId)>),
}

/// Canonical signature of a composite node: like [`TermNode`] but with
/// canonicalized children. Two live terms with equal signatures are congruent.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Sig {
    Field(TermId, Symbol),
    Lookup(Symbol, TermId),
    Struct(Vec<(Symbol, TermId)>),
}

/// One logged mutation; [`Congruence::rollback`] applies the inverses in
/// reverse trail order. Each variant is the *complete* undo information for
/// its mutation given that every later mutation has already been undone.
#[derive(Clone, Debug)]
enum TrailOp {
    /// A term was appended to the arena (and to `intern` and every per-term
    /// column). Undo pops all of them.
    NewTerm,
    /// A union-find parent pointer was overwritten (union or compression).
    Parent { t: TermId, old: TermId },
    /// `uses[rep]` grew by one entry (child registration of a new term).
    UsePush { rep: TermId },
    /// `sigs` gained this key (signatures are inserted only when absent,
    /// never overwritten, so removal is the exact inverse).
    SigInsert { sig: Sig },
    /// A union spliced `members[small]`/`uses[small]` onto the big rep's
    /// lists; the recorded lengths let undo split the tails back off.
    UnionLists {
        big: TermId,
        small: TermId,
        members_kept: usize,
        uses_kept: usize,
    },
    /// A scratch term was promoted to real (`true` → `false`).
    ScratchClear { t: TermId },
}

/// A mark in the mutation trail; see [`Congruence::save`]. Deliberately not
/// `Clone`/`Copy`: [`Congruence::rollback`] consumes the savepoint, so
/// rolling the same point back twice — which would silently unwind a later
/// savepoint's work — is a compile error instead of a runtime hazard.
#[derive(Debug)]
pub struct Savepoint {
    trail_len: usize,
    depth: usize,
    len: usize,
    /// Unique id checked against the closure's live-savepoint stack, so a
    /// savepoint discarded by an outer rollback (or `clear`) panics on use
    /// instead of unwinding to a meaningless trail offset.
    token: u64,
    scratch_mode: bool,
}

/// Union-find with congruence over the term arena.
#[derive(Clone, Default)]
pub struct Congruence {
    nodes: Vec<TermNode>,
    /// Hash-consing of exact nodes.
    intern: FxHashMap<TermNode, TermId>,
    /// Union-find parent pointers.
    parent: Vec<TermId>,
    /// Class member lists (only reps have non-empty lists). Like `uses`, at
    /// least as long as the arena: the lists past it are empty spares (see
    /// "List ownership" in the module docs).
    members: Vec<Vec<TermId>>,
    /// Parent terms that have a child in this class (only reps maintained).
    uses: Vec<Vec<TermId>>,
    /// Canonical-signature table for congruence detection.
    sigs: FxHashMap<Sig, TermId>,
    /// Variable support of each term (all vars occurring in it).
    support: Vec<VarSet>,
    /// Whether the term was created during scratch reasoning (homomorphism
    /// probes) rather than from the query/chase itself.
    scratch: Vec<bool>,
    /// Scratch mode flag for new terms.
    scratch_mode: bool,
    /// Pending congruence merges.
    worklist: Vec<(TermId, TermId)>,
    /// Undo trail, recorded only while a savepoint is active.
    trail: Vec<TrailOp>,
    /// Number of active savepoints (0 = trail off).
    save_depth: usize,
    /// Tokens of the live savepoints, innermost last (len == `save_depth`).
    live_saves: Vec<u64>,
    /// Member-list snapshots of the class rewrites in flight, innermost
    /// last: a rewrite interns terms while it walks a class, so it walks a
    /// copy — pushed here and popped when it is done, not allocated.
    /// Empty between calls.
    snapshots: Vec<TermId>,
    /// The classes a [`Congruence::rewrite_over`] is inside of, recycled
    /// from one rewrite to the next. Empty between calls.
    rewriting: Vec<TermId>,
}

/// Savepoint tokens come from one process-global counter (never 0), so a
/// savepoint from another `Congruence` instance can never match a token on
/// this instance's live stack — "foreign" detection is genuinely
/// instance-scoped, not just depth-scoped.
fn fresh_save_token() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

impl Congruence {
    /// An empty congruence.
    pub fn new() -> Congruence {
        Congruence::default()
    }

    /// Switches scratch mode; terms interned while on are marked scratch and
    /// excluded from closure enumeration ([`Congruence::class_paths_over`]).
    pub fn set_scratch_mode(&mut self, on: bool) {
        self.scratch_mode = on;
    }

    /// Number of terms in the arena.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True while a savepoint is active (mutations are being trailed).
    #[inline]
    fn trailing(&self) -> bool {
        self.save_depth != 0
    }

    /// Opens a savepoint: every subsequent mutation is recorded on the undo
    /// trail until [`Congruence::rollback`] restores this point. Savepoints
    /// nest. Must not be called with congruence propagation in flight.
    pub fn save(&mut self) -> Savepoint {
        debug_assert!(self.worklist.is_empty(), "save during propagation");
        self.save_depth += 1;
        let token = fresh_save_token();
        self.live_saves.push(token);
        Savepoint {
            trail_len: self.trail.len(),
            depth: self.save_depth,
            len: self.nodes.len(),
            token,
            scratch_mode: self.scratch_mode,
        }
    }

    /// Rolls the closure back to `sp`, undoing every mutation since —
    /// O(delta), byte-exact (see the module docs). Inner savepoints opened
    /// after `sp` are discarded; `sp` itself is consumed.
    pub fn rollback(&mut self, sp: Savepoint) {
        assert!(
            sp.depth >= 1
                && self.live_saves.get(sp.depth - 1) == Some(&sp.token)
                && sp.trail_len <= self.trail.len(),
            "rollback of a stale or foreign savepoint"
        );
        debug_assert!(self.worklist.is_empty(), "rollback during propagation");
        self.live_saves.truncate(sp.depth - 1);
        while self.trail.len() > sp.trail_len {
            #[expect(clippy::expect_used, reason = "the loop keeps the trail non-empty")]
            let op = self.trail.pop().expect("trail length checked");
            self.undo(op);
        }
        self.save_depth = sp.depth - 1;
        self.scratch_mode = sp.scratch_mode;
        debug_assert_eq!(
            self.nodes.len(),
            sp.len,
            "rollback did not restore the arena"
        );
        if cfg!(debug_assertions) {
            self.assert_consistent("rollback");
        }
    }

    fn undo(&mut self, op: TrailOp) {
        match op {
            TrailOp::NewTerm => {
                #[expect(clippy::expect_used, reason = "each NewTerm op pushed one node")]
                let node = self.nodes.pop().expect("trail out of sync with arena");
                self.intern.remove(&node);
                self.parent.pop();
                self.members[self.nodes.len()].clear();
                self.uses[self.nodes.len()].clear();
                self.support.pop();
                self.scratch.pop();
            }
            TrailOp::Parent { t, old } => self.parent[t.idx()] = old,
            TrailOp::UsePush { rep } => {
                self.uses[rep.idx()].pop();
            }
            TrailOp::SigInsert { sig } => {
                self.sigs.remove(&sig);
            }
            TrailOp::UnionLists {
                big,
                small,
                members_kept,
                uses_kept,
            } => {
                move_tail(&mut self.members, big, members_kept, small);
                move_tail(&mut self.uses, big, uses_kept, small);
            }
            TrailOp::ScratchClear { t } => self.scratch[t.idx()] = true,
        }
    }

    /// Resets to the empty closure, keeping the arena and table allocations —
    /// how the equivalence checker's scratch database is recycled between
    /// candidates. Must not be called under an active savepoint.
    pub fn clear(&mut self) {
        debug_assert!(self.worklist.is_empty(), "clear during propagation");
        debug_assert_eq!(self.save_depth, 0, "clear under an active savepoint");
        // In release builds a clear under an active savepoint must still
        // leave a total state: zero the depth so the trail does not keep
        // recording forever, and drop the live tokens so any outstanding
        // savepoint fails its rollback check loudly instead of scrambling
        // the recycled closure.
        self.save_depth = 0;
        self.live_saves.clear();
        let n = self.nodes.len();
        for list in self.members[..n].iter_mut().chain(&mut self.uses[..n]) {
            list.clear();
        }
        self.nodes.clear();
        self.intern.clear();
        self.parent.clear();
        self.sigs.clear();
        self.support.clear();
        self.scratch.clear();
        self.scratch_mode = false;
        self.worklist.clear();
        self.trail.clear();
        self.snapshots.clear();
        self.rewriting.clear();
    }

    /// Full structural audit every rollback runs in debug builds: hash-consing
    /// bijective, per-term columns aligned, member lists a partition of the
    /// arena agreeing with the union-find.
    fn assert_consistent(&self, when: &str) {
        let n = self.nodes.len();
        assert!(
            self.parent.len() == n
                && self.members.len() >= n
                && self.uses.len() == self.members.len()
                && self.support.len() == n
                && self.scratch.len() == n,
            "{when}: per-term columns out of step with the arena"
        );
        assert!(
            self.members[n..]
                .iter()
                .chain(&self.uses[n..])
                .all(Vec::is_empty),
            "{when}: a spare list past the arena is not empty"
        );
        assert_eq!(self.intern.len(), n, "{when}: intern table not bijective");
        let mut seen = 0usize;
        for i in 0..n {
            let t = TermId(i as u32);
            assert_eq!(
                self.intern.get(&self.nodes[i]),
                Some(&t),
                "{when}: node {i} not interned at its own id"
            );
            let rep = self.find_ref(t);
            if rep == t {
                for &m in &self.members[i] {
                    assert_eq!(
                        self.find_ref(m),
                        rep,
                        "{when}: member list of {i} holds a foreign term"
                    );
                }
                seen += self.members[i].len();
            } else {
                assert!(
                    self.members[i].is_empty(),
                    "{when}: non-rep {i} kept a member list"
                );
            }
        }
        assert_eq!(seen, n, "{when}: member lists are not a partition");
    }

    /// Interns a node, returning its term id (allocating if new and merging
    /// with any congruent existing term).
    pub fn term(&mut self, node: TermNode) -> TermId {
        if let Some(&t) = self.intern.get(&node) {
            // Promote: a term re-interned outside scratch mode is real, even
            // if a scratch probe created it first.
            if !self.scratch_mode {
                self.promote(t);
            }
            return t;
        }
        #[expect(clippy::expect_used, reason = "memory runs out before 2^32 terms")]
        let id = TermId(u32::try_from(self.nodes.len()).expect("term arena overflow"));
        // Compute support and register with children.
        let mut support = VarSet::new();
        match &node {
            TermNode::Var(v) => {
                support.insert(*v);
            }
            TermNode::Const(_) => {}
            TermNode::Field(base, _) => support.union_with(&self.support[base.idx()]),
            TermNode::Lookup(_, key) => support.union_with(&self.support[key.idx()]),
            TermNode::Struct(fields) => {
                for (_, t) in fields {
                    support.union_with(&self.support[t.idx()]);
                }
            }
        }
        self.nodes.push(node.clone());
        self.intern.insert(node, id);
        self.parent.push(id);
        if self.members.len() == id.idx() {
            self.members.push(Vec::new());
            self.uses.push(Vec::new());
        }
        self.members[id.idx()].push(id);
        self.support.push(support);
        self.scratch.push(self.scratch_mode);
        if self.trailing() {
            self.trail.push(TrailOp::NewTerm);
        }
        // Register in children's use lists and check congruence.
        let mut k = 0;
        while let Some(child) = self.child(id, k) {
            let r = self.find(child);
            self.use_push(r, id);
            k += 1;
        }
        if let Some(sig) = self.signature(id) {
            if let Some(&other) = self.sigs.get(&sig) {
                self.worklist.push((id, other));
            } else {
                self.sig_insert(sig, id);
            }
        }
        // Projection over constructor: a fresh `base.f` term where `base`'s
        // class contains `struct(..., f = c, ...)` is equal to `c`.
        if let TermNode::Field(base, f) = self.nodes[id.idx()] {
            let rep = self.find(base);
            for &m in &self.members[rep.idx()] {
                if let Some(child) = field_of_struct(&self.nodes[m.idx()], f) {
                    self.worklist.push((id, child));
                }
            }
        }
        self.drain_worklist();
        id
    }

    /// The `k`-th child of a composite term, in registration order.
    fn child(&self, t: TermId, k: usize) -> Option<TermId> {
        match &self.nodes[t.idx()] {
            TermNode::Var(_) | TermNode::Const(_) => None,
            TermNode::Field(child, _) | TermNode::Lookup(_, child) => (k == 0).then_some(*child),
            TermNode::Struct(fields) => fields.get(k).map(|(_, c)| *c),
        }
    }

    /// Interns a path expression.
    pub fn intern_path(&mut self, p: &PathExpr) -> TermId {
        self.intern_path_mapped(p, &[])
    }

    /// Interns the image of `p` under the variable assignment `map` (indexed
    /// by variable id; a variable with no entry, or a `None` one, stays as it
    /// is): exactly the terms, in exactly the order, that interning the
    /// substituted path would create — without building that path. Every
    /// homomorphism probe comes through here.
    pub fn intern_path_mapped(&mut self, p: &PathExpr, map: &[Option<Var>]) -> TermId {
        match p {
            PathExpr::Var(v) => {
                let image = map.get(v.index()).copied().flatten().unwrap_or(*v);
                self.term(TermNode::Var(image))
            }
            PathExpr::Const(c) => self.term(TermNode::Const(c.clone())),
            PathExpr::Field(base, f) => {
                let b = self.intern_path_mapped(base, map);
                self.term(TermNode::Field(b, *f))
            }
            PathExpr::Lookup(dict, key) => {
                let k = self.intern_path_mapped(key, map);
                self.term(TermNode::Lookup(*dict, k))
            }
            PathExpr::MkStruct(fields) => {
                let ts: Vec<(Symbol, TermId)> = fields
                    .iter()
                    .map(|(name, p)| (*name, self.intern_path_mapped(p, map)))
                    .collect();
                self.term(TermNode::Struct(ts))
            }
        }
    }

    /// True if `lmap(lhs) = rmap(rhs)` follows from the closure. The probe
    /// terms are interned in scratch mode (see [`crate::canon::CanonDb::implied`]
    /// for why they are flagged and not rolled back one by one).
    pub(crate) fn probe_equal(
        &mut self,
        (lhs, lmap): (&PathExpr, &[Option<Var>]),
        (rhs, rmap): (&PathExpr, &[Option<Var>]),
    ) -> bool {
        self.set_scratch_mode(true);
        let l = self.intern_path_mapped(lhs, lmap);
        let r = self.intern_path_mapped(rhs, rmap);
        self.set_scratch_mode(false);
        self.equal(l, r)
    }

    /// Promotes a scratch term to real, trailing the flip.
    fn promote(&mut self, t: TermId) {
        if self.scratch[t.idx()] {
            if self.trailing() {
                self.trail.push(TrailOp::ScratchClear { t });
            }
            self.scratch[t.idx()] = false;
        }
    }

    /// Appends to a rep's use list, trailing the push.
    fn use_push(&mut self, rep: TermId, id: TermId) {
        if self.trailing() {
            self.trail.push(TrailOp::UsePush { rep });
        }
        self.uses[rep.idx()].push(id);
    }

    /// Inserts a (known-absent) signature, trailing the insertion.
    fn sig_insert(&mut self, sig: Sig, id: TermId) {
        if self.trailing() {
            self.trail.push(TrailOp::SigInsert { sig: sig.clone() });
        }
        self.sigs.insert(sig, id);
    }

    /// Overwrites a union-find parent pointer, trailing the old value.
    fn set_parent(&mut self, t: TermId, new: TermId) {
        if self.trailing() {
            let old = self.parent[t.idx()];
            self.trail.push(TrailOp::Parent { t, old });
        }
        self.parent[t.idx()] = new;
    }

    /// Canonical representative of `t`'s class (with path compression).
    pub fn find(&mut self, t: TermId) -> TermId {
        let mut root = t;
        while self.parent[root.idx()] != root {
            root = self.parent[root.idx()];
        }
        // Path compression (trailed like any parent write: compression does
        // not change roots, but byte-exact rollback is what keeps savepoint
        // runs indistinguishable from clone-based ones).
        let mut cur = t;
        while self.parent[cur.idx()] != root {
            let next = self.parent[cur.idx()];
            self.set_parent(cur, root);
            cur = next;
        }
        root
    }

    /// Representative without mutation (no compression).
    pub fn find_ref(&self, t: TermId) -> TermId {
        let mut root = t;
        while self.parent[root.idx()] != root {
            root = self.parent[root.idx()];
        }
        root
    }

    /// True if the two terms are provably equal.
    pub fn equal(&mut self, a: TermId, b: TermId) -> bool {
        self.find(a) == self.find(b)
    }

    /// Asserts `a = b` and propagates congruence.
    pub fn merge(&mut self, a: TermId, b: TermId) {
        self.worklist.push((a, b));
        self.drain_worklist();
    }

    fn drain_worklist(&mut self) {
        while let Some((a, b)) = self.worklist.pop() {
            self.union_once(a, b);
        }
    }

    fn union_once(&mut self, a: TermId, b: TermId) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        // Union by size.
        let (big, small) = if self.members[ra.idx()].len() >= self.members[rb.idx()].len() {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.set_parent(small, big);

        // Downward struct injectivity: pair struct members across the two
        // classes with identical field-name lists.
        for &ma in &self.members[big.idx()] {
            let TermNode::Struct(fa) = &self.nodes[ma.idx()] else {
                continue;
            };
            for &mb in &self.members[small.idx()] {
                let TermNode::Struct(fb) = &self.nodes[mb.idx()] else {
                    continue;
                };
                if fa.len() == fb.len() && fa.iter().zip(fb).all(|((n1, _), (n2, _))| n1 == n2) {
                    for ((_, t1), (_, t2)) in fa.iter().zip(fb) {
                        self.worklist.push((*t1, *t2));
                    }
                }
            }
        }

        // Merge member and use lists, trailing the splice point so rollback
        // can split the tails back off onto the absorbed rep.
        if self.trailing() {
            self.trail.push(TrailOp::UnionLists {
                big,
                small,
                members_kept: self.members[big.idx()].len(),
                uses_kept: self.uses[big.idx()].len(),
            });
        }
        move_tail(&mut self.members, small, 0, big);

        // Re-signature the parents of the absorbed class.
        for k in 0..self.uses[small.idx()].len() {
            let p = self.uses[small.idx()][k];
            if let Some(sig) = self.signature(p) {
                if let Some(&other) = self.sigs.get(&sig) {
                    if self.find_ref(other) != self.find_ref(p) {
                        self.worklist.push((p, other));
                    }
                } else {
                    self.sig_insert(sig, p);
                }
            }
        }
        move_tail(&mut self.uses, small, 0, big);

        // Projection over constructor across the merged class: every
        // `x.f` parent whose base is in this class equals the `f`-child of
        // every struct member of the class.
        let is_struct = |m: &TermId| matches!(self.nodes[m.idx()], TermNode::Struct(_));
        if self.members[big.idx()].iter().any(is_struct) {
            for &p in &self.uses[big.idx()] {
                if let TermNode::Field(base, f) = self.nodes[p.idx()] {
                    if self.find_ref(base) == big {
                        for &m in &self.members[big.idx()] {
                            if let Some(child) = field_of_struct(&self.nodes[m.idx()], f) {
                                self.worklist.push((p, child));
                            }
                        }
                    }
                }
            }
        }
    }

    /// Canonical signature of a composite term (None for vars/consts).
    fn signature(&mut self, t: TermId) -> Option<Sig> {
        match self.nodes[t.idx()] {
            TermNode::Var(_) | TermNode::Const(_) => None,
            TermNode::Field(base, f) => Some(Sig::Field(self.find(base), f)),
            TermNode::Lookup(dict, key) => Some(Sig::Lookup(dict, self.find(key))),
            TermNode::Struct(ref fields) => {
                let mut canonical = fields.clone();
                for (_, c) in &mut canonical {
                    *c = self.find(*c);
                }
                Some(Sig::Struct(canonical))
            }
        }
    }

    /// The node of a term.
    pub fn node(&self, t: TermId) -> &TermNode {
        &self.nodes[t.idx()]
    }

    /// The variable support of a term.
    pub fn support(&self, t: TermId) -> &VarSet {
        &self.support[t.idx()]
    }

    /// True if the term was interned during scratch reasoning.
    pub fn is_scratch(&self, t: TermId) -> bool {
        self.scratch[t.idx()]
    }

    /// Reconstructs the exact path expression of a term.
    pub fn path_of(&self, t: TermId) -> PathExpr {
        match &self.nodes[t.idx()] {
            TermNode::Var(v) => PathExpr::Var(*v),
            TermNode::Const(c) => PathExpr::Const(c.clone()),
            TermNode::Field(base, f) => self.path_of(*base).dot(*f),
            TermNode::Lookup(dict, key) => PathExpr::Lookup(*dict, Box::new(self.path_of(*key))),
            TermNode::Struct(fields) => {
                PathExpr::MkStruct(fields.iter().map(|(n, c)| (*n, self.path_of(*c))).collect())
            }
        }
    }

    /// Size (node count) of a term, for choosing small representatives.
    pub fn term_size(&self, t: TermId) -> usize {
        match &self.nodes[t.idx()] {
            TermNode::Var(_) | TermNode::Const(_) => 1,
            TermNode::Field(base, _) => 1 + self.term_size(*base),
            TermNode::Lookup(_, key) => 1 + self.term_size(*key),
            TermNode::Struct(fields) => {
                1 + fields
                    .iter()
                    .map(|(_, c)| self.term_size(*c))
                    .sum::<usize>()
            }
        }
    }

    /// All current class representatives.
    pub fn class_reps(&mut self) -> Vec<TermId> {
        let mut reps = Vec::with_capacity(self.nodes.len());
        self.class_reps_into(&mut reps);
        reps
    }

    /// [`Congruence::class_reps`] into a recycled buffer.
    pub(crate) fn class_reps_into(&self, reps: &mut Vec<TermId>) {
        reps.clear();
        reps.extend(
            (0..self.nodes.len() as u32)
                .map(TermId)
                .filter(|t| self.find_ref(*t) == *t),
        );
    }

    /// Members of the class of `t`.
    pub fn class_members(&mut self, t: TermId) -> Vec<TermId> {
        let r = self.find(t);
        self.members[r.idx()].clone()
    }

    /// Non-scratch members of `t`'s class whose variable support is a subset
    /// of `allowed`, smallest terms first. This is the key operation of
    /// subquery induction: "find an equal path using only kept variables".
    pub fn class_paths_over(&mut self, t: TermId, allowed: &VarSet) -> Vec<TermId> {
        let r = self.find(t);
        let mut out: Vec<TermId> = self.paths_over(r, allowed).collect();
        out.sort_by_key(|&m| (self.term_size(m), m));
        out
    }

    /// The non-scratch members of `rep`'s list over `allowed`, in list order.
    pub(crate) fn paths_over<'s>(
        &'s self,
        rep: TermId,
        allowed: &'s VarSet,
    ) -> impl Iterator<Item = TermId> + 's {
        self.members[rep.idx()]
            .iter()
            .copied()
            .filter(move |m| !self.scratch[m.idx()] && self.support[m.idx()].is_subset(allowed))
    }

    /// Interns here the term `t` of `from`, children first, through
    /// `copies` — indexed by `from`'s term ids, `None` for a term not copied
    /// yet — and returns its id here. A term is copied once however many
    /// terms share it; `copies` grows to cover `t` as needed.
    pub(crate) fn copy_term(
        &mut self,
        from: &Congruence,
        t: TermId,
        copies: &mut Vec<Option<TermId>>,
    ) -> TermId {
        if copies.len() <= t.idx() {
            copies.resize(from.nodes.len(), None);
        }
        if let Some(copy) = copies[t.idx()] {
            return copy;
        }
        let node = match &from.nodes[t.idx()] {
            TermNode::Var(v) => TermNode::Var(*v),
            TermNode::Const(c) => TermNode::Const(c.clone()),
            TermNode::Field(base, f) => TermNode::Field(self.copy_term(from, *base, copies), *f),
            TermNode::Lookup(dict, key) => {
                TermNode::Lookup(*dict, self.copy_term(from, *key, copies))
            }
            TermNode::Struct(fields) => TermNode::Struct(
                fields
                    .iter()
                    .map(|(name, c)| (*name, self.copy_term(from, *c, copies)))
                    .collect(),
            ),
        };
        let copy = self.term(node);
        copies[t.idx()] = Some(copy);
        copy
    }

    /// Copies `rep`'s member list onto the snapshot stack and returns where
    /// it lies there. The caller truncates the stack back to the range's
    /// start when it is done with the copy.
    fn snapshot_members(&mut self, rep: TermId) -> std::ops::Range<usize> {
        let start = self.snapshots.len();
        self.snapshots.extend_from_slice(&self.members[rep.idx()]);
        start..self.snapshots.len()
    }

    /// An equal non-scratch term over `allowed`, if one exists or can be
    /// *constructed*: when no existing class member qualifies, composite
    /// members are rewritten child-wise (e.g. `M[k'].P` becomes `M[k].P` when
    /// `k' ≡ k`), interning the constructed term — which is sound because
    /// congruence immediately merges it back into the class.
    pub fn rewrite_over(&mut self, t: TermId, allowed: &VarSet) -> Option<TermId> {
        let mut seen = std::mem::take(&mut self.rewriting);
        let rewritten = self.rewrite_rec(t, allowed, &mut seen);
        self.rewriting = seen;
        rewritten
    }

    fn rewrite_rec(
        &mut self,
        t: TermId,
        allowed: &VarSet,
        seen: &mut Vec<TermId>,
    ) -> Option<TermId> {
        // Fast path: an existing member already qualifies — the one
        // `class_paths_over` lists first.
        let rep = self.find(t);
        let best = self
            .paths_over(rep, allowed)
            .min_by_key(|&m| (self.term_size(m), m));
        if best.is_some() {
            return best;
        }
        if seen.contains(&rep) {
            return None;
        }
        seen.push(rep);
        // Try to rebuild a composite member from rewritten children.
        let members = self.snapshot_members(rep);
        let mut result = None;
        for k in members.clone() {
            let m = self.snapshots[k];
            if self.scratch[m.idx()] {
                continue;
            }
            if let Some(r) = self.rebuild_member(m, allowed, seen) {
                result = Some(r);
                break;
            }
        }
        self.snapshots.truncate(members.start);
        seen.pop();
        result
    }

    /// Attempts to rebuild one composite member over `allowed` by rewriting
    /// its children; the rebuilt term is interned (and merged back into the
    /// class by congruence) and promoted to non-scratch.
    fn rebuild_member(
        &mut self,
        m: TermId,
        allowed: &VarSet,
        seen: &mut Vec<TermId>,
    ) -> Option<TermId> {
        let node = self.nodes[m.idx()].clone();
        let rebuilt = match node {
            TermNode::Var(_) | TermNode::Const(_) => None,
            TermNode::Field(base, f) => self
                .rewrite_rec(base, allowed, seen)
                .map(|b| self.term(TermNode::Field(b, f))),
            TermNode::Lookup(dict, key) => self
                .rewrite_rec(key, allowed, seen)
                .map(|k| self.term(TermNode::Lookup(dict, k))),
            TermNode::Struct(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                let mut ok = true;
                for (name, c) in fields {
                    match self.rewrite_rec(c, allowed, seen) {
                        Some(c2) => out.push((name, c2)),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    Some(self.term(TermNode::Struct(out)))
                } else {
                    None
                }
            }
        };
        let r = rebuilt?;
        if self.support(r).is_subset(allowed) {
            // The rebuilt term is derived from non-scratch members: promote
            // it even if a scratch probe interned it first.
            self.promote(r);
            Some(r)
        } else {
            None
        }
    }

    /// Saturates `t`'s class with constructible representatives over
    /// `allowed`: every member that is not already expressible gets one
    /// attempt at child-wise reconstruction. After saturation,
    /// [`Congruence::class_paths_over`] enumerates the full restriction of
    /// the class — which is what subquery induction needs to keep join
    /// conditions like `I[k].B = r2.A` alive when `r1` is removed.
    pub fn saturate_class_over(&mut self, t: TermId, allowed: &VarSet) {
        let rep = self.find(t);
        let members = self.snapshot_members(rep);
        let mut seen = std::mem::take(&mut self.rewriting);
        for k in members.clone() {
            let m = self.snapshots[k];
            if self.scratch[m.idx()] || self.support[m.idx()].is_subset(allowed) {
                continue;
            }
            let _ = self.rebuild_member(m, allowed, &mut seen);
        }
        self.rewriting = seen;
        self.snapshots.truncate(members.start);
    }
}

/// The `f`-child of a struct node; `None` for any other node or field.
fn field_of_struct(node: &TermNode, f: Symbol) -> Option<TermId> {
    match node {
        TermNode::Struct(fields) => fields.iter().find(|(n, _)| *n == f).map(|(_, c)| *c),
        _ => None,
    }
}

/// Moves `lists[from][keep..]` onto the end of `lists[to]`, by copy: both
/// lists keep their buffers and the elements their order (see "List
/// ownership" in the module docs).
fn move_tail(lists: &mut [Vec<TermId>], from: TermId, keep: usize, to: TermId) {
    #[expect(clippy::expect_used, reason = "a merge joins two distinct classes")]
    let [source, target] = lists
        .get_disjoint_mut([from.idx(), to.idx()])
        .expect("two distinct class representatives");
    target.extend_from_slice(&source[keep..]);
    source.truncate(keep);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnb_ir::prelude::sym;

    fn var(c: &mut Congruence, i: u32) -> TermId {
        c.term(TermNode::Var(Var(i)))
    }

    #[test]
    fn hashconsing() {
        let mut c = Congruence::new();
        let a = var(&mut c, 0);
        let b = var(&mut c, 0);
        assert_eq!(a, b);
        let f1 = c.term(TermNode::Field(a, sym("A")));
        let f2 = c.term(TermNode::Field(b, sym("A")));
        assert_eq!(f1, f2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn basic_union() {
        let mut c = Congruence::new();
        let x = var(&mut c, 0);
        let y = var(&mut c, 1);
        assert!(!c.equal(x, y));
        c.merge(x, y);
        assert!(c.equal(x, y));
    }

    #[test]
    fn upward_congruence_field() {
        let mut c = Congruence::new();
        let x = var(&mut c, 0);
        let y = var(&mut c, 1);
        let xa = c.term(TermNode::Field(x, sym("A")));
        let ya = c.term(TermNode::Field(y, sym("A")));
        assert!(!c.equal(xa, ya));
        c.merge(x, y);
        assert!(c.equal(xa, ya), "x = y must imply x.A = y.A");
    }

    #[test]
    fn upward_congruence_after_the_fact() {
        // Parent terms created *after* the merge must also be congruent.
        let mut c = Congruence::new();
        let x = var(&mut c, 0);
        let y = var(&mut c, 1);
        c.merge(x, y);
        let xa = c.term(TermNode::Field(x, sym("A")));
        let ya = c.term(TermNode::Field(y, sym("A")));
        assert!(c.equal(xa, ya));
    }

    #[test]
    fn upward_congruence_lookup() {
        let mut c = Congruence::new();
        let x = var(&mut c, 0);
        let y = var(&mut c, 1);
        let lx = c.term(TermNode::Lookup(sym("I"), x));
        let ly = c.term(TermNode::Lookup(sym("I"), y));
        c.merge(x, y);
        assert!(c.equal(lx, ly));
    }

    #[test]
    fn transitive_chains() {
        let mut c = Congruence::new();
        let ts: Vec<TermId> = (0..10).map(|i| var(&mut c, i)).collect();
        for w in ts.windows(2) {
            c.merge(w[0], w[1]);
        }
        assert!(c.equal(ts[0], ts[9]));
    }

    #[test]
    fn struct_injectivity() {
        let mut c = Congruence::new();
        let x = var(&mut c, 0);
        let y = var(&mut c, 1);
        let sx = c.term(TermNode::Struct(vec![(sym("A"), x)]));
        let sy = c.term(TermNode::Struct(vec![(sym("A"), y)]));
        c.merge(sx, sy);
        assert!(c.equal(x, y), "struct(A=x) = struct(A=y) must imply x = y");
    }

    #[test]
    fn struct_congruence_upward() {
        let mut c = Congruence::new();
        let x = var(&mut c, 0);
        let y = var(&mut c, 1);
        let sx = c.term(TermNode::Struct(vec![(sym("A"), x)]));
        let sy = c.term(TermNode::Struct(vec![(sym("A"), y)]));
        c.merge(x, y);
        assert!(
            c.equal(sx, sy),
            "x = y must imply struct(A=x) = struct(A=y)"
        );
    }

    #[test]
    fn nested_congruence_cascade() {
        // x = y should cascade through I[x].E = I[y].E.
        let mut c = Congruence::new();
        let x = var(&mut c, 0);
        let y = var(&mut c, 1);
        let lx = c.term(TermNode::Lookup(sym("I"), x));
        let ly = c.term(TermNode::Lookup(sym("I"), y));
        let ex = c.term(TermNode::Field(lx, sym("E")));
        let ey = c.term(TermNode::Field(ly, sym("E")));
        c.merge(x, y);
        assert!(c.equal(ex, ey));
    }

    #[test]
    fn projection_over_constructor() {
        // k = struct(A = x, B = 7) implies k.A = x and k.B = 7.
        let mut c = Congruence::new();
        let k = var(&mut c, 0);
        let x = var(&mut c, 1);
        let seven = c.term(TermNode::Const(Value::Int(7)));
        let st = c.term(TermNode::Struct(vec![(sym("A"), x), (sym("B"), seven)]));
        c.merge(k, st);
        let ka = c.term(TermNode::Field(k, sym("A")));
        let kb = c.term(TermNode::Field(k, sym("B")));
        assert!(c.equal(ka, x), "k.A = x");
        assert!(c.equal(kb, seven), "k.B = 7");
    }

    #[test]
    fn projection_with_preexisting_field_terms() {
        // Field terms created *before* the merge must also be caught.
        let mut c = Congruence::new();
        let k = var(&mut c, 0);
        let kb = c.term(TermNode::Field(k, sym("B")));
        let seven = c.term(TermNode::Const(Value::Int(7)));
        let st = c.term(TermNode::Struct(vec![(sym("B"), seven)]));
        c.merge(k, st);
        assert!(c.equal(kb, seven));
    }

    #[test]
    fn intern_path_round_trip() {
        let mut c = Congruence::new();
        let p = PathExpr::from(Var(0)).lookup_in("I").dot("E");
        let t = c.intern_path(&p);
        assert_eq!(c.path_of(t), p);
        assert_eq!(c.term_size(t), 3);
    }

    #[test]
    fn support_tracking() {
        let mut c = Congruence::new();
        let p = PathExpr::MkStruct(vec![
            (sym("A"), PathExpr::from(Var(1)).dot("A")),
            (sym("B"), PathExpr::from(Var(2))),
        ]);
        let t = c.intern_path(&p);
        let sup = c.support(t).clone();
        assert!(sup.contains(Var(1)));
        assert!(sup.contains(Var(2)));
        assert!(!sup.contains(Var(0)));
    }

    #[test]
    fn rewrite_over_subset() {
        // r.A = v.K, with v kept: rewriting r.A over {v} yields v.K.
        let mut c = Congruence::new();
        let ra = c.intern_path(&PathExpr::from(Var(0)).dot("A"));
        let vk = c.intern_path(&PathExpr::from(Var(1)).dot("K"));
        c.merge(ra, vk);
        let allowed = VarSet::from_iter([Var(1)]);
        let rw = c.rewrite_over(ra, &allowed).expect("rewritable");
        assert_eq!(c.path_of(rw), PathExpr::from(Var(1)).dot("K"));
        // Over the empty set nothing matches.
        assert!(c.rewrite_over(ra, &VarSet::new()).is_none());
    }

    #[test]
    fn rewrite_constructs_congruent_terms() {
        // k' = k; the term M[k'].P exists but M[k].P does not. Rewriting
        // M[k'].P over {k} must construct M[k].P.
        let mut c = Congruence::new();
        let k = c.intern_path(&PathExpr::from(Var(0)));
        let kp = c.intern_path(&PathExpr::from(Var(1)));
        let range = c.intern_path(&PathExpr::from(Var(1)).lookup_in("M").dot("P"));
        c.merge(k, kp);
        let allowed = VarSet::from_iter([Var(0)]);
        let rw = c.rewrite_over(range, &allowed).expect("constructible");
        assert_eq!(
            c.path_of(rw),
            PathExpr::from(Var(0)).lookup_in("M").dot("P")
        );
        // The constructed term is congruent to the original.
        assert!(c.equal(rw, range));
    }

    #[test]
    fn rewrite_fails_when_no_anchor() {
        // No equality at all: M[k'].P cannot be expressed without k'.
        let mut c = Congruence::new();
        let range = c.intern_path(&PathExpr::from(Var(1)).lookup_in("M").dot("P"));
        let allowed = VarSet::from_iter([Var(0)]);
        assert!(c.rewrite_over(range, &allowed).is_none());
    }

    #[test]
    fn scratch_terms_excluded_from_rewrites() {
        let mut c = Congruence::new();
        let ra = c.intern_path(&PathExpr::from(Var(0)).dot("A"));
        c.set_scratch_mode(true);
        let sb = c.intern_path(&PathExpr::from(Var(1)).dot("B"));
        c.set_scratch_mode(false);
        c.merge(ra, sb);
        let allowed = VarSet::from_iter([Var(1)]);
        assert!(
            c.rewrite_over(ra, &allowed).is_none(),
            "scratch member must not be offered as a rewrite"
        );
    }

    #[test]
    fn savepoint_rolls_back_merges_and_terms() {
        let mut c = Congruence::new();
        let x = var(&mut c, 0);
        let y = var(&mut c, 1);
        let xa = c.term(TermNode::Field(x, sym("A")));
        let sp = c.save();
        let z = var(&mut c, 2);
        c.merge(x, y);
        c.merge(y, z);
        assert!(c.equal(x, z));
        c.rollback(sp);
        assert_eq!(c.len(), 3, "term created under the savepoint removed");
        assert!(!c.equal(x, y));
        assert_eq!(c.class_members(x), vec![x]);
        assert_eq!(c.class_members(y), vec![y]);
        // Re-interning yields the same ids as before the rolled-back work.
        assert_eq!(var(&mut c, 2), z);
        assert_eq!(c.term(TermNode::Field(x, sym("A"))), xa);
    }

    #[test]
    fn nested_savepoints_roll_back_independently() {
        let mut c = Congruence::new();
        let x = var(&mut c, 0);
        let y = var(&mut c, 1);
        let z = var(&mut c, 2);
        let outer = c.save();
        c.merge(x, y);
        let inner = c.save();
        c.merge(y, z);
        assert!(c.equal(x, z));
        c.rollback(inner);
        assert!(c.equal(x, y));
        assert!(!c.equal(x, z));
        c.rollback(outer);
        assert!(!c.equal(x, y));
    }

    #[test]
    fn outer_rollback_discards_inner_savepoint() {
        let mut c = Congruence::new();
        let x = var(&mut c, 0);
        let y = var(&mut c, 1);
        let outer = c.save();
        c.merge(x, y);
        let _inner = c.save();
        let z = var(&mut c, 2);
        c.merge(x, z);
        c.rollback(outer);
        assert_eq!(c.len(), 2);
        assert!(!c.equal(x, y));
    }

    #[test]
    fn rollback_across_injectivity_cascade() {
        // Rolling back a merge that cascaded through struct injectivity and
        // upward congruence must unwind every derived equality too.
        let mut c = Congruence::new();
        let x = var(&mut c, 0);
        let y = var(&mut c, 1);
        let sx = c.term(TermNode::Struct(vec![(sym("A"), x)]));
        let sy = c.term(TermNode::Struct(vec![(sym("A"), y)]));
        let fx = c.term(TermNode::Field(x, sym("B")));
        let fy = c.term(TermNode::Field(y, sym("B")));
        let sp = c.save();
        c.merge(sx, sy);
        assert!(c.equal(x, y), "injectivity cascade");
        assert!(c.equal(fx, fy), "upward congruence from the cascade");
        c.rollback(sp);
        assert!(!c.equal(sx, sy));
        assert!(!c.equal(x, y));
        assert!(!c.equal(fx, fy));
        // The closure still works normally after the rollback.
        c.merge(x, y);
        assert!(c.equal(sx, sy));
        assert!(c.equal(fx, fy));
    }

    #[test]
    #[should_panic(expected = "stale or foreign savepoint")]
    fn discarded_inner_savepoint_cannot_roll_back_a_new_epoch() {
        // sp2 is discarded by the outer rollback; even after new savepoints
        // bring the depth and trail length back into plausible ranges, using
        // sp2 must panic rather than unwind the new epoch's work.
        let mut c = Congruence::new();
        let x = var(&mut c, 0);
        let y = var(&mut c, 1);
        let sp1 = c.save();
        c.merge(x, y);
        let sp2 = c.save();
        c.rollback(sp1);
        let _a = c.save();
        for i in 2..10 {
            var(&mut c, i);
        }
        let _b = c.save();
        c.rollback(sp2);
    }

    #[test]
    #[should_panic(expected = "stale or foreign savepoint")]
    fn foreign_savepoint_is_rejected() {
        // Tokens are process-global, so another instance's savepoint can
        // never match this instance's live stack even at the same depth.
        let mut c1 = Congruence::new();
        let mut c2 = Congruence::new();
        let sp1 = c1.save();
        let _sp2 = c2.save();
        c2.rollback(sp1);
    }

    #[test]
    fn outer_savepoint_survives_inner_rollback() {
        let mut c = Congruence::new();
        let x = var(&mut c, 0);
        let y = var(&mut c, 1);
        let z = var(&mut c, 2);
        let sp1 = c.save();
        c.merge(x, y);
        let sp2 = c.save();
        let _sp3 = c.save();
        c.merge(y, z);
        // Rolling back the middle savepoint discards _sp3 but leaves sp1
        // usable.
        c.rollback(sp2);
        assert!(c.equal(x, y));
        assert!(!c.equal(x, z));
        c.rollback(sp1);
        assert!(!c.equal(x, y));
    }

    #[test]
    fn rollback_restores_scratch_flags_and_mode() {
        let mut c = Congruence::new();
        c.set_scratch_mode(true);
        let probe = c.intern_path(&PathExpr::from(Var(0)).dot("A"));
        c.set_scratch_mode(false);
        assert!(c.is_scratch(probe));
        let sp = c.save();
        // Promotion under the savepoint...
        let again = c.intern_path(&PathExpr::from(Var(0)).dot("A"));
        assert_eq!(again, probe);
        assert!(!c.is_scratch(probe));
        c.set_scratch_mode(true);
        c.rollback(sp);
        // ...is undone, and the mode snapshot restored.
        assert!(c.is_scratch(probe), "promotion must roll back");
        let t = c.intern_path(&PathExpr::from(Var(9)));
        assert!(!c.is_scratch(t), "scratch mode restored to off");
    }

    #[test]
    fn clear_resets_but_keeps_working() {
        let mut c = Congruence::new();
        let x = var(&mut c, 0);
        let y = var(&mut c, 1);
        c.merge(x, y);
        c.clear();
        assert!(c.is_empty());
        let x2 = var(&mut c, 0);
        assert_eq!(x2, x, "ids restart from zero after clear");
        assert_eq!(c.class_members(x2), vec![x2]);
    }

    #[test]
    fn class_reps_partition() {
        let mut c = Congruence::new();
        let x = var(&mut c, 0);
        let y = var(&mut c, 1);
        let z = var(&mut c, 2);
        c.merge(x, y);
        let reps = c.class_reps();
        assert_eq!(reps.len(), 2);
        assert_eq!(c.class_members(x).len(), 2);
        assert_eq!(c.class_members(z).len(), 1);
    }
}
