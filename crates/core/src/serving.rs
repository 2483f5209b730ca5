//! Serving path: query templates and the canonical-fingerprint plan cache.
//!
//! The paper's economics only close when one optimization is amortized over
//! many executions — real traffic is parameterized repeats of a few query
//! *shapes*. This module turns C&B into that "preprocess once, answer many"
//! discipline:
//!
//! * [`parameterize`] lifts every constant of a query into a
//!   [`Value::Param`] placeholder, splitting it into a *template* (the
//!   shape) and a parameter vector (the constants);
//! * [`Fingerprint`] keys templates canonically — variable-renaming via
//!   [`Query::canonical_key`] (the same canonical rendering the
//!   congruence-based equivalence fast path uses), so alpha-equivalent
//!   queries with different constants collapse to one entry — paired with a
//!   digest of the constraint set, because plans are only sound under the
//!   constraints they were derived with;
//! * [`PlanCache`] maps fingerprints to the optimizer's template plans and
//!   counts hits/misses;
//! * [`bind_params`] substitutes a parameter vector back into a cached
//!   template plan, producing an executable query without re-planning.
//!
//! Soundness of caching *template* plans: a [`Value::Param`] behaves as an
//! opaque constant throughout chase/backchase — two distinct parameters
//! never compare equal and never equal a literal — so every rewrite the
//! optimizer derives for the template is justified for *any* parameter
//! binding. Nothing in plan generation or ranking branches on constant
//! values, so binding the cold path's own parameters back into a cached
//! plan reproduces the cold path's plans byte-for-byte
//! (`tests/property_based.rs` pins this).

use std::hash::{Hash, Hasher};

use cnb_ir::prelude::{Constraint, Query, Value};

use crate::fxhash::{FxHashMap, FxHasher};

/// A query split into its shape (constants lifted to [`Value::Param`]
/// placeholders) and the lifted constants, in placeholder order.
#[derive(Clone, Debug)]
pub struct ParameterizedQuery {
    /// The shape: `params[k]` replaced by `?k` everywhere.
    pub template: Query,
    /// The lifted constants; `params[k]` binds placeholder `?k`.
    pub params: Vec<Value>,
}

/// Splits `q` into a template and its parameter vector.
///
/// Constants are lifted in [`Query::map_consts`]'s fixed traversal order —
/// from-clause range expressions, then where-clause equalities (lhs before
/// rhs), then select paths — so structurally identical queries always
/// produce the same placeholder numbering and therefore the same
/// [`Fingerprint`]. Each
/// occurrence gets its own placeholder: collapsing repeated values would
/// specialize the template to bindings that happen to repeat them.
/// Placeholders already present pass through unchanged (re-parameterizing a
/// template is the identity on it).
pub fn parameterize(q: &Query) -> ParameterizedQuery {
    let mut params: Vec<Value> = Vec::new();
    let template = q.map_consts(&mut |v| {
        if let Value::Param(_) = v {
            return v.clone();
        }
        let k = params.len() as u32;
        params.push(v.clone());
        Value::Param(k)
    });
    ParameterizedQuery { template, params }
}

/// Substitutes a parameter vector into a template (or template plan),
/// replacing every `?k` with `params[k]`. Placeholders without a binding
/// are left in place — execution rejects them, so a template/vector
/// mismatch fails loudly rather than computing with a placeholder value.
pub fn bind_params(template: &Query, params: &[Value]) -> Query {
    template.map_consts(&mut |v| match v {
        Value::Param(k) => params.get(*k as usize).unwrap_or(v).clone(),
        other => other.clone(),
    })
}

/// First [`Value::Param`] placeholder left anywhere in `q`, if any. The
/// execution engine refuses queries with unbound placeholders — a template
/// reaching the executor means a bind step was skipped or the parameter
/// vector was too short, and computing with `?k` as if it were data would
/// silently return wrong (usually empty) results.
pub fn unbound_param(q: &Query) -> Option<u32> {
    let mut found: Option<u32> = None;
    q.visit_consts(&mut |v| {
        if let Value::Param(k) = v {
            found.get_or_insert(*k);
        }
    });
    found
}

/// Canonical cache key for (query shape, constraint set).
///
/// The shape component is [`Query::canonical_key`] of the template — the
/// alpha-invariant rendering (variables renamed to from-clause position)
/// that also backs the `same_plan` equivalence fast path — extended with
/// the select-clause *label order*. `canonical_key` sorts select entries
/// for comparison purposes, but served rows must come back with the
/// caller's output-field order, so two shapes differing only in select
/// order must not share plans. The constraint component digests the
/// rendered constraint set order-insensitively.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Fingerprint {
    shape: String,
    constraints: u64,
}

impl Fingerprint {
    /// Fingerprint of a template under a constraint set.
    pub fn new(template: &Query, constraints: &[Constraint]) -> Fingerprint {
        Fingerprint::with_digest(template, constraint_digest(constraints))
    }

    /// [`Fingerprint::new`] for a constraint set already digested with
    /// [`constraint_digest`] — rendering and hashing every constraint is
    /// most of a fingerprint's cost, and a server's set is fixed, so it
    /// digests once and fingerprints each request from the stored value.
    pub fn with_digest(template: &Query, constraints: u64) -> Fingerprint {
        let mut shape = template.canonical_key();
        shape.push('|');
        let labels: Vec<String> = template.select.iter().map(|(l, _)| l.to_string()).collect();
        shape.push_str(&labels.join(","));
        Fingerprint { shape, constraints }
    }

    /// The canonical shape rendering (diagnostics/tests).
    pub fn shape(&self) -> &str {
        &self.shape
    }
}

/// Order-insensitive digest of a constraint set: each constraint's
/// canonical rendering is hashed; the sorted per-constraint hashes feed one
/// final hash. Reordering the set must not change the digest (plans sound
/// under a set are sound under its permutations), but adding, removing or
/// editing any constraint must.
pub fn constraint_digest(constraints: &[Constraint]) -> u64 {
    let mut each: Vec<u64> = constraints
        .iter()
        .map(|c| {
            let mut h = FxHasher::default();
            c.name.hash(&mut h);
            c.to_string().hash(&mut h);
            h.finish()
        })
        .collect();
    each.sort_unstable();
    let mut h = FxHasher::default();
    each.hash(&mut h);
    h.finish()
}

/// One cache entry: the template a fingerprint was derived from and the
/// optimizer's plans for it (best-first, as `Optimizer::optimize` emitted
/// them). Plans still contain `?k` placeholders; [`bind_params`] turns
/// them executable.
#[derive(Clone, Debug)]
pub struct CachedPlans {
    /// The template the plans were derived for.
    pub template: Query,
    /// Template plans, best-first.
    pub plans: Vec<Query>,
    /// Subqueries explored deriving them (provenance for reporting).
    pub explored: usize,
}

/// One resident cache entry plus its eviction-policy bookkeeping.
#[derive(Clone, Debug)]
struct Slot {
    plans: CachedPlans,
    /// Observed lookup hits on this entry (the frequency signal).
    freq: u64,
    /// Insertion sequence number — the deterministic tie-break, and unique
    /// per slot, so victim selection never depends on map iteration order.
    seq: u64,
    /// True once the entry has graduated out of probation.
    protected: bool,
}

/// The plan cache: [`Fingerprint`] → [`CachedPlans`], with hit/miss/eviction
/// accounting. Deterministic fxhash map per the workspace lint.
///
/// [`PlanCache::new`] is unbounded (the original behavior);
/// [`PlanCache::bounded`] caps residency at a fixed number of shapes and
/// evicts by **observed frequency, segmented**: every shape enters a
/// *probation* segment with zero frequency, graduates to the *protected*
/// segment on its first hit, and eviction always prefers the
/// least-frequently-hit probation entry (oldest first on ties). A burst of
/// one-off shapes therefore churns through probation without touching the
/// protected set — the hot families a workload actually repeats — and only
/// when probation is empty does eviction reach into protected (again min
/// `(freq, seq)`). The protected segment is itself capped at
/// `capacity − max(capacity / 4, 1)` slots so probation always has room to
/// admit new shapes; overflow demotes the coldest protected entry back to
/// probation. Victims are a pure function of the lookup/insert history:
/// `(freq, seq)` pairs are unique, so eviction order is deterministic and
/// independent of hash-map iteration order.
#[derive(Clone, Debug, Default)]
pub struct PlanCache {
    entries: FxHashMap<Fingerprint, Slot>,
    /// `None` = unbounded.
    capacity: Option<usize>,
    next_seq: u64,
    hits: usize,
    misses: usize,
    evictions: usize,
}

impl PlanCache {
    /// An empty, unbounded cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// An empty cache holding at most `capacity` shapes. A capacity of 0
    /// caches nothing (every lookup misses; inserts are dropped).
    pub fn bounded(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: Some(capacity),
            ..PlanCache::default()
        }
    }

    /// The residency bound, or `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Protected-segment bound for a bounded capacity: always strictly less
    /// than `capacity`, so probation keeps at least one admission slot.
    fn protected_cap(capacity: usize) -> usize {
        capacity.saturating_sub((capacity / 4).max(1))
    }

    /// Looks up a fingerprint, counting a hit or a miss. A hit bumps the
    /// entry's observed frequency and (in a bounded cache) graduates it out
    /// of probation.
    ///
    /// On a hit, debug builds re-verify with [`Query::canonical_key`]
    /// equality against the stored template — the cheap end of the
    /// congruence machinery's plan-identity check — so a fingerprint
    /// collision can never silently serve a foreign shape's plans.
    pub fn lookup(&mut self, fp: &Fingerprint, template: &Query) -> Option<&CachedPlans> {
        let Some(slot) = self.entries.get_mut(fp) else {
            self.misses += 1;
            return None;
        };
        debug_assert_eq!(
            slot.template_key(),
            template.canonical_key(),
            "fingerprint collision: cached template shape differs"
        );
        self.hits += 1;
        slot.freq += 1;
        if let (Some(capacity), false) = (self.capacity, slot.protected) {
            slot.protected = true;
            self.shrink_protected(capacity);
        }
        self.entries.get(fp).map(|s| &s.plans)
    }

    /// Demotes coldest protected entries back to probation until the
    /// protected segment fits the cap of a cache of `capacity`.
    fn shrink_protected(&mut self, capacity: usize) {
        let protected = self.entries.values().filter(|s| s.protected).count();
        for _ in Self::protected_cap(capacity)..protected {
            let coldest = self.entries.values_mut().filter(|s| s.protected);
            if let Some(coldest) = coldest.min_by_key(|s| (s.freq, s.seq)) {
                coldest.protected = false;
            }
        }
    }

    /// Evicts one entry: the min-`(freq, seq)` probation entry, or — only
    /// when probation is empty — the min-`(freq, seq)` protected entry.
    fn evict_one(&mut self) {
        let victim = self
            .entries
            .iter()
            .filter(|(_, s)| !s.protected)
            .min_by_key(|(_, s)| (s.freq, s.seq))
            .or_else(|| self.entries.iter().min_by_key(|(_, s)| (s.freq, s.seq)))
            .map(|(fp, _)| fp.clone());
        if let Some(fp) = victim {
            self.entries.remove(&fp);
            self.evictions += 1;
        }
    }

    /// Inserts (or replaces) the plans for a fingerprint, evicting first if
    /// the cache is bounded and full. Replacing a resident entry keeps its
    /// frequency standing (re-optimizing a shape is not evidence it went
    /// cold).
    pub fn insert(&mut self, fp: Fingerprint, entry: CachedPlans) {
        if let Some(slot) = self.entries.get_mut(&fp) {
            slot.plans = entry;
            return;
        }
        if let Some(cap) = self.capacity {
            if cap == 0 {
                return;
            }
            while self.entries.len() >= cap {
                self.evict_one();
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(
            fp,
            Slot {
                plans: entry,
                freq: 0,
                seq,
                protected: false,
            },
        );
    }

    /// Whether a fingerprint is resident — a pure peek: no counters move,
    /// no frequency is observed (tests and diagnostics only).
    pub fn contains(&self, fp: &Fingerprint) -> bool {
        self.entries.contains_key(fp)
    }

    /// Number of cached shapes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Lookups that missed.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Entries evicted to make room (0 in an unbounded cache).
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Total lookups — always `hits() + misses()`.
    pub fn lookups(&self) -> usize {
        self.hits + self.misses
    }

    /// hits / (hits + misses), or 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl Slot {
    fn template_key(&self) -> String {
        self.plans.template.canonical_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnb_ir::prelude::*;

    fn point_query(table: &str, key: i64) -> Query {
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym(table)));
        q.equate(PathExpr::from(r).dot("K"), PathExpr::from(key));
        q.output("N", PathExpr::from(r).dot("N"));
        q
    }

    #[test]
    fn parameterize_lifts_every_constant() {
        let q = point_query("R", 42);
        let p = parameterize(&q);
        assert_eq!(p.params, vec![Value::Int(42)]);
        assert_eq!(
            p.template.where_[0].rhs,
            PathExpr::Const(Value::Param(0)),
            "constant lifted to ?0"
        );
        // Round trip: binding the lifted params reproduces the original.
        assert_eq!(bind_params(&p.template, &p.params), q);
    }

    #[test]
    fn parameterize_is_idempotent_on_templates() {
        let p = parameterize(&point_query("R", 42));
        let again = parameterize(&p.template);
        assert_eq!(again.template, p.template);
        assert!(again.params.is_empty());
    }

    #[test]
    fn same_shape_different_constants_share_a_fingerprint() {
        let a = parameterize(&point_query("R", 1));
        let b = parameterize(&point_query("R", 99));
        assert_eq!(
            Fingerprint::new(&a.template, &[]),
            Fingerprint::new(&b.template, &[])
        );
        // A different table is a different shape.
        let c = parameterize(&point_query("S", 1));
        assert_ne!(
            Fingerprint::new(&a.template, &[]),
            Fingerprint::new(&c.template, &[])
        );
    }

    #[test]
    fn alpha_equivalent_queries_share_a_fingerprint() {
        // Same query with differently-allocated variable ids.
        let mut q = Query::new();
        let _unused = q.fresh_var();
        let _unused2 = q.fresh_var();
        let r = q.bind("row", Range::Name(sym("R")));
        q.equate(PathExpr::from(r).dot("K"), PathExpr::from(7i64));
        q.output("N", PathExpr::from(r).dot("N"));
        let a = parameterize(&point_query("R", 3));
        let b = parameterize(&q);
        assert_eq!(
            Fingerprint::new(&a.template, &[]),
            Fingerprint::new(&b.template, &[])
        );
    }

    #[test]
    fn select_label_order_distinguishes_shapes() {
        let mk = |first: &str, second: &str| {
            let mut q = Query::new();
            let r = q.bind("r", Range::Name(sym("R")));
            q.output(first, PathExpr::from(r).dot(first));
            q.output(second, PathExpr::from(r).dot(second));
            q
        };
        // canonical_key alone sorts select entries; the fingerprint must
        // keep output order apart because served rows preserve it.
        assert_ne!(
            Fingerprint::new(&mk("A", "B"), &[]),
            Fingerprint::new(&mk("B", "A"), &[])
        );
    }

    #[test]
    fn constraint_digest_is_order_insensitive_but_content_sensitive() {
        let mut schema = Schema::new();
        schema.add_relation("R", [(sym("K"), Type::Int), (sym("N"), Type::Int)]);
        add_primary_index(&mut schema, sym("R"), sym("K"), "PI");
        let cs = schema.all_constraints();
        assert!(cs.len() >= 2, "primary index yields at least two EDs");
        let mut rev = cs.clone();
        rev.reverse();
        assert_eq!(constraint_digest(&cs), constraint_digest(&rev));
        assert_ne!(constraint_digest(&cs), constraint_digest(&cs[1..]));
        assert_ne!(constraint_digest(&cs), constraint_digest(&[]));
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let p = parameterize(&point_query("R", 5));
        let fp = Fingerprint::new(&p.template, &[]);
        let mut cache = PlanCache::new();
        assert!(cache.lookup(&fp, &p.template).is_none());
        cache.insert(
            fp.clone(),
            CachedPlans {
                template: p.template.clone(),
                plans: vec![p.template.clone()],
                explored: 1,
            },
        );
        assert!(cache.lookup(&fp, &p.template).is_some());
        assert!(cache.lookup(&fp, &p.template).is_some());
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        assert!((cache.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    /// Entry for shape `i` (a point query on table `T{i}`), ready to insert.
    fn shape(i: usize) -> (Fingerprint, CachedPlans) {
        let p = parameterize(&point_query(&format!("T{i}"), 1));
        let fp = Fingerprint::new(&p.template, &[]);
        let entry = CachedPlans {
            template: p.template.clone(),
            plans: vec![p.template],
            explored: 0,
        };
        (fp, entry)
    }

    #[test]
    fn bounded_cache_never_exceeds_capacity_and_counts_evictions() {
        let mut cache = PlanCache::bounded(4);
        assert_eq!(cache.capacity(), Some(4));
        for i in 0..10 {
            let (fp, entry) = shape(i);
            cache.insert(fp, entry);
            assert!(cache.len() <= 4, "after insert {i}: len {}", cache.len());
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.evictions(), 6);
        // Counter algebra holds regardless of eviction traffic.
        for i in 0..10 {
            let (fp, entry) = shape(i);
            let _resident = cache.lookup(&fp, &entry.template);
        }
        assert_eq!(cache.lookups(), cache.hits() + cache.misses());
        assert_eq!(cache.lookups(), 10);
    }

    #[test]
    fn eviction_is_cold_first_and_deterministic() {
        // Capacity 4, insert 0..4, hit shapes 1 and 3 (they graduate to
        // protected); the next two inserts must evict the unhit probation
        // entries 0 then 2, in that order, every run.
        let run = || {
            let mut cache = PlanCache::bounded(4);
            let shapes: Vec<_> = (0..6).map(shape).collect();
            for (fp, entry) in shapes.iter().take(4) {
                cache.insert(fp.clone(), entry.clone());
            }
            for i in [1usize, 3] {
                assert!(cache.lookup(&shapes[i].0, &shapes[i].1.template).is_some());
            }
            cache.insert(shapes[4].0.clone(), shapes[4].1.clone());
            assert!(!cache.contains(&shapes[0].0), "coldest (0) evicted first");
            assert!(cache.contains(&shapes[2].0));
            cache.insert(shapes[5].0.clone(), shapes[5].1.clone());
            assert!(!cache.contains(&shapes[2].0), "next coldest (2) second");
            for i in [1usize, 3, 4, 5] {
                assert!(cache.contains(&shapes[i].0), "shape {i} resident");
            }
            let survivors: Vec<bool> = (0..6).map(|i| cache.contains(&shapes[i].0)).collect();
            (survivors, cache.evictions())
        };
        assert_eq!(run(), run(), "eviction order is reproducible");
    }

    #[test]
    fn hot_shapes_survive_a_churn_of_one_off_shapes() {
        // Five hot families in a capacity-8 cache (protected cap 6): each
        // gets hit once, then 50 one-off shapes churn through. The hot five
        // must all still be resident — probation absorbs the churn.
        let mut cache = PlanCache::bounded(8);
        let hot: Vec<_> = (0..5).map(shape).collect();
        for (fp, entry) in &hot {
            cache.insert(fp.clone(), entry.clone());
            assert!(cache.lookup(fp, &entry.template).is_some());
        }
        for i in 100..150 {
            let (fp, entry) = shape(i);
            assert!(cache.lookup(&fp, &entry.template).is_none());
            cache.insert(fp, entry);
            assert!(cache.len() <= 8);
        }
        for (i, (fp, _)) in hot.iter().enumerate() {
            assert!(cache.contains(fp), "hot shape {i} was evicted by churn");
        }
        assert_eq!(cache.evictions(), 5 + 50 - 8);
    }

    #[test]
    fn protected_overflow_demotes_and_probation_keeps_an_admission_slot() {
        // Hit everything in a capacity-4 cache (protected cap 3): the
        // coldest graduate is demoted back to probation, so a new shape can
        // still get in and the cache never thrashes its own hot set.
        let mut cache = PlanCache::bounded(4);
        let shapes: Vec<_> = (0..4).map(shape).collect();
        for (fp, entry) in &shapes {
            cache.insert(fp.clone(), entry.clone());
        }
        // Hit 0 twice, then 1..4 once each; 0 is hottest, 1 is the coldest
        // protected entry after the demotion cascade.
        for _ in 0..2 {
            assert!(cache.lookup(&shapes[0].0, &shapes[0].1.template).is_some());
        }
        for (fp, entry) in shapes.iter().skip(1) {
            assert!(cache.lookup(fp, &entry.template).is_some());
        }
        let (fp5, entry5) = shape(5);
        cache.insert(fp5.clone(), entry5);
        assert!(cache.contains(&fp5), "new shape admitted at capacity");
        assert!(cache.contains(&shapes[0].0), "hottest shape survives");
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn reinserting_an_evicted_shape_misses_then_hits() {
        let mut cache = PlanCache::bounded(1);
        let (fp0, entry0) = shape(0);
        let (fp1, entry1) = shape(1);
        cache.insert(fp0.clone(), entry0.clone());
        cache.insert(fp1, entry1); // evicts shape 0
        assert!(!cache.contains(&fp0));
        assert!(cache.lookup(&fp0, &entry0.template).is_none(), "miss: gone");
        cache.insert(fp0.clone(), entry0.clone()); // re-optimized, re-cached
        assert!(cache.lookup(&fp0, &entry0.template).is_some(), "hit again");
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (1, 1, 2));
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut cache = PlanCache::bounded(0);
        let (fp, entry) = shape(0);
        cache.insert(fp.clone(), entry.clone());
        assert!(cache.is_empty());
        assert!(cache.lookup(&fp, &entry.template).is_none());
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let mut cache = PlanCache::new();
        assert_eq!(cache.capacity(), None);
        for i in 0..100 {
            let (fp, entry) = shape(i);
            cache.insert(fp, entry);
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn unbound_placeholder_survives_binding() {
        let p = parameterize(&point_query("R", 5));
        let bound = bind_params(&p.template, &[]);
        assert_eq!(bound.where_[0].rhs, PathExpr::Const(Value::Param(0)));
        assert_eq!(unbound_param(&bound), Some(0));
        assert_eq!(unbound_param(&bind_params(&p.template, &p.params)), None);
        assert_eq!(unbound_param(&point_query("R", 5)), None);
    }
}
