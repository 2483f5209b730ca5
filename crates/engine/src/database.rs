//! In-memory storage: tables (sets of struct rows) and dictionaries.
//!
//! This is the workspace's substitute for the paper's DB2 execution engine
//! (§5.4). Logical relations and class extents are loaded here; physical
//! structures (indexes, materialized views, ASRs) are *materialized* from the
//! logical data according to each skeleton's [`PhysicalSpec`].
//!
//! Everything here iterates deterministically: tables are insertion-ordered
//! vectors, dictionaries are [`OrderedDict`]s (fxhash-indexed, iterated in
//! first-insertion order), and the collection maps themselves use
//! [`cnb_core::fxhash`] so even whole-database walks are a pure function of
//! the load sequence. No row order anywhere depends on a randomly seeded
//! hasher — the engine's output-order guarantee (see [`crate::eval`]) starts
//! here.

use cnb_core::fxhash::FxHashMap;
use cnb_ir::prelude::*;

use crate::error::ExecError;
use crate::eval::execute;

/// A dictionary with deterministic, first-insertion iteration order.
///
/// Lookups go through an fxhash index (deterministic, no random state);
/// iteration walks the entry vector, so `dom M` scans and set-valued
/// materializations enumerate keys in exactly the order they were first
/// inserted — identical across runs, platforms and processes. Re-inserting
/// an existing key replaces the entry *in place*, keeping its original
/// position (the behaviour an index maintained under updates would have).
#[derive(Clone, Debug, Default)]
pub struct OrderedDict {
    entries: Vec<(Value, Value)>,
    index: FxHashMap<Value, usize>,
}

impl OrderedDict {
    /// An empty dictionary.
    pub fn new() -> OrderedDict {
        OrderedDict::default()
    }

    /// Inserts or replaces an entry, returning the previous value if the key
    /// existed. Replacement keeps the key's original position.
    pub fn insert(&mut self, key: Value, value: Value) -> Option<Value> {
        match self.index.get(&key) {
            Some(&slot) => Some(std::mem::replace(&mut self.entries[slot].1, value)),
            None => {
                self.index.insert(key.clone(), self.entries.len());
                self.entries.push((key, value));
                None
            }
        }
    }

    /// The entry for `key`, if present.
    pub fn get(&self, key: &Value) -> Option<&Value> {
        self.index.get(key).map(|&slot| &self.entries[slot].1)
    }

    /// The stored key equal to `key` and its entry, if present — for callers
    /// that keep the key and would otherwise have to own a copy.
    pub fn get_key_value(&self, key: &Value) -> Option<(&Value, &Value)> {
        self.index.get(key).map(|&slot| {
            let (k, v) = &self.entries[slot];
            (k, v)
        })
    }

    /// True if `key` has an entry.
    pub fn contains_key(&self, key: &Value) -> bool {
        self.index.contains_key(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Keys in first-insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Entries in first-insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// An in-memory database instance for a schema.
#[derive(Clone, Debug, Default)]
pub struct Database {
    tables: FxHashMap<Symbol, Vec<Value>>,
    dicts: FxHashMap<Symbol, OrderedDict>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Inserts a row (must be a struct value) into a table, creating it on
    /// first use.
    pub fn insert_row(&mut self, table: Symbol, row: Value) {
        debug_assert!(matches!(row, Value::Struct(_)), "rows are structs");
        self.tables.entry(table).or_default().push(row);
    }

    /// Bulk-loads a table.
    pub fn load_table(&mut self, table: Symbol, rows: Vec<Value>) {
        self.tables.insert(table, rows);
    }

    /// Sets a dictionary entry.
    pub fn set_entry(&mut self, dict: Symbol, key: Value, entry: Value) {
        self.dicts.entry(dict).or_default().insert(key, entry);
    }

    /// The rows of a table (empty slice if absent).
    pub fn table(&self, table: Symbol) -> &[Value] {
        self.tables.get(&table).map(Vec::as_slice).unwrap_or(&[])
    }

    /// A dictionary (None if absent).
    pub fn dict(&self, dict: Symbol) -> Option<&OrderedDict> {
        self.dicts.get(&dict)
    }

    /// Cardinality of a collection (rows for tables, keys for dictionaries).
    pub fn cardinality(&self, name: Symbol) -> usize {
        if let Some(t) = self.tables.get(&name) {
            t.len()
        } else if let Some(d) = self.dicts.get(&name) {
            d.len()
        } else {
            0
        }
    }

    /// Cardinalities of every collection, for seeding a cost model.
    ///
    /// Returned in ascending [`Symbol`] order — an *explicit* tie-break — so
    /// consumers that iterate (cost-model seeding, greedy planner
    /// tie-breaks, test snapshots) cannot inherit map order. The underlying
    /// maps are fxhash-deterministic anyway, but a sorted slice makes the
    /// contract independent of hasher details.
    pub fn cardinalities(&self) -> Vec<(Symbol, f64)> {
        let mut out: Vec<(Symbol, f64)> = self
            .tables
            .iter()
            .map(|(n, t)| (*n, t.len() as f64))
            .chain(self.dicts.iter().map(|(n, d)| (*n, d.len() as f64)))
            .collect();
        out.sort_by_key(|(n, _)| *n);
        out
    }

    /// Materializes every physical structure declared in `schema` from the
    /// logical data currently loaded, following each skeleton's spec.
    /// Views are evaluated with the engine itself.
    ///
    /// Materialization order is deterministic: dictionary entries are
    /// inserted in source-row order, and a secondary index's per-key row
    /// *sets* list rows in table order (first-appearance bucketing, not map
    /// iteration) — so dom-scans and set-path expansions over materialized
    /// structures are run-to-run stable.
    pub fn materialize_physical(&mut self, schema: &Schema) -> Result<(), ExecError> {
        for sk in schema.skeletons() {
            let name = sk.physical_name;
            match &sk.spec {
                PhysicalSpec::PrimaryIndex { rel, key } => {
                    let rows = self.table(*rel).to_vec();
                    for row in rows {
                        let k = row
                            .field(*key)
                            .ok_or(ExecError::MissingAttribute {
                                relation: *rel,
                                attribute: *key,
                            })?
                            .clone();
                        self.set_entry(name, k, row);
                    }
                }
                PhysicalSpec::CompositeIndex { rel, keys } => {
                    let rows = self.table(*rel).to_vec();
                    for row in rows {
                        let mut fields = Vec::with_capacity(keys.len());
                        for k in keys {
                            let v = row.field(*k).ok_or(ExecError::MissingAttribute {
                                relation: *rel,
                                attribute: *k,
                            })?;
                            fields.push((*k, v.clone()));
                        }
                        self.set_entry(name, Value::record(fields), row);
                    }
                }
                PhysicalSpec::SecondaryIndex { rel, attr } => {
                    let rows = self.table(*rel).to_vec();
                    // First-appearance bucketing: key order and within-key
                    // row order both follow the table, never a hash map.
                    let mut buckets: Vec<(Value, Vec<Value>)> = Vec::new();
                    let mut bucket_of: FxHashMap<Value, usize> = FxHashMap::default();
                    for row in rows {
                        let k = row
                            .field(*attr)
                            .ok_or(ExecError::MissingAttribute {
                                relation: *rel,
                                attribute: *attr,
                            })?
                            .clone();
                        let at = *bucket_of.entry(k.clone()).or_insert_with(|| {
                            buckets.push((k, Vec::new()));
                            buckets.len() - 1
                        });
                        buckets[at].1.push(row);
                    }
                    for (k, rows) in buckets {
                        self.set_entry(name, k, Value::set(rows));
                    }
                }
                PhysicalSpec::View(def) => {
                    let rows = execute(self, def)?.rows;
                    self.load_table(name, rows);
                }
                PhysicalSpec::Opaque => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(fields: &[(&str, i64)]) -> Value {
        Value::record(fields.iter().map(|(n, v)| (sym(n), Value::Int(*v))))
    }

    #[test]
    fn insert_and_scan() {
        let mut db = Database::new();
        db.insert_row(sym("R"), row(&[("K", 1), ("N", 10)]));
        db.insert_row(sym("R"), row(&[("K", 2), ("N", 20)]));
        assert_eq!(db.table(sym("R")).len(), 2);
        assert_eq!(db.cardinality(sym("R")), 2);
        assert_eq!(db.table(sym("missing")).len(), 0);
    }

    #[test]
    fn ordered_dict_iterates_in_insertion_order() {
        let mut d = OrderedDict::new();
        for i in [5i64, 3, 9, 1, 7] {
            d.insert(Value::Int(i), Value::Int(i * 10));
        }
        let keys: Vec<i64> = d
            .keys()
            .map(|k| match k {
                Value::Int(i) => *i,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(keys, vec![5, 3, 9, 1, 7], "insertion order, not hash order");
        // Replacement keeps the original position.
        assert_eq!(d.insert(Value::Int(9), Value::Int(0)), Some(Value::Int(90)));
        let keys2: Vec<&Value> = d.keys().collect();
        assert_eq!(keys2[2], &Value::Int(9));
        assert_eq!(d.get(&Value::Int(9)), Some(&Value::Int(0)));
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn get_key_value_returns_the_stored_key() {
        let mut d = OrderedDict::new();
        let key = |a| Value::record([(sym("A"), Value::Int(a))]);
        d.insert(key(1), Value::Int(10));
        d.insert(key(2), Value::Int(20));
        // Probed with an equal key built elsewhere; answered with the
        // dictionary's own.
        let probe = key(2);
        let (k, v) = d.get_key_value(&probe).unwrap();
        assert_eq!((k, v), (&probe, &Value::Int(20)));
        assert!(!std::ptr::eq(k, &probe));
        assert!(std::ptr::eq(k, d.keys().nth(1).unwrap()));
        assert!(std::ptr::eq(v, d.get(&probe).unwrap()));
        assert_eq!(d.get_key_value(&key(3)), None);
    }

    #[test]
    fn cardinalities_are_symbol_sorted() {
        let mut db = Database::new();
        db.insert_row(sym("Zeta"), row(&[("K", 1)]));
        db.insert_row(sym("Alpha"), row(&[("K", 1)]));
        db.set_entry(sym("Mid"), Value::Int(1), row(&[("K", 1)]));
        let cards = db.cardinalities();
        assert_eq!(cards.len(), 3);
        let mut sorted = cards.clone();
        sorted.sort_by_key(|(n, _)| *n);
        assert_eq!(cards, sorted, "explicit symbol-id order");
    }

    #[test]
    fn materialize_primary_index() {
        let mut schema = Schema::new();
        schema.add_relation("R", [(sym("K"), Type::Int), (sym("N"), Type::Int)]);
        add_primary_index(&mut schema, sym("R"), sym("K"), "PI");
        let mut db = Database::new();
        db.insert_row(sym("R"), row(&[("K", 1), ("N", 10)]));
        db.insert_row(sym("R"), row(&[("K", 2), ("N", 20)]));
        db.materialize_physical(&schema).unwrap();
        let pi = db.dict(sym("PI")).unwrap();
        assert_eq!(pi.len(), 2);
        assert_eq!(
            pi.get(&Value::Int(1)).unwrap().field(sym("N")),
            Some(&Value::Int(10))
        );
        // A primary index has exactly one entry per source row.
        let PhysicalSpec::PrimaryIndex { rel, .. } = schema.skeletons()[0].spec else {
            panic!("the one skeleton is the primary index");
        };
        assert_eq!(rel, sym("R"));
        assert_eq!(pi.len(), db.table(rel).len());
    }

    #[test]
    fn materialize_secondary_index_buckets() {
        let mut schema = Schema::new();
        schema.add_relation("R", [(sym("K"), Type::Int), (sym("N"), Type::Int)]);
        add_secondary_index(&mut schema, sym("R"), sym("N"), "SI");
        let mut db = Database::new();
        db.insert_row(sym("R"), row(&[("K", 1), ("N", 10)]));
        db.insert_row(sym("R"), row(&[("K", 2), ("N", 10)]));
        db.insert_row(sym("R"), row(&[("K", 3), ("N", 30)]));
        db.materialize_physical(&schema).unwrap();
        let si = db.dict(sym("SI")).unwrap();
        assert_eq!(si.len(), 2);
        assert_eq!(
            si.get(&Value::Int(10)).unwrap().elements().unwrap().len(),
            2
        );
        assert_eq!(
            si.get(&Value::Int(30)).unwrap().elements().unwrap().len(),
            1
        );
        // Keys appear in table order, and each bucket lists rows in
        // table order — the determinism contract of materialization.
        let keys: Vec<&Value> = si.keys().collect();
        assert_eq!(keys, vec![&Value::Int(10), &Value::Int(30)]);
        let bucket = si.get(&Value::Int(10)).unwrap().elements().unwrap();
        assert_eq!(bucket[0].field(sym("K")), Some(&Value::Int(1)));
        assert_eq!(bucket[1].field(sym("K")), Some(&Value::Int(2)));
    }

    #[test]
    fn materialize_view_by_evaluation() {
        let mut schema = Schema::new();
        schema.add_relation("R", [(sym("A"), Type::Int), (sym("B"), Type::Int)]);
        schema.add_relation("S", [(sym("A"), Type::Int), (sym("C"), Type::Int)]);
        let mut def = Query::new();
        let r = def.bind("r", Range::Name(sym("R")));
        let s = def.bind("s", Range::Name(sym("S")));
        def.equate(PathExpr::from(r).dot("A"), PathExpr::from(s).dot("A"));
        def.output("B", PathExpr::from(r).dot("B"));
        def.output("C", PathExpr::from(s).dot("C"));
        add_materialized_view(&mut schema, "V", &def);

        let mut db = Database::new();
        db.insert_row(sym("R"), row(&[("A", 1), ("B", 100)]));
        db.insert_row(sym("R"), row(&[("A", 2), ("B", 200)]));
        db.insert_row(sym("S"), row(&[("A", 1), ("C", 7)]));
        db.materialize_physical(&schema).unwrap();
        let v = db.table(sym("V"));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field(sym("B")), Some(&Value::Int(100)));
        assert_eq!(v[0].field(sym("C")), Some(&Value::Int(7)));
    }

    #[test]
    fn composite_index_keys() {
        let mut schema = Schema::new();
        schema.add_relation(
            "R",
            [
                (sym("A"), Type::Int),
                (sym("B"), Type::Int),
                (sym("E"), Type::Int),
            ],
        );
        add_composite_index(&mut schema, sym("R"), &[sym("A"), sym("B")], "I");
        let mut db = Database::new();
        db.insert_row(sym("R"), row(&[("A", 1), ("B", 2), ("E", 3)]));
        db.materialize_physical(&schema).unwrap();
        let i = db.dict(sym("I")).unwrap();
        let key = Value::record([(sym("A"), Value::Int(1)), (sym("B"), Value::Int(2))]);
        assert_eq!(i.get(&key).unwrap().field(sym("E")), Some(&Value::Int(3)));
    }
}
