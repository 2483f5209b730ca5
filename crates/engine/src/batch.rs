//! Columnar batches — the unit of work of the batched executor.
//!
//! A [`Batch`] is an intermediate join result stored column-major: one
//! column per *bound* from-clause binding, all columns the same length.
//! Operators ([`crate::join`]) consume a batch and emit a new one by
//! building a row-id **selection vector** (`Vec<u32>` of input row ids, in
//! order) plus the new binding's column, then gathering the old columns
//! through the selection. Because every operator walks its input batch
//! front to back and appends matches in encounter order, the row order of
//! each batch — and therefore of the final result — is a pure function of
//! `(database, plan)`: no hash-map iteration is ever involved.
//!
//! **Batches borrow.** A column is a `Vec<&Value>`. Every value a binding
//! can take already has an owner that outlives the run — the [`Database`]
//! owns table rows, dictionary keys and entries and the elements of stored
//! sets, the query owns its constants — so a column points at it and a
//! gather copies 8-byte pointers; no reference count is touched between the
//! first operator and the projection. The only values evaluation *creates*
//! are the structs a `MkStruct` path builds: [`eval_path_at`] hands those
//! out as `Cow::Owned`, every other path as `Cow::Borrowed`, and an owned
//! value is compared or probed with and then dropped. The one owned value
//! that must survive its operator — a set reached under a `MkStruct` head,
//! whose elements the next operators bind — moves into that operator's
//! [`Home`], which the pipeline declares before the batch ([`homed`]). The
//! single `into_owned()` of a run is the select-clause projection in
//! [`crate::eval`].
//!
//! **A borrow costs a borrow.** [`Path::resolve`] decides a path's kind
//! once per operator: a path rooted at a column, a candidate or a constant
//! and followed by a field chain is a borrow, which [`eval_path_at`]
//! evaluates inline in the operator's candidate loop; a `Lookup` or
//! `MkStruct` root is evaluated out of line. `resolve` also records whether
//! a path reads the candidate under test: the operators read a filter side
//! that does once per candidate and one that does not once per input row
//! (see [`crate::join`]).

use std::borrow::Cow;
use std::cell::OnceCell;

use cnb_ir::prelude::*;

use crate::database::{Database, OrderedDict};

/// A column-major batch of intermediate rows borrowed for `'a`. See the
/// module docs.
#[derive(Clone, Debug)]
pub struct Batch<'a> {
    len: usize,
    /// One slot per from-clause binding; `None` until that binding is bound.
    cols: Vec<Option<Vec<&'a Value>>>,
}

impl<'a> Batch<'a> {
    /// The unit batch: one row binding nothing — the identity input for the
    /// first access operator (`width` = number of from-clause bindings).
    pub fn unit(width: usize) -> Batch<'a> {
        Batch {
            len: 1,
            cols: vec![None; width],
        }
    }

    /// A batch binding every slot: `cols[i]` is slot `i`'s column, all of
    /// equal length.
    pub fn from_columns(cols: Vec<Vec<&'a Value>>) -> Batch<'a> {
        let len = cols.first().map_or(0, Vec::len);
        debug_assert!(cols.iter().all(|c| c.len() == len));
        Batch {
            len,
            cols: cols.into_iter().map(Some).collect(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The column for binding slot `slot`, if bound.
    pub fn col(&self, slot: usize) -> Option<&[&'a Value]> {
        self.cols[slot].as_deref()
    }

    /// Binds `slot` to `vals`, one value per row.
    pub(crate) fn with_col(mut self, slot: usize, vals: Vec<&'a Value>) -> Batch<'a> {
        debug_assert_eq!(self.len, vals.len());
        self.cols[slot] = Some(vals);
        self
    }

    /// Gathers the selected rows into a new batch (`sel[i]` is the input row
    /// that becomes output row `i`): pointers are copied, values are not
    /// touched.
    pub fn gather(&self, sel: &[u32]) -> Batch<'a> {
        Batch {
            len: sel.len(),
            cols: self
                .cols
                .iter()
                .map(|col| {
                    col.as_ref()
                        .map(|c| sel.iter().map(|&r| c[r as usize]).collect())
                })
                .collect(),
        }
    }
}

/// A [`PathExpr`] resolved for one operator: a root — where variables are
/// slots, dictionaries are the [`OrderedDict`]s themselves and constants are
/// borrowed from the plan — and the field names read off it, so evaluating
/// it at a row probes no name map. The root's variant is the path's kind:
/// a borrow, or a [`Computed`] value (see the module docs).
pub(crate) struct Path<'a> {
    root: Root<'a>,
    /// `root.f0.f1…`, in application order.
    fields: Vec<Symbol>,
    /// Some variable in the path is one the operator is binding.
    reads_candidate: bool,
}

enum Root<'a> {
    /// A variable bound by an earlier operator: a column of the input batch.
    Col(usize),
    /// A variable the operator is binding right now: the `i`-th value of
    /// the candidate under test, which is not in any batch yet.
    Cand(usize),
    /// A variable no binding declares (validation rejects these): undefined.
    Unbound,
    Const(&'a Value),
    /// A root evaluation has to compute: out of line.
    Computed(Box<Computed<'a>>),
}

enum Computed<'a> {
    /// `None`: the database has no such dictionary, every lookup is
    /// undefined.
    Lookup(Option<&'a OrderedDict>, Path<'a>),
    MkStruct(Vec<(Symbol, Path<'a>)>),
}

impl<'a> Path<'a> {
    /// Resolves `p` against `q`'s from-clause (a variable's slot is its
    /// binding's position) and the database. `binding` lists the slots the
    /// operator is binding, in candidate order; variables in any other slot
    /// read the input batch.
    pub fn resolve(db: &'a Database, q: &Query, binding: &[usize], p: &'a PathExpr) -> Path<'a> {
        let resolve = |p| Path::resolve(db, q, binding, p);
        let root = match p {
            PathExpr::Var(v) => match q.from.iter().position(|b| b.var == *v) {
                Some(slot) => match binding.iter().position(|b| *b == slot) {
                    Some(i) => Root::Cand(i),
                    None => Root::Col(slot),
                },
                None => Root::Unbound,
            },
            PathExpr::Const(c) => Root::Const(c),
            PathExpr::Field(base, f) => {
                let mut path = resolve(base);
                path.fields.push(*f);
                return path;
            }
            PathExpr::Lookup(dict, key) => {
                Root::Computed(Box::new(Computed::Lookup(db.dict(*dict), resolve(key))))
            }
            PathExpr::MkStruct(fields) => Root::Computed(Box::new(Computed::MkStruct(
                fields.iter().map(|(n, p)| (*n, resolve(p))).collect(),
            ))),
        };
        let reads_candidate = match &root {
            Root::Cand(_) => true,
            Root::Col(_) | Root::Unbound | Root::Const(_) => false,
            Root::Computed(c) => match &**c {
                Computed::Lookup(_, key) => key.reads_candidate,
                Computed::MkStruct(fields) => fields.iter().any(|(_, p)| p.reads_candidate),
            },
        };
        Path {
            root,
            fields: Vec::new(),
            reads_candidate,
        }
    }

    /// True if the path's value depends on the candidate under test; a path
    /// that reads none has one value per input row.
    pub fn reads_candidate(&self) -> bool {
        self.reads_candidate
    }
}

/// Evaluates a path at one row of a batch, extended by the candidate values
/// `cand` for the slots being bound (empty when the path reads the batch
/// alone). `None` means undefined (missing dictionary key or field) — the
/// caller skips the row, exactly like the tuple-at-a-time semantics. The
/// value is borrowed from wherever it lives unless a `MkStruct` built it.
///
/// A borrow root is read here, inline; a `Lookup` or `MkStruct` root goes
/// to [`eval_computed`] (see [`Path`]). Forced inline: left to itself the
/// compiler calls it, and the call, its `Option<Cow>` written through
/// memory and the drop of it cost more than the borrow does — on the
/// skewed triangle's wedge plan about half of the hash join's time.
#[inline(always)]
pub(crate) fn eval_path_at<'a>(
    batch: &Batch<'a>,
    row: usize,
    cand: &[&'a Value],
    p: &Path<'a>,
) -> Option<Cow<'a, Value>> {
    let root = match &p.root {
        Root::Col(slot) => batch.col(*slot)?[row],
        Root::Cand(i) => cand[*i],
        Root::Unbound => return None,
        Root::Const(c) => c,
        Root::Computed(c) => return eval_computed(batch, row, cand, c, &p.fields),
    };
    fields_of(root, &p.fields).map(Cow::Borrowed)
}

/// [`eval_path_at`] for the roots that probe a dictionary or build a value:
/// the recursive half of the evaluator, kept out of the candidate loops.
#[inline(never)]
fn eval_computed<'a>(
    batch: &Batch<'a>,
    row: usize,
    cand: &[&'a Value],
    root: &Computed<'a>,
    fields: &[Symbol],
) -> Option<Cow<'a, Value>> {
    let root = match root {
        Computed::Lookup(dict, key) => (*dict)?.get(&*eval_path_at(batch, row, cand, key)?)?,
        Computed::MkStruct(members) => {
            let mut out = Vec::with_capacity(members.len());
            for (name, p) in members {
                out.push((*name, eval_path_at(batch, row, cand, p)?.into_owned()));
            }
            let built = Value::record(out);
            if fields.is_empty() {
                return Some(Cow::Owned(built));
            }
            // `built` dies here, so what is read off it is copied out.
            return fields_of(&built, fields).cloned().map(Cow::Owned);
        }
    };
    fields_of(root, fields).map(Cow::Borrowed)
}

/// `v.f0.f1…`, undefined as soon as a field is.
#[inline(always)]
fn fields_of<'v>(v: &'v Value, fields: &[Symbol]) -> Option<&'v Value> {
    fields.iter().try_fold(v, |v, f| v.field(*f))
}

/// Where an operator puts the values its evaluation owns but its output
/// batch must borrow. The pipeline declares one per operator *before* the
/// batch, so it outlives every batch that points into it; an operator fills
/// its own at most once.
pub(crate) type Home = OnceCell<Vec<Value>>;

/// Evaluates `p` at every row of `batch` into a column of borrowed values
/// (`None`: undefined at that row): collect, then borrow. Values the
/// evaluation owns move into `home` and are borrowed from there.
pub(crate) fn homed<'a>(batch: &Batch<'a>, p: &Path<'a>, home: &'a Home) -> Vec<Option<&'a Value>> {
    let mut owned: Vec<Value> = Vec::new();
    // `Err(i)`: the value will live at `home[i]`.
    let col: Vec<Option<Result<&'a Value, usize>>> = (0..batch.len())
        .map(|r| {
            eval_path_at(batch, r, &[], p).map(|v| match v {
                Cow::Borrowed(v) => Ok(v),
                Cow::Owned(v) => {
                    owned.push(v);
                    Err(owned.len() - 1)
                }
            })
        })
        .collect();
    let owned: &'a [Value] = home.get_or_init(|| owned);
    col.into_iter()
        .map(|v| v.map(|v| v.unwrap_or_else(|i| &owned[i])))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_and_gather() {
        let b = Batch::unit(2);
        assert_eq!(b.len(), 1);
        assert!(b.col(0).is_none());
        // Bind slot 0 to three values fanned out of the unit row.
        let vals = [Value::Int(10), Value::Int(20), Value::Int(30)];
        let b = b.gather(&[0, 0, 0]).with_col(0, vals.iter().collect());
        assert_eq!(b.len(), 3);
        assert_eq!(b.col(0).unwrap()[1], &Value::Int(20));
        // Select rows 2 and 0, in that order.
        let b = b.gather(&[2, 0]);
        assert_eq!(b.col(0).unwrap(), &[&Value::Int(30), &Value::Int(10)]);
        assert!(b.col(1).is_none());
        // A gather moves pointers: the rows are still the caller's values.
        assert!(std::ptr::eq(b.col(0).unwrap()[0], &vals[2]));
        assert!(std::ptr::eq(b.col(0).unwrap()[1], &vals[0]));
    }

    #[test]
    fn path_eval_over_batch() {
        let mut db = Database::new();
        db.set_entry(sym("M"), Value::Int(7), Value::Int(70));
        let mut q = Query::new();
        let v = q.bind("v", Range::Name(sym("R")));
        let vals = [Value::Int(7), Value::Int(8)];
        let b = Batch::unit(1)
            .gather(&[0, 0])
            .with_col(0, vals.iter().collect());
        let p = PathExpr::from(v).lookup_in("M");
        let p = Path::resolve(&db, &q, &[], &p);
        assert_eq!(
            eval_path_at(&b, 0, &[], &p),
            Some(Cow::Borrowed(&Value::Int(70))),
            "present key"
        );
        assert_eq!(eval_path_at(&b, 1, &[], &p), None, "absent key");
    }

    /// Who owns what: every path borrows — from the batch, the plan or the
    /// database — except under a `MkStruct`, and a lookup keyed by a built
    /// struct borrows again.
    #[test]
    fn paths_borrow_unless_a_struct_is_built() {
        let mut db = Database::new();
        let key = Value::record([(sym("A"), Value::Int(1))]);
        db.set_entry(sym("I"), key, Value::Int(5));
        let mut q = Query::new();
        let v = q.bind("v", Range::Name(sym("R")));
        let row = Value::record([(sym("A"), Value::Int(1))]);
        let b = Batch::unit(1).with_col(0, vec![&row]);
        let eval = |p: &PathExpr| {
            let p = Path::resolve(&db, &q, &[], p);
            eval_path_at(&b, 0, &[], &p).map(|v| match v {
                Cow::Borrowed(v) => Ok(v as *const Value),
                Cow::Owned(v) => Err(v),
            })
        };
        let field = PathExpr::from(v).dot("A");
        let built = PathExpr::MkStruct(vec![(sym("A"), field.clone())]);
        let stored = db.dict(sym("I")).unwrap().get(&row).unwrap();
        assert_eq!(eval(&PathExpr::from(v)), Some(Ok(&row as *const Value)));
        assert_eq!(
            eval(&field),
            Some(Ok(row.field(sym("A")).unwrap() as *const Value))
        );
        assert_eq!(eval(&built), Some(Err(row.clone())));
        assert_eq!(eval(&built.clone().dot("A")), Some(Err(Value::Int(1))));
        assert_eq!(
            eval(&built.lookup_in("I")),
            Some(Ok(stored as *const Value))
        );
        // A candidate stands in for the slot being bound.
        let cand = Value::Int(9);
        let p = PathExpr::from(v);
        let p = Path::resolve(&db, &q, &[0], &p);
        assert!(matches!(
            eval_path_at(&Batch::unit(1), 0, &[&cand], &p),
            Some(Cow::Borrowed(c)) if std::ptr::eq(c, &cand)
        ));
    }

    /// A path reads the candidate if any variable under it is one the
    /// operator binds — under a field chain, a lookup's key or a struct
    /// member too; constants and earlier bindings do not.
    #[test]
    fn resolve_decides_which_paths_read_the_candidate() {
        let db = Database::new();
        let mut q = Query::new();
        let r = q.bind("r", Range::Name(sym("R")));
        let s = q.bind("s", Range::Name(sym("S")));
        let reads = |p: &PathExpr| Path::resolve(&db, &q, &[1], p).reads_candidate();
        let pair = |a: PathExpr| PathExpr::MkStruct(vec![(sym("A"), a), (sym("B"), 1i64.into())]);
        for (p, want) in [
            (PathExpr::from(s).dot("A").dot("B"), true),
            (PathExpr::from(s).dot("A").lookup_in("X"), true),
            (pair(PathExpr::from(s)), true),
            (PathExpr::from(r).dot("A").dot("B"), false),
            (PathExpr::from(r).dot("A").lookup_in("X"), false),
            (pair(PathExpr::from(r)), false),
            (PathExpr::from(7i64), false),
        ] {
            assert_eq!(reads(&p), want, "{p:?}");
        }
    }
}
