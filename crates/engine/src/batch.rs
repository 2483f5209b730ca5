//! Columnar batches — the unit of work of the batched executor.
//!
//! A [`Batch`] is an intermediate join result stored column-major: one
//! column of [`Value`]s per *bound* from-clause binding, all columns the
//! same length. Operators ([`crate::join`]) consume a batch and emit a new
//! one by building a row-id **selection vector** (`Vec<u32>` of input row
//! ids, in order) plus the new binding's column, then gathering the old
//! columns through the selection. Because every operator walks its input
//! batch front to back and appends matches in encounter order, the row
//! order of each batch — and therefore of the final result — is a pure
//! function of `(database, plan)`: no hash-map iteration is ever involved.
//!
//! Values are cheap to gather: strings, structs and sets are `Arc`-backed,
//! so a gather clones handles, not payloads.

use cnb_core::fxhash::FxHashMap;
use cnb_ir::prelude::*;

use crate::database::Database;

/// A column-major batch of intermediate rows. See the module docs.
#[derive(Clone, Debug)]
pub struct Batch {
    len: usize,
    /// One slot per from-clause binding; `None` until that binding is bound.
    cols: Vec<Option<Vec<Value>>>,
}

impl Batch {
    /// The unit batch: one row binding nothing — the identity input for the
    /// first access operator (`width` = number of from-clause bindings).
    pub fn unit(width: usize) -> Batch {
        Batch {
            len: 1,
            cols: vec![None; width],
        }
    }

    /// A batch binding every slot: `cols[i]` is slot `i`'s column, all of
    /// equal length.
    pub fn from_columns(cols: Vec<Vec<Value>>) -> Batch {
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
    pub fn col(&self, slot: usize) -> Option<&[Value]> {
        self.cols[slot].as_deref()
    }

    /// Gathers the selected rows and adds `vals` as the column for `slot`
    /// (`sel` and `vals` must have equal length: `sel[i]` is the input row
    /// that produced output row `i`).
    pub fn gather_with(&self, sel: &[u32], slot: usize, vals: Vec<Value>) -> Batch {
        self.gather(sel).with_col(slot, vals)
    }

    /// Binds `slot` to `vals`, one value per row.
    pub(crate) fn with_col(mut self, slot: usize, vals: Vec<Value>) -> Batch {
        debug_assert_eq!(self.len, vals.len());
        self.cols[slot] = Some(vals);
        self
    }

    /// Gathers the selected rows into a new batch.
    pub fn gather(&self, sel: &[u32]) -> Batch {
        Batch {
            len: sel.len(),
            cols: self
                .cols
                .iter()
                .map(|col| {
                    col.as_ref()
                        .map(|c| sel.iter().map(|&r| c[r as usize].clone()).collect())
                })
                .collect(),
        }
    }
}

/// Maps each query variable to its from-clause slot (column index).
pub(crate) fn slot_map(q: &Query) -> FxHashMap<Var, usize> {
    q.from.iter().enumerate().map(|(i, b)| (b.var, i)).collect()
}

/// Evaluates a path at one row of a batch. `None` means undefined (missing
/// dictionary key or field) — the caller skips the row, exactly like the
/// tuple-at-a-time semantics.
pub(crate) fn eval_path_at(
    db: &Database,
    batch: &Batch,
    slots: &FxHashMap<Var, usize>,
    row: usize,
    p: &PathExpr,
) -> Option<Value> {
    match p {
        PathExpr::Var(v) => batch.col(*slots.get(v)?).map(|c| c[row].clone()),
        PathExpr::Const(c) => Some(c.clone()),
        PathExpr::Field(base, f) => eval_path_at(db, batch, slots, row, base)?
            .field(*f)
            .cloned(),
        PathExpr::Lookup(dict, key) => {
            let k = eval_path_at(db, batch, slots, row, key)?;
            db.dict(*dict)?.get(&k).cloned()
        }
        PathExpr::MkStruct(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (name, p) in fields {
                out.push((*name, eval_path_at(db, batch, slots, row, p)?));
            }
            Some(Value::record(out))
        }
    }
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
        let vals = vec![Value::Int(10), Value::Int(20), Value::Int(30)];
        let b = b.gather_with(&[0, 0, 0], 0, vals);
        assert_eq!(b.len(), 3);
        assert_eq!(b.col(0).unwrap()[1], Value::Int(20));
        // Select rows 2 and 0, in that order.
        let b = b.gather(&[2, 0]);
        assert_eq!(b.col(0).unwrap(), &[Value::Int(30), Value::Int(10)]);
        assert!(b.col(1).is_none());
    }

    #[test]
    fn path_eval_over_batch() {
        let mut db = Database::new();
        db.set_entry(sym("M"), Value::Int(7), Value::Int(70));
        let mut q = Query::new();
        let v = q.bind("v", Range::Name(sym("R")));
        let slots = slot_map(&q);
        let b = Batch::unit(1).gather_with(&[0, 0], 0, vec![Value::Int(7), Value::Int(8)]);
        let p = PathExpr::from(v).lookup_in("M");
        assert_eq!(
            eval_path_at(&db, &b, &slots, 0, &p),
            Some(Value::Int(70)),
            "present key"
        );
        assert_eq!(eval_path_at(&db, &b, &slots, 1, &p), None, "absent key");
    }
}
