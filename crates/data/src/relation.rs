//! Relation instances: collections of tuples over a schema.

use std::fmt;

use crate::error::DataError;
use crate::schema::{AttrId, Schema};
use crate::value::Value;

/// A tuple `t ∈ r`: one value per schema attribute, in schema order.
pub type Tuple = Vec<Value>;

/// Coordinates of a single cell `t[A]` in a relation: row (tuple index) and
/// column (attribute id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    /// Tuple index within the relation.
    pub row: usize,
    /// Attribute id within the schema.
    pub col: AttrId,
}

impl Cell {
    /// Creates a cell coordinate.
    pub fn new(row: usize, col: AttrId) -> Self {
        Cell { row, col }
    }
}

/// A relation instance `r` of a schema `R` (Definition 3.1).
///
/// Tuples are stored row-major; a cell is addressed as `rel[(row, col)]` via
/// [`Relation::value`]. Missing values are `Value::Null`.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    schema: Schema,
    tuples: Vec<Tuple>,
}

impl Relation {
    /// Creates an empty relation over `schema`.
    pub fn empty(schema: Schema) -> Self {
        Relation { schema, tuples: Vec::new() }
    }

    /// Creates a relation from pre-built tuples, validating arity and types.
    ///
    /// # Errors
    /// [`DataError::ArityMismatch`] if a tuple's length differs from the
    /// schema arity, [`DataError::TypeMismatch`] if a non-null value does not
    /// match its attribute's declared type.
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Result<Self, DataError> {
        let mut rel = Relation::empty(schema);
        for t in tuples {
            rel.push(t)?;
        }
        Ok(rel)
    }

    /// Appends a tuple, validating arity and types.
    pub fn push(&mut self, tuple: Tuple) -> Result<(), DataError> {
        if tuple.len() != self.schema.arity() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.arity(),
                actual: tuple.len(),
            });
        }
        for (col, v) in tuple.iter().enumerate() {
            if let Some(ty) = v.attr_type() {
                if ty != self.schema.ty(col) {
                    return Err(DataError::TypeMismatch {
                        attr: self.schema.name(col).to_owned(),
                        expected: self.schema.ty(col).to_string(),
                        value: v.render(),
                    });
                }
            }
        }
        self.tuples.push(tuple);
        Ok(())
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples `n`.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` iff the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Number of attributes `m`.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// The tuple at `row`.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn tuple(&self, row: usize) -> &Tuple {
        &self.tuples[row]
    }

    /// The value of cell `(row, col)` — the paper's `t[A]`.
    ///
    /// # Panics
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn value(&self, row: usize, col: AttrId) -> &Value {
        &self.tuples[row][col]
    }

    /// Overwrites the value of cell `(row, col)` without type checking.
    /// Used by imputers which already hold schema-typed values.
    #[inline]
    pub fn set_value(&mut self, row: usize, col: AttrId, v: Value) {
        self.tuples[row][col] = v;
    }

    /// Overwrites a cell with type validation.
    pub fn set_value_checked(&mut self, cell: Cell, v: Value) -> Result<(), DataError> {
        if cell.row >= self.len() {
            return Err(DataError::OutOfBounds { what: "row", index: cell.row, len: self.len() });
        }
        if cell.col >= self.arity() {
            return Err(DataError::OutOfBounds {
                what: "column",
                index: cell.col,
                len: self.arity(),
            });
        }
        if let Some(ty) = v.attr_type() {
            if ty != self.schema.ty(cell.col) {
                return Err(DataError::TypeMismatch {
                    attr: self.schema.name(cell.col).to_owned(),
                    expected: self.schema.ty(cell.col).to_string(),
                    value: v.render(),
                });
            }
        }
        self.tuples[cell.row][cell.col] = v;
        Ok(())
    }

    /// Iterates over the tuples in row order.
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Consumes the relation, yielding its tuples in row order.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// `true` iff cell `(row, col)` holds a missing value (`t[A] = _`).
    #[inline]
    pub fn is_missing(&self, row: usize, col: AttrId) -> bool {
        self.tuples[row][col].is_null()
    }

    /// All cells holding missing values, in row-major order.
    pub fn missing_cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for (row, t) in self.tuples.iter().enumerate() {
            for (col, v) in t.iter().enumerate() {
                if v.is_null() {
                    out.push(Cell::new(row, col));
                }
            }
        }
        out
    }

    /// Total number of missing values in the relation.
    pub fn missing_count(&self) -> usize {
        self.tuples
            .iter()
            .map(|t| t.iter().filter(|v| v.is_null()).count())
            .sum()
    }

    /// Row indices of the incomplete tuples — the paper's `r̂ ⊆ r`
    /// (Definition 4.1).
    pub fn incomplete_rows(&self) -> Vec<usize> {
        self.tuples
            .iter()
            .enumerate()
            .filter(|(_, t)| t.iter().any(Value::is_null))
            .map(|(row, _)| row)
            .collect()
    }

    /// Projects tuple `row` onto the attribute set `attrs` — the paper's
    /// `t[X]` / `Π_X(t)`.
    pub fn project(&self, row: usize, attrs: &[AttrId]) -> Vec<&Value> {
        attrs.iter().map(|&a| &self.tuples[row][a]).collect()
    }

    /// Drops all tuples from index `len` onwards (no-op when `len` is not
    /// below the current length). Used to split off appended donor tuples.
    pub fn truncate(&mut self, len: usize) {
        self.tuples.truncate(len);
    }

    /// A new relation containing only the rows for which `pred` is true.
    pub fn filter_rows(&self, mut pred: impl FnMut(usize, &Tuple) -> bool) -> Relation {
        Relation {
            schema: self.schema.clone(),
            tuples: self
                .tuples
                .iter()
                .enumerate()
                .filter(|(i, t)| pred(*i, t))
                .map(|(_, t)| t.clone())
                .collect(),
        }
    }

    /// A new relation over the named attributes, in the given order.
    ///
    /// # Errors
    /// [`DataError::UnknownAttribute`] for names not in the schema.
    pub fn select(&self, attrs: &[&str]) -> Result<Relation, DataError> {
        let ids: Vec<AttrId> = attrs
            .iter()
            .map(|name| self.schema.require(name))
            .collect::<Result<_, _>>()?;
        let schema = Schema::new(
            ids.iter()
                .map(|&id| (self.schema.name(id).to_owned(), self.schema.ty(id))),
        )?;
        Ok(Relation {
            schema,
            tuples: self
                .tuples
                .iter()
                .map(|t| ids.iter().map(|&id| t[id].clone()).collect())
                .collect(),
        })
    }

    /// Appends every tuple of `other`, which must share the schema.
    ///
    /// # Errors
    /// [`DataError::ArityMismatch`] when the schemas differ (reported via
    /// the first offending tuple).
    pub fn append_relation(&mut self, other: &Relation) -> Result<(), DataError> {
        if other.schema != self.schema {
            return Err(DataError::ArityMismatch {
                expected: self.arity(),
                actual: other.arity(),
            });
        }
        self.tuples.extend(other.tuples.iter().cloned());
        Ok(())
    }

    /// A new relation with the rows sorted by the given attribute
    /// ([`Value::total_cmp`]; missing values sort first), ties broken by
    /// the original order (stable).
    pub fn sorted_by(&self, attr: AttrId) -> Relation {
        let mut tuples = self.tuples.clone();
        tuples.sort_by(|a, b| a[attr].total_cmp(&b[attr]));
        Relation { schema: self.schema.clone(), tuples }
    }

    /// Distinct non-null values of column `col`, sorted with
    /// [`Value::total_cmp`]. This is the *active domain* of the attribute,
    /// used by baselines for candidate enumeration.
    pub fn active_domain(&self, col: AttrId) -> Vec<Value> {
        let mut vals: Vec<Value> = self
            .tuples
            .iter()
            .map(|t| &t[col])
            .filter(|v| !v.is_null())
            .cloned()
            .collect();
        vals.sort_by(|a, b| a.total_cmp(b));
        vals.dedup();
        vals
    }
}

impl fmt::Display for Relation {
    /// Renders the relation as an aligned text table, the way the paper
    /// prints its samples (Table 2).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.arity();
        let mut widths: Vec<usize> =
            (0..m).map(|c| self.schema.name(c).chars().count()).collect();
        let rendered: Vec<Vec<String>> = self
            .tuples
            .iter()
            .map(|t| t.iter().map(Value::render).collect())
            .collect();
        for row in &rendered {
            for (cell, w) in row.iter().zip(widths.iter_mut()) {
                *w = (*w).max(cell.chars().count());
            }
        }
        for (c, w) in widths.iter().enumerate() {
            if c > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{:width$}", self.schema.name(c), width = w)?;
        }
        writeln!(f)?;
        for row in &rendered {
            for (c, cell) in row.iter().enumerate() {
                if c > 0 {
                    write!(f, " | ")?;
                }
                write!(f, "{:width$}", cell, width = widths[c])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;

    fn sample() -> Relation {
        let schema = Schema::new([
            ("Name", AttrType::Text),
            ("City", AttrType::Text),
            ("Class", AttrType::Int),
        ])
        .unwrap();
        Relation::new(
            schema,
            vec![
                vec!["Granita".into(), "Malibu".into(), Value::Int(6)],
                vec!["Citrus".into(), Value::Null, Value::Int(6)],
                vec![Value::Null, "LA".into(), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let r = sample();
        assert_eq!(r.len(), 3);
        assert_eq!(r.arity(), 3);
        assert_eq!(r.value(0, 1), &Value::Text("Malibu".into()));
        assert!(r.is_missing(1, 1));
    }

    #[test]
    fn missing_cells_row_major() {
        let r = sample();
        assert_eq!(
            r.missing_cells(),
            vec![Cell::new(1, 1), Cell::new(2, 0), Cell::new(2, 2)]
        );
        assert_eq!(r.missing_count(), 3);
    }

    #[test]
    fn incomplete_rows() {
        assert_eq!(sample().incomplete_rows(), vec![1, 2]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = sample();
        let err = r.push(vec![Value::Null]).unwrap_err();
        assert!(matches!(err, DataError::ArityMismatch { .. }));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut r = sample();
        let err = r
            .push(vec![Value::Int(1), "x".into(), Value::Int(2)])
            .unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }));
    }

    #[test]
    fn null_fits_any_column() {
        let mut r = sample();
        r.push(vec![Value::Null, Value::Null, Value::Null]).unwrap();
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn projection() {
        let r = sample();
        let p = r.project(0, &[2, 0]);
        assert_eq!(p, vec![&Value::Int(6), &Value::Text("Granita".into())]);
    }

    #[test]
    fn active_domain_sorted_distinct() {
        let r = sample();
        assert_eq!(r.active_domain(2), vec![Value::Int(6)]);
        assert_eq!(
            r.active_domain(1),
            vec![Value::Text("LA".into()), Value::Text("Malibu".into())]
        );
    }

    #[test]
    fn set_value_checked_bounds_and_types() {
        let mut r = sample();
        assert!(r
            .set_value_checked(Cell::new(1, 1), "Hollywood".into())
            .is_ok());
        assert!(matches!(
            r.set_value_checked(Cell::new(9, 0), Value::Null),
            Err(DataError::OutOfBounds { .. })
        ));
        assert!(matches!(
            r.set_value_checked(Cell::new(0, 2), "six".into()),
            Err(DataError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn truncate_drops_tail() {
        let mut r = sample();
        r.truncate(1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, 0), &Value::Text("Granita".into()));
        r.truncate(5); // beyond length: no-op
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn filter_rows_keeps_matching() {
        let r = sample();
        let only_complete = r.filter_rows(|_, t| t.iter().all(|v| !v.is_null()));
        assert_eq!(only_complete.len(), 1);
        assert_eq!(only_complete.value(0, 0), &Value::Text("Granita".into()));
        let by_index = r.filter_rows(|i, _| i != 0);
        assert_eq!(by_index.len(), 2);
    }

    #[test]
    fn select_projects_and_reorders() {
        let r = sample();
        let p = r.select(&["Class", "Name"]).unwrap();
        assert_eq!(p.arity(), 2);
        assert_eq!(p.schema().name(0), "Class");
        assert_eq!(p.value(0, 0), &Value::Int(6));
        assert_eq!(p.value(0, 1), &Value::Text("Granita".into()));
        assert!(matches!(
            r.select(&["Nope"]),
            Err(DataError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn append_relation_requires_same_schema() {
        let mut r = sample();
        let other = sample();
        r.append_relation(&other).unwrap();
        assert_eq!(r.len(), 6);
        let different = Relation::empty(
            Schema::new([("X", AttrType::Int)]).unwrap(),
        );
        assert!(r.append_relation(&different).is_err());
    }

    #[test]
    fn sorted_by_orders_with_nulls_first() {
        let r = sample();
        let sorted = r.sorted_by(0); // Name column; row 2 has Null name
        assert!(sorted.value(0, 0).is_null());
        assert_eq!(sorted.value(1, 0), &Value::Text("Citrus".into()));
        assert_eq!(sorted.value(2, 0), &Value::Text("Granita".into()));
    }

    #[test]
    fn display_renders_table() {
        let out = sample().to_string();
        assert!(out.starts_with("Name"));
        assert!(out.contains("Granita"));
        assert!(out.contains('_'));
    }
}
