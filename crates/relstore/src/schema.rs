//! Table schemas.

use crate::datum::{DataType, Datum};
use crate::error::StoreError;

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        Schema { columns }
    }

    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by name (case-sensitive first, then insensitive).
    pub fn index_of(&self, name: &str) -> Result<usize, StoreError> {
        if let Some(i) = self.columns.iter().position(|c| c.name == name) {
            return Ok(i);
        }
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| StoreError::NoSuchColumn(name.to_string()))
    }

    /// Validate a row against the schema.
    pub fn validate(&self, row: &[Datum]) -> Result<(), StoreError> {
        if row.len() != self.columns.len() {
            return Err(StoreError::SchemaMismatch(format!(
                "expected {} columns, got {}",
                self.columns.len(),
                row.len()
            )));
        }
        for (d, c) in row.iter().zip(&self.columns) {
            if !d.as_ref().fits(c.ty) {
                return Err(StoreError::SchemaMismatch(format!(
                    "datum {d:?} does not fit column {} ({:?})",
                    c.name, c.ty
                )));
            }
        }
        Ok(())
    }

    /// Append a column (used by ROM translators growing the sheet width).
    pub fn push_column(&mut self, col: ColumnDef) {
        self.columns.push(col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("name", DataType::Text),
            ColumnDef::new("score", DataType::Float),
        ])
    }

    #[test]
    fn index_of_is_case_insensitive_fallback() {
        let s = schema();
        assert_eq!(s.index_of("name").unwrap(), 1);
        assert_eq!(s.index_of("NAME").unwrap(), 1);
        assert!(s.index_of("missing").is_err());
    }

    #[test]
    fn validate_checks_arity_and_types() {
        let s = schema();
        assert!(s
            .validate(&[Datum::Int(1), Datum::Text("a".into()), Datum::Float(0.5)])
            .is_ok());
        // Int widens to Float.
        assert!(s
            .validate(&[Datum::Int(1), Datum::Text("a".into()), Datum::Int(2)])
            .is_ok());
        // Nulls fit anywhere.
        assert!(s.validate(&[Datum::Null, Datum::Null, Datum::Null]).is_ok());
        assert!(s.validate(&[Datum::Int(1)]).is_err());
        assert!(s
            .validate(&[
                Datum::Text("x".into()),
                Datum::Text("a".into()),
                Datum::Null
            ])
            .is_err());
    }
}
