//! C identifiers.
//!
//! Identifiers appear throughout the pipeline: C source identifiers in Cabs
//! and Ail, and fresh symbols manufactured during elaboration into Core. The
//! same representation serves both; the elaborator numbers its fresh symbols
//! per program with a suffix that cannot collide with any C identifier
//! because it contains a `'` character, which is not part of the C
//! identifier character set.

use std::fmt;

/// An identifier: either a C source identifier or a generated symbol.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ident {
    name: String,
}

impl Ident {
    /// An identifier spelled exactly as in the source.
    pub fn new(name: impl Into<String>) -> Self {
        Ident { name: name.into() }
    }

    /// The textual spelling.
    pub fn as_str(&self) -> &str {
        &self.name
    }

    /// Whether this identifier is a generated symbol, spelled `hint'N`.
    pub fn is_generated(&self) -> bool {
        self.name.contains('\'')
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Self {
        Ident::new(s)
    }
}

impl From<String> for Ident {
    fn from(s: String) -> Self {
        Ident::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_identifiers_are_not_generated() {
        assert!(!Ident::new("main").is_generated());
        assert_eq!(Ident::new("main").as_str(), "main");
        assert!(Ident::new("e1'17").is_generated());
    }
}
