//! Whole Core programs: "a set of Core declarations together with the name of
//! the startup (main) function; a set of struct and union type definitions; a
//! set of names, core types, and allocation/initialisation expressions for C
//! objects with static storage duration" (Fig. 2's closing description).

use std::collections::HashMap;

use cerberus_ast::ctype::Ctype;
use cerberus_ast::ident::Ident;
use cerberus_ast::layout::TagRegistry;

use crate::syntax::Expr;

/// A Core procedure: the elaboration of a C function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreProc {
    /// The C function name.
    pub name: Ident,
    /// Parameter symbols and their C types; the body begins by creating one
    /// object per parameter and storing the incoming argument value into it.
    pub params: Vec<(Ident, Ctype)>,
    /// Whether the prototype ends in `...`, so the procedure accepts
    /// arguments beyond its parameters.
    pub variadic: bool,
    /// The C return type.
    pub return_ty: Ctype,
    /// The elaborated body.
    pub body: Expr,
    /// The number of local slots a call needs: one per parameter (parameter
    /// `i` lives in slot `i`), then one per binder of the body.
    pub frame_size: u32,
}

impl CoreProc {
    /// Whether a call with `args` arguments matches the prototype: exactly
    /// one per parameter, or more when the procedure is variadic.
    pub fn accepts_arity(&self, args: usize) -> bool {
        args == self.params.len() || (self.variadic && args > self.params.len())
    }
}

/// A C object with static storage duration, with its initialisation
/// expression (evaluated before `main`, in declaration order).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreGlobal {
    /// The object name.
    pub name: Ident,
    /// The object's C type.
    pub ty: Ctype,
    /// The elaborated initialisation expression; objects without an explicit
    /// initialiser are zero-initialised (6.7.9p10), expressed here by an
    /// expression storing the zero value.
    pub init: Expr,
    /// The number of local slots the initialiser needs: it runs in a frame
    /// of its own.
    pub frame_size: u32,
}

/// A complete elaborated program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreProgram {
    /// Struct/union definitions carried over from the front end.
    pub tags: TagRegistry,
    /// Static-storage objects in declaration order.
    pub globals: Vec<CoreGlobal>,
    /// String-literal objects: a generated name and the bytes (including the
    /// terminating NUL).
    pub string_literals: Vec<(Ident, Vec<u8>)>,
    /// Core procedures, keyed by C function name.
    pub procs: HashMap<String, CoreProc>,
    /// The startup function name, if the program defines `main`.
    pub main: Option<Ident>,
}

impl CoreProgram {
    /// Look up a procedure by name.
    pub fn proc(&self, name: &str) -> Option<&CoreProc> {
        self.procs.get(name)
    }

    /// Total number of procedures.
    pub fn proc_count(&self) -> usize {
        self.procs.len()
    }

    /// The name of the static object a [`crate::syntax::Slot::Static`] index
    /// denotes: globals take the first indices, string literals the rest.
    pub fn static_name(&self, index: u32) -> Option<&Ident> {
        let index = index as usize;
        match self.globals.get(index) {
            Some(global) => Some(&global.name),
            None => self
                .string_literals
                .get(index - self.globals.len())
                .map(|(name, _)| name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::PExpr;
    use cerberus_ast::ctype::IntegerType;

    #[test]
    fn program_lookup() {
        let mut p = CoreProgram::default();
        p.procs.insert(
            "main".to_owned(),
            CoreProc {
                name: Ident::new("main"),
                params: vec![],
                variadic: false,
                return_ty: Ctype::integer(IntegerType::Int),
                body: Expr::Pure(PExpr::Integer(0)),
                frame_size: 0,
            },
        );
        p.main = Some(Ident::new("main"));
        assert!(p.proc("main").is_some());
        assert!(p.proc("absent").is_none());
        assert_eq!(p.proc_count(), 1);
    }

    #[test]
    fn static_indices_number_globals_then_string_literals() {
        let p = CoreProgram {
            globals: vec![CoreGlobal {
                name: Ident::new("g"),
                ty: Ctype::integer(IntegerType::Int),
                init: Expr::Skip,
                frame_size: 0,
            }],
            string_literals: vec![(Ident::new("strlit'0"), b"a\0".to_vec())],
            ..CoreProgram::default()
        };
        assert_eq!(p.static_name(0).map(Ident::as_str), Some("g"));
        assert_eq!(p.static_name(1).map(Ident::as_str), Some("strlit'0"));
        assert_eq!(p.static_name(2), None);
    }
}
