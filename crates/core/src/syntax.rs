//! Core abstract syntax (the paper's Fig. 2, with the deviations documented
//! at the crate root).

use cerberus_ast::ctype::{Ctype, TagId};
use cerberus_ast::ident::Ident;
use cerberus_ast::ub::UbKind;

/// Polarity of a memory action (§5.6): negative actions are not part of a
/// value computation and are only ordered by strong sequencing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// Part of the value computation; ordered by both weak and strong
    /// sequencing.
    Positive,
    /// A side effect outside the value computation (e.g. the store of a
    /// postfix increment); ordered only by strong sequencing.
    Negative,
}

/// Binary operators of Core, over mathematical integers and booleans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binop {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Truncating division.
    Div,
    /// Remainder (truncated, `rem_t` in the paper).
    RemT,
    /// Exponentiation (used by the shift elaboration: `E1 * 2^E2`).
    Exp,
    /// Bitwise AND over the two's-complement representation (an extension of
    /// the paper's Core binop set so `&`, `|`, `^` need no auxiliary
    /// procedures).
    BitAnd,
    /// Bitwise inclusive OR.
    BitOr,
    /// Bitwise exclusive OR.
    BitXor,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
}

/// The pointer operations that involve the memory state (`ptrop` in Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtrOp {
    /// Pointer equality (`==`).
    Eq,
    /// Pointer inequality (`!=`).
    Ne,
    /// Relational `<`.
    Lt,
    /// Relational `>`.
    Gt,
    /// Relational `<=`.
    Le,
    /// Relational `>=`.
    Ge,
    /// Pointer subtraction (`ptrdiff`).
    Diff,
    /// Cast of a pointer value to an integer value (`intFromPtr`).
    IntFromPtr,
    /// Cast of an integer value to a pointer value (`ptrFromInt`).
    PtrFromInt,
}

/// The builtin pure functions of the Core standard library used by the
/// elaboration (the paper's `conv_int`, `is_representable`, `ctype_width`, …
/// auxiliaries, provided here as primitives and interpreted against the
/// implementation-defined environment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinFn {
    /// Conversion of an integer value to a C integer type (6.3.1.3);
    /// arguments: ctype, integer.
    ConvInt,
    /// Whether an integer value is representable in a C type; arguments:
    /// ctype, integer.
    IsRepresentable,
    /// The width in bits of a C integer type; argument: ctype.
    CtypeWidth,
    /// `_Alignof`; argument: ctype.
    AlignOf,
}

/// Where the value of a Core symbol lives at run time, fixed when the
/// elaborator creates the symbol so the interpreter never looks a name up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// An index into the frame of the enclosing procedure call or global
    /// initialiser: a procedure's parameters take the first indices, then
    /// every binder of its body one each. Indices stay below the frame size
    /// recorded on [`crate::program::CoreProc`] or
    /// [`crate::program::CoreGlobal`].
    Local(u32),
    /// An index into the program's static objects: the globals in
    /// declaration order, then the string literals in registration order
    /// (see [`crate::program::CoreProgram::static_name`]).
    Static(u32),
}

/// A Core symbol: the name it prints as, and the slot its value lives in.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Sym {
    /// The symbol's name: a desugared C identifier (`x.3`), a fresh
    /// elaboration temporary (`e1'17`), a global, or a string literal.
    pub name: Ident,
    /// The symbol's slot.
    pub slot: Slot,
}

impl Sym {
    /// A symbol named `name` living in `slot`.
    pub fn new(name: impl Into<Ident>, slot: Slot) -> Self {
        Sym {
            name: name.into(),
            slot,
        }
    }

    /// The textual spelling of the name.
    pub fn as_str(&self) -> &str {
        self.name.as_str()
    }
}

impl std::fmt::Display for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.name.fmt(f)
    }
}

/// Patterns, used by Core `let` and `case`.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// `_`.
    Wildcard,
    /// A symbol binding.
    Sym(Sym),
    /// A tuple pattern.
    Tuple(Vec<Pattern>),
    /// `Specified(p)` — a loaded value that is not unspecified.
    Specified(Box<Pattern>),
}

impl Pattern {
    /// Shorthand for a pattern binding `name` in local slot `index`.
    pub fn local(name: impl Into<String>, index: u32) -> Self {
        Pattern::Sym(Sym::new(Ident::new(name), Slot::Local(index)))
    }
}

/// Memory actions (`a` in Fig. 2); operands are pure expressions because the
/// elaboration always evaluates them first.
#[derive(Debug, Clone, PartialEq)]
pub enum MemAction {
    /// Create an object for a C type (static or automatic storage): alignment
    /// and type.
    Create { align: Box<PExpr>, ty: Box<PExpr> },
    /// End the lifetime of the object a pointer refers to.
    Kill(Box<PExpr>),
    /// Store a value through a pointer at a C type.
    Store {
        ty: Box<PExpr>,
        ptr: Box<PExpr>,
        value: Box<PExpr>,
    },
    /// Load a value through a pointer at a C type.
    Load { ty: Box<PExpr>, ptr: Box<PExpr> },
}

/// Pure (effect-free) Core expressions (`pe` in Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub enum PExpr {
    /// A Core symbol.
    Sym(Sym),
    /// The unit value.
    Unit,
    /// A mathematical integer literal.
    Integer(i128),
    /// A C type expression as a first-class value.
    CtypeConst(Ctype),
    /// A C function designator used as a value (function pointer).
    FunctionPtr(Ident),
    /// Undefined behaviour: evaluating this terminates the execution with the
    /// recorded UB (§5.4).
    Undef(UbKind),
    /// An implementation-defined static error (e.g. an unsupported construct
    /// reached at runtime).
    Error(String),
    /// `Specified(pe)` — a non-unspecified loaded value.
    Specified(Box<PExpr>),
    /// `Unspecified(τ)` — an unspecified loaded value of C type τ.
    Unspecified(Ctype),
    /// A tuple.
    Tuple(Vec<PExpr>),
    /// A binary operation over mathematical integers / booleans.
    Binop(Binop, Box<PExpr>, Box<PExpr>),
    /// Pure conditional (the test must be pure).
    If(Box<PExpr>, Box<PExpr>, Box<PExpr>),
    /// Pure pattern match.
    Case(Box<PExpr>, Vec<(Pattern, PExpr)>),
    /// A call to a builtin pure function of the Core standard library.
    Builtin(BuiltinFn, Vec<PExpr>),
    /// Pointer array shift: `array_shift(ptr, τ, index)` advances a pointer by
    /// `index` elements of type τ (no memory access).
    ArrayShift {
        ptr: Box<PExpr>,
        elem_ty: Ctype,
        index: Box<PExpr>,
    },
    /// Pointer member shift: `member_shift(ptr, tag.member)` moves a pointer
    /// to a struct/union member (no memory access).
    MemberShift {
        ptr: Box<PExpr>,
        tag: TagId,
        member: Ident,
    },
}

impl PExpr {
    /// Shorthand for a use of `name` in local slot `index`.
    pub fn local(name: impl Into<String>, index: u32) -> Self {
        PExpr::Sym(Sym::new(Ident::new(name), Slot::Local(index)))
    }

    /// Shorthand for a `Specified` integer literal.
    pub fn specified_int(v: i128) -> Self {
        PExpr::Specified(Box::new(PExpr::Integer(v)))
    }

    /// Whether the expression is a literal value (no free symbols, no
    /// computation).
    pub fn is_value(&self) -> bool {
        match self {
            PExpr::Unit
            | PExpr::Integer(_)
            | PExpr::CtypeConst(_)
            | PExpr::FunctionPtr(_)
            | PExpr::Unspecified(_) => true,
            PExpr::Specified(inner) => inner.is_value(),
            PExpr::Tuple(items) => items.iter().all(PExpr::is_value),
            _ => false,
        }
    }
}

/// Effectful Core expressions (`e` in Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A pure expression.
    Pure(PExpr),
    /// A pointer operation that involves the memory state.
    Memop(PtrOp, Vec<PExpr>),
    /// A memory action with its polarity.
    Action(Polarity, MemAction),
    /// Effectful pattern match.
    Case(PExpr, Vec<(Pattern, Expr)>),
    /// `let pat = pe in e` — bind a pure value in an effectful continuation.
    Let(Pattern, PExpr, Box<Expr>),
    /// Effectful conditional (the test is pure).
    If(PExpr, Box<Expr>, Box<Expr>),
    /// `skip`.
    Skip,
    /// Call of a C function (by designator value) with already-evaluated
    /// arguments.
    Ccall(Box<PExpr>, Vec<PExpr>),
    /// Unsequenced evaluation of several expressions; reduces to the tuple of
    /// their values. Conflicting accesses between siblings are an unsequenced
    /// race (6.5p2).
    Unseq(Vec<Expr>),
    /// Weak sequencing: only the *positive* actions of the first expression
    /// are sequenced before the second.
    Wseq(Pattern, Box<Expr>, Box<Expr>),
    /// Strong sequencing: all actions of the first expression are sequenced
    /// before the second.
    Sseq(Pattern, Box<Expr>, Box<Expr>),
    /// Marks a subexpression as indeterminately sequenced w.r.t. its context
    /// (function bodies in expressions).
    Indet(Box<Expr>),
    /// `save l in e` — a label whose body is `e`; `run l` within re-executes
    /// the body (loop/backward-jump semantics).
    Save(Ident, Box<Expr>),
    /// `exit l in e` — a delimiter; `run l` within terminates `e` normally
    /// with unit (break/forward-jump semantics).
    Exit(Ident, Box<Expr>),
    /// Jump to the innermost enclosing `save`/`exit` for the label.
    Run(Ident),
    /// Return from the current C function with a (loaded) value.
    Return(Box<PExpr>),
}

impl Expr {
    /// Strong-sequence two expressions, discarding the first value.
    pub fn seq(first: Expr, second: Expr) -> Expr {
        Expr::Sseq(Pattern::Wildcard, Box::new(first), Box::new(second))
    }

    /// Strong-sequence a list of expressions, discarding intermediate values;
    /// an empty list is `skip`.
    pub fn seq_all(items: Vec<Expr>) -> Expr {
        let mut iter = items.into_iter().rev();
        match iter.next() {
            None => Expr::Skip,
            Some(last) => iter.fold(last, |acc, e| Expr::seq(e, acc)),
        }
    }

    /// Whether the expression contains any memory action or call.
    pub fn has_effects(&self) -> bool {
        match self {
            Expr::Pure(_) | Expr::Skip | Expr::Run(_) => false,
            Expr::Memop(..) | Expr::Action(..) | Expr::Ccall(..) | Expr::Return(_) => true,
            Expr::Case(_, arms) => arms.iter().any(|(_, e)| e.has_effects()),
            Expr::Let(_, _, e) | Expr::Indet(e) | Expr::Save(_, e) | Expr::Exit(_, e) => {
                e.has_effects()
            }
            Expr::If(_, a, b) | Expr::Wseq(_, a, b) | Expr::Sseq(_, a, b) => {
                a.has_effects() || b.has_effects()
            }
            Expr::Unseq(es) => es.iter().any(Expr::has_effects),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerberus_ast::ctype::IntegerType;

    #[test]
    fn pexpr_value_detection() {
        assert!(PExpr::Integer(3).is_value());
        assert!(PExpr::specified_int(3).is_value());
        assert!(PExpr::Unspecified(Ctype::integer(IntegerType::Int)).is_value());
        assert!(!PExpr::local("x", 0).is_value());
        assert!(!PExpr::Binop(
            Binop::Add,
            Box::new(PExpr::Integer(1)),
            Box::new(PExpr::Integer(2))
        )
        .is_value());
        assert!(PExpr::Tuple(vec![PExpr::Unit, PExpr::Integer(1)]).is_value());
    }

    #[test]
    fn seq_all_builds_right_nested_sequences() {
        let e = Expr::seq_all(vec![Expr::Skip, Expr::Skip, Expr::Pure(PExpr::Unit)]);
        match e {
            Expr::Sseq(_, first, rest) => {
                assert_eq!(*first, Expr::Skip);
                assert!(matches!(*rest, Expr::Sseq(..)));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
        assert_eq!(Expr::seq_all(vec![]), Expr::Skip);
    }

    #[test]
    fn effect_detection() {
        let store = Expr::Action(
            Polarity::Positive,
            MemAction::Store {
                ty: Box::new(PExpr::CtypeConst(Ctype::integer(IntegerType::Int))),
                ptr: Box::new(PExpr::local("p", 0)),
                value: Box::new(PExpr::Integer(1)),
            },
        );
        assert!(store.has_effects());
        assert!(!Expr::Pure(PExpr::Integer(1)).has_effects());
        assert!(Expr::seq(Expr::Skip, store).has_effects());
        assert!(!Expr::seq(Expr::Skip, Expr::Skip).has_effects());
    }

    #[test]
    fn pattern_shorthand() {
        assert_eq!(
            Pattern::local("x", 2),
            Pattern::Sym(Sym::new("x", Slot::Local(2)))
        );
    }
}
