//! The Ail abstract syntax: desugared, scoped, and type-annotated C.
//!
//! Every expression node carries its C type and whether it designates an
//! lvalue; identifiers have been made unique per translation unit; enums have
//! been replaced by integer constants; `e1[e2]` has been rewritten to
//! `*(e1 + e2)` (6.5.2.1p2) and `p->m` to `(*p).m` (6.5.2.3p4); and the many
//! syntactic forms of declarations have been normalised into object and
//! function definitions with canonical [`Ctype`]s.

use cerberus_ast::ctype::Ctype;
use cerberus_ast::ident::Ident;
use cerberus_ast::layout::TagRegistry;
use cerberus_ast::loc::Span;

/// Unary operators surviving into Ail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `&e` — address of an lvalue or function designator.
    AddressOf,
    /// `*e` — indirection.
    Deref,
    /// `+e`.
    Plus,
    /// `-e`.
    Minus,
    /// `~e`.
    BitNot,
    /// `!e`.
    LogicalNot,
    /// `e++` (value is the old value; the increment is a side effect).
    PostIncr,
    /// `e--`.
    PostDecr,
    /// `++e`.
    PreIncr,
    /// `--e`.
    PreDecr,
}

/// Binary operators surviving into Ail (logical `&&`/`||` keep their
/// short-circuit sequencing, so they stay distinct from the bitwise ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `*`.
    Mul,
    /// `/`.
    Div,
    /// `%`.
    Mod,
    /// `+`.
    Add,
    /// `-`.
    Sub,
    /// `<<`.
    Shl,
    /// `>>`.
    Shr,
    /// `<`.
    Lt,
    /// `>`.
    Gt,
    /// `<=`.
    Le,
    /// `>=`.
    Ge,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `&`.
    BitAnd,
    /// `^`.
    BitXor,
    /// `|`.
    BitOr,
    /// `&&`.
    LogicalAnd,
    /// `||`.
    LogicalOr,
}

impl BinOp {
    /// Whether the operator is a relational or equality comparison, whose
    /// result type is `int`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// Whether the operator is `&&` or `||`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::LogicalAnd | BinOp::LogicalOr)
    }
}

/// How an identifier was classified during desugaring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdentKind {
    /// An object with automatic storage duration (local or parameter).
    Local,
    /// An object with static storage duration (global or static local after
    /// renaming).
    Global,
    /// A function designator.
    Function,
}

/// A type-annotated expression.
#[derive(Debug, Clone, PartialEq)]
pub struct AilExpr {
    /// The expression constructor.
    pub kind: AilExprKind,
    /// The C type of the expression *before* lvalue conversion (so an `int`
    /// variable use has type `int` and `is_lvalue` true).
    pub ty: Ctype,
    /// Whether the expression designates an lvalue.
    pub is_lvalue: bool,
    /// Source span.
    pub span: Span,
}

/// Expression constructors.
#[derive(Debug, Clone, PartialEq)]
pub enum AilExprKind {
    /// A use of a declared identifier (unique per translation unit).
    Ident(Ident, IdentKind),
    /// An integer constant with the type recorded in [`AilExpr::ty`].
    Constant(i128),
    /// A floating constant (parsed, never evaluated).
    FloatConstant(f64),
    /// A string literal (a static array-of-char object).
    StringLit(Vec<u8>),
    /// A unary operator application.
    Unary(UnOp, Box<AilExpr>),
    /// A binary operator application.
    Binary(BinOp, Box<AilExpr>, Box<AilExpr>),
    /// Simple assignment `l = r`.
    Assign(Box<AilExpr>, Box<AilExpr>),
    /// Compound assignment `l op= r`.
    CompoundAssign(BinOp, Box<AilExpr>, Box<AilExpr>),
    /// `c ? t : f`.
    Conditional(Box<AilExpr>, Box<AilExpr>, Box<AilExpr>),
    /// An explicit cast `(T)e`.
    Cast(Ctype, Box<AilExpr>),
    /// A function call.
    Call(Box<AilExpr>, Vec<AilExpr>),
    /// Member selection `e.m` (after `->` has been rewritten away).
    Member(Box<AilExpr>, Ident),
    /// `a, b`.
    Comma(Box<AilExpr>, Box<AilExpr>),
}

impl AilExpr {
    /// Whether this expression is a compile-time integer constant (used by
    /// the front end when folding array sizes, enum values and case labels).
    pub fn is_integer_constant(&self) -> bool {
        matches!(self.kind, AilExprKind::Constant(_))
    }
}

/// A (possibly aggregate) initialiser after desugaring.
#[derive(Debug, Clone, PartialEq)]
pub enum AilInit {
    /// A scalar initialiser expression.
    Expr(AilExpr),
    /// A brace-enclosed initialiser list for an array or struct.
    List(Vec<AilInit>),
}

/// An object declaration within a block.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectDecl {
    /// The unique name of the object.
    pub name: Ident,
    /// Its declared type.
    pub ty: Ctype,
    /// Its initialiser, if any.
    pub init: Option<AilInit>,
    /// Source span of the declarator.
    pub span: Span,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum AilStmt {
    /// The empty statement.
    Skip,
    /// An expression evaluated for its effects.
    Expr(AilExpr),
    /// A block: a new scope containing a sequence of statements.
    Block(Vec<AilStmt>, Span),
    /// Declarations of block-scoped objects, in source order.
    Decl(Vec<ObjectDecl>),
    /// `if`.
    If(AilExpr, Box<AilStmt>, Box<AilStmt>),
    /// `while`.
    While(AilExpr, Box<AilStmt>),
    /// `do … while`.
    DoWhile(Box<AilStmt>, AilExpr),
    /// `for` (the init clause has already been made a statement).
    For(Box<AilStmt>, Option<AilExpr>, Option<AilExpr>, Box<AilStmt>),
    /// `switch`.
    Switch(AilExpr, Box<AilStmt>),
    /// `case k:` — the label value has been constant-folded.
    Case(i128, Box<AilStmt>),
    /// `default:`.
    Default(Box<AilStmt>),
    /// `break;`.
    Break,
    /// `continue;`.
    Continue,
    /// `return;` / `return e;`.
    Return(Option<AilExpr>),
    /// `goto label;`.
    Goto(Ident),
    /// `label: stmt`.
    Label(Ident, Box<AilStmt>),
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// The function name (not renamed; external linkage).
    pub name: Ident,
    /// Return type.
    pub return_ty: Ctype,
    /// Parameters: unique name and type, in order.
    pub params: Vec<(Ident, Ctype)>,
    /// Whether the prototype ends in `...`.
    pub variadic: bool,
    /// The body (a block).
    pub body: AilStmt,
    /// Source span.
    pub span: Span,
}

/// An object with static storage duration.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDef {
    /// Unique name.
    pub name: Ident,
    /// Declared type.
    pub ty: Ctype,
    /// Initialiser, if any. Objects with static storage duration and no
    /// initialiser are zero-initialised (6.7.9p10).
    pub init: Option<AilInit>,
    /// Source span.
    pub span: Span,
}

/// A declared-but-undefined function (a prototype), kept so calls can be
/// type-checked; calling one at runtime that is not a builtin is an error.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDecl {
    /// The function name.
    pub name: Ident,
    /// Its type (always a [`Ctype::Function`]).
    pub ty: Ctype,
}

/// A desugared, type-annotated translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AilProgram {
    /// All struct/union definitions.
    pub tags: TagRegistry,
    /// Objects with static storage duration, in declaration order.
    pub globals: Vec<GlobalDef>,
    /// Function definitions.
    pub functions: Vec<FunctionDef>,
    /// Function declarations without definitions (builtins and prototypes).
    pub declarations: Vec<FunctionDecl>,
}

impl AilProgram {
    /// Find a function definition by source name.
    pub fn function(&self, name: &str) -> Option<&FunctionDef> {
        self.functions.iter().find(|f| f.name.as_str() == name)
    }

    /// Find a global by (unique) name.
    pub fn global(&self, name: &str) -> Option<&GlobalDef> {
        self.globals.iter().find(|g| g.name.as_str() == name)
    }

    /// Whether the program defines `main`.
    pub fn has_main(&self) -> bool {
        self.function("main").is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerberus_ast::ctype::IntegerType;

    #[test]
    fn binop_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(BinOp::Ne.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::LogicalAnd.is_logical());
        assert!(!BinOp::BitAnd.is_logical());
    }

    #[test]
    fn program_lookup_helpers() {
        let mut p = AilProgram::default();
        assert!(!p.has_main());
        p.functions.push(FunctionDef {
            name: Ident::new("main"),
            return_ty: Ctype::integer(IntegerType::Int),
            params: vec![],
            variadic: false,
            body: AilStmt::Skip,
            span: Span::synthetic(),
        });
        assert!(p.has_main());
        assert!(p.function("main").is_some());
        assert!(p.function("other").is_none());
    }

    #[test]
    fn constant_detection() {
        let c = AilExpr {
            kind: AilExprKind::Constant(4),
            ty: Ctype::integer(IntegerType::Int),
            is_lvalue: false,
            span: Span::synthetic(),
        };
        assert!(c.is_integer_constant());
    }
}
