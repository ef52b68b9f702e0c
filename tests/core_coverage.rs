//! Every Core constructor has a C producer.
//!
//! Core holds only what the elaborator emits: a variant that no C program
//! reaches is dead weight in every consumer (the interpreter, the analyzer,
//! the validator and the pretty printer). This test elaborates every golden
//! fixture, plus a few short snippets for the constructs the corpus does not
//! reach, walks every procedure body and global initialiser, and asserts
//! that each variant of `Expr`, `PExpr`, `Pattern`, `MemAction`, `PtrOp`,
//! `Binop`, `BuiltinFn` and `Polarity` occurs at least once.
//!
//! The variant lists are matched exhaustively, so adding a Core variant
//! fails to compile here until it is listed, and a listed variant then
//! needs a C program that produces it.

use std::collections::BTreeSet;

use cerberus::Session;
use cerberus_core::program::CoreProgram;
use cerberus_core::syntax::{Binop, BuiltinFn, Expr, MemAction, PExpr, Pattern, Polarity, PtrOp};
use cerberus_litmus::fixtures::{discover, fixtures_root};

/// Defines `$all`, the qualified names of the listed variants of `$ty`, and
/// `$name`, which names the variant of a value; its match has no wildcard
/// arm, so the list must name every variant.
macro_rules! variants {
    ($name:ident, $all:ident, $ty:ident { $($v:ident),+ $(,)? }) => {
        const $all: &[&str] = &[$(concat!(stringify!($ty), "::", stringify!($v))),+];

        fn $name(x: &$ty) -> &'static str {
            match x {
                $($ty::$v { .. } => concat!(stringify!($ty), "::", stringify!($v)),)+
            }
        }
    };
}

variants! { expr_name, EXPRS, Expr {
    Pure, Memop, Action, Case, Let, If, Skip, Ccall, Unseq, Wseq, Sseq, Indet, Save, Exit, Run,
    Return,
} }
variants! { pexpr_name, PEXPRS, PExpr {
    Sym, Unit, Integer, CtypeConst, FunctionPtr, Undef, Error, Specified, Unspecified, Tuple,
    Binop, If, Case, Builtin, ArrayShift, MemberShift,
} }
variants! { pattern_name, PATTERNS, Pattern { Wildcard, Sym, Tuple, Specified } }
variants! { action_name, ACTIONS, MemAction { Create, Kill, Store, Load } }
variants! { ptrop_name, PTROPS, PtrOp { Eq, Ne, Lt, Gt, Le, Ge, Diff, IntFromPtr, PtrFromInt } }
variants! { binop_name, BINOPS, Binop {
    Add, Sub, Mul, Div, RemT, Exp, BitAnd, BitOr, BitXor, Eq, Ne, Lt, Le, Gt, Ge,
} }
variants! { builtin_name, BUILTINS, BuiltinFn { ConvInt, IsRepresentable, CtypeWidth, AlignOf } }
variants! { polarity_name, POLARITIES, Polarity { Positive, Negative } }

/// The variants seen so far.
#[derive(Default)]
struct Seen(BTreeSet<&'static str>);

impl Seen {
    fn program(&mut self, program: &CoreProgram) {
        for global in &program.globals {
            self.expr(&global.init);
        }
        for proc in program.procs.values() {
            self.expr(&proc.body);
        }
    }

    fn expr(&mut self, e: &Expr) {
        self.0.insert(expr_name(e));
        match e {
            Expr::Pure(pe) => self.pexpr(pe),
            Expr::Memop(op, args) => {
                self.0.insert(ptrop_name(op));
                self.pexprs(args);
            }
            Expr::Action(polarity, action) => {
                self.0.insert(polarity_name(polarity));
                self.action(action);
            }
            Expr::Case(scrutinee, arms) => {
                self.pexpr(scrutinee);
                for (pat, body) in arms {
                    self.pattern(pat);
                    self.expr(body);
                }
            }
            Expr::Let(pat, value, body) => {
                self.pattern(pat);
                self.pexpr(value);
                self.expr(body);
            }
            Expr::If(c, t, f) => {
                self.pexpr(c);
                self.expr(t);
                self.expr(f);
            }
            Expr::Skip | Expr::Run(_) => {}
            Expr::Ccall(f, args) => {
                self.pexpr(f);
                self.pexprs(args);
            }
            Expr::Unseq(items) => {
                for item in items {
                    self.expr(item);
                }
            }
            Expr::Wseq(pat, a, b) | Expr::Sseq(pat, a, b) => {
                self.pattern(pat);
                self.expr(a);
                self.expr(b);
            }
            Expr::Indet(body) | Expr::Save(_, body) | Expr::Exit(_, body) => self.expr(body),
            Expr::Return(value) => self.pexpr(value),
        }
    }

    fn pexprs(&mut self, items: &[PExpr]) {
        for item in items {
            self.pexpr(item);
        }
    }

    fn pexpr(&mut self, pe: &PExpr) {
        self.0.insert(pexpr_name(pe));
        match pe {
            PExpr::Sym(_)
            | PExpr::Unit
            | PExpr::Integer(_)
            | PExpr::CtypeConst(_)
            | PExpr::FunctionPtr(_)
            | PExpr::Undef(_)
            | PExpr::Error(_)
            | PExpr::Unspecified(_) => {}
            PExpr::Specified(inner) => self.pexpr(inner),
            PExpr::Tuple(items) => self.pexprs(items),
            PExpr::Binop(op, a, b) => {
                self.0.insert(binop_name(op));
                self.pexpr(a);
                self.pexpr(b);
            }
            PExpr::If(c, t, f) => {
                self.pexpr(c);
                self.pexpr(t);
                self.pexpr(f);
            }
            PExpr::Case(scrutinee, arms) => {
                self.pexpr(scrutinee);
                for (pat, body) in arms {
                    self.pattern(pat);
                    self.pexpr(body);
                }
            }
            PExpr::Builtin(f, args) => {
                self.0.insert(builtin_name(f));
                self.pexprs(args);
            }
            PExpr::ArrayShift { ptr, index, .. } => {
                self.pexpr(ptr);
                self.pexpr(index);
            }
            PExpr::MemberShift { ptr, .. } => self.pexpr(ptr),
        }
    }

    fn pattern(&mut self, pat: &Pattern) {
        self.0.insert(pattern_name(pat));
        match pat {
            Pattern::Wildcard | Pattern::Sym(_) => {}
            Pattern::Tuple(items) => {
                for item in items {
                    self.pattern(item);
                }
            }
            Pattern::Specified(inner) => self.pattern(inner),
        }
    }

    fn action(&mut self, action: &MemAction) {
        self.0.insert(action_name(action));
        match action {
            MemAction::Create { align, ty } => {
                self.pexpr(align);
                self.pexpr(ty);
            }
            MemAction::Kill(ptr) => self.pexpr(ptr),
            MemAction::Store { ty, ptr, value } => {
                self.pexpr(ty);
                self.pexpr(ptr);
                self.pexpr(value);
            }
            MemAction::Load { ty, ptr } => {
                self.pexpr(ty);
                self.pexpr(ptr);
            }
        }
    }
}

/// Constructs the elaborator emits that no golden fixture reaches, each
/// with the C that produces it.
const SNIPPETS: &[(&str, &str)] = &[
    (
        "Binop::Gt, Binop::Ge",
        "int main(void) { int a = 2, b = 1; return (a > b) + (a >= b); }",
    ),
    (
        "Binop::BitOr",
        "int main(void) { int a = 4, b = 1; return a | b; }",
    ),
    (
        "PtrOp::Ge",
        "int main(void) { int x[2]; int *p = &x[1], *q = &x[0]; return p >= q; }",
    ),
    (
        "PExpr::Unit",
        "void f(void) { return; } int main(void) { f(); return 0; }",
    ),
    ("PExpr::Error", "int main(void) { 1.5; return 0; }"),
];

fn sources() -> Vec<(String, String)> {
    let entries = discover(&fixtures_root());
    assert!(
        entries.len() >= 60,
        "fixture corpus shrank to {} entries",
        entries.len()
    );
    let mut out: Vec<(String, String)> = entries
        .iter()
        .map(|entry| {
            let source = std::fs::read_to_string(&entry.source_path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", entry.source_path.display()));
            (format!("{}/{}", entry.group, entry.name), source)
        })
        .collect();
    out.extend(
        SNIPPETS
            .iter()
            .map(|(what, source)| (format!("snippet for {what}"), (*source).to_owned())),
    );
    out
}

#[test]
fn every_core_constructor_is_produced_by_some_c_program() {
    let session = Session::default();
    let mut seen = Seen::default();
    for (name, source) in sources() {
        match session.elaborate(&source) {
            Ok(program) => seen.program(program.core()),
            // Constraint-violation fixtures stop in the front end.
            Err(_) if !name.starts_with("snippet") => {}
            Err(e) => panic!("{name} rejected by the front end: {e}"),
        }
    }
    let unproduced: Vec<&str> = [
        EXPRS, PEXPRS, PATTERNS, ACTIONS, PTROPS, BINOPS, BUILTINS, POLARITIES,
    ]
    .concat()
    .into_iter()
    .filter(|v| !seen.0.contains(v))
    .collect();
    assert!(
        unproduced.is_empty(),
        "no C program in the corpus or the snippets produces {unproduced:?}"
    );
}

#[test]
fn each_snippet_produces_the_construct_it_is_for() {
    let session = Session::default();
    for (what, source) in SNIPPETS {
        let program = session
            .elaborate(source)
            .unwrap_or_else(|e| panic!("snippet for {what} rejected: {e}"));
        let mut seen = Seen::default();
        seen.program(program.core());
        for variant in what.split(", ") {
            assert!(
                seen.0.contains(variant),
                "the snippet for {what} does not produce {variant}"
            );
        }
    }
}
