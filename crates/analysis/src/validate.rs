//! Core well-formedness validation.
//!
//! The elaborator is total on well-typed Ail and produces well-formed Core by
//! construction, so this pass is a lint gate for *producers* of Core: a
//! hand-written program, a mutated test case, or a regression in the
//! elaborator itself. Every violation is collected — the pass never stops at
//! the first problem — and reported as a [`ConstraintViolation`] so the
//! pipeline can surface the whole list through `PipelineError::Constraint`,
//! the same multi-diagnostic shape the desugaring stage uses.
//!
//! Checked properties, node by node:
//!
//! * **binding discipline** — every `Sym` is bound by an enclosing pattern, a
//!   procedure parameter, a global, or a string-literal object;
//! * **slot discipline** — every use reads the slot its binder writes, every
//!   binder's slot is a local slot below the frame size of its procedure or
//!   global initialiser (parameter `i` is slot `i`), and every static slot
//!   names the global or string literal with that index;
//! * **pattern arity** — a tuple pattern destructuring a literal tuple value
//!   names exactly as many components as the value has;
//! * **call-target resolution** — every `Ccall` names a defined procedure or
//!   a known builtin, with a matching argument count for defined procedures;
//! * **`MemAction` operand typing** — `create`/`store`/`load` carry a literal
//!   `Ctype` operand (the shape the elaborator emits and the executable
//!   semantics require), and `create`'s alignment is a type-derived constant;
//! * **label discipline** — every `run l` targets a `save`/`exit` label that
//!   exists somewhere in the same procedure body.

use std::collections::HashSet;

use cerberus_ast::diag::ConstraintViolation;
use cerberus_ast::loc::Span;
use cerberus_core::program::CoreProgram;
use cerberus_core::syntax::{BuiltinFn, Expr, MemAction, PExpr, Pattern, Slot, Sym};

/// The builtin C library functions the execution environment provides; a
/// `Ccall` to one of these resolves even though no Core procedure exists.
/// Keep in sync with `cerberus_exec::builtins::call_builtin`.
pub fn builtin_names() -> &'static [&'static str] {
    &[
        "printf", "malloc", "calloc", "free", "memcpy", "memcmp", "memset", "strlen", "strcmp",
        "strcpy", "abort", "exit", "assert",
    ]
}

/// The ISO-clause slot used for Core well-formedness diagnostics (these are
/// internal-representation invariants, not ISO C constraints).
const CORE_CLAUSE: &str = "Core well-formedness";

/// The symbols in scope, innermost last: each binder's name and slot.
type Scope<'a> = Vec<(&'a str, Slot)>;

struct Validator<'a> {
    program: &'a CoreProgram,
    /// The frame size of the procedure or global initialiser under
    /// validation.
    frame_size: u32,
    /// All `save`/`exit` labels of the procedure under validation.
    labels: HashSet<String>,
    /// Name of the procedure (or pseudo-procedure) under validation.
    context: String,
    violations: Vec<ConstraintViolation>,
}

impl<'a> Validator<'a> {
    fn violation(&mut self, message: String) {
        self.violations.push(ConstraintViolation::new(
            message,
            CORE_CLAUSE,
            Span::synthetic(),
        ));
    }

    // ----- scope helpers ---------------------------------------------------

    fn bind_pattern(&mut self, pat: &'a Pattern, scope: &mut Scope<'a>) {
        match pat {
            Pattern::Wildcard => {}
            Pattern::Sym(sym) => {
                if !matches!(sym.slot, Slot::Local(i) if i < self.frame_size) {
                    self.violation(format!(
                        "{}: binder `{sym}` has slot {:?} outside the frame of size {}",
                        self.context, sym.slot, self.frame_size
                    ));
                }
                scope.push((sym.as_str(), sym.slot));
            }
            Pattern::Tuple(ps) => {
                for p in ps {
                    self.bind_pattern(p, scope);
                }
            }
            Pattern::Specified(p) => self.bind_pattern(p, scope),
        }
    }

    /// A local use must read the slot of its innermost binder; a static use
    /// must name the static object with its index.
    fn check_use(&mut self, sym: &Sym, scope: &Scope<'a>) {
        let problem = match sym.slot {
            Slot::Static(index) => match self.program.static_name(index) {
                Some(name) if *name == sym.name => return,
                Some(name) => format!("`{sym}` reads static slot {index}, which holds `{name}`"),
                None => format!("`{sym}` reads static slot {index}, past every static object"),
            },
            Slot::Local(_) => match scope.iter().rev().find(|(name, _)| *name == sym.as_str()) {
                Some(&(_, slot)) if slot == sym.slot => return,
                Some(&(_, slot)) => format!(
                    "use of `{sym}` reads slot {:?}, but its binder is slot {slot:?}",
                    sym.slot
                ),
                None => format!("unbound Core symbol `{sym}`"),
            },
        };
        self.violation(format!("{}: {problem}", self.context));
    }

    /// A tuple pattern must match the arity of a literal tuple value; other
    /// scrutinee shapes are only checkable dynamically.
    fn check_pattern_arity(&mut self, pat: &Pattern, scrutinee: &PExpr) {
        if let (Pattern::Tuple(ps), PExpr::Tuple(vs)) = (pat, scrutinee) {
            if ps.len() != vs.len() && ps.len() != 1 {
                self.violation(format!(
                    "{}: tuple pattern of arity {} destructures a tuple of arity {}",
                    self.context,
                    ps.len(),
                    vs.len()
                ));
            }
        }
    }

    // ----- label collection ------------------------------------------------

    fn collect_labels(e: &Expr, into: &mut HashSet<String>) {
        match e {
            Expr::Save(l, body) | Expr::Exit(l, body) => {
                into.insert(l.as_str().to_owned());
                Self::collect_labels(body, into);
            }
            Expr::Let(_, _, body) | Expr::Indet(body) => Self::collect_labels(body, into),
            Expr::If(_, t, f) => {
                Self::collect_labels(t, into);
                Self::collect_labels(f, into);
            }
            Expr::Case(_, arms) => {
                for (_, body) in arms {
                    Self::collect_labels(body, into);
                }
            }
            Expr::Wseq(_, a, b) | Expr::Sseq(_, a, b) => {
                Self::collect_labels(a, into);
                Self::collect_labels(b, into);
            }
            Expr::Unseq(items) => {
                for item in items {
                    Self::collect_labels(item, into);
                }
            }
            _ => {}
        }
    }

    // ----- node checks -----------------------------------------------------

    fn check_pexpr(&mut self, pe: &'a PExpr, scope: &mut Scope<'a>) {
        match pe {
            PExpr::Sym(sym) => self.check_use(sym, scope),
            PExpr::Unit
            | PExpr::Integer(_)
            | PExpr::CtypeConst(_)
            | PExpr::Undef(_)
            | PExpr::Error(_)
            | PExpr::Unspecified(_) => {}
            PExpr::FunctionPtr(name) => {
                let text = name.as_str();
                if self.program.proc(text).is_none() && !builtin_names().contains(&text) {
                    self.violation(format!(
                        "{}: function pointer to undefined function `{name}`",
                        self.context
                    ));
                }
            }
            PExpr::Specified(e) => self.check_pexpr(e, scope),
            PExpr::Tuple(es) => {
                for e in es {
                    self.check_pexpr(e, scope);
                }
            }
            PExpr::Binop(_, a, b) => {
                self.check_pexpr(a, scope);
                self.check_pexpr(b, scope);
            }
            PExpr::If(c, t, f) => {
                self.check_pexpr(c, scope);
                self.check_pexpr(t, scope);
                self.check_pexpr(f, scope);
            }
            PExpr::Case(scrutinee, arms) => {
                self.check_pexpr(scrutinee, scope);
                for (pat, body) in arms {
                    self.check_pattern_arity(pat, scrutinee);
                    let depth = scope.len();
                    self.bind_pattern(pat, scope);
                    self.check_pexpr(body, scope);
                    scope.truncate(depth);
                }
            }
            PExpr::Builtin(f, args) => {
                let arity = match f {
                    BuiltinFn::ConvInt | BuiltinFn::IsRepresentable => 2,
                    BuiltinFn::CtypeWidth | BuiltinFn::AlignOf => 1,
                };
                if args.len() != arity {
                    self.violation(format!(
                        "{}: builtin {f:?} applied to {} arguments, expected {arity}",
                        self.context,
                        args.len()
                    ));
                }
                for a in args {
                    self.check_pexpr(a, scope);
                }
            }
            PExpr::ArrayShift { ptr, index, .. } => {
                self.check_pexpr(ptr, scope);
                self.check_pexpr(index, scope);
            }
            PExpr::MemberShift { ptr, .. } => self.check_pexpr(ptr, scope),
        }
    }

    /// `create`/`store`/`load` must name their accessed type as a literal
    /// `Ctype` constant — the executable semantics dispatch on it.
    fn check_action_type_operand(&mut self, action: &'static str, ty: &PExpr) {
        if !matches!(ty, PExpr::CtypeConst(_)) {
            self.violation(format!(
                "{}: `{action}` type operand is not a literal Ctype constant",
                self.context
            ));
        }
    }

    fn check_action(&mut self, action: &'a MemAction, scope: &mut Scope<'a>) {
        match action {
            MemAction::Create { align, ty } => {
                self.check_action_type_operand("create", ty);
                // The elaborator derives the alignment from the type.
                let align_ok = matches!(
                    &**align,
                    PExpr::Integer(_) | PExpr::Builtin(BuiltinFn::AlignOf, _)
                );
                if !align_ok {
                    self.violation(format!(
                        "{}: `create` alignment is neither a constant nor `alignof`",
                        self.context
                    ));
                }
                self.check_pexpr(align, scope);
                self.check_pexpr(ty, scope);
            }
            MemAction::Kill(ptr) => self.check_pexpr(ptr, scope),
            MemAction::Store { ty, ptr, value } => {
                self.check_action_type_operand("store", ty);
                self.check_pexpr(ty, scope);
                self.check_pexpr(ptr, scope);
                self.check_pexpr(value, scope);
            }
            MemAction::Load { ty, ptr } => {
                self.check_action_type_operand("load", ty);
                self.check_pexpr(ty, scope);
                self.check_pexpr(ptr, scope);
            }
        }
    }

    fn check_expr(&mut self, e: &'a Expr, scope: &mut Scope<'a>) {
        match e {
            Expr::Pure(pe) => self.check_pexpr(pe, scope),
            Expr::Memop(_, args) => {
                for a in args {
                    self.check_pexpr(a, scope);
                }
            }
            Expr::Action(_, action) => self.check_action(action, scope),
            Expr::Case(scrutinee, arms) => {
                self.check_pexpr(scrutinee, scope);
                for (pat, body) in arms {
                    self.check_pattern_arity(pat, scrutinee);
                    let depth = scope.len();
                    self.bind_pattern(pat, scope);
                    self.check_expr(body, scope);
                    scope.truncate(depth);
                }
            }
            Expr::Let(pat, value, body) => {
                self.check_pexpr(value, scope);
                self.check_pattern_arity(pat, value);
                let depth = scope.len();
                self.bind_pattern(pat, scope);
                self.check_expr(body, scope);
                scope.truncate(depth);
            }
            Expr::If(c, t, f) => {
                self.check_pexpr(c, scope);
                self.check_expr(t, scope);
                self.check_expr(f, scope);
            }
            Expr::Skip => {}
            Expr::Ccall(f, args) => {
                let callee = match &**f {
                    PExpr::FunctionPtr(name) => Some(name),
                    PExpr::Sym(sym) => Some(&sym.name),
                    _ => None,
                };
                let proc = callee.and_then(|name| self.program.proc(name.as_str()));
                match (&**f, callee, proc) {
                    (_, Some(name), Some(proc)) => {
                        if !proc.accepts_arity(args.len()) {
                            self.violation(format!(
                                "{}: call to `{name}` passes {} arguments, expected {}",
                                self.context,
                                args.len(),
                                proc.params.len()
                            ));
                        }
                    }
                    (PExpr::FunctionPtr(name), ..) => {
                        if !builtin_names().contains(&name.as_str()) {
                            self.violation(format!(
                                "{}: call target `{name}` resolves to no procedure or builtin",
                                self.context
                            ));
                        }
                    }
                    // A call through a computed pointer is only checkable
                    // dynamically; validate the operand expression itself.
                    (other, ..) => self.check_pexpr(other, scope),
                }
                for a in args {
                    self.check_pexpr(a, scope);
                }
            }
            Expr::Unseq(items) => {
                for item in items {
                    self.check_expr(item, scope);
                }
            }
            Expr::Wseq(pat, a, b) | Expr::Sseq(pat, a, b) => {
                self.check_expr(a, scope);
                let depth = scope.len();
                self.bind_pattern(pat, scope);
                self.check_expr(b, scope);
                scope.truncate(depth);
            }
            Expr::Indet(body) | Expr::Save(_, body) | Expr::Exit(_, body) => {
                self.check_expr(body, scope)
            }
            Expr::Run(label) => {
                if !self.labels.contains(label.as_str()) {
                    self.violation(format!(
                        "{}: `run {label}` targets no save/exit label in the procedure",
                        self.context
                    ));
                }
            }
            Expr::Return(value) => self.check_pexpr(value, scope),
        }
    }
}

/// Validate a whole Core program, returning *every* violation found.
pub fn validate(program: &CoreProgram) -> Vec<ConstraintViolation> {
    let mut validator = Validator {
        program,
        frame_size: 0,
        labels: HashSet::new(),
        context: String::new(),
        violations: Vec::new(),
    };

    for global in &program.globals {
        validator.context = format!("global `{}`", global.name);
        validator.frame_size = global.frame_size;
        validator.labels.clear();
        Validator::collect_labels(&global.init, &mut validator.labels);
        let mut scope = Vec::new();
        validator.check_expr(&global.init, &mut scope);
    }

    let mut names: Vec<&String> = program.procs.keys().collect();
    names.sort();
    for name in names {
        let proc = &program.procs[name];
        validator.context = name.clone();
        validator.frame_size = proc.frame_size;
        validator.labels.clear();
        Validator::collect_labels(&proc.body, &mut validator.labels);
        if proc.params.len() > proc.frame_size as usize {
            validator.violation(format!(
                "{name}: {} parameters do not fit a frame of size {}",
                proc.params.len(),
                proc.frame_size
            ));
        }
        let mut scope: Scope = (0..)
            .zip(&proc.params)
            .map(|(i, (param, _))| (param.as_str(), Slot::Local(i)))
            .collect();
        validator.check_expr(&proc.body, &mut scope);
    }

    validator.violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerberus_ast::ctype::{Ctype, IntegerType};
    use cerberus_ast::ident::Ident;
    use cerberus_core::program::{CoreGlobal, CoreProc};
    use cerberus_core::syntax::{Expr, MemAction, PExpr, Pattern, Polarity};

    fn program_with_main(body: Expr, frame_size: u32) -> CoreProgram {
        let mut program = CoreProgram::default();
        let name = Ident::new("main");
        program.procs.insert(
            "main".into(),
            CoreProc {
                name: name.clone(),
                params: Vec::new(),
                variadic: false,
                return_ty: Ctype::integer(IntegerType::Int),
                body,
                frame_size,
            },
        );
        program.main = Some(name);
        program
    }

    fn global(name: &str) -> CoreGlobal {
        CoreGlobal {
            name: Ident::new(name),
            ty: Ctype::integer(IntegerType::Int),
            init: Expr::Skip,
            frame_size: 0,
        }
    }

    /// `x = 1; return use`, with `x` bound in `binder_slot` of a frame of
    /// `frame_size`.
    fn bind_then_return(binder_slot: u32, use_: PExpr, frame_size: u32) -> CoreProgram {
        let body = Expr::Sseq(
            Pattern::local("x", binder_slot),
            Box::new(Expr::Pure(PExpr::specified_int(1))),
            Box::new(Expr::Return(Box::new(use_))),
        );
        program_with_main(body, frame_size)
    }

    #[test]
    fn well_formed_program_passes() {
        assert!(validate(&bind_then_return(0, PExpr::local("x", 0), 1)).is_empty());
    }

    #[test]
    fn every_violation_is_collected_not_just_the_first() {
        // Three independent problems: an unbound symbol, an unresolvable
        // call, and a store whose type operand is not a Ctype literal.
        let body = Expr::seq_all(vec![
            Expr::Pure(PExpr::local("nowhere", 0)),
            Expr::Ccall(Box::new(PExpr::FunctionPtr(Ident::new("missing"))), vec![]),
            Expr::Action(
                Polarity::Positive,
                MemAction::Store {
                    ty: Box::new(PExpr::Integer(4)),
                    ptr: Box::new(PExpr::Integer(0)),
                    value: Box::new(PExpr::specified_int(0)),
                },
            ),
        ]);
        let violations = validate(&program_with_main(body, 1));
        assert_eq!(violations.len(), 3, "{violations:?}");
        let text: Vec<String> = violations.iter().map(|v| v.message().to_owned()).collect();
        assert!(text.iter().any(|m| m.contains("unbound Core symbol")));
        assert!(text.iter().any(|m| m.contains("resolves to no procedure")));
        assert!(text.iter().any(|m| m.contains("store")));
    }

    #[test]
    fn run_to_a_missing_label_is_flagged() {
        let body = Expr::Run(Ident::new("ghost"));
        let violations = validate(&program_with_main(body, 0));
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message().contains("run ghost"));
    }

    #[test]
    fn tuple_pattern_arity_mismatch_is_flagged() {
        let body = Expr::Let(
            Pattern::Tuple(vec![
                Pattern::local("a", 0),
                Pattern::local("b", 1),
                Pattern::local("c", 2),
            ]),
            PExpr::Tuple(vec![PExpr::Integer(1), PExpr::Integer(2)]),
            Box::new(Expr::Pure(PExpr::Unit)),
        );
        let violations = validate(&program_with_main(body, 3));
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message().contains("arity"));
    }

    #[test]
    fn globals_and_string_literals_are_in_scope() {
        let body = Expr::seq(
            Expr::Pure(PExpr::Sym(Sym::new("g", Slot::Static(0)))),
            Expr::Pure(PExpr::Sym(Sym::new("strlit'0", Slot::Static(1)))),
        );
        let mut program = program_with_main(body, 0);
        program.globals.push(global("g"));
        program
            .string_literals
            .push((Ident::new("strlit'0"), b"a\0".to_vec()));
        assert!(validate(&program).is_empty());
    }

    #[test]
    fn a_use_reading_another_slot_than_its_binder_is_flagged() {
        let violations = validate(&bind_then_return(0, PExpr::local("x", 1), 2));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0]
                .message()
                .contains("use of `x` reads slot Local(1), but its binder is slot Local(0)"),
            "{violations:?}"
        );
    }

    #[test]
    fn a_binder_slot_outside_the_frame_is_flagged() {
        let violations = validate(&bind_then_return(2, PExpr::local("x", 2), 2));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0]
                .message()
                .contains("binder `x` has slot Local(2) outside the frame of size 2"),
            "{violations:?}"
        );
    }

    #[test]
    fn a_static_slot_naming_another_object_is_flagged() {
        // `h` is static slot 1; slot 0 is `g`.
        let mut program =
            program_with_main(Expr::Pure(PExpr::Sym(Sym::new("h", Slot::Static(0)))), 0);
        program.globals.extend([global("g"), global("h")]);
        let violations = validate(&program);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0]
                .message()
                .contains("`h` reads static slot 0, which holds `g`"),
            "{violations:?}"
        );
    }
}
