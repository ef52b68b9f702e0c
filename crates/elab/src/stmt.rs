//! Statement elaboration: blocks and object lifetimes (§5.7), loops, `goto`
//! and `switch` via Core labels (§5.8), and global initialisation.

use std::collections::HashMap;

use cerberus_ail::ail::{AilInit, AilStmt, FunctionDef, GlobalDef, ObjectDecl};
use cerberus_ast::ctype::Ctype;
use cerberus_ast::env::ImplEnv;
use cerberus_ast::ident::Ident;
use cerberus_ast::layout::TagRegistry;
use cerberus_ast::ub::UbKind;
use cerberus_core::syntax::{Expr, MemAction, PExpr, Pattern, Polarity, Slot, Sym};

/// The elaboration context: the implementation-defined environment, the tag
/// registry (for member offsets and layout queries during elaboration), the
/// string-literal table, the label stacks for `break`/`continue`, and the
/// symbol numbering: fresh names per program, slots per frame.
#[derive(Debug)]
pub struct Elaborator {
    pub(crate) env: ImplEnv,
    pub(crate) tags: TagRegistry,
    string_literals: Vec<(Ident, Vec<u8>)>,
    break_stack: Vec<Ident>,
    continue_stack: Vec<Ident>,
    switch_stack: Vec<u64>,
    switch_counter: u64,
    /// The number the next fresh name `hint'N` gets; counted per program,
    /// so the same source always elaborates to the same Core.
    fresh_counter: u64,
    /// The static slot of each global, by name.
    globals: HashMap<String, u32>,
    /// The number of globals: string literals take the static slots after
    /// them.
    global_count: u32,
    /// The local slot of each parameter and C variable of the frame being
    /// elaborated, by its desugared name.
    locals: HashMap<Ident, u32>,
    /// The number of local slots the frame being elaborated has used.
    frame_size: u32,
}

impl Elaborator {
    /// A fresh elaborator for a program with `globals`.
    pub fn new(env: ImplEnv, tags: TagRegistry, globals: &[GlobalDef]) -> Self {
        Elaborator {
            env,
            tags,
            string_literals: Vec::new(),
            break_stack: Vec::new(),
            continue_stack: Vec::new(),
            switch_stack: Vec::new(),
            switch_counter: 0,
            fresh_counter: 0,
            globals: (0..)
                .zip(globals)
                .map(|(i, g)| (g.name.as_str().to_owned(), i))
                .collect(),
            global_count: globals.len() as u32,
            locals: HashMap::new(),
            frame_size: 0,
        }
    }

    /// Take the string-literal objects registered while elaborating.
    pub fn take_string_literals(&mut self) -> Vec<(Ident, Vec<u8>)> {
        std::mem::take(&mut self.string_literals)
    }

    /// Register a string literal and return the symbol its object is bound to.
    pub(crate) fn register_string_literal(&mut self, bytes: &[u8]) -> Sym {
        let name = self.fresh_name("strlit");
        let slot = Slot::Static(self.global_count + self.string_literals.len() as u32);
        self.string_literals.push((name.clone(), bytes.to_vec()));
        Sym::new(name, slot)
    }

    // ----- symbols and slots -------------------------------------------------

    /// A name `hint'N` no other name of the program has: the `'` keeps it
    /// apart from every C identifier.
    fn fresh_name(&mut self, hint: &str) -> Ident {
        let n = self.fresh_counter;
        self.fresh_counter += 1;
        Ident::new(format!("{hint}'{n}"))
    }

    /// A fresh symbol in the next local slot of the current frame.
    pub(crate) fn fresh(&mut self, hint: &str) -> Sym {
        let name = self.fresh_name(hint);
        self.binder(name)
    }

    /// A symbol named `name` in the next local slot of the current frame.
    pub(crate) fn binder(&mut self, name: impl Into<Ident>) -> Sym {
        Sym::new(name, Slot::Local(self.next_index()))
    }

    fn next_index(&mut self) -> u32 {
        self.frame_size += 1;
        self.frame_size - 1
    }

    /// The symbol of a parameter or block-scope C variable of the current
    /// frame; its slot is numbered when the variable is first mentioned.
    pub(crate) fn local_sym(&mut self, name: &Ident) -> Sym {
        let index = match self.locals.get(name) {
            Some(&index) => index,
            None => {
                let index = self.next_index();
                self.locals.insert(name.clone(), index);
                index
            }
        };
        Sym::new(name.clone(), Slot::Local(index))
    }

    /// The symbol of an object with static storage duration.
    pub(crate) fn global_sym(&mut self, name: &Ident) -> Sym {
        match self.globals.get(name.as_str()) {
            Some(&index) => Sym::new(name.clone(), Slot::Static(index)),
            // The desugarer declares every global it refers to; were one
            // missing, the use stays an unbound local, as the interpreter and
            // the validator report.
            None => self.local_sym(name),
        }
    }

    /// Start numbering the local slots of a new frame: parameter `i` takes
    /// slot `i`.
    fn begin_frame(&mut self, params: &[(Ident, Ctype)]) {
        self.locals.clear();
        self.frame_size = 0;
        for (name, _) in params {
            self.local_sym(name);
        }
    }

    // ----- memory action helpers ---------------------------------------------

    pub(crate) fn action_create(&self, ty: &Ctype) -> Expr {
        Expr::Action(
            Polarity::Positive,
            MemAction::Create {
                align: Box::new(PExpr::Builtin(
                    cerberus_core::syntax::BuiltinFn::AlignOf,
                    vec![PExpr::CtypeConst(ty.clone())],
                )),
                ty: Box::new(PExpr::CtypeConst(ty.clone())),
            },
        )
    }

    pub(crate) fn action_store(&self, ty: &Ctype, ptr: PExpr, value: PExpr) -> Expr {
        Expr::Action(
            Polarity::Positive,
            MemAction::Store {
                ty: Box::new(PExpr::CtypeConst(ty.clone())),
                ptr: Box::new(ptr),
                value: Box::new(value),
            },
        )
    }

    pub(crate) fn action_store_neg(&self, ty: &Ctype, ptr: PExpr, value: PExpr) -> Expr {
        Expr::Action(
            Polarity::Negative,
            MemAction::Store {
                ty: Box::new(PExpr::CtypeConst(ty.clone())),
                ptr: Box::new(ptr),
                value: Box::new(value),
            },
        )
    }

    pub(crate) fn action_load(&self, ty: &Ctype, ptr: PExpr) -> Expr {
        Expr::Action(
            Polarity::Positive,
            MemAction::Load {
                ty: Box::new(PExpr::CtypeConst(ty.clone())),
                ptr: Box::new(ptr),
            },
        )
    }

    pub(crate) fn action_kill(&self, ptr: PExpr) -> Expr {
        Expr::Action(Polarity::Positive, MemAction::Kill(Box::new(ptr)))
    }

    // ----- initialisation -----------------------------------------------------

    /// Elaborate the stores that realise an initialiser for the object at
    /// `ptr` of type `ty`.
    pub(crate) fn elab_init_into(&mut self, ptr: PExpr, ty: &Ctype, init: &AilInit) -> Expr {
        match init {
            AilInit::Expr(e) => {
                let v = self.fresh("init");
                let rv = self.elab_rvalue(e);
                let converted = self.convert_loaded(ty, &e.ty.decay(), PExpr::Sym(v.clone()));
                Expr::Sseq(
                    Pattern::Sym(v),
                    Box::new(rv),
                    Box::new(self.action_store(ty, ptr, converted)),
                )
            }
            AilInit::List(items) => match ty {
                Ctype::Array(elem, _) => {
                    let mut stores = Vec::new();
                    for (i, item) in items.iter().enumerate() {
                        let elem_ptr = PExpr::ArrayShift {
                            ptr: Box::new(ptr.clone()),
                            elem_ty: (**elem).clone(),
                            index: Box::new(PExpr::Integer(i as i128)),
                        };
                        stores.push(self.elab_init_into(elem_ptr, elem, item));
                    }
                    Expr::seq_all(stores)
                }
                Ctype::Struct(tag) => {
                    let members: Vec<_> = match self.tags.get(*tag) {
                        Some(def) => def.members.clone(),
                        None => {
                            return Expr::Pure(PExpr::Error("incomplete struct initialiser".into()))
                        }
                    };
                    let mut stores = Vec::new();
                    for (member, item) in members.iter().zip(items.iter()) {
                        let mptr = PExpr::MemberShift {
                            ptr: Box::new(ptr.clone()),
                            tag: *tag,
                            member: member.name.clone(),
                        };
                        stores.push(self.elab_init_into(mptr, &member.ty, item));
                    }
                    Expr::seq_all(stores)
                }
                Ctype::Union(tag) => {
                    let first = match self.tags.get(*tag).and_then(|d| d.members.first().cloned()) {
                        Some(m) => m,
                        None => {
                            return Expr::Pure(PExpr::Error("incomplete union initialiser".into()))
                        }
                    };
                    match items.first() {
                        Some(item) => self.elab_init_into(ptr, &first.ty, item),
                        None => Expr::Skip,
                    }
                }
                // A brace-enclosed initialiser for a scalar: `int x = {3};`.
                _ => match items.first() {
                    Some(item) => self.elab_init_into(ptr, ty, item),
                    None => Expr::Skip,
                },
            },
        }
    }

    /// The initialisation expression of an object with static storage
    /// duration: evaluated before `main`, storing into the global's object
    /// (objects without initialiser are zero-initialised by the memory
    /// engine, so `skip` suffices).
    /// Returns the expression and the size of the frame it runs in.
    pub fn elaborate_global_init(&mut self, global: &GlobalDef) -> (Expr, u32) {
        self.begin_frame(&[]);
        let init = match &global.init {
            None => Expr::Skip,
            Some(init) => {
                let object = self.global_sym(&global.name);
                self.elab_init_into(PExpr::Sym(object), &global.ty, init)
            }
        };
        (init, self.frame_size)
    }

    // ----- statements ----------------------------------------------------------

    fn bind_decls(&mut self, decls: &[ObjectDecl], inner: Expr) -> Expr {
        let mut result = inner;
        for decl in decls.iter().rev() {
            let object = self.local_sym(&decl.name);
            let init = match &decl.init {
                Some(init) => self.elab_init_into(PExpr::Sym(object.clone()), &decl.ty, init),
                None => Expr::Skip,
            };
            result = Expr::Sseq(
                Pattern::Sym(object),
                Box::new(self.action_create(&decl.ty)),
                Box::new(Expr::seq(init, result)),
            );
        }
        result
    }

    fn kill_decls(&mut self, decls: &[ObjectDecl]) -> Vec<Expr> {
        decls
            .iter()
            .map(|d| {
                let object = self.local_sym(&d.name);
                self.action_kill(PExpr::Sym(object))
            })
            .collect()
    }

    fn elab_stmt_list(&mut self, stmts: &[AilStmt]) -> Expr {
        // Collect the block's declarations so their lifetimes can be ended at
        // the end of the block (§5.7).
        let mut kills = Vec::new();
        for s in stmts {
            if let AilStmt::Decl(decls) = s {
                kills.extend(self.kill_decls(decls));
            }
        }
        let mut result = Expr::seq_all(kills);
        for s in stmts.iter().rev() {
            result = match s {
                AilStmt::Decl(decls) => self.bind_decls(decls, result),
                AilStmt::Label(..) | AilStmt::Case(..) | AilStmt::Default(..) => {
                    self.elab_labeled_into(s, result)
                }
                other => Expr::seq(self.elab_stmt(other), result),
            };
        }
        result
    }

    /// Elaborate a labelled statement so that the Core `save` label covers the
    /// *remainder of the block* (`rest`), giving `run label` the semantics of
    /// a C jump to that label: re-execution continues from the labelled
    /// statement through the rest of the block (§5.8).
    fn elab_labeled_into(&mut self, stmt: &AilStmt, rest: Expr) -> Expr {
        match stmt {
            AilStmt::Label(label, inner) => {
                let body = self.elab_labeled_into(inner, rest);
                Expr::Save(Ident::new(format!("label_{label}")), Box::new(body))
            }
            AilStmt::Case(value, inner) => {
                let switch_id = self.switch_stack.last().copied().unwrap_or(0);
                let label = self.switch_case_label(switch_id, *value);
                let body = self.elab_labeled_into(inner, rest);
                Expr::Save(label, Box::new(body))
            }
            AilStmt::Default(inner) => {
                let switch_id = self.switch_stack.last().copied().unwrap_or(0);
                let label = self.switch_default_label(switch_id);
                let body = self.elab_labeled_into(inner, rest);
                Expr::Save(label, Box::new(body))
            }
            other => Expr::seq(self.elab_stmt(other), rest),
        }
    }

    fn switch_case_label(&self, switch_id: u64, value: i128) -> Ident {
        let v = value.to_string().replace('-', "m");
        Ident::new(format!("case_{switch_id}_{v}"))
    }

    fn switch_default_label(&self, switch_id: u64) -> Ident {
        Ident::new(format!("default_{switch_id}"))
    }

    fn collect_cases(stmt: &AilStmt, values: &mut Vec<i128>, has_default: &mut bool) {
        match stmt {
            AilStmt::Case(v, inner) => {
                values.push(*v);
                Self::collect_cases(inner, values, has_default);
            }
            AilStmt::Default(inner) => {
                *has_default = true;
                Self::collect_cases(inner, values, has_default);
            }
            AilStmt::Block(items, _) => {
                for item in items {
                    Self::collect_cases(item, values, has_default);
                }
            }
            AilStmt::Label(_, inner) => Self::collect_cases(inner, values, has_default),
            AilStmt::If(_, t, f) => {
                Self::collect_cases(t, values, has_default);
                Self::collect_cases(f, values, has_default);
            }
            AilStmt::While(_, b) | AilStmt::DoWhile(b, _) | AilStmt::For(_, _, _, b) => {
                Self::collect_cases(b, values, has_default);
            }
            // Nested switches own their case labels.
            AilStmt::Switch(..) => {}
            _ => {}
        }
    }

    /// Elaborate a scalar-condition test: bind the loaded condition value and
    /// branch; an unspecified condition is a daemonic undefined behaviour
    /// (the Fig. 3 treatment of unspecified values in control positions).
    pub(crate) fn elab_condition(
        &mut self,
        cond: &cerberus_ail::ail::AilExpr,
        then: Expr,
        els: Expr,
    ) -> Expr {
        let c = self.fresh("cond");
        let v = self.fresh("v");
        let rv = self.elab_rvalue(cond);
        let test = self.scalar_is_nonzero(&cond.ty.decay(), PExpr::Sym(v.clone()));
        Expr::Sseq(
            Pattern::Sym(c.clone()),
            Box::new(rv),
            Box::new(Expr::Case(
                PExpr::Sym(c),
                vec![
                    (
                        Pattern::Specified(Box::new(Pattern::Sym(v))),
                        Expr::If(test, Box::new(then), Box::new(els)),
                    ),
                    (
                        Pattern::Wildcard,
                        Expr::Pure(PExpr::Undef(UbKind::IndeterminateValueUse)),
                    ),
                ],
            )),
        )
    }

    /// Elaborate one statement.
    pub fn elab_stmt(&mut self, stmt: &AilStmt) -> Expr {
        match stmt {
            AilStmt::Skip => Expr::Skip,
            AilStmt::Expr(e) => {
                let rv = self.elab_rvalue(e);
                Expr::seq(rv, Expr::Skip)
            }
            AilStmt::Block(items, _) => self.elab_stmt_list(items),
            AilStmt::Decl(decls) => {
                // A declaration outside a block context (e.g. a `for` init
                // clause handled directly): scope it locally.
                self.bind_decls(decls, Expr::Skip)
            }
            AilStmt::If(c, t, f) => {
                let then = self.elab_stmt(t);
                let els = self.elab_stmt(f);
                self.elab_condition(c, then, els)
            }
            AilStmt::While(c, body) => {
                let brk = self.fresh_name("while_break");
                let cont = self.fresh_name("while_continue");
                let head = self.fresh_name("while_head");
                self.break_stack.push(brk.clone());
                self.continue_stack.push(cont.clone());
                let body = self.elab_stmt(body);
                self.break_stack.pop();
                self.continue_stack.pop();
                let iterate = Expr::seq(Expr::Exit(cont, Box::new(body)), Expr::Run(head.clone()));
                let guarded = self.elab_condition(c, iterate, Expr::Skip);
                Expr::Exit(brk, Box::new(Expr::Save(head, Box::new(guarded))))
            }
            AilStmt::DoWhile(body, c) => {
                let brk = self.fresh_name("do_break");
                let cont = self.fresh_name("do_continue");
                let head = self.fresh_name("do_head");
                self.break_stack.push(brk.clone());
                self.continue_stack.push(cont.clone());
                let body = self.elab_stmt(body);
                self.break_stack.pop();
                self.continue_stack.pop();
                let test = self.elab_condition(c, Expr::Run(head.clone()), Expr::Skip);
                let once = Expr::seq(Expr::Exit(cont, Box::new(body)), test);
                Expr::Exit(brk, Box::new(Expr::Save(head, Box::new(once))))
            }
            AilStmt::For(init, cond, step, body) => {
                let brk = self.fresh_name("for_break");
                let cont = self.fresh_name("for_continue");
                let head = self.fresh_name("for_head");
                self.break_stack.push(brk.clone());
                self.continue_stack.push(cont.clone());
                let body = self.elab_stmt(body);
                self.break_stack.pop();
                self.continue_stack.pop();

                let step_expr = match step {
                    Some(e) => Expr::seq(self.elab_rvalue(e), Expr::Skip),
                    None => Expr::Skip,
                };
                let iterate = Expr::seq(
                    Expr::Exit(cont, Box::new(body)),
                    Expr::seq(step_expr, Expr::Run(head.clone())),
                );
                let guarded = match cond {
                    Some(c) => self.elab_condition(c, iterate, Expr::Skip),
                    None => iterate,
                };
                let looped = Expr::Exit(brk, Box::new(Expr::Save(head, Box::new(guarded))));

                // The init clause scopes over the loop; declarations made
                // there are killed after the loop terminates.
                match &**init {
                    AilStmt::Decl(decls) => {
                        let kills = self.kill_decls(decls);
                        let with_kills = Expr::seq(looped, Expr::seq_all(kills));
                        self.bind_decls(decls, with_kills)
                    }
                    AilStmt::Skip => looped,
                    other => Expr::seq(self.elab_stmt(other), looped),
                }
            }
            AilStmt::Switch(scrutinee, body) => {
                self.switch_counter += 1;
                let switch_id = self.switch_counter;
                let brk = self.fresh_name("switch_break");
                self.break_stack.push(brk.clone());
                self.switch_stack.push(switch_id);
                let body_core = self.elab_stmt(body);
                self.switch_stack.pop();
                self.break_stack.pop();

                let mut case_values = Vec::new();
                let mut has_default = false;
                Self::collect_cases(body, &mut case_values, &mut has_default);

                let v = self.fresh("switch_val");
                let mut dispatch = if has_default {
                    Expr::Run(self.switch_default_label(switch_id))
                } else {
                    Expr::Run(brk.clone())
                };
                for value in case_values.iter().rev() {
                    dispatch = Expr::If(
                        PExpr::Binop(
                            cerberus_core::syntax::Binop::Eq,
                            Box::new(PExpr::Sym(v.clone())),
                            Box::new(PExpr::Integer(*value)),
                        ),
                        Box::new(Expr::Run(self.switch_case_label(switch_id, *value))),
                        Box::new(dispatch),
                    );
                }

                let c = self.fresh("switch_cond");
                let rv = self.elab_rvalue(scrutinee);
                let dispatch_and_body = Expr::seq(dispatch, body_core);
                let cased = Expr::Case(
                    PExpr::Sym(c.clone()),
                    vec![
                        (
                            Pattern::Specified(Box::new(Pattern::Sym(v))),
                            dispatch_and_body,
                        ),
                        (
                            Pattern::Wildcard,
                            Expr::Pure(PExpr::Undef(UbKind::IndeterminateValueUse)),
                        ),
                    ],
                );
                Expr::Exit(
                    brk,
                    Box::new(Expr::Sseq(Pattern::Sym(c), Box::new(rv), Box::new(cased))),
                )
            }
            AilStmt::Case(value, inner) => {
                let switch_id = self.switch_stack.last().copied().unwrap_or(0);
                let label = self.switch_case_label(switch_id, *value);
                let inner = self.elab_stmt(inner);
                Expr::Save(label, Box::new(inner))
            }
            AilStmt::Default(inner) => {
                let switch_id = self.switch_stack.last().copied().unwrap_or(0);
                let label = self.switch_default_label(switch_id);
                let inner = self.elab_stmt(inner);
                Expr::Save(label, Box::new(inner))
            }
            AilStmt::Break => match self.break_stack.last() {
                Some(label) => Expr::Run(label.clone()),
                None => Expr::Pure(PExpr::Error("break outside a loop or switch".into())),
            },
            AilStmt::Continue => match self.continue_stack.last() {
                Some(label) => Expr::Run(label.clone()),
                None => Expr::Pure(PExpr::Error("continue outside a loop".into())),
            },
            AilStmt::Return(None) => {
                Expr::Return(Box::new(PExpr::Specified(Box::new(PExpr::Unit))))
            }
            AilStmt::Return(Some(e)) => {
                let v = self.fresh("ret");
                let rv = self.elab_rvalue(e);
                Expr::Sseq(
                    Pattern::Sym(v.clone()),
                    Box::new(rv),
                    Box::new(Expr::Return(Box::new(PExpr::Sym(v)))),
                )
            }
            AilStmt::Goto(label) => Expr::Run(Ident::new(format!("label_{label}"))),
            AilStmt::Label(label, inner) => {
                let inner = self.elab_stmt(inner);
                Expr::Save(Ident::new(format!("label_{label}")), Box::new(inner))
            }
        }
    }

    /// Elaborate a function body: the statement body followed by the implicit
    /// return (0 for `main`, 6.9.1p12's unspecified value otherwise, unit for
    /// `void`). Returns the body and the size of the frame a call needs.
    pub fn elaborate_function_body(&mut self, f: &FunctionDef) -> (Expr, u32) {
        self.begin_frame(&f.params);
        let body = self.elab_stmt(&f.body);
        let fallthrough = if f.name.as_str() == "main" {
            Expr::Return(Box::new(PExpr::specified_int(0)))
        } else if f.return_ty == Ctype::Void {
            Expr::Return(Box::new(PExpr::Specified(Box::new(PExpr::Unit))))
        } else {
            Expr::Return(Box::new(PExpr::Unspecified(f.return_ty.clone())))
        };
        (Expr::seq(body, fallthrough), self.frame_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elaborator() -> Elaborator {
        Elaborator::new(ImplEnv::lp64(), TagRegistry::new(), &[])
    }

    #[test]
    fn fresh_symbols_are_distinct() {
        let mut elab = elaborator();
        let a = elab.fresh("x");
        let b = elab.fresh("x");
        assert_ne!(a.name, b.name);
        assert_ne!(a.slot, b.slot);
        assert!(a.name.is_generated());
        assert!(b.name.is_generated());
    }

    #[test]
    fn fresh_keeps_hint_prefix() {
        let a = elaborator().fresh("tmp");
        assert_eq!(a.as_str(), "tmp'0");
        assert_eq!(a.slot, Slot::Local(0));
    }

    #[test]
    fn a_frame_numbers_its_parameters_first() {
        let mut elab = elaborator();
        elab.fresh("stale");
        let int = Ctype::integer(cerberus_ast::ctype::IntegerType::Int);
        let (a, b) = (Ident::new("a.1"), Ident::new("b.2"));
        elab.begin_frame(&[(a.clone(), int.clone()), (b.clone(), int)]);
        assert_eq!(elab.local_sym(&b).slot, Slot::Local(1));
        assert_eq!(elab.fresh("e").slot, Slot::Local(2));
        assert_eq!(elab.local_sym(&Ident::new("c.3")).slot, Slot::Local(3));
        assert_eq!(elab.local_sym(&a).slot, Slot::Local(0));
        assert_eq!(elab.frame_size, 4);
    }
}
