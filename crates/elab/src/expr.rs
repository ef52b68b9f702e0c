//! Expression elaboration (§5.3, §5.5, §5.6): evaluation order via
//! `unseq`/weak sequencing, integer promotions and conversions via explicit
//! builtins over mathematical integers, and explicit `undef(...)` tests for
//! every arithmetic undefined behaviour — the Fig. 3 left-shift clause is
//! reproduced structurally by `Elaborator::specified_shift`.

use cerberus_ail::ail::{AilExpr, AilExprKind, BinOp, IdentKind, UnOp};
use cerberus_ast::ctype::{Ctype, IntegerType};
use cerberus_ast::ub::UbKind;
use cerberus_core::syntax::{Binop, BuiltinFn, Expr, PExpr, Pattern, PtrOp, Sym};

use crate::stmt::Elaborator;

impl Elaborator {
    // ----- small pure helpers -------------------------------------------------

    fn ctype_pe(ty: &Ctype) -> PExpr {
        PExpr::CtypeConst(ty.clone())
    }

    fn conv_int(ty: IntegerType, v: PExpr) -> PExpr {
        PExpr::Builtin(
            BuiltinFn::ConvInt,
            vec![PExpr::CtypeConst(Ctype::integer(ty)), v],
        )
    }

    fn is_representable(v: PExpr, ty: IntegerType) -> PExpr {
        PExpr::Builtin(
            BuiltinFn::IsRepresentable,
            vec![PExpr::CtypeConst(Ctype::integer(ty)), v],
        )
    }

    fn binop(op: Binop, a: PExpr, b: PExpr) -> PExpr {
        PExpr::Binop(op, Box::new(a), Box::new(b))
    }

    /// A pure test for "this scalar value is non-zero" (pointer operands are
    /// compared against the null pointer by the evaluator's `Ne`).
    pub(crate) fn scalar_is_nonzero(&self, _ty: &Ctype, v: PExpr) -> PExpr {
        Self::binop(Binop::Ne, v, PExpr::Integer(0))
    }

    /// Convert a *loaded* value from one C type to another where the
    /// conversion is an integer conversion; other conversions are handled by
    /// the typed store or by dedicated cast elaboration.
    pub(crate) fn convert_loaded(&mut self, to: &Ctype, from: &Ctype, pe: PExpr) -> PExpr {
        match (to.as_integer(), from.as_integer()) {
            (Some(to_it), Some(_)) if to != from => {
                let x = self.fresh("cv");
                PExpr::Case(
                    Box::new(pe),
                    vec![
                        (
                            Pattern::Specified(Box::new(Pattern::Sym(x.clone()))),
                            PExpr::Specified(Box::new(Self::conv_int(to_it, PExpr::Sym(x)))),
                        ),
                        (Pattern::Wildcard, PExpr::Unspecified(to.clone())),
                    ],
                )
            }
            _ => pe,
        }
    }

    // ----- integer arithmetic (the Fig. 3 style case splits) -------------------

    /// The pure computation of a binary arithmetic/bitwise/comparison
    /// operator on two *specified* integer operand values, including the
    /// explicit undefined-behaviour tests of 6.5.5–6.5.14.
    fn specified_int_arith(
        &self,
        op: BinOp,
        lt: IntegerType,
        rt: IntegerType,
        x: PExpr,
        y: PExpr,
    ) -> PExpr {
        let env = &self.env;
        if matches!(op, BinOp::Shl | BinOp::Shr) {
            let promoted = env.integer_promotion(lt);
            return self.specified_shift(op, promoted, rt, x, y);
        }
        let common = env.usual_arithmetic_conversion(lt, rt);
        let signed = env.is_signed(common);
        let cx = Self::conv_int(common, x);
        let cy = Self::conv_int(common, y);
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => {
                let core_op = match op {
                    BinOp::Add => Binop::Add,
                    BinOp::Sub => Binop::Sub,
                    _ => Binop::Mul,
                };
                let math = Self::binop(core_op, cx, cy);
                if signed {
                    PExpr::If(
                        Box::new(Self::is_representable(math.clone(), common)),
                        Box::new(PExpr::Specified(Box::new(math))),
                        Box::new(PExpr::Undef(UbKind::ExceptionalCondition)),
                    )
                } else {
                    PExpr::Specified(Box::new(Self::conv_int(common, math)))
                }
            }
            BinOp::Div | BinOp::Mod => {
                let core_op = if op == BinOp::Div {
                    Binop::Div
                } else {
                    Binop::RemT
                };
                let math = Self::binop(core_op, cx, cy.clone());
                let ok = if signed {
                    PExpr::If(
                        Box::new(Self::is_representable(math.clone(), common)),
                        Box::new(PExpr::Specified(Box::new(math))),
                        Box::new(PExpr::Undef(UbKind::ExceptionalCondition)),
                    )
                } else {
                    PExpr::Specified(Box::new(math))
                };
                PExpr::If(
                    Box::new(Self::binop(Binop::Eq, cy, PExpr::Integer(0))),
                    Box::new(PExpr::Undef(UbKind::DivisionByZero)),
                    Box::new(ok),
                )
            }
            BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor => {
                let core_op = match op {
                    BinOp::BitAnd => Binop::BitAnd,
                    BinOp::BitOr => Binop::BitOr,
                    _ => Binop::BitXor,
                };
                let math = Self::binop(core_op, cx, cy);
                PExpr::Specified(Box::new(Self::conv_int(common, math)))
            }
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                let core_op = match op {
                    BinOp::Lt => Binop::Lt,
                    BinOp::Gt => Binop::Gt,
                    BinOp::Le => Binop::Le,
                    BinOp::Ge => Binop::Ge,
                    BinOp::Eq => Binop::Eq,
                    _ => Binop::Ne,
                };
                let test = Self::binop(core_op, cx, cy);
                PExpr::Specified(Box::new(PExpr::If(
                    Box::new(test),
                    Box::new(PExpr::Integer(1)),
                    Box::new(PExpr::Integer(0)),
                )))
            }
            BinOp::Shl | BinOp::Shr | BinOp::LogicalAnd | BinOp::LogicalOr => {
                PExpr::Error("operator handled elsewhere".into())
            }
        }
    }

    /// The elaboration of the shift operators, structurally following the
    /// paper's Fig. 3: promote, test for a negative or too-large shift
    /// amount, wrap for unsigned left operands, and flag signed overflow.
    fn specified_shift(
        &self,
        op: BinOp,
        promoted: IntegerType,
        rt: IntegerType,
        x: PExpr,
        y: PExpr,
    ) -> PExpr {
        let env = &self.env;
        let result_ty = Ctype::integer(promoted);
        let px = Self::conv_int(promoted, x);
        let py = Self::conv_int(env.integer_promotion(rt), y);
        let width = PExpr::Builtin(BuiltinFn::CtypeWidth, vec![Self::ctype_pe(&result_ty)]);
        let pow = Self::binop(Binop::Exp, PExpr::Integer(2), py.clone());
        let raw = if op == BinOp::Shl {
            Self::binop(Binop::Mul, px.clone(), pow)
        } else {
            Self::binop(Binop::Div, px.clone(), pow)
        };
        let body = if env.is_signed(promoted) {
            if op == BinOp::Shl {
                // 6.5.7p4: E1 negative, or the result not representable, is
                // undefined behaviour.
                PExpr::If(
                    Box::new(Self::binop(Binop::Lt, px.clone(), PExpr::Integer(0))),
                    Box::new(PExpr::Undef(UbKind::ExceptionalCondition)),
                    Box::new(PExpr::If(
                        Box::new(Self::is_representable(raw.clone(), promoted)),
                        Box::new(PExpr::Specified(Box::new(raw.clone()))),
                        Box::new(PExpr::Undef(UbKind::ExceptionalCondition)),
                    )),
                )
            } else {
                PExpr::Specified(Box::new(raw.clone()))
            }
        } else {
            // Unsigned: reduced modulo one more than the maximum value
            // representable in the result type (6.5.7p4).
            PExpr::Specified(Box::new(Self::conv_int(promoted, raw.clone())))
        };
        // 6.5.7p3: negative or too-large shift amounts are undefined.
        PExpr::If(
            Box::new(Self::binop(Binop::Lt, py.clone(), PExpr::Integer(0))),
            Box::new(PExpr::Undef(UbKind::NegativeShift)),
            Box::new(PExpr::If(
                Box::new(Self::binop(Binop::Le, width, py)),
                Box::new(PExpr::Undef(UbKind::ShiftTooLarge)),
                Box::new(body),
            )),
        )
    }

    /// Bind the two operands of a binary operator by unsequenced evaluation
    /// (6.5p2-3: "value computations of the operands … are sequenced before
    /// the value computation of the result"; the operand evaluations
    /// themselves are unsequenced).
    fn bind_operands(
        &mut self,
        lhs: &AilExpr,
        rhs: &AilExpr,
        cont: impl FnOnce(Sym, Sym) -> Expr,
    ) -> Expr {
        let s1 = self.fresh("e1");
        let s2 = self.fresh("e2");
        let e1 = self.elab_rvalue(lhs);
        let e2 = self.elab_rvalue(rhs);
        let body = cont(s1.clone(), s2.clone());
        Expr::Wseq(
            Pattern::Tuple(vec![Pattern::Sym(s1), Pattern::Sym(s2)]),
            Box::new(Expr::Unseq(vec![e1, e2])),
            Box::new(body),
        )
    }

    // ----- lvalue elaboration ---------------------------------------------------

    /// Elaborate an expression in lvalue position: the result is the pointer
    /// value of the designated object.
    pub fn elab_lvalue(&mut self, e: &AilExpr) -> Expr {
        match &e.kind {
            AilExprKind::Ident(name, IdentKind::Local) => {
                Expr::Pure(PExpr::Sym(self.local_sym(name)))
            }
            AilExprKind::Ident(name, IdentKind::Global) => {
                Expr::Pure(PExpr::Sym(self.global_sym(name)))
            }
            AilExprKind::Ident(name, IdentKind::Function) => {
                Expr::Pure(PExpr::FunctionPtr(name.clone()))
            }
            AilExprKind::StringLit(bytes) => {
                let name = self.register_string_literal(bytes);
                Expr::Pure(PExpr::Sym(name))
            }
            AilExprKind::Unary(UnOp::Deref, inner) => {
                let s = self.fresh("ptr");
                let p = self.fresh("p");
                let rv = self.elab_rvalue(inner);
                Expr::Sseq(
                    Pattern::Sym(s.clone()),
                    Box::new(rv),
                    Box::new(Expr::Case(
                        PExpr::Sym(s),
                        vec![
                            (
                                Pattern::Specified(Box::new(Pattern::Sym(p.clone()))),
                                Expr::Pure(PExpr::Sym(p)),
                            ),
                            (
                                Pattern::Wildcard,
                                Expr::Pure(PExpr::Undef(UbKind::IndeterminateValueUse)),
                            ),
                        ],
                    )),
                )
            }
            AilExprKind::Member(base, member) => {
                let tag = match &base.ty {
                    Ctype::Struct(tag) | Ctype::Union(tag) => *tag,
                    _ => {
                        return Expr::Pure(PExpr::Error("member access on a non-aggregate".into()))
                    }
                };
                let p = self.fresh("base");
                let base_lv = self.elab_lvalue(base);
                Expr::Sseq(
                    Pattern::Sym(p.clone()),
                    Box::new(base_lv),
                    Box::new(Expr::Pure(PExpr::MemberShift {
                        ptr: Box::new(PExpr::Sym(p)),
                        tag,
                        member: member.clone(),
                    })),
                )
            }
            _ => Expr::Pure(PExpr::Error(format!(
                "expression is not an lvalue: {:?}",
                e.kind
            ))),
        }
    }

    // ----- rvalue elaboration ----------------------------------------------------

    /// Elaborate an expression in rvalue position: the result is a *loaded*
    /// value (`Specified`/`Unspecified`).
    pub fn elab_rvalue(&mut self, e: &AilExpr) -> Expr {
        // Lvalue conversion (6.3.2.1p2-3): lvalue-evaluate and load, with
        // array-to-pointer decay yielding the object pointer itself.
        if e.is_lvalue {
            let p = self.fresh("lv");
            let lv = self.elab_lvalue(e);
            let rest = if matches!(e.ty, Ctype::Array(..)) {
                Expr::Pure(PExpr::Specified(Box::new(PExpr::Sym(p.clone()))))
            } else {
                self.action_load(&e.ty, PExpr::Sym(p.clone()))
            };
            return Expr::Sseq(Pattern::Sym(p), Box::new(lv), Box::new(rest));
        }
        match &e.kind {
            AilExprKind::Constant(v) => Expr::Pure(PExpr::specified_int(*v)),
            AilExprKind::FloatConstant(_) => Expr::Pure(PExpr::Error(
                "floating-point arithmetic is unsupported".into(),
            )),
            AilExprKind::Ident(name, IdentKind::Function) => {
                Expr::Pure(PExpr::Specified(Box::new(PExpr::FunctionPtr(name.clone()))))
            }
            AilExprKind::Ident(..) | AilExprKind::StringLit(_) | AilExprKind::Member(..) => {
                // Already covered by the lvalue path above.
                Expr::Pure(PExpr::Error(
                    "unexpected lvalue kind in rvalue elaboration".into(),
                ))
            }
            AilExprKind::Unary(op, inner) => self.elab_unary(e, *op, inner),
            AilExprKind::Binary(op, lhs, rhs) => self.elab_binary(e, *op, lhs, rhs),
            AilExprKind::Assign(lhs, rhs) => self.elab_assign(lhs, rhs),
            AilExprKind::CompoundAssign(op, lhs, rhs) => self.elab_compound_assign(*op, lhs, rhs),
            AilExprKind::Conditional(c, t, f) => {
                let result_ty = e.ty.clone();
                let then_ty = t.ty.decay();
                let else_ty = f.ty.decay();
                let tb = {
                    let v = self.fresh("tv");
                    let inner = self.elab_rvalue(t);
                    let conv = self.convert_loaded(&result_ty, &then_ty, PExpr::Sym(v.clone()));
                    Expr::Sseq(Pattern::Sym(v), Box::new(inner), Box::new(Expr::Pure(conv)))
                };
                let fb = {
                    let v = self.fresh("fv");
                    let inner = self.elab_rvalue(f);
                    let conv = self.convert_loaded(&result_ty, &else_ty, PExpr::Sym(v.clone()));
                    Expr::Sseq(Pattern::Sym(v), Box::new(inner), Box::new(Expr::Pure(conv)))
                };
                self.elab_condition(c, tb, fb)
            }
            AilExprKind::Cast(target, inner) => self.elab_cast(target, inner),
            AilExprKind::Call(callee, args) => self.elab_call(callee, args),
            AilExprKind::Comma(a, b) => {
                let first = self.elab_rvalue(a);
                let second = self.elab_rvalue(b);
                Expr::seq(first, second)
            }
        }
    }

    fn elab_unary(&mut self, e: &AilExpr, op: UnOp, inner: &AilExpr) -> Expr {
        match op {
            UnOp::AddressOf => {
                if let AilExprKind::Ident(name, IdentKind::Function) = &inner.kind {
                    return Expr::Pure(PExpr::Specified(Box::new(PExpr::FunctionPtr(
                        name.clone(),
                    ))));
                }
                let p = self.fresh("addr");
                let lv = self.elab_lvalue(inner);
                Expr::Sseq(
                    Pattern::Sym(p.clone()),
                    Box::new(lv),
                    Box::new(Expr::Pure(PExpr::Specified(Box::new(PExpr::Sym(p))))),
                )
            }
            UnOp::Deref => {
                // A non-lvalue deref result only arises when the pointee is a
                // function (calling through a pointer) — produce the function
                // designator value.
                let s = self.fresh("fp");
                let rv = self.elab_rvalue(inner);
                Expr::Sseq(
                    Pattern::Sym(s.clone()),
                    Box::new(rv),
                    Box::new(Expr::Pure(PExpr::Sym(s))),
                )
            }
            UnOp::Plus | UnOp::Minus | UnOp::BitNot | UnOp::LogicalNot => {
                let result_ty = e.ty.clone();
                let s = self.fresh("u");
                let v = self.fresh("uv");
                let rv = self.elab_rvalue(inner);
                let operand_it = inner.ty.decay().as_integer();
                let pure = match (op, operand_it, result_ty.as_integer()) {
                    (UnOp::LogicalNot, _, _) => PExpr::Specified(Box::new(PExpr::If(
                        Box::new(Self::binop(
                            Binop::Eq,
                            PExpr::Sym(v.clone()),
                            PExpr::Integer(0),
                        )),
                        Box::new(PExpr::Integer(1)),
                        Box::new(PExpr::Integer(0)),
                    ))),
                    (UnOp::Plus, Some(_), Some(rt)) => {
                        PExpr::Specified(Box::new(Self::conv_int(rt, PExpr::Sym(v.clone()))))
                    }
                    (UnOp::Minus, Some(_), Some(rt)) => {
                        let negated = Self::binop(
                            Binop::Sub,
                            PExpr::Integer(0),
                            Self::conv_int(rt, PExpr::Sym(v.clone())),
                        );
                        if self.env.is_signed(rt) {
                            PExpr::If(
                                Box::new(Self::is_representable(negated.clone(), rt)),
                                Box::new(PExpr::Specified(Box::new(negated))),
                                Box::new(PExpr::Undef(UbKind::ExceptionalCondition)),
                            )
                        } else {
                            PExpr::Specified(Box::new(Self::conv_int(rt, negated)))
                        }
                    }
                    (UnOp::BitNot, Some(_), Some(rt)) => {
                        let complement = Self::binop(
                            Binop::Sub,
                            Self::binop(
                                Binop::Sub,
                                PExpr::Integer(0),
                                Self::conv_int(rt, PExpr::Sym(v.clone())),
                            ),
                            PExpr::Integer(1),
                        );
                        PExpr::Specified(Box::new(Self::conv_int(rt, complement)))
                    }
                    _ => PExpr::Error("unary operator on a non-integer operand".into()),
                };
                Expr::Sseq(
                    Pattern::Sym(s.clone()),
                    Box::new(rv),
                    Box::new(Expr::Pure(PExpr::Case(
                        Box::new(PExpr::Sym(s)),
                        vec![
                            (Pattern::Specified(Box::new(Pattern::Sym(v))), pure),
                            (Pattern::Wildcard, PExpr::Unspecified(result_ty)),
                        ],
                    ))),
                )
            }
            UnOp::PostIncr | UnOp::PostDecr | UnOp::PreIncr | UnOp::PreDecr => {
                self.elab_incr_decr(e, op, inner)
            }
        }
    }

    fn elab_incr_decr(&mut self, e: &AilExpr, op: UnOp, inner: &AilExpr) -> Expr {
        let ty = e.ty.clone();
        let is_post = matches!(op, UnOp::PostIncr | UnOp::PostDecr);
        let delta: i128 = if matches!(op, UnOp::PostIncr | UnOp::PreIncr) {
            1
        } else {
            -1
        };
        let p = self.fresh("obj");
        let old = self.fresh("old");
        let ov = self.fresh("ov");
        let lv = self.elab_lvalue(inner);
        let load = self.action_load(&ty, PExpr::Sym(p.clone()));

        // The new value.
        let new_value: PExpr = match &ty {
            Ctype::Pointer(_, pointee) => PExpr::Specified(Box::new(PExpr::ArrayShift {
                ptr: Box::new(PExpr::Sym(ov.clone())),
                elem_ty: (**pointee).clone(),
                index: Box::new(PExpr::Integer(delta)),
            })),
            Ctype::Integer(it) => {
                let math = Self::binop(
                    Binop::Add,
                    Self::conv_int(*it, PExpr::Sym(ov.clone())),
                    PExpr::Integer(delta),
                );
                if self.env.is_signed(*it) {
                    PExpr::If(
                        Box::new(Self::is_representable(math.clone(), *it)),
                        Box::new(PExpr::Specified(Box::new(math))),
                        Box::new(PExpr::Undef(UbKind::ExceptionalCondition)),
                    )
                } else {
                    PExpr::Specified(Box::new(Self::conv_int(*it, math)))
                }
            }
            _ => PExpr::Error("increment of a non-scalar".into()),
        };

        let store = if is_post {
            // The incrementing store is not part of the value computation
            // (§5.6): a negative-polarity action under weak sequencing.
            self.action_store_neg(&ty, PExpr::Sym(p.clone()), new_value.clone())
        } else {
            self.action_store(&ty, PExpr::Sym(p.clone()), new_value.clone())
        };
        let result = if is_post {
            Expr::Pure(PExpr::Specified(Box::new(PExpr::Sym(ov.clone()))))
        } else {
            Expr::Pure(new_value)
        };
        let after_old = Expr::Case(
            PExpr::Sym(old.clone()),
            vec![
                (
                    Pattern::Specified(Box::new(Pattern::Sym(ov))),
                    if is_post {
                        Expr::Wseq(Pattern::Wildcard, Box::new(store), Box::new(result))
                    } else {
                        Expr::Sseq(Pattern::Wildcard, Box::new(store), Box::new(result))
                    },
                ),
                (
                    Pattern::Wildcard,
                    Expr::Pure(PExpr::Undef(UbKind::IndeterminateValueUse)),
                ),
            ],
        );
        Expr::Sseq(
            Pattern::Sym(p),
            Box::new(lv),
            Box::new(Expr::Sseq(
                Pattern::Sym(old),
                Box::new(load),
                Box::new(after_old),
            )),
        )
    }

    fn elab_binary(&mut self, e: &AilExpr, op: BinOp, lhs: &AilExpr, rhs: &AilExpr) -> Expr {
        let result_ty = e.ty.clone();
        let lt = lhs.ty.decay();
        let rt = rhs.ty.decay();

        // Short-circuit logical operators (6.5.13/6.5.14): the second operand
        // is only evaluated if needed, with a sequence point in between.
        if op.is_logical() {
            let rhs_eval = {
                let s = self.fresh("rhs");
                let v = self.fresh("rv");
                let inner = self.elab_rvalue(rhs);
                Expr::Sseq(
                    Pattern::Sym(s.clone()),
                    Box::new(inner),
                    Box::new(Expr::Case(
                        PExpr::Sym(s),
                        vec![
                            (
                                Pattern::Specified(Box::new(Pattern::Sym(v.clone()))),
                                Expr::Pure(PExpr::Specified(Box::new(PExpr::If(
                                    Box::new(Self::binop(
                                        Binop::Ne,
                                        PExpr::Sym(v),
                                        PExpr::Integer(0),
                                    )),
                                    Box::new(PExpr::Integer(1)),
                                    Box::new(PExpr::Integer(0)),
                                )))),
                            ),
                            (
                                Pattern::Wildcard,
                                Expr::Pure(PExpr::Undef(UbKind::IndeterminateValueUse)),
                            ),
                        ],
                    )),
                )
            };
            let (on_true, on_false) = if op == BinOp::LogicalAnd {
                (rhs_eval, Expr::Pure(PExpr::specified_int(0)))
            } else {
                (Expr::Pure(PExpr::specified_int(1)), rhs_eval)
            };
            return self.elab_condition(lhs, on_true, on_false);
        }

        let lt2 = lt.clone();
        let rt2 = rt.clone();

        // Pointer arithmetic: ptr ± integer and integer + ptr (6.5.6p8).
        if matches!(op, BinOp::Add | BinOp::Sub) && (lt.is_pointer() ^ rt.is_pointer()) {
            let (ptr_first, pointee) = if lt.is_pointer() {
                (true, lt.pointee().cloned().unwrap_or(Ctype::Void))
            } else {
                (false, rt.pointee().cloned().unwrap_or(Ctype::Void))
            };
            let negate = op == BinOp::Sub;
            let v1 = self.fresh("v1");
            let v2 = self.fresh("v2");
            return self.bind_operands(lhs, rhs, |s1, s2| {
                let (pv, iv) = if ptr_first {
                    (v1.clone(), v2.clone())
                } else {
                    (v2.clone(), v1.clone())
                };
                let index = if negate {
                    Self::binop(Binop::Sub, PExpr::Integer(0), PExpr::Sym(iv))
                } else {
                    PExpr::Sym(iv)
                };
                let shifted = PExpr::Specified(Box::new(PExpr::ArrayShift {
                    ptr: Box::new(PExpr::Sym(pv)),
                    elem_ty: pointee.clone(),
                    index: Box::new(index),
                }));
                Expr::Case(
                    PExpr::Tuple(vec![PExpr::Sym(s1), PExpr::Sym(s2)]),
                    vec![
                        (
                            Pattern::Tuple(vec![
                                Pattern::Specified(Box::new(Pattern::Sym(v1))),
                                Pattern::Specified(Box::new(Pattern::Sym(v2))),
                            ]),
                            Expr::Pure(shifted),
                        ),
                        (
                            Pattern::Wildcard,
                            Expr::Pure(PExpr::Undef(UbKind::IndeterminateValueUse)),
                        ),
                    ],
                )
            });
        }

        // Pointer subtraction (6.5.6p9).
        if op == BinOp::Sub && lt.is_pointer() && rt.is_pointer() {
            let pointee = lt.pointee().cloned().unwrap_or(Ctype::Void);
            let p1 = self.binder("p1");
            let p2 = self.binder("p2");
            return self.bind_operands(lhs, rhs, move |s1, s2| {
                Expr::Case(
                    PExpr::Tuple(vec![PExpr::Sym(s1), PExpr::Sym(s2)]),
                    vec![
                        (
                            Pattern::Tuple(vec![
                                Pattern::Specified(Box::new(Pattern::Sym(p1.clone()))),
                                Pattern::Specified(Box::new(Pattern::Sym(p2.clone()))),
                            ]),
                            Expr::Memop(
                                PtrOp::Diff,
                                vec![
                                    PExpr::Sym(p1),
                                    PExpr::Sym(p2),
                                    PExpr::CtypeConst(pointee.clone()),
                                ],
                            ),
                        ),
                        (
                            Pattern::Wildcard,
                            Expr::Pure(PExpr::Undef(UbKind::IndeterminateValueUse)),
                        ),
                    ],
                )
            });
        }

        // Pointer comparisons (6.5.8, 6.5.9) — including pointer vs null
        // constant; the memory model interprets integer operands.
        if op.is_comparison() && (lt.is_pointer() || rt.is_pointer()) {
            let ptr_op = match op {
                BinOp::Eq => PtrOp::Eq,
                BinOp::Ne => PtrOp::Ne,
                BinOp::Lt => PtrOp::Lt,
                BinOp::Gt => PtrOp::Gt,
                BinOp::Le => PtrOp::Le,
                _ => PtrOp::Ge,
            };
            let p1 = self.binder("p1");
            let p2 = self.binder("p2");
            return self.bind_operands(lhs, rhs, move |s1, s2| {
                Expr::Case(
                    PExpr::Tuple(vec![PExpr::Sym(s1), PExpr::Sym(s2)]),
                    vec![
                        (
                            Pattern::Tuple(vec![
                                Pattern::Specified(Box::new(Pattern::Sym(p1.clone()))),
                                Pattern::Specified(Box::new(Pattern::Sym(p2.clone()))),
                            ]),
                            Expr::Memop(ptr_op, vec![PExpr::Sym(p1), PExpr::Sym(p2)]),
                        ),
                        (
                            Pattern::Wildcard,
                            Expr::Pure(PExpr::Undef(UbKind::IndeterminateValueUse)),
                        ),
                    ],
                )
            });
        }

        // Plain integer arithmetic: evaluate the operands unsequenced, then
        // compute the pure Fig. 3-style case split over the loaded values.
        let s1 = self.fresh("e1");
        let s2 = self.fresh("e2");
        let e1 = self.elab_rvalue(lhs);
        let e2 = self.elab_rvalue(rhs);
        let pure_arith = match (lt2.as_integer(), rt2.as_integer()) {
            (Some(li), Some(ri)) => {
                let v1 = self.fresh("v1");
                let v2 = self.fresh("v2");
                let arith = self.specified_int_arith(
                    op,
                    li,
                    ri,
                    PExpr::Sym(v1.clone()),
                    PExpr::Sym(v2.clone()),
                );
                Expr::Case(
                    PExpr::Tuple(vec![PExpr::Sym(s1.clone()), PExpr::Sym(s2.clone())]),
                    vec![
                        (
                            Pattern::Tuple(vec![
                                Pattern::Specified(Box::new(Pattern::Sym(v1))),
                                Pattern::Specified(Box::new(Pattern::Sym(v2))),
                            ]),
                            Expr::Pure(arith),
                        ),
                        (
                            Pattern::Wildcard,
                            Expr::Pure(PExpr::Unspecified(result_ty.clone())),
                        ),
                    ],
                )
            }
            _ => Expr::Pure(PExpr::Error("non-integer operands in arithmetic".into())),
        };
        Expr::Wseq(
            Pattern::Tuple(vec![Pattern::Sym(s1), Pattern::Sym(s2)]),
            Box::new(Expr::Unseq(vec![e1, e2])),
            Box::new(pure_arith),
        )
    }

    fn elab_assign(&mut self, lhs: &AilExpr, rhs: &AilExpr) -> Expr {
        let lty = lhs.ty.clone();
        let rty = rhs.ty.decay();
        let p = self.fresh("lhs");
        let v = self.fresh("rhs");
        let lv = self.elab_lvalue(lhs);
        let rv = self.elab_rvalue(rhs);
        let converted = self.convert_loaded(&lty, &rty, PExpr::Sym(v.clone()));
        let store = self.action_store(&lty, PExpr::Sym(p.clone()), converted.clone());
        Expr::Wseq(
            Pattern::Tuple(vec![Pattern::Sym(p), Pattern::Sym(v)]),
            Box::new(Expr::Unseq(vec![lv, rv])),
            Box::new(Expr::Sseq(
                Pattern::Wildcard,
                Box::new(store),
                Box::new(Expr::Pure(converted)),
            )),
        )
    }

    fn elab_compound_assign(&mut self, op: BinOp, lhs: &AilExpr, rhs: &AilExpr) -> Expr {
        let lty = lhs.ty.clone();
        let rty = rhs.ty.decay();
        let p = self.fresh("lhs");
        let old = self.fresh("old");
        let rvs = self.fresh("rhs");
        let lv = self.elab_lvalue(lhs);
        let rv = self.elab_rvalue(rhs);
        let load = self.action_load(&lty, PExpr::Sym(p.clone()));

        // The combined value: pointer += integer uses array_shift; integer
        // lvalues use the arithmetic case split, converted back to the
        // lvalue's type.
        let combined: PExpr = match (&lty, lty.as_integer(), rty.as_integer()) {
            (Ctype::Pointer(_, pointee), _, _) => {
                let ov = self.fresh("ov");
                let iv = self.fresh("iv");
                let delta = if op == BinOp::Sub {
                    Self::binop(Binop::Sub, PExpr::Integer(0), PExpr::Sym(iv.clone()))
                } else {
                    PExpr::Sym(iv.clone())
                };
                PExpr::Case(
                    Box::new(PExpr::Tuple(vec![
                        PExpr::Sym(old.clone()),
                        PExpr::Sym(rvs.clone()),
                    ])),
                    vec![
                        (
                            Pattern::Tuple(vec![
                                Pattern::Specified(Box::new(Pattern::Sym(ov.clone()))),
                                Pattern::Specified(Box::new(Pattern::Sym(iv))),
                            ]),
                            PExpr::Specified(Box::new(PExpr::ArrayShift {
                                ptr: Box::new(PExpr::Sym(ov)),
                                elem_ty: (**pointee).clone(),
                                index: Box::new(delta),
                            })),
                        ),
                        (
                            Pattern::Wildcard,
                            PExpr::Undef(UbKind::IndeterminateValueUse),
                        ),
                    ],
                )
            }
            (_, Some(li), Some(ri)) => {
                let ov = self.fresh("ov");
                let iv = self.fresh("iv");
                let arith = self.specified_int_arith(
                    op,
                    li,
                    ri,
                    PExpr::Sym(ov.clone()),
                    PExpr::Sym(iv.clone()),
                );
                let back = {
                    let res = self.fresh("res");
                    PExpr::Case(
                        Box::new(arith),
                        vec![
                            (
                                Pattern::Specified(Box::new(Pattern::Sym(res.clone()))),
                                PExpr::Specified(Box::new(Self::conv_int(li, PExpr::Sym(res)))),
                            ),
                            (Pattern::Wildcard, PExpr::Unspecified(lty.clone())),
                        ],
                    )
                };
                PExpr::Case(
                    Box::new(PExpr::Tuple(vec![
                        PExpr::Sym(old.clone()),
                        PExpr::Sym(rvs.clone()),
                    ])),
                    vec![
                        (
                            Pattern::Tuple(vec![
                                Pattern::Specified(Box::new(Pattern::Sym(ov))),
                                Pattern::Specified(Box::new(Pattern::Sym(iv))),
                            ]),
                            back,
                        ),
                        (Pattern::Wildcard, PExpr::Unspecified(lty.clone())),
                    ],
                )
            }
            _ => PExpr::Error("unsupported compound assignment".into()),
        };

        let result = self.fresh("newv");
        let store = self.action_store(&lty, PExpr::Sym(p.clone()), PExpr::Sym(result.clone()));
        Expr::Wseq(
            Pattern::Tuple(vec![Pattern::Sym(p.clone()), Pattern::Sym(rvs)]),
            Box::new(Expr::Unseq(vec![lv, rv])),
            Box::new(Expr::Sseq(
                Pattern::Sym(old),
                Box::new(load),
                Box::new(Expr::Let(
                    Pattern::Sym(result.clone()),
                    combined,
                    Box::new(Expr::Sseq(
                        Pattern::Wildcard,
                        Box::new(store),
                        Box::new(Expr::Pure(PExpr::Sym(result))),
                    )),
                )),
            )),
        )
    }

    fn elab_cast(&mut self, target: &Ctype, inner: &AilExpr) -> Expr {
        let from = inner.ty.decay();
        let s = self.fresh("castee");
        let v = self.fresh("cv");
        let rv = self.elab_rvalue(inner);

        let body: Expr = match (target, &from) {
            (Ctype::Void, _) => Expr::Pure(PExpr::Specified(Box::new(PExpr::Unit))),
            (Ctype::Integer(to_it), f) if f.is_integer() => Expr::Pure(PExpr::Case(
                Box::new(PExpr::Sym(s.clone())),
                vec![
                    (
                        Pattern::Specified(Box::new(Pattern::Sym(v.clone()))),
                        PExpr::Specified(Box::new(Self::conv_int(*to_it, PExpr::Sym(v.clone())))),
                    ),
                    (Pattern::Wildcard, PExpr::Unspecified(target.clone())),
                ],
            )),
            (Ctype::Integer(_), Ctype::Pointer(..)) => Expr::Case(
                PExpr::Sym(s.clone()),
                vec![
                    (
                        Pattern::Specified(Box::new(Pattern::Sym(v.clone()))),
                        Expr::Memop(
                            PtrOp::IntFromPtr,
                            vec![PExpr::Sym(v.clone()), PExpr::CtypeConst(target.clone())],
                        ),
                    ),
                    (
                        Pattern::Wildcard,
                        Expr::Pure(PExpr::Unspecified(target.clone())),
                    ),
                ],
            ),
            (Ctype::Pointer(..), f) if f.is_integer() => Expr::Case(
                PExpr::Sym(s.clone()),
                vec![
                    (
                        Pattern::Specified(Box::new(Pattern::Sym(v.clone()))),
                        Expr::Memop(
                            PtrOp::PtrFromInt,
                            vec![PExpr::Sym(v.clone()), PExpr::CtypeConst(target.clone())],
                        ),
                    ),
                    (
                        Pattern::Wildcard,
                        Expr::Pure(PExpr::Unspecified(target.clone())),
                    ),
                ],
            ),
            // Pointer-to-pointer casts reinterpret the referenced type but
            // keep the value (and its provenance).
            (Ctype::Pointer(..), Ctype::Pointer(..)) => Expr::Pure(PExpr::Sym(s.clone())),
            _ => Expr::Pure(PExpr::Error(format!(
                "unsupported cast from {from} to {target}"
            ))),
        };
        Expr::Sseq(Pattern::Sym(s), Box::new(rv), Box::new(body))
    }

    fn elab_call(&mut self, callee: &AilExpr, args: &[AilExpr]) -> Expr {
        let f = self.fresh("fn");
        let arg_syms: Vec<Sym> = (0..args.len())
            .map(|i| self.fresh(&format!("arg{i}")))
            .collect();
        let mut evals = Vec::with_capacity(args.len() + 1);
        evals.push(self.elab_rvalue(callee));
        for a in args {
            evals.push(self.elab_rvalue(a));
        }
        let mut pats = Vec::with_capacity(args.len() + 1);
        pats.push(Pattern::Sym(f.clone()));
        pats.extend(arg_syms.iter().cloned().map(Pattern::Sym));
        let call = Expr::Ccall(
            Box::new(PExpr::Sym(f)),
            arg_syms.into_iter().map(PExpr::Sym).collect(),
        );
        // The evaluations of the function designator and the arguments are
        // unsequenced with respect to each other; the call is sequenced after
        // all of them (6.5.2.2p10). The body of the callee is indeterminately
        // sequenced with respect to the rest of the calling expression.
        Expr::Wseq(
            Pattern::Tuple(pats),
            Box::new(Expr::Unseq(evals)),
            Box::new(Expr::Indet(Box::new(call))),
        )
    }
}
