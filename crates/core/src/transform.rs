//! Core-to-Core transformations.
//!
//! The paper's pipeline includes an optional Core-to-Core simplification pass
//! (Fig. 1, "Core-to-Core transformation"). The pass implemented here performs
//! effect-preserving simplifications: folding of pure conditionals with
//! literal tests, elimination of `skip` in strong sequences whose result is
//! discarded, flattening of single-element `unseq`/`nd`, and removal of the
//! advisory `indet`/`bound` markers (their information has already been used
//! to insert the appropriate sequencing).

use crate::syntax::{Expr, PExpr, Pattern};

/// Simplify a pure expression (constant-fold literal boolean tests and
/// not-of-literal).
pub fn simplify_pexpr(pe: PExpr) -> PExpr {
    match pe {
        PExpr::Not(inner) => match simplify_pexpr(*inner) {
            PExpr::Boolean(b) => PExpr::Boolean(!b),
            other => PExpr::Not(Box::new(other)),
        },
        PExpr::If(c, t, f) => {
            let c = simplify_pexpr(*c);
            match c {
                PExpr::Boolean(true) => simplify_pexpr(*t),
                PExpr::Boolean(false) => simplify_pexpr(*f),
                other => PExpr::If(
                    Box::new(other),
                    Box::new(simplify_pexpr(*t)),
                    Box::new(simplify_pexpr(*f)),
                ),
            }
        }
        PExpr::Specified(inner) => PExpr::Specified(Box::new(simplify_pexpr(*inner))),
        PExpr::Tuple(items) => PExpr::Tuple(items.into_iter().map(simplify_pexpr).collect()),
        other => other,
    }
}

/// Simplify an effectful Core expression while preserving its memory actions,
/// nondeterminism, and control flow.
pub fn simplify_expr(e: Expr) -> Expr {
    match e {
        Expr::Pure(pe) => Expr::Pure(simplify_pexpr(pe)),
        Expr::If(c, t, f) => {
            let c = simplify_pexpr(c);
            match c {
                PExpr::Boolean(true) => simplify_expr(*t),
                PExpr::Boolean(false) => simplify_expr(*f),
                other => Expr::If(
                    other,
                    Box::new(simplify_expr(*t)),
                    Box::new(simplify_expr(*f)),
                ),
            }
        }
        Expr::Let(pat, value, body) => {
            Expr::Let(pat, simplify_pexpr(value), Box::new(simplify_expr(*body)))
        }
        Expr::Case(scrutinee, arms) => Expr::Case(
            simplify_pexpr(scrutinee),
            arms.into_iter()
                .map(|(p, e)| (p, simplify_expr(e)))
                .collect(),
        ),
        Expr::Unseq(mut items) => {
            if items.len() == 1 {
                simplify_expr(items.remove(0))
            } else {
                Expr::Unseq(items.into_iter().map(simplify_expr).collect())
            }
        }
        Expr::Nd(mut items) => {
            if items.len() == 1 {
                simplify_expr(items.remove(0))
            } else {
                Expr::Nd(items.into_iter().map(simplify_expr).collect())
            }
        }
        Expr::Wseq(pat, first, second) => {
            let first = simplify_expr(*first);
            let second = simplify_expr(*second);
            if matches!(pat, Pattern::Wildcard) && first == Expr::Skip {
                second
            } else {
                Expr::Wseq(pat, Box::new(first), Box::new(second))
            }
        }
        Expr::Sseq(pat, first, second) => {
            let first = simplify_expr(*first);
            let second = simplify_expr(*second);
            if matches!(pat, Pattern::Wildcard) && first == Expr::Skip {
                second
            } else {
                Expr::Sseq(pat, Box::new(first), Box::new(second))
            }
        }
        Expr::Indet(inner) | Expr::Bound(inner) => simplify_expr(*inner),
        Expr::Save(label, body) => Expr::Save(label, Box::new(simplify_expr(*body))),
        Expr::Exit(label, body) => Expr::Exit(label, Box::new(simplify_expr(*body))),
        Expr::Par(items) => Expr::Par(items.into_iter().map(simplify_expr).collect()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{MemAction, MemOrder, Polarity};
    use cerberus_ast::ctype::{Ctype, IntegerType};

    fn a_store() -> Expr {
        Expr::Action(
            Polarity::Positive,
            MemAction::Store {
                ty: Box::new(PExpr::CtypeConst(Ctype::integer(IntegerType::Int))),
                ptr: Box::new(PExpr::local("p", 0)),
                value: Box::new(PExpr::Integer(1)),
                order: MemOrder::NA,
            },
        )
    }

    #[test]
    fn literal_conditionals_fold() {
        let e = Expr::If(
            PExpr::Boolean(true),
            Box::new(a_store()),
            Box::new(Expr::Skip),
        );
        assert_eq!(simplify_expr(e), a_store());
        let e = Expr::If(
            PExpr::Boolean(false),
            Box::new(a_store()),
            Box::new(Expr::Skip),
        );
        assert_eq!(simplify_expr(e), Expr::Skip);
    }

    #[test]
    fn skip_sequences_collapse() {
        let e = Expr::seq(Expr::Skip, a_store());
        assert_eq!(simplify_expr(e), a_store());
    }

    #[test]
    fn effects_are_never_dropped() {
        let e = Expr::seq(a_store(), Expr::Skip);
        let s = simplify_expr(e);
        assert!(s.has_effects());
    }

    #[test]
    fn indet_bound_markers_are_erased() {
        let e = Expr::Indet(Box::new(Expr::Bound(Box::new(a_store()))));
        assert_eq!(simplify_expr(e), a_store());
    }

    #[test]
    fn singleton_unseq_flattens() {
        let e = Expr::Unseq(vec![a_store()]);
        assert_eq!(simplify_expr(e), a_store());
        let e2 = Expr::Unseq(vec![a_store(), Expr::Skip]);
        assert!(matches!(simplify_expr(e2), Expr::Unseq(items) if items.len() == 2));
    }

    #[test]
    fn pure_not_folds() {
        assert_eq!(
            simplify_pexpr(PExpr::Not(Box::new(PExpr::Boolean(false)))),
            PExpr::Boolean(true)
        );
    }
}
