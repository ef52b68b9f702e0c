//! The Core interpreter: a structural operational semantics over Core
//! expressions, parameterised by the memory object model and a choice oracle.

use std::borrow::Cow;
use std::rc::Rc;

use cerberus_ast::ctype::{Ctype, IntegerType};
use cerberus_ast::ident::Ident;
use cerberus_ast::ub::UbKind;
use cerberus_core::program::{CoreProc, CoreProgram};
use cerberus_core::syntax::{Binop, BuiltinFn, Expr, MemAction, PExpr, Pattern, PtrOp, Slot, Sym};
use cerberus_memory::limits::{ResourceKind, ResourceLimits, TimeoutKind};
use cerberus_memory::model::MemoryModel;
use cerberus_memory::state::{AllocKind, MemError, MemErrorKind};
use cerberus_memory::value::{IntegerValue, PointerValue};

use crate::builtins;
use crate::driver::ChoiceOracle;
use crate::value::Value;

/// A terminal, non-value outcome of an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// Undefined behaviour was reached; the execution is terminated and the
    /// UB reported (§5.4).
    Undef {
        /// Which undefined behaviour.
        ub: UbKind,
        /// A human-readable explanation.
        detail: String,
    },
    /// A dynamic error outside the semantics (unsupported construct, failed
    /// `assert`, `abort`).
    Error(String),
    /// The program called `exit(code)`.
    Exit(i128),
    /// A time budget was exhausted: the deterministic step budget (used to
    /// bound exhaustive exploration and to detect non-termination in
    /// differential testing, §6) or the wall-clock watchdog.
    Limit(TimeoutKind),
    /// A [`ResourceLimits`] allocation/recursion budget was exhausted.
    Resource(ResourceKind),
}

impl From<MemError> for Stop {
    fn from(e: MemError) -> Self {
        match e.kind {
            MemErrorKind::Undef(ub) => Stop::Undef {
                ub,
                detail: e.detail,
            },
            MemErrorKind::Resource(kind) => Stop::Resource(kind),
        }
    }
}

/// Control flow produced by evaluating an expression of a program that
/// lives for `'a`.
#[derive(Debug, Clone, PartialEq)]
pub enum Flow<'a> {
    /// A value.
    Value(Value),
    /// A jump to a `save`/`exit` label (`run l`), borrowed from the program.
    Jump(&'a Ident),
    /// A `return` from the current C function.
    Return(Value),
}

type EResult<'a> = Result<Flow<'a>, Stop>;
/// The local slots of one procedure call or global initialiser, indexed by
/// [`Slot::Local`]; a slot is `None` until a pattern binds it.
pub type Frame = [Option<Value>];

/// A frame of `size` unbound slots.
fn new_frame(size: u32) -> Vec<Option<Value>> {
    vec![None; size as usize]
}

#[derive(Debug, Clone, Copy)]
struct Access {
    addr: u64,
    len: u64,
    write: bool,
    /// Whether the access came from a negative-polarity action (e.g. the
    /// store of a postfix increment), which weak sequencing does not order
    /// before subsequent actions (§5.6).
    negative: bool,
}

fn access_conflict(x: &Access, y: &Access) -> bool {
    (x.write || y.write) && x.addr < y.addr + y.len && y.addr < x.addr + x.len
}

/// The bounds `[start, end)` of the log entries one `unseq` operand
/// recorded.
type Range = (usize, usize);

fn conflicts(a: &[Access], b: &[Access]) -> bool {
    a.iter().any(|x| b.iter().any(|y| access_conflict(x, y)))
}

fn negative_conflicts(a: &[Access], b: &[Access]) -> bool {
    a.iter()
        .filter(|x| x.negative)
        .any(|x| b.iter().any(|y| access_conflict(x, y)))
}

/// The interpreter state for one execution, generic over the memory object
/// model it issues its actions against (§5.9).
pub struct Interp<'a, M: MemoryModel> {
    program: &'a CoreProgram,
    /// The memory object model state.
    pub mem: M,
    /// The static objects' pointers, indexed by [`Slot::Static`]: globals,
    /// then string literals.
    statics: Vec<Value>,
    /// Bytes written by `printf` during this execution.
    pub stdout: Vec<u8>,
    oracle: &'a mut dyn ChoiceOracle,
    steps: u64,
    limits: ResourceLimits,
    /// Wall-clock deadline derived from [`ResourceLimits::wall_clock_ms`]
    /// at construction, checked periodically by [`Interp::tick`].
    deadline: Option<std::time::Instant>,
    call_depth: usize,
    /// The accesses made while at least one footprint collector (a `wseq`
    /// or `unseq` being evaluated) is open; each collector owns the entries
    /// from the log length at which it opened.
    access_log: Vec<Access>,
    /// How many footprint collectors are open.
    open_collectors: usize,
    /// The operand indices every `unseq` being evaluated has yet to run, in
    /// ascending order, one segment per `unseq` stacked above its callers'.
    unseq_remaining: Vec<usize>,
    /// The log range each operand of every `unseq` being evaluated
    /// recorded, one segment per `unseq` indexed by operand.
    unseq_ranges: Vec<Range>,
}

impl<'a, M: MemoryModel> Interp<'a, M> {
    /// Build an interpreter for one execution of `program` against `mem`,
    /// bounded by `limits`.
    pub fn new(
        program: &'a CoreProgram,
        mem: M,
        oracle: &'a mut dyn ChoiceOracle,
        limits: ResourceLimits,
    ) -> Self {
        let deadline = limits
            .wall_clock_ms
            .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
        Interp {
            program,
            mem,
            statics: Vec::new(),
            stdout: Vec::new(),
            oracle,
            steps: 0,
            limits,
            deadline,
            call_depth: 0,
            access_log: Vec::new(),
            open_collectors: 0,
            unseq_remaining: Vec::new(),
            unseq_ranges: Vec::new(),
        }
    }

    /// Create the static-storage objects (globals, string literals), register
    /// the program's functions, and run the global initialisers in
    /// declaration order.
    pub fn setup(&mut self) -> Result<(), Stop> {
        let program = self.program;
        let mut literals = Vec::with_capacity(program.string_literals.len());
        for (_, bytes) in &program.string_literals {
            let ptr = self.mem.create_string_literal(bytes).map_err(Stop::from)?;
            literals.push(Value::Pointer(ptr));
        }
        for proc_name in program.procs.keys() {
            self.mem.register_function(&Ident::new(proc_name.clone()));
        }
        self.statics = Vec::with_capacity(program.globals.len() + literals.len());
        for global in &program.globals {
            let ptr = self
                .mem
                .create(&global.ty, AllocKind::Static, Some(global.name.as_str()))
                .map_err(Stop::from)?;
            self.statics.push(Value::Pointer(ptr));
        }
        self.statics.append(&mut literals);
        for global in &program.globals {
            let mut frame = new_frame(global.frame_size);
            match self.eval_expr(&mut frame, &global.init)? {
                Flow::Value(_) => {}
                Flow::Jump(l) => {
                    return Err(Stop::Error(format!("jump to {l} in a global initialiser")))
                }
                Flow::Return(_) => {
                    return Err(Stop::Error("return in a global initialiser".into()))
                }
            }
        }
        Ok(())
    }

    /// Call a named C function with already-loaded argument values and return
    /// its result value.
    pub fn call_named(&mut self, name: &str, args: Vec<Value>) -> Result<Value, Stop> {
        if let Some(result) = builtins::call_builtin(self, name, &args) {
            return result;
        }
        let proc = self.proc(name)?;
        self.call_proc(proc, args)
    }

    /// The procedure `name` names, borrowed from the program.
    fn proc(&self, name: &str) -> Result<&'a CoreProc, Stop> {
        self.program
            .proc(name)
            .ok_or_else(|| Stop::Error(format!("call to undefined function {name}")))
    }

    /// Run a procedure's body with one parameter object per argument.
    fn call_proc(&mut self, proc: &'a CoreProc, args: Vec<Value>) -> Result<Value, Stop> {
        if self.call_depth > self.limits.effective_call_depth() {
            return Err(Stop::Resource(ResourceKind::CallDepth));
        }
        self.call_depth += 1;
        let mut frame = new_frame(proc.frame_size);
        let mut param_ptrs = Vec::new();
        for (i, ((sym, ty), arg)) in proc.params.iter().zip(args).enumerate() {
            let ptr = self
                .mem
                .create(ty, AllocKind::Automatic, Some(sym.as_str()))
                .map_err(Stop::from)?;
            self.mem
                .store(ty, &ptr, &arg.to_mem(ty))
                .map_err(Stop::from)?;
            // Parameter `i` lives in slot `i`.
            if let Some(slot) = frame.get_mut(i) {
                *slot = Some(Value::Pointer(ptr.clone()));
            }
            param_ptrs.push(ptr);
        }
        let flow = self.eval_expr(&mut frame, &proc.body);
        for ptr in &param_ptrs {
            let _ = self.mem.kill(ptr, false);
        }
        self.call_depth -= 1;
        match flow? {
            Flow::Return(v) | Flow::Value(v) => Ok(v),
            Flow::Jump(l) => Err(Stop::Error(format!("jump to undefined label {l}"))),
        }
    }

    fn tick(&mut self) -> Result<(), Stop> {
        self.steps += 1;
        if self.steps > self.limits.steps {
            return Err(Stop::Limit(TimeoutKind::StepBudget));
        }
        // Consult the wall clock only every 4096 steps: `Instant::now` is
        // orders of magnitude more expensive than a step.
        if self.steps & 0xFFF == 0 {
            if let Some(deadline) = self.deadline {
                if std::time::Instant::now() >= deadline {
                    return Err(Stop::Limit(TimeoutKind::WallClock));
                }
            }
        }
        Ok(())
    }

    fn record_access(&mut self, addr: u64, len: u64, write: bool, negative: bool) {
        if self.open_collectors > 0 {
            self.access_log.push(Access {
                addr,
                len,
                write,
                negative,
            });
        }
    }

    /// Open a footprint collector; it owns the log entries from the
    /// returned index on.
    fn open_collector(&mut self) -> usize {
        self.open_collectors += 1;
        self.access_log.len()
    }

    /// Close the collector opened at log index `start`. Only the outermost
    /// collector's entries are dropped: an enclosing one still owns them.
    fn close_collector(&mut self, start: usize) {
        self.open_collectors -= 1;
        if self.open_collectors == 0 {
            self.access_log.truncate(start);
        }
    }

    fn lookup(&self, frame: &Frame, sym: &Sym) -> Result<Value, Stop> {
        let value = match sym.slot {
            Slot::Local(i) => frame.get(i as usize).and_then(Option::as_ref),
            Slot::Static(i) => self.statics.get(i as usize),
        };
        value
            .cloned()
            .ok_or_else(|| Stop::Error(format!("unbound Core symbol {sym}")))
    }

    // ----- pattern matching ---------------------------------------------------

    /// Whether `value` matches `pat`. Nothing is bound, so a failed match
    /// leaves the environment untouched.
    fn pattern_matches(pat: &Pattern, value: &Value) -> bool {
        match (pat, value) {
            (Pattern::Wildcard | Pattern::Sym(_), _) => true,
            (Pattern::Tuple(ps), Value::Tuple(vs)) if ps.len() == vs.len() => {
                ps.iter().zip(vs).all(|(p, v)| Self::pattern_matches(p, v))
            }
            (Pattern::Tuple(ps), v) if ps.len() == 1 => Self::pattern_matches(&ps[0], v),
            (Pattern::Specified(p), Value::Specified(inner)) => Self::pattern_matches(p, inner),
            _ => false,
        }
    }

    /// Bind the symbols of `pat` to the parts of `value`, which
    /// [`Self::pattern_matches`] has accepted. Only local slots are bound:
    /// the elaborator never binds a static one, and a slot outside the
    /// frame (which the validator rejects) stays unbound.
    fn bind_matched(frame: &mut Frame, pat: &Pattern, value: Value) {
        match (pat, value) {
            (Pattern::Sym(sym), v) => {
                if let Slot::Local(i) = sym.slot {
                    if let Some(slot) = frame.get_mut(i as usize) {
                        *slot = Some(v);
                    }
                }
            }
            (Pattern::Tuple(ps), Value::Tuple(vs)) if ps.len() == vs.len() => {
                for (p, v) in ps.iter().zip(vs) {
                    Self::bind_matched(frame, p, v);
                }
            }
            (Pattern::Tuple(ps), v) if ps.len() == 1 => Self::bind_matched(frame, &ps[0], v),
            (Pattern::Specified(p), Value::Specified(inner)) => {
                Self::bind_matched(frame, p, Rc::unwrap_or_clone(inner))
            }
            _ => {}
        }
    }

    fn bind(frame: &mut Frame, pat: &Pattern, value: Value) -> Result<(), Stop> {
        if !Self::pattern_matches(pat, &value) {
            return Err(Stop::Error(format!(
                "pattern match failure binding {value}"
            )));
        }
        Self::bind_matched(frame, pat, value);
        Ok(())
    }

    // ----- pure expressions ----------------------------------------------------

    fn eval_binop(&self, op: Binop, a: Value, b: Value) -> Result<Value, Stop> {
        use Binop::*;
        // Pointer comparisons against integers (null tests generated by the
        // elaboration of scalar conditions) compare addresses.
        let as_num = |v: &Value| -> Option<i128> {
            match v {
                Value::Integer(iv) => Some(iv.value),
                Value::Pointer(p) => Some(p.addr as i128),
                Value::Bool(b) => Some(i128::from(*b)),
                Value::Specified(inner) => match &**inner {
                    Value::Integer(iv) => Some(iv.value),
                    Value::Pointer(p) => Some(p.addr as i128),
                    _ => None,
                },
                _ => None,
            }
        };
        match op {
            Eq | Ne | Lt | Le | Gt | Ge => {
                let (Some(x), Some(y)) = (as_num(&a), as_num(&b)) else {
                    return Err(Stop::Error(format!(
                        "comparison on non-scalar operands {a} and {b}"
                    )));
                };
                let r = match op {
                    Eq => x == y,
                    Ne => x != y,
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    _ => x >= y,
                };
                Ok(Value::Bool(r))
            }
            _ => {
                let (Some(ia), Some(ib)) = (a.as_integer_value(), b.as_integer_value()) else {
                    return Err(Stop::Error(format!(
                        "arithmetic on non-integer operands {a} and {b}"
                    )));
                };
                let (x, y) = (ia.value, ib.value);
                let value = match op {
                    Add => x.wrapping_add(y),
                    Sub => x.wrapping_sub(y),
                    Mul => x.wrapping_mul(y),
                    Div => {
                        if y == 0 {
                            return Err(Stop::Undef {
                                ub: UbKind::DivisionByZero,
                                detail: "division by zero".into(),
                            });
                        }
                        x.wrapping_div(y)
                    }
                    RemT => {
                        if y == 0 {
                            return Err(Stop::Undef {
                                ub: UbKind::DivisionByZero,
                                detail: "remainder by zero".into(),
                            });
                        }
                        x.wrapping_rem(y)
                    }
                    Exp => {
                        let exp = y.clamp(0, 126) as u32;
                        x.wrapping_pow(exp)
                    }
                    BitAnd => x & y,
                    BitOr => x | y,
                    BitXor => x ^ y,
                    _ => unreachable!("handled above"),
                };
                // "Most arithmetic involving one provenanced value and one
                // pure value preserves the provenance" (§5.9).
                Ok(Value::Integer(IntegerValue::with_prov(
                    value,
                    ia.prov.combine(ib.prov),
                )))
            }
        }
    }

    fn eval_builtin(&mut self, f: BuiltinFn, args: &[Value]) -> Result<Value, Stop> {
        let ctype_arg = |i: usize| -> Result<&Ctype, Stop> {
            match args.get(i) {
                Some(Value::Ctype(ty)) => Ok(ty),
                other => Err(Stop::Error(format!(
                    "builtin expected a ctype argument, got {other:?}"
                ))),
            }
        };
        let int_arg = |i: usize| -> Result<IntegerValue, Stop> {
            args.get(i)
                .and_then(Value::as_integer_value)
                .ok_or_else(|| Stop::Error("builtin expected an integer argument".into()))
        };
        let env = self.mem.env().clone();
        match f {
            BuiltinFn::ConvInt => {
                let ty = ctype_arg(0)?;
                let iv = int_arg(1)?;
                let it = ty
                    .as_integer()
                    .ok_or_else(|| Stop::Error("conv_int to non-integer".into()))?;
                Ok(Value::Integer(IntegerValue::with_prov(
                    env.convert_int(iv.value, it),
                    iv.prov,
                )))
            }
            BuiltinFn::IsRepresentable => {
                let ty = ctype_arg(0)?;
                let iv = int_arg(1)?;
                let it = ty
                    .as_integer()
                    .ok_or_else(|| Stop::Error("is_representable on non-integer".into()))?;
                Ok(Value::Bool(env.representable(iv.value, it)))
            }
            BuiltinFn::CtypeWidth => {
                let ty = ctype_arg(0)?;
                let it = ty
                    .as_integer()
                    .ok_or_else(|| Stop::Error("ctype_width of non-integer".into()))?;
                Ok(Value::Integer(IntegerValue::pure(i128::from(
                    env.integer_width(it),
                ))))
            }
            BuiltinFn::AlignOf => {
                let ty = ctype_arg(0)?;
                Ok(Value::Integer(IntegerValue::pure(i128::from(
                    self.mem.align_of(ty)?,
                ))))
            }
        }
    }

    /// Evaluate a pure expression.
    pub fn eval_pexpr(&mut self, frame: &mut Frame, pe: &'a PExpr) -> Result<Value, Stop> {
        match pe {
            PExpr::Sym(sym) => self.lookup(frame, sym),
            PExpr::Unit => Ok(Value::Unit),
            PExpr::Integer(v) => Ok(Value::Integer(IntegerValue::pure(*v))),
            PExpr::CtypeConst(ty) => Ok(Value::Ctype(ty.clone())),
            PExpr::FunctionPtr(name) => Ok(Value::Pointer(self.mem.register_function(name))),
            PExpr::Undef(ub) => Err(Stop::Undef {
                ub: *ub,
                detail: "explicit undef reached".into(),
            }),
            PExpr::Error(msg) => Err(Stop::Error(msg.clone())),
            PExpr::Specified(inner) => Ok(Value::specified(self.eval_pexpr(frame, inner)?)),
            PExpr::Unspecified(ty) => Ok(Value::Unspecified(ty.clone())),
            PExpr::Tuple(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval_pexpr(frame, item)?);
                }
                Ok(Value::Tuple(out))
            }
            PExpr::Binop(op, a, b) => {
                let va = self.eval_pexpr(frame, a)?;
                let vb = self.eval_pexpr(frame, b)?;
                self.eval_binop(*op, va, vb)
            }
            PExpr::If(c, t, f) => {
                let cond = self.eval_pexpr(frame, c)?;
                match cond.truthiness() {
                    Some(true) => self.eval_pexpr(frame, t),
                    Some(false) => self.eval_pexpr(frame, f),
                    None => Err(Stop::Error("non-scalar condition in pure if".into())),
                }
            }
            PExpr::Case(scrutinee, arms) => {
                let v = self.eval_pexpr(frame, scrutinee)?;
                for (pat, body) in arms {
                    if Self::pattern_matches(pat, &v) {
                        Self::bind_matched(frame, pat, v);
                        return self.eval_pexpr(frame, body);
                    }
                }
                Err(Stop::Error(format!("no case arm matches {v}")))
            }
            PExpr::Builtin(f, args) => {
                // Every builtin reads at most its first two arguments, so they
                // are evaluated into a stack array; any further argument is
                // evaluated (it may stop the execution) and dropped.
                let mut vs = [Value::Unit, Value::Unit];
                for (i, a) in args.iter().enumerate() {
                    let v = self.eval_pexpr(frame, a)?;
                    if let Some(slot) = vs.get_mut(i) {
                        *slot = v;
                    }
                }
                self.eval_builtin(*f, &vs[..args.len().min(vs.len())])
            }
            PExpr::ArrayShift {
                ptr,
                elem_ty,
                index,
            } => {
                let p = self
                    .eval_pexpr(frame, ptr)?
                    .as_pointer()
                    .ok_or_else(|| Stop::Error("array_shift on a non-pointer".into()))?;
                let i = self
                    .eval_pexpr(frame, index)?
                    .as_int()
                    .ok_or_else(|| Stop::Error("array_shift with a non-integer index".into()))?;
                Ok(Value::Pointer(self.mem.array_shift(&p, elem_ty, i)?))
            }
            PExpr::MemberShift { ptr, tag, member } => {
                let p = self
                    .eval_pexpr(frame, ptr)?
                    .as_pointer()
                    .ok_or_else(|| Stop::Error("member_shift on a non-pointer".into()))?;
                Ok(Value::Pointer(self.mem.member_shift(&p, *tag, member)?))
            }
        }
    }

    // ----- memory operations -----------------------------------------------------

    fn pointer_operand(&mut self, v: &Value) -> Result<PointerValue, Stop> {
        if let Some(p) = v.as_pointer() {
            return Ok(p);
        }
        if let Some(iv) = v.as_integer_value() {
            if iv.value == 0 {
                return Ok(PointerValue::null());
            }
            return Ok(self.mem.ptr_from_int(&iv));
        }
        Err(Stop::Error(format!("expected a pointer operand, got {v}")))
    }

    fn eval_memop(&mut self, frame: &mut Frame, op: PtrOp, args: &'a [PExpr]) -> EResult<'a> {
        let mut values = Vec::with_capacity(args.len());
        for a in args {
            values.push(self.eval_pexpr(frame, a)?);
        }
        let specified_int = |v: i128| Flow::Value(Value::specified_int(v));
        match op {
            PtrOp::Eq | PtrOp::Ne => {
                let a = self.pointer_operand(&values[0])?;
                let b = self.pointer_operand(&values[1])?;
                let eq = self.mem.ptr_eq(&a, &b)?;
                let result = if op == PtrOp::Eq { eq } else { !eq };
                Ok(specified_int(i128::from(result)))
            }
            PtrOp::Lt | PtrOp::Gt | PtrOp::Le | PtrOp::Ge => {
                let a = self.pointer_operand(&values[0])?;
                let b = self.pointer_operand(&values[1])?;
                let ord = self.mem.ptr_rel(&a, &b)?;
                let result = match op {
                    PtrOp::Lt => ord == std::cmp::Ordering::Less,
                    PtrOp::Gt => ord == std::cmp::Ordering::Greater,
                    PtrOp::Le => ord != std::cmp::Ordering::Greater,
                    _ => ord != std::cmp::Ordering::Less,
                };
                Ok(specified_int(i128::from(result)))
            }
            PtrOp::Diff => {
                let a = self.pointer_operand(&values[0])?;
                let b = self.pointer_operand(&values[1])?;
                let elem_ty = match &values[2] {
                    Value::Ctype(ty) => ty.clone(),
                    _ => Ctype::integer(IntegerType::Char),
                };
                let size = self.mem.size_of(&elem_ty)?;
                let diff = self.mem.ptr_diff(&a, &b, size)?;
                Ok(Flow::Value(Value::specified(Value::Integer(diff))))
            }
            PtrOp::IntFromPtr => {
                let p = self.pointer_operand(&values[0])?;
                let target = match &values[1] {
                    Value::Ctype(ty) => ty.clone(),
                    _ => Ctype::integer(IntegerType::UintptrT),
                };
                let iv = self.mem.int_from_ptr(&p);
                let it = target.as_integer().unwrap_or(IntegerType::UintptrT);
                let converted = self.mem.env().convert_int(iv.value, it);
                Ok(Flow::Value(Value::specified(Value::Integer(
                    IntegerValue::with_prov(converted, iv.prov),
                ))))
            }
            PtrOp::PtrFromInt => {
                let iv = values[0]
                    .as_integer_value()
                    .ok_or_else(|| Stop::Error("ptrFromInt of a non-integer".into()))?;
                let p = self.mem.ptr_from_int(&iv);
                Ok(Flow::Value(Value::specified(Value::Pointer(p))))
            }
        }
    }

    /// The C type a memory action's type operand denotes: borrowed from the
    /// program when the operand is a constant, as the elaborator emits it.
    fn ctype_operand(
        &mut self,
        frame: &mut Frame,
        operand: &'a PExpr,
        what: &str,
    ) -> Result<Cow<'a, Ctype>, Stop> {
        if let PExpr::CtypeConst(ty) = operand {
            return Ok(Cow::Borrowed(ty));
        }
        match self.eval_pexpr(frame, operand)? {
            Value::Ctype(ty) => Ok(Cow::Owned(ty)),
            other => Err(Stop::Error(format!("{what} a non-type {other}"))),
        }
    }

    fn eval_action(
        &mut self,
        frame: &mut Frame,
        action: &'a MemAction,
        negative: bool,
    ) -> EResult<'a> {
        match action {
            MemAction::Create { ty, .. } => {
                let ty = self.ctype_operand(frame, ty, "create of")?;
                let ptr = self.mem.create(&ty, AllocKind::Automatic, None)?;
                Ok(Flow::Value(Value::Pointer(ptr)))
            }
            MemAction::Kill(ptr) => {
                let p = self.eval_pexpr(frame, ptr)?;
                if let Some(p) = p.as_pointer() {
                    // End-of-block kills are lenient: an object whose lifetime
                    // already ended (e.g. after a jump) is left alone.
                    let _ = self.mem.kill(&p, false);
                }
                Ok(Flow::Value(Value::Unit))
            }
            MemAction::Store { ty, ptr, value } => {
                let ty = self.ctype_operand(frame, ty, "store at")?;
                let p = self.eval_pexpr(frame, ptr)?;
                let p = self.pointer_operand(&p)?;
                let v = self.eval_pexpr(frame, value)?;
                let len = self.mem.size_of(&ty)?;
                self.mem.store(&ty, &p, &v.to_mem(&ty))?;
                self.record_access(p.addr, len, true, negative);
                Ok(Flow::Value(Value::Unit))
            }
            MemAction::Load { ty, ptr } => {
                let ty = self.ctype_operand(frame, ty, "load at")?;
                let p = self.eval_pexpr(frame, ptr)?;
                let p = self.pointer_operand(&p)?;
                let len = self.mem.size_of(&ty)?;
                let mv = self.mem.load(&ty, &p)?;
                self.record_access(p.addr, len, false, negative);
                Ok(Flow::Value(Value::loaded_from_mem(mv)))
            }
        }
    }

    // ----- label search ------------------------------------------------------------

    fn contains_save(e: &Expr, label: &Ident) -> bool {
        match e {
            Expr::Save(l, body) => l == label || Self::contains_save(body, label),
            Expr::Exit(_, body) | Expr::Indet(body) => Self::contains_save(body, label),
            Expr::Let(_, _, body) => Self::contains_save(body, label),
            Expr::If(_, t, f) => Self::contains_save(t, label) || Self::contains_save(f, label),
            Expr::Case(_, arms) => arms.iter().any(|(_, b)| Self::contains_save(b, label)),
            Expr::Unseq(items) => items.iter().any(|i| Self::contains_save(i, label)),
            Expr::Wseq(_, a, b) | Expr::Sseq(_, a, b) => {
                Self::contains_save(a, label) || Self::contains_save(b, label)
            }
            _ => false,
        }
    }

    /// Evaluate `e` in "seeking" mode: skip everything until the `save` for
    /// `label` is reached, evaluate its body, then continue normally with the
    /// remainder of `e`. This realises forward `goto`s and `switch` dispatch.
    fn eval_seeking(&mut self, frame: &mut Frame, e: &'a Expr, label: &Ident) -> EResult<'a> {
        self.tick()?;
        match e {
            Expr::Save(l, body) => {
                if l == label {
                    self.eval_save(frame, l, body)
                } else if Self::contains_save(body, label) {
                    // Seek inside, then keep this save active for later jumps.
                    let flow = self.eval_seeking(frame, body, label)?;
                    match flow {
                        Flow::Jump(j) if j == l => self.eval_save(frame, l, body),
                        other => Ok(other),
                    }
                } else {
                    Err(Stop::Error(format!(
                        "label {label} not found while seeking"
                    )))
                }
            }
            Expr::Exit(l, body) => {
                let flow = self.eval_seeking(frame, body, label)?;
                match flow {
                    Flow::Jump(j) if j == l => Ok(Flow::Value(Value::Unit)),
                    other => Ok(other),
                }
            }
            Expr::Sseq(pat, a, b) | Expr::Wseq(pat, a, b) => {
                if Self::contains_save(a, label) {
                    let flow = self.eval_seeking(frame, a, label)?;
                    match flow {
                        Flow::Value(v) => {
                            Self::bind(frame, pat, v)?;
                            self.eval_expr(frame, b)
                        }
                        Flow::Jump(l) => {
                            if Self::contains_save(b, l) {
                                self.eval_seeking(frame, b, l)
                            } else {
                                Ok(Flow::Jump(l))
                            }
                        }
                        other => Ok(other),
                    }
                } else {
                    self.eval_seeking(frame, b, label)
                }
            }
            Expr::Let(_, _, body) | Expr::Indet(body) => self.eval_seeking(frame, body, label),
            Expr::If(_, t, f) => {
                if Self::contains_save(t, label) {
                    self.eval_seeking(frame, t, label)
                } else {
                    self.eval_seeking(frame, f, label)
                }
            }
            Expr::Case(_, arms) => {
                for (_, body) in arms {
                    if Self::contains_save(body, label) {
                        return self.eval_seeking(frame, body, label);
                    }
                }
                Err(Stop::Error(format!("label {label} not found in case arms")))
            }
            Expr::Unseq(items) => {
                for item in items {
                    if Self::contains_save(item, label) {
                        return self.eval_seeking(frame, item, label);
                    }
                }
                Err(Stop::Error(format!(
                    "label {label} not found while seeking"
                )))
            }
            _ => Err(Stop::Error(format!(
                "label {label} not found while seeking"
            ))),
        }
    }

    fn eval_save(&mut self, frame: &mut Frame, label: &Ident, body: &'a Expr) -> EResult<'a> {
        loop {
            self.tick()?;
            match self.eval_expr(frame, body)? {
                Flow::Jump(l) if l == label => continue,
                other => return Ok(other),
            }
        }
    }

    // ----- effectful expressions ------------------------------------------------------

    /// Evaluate an effectful Core expression.
    pub fn eval_expr(&mut self, frame: &mut Frame, e: &'a Expr) -> EResult<'a> {
        self.tick()?;
        match e {
            Expr::Pure(pe) => Ok(Flow::Value(self.eval_pexpr(frame, pe)?)),
            Expr::Memop(op, args) => self.eval_memop(frame, *op, args),
            Expr::Action(polarity, action) => self.eval_action(
                frame,
                action,
                *polarity == cerberus_core::syntax::Polarity::Negative,
            ),
            Expr::Case(scrutinee, arms) => {
                let v = self.eval_pexpr(frame, scrutinee)?;
                for (pat, body) in arms {
                    if Self::pattern_matches(pat, &v) {
                        Self::bind_matched(frame, pat, v);
                        return self.eval_expr(frame, body);
                    }
                }
                Err(Stop::Error(format!("no case arm matches {v}")))
            }
            Expr::Let(pat, value, body) => {
                let v = self.eval_pexpr(frame, value)?;
                Self::bind(frame, pat, v)?;
                self.eval_expr(frame, body)
            }
            Expr::If(c, t, f) => {
                let cond = self.eval_pexpr(frame, c)?;
                match cond.truthiness() {
                    Some(true) => self.eval_expr(frame, t),
                    Some(false) => self.eval_expr(frame, f),
                    None => Err(Stop::Error("non-scalar condition in if".into())),
                }
            }
            Expr::Skip => Ok(Flow::Value(Value::Unit)),
            Expr::Ccall(f, args) => {
                let fv = self.eval_pexpr(frame, f)?;
                let name = match fv.as_pointer() {
                    Some(p) => match p.function {
                        Some(name) => name,
                        None => match self.mem.function_at(p.addr).cloned() {
                            Some(name) => name,
                            None => {
                                return Err(Stop::Undef {
                                    ub: UbKind::IncompatibleFunctionCall,
                                    detail: "call through a pointer that is not a function".into(),
                                })
                            }
                        },
                    },
                    None => return Err(Stop::Error(format!("call of a non-function value {fv}"))),
                };
                let mut arg_values = Vec::with_capacity(args.len());
                for a in args {
                    arg_values.push(self.eval_pexpr(frame, a)?);
                }
                if let Some(result) = builtins::call_builtin(self, name.as_str(), &arg_values) {
                    return Ok(Flow::Value(result?));
                }
                let proc = self.proc(name.as_str())?;
                if !proc.accepts_arity(arg_values.len()) {
                    // Only a call through a converted function pointer gets
                    // here: the front end rejects direct calls of the wrong
                    // arity (6.5.2.2p9, 6.3.2.3p8).
                    return Err(Stop::Undef {
                        ub: UbKind::IncompatibleFunctionCall,
                        detail: format!(
                            "call of {name}, which takes {} arguments, with {}",
                            proc.params.len(),
                            arg_values.len()
                        ),
                    });
                }
                Ok(Flow::Value(self.call_proc(proc, arg_values)?))
            }
            Expr::Unseq(items) => self.eval_unseq(frame, items),
            Expr::Wseq(pat, a, b) => {
                // Weak sequencing orders only the *positive* actions of the
                // first expression before the second, so a negative action of
                // the first (e.g. a postfix increment's store) that conflicts
                // with an access of the second is an unsequenced race (6.5p2).
                // One collector spans both parts: the first part's accesses
                // are the log entries `start..mid`, the second's `mid..`.
                let start = self.open_collector();
                let v = match self.eval_expr(frame, a) {
                    Ok(Flow::Value(v)) => v,
                    first => {
                        self.close_collector(start);
                        return match first? {
                            Flow::Jump(l) if Self::contains_save(b, l) => {
                                self.eval_seeking(frame, b, l)
                            }
                            other => Ok(other),
                        };
                    }
                };
                let mid = self.access_log.len();
                let second = Self::bind(frame, pat, v).and_then(|()| self.eval_expr(frame, b));
                let race = second.is_ok()
                    && negative_conflicts(&self.access_log[start..mid], &self.access_log[mid..]);
                self.close_collector(start);
                let flow = second?;
                if race {
                    return Err(Stop::Undef {
                        ub: UbKind::UnsequencedRace,
                        detail: "a side-effect store is unsequenced with a conflicting access"
                            .into(),
                    });
                }
                match flow {
                    Flow::Jump(l) if Self::contains_save(a, l) => self.eval_seeking(frame, a, l),
                    other => Ok(other),
                }
            }
            Expr::Sseq(pat, a, b) => {
                match self.eval_expr(frame, a)? {
                    Flow::Value(v) => {
                        Self::bind(frame, pat, v)?;
                        match self.eval_expr(frame, b)? {
                            Flow::Jump(l) if Self::contains_save(a, l) => {
                                // A backward jump to a label in the already
                                // evaluated part of the sequence: re-enter it
                                // seeking the label.
                                self.eval_seeking(frame, a, l)
                            }
                            other => Ok(other),
                        }
                    }
                    Flow::Jump(l) => {
                        if Self::contains_save(b, l) {
                            self.eval_seeking(frame, b, l)
                        } else {
                            Ok(Flow::Jump(l))
                        }
                    }
                    Flow::Return(v) => Ok(Flow::Return(v)),
                }
            }
            Expr::Indet(body) => {
                // The body (a called function's execution) is indeterminately
                // sequenced with respect to the surrounding expression, not
                // unsequenced: its accesses do not form unsequenced races with
                // the siblings, so every open collector is closed for the body.
                let open = std::mem::take(&mut self.open_collectors);
                let start = self.access_log.len();
                let result = self.eval_expr(frame, body);
                self.access_log.truncate(start);
                self.open_collectors = open;
                result
            }
            Expr::Save(label, body) => self.eval_save(frame, label, body),
            Expr::Exit(label, body) => match self.eval_expr(frame, body)? {
                Flow::Jump(l) if l == label => Ok(Flow::Value(Value::Unit)),
                other => Ok(other),
            },
            Expr::Run(label) => Ok(Flow::Jump(label)),
            Expr::Return(value) => {
                let v = self.eval_pexpr(frame, value)?;
                Ok(Flow::Return(v))
            }
        }
    }

    /// Evaluate the operands of an `unseq` in the order the oracle picks,
    /// then check them pairwise for conflicting accesses. Only the result
    /// tuple is allocated: the operands still to run and the log range each
    /// recorded live in segments of the interpreter's scratch stacks.
    fn eval_unseq(&mut self, frame: &mut Frame, items: &'a [Expr]) -> EResult<'a> {
        let n = items.len();
        if n == 0 {
            return Ok(Flow::Value(Value::Tuple(Vec::new())));
        }
        let start = self.open_collector();
        let remaining = self.unseq_remaining.len();
        self.unseq_remaining.extend(0..n);
        let ranges = self.unseq_ranges.len();
        self.unseq_ranges.resize(ranges + n, (start, start));
        let flow = self.eval_unseq_operands(frame, items, remaining, ranges);
        // Unsequenced race detection (6.5p2): conflicting accesses between
        // unsequenced siblings are undefined behaviour on every schedule.
        let race = matches!(flow, Ok(Flow::Value(_))) && {
            let log = &self.access_log;
            let operands = &self.unseq_ranges[ranges..];
            operands.iter().enumerate().any(|(i, &(s1, e1))| {
                operands[i + 1..]
                    .iter()
                    .any(|&(s2, e2)| conflicts(&log[s1..e1], &log[s2..e2]))
            })
        };
        self.unseq_remaining.truncate(remaining);
        self.unseq_ranges.truncate(ranges);
        self.close_collector(start);
        if race {
            return Err(Stop::Undef {
                ub: UbKind::UnsequencedRace,
                detail: "conflicting unsequenced accesses to the same object".into(),
            });
        }
        flow
    }

    /// Run every operand of an `unseq` whose bookkeeping starts at
    /// `remaining` and `ranges` on the scratch stacks. Choice `k` runs the
    /// `k`-th operand, in ascending order, of those still to run.
    fn eval_unseq_operands(
        &mut self,
        frame: &mut Frame,
        items: &'a [Expr],
        remaining: usize,
        ranges: usize,
    ) -> EResult<'a> {
        let mut results = vec![Value::Unit; items.len()];
        for left in (1..=items.len()).rev() {
            let k = if left == 1 {
                0
            } else {
                self.oracle.choose(left)
            };
            let idx = self.unseq_remaining.remove(remaining + k);
            let begin = self.access_log.len();
            let flow = self.eval_expr(frame, &items[idx]);
            self.unseq_ranges[ranges + idx] = (begin, self.access_log.len());
            match flow? {
                Flow::Value(v) => results[idx] = v,
                other => return Ok(other),
            }
        }
        Ok(Flow::Value(Value::Tuple(results)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{RandomOracle, ReplayOracle};
    use cerberus_ast::env::ImplEnv;
    use cerberus_ast::layout::TagRegistry;
    use cerberus_core::syntax::Polarity;
    use cerberus_memory::config::ModelConfig;
    use cerberus_memory::model::ConcreteEngine;
    use cerberus_memory::state::MemState;

    fn concrete() -> ConcreteEngine {
        MemState::new(ModelConfig::concrete(), ImplEnv::lp64(), TagRegistry::new())
    }

    fn int_ty() -> Ctype {
        Ctype::integer(IntegerType::Int)
    }

    fn specified(p: Pattern) -> Pattern {
        Pattern::Specified(Box::new(p))
    }

    fn bind(pat: &Pattern, value: Value, size: u32) -> Result<Vec<Option<Value>>, Stop> {
        let mut frame = new_frame(size);
        Interp::<ConcreteEngine>::bind(&mut frame, pat, value)?;
        Ok(frame)
    }

    /// Whether the interpreter holds no footprint state: every collector
    /// closed, the log and the `unseq` scratch stacks empty.
    fn footprint_state_is_clear(interp: &Interp<'_, ConcreteEngine>) -> bool {
        interp.open_collectors == 0
            && interp.access_log.is_empty()
            && interp.unseq_remaining.is_empty()
            && interp.unseq_ranges.is_empty()
    }

    // ----- hand-built Core over one `int` object `p` in local slot 0 -----------

    fn p() -> PExpr {
        PExpr::local("p", 0)
    }

    fn store(polarity: Polarity, value: i128) -> Expr {
        Expr::Action(
            polarity,
            MemAction::Store {
                ty: Box::new(PExpr::CtypeConst(int_ty())),
                ptr: Box::new(p()),
                value: Box::new(PExpr::specified_int(value)),
            },
        )
    }

    fn load() -> Expr {
        Expr::Action(
            Polarity::Positive,
            MemAction::Load {
                ty: Box::new(PExpr::CtypeConst(int_ty())),
                ptr: Box::new(p()),
            },
        )
    }

    fn create() -> Expr {
        Expr::Action(
            Polarity::Positive,
            MemAction::Create {
                align: Box::new(PExpr::Integer(4)),
                ty: Box::new(PExpr::CtypeConst(int_ty())),
            },
        )
    }

    /// `body` run after binding `p` to a fresh, initialised `int` object.
    fn with_object(body: Expr) -> Expr {
        Expr::Sseq(
            Pattern::local("p", 0),
            Box::new(create()),
            Box::new(Expr::seq(store(Polarity::Positive, 0), body)),
        )
    }

    /// Run `e` in a one-slot frame, choosing by `oracle`; return the result
    /// and whether the footprint state was clear afterwards.
    fn run(e: &Expr, oracle: &mut dyn ChoiceOracle) -> (Result<Flow<'static>, Stop>, bool) {
        let program = CoreProgram::default();
        let mut interp = Interp::new(&program, concrete(), oracle, ResourceLimits::default());
        let mut frame = new_frame(1);
        let result = interp.eval_expr(&mut frame, e).map(|flow| match flow {
            Flow::Value(v) => Flow::Value(v),
            Flow::Return(v) => Flow::Return(v),
            Flow::Jump(_) => panic!("unexpected jump"),
        });
        (result, footprint_state_is_clear(&interp))
    }

    fn is_race(result: &Result<Flow<'_>, Stop>) -> bool {
        matches!(
            result,
            Err(Stop::Undef {
                ub: UbKind::UnsequencedRace,
                ..
            })
        )
    }

    #[test]
    fn nested_patterns_bind_each_symbol_to_its_part() {
        let pat = Pattern::Tuple(vec![
            specified(Pattern::local("a", 0)),
            Pattern::Tuple(vec![Pattern::local("b", 1), Pattern::Wildcard]),
            specified(Pattern::local("t", 2)),
            Pattern::Tuple(vec![Pattern::local("c", 3)]),
            Pattern::local("d", 4),
        ]);
        let value = Value::Tuple(vec![
            Value::specified_int(1),
            Value::Tuple(vec![Value::Bool(true), Value::Unit]),
            Value::specified(Value::Pointer(PointerValue::null())),
            Value::specified_int(3),
            Value::Tuple(vec![Value::Unit]),
        ]);
        let frame = bind(&pat, value, 6).unwrap();
        let expected = vec![
            Some(Value::Integer(IntegerValue::pure(1))),
            Some(Value::Bool(true)),
            Some(Value::Pointer(PointerValue::null())),
            Some(Value::specified_int(3)),
            Some(Value::Tuple(vec![Value::Unit])),
            None,
        ];
        assert_eq!(frame, expected);
    }

    #[test]
    fn a_failed_match_binds_nothing_and_names_the_value() {
        // The first component matches, the second does not.
        let pat = Pattern::Tuple(vec![
            Pattern::local("x", 0),
            specified(Pattern::local("y", 1)),
        ]);
        let value = Value::Tuple(vec![Value::Unit, Value::Unspecified(int_ty())]);
        assert_eq!(
            bind(&pat, value, 2),
            Err(Stop::Error(
                "pattern match failure binding (Unit, Unspecified('int'))".into()
            ))
        );
        assert_eq!(
            bind(&specified(Pattern::local("z", 0)), Value::Unit, 1),
            Err(Stop::Error("pattern match failure binding Unit".into()))
        );
    }

    #[test]
    fn a_case_arm_that_does_not_match_leaves_the_environment_untouched() {
        let arm = |pat: Pattern, result: i128| (pat, PExpr::Integer(result));
        let case = PExpr::Case(
            Box::new(PExpr::Tuple(vec![
                PExpr::Integer(1),
                PExpr::Unspecified(int_ty()),
            ])),
            vec![
                arm(
                    Pattern::Tuple(vec![
                        Pattern::local("x", 0),
                        specified(Pattern::local("y", 1)),
                    ]),
                    6,
                ),
                arm(
                    Pattern::Tuple(vec![Pattern::Wildcard, Pattern::local("z", 2)]),
                    7,
                ),
            ],
        );
        let program = CoreProgram::default();
        let mut oracle = RandomOracle::new(0);
        let mut interp = Interp::new(&program, concrete(), &mut oracle, ResourceLimits::default());
        let mut frame = vec![Some(Value::Bool(false)), None, None];
        let result = interp.eval_pexpr(&mut frame, &case).unwrap();
        assert_eq!(result, Value::Integer(IntegerValue::pure(7)));
        let expected = vec![
            Some(Value::Bool(false)),
            None,
            Some(Value::Unspecified(int_ty())),
        ];
        assert_eq!(frame, expected);
    }

    #[test]
    fn reading_an_unbound_slot_names_the_symbol() {
        let uses = [
            Sym::new("x.1", Slot::Local(0)),
            Sym::new("beyond", Slot::Local(5)),
            Sym::new("g", Slot::Static(0)),
        ]
        .map(PExpr::Sym);
        let program = CoreProgram::default();
        let mut oracle = RandomOracle::new(0);
        let mut interp = Interp::new(&program, concrete(), &mut oracle, ResourceLimits::default());
        let mut frame = new_frame(1);
        for (use_, name) in uses.iter().zip(["x.1", "beyond", "g"]) {
            assert_eq!(
                interp.eval_pexpr(&mut frame, use_),
                Err(Stop::Error(format!("unbound Core symbol {name}")))
            );
        }
    }

    #[test]
    fn a_negative_store_races_with_an_access_two_unseqs_deep_in_the_second_part() {
        // wseq(neg(store p), unseq(unit, unseq(unit, load p)))
        let nested = Expr::Unseq(vec![
            Expr::Pure(PExpr::Unit),
            Expr::Unseq(vec![Expr::Pure(PExpr::Unit), load()]),
        ]);
        let e = with_object(Expr::Wseq(
            Pattern::Wildcard,
            Box::new(store(Polarity::Negative, 1)),
            Box::new(nested.clone()),
        ));
        let (result, clear) = run(&e, &mut RandomOracle::new(3));
        assert!(is_race(&result), "{result:?}");
        assert!(clear);

        // A positive store is ordered before the second part.
        let e = with_object(Expr::Wseq(
            Pattern::Wildcard,
            Box::new(store(Polarity::Positive, 1)),
            Box::new(nested),
        ));
        let (result, clear) = run(&e, &mut RandomOracle::new(3));
        assert!(result.is_ok(), "{result:?}");
        assert!(clear);
    }

    #[test]
    fn accesses_inside_indet_do_not_race_with_its_siblings() {
        let unseq =
            |second: Expr| with_object(Expr::Unseq(vec![store(Polarity::Positive, 1), second]));
        let (result, clear) = run(&unseq(load()), &mut RandomOracle::new(0));
        assert!(is_race(&result), "{result:?}");
        assert!(clear);
        let (result, clear) = run(
            &unseq(Expr::Indet(Box::new(load()))),
            &mut RandomOracle::new(0),
        );
        assert!(result.is_ok(), "{result:?}");
        assert!(clear);
    }

    #[test]
    fn leaving_an_unseq_or_wseq_by_jump_or_return_closes_every_collector() {
        let label = Ident::new("out");
        for first in [0, 1] {
            // exit out in wseq(load p, unseq(load p, run out))
            let by_jump = with_object(Expr::Exit(
                label.clone(),
                Box::new(Expr::Wseq(
                    Pattern::Wildcard,
                    Box::new(load()),
                    Box::new(Expr::Unseq(vec![load(), Expr::Run(label.clone())])),
                )),
            ));
            let (result, clear) = run(&by_jump, &mut ReplayOracle::new(vec![first]));
            assert_eq!(result, Ok(Flow::Value(Value::Unit)));
            assert!(clear, "choice {first}");

            // wseq(unseq(load p, return 3), load p)
            let by_return = with_object(Expr::Wseq(
                Pattern::Wildcard,
                Box::new(Expr::Unseq(vec![
                    load(),
                    Expr::Return(Box::new(PExpr::specified_int(3))),
                ])),
                Box::new(load()),
            ));
            let (result, clear) = run(&by_return, &mut ReplayOracle::new(vec![first]));
            assert_eq!(result, Ok(Flow::Return(Value::specified_int(3))));
            assert!(clear, "choice {first}");
        }
    }

    #[test]
    fn a_wide_unseq_runs_the_kth_remaining_operand_for_choice_k() {
        // Each operand creates an object, and object addresses grow with
        // creation order, so the result tuple records the run order.
        const OPERANDS: usize = 150;
        let e = Expr::Unseq((0..OPERANDS).map(|_| create()).collect());
        let prefix: Vec<usize> = (0..OPERANDS)
            .map(|i| (i * 37 + 11) % (OPERANDS - i))
            .collect();
        let (result, clear) = run(&e, &mut ReplayOracle::new(prefix.clone()));
        assert!(clear);
        let Ok(Flow::Value(Value::Tuple(pointers))) = result else {
            panic!("unexpected result {result:?}");
        };
        let addresses: Vec<u64> = pointers
            .iter()
            .map(|v| v.as_pointer().expect("a created object").addr)
            .collect();
        let mut run_order: Vec<usize> = (0..OPERANDS).collect();
        run_order.sort_by_key(|&i| addresses[i]);

        let mut remaining: Vec<usize> = (0..OPERANDS).collect();
        let expected: Vec<usize> = prefix
            .iter()
            .map(|&k| remaining.remove(k.min(remaining.len() - 1)))
            .collect();
        assert_eq!(run_order, expected);
    }
}
