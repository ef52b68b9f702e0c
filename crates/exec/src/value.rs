//! Runtime values of the Core operational semantics.

use std::rc::Rc;

use cerberus_ast::ctype::{Ctype, IntegerType};
use cerberus_memory::value::{IntegerValue, MemValue, PointerValue};

/// A runtime Core value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The unit value.
    Unit,
    /// A boolean.
    Bool(bool),
    /// An integer value (mathematical integer plus provenance).
    Integer(IntegerValue),
    /// A pointer value.
    Pointer(PointerValue),
    /// A C type as a value.
    Ctype(Ctype),
    /// A tuple of values (the result of `unseq`).
    Tuple(Vec<Value>),
    /// A composite object value (struct/union/array), kept in memory-value
    /// form.
    Object(MemValue),
    /// A loaded, specified value. Shared, so binding and looking it up
    /// copies no more than a reference count.
    Specified(Rc<Value>),
    /// A loaded, unspecified value of the recorded C type.
    Unspecified(Ctype),
}

impl Value {
    /// A specified value.
    pub fn specified(v: Value) -> Value {
        Value::Specified(Rc::new(v))
    }

    /// A specified integer.
    pub fn specified_int(v: i128) -> Value {
        Value::specified(Value::Integer(IntegerValue::pure(v)))
    }

    /// The integer inside (possibly wrapped in `Specified`), if any.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Value::Integer(iv) => Some(iv.value),
            Value::Specified(inner) => inner.as_int(),
            Value::Bool(b) => Some(i128::from(*b)),
            _ => None,
        }
    }

    /// The integer value (with provenance), unwrapping `Specified`.
    pub fn as_integer_value(&self) -> Option<IntegerValue> {
        match self {
            Value::Integer(iv) => Some(*iv),
            Value::Specified(inner) => inner.as_integer_value(),
            _ => None,
        }
    }

    /// The pointer value, unwrapping `Specified`.
    pub fn as_pointer(&self) -> Option<PointerValue> {
        match self {
            Value::Pointer(p) => Some(p.clone()),
            Value::Specified(inner) => inner.as_pointer(),
            _ => None,
        }
    }

    /// Whether the value is a loaded unspecified value.
    pub fn is_unspecified(&self) -> bool {
        matches!(self, Value::Unspecified(_))
    }

    /// The boolean interpretation of a scalar value (non-zero / non-null).
    pub fn truthiness(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Integer(iv) => Some(iv.value != 0),
            Value::Pointer(p) => Some(!p.is_null()),
            Value::Specified(inner) => inner.truthiness(),
            _ => None,
        }
    }

    /// Convert a memory value (the result of a load) into a *loaded* runtime
    /// value.
    pub fn loaded_from_mem(mv: MemValue) -> Value {
        match mv {
            MemValue::Unspecified(ty) => Value::Unspecified(ty),
            other => Value::specified(Value::from_mem(other)),
        }
    }

    /// Convert a memory value into a plain runtime value.
    pub fn from_mem(mv: MemValue) -> Value {
        match mv {
            MemValue::Unspecified(ty) => Value::Unspecified(ty),
            MemValue::Integer(_, iv) => Value::Integer(iv),
            MemValue::Pointer(_, pv) => Value::Pointer(pv),
            composite => Value::Object(composite),
        }
    }

    /// Convert a runtime value into a memory value for a store at C type
    /// `ty`.
    pub fn to_mem(&self, ty: &Ctype) -> MemValue {
        match self {
            Value::Specified(inner) => inner.to_mem(ty),
            Value::Unspecified(t) => MemValue::Unspecified(t.clone()),
            Value::Integer(iv) => match ty {
                Ctype::Integer(it) => MemValue::Integer(*it, *iv),
                Ctype::Pointer(_, pointee) => MemValue::Pointer(
                    (**pointee).clone(),
                    cerberus_memory::value::PointerValue::object(iv.prov, iv.value as u64),
                ),
                _ => MemValue::Integer(IntegerType::LongLong, *iv),
            },
            Value::Pointer(pv) => match ty {
                Ctype::Pointer(_, pointee) => MemValue::Pointer((**pointee).clone(), pv.clone()),
                Ctype::Integer(it) => {
                    MemValue::Integer(*it, IntegerValue::with_prov(pv.addr as i128, pv.prov))
                }
                _ => MemValue::Pointer(Ctype::Void, pv.clone()),
            },
            Value::Object(mv) => mv.clone(),
            Value::Bool(b) => MemValue::int(IntegerType::Bool, i128::from(*b)),
            Value::Unit | Value::Ctype(_) | Value::Tuple(_) => MemValue::Unspecified(ty.clone()),
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Unit => write!(f, "Unit"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Integer(iv) => write!(f, "{iv}"),
            Value::Pointer(p) => write!(f, "{p}"),
            Value::Ctype(ty) => write!(f, "'{ty}'"),
            Value::Tuple(items) => {
                write!(f, "(")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Value::Object(mv) => write!(f, "{mv}"),
            Value::Specified(inner) => write!(f, "Specified({inner})"),
            Value::Unspecified(ty) => write!(f, "Unspecified('{ty}')"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerberus_memory::value::Provenance;

    #[test]
    fn loaded_round_trips() {
        let mv = MemValue::int(IntegerType::Int, 42);
        let v = Value::loaded_from_mem(mv.clone());
        assert_eq!(v.as_int(), Some(42));
        assert_eq!(v.to_mem(&Ctype::integer(IntegerType::Int)), mv);
    }

    #[test]
    fn unspecified_is_preserved() {
        let ty = Ctype::integer(IntegerType::Int);
        let v = Value::loaded_from_mem(MemValue::Unspecified(ty.clone()));
        assert!(v.is_unspecified());
        assert_eq!(v.to_mem(&ty), MemValue::Unspecified(ty));
    }

    #[test]
    fn truthiness() {
        assert_eq!(Value::specified_int(0).truthiness(), Some(false));
        assert_eq!(Value::specified_int(3).truthiness(), Some(true));
        let null = Value::Pointer(PointerValue::null());
        assert_eq!(null.truthiness(), Some(false));
        assert_eq!(Value::Unit.truthiness(), None);
    }

    #[test]
    fn integer_stored_at_pointer_type_becomes_an_address() {
        let v = Value::Integer(IntegerValue::with_prov(0x1234, Provenance::Alloc(1)));
        let mv = v.to_mem(&Ctype::pointer(Ctype::integer(IntegerType::Int)));
        let p = mv.as_pointer().unwrap();
        assert_eq!(p.addr, 0x1234);
        assert_eq!(p.prov, Provenance::Alloc(1));
    }
}
