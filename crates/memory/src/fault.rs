//! Fault injection: an always-panicking [`MemoryModel`].
//!
//! The differential harness must survive a defective engine — a panic in one
//! row of the outcome matrix has to surface as a structured
//! `ExecResult::EngineFault` row, never abort the suite (the robustness
//! obligation of `docs/MEMORY_MODELS.md`, "Resource and fault obligations").
//! [`PanickingEngine`] is the drill for that machinery: a model whose
//! configuration and identity behave normally, but whose per-execution
//! [`MemoryModel::fresh`] unconditionally panics with [`FAULT_MESSAGE`].
//!
//! It is selected by [`EngineKind::Panicking`] via [`ModelConfig::panicking`]
//! and is deliberately *not* part of `ModelConfig::all_named()`: it only ever
//! enters a matrix when a test or a fault drill injects it explicitly.

use cerberus_ast::ctype::{Ctype, TagId};
use cerberus_ast::env::ImplEnv;
use cerberus_ast::ident::Ident;
use cerberus_ast::layout::TagRegistry;

#[allow(unused_imports)] // doc links
use crate::config::EngineKind;
use crate::config::ModelConfig;
use crate::limits::ResourceLimits;
use crate::model::{MemoryModel, ModelResult};
use crate::state::AllocKind;
use crate::value::{IntegerValue, MemValue, PointerValue};

/// The panic payload every injected fault carries, so tests can assert the
/// payload survived the unwind boundary intact.
pub const FAULT_MESSAGE: &str = "injected engine fault (panicking model)";

/// A [`MemoryModel`] whose per-execution [`MemoryModel::fresh`] always
/// panics. Construction and identity (name, environment, tags, limits) are
/// well behaved, so the model can be configured, named in a matrix, and
/// dispatched — the fault fires exactly when an execution starts.
#[derive(Debug, Clone)]
pub struct PanickingEngine {
    config: ModelConfig,
    env: ImplEnv,
    tags: TagRegistry,
    limits: ResourceLimits,
}

impl PanickingEngine {
    /// A configured (but not yet faulted) fault-injection engine.
    pub fn new(config: ModelConfig, env: ImplEnv, tags: TagRegistry) -> Self {
        PanickingEngine {
            config,
            env,
            tags,
            limits: ResourceLimits::default(),
        }
    }

    fn fault(&self) -> ! {
        panic!("{FAULT_MESSAGE}");
    }
}

impl MemoryModel for PanickingEngine {
    fn model_name(&self) -> &'static str {
        self.config.name
    }

    fn env(&self) -> &ImplEnv {
        &self.env
    }

    fn tags(&self) -> &TagRegistry {
        &self.tags
    }

    fn fresh(&self) -> Self {
        self.fault()
    }

    fn set_limits(&mut self, limits: ResourceLimits) {
        self.limits = limits;
    }

    fn limits(&self) -> &ResourceLimits {
        &self.limits
    }

    fn size_of(&self, _ty: &Ctype) -> ModelResult<u64> {
        self.fault()
    }

    fn align_of(&self, _ty: &Ctype) -> ModelResult<u64> {
        self.fault()
    }

    fn create(
        &mut self,
        _ty: &Ctype,
        _kind: AllocKind,
        _name: Option<&str>,
    ) -> ModelResult<PointerValue> {
        self.fault()
    }

    fn alloc(&mut self, _size: u64, _align: u64) -> ModelResult<PointerValue> {
        self.fault()
    }

    fn create_string_literal(&mut self, _bytes: &[u8]) -> ModelResult<PointerValue> {
        self.fault()
    }

    fn register_function(&mut self, _name: &Ident) -> PointerValue {
        self.fault()
    }

    fn function_at(&self, _addr: u64) -> Option<&Ident> {
        self.fault()
    }

    fn kill(&mut self, _ptr: &PointerValue, _dynamic: bool) -> ModelResult<()> {
        self.fault()
    }

    fn store(&mut self, _ty: &Ctype, _ptr: &PointerValue, _value: &MemValue) -> ModelResult<()> {
        self.fault()
    }

    fn load(&mut self, _ty: &Ctype, _ptr: &PointerValue) -> ModelResult<MemValue> {
        self.fault()
    }

    fn ptr_eq(&self, _a: &PointerValue, _b: &PointerValue) -> ModelResult<bool> {
        self.fault()
    }

    fn ptr_rel(&self, _a: &PointerValue, _b: &PointerValue) -> ModelResult<std::cmp::Ordering> {
        self.fault()
    }

    fn ptr_diff(
        &self,
        _a: &PointerValue,
        _b: &PointerValue,
        _elem_size: u64,
    ) -> ModelResult<IntegerValue> {
        self.fault()
    }

    fn int_from_ptr(&self, _p: &PointerValue) -> IntegerValue {
        self.fault()
    }

    fn ptr_from_int(&self, _iv: &IntegerValue) -> PointerValue {
        self.fault()
    }

    fn array_shift(
        &self,
        _ptr: &PointerValue,
        _elem_ty: &Ctype,
        _index: i128,
    ) -> ModelResult<PointerValue> {
        self.fault()
    }

    fn member_shift(
        &self,
        _ptr: &PointerValue,
        _tag: TagId,
        _member: &Ident,
    ) -> ModelResult<PointerValue> {
        self.fault()
    }

    fn copy_bytes(&mut self, _dst: &PointerValue, _src: &PointerValue, _n: u64) -> ModelResult<()> {
        self.fault()
    }

    fn compare_bytes(&self, _a: &PointerValue, _b: &PointerValue, _n: u64) -> ModelResult<i32> {
        self.fault()
    }

    fn set_bytes(&mut self, _dst: &PointerValue, _byte: u8, _n: u64) -> ModelResult<()> {
        self.fault()
    }

    fn read_c_string(&self, _ptr: &PointerValue) -> ModelResult<Vec<u8>> {
        self.fault()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_identity_do_not_fault() {
        let engine = ModelConfig::panicking().instantiate(ImplEnv::lp64(), TagRegistry::new());
        assert_eq!(engine.model_name(), "panicking");
    }

    #[test]
    fn fresh_panics_with_the_documented_payload() {
        let engine = PanickingEngine::new(
            ModelConfig::panicking(),
            ImplEnv::lp64(),
            TagRegistry::new(),
        );
        let panic = std::panic::catch_unwind(|| engine.fresh()).unwrap_err();
        let payload = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied());
        assert_eq!(payload, Some(FAULT_MESSAGE));
    }
}
