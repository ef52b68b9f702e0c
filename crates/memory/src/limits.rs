//! Resource budgets for one execution.
//!
//! The §6 validation runs hundreds of generated programs, and the roadmap's
//! UB-oracle service ingests arbitrary C: a pathological program must exhaust
//! a *budget* and surface as a structured outcome, never hang a worker or
//! abort a suite. [`ResourceLimits`] is that budget — steps, wall-clock time,
//! allocation totals, live-allocation count and call depth — carried by the
//! pipeline `Config`, the execution `Driver` and both memory engines, and
//! enforced cooperatively: the interpreter checks steps/time/call depth, the
//! engines check the allocation budgets at every `create`/`alloc`.
//!
//! Exhaustion is reported with a [`ResourceKind`] (which budget) or a
//! [`TimeoutKind`] (which clock), so downstream consumers — the differential
//! matrix, the litmus suite, the fuzz loop — can aggregate without string
//! matching.

/// Which allocation/recursion budget was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceKind {
    /// The cumulative allocated-bytes budget ([`ResourceLimits::heap_bytes`]).
    HeapBytes,
    /// The live-allocation-count budget
    /// ([`ResourceLimits::max_live_allocations`]).
    LiveAllocations,
    /// The call-depth budget ([`ResourceLimits::call_depth`]).
    CallDepth,
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResourceKind::HeapBytes => write!(f, "allocated-bytes budget"),
            ResourceKind::LiveAllocations => write!(f, "live-allocation budget"),
            ResourceKind::CallDepth => write!(f, "call-depth budget"),
        }
    }
}

/// Which clock bounded the execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimeoutKind {
    /// The step budget ([`ResourceLimits::steps`]) ran out — deterministic,
    /// the §6 notion of a timeout.
    StepBudget,
    /// The wall-clock watchdog ([`ResourceLimits::wall_clock_ms`]) fired.
    WallClock,
}

impl std::fmt::Display for TimeoutKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimeoutKind::StepBudget => write!(f, "step budget"),
            TimeoutKind::WallClock => write!(f, "wall clock"),
        }
    }
}

/// The resource budget of one execution.
///
/// The defaults reproduce the pre-budget behaviour: 2M steps, a call depth of
/// 256, and no wall-clock, heap or live-allocation bound. The wall-clock
/// watchdog defaults to off because differential matrices must be
/// deterministic — enable it per run (a fuzz worker, a service job) where a
/// hung row is worse than a nondeterministic one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Interpreter step budget (exhaustion reports
    /// [`TimeoutKind::StepBudget`]).
    pub steps: u64,
    /// Optional wall-clock watchdog in milliseconds (exhaustion reports
    /// [`TimeoutKind::WallClock`]). `None` disables the clock.
    pub wall_clock_ms: Option<u64>,
    /// Optional budget on cumulative bytes allocated over the execution
    /// (objects, `malloc`, string literals all count; `free` does not refund).
    pub heap_bytes: Option<u64>,
    /// Optional budget on simultaneously live allocations.
    pub max_live_allocations: Option<usize>,
    /// Maximum C call depth (enforced as
    /// [`ResourceLimits::effective_call_depth`], which caps it at what the
    /// largest host stack can hold).
    pub call_depth: usize,
}

impl ResourceLimits {
    /// The default step budget (the §6 timeout analogue).
    pub const DEFAULT_STEPS: u64 = 2_000_000;
    /// The default call-depth bound.
    pub const DEFAULT_CALL_DEPTH: usize = 256;

    /// The default budget with a different step limit (the historical
    /// `step_limit` knob).
    pub fn with_steps(steps: u64) -> Self {
        ResourceLimits {
            steps,
            ..ResourceLimits::default()
        }
    }

    /// This budget with a wall-clock watchdog of `ms` milliseconds.
    pub fn with_wall_clock_ms(mut self, ms: u64) -> Self {
        self.wall_clock_ms = Some(ms);
        self
    }

    /// This budget with a cumulative allocated-bytes bound.
    pub fn with_heap_bytes(mut self, bytes: u64) -> Self {
        self.heap_bytes = Some(bytes);
        self
    }

    /// This budget with a live-allocation-count bound.
    pub fn with_max_live_allocations(mut self, count: usize) -> Self {
        self.max_live_allocations = Some(count);
        self
    }

    /// This budget with a call-depth bound.
    pub fn with_call_depth(mut self, depth: usize) -> Self {
        self.call_depth = depth;
        self
    }

    /// Host stack reserved per C call. The interpreter recurses on the host
    /// stack, one cluster of frames per C call and per level of expression
    /// nesting around it. Measured on x86-64: 12-28 KiB per call in optimised
    /// builds, 90-220 KiB in unoptimised ones, so the reserve is 64 KiB and
    /// 256 KiB respectively.
    pub const BYTES_PER_C_FRAME: usize = if cfg!(debug_assertions) {
        256 * 1024
    } else {
        64 * 1024
    };
    /// Host stack reserved on top of the C frames, for the frames of the
    /// caller that starts the execution.
    pub const HOST_STACK_HEADROOM: usize = 1 << 20;
    /// The largest host stack an execution asks for, so an absurd call depth
    /// cannot make spawning a thread for it fail.
    pub const MAX_HOST_STACK_BYTES: usize = 1 << 30;

    /// The call depth the interpreter enforces: [`ResourceLimits::call_depth`],
    /// lowered to what [`ResourceLimits::MAX_HOST_STACK_BYTES`] of host stack
    /// can hold. A larger request would overflow the host stack (and abort
    /// the process) before the budget fired.
    pub fn effective_call_depth(&self) -> usize {
        let most =
            (Self::MAX_HOST_STACK_BYTES - Self::HOST_STACK_HEADROOM) / Self::BYTES_PER_C_FRAME;
        self.call_depth.min(most)
    }

    /// The host stack an execution under this budget needs:
    /// [`ResourceLimits::effective_call_depth`] C frames plus headroom, at
    /// most [`ResourceLimits::MAX_HOST_STACK_BYTES`].
    ///
    /// The call-depth budget only protects the process if the executing
    /// thread's stack is this large; then the budget surfaces as
    /// [`ResourceKind::CallDepth`] before the host stack runs out. Job-queue
    /// workers are spawned with the default budget's size and run executions
    /// directly on their own stack; an execution whose budget needs more than
    /// the current thread has runs on a thread spawned with this much stack
    /// (see `cerberus::pipeline::Elaborated::execute_bounded`).
    pub fn host_stack_bytes(&self) -> usize {
        self.effective_call_depth() * Self::BYTES_PER_C_FRAME + Self::HOST_STACK_HEADROOM
    }
}

impl Default for ResourceLimits {
    fn default() -> Self {
        ResourceLimits {
            steps: Self::DEFAULT_STEPS,
            wall_clock_ms: None,
            heap_bytes: None,
            max_live_allocations: None,
            call_depth: Self::DEFAULT_CALL_DEPTH,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_the_pre_budget_behaviour() {
        let limits = ResourceLimits::default();
        assert_eq!(limits.steps, 2_000_000);
        assert_eq!(limits.call_depth, 256);
        assert_eq!(limits.wall_clock_ms, None);
        assert_eq!(limits.heap_bytes, None);
        assert_eq!(limits.max_live_allocations, None);
    }

    #[test]
    fn builders_compose() {
        let limits = ResourceLimits::with_steps(500)
            .with_wall_clock_ms(100)
            .with_heap_bytes(1 << 20)
            .with_max_live_allocations(64)
            .with_call_depth(32);
        assert_eq!(limits.steps, 500);
        assert_eq!(limits.wall_clock_ms, Some(100));
        assert_eq!(limits.heap_bytes, Some(1 << 20));
        assert_eq!(limits.max_live_allocations, Some(64));
        assert_eq!(limits.call_depth, 32);
    }

    #[test]
    fn the_enforced_depth_always_fits_the_host_stack() {
        let most = (ResourceLimits::MAX_HOST_STACK_BYTES - ResourceLimits::HOST_STACK_HEADROOM)
            / ResourceLimits::BYTES_PER_C_FRAME;
        for requested in [
            0,
            1,
            256,
            4096,
            most - 1,
            most,
            most + 1,
            1 << 20,
            usize::MAX,
        ] {
            let limits = ResourceLimits::default().with_call_depth(requested);
            let depth = limits.effective_call_depth();
            assert_eq!(depth, requested.min(most), "requested {requested}");
            assert!(
                depth * ResourceLimits::BYTES_PER_C_FRAME + ResourceLimits::HOST_STACK_HEADROOM
                    <= limits.host_stack_bytes(),
                "requested {requested}"
            );
            assert!(limits.host_stack_bytes() <= ResourceLimits::MAX_HOST_STACK_BYTES);
        }
        assert_eq!(
            ResourceLimits::default().host_stack_bytes(),
            256 * ResourceLimits::BYTES_PER_C_FRAME + (1 << 20)
        );
    }

    #[test]
    fn kinds_render_distinctly() {
        let rendered: std::collections::HashSet<String> = [
            ResourceKind::HeapBytes.to_string(),
            ResourceKind::LiveAllocations.to_string(),
            ResourceKind::CallDepth.to_string(),
            TimeoutKind::StepBudget.to_string(),
            TimeoutKind::WallClock.to_string(),
        ]
        .into_iter()
        .collect();
        assert_eq!(rendered.len(), 5);
    }
}
