//! Fault isolation and resource budgets, end to end.
//!
//! The acceptance bar for the robustness work: a differential run over the
//! *full* litmus catalogue with one deliberately panicking engine injected
//! must complete, report exactly that engine's rows as contained faults, and
//! leave every other row bit-identical to a run without the faulty engine.
//! Separately, the watchdog budgets (wall clock, call depth, live
//! allocations) must stop runaway programs with structured verdicts instead
//! of hanging or aborting the process, on a caller's thread and on a job
//! queue's workers alike.

use std::time::{Duration, Instant};

use cerberus::pipeline::Session;
use cerberus::DifferentialRunner;
use cerberus_exec::driver::{ExecMode, ExecResult};
use cerberus_memory::config::ModelConfig;
use cerberus_memory::fault::FAULT_MESSAGE;
use cerberus_memory::limits::{ResourceKind, ResourceLimits, TimeoutKind};
use cerberus_queue::{Job, JobQueue};

/// The full catalogue under every named model plus an injected
/// always-panicking engine: the run completes, exactly the injected model's
/// rows fault (with its payload), and every healthy row is identical to a
/// run that never saw the faulty engine.
#[test]
fn an_injected_fault_is_invisible_to_every_healthy_row_of_the_catalogue() {
    let mut poisoned_models = ModelConfig::all_named();
    poisoned_models.push(ModelConfig::panicking());
    let poisoned = DifferentialRunner::new(poisoned_models);
    let healthy = DifferentialRunner::all_named();

    let session = Session::default();
    for test in cerberus_litmus::catalogue() {
        let program = session
            .elaborate(&test.source)
            .unwrap_or_else(|e| panic!("litmus test {} failed in the front end: {e}", test.name));

        let with_fault = poisoned.run(&program);
        assert_eq!(
            with_fault.faulted_models(),
            vec!["panicking"],
            "{}: exactly the injected model must fault",
            test.name
        );
        match &with_fault.outcome_for("panicking").unwrap().outcomes[0].result {
            ExecResult::EngineFault { model, payload } => {
                assert_eq!(model, "panicking", "{}", test.name);
                assert_eq!(payload, FAULT_MESSAGE, "{}", test.name);
            }
            other => panic!("{}: expected an engine fault, got {other}", test.name),
        }

        let without_fault = healthy.run(&program);
        assert!(!without_fault.any_fault(), "{}", test.name);
        for row in without_fault.rows() {
            assert_eq!(
                with_fault.outcome_for(row.model),
                Some(&row.outcome),
                "{}: row {} changed when a faulty engine joined the matrix",
                test.name,
                row.model
            );
        }
    }
}

/// An unbounded loop is stopped by the wall-clock watchdog — with a step
/// budget far too large to fire first — well within the configured budget.
#[test]
fn the_wall_clock_watchdog_stops_an_unbounded_loop() {
    let program = Session::default()
        .elaborate("int main(void) { while (1); return 0; }")
        .unwrap();
    let limits = ResourceLimits::with_steps(u64::MAX).with_wall_clock_ms(200);
    let started = Instant::now();
    let outcome = program.execute_bounded(
        &ModelConfig::de_facto(),
        ExecMode::Random { seed: 0 },
        &limits,
    );
    let elapsed = started.elapsed();
    assert!(
        matches!(
            outcome.outcomes[0].result,
            ExecResult::Timeout(TimeoutKind::WallClock)
        ),
        "expected a wall-clock timeout, got {:?}",
        outcome.outcomes[0].result
    );
    // Generous slack over the 200ms budget: the deadline is polled every
    // 4096 steps, so the overshoot is bounded by one polling interval.
    assert!(
        elapsed < Duration::from_secs(10),
        "watchdog took {elapsed:?} to fire on a 200ms budget"
    );
    assert!(outcome.any_budget_exhaustion());
}

/// Unbounded recursion exhausts the call-depth budget instead of blowing the
/// host stack.
#[test]
fn runaway_recursion_exhausts_the_call_depth_budget() {
    let program = Session::default()
        .elaborate("int f(int n) { return f(n + 1); } int main(void) { return f(0); }")
        .unwrap();
    let limits = ResourceLimits::with_steps(10_000_000).with_call_depth(64);
    let outcome = program.execute_bounded(
        &ModelConfig::de_facto(),
        ExecMode::Random { seed: 0 },
        &limits,
    );
    assert!(
        matches!(
            outcome.outcomes[0].result,
            ExecResult::ResourceExhausted(ResourceKind::CallDepth)
        ),
        "expected call-depth exhaustion, got {:?}",
        outcome.outcomes[0].result
    );
}

/// Runaway recursion as a queued job ends in call-depth exhaustion on a
/// 1-worker queue, whether the run fits the worker's own stack (the default
/// budget: the interpreter runs inline on the worker) or needs a deeper
/// stack than the worker has (the run moves to a thread sized for it).
#[test]
fn queued_runaway_recursion_exhausts_the_call_depth_budget_on_both_paths() {
    let queue = JobQueue::start(1);
    let recursion = || {
        Job::new(
            "int f(int n) { return f(n + 1); } int main(void) { return f(0); }",
            vec![ModelConfig::de_facto(), ModelConfig::symbolic()],
        )
    };
    let inline = recursion();
    let spawned = recursion().with_limits(
        ResourceLimits::default().with_call_depth(4 * ResourceLimits::DEFAULT_CALL_DEPTH),
    );
    for (path, job) in [("inline", inline), ("spawned", spawned)] {
        let matrix = queue.wait(queue.submit(job)).into_matrix().unwrap();
        for row in matrix.rows() {
            assert!(
                matches!(
                    row.outcome.outcomes[0].result,
                    ExecResult::ResourceExhausted(ResourceKind::CallDepth)
                ),
                "{path} run under {}: expected call-depth exhaustion, got {:?}",
                row.model,
                row.outcome.outcomes[0].result
            );
        }
    }
    queue.shutdown();
}

/// A leak loop trips the live-allocation ceiling with a structured verdict.
#[test]
fn a_leak_loop_exhausts_the_live_allocation_budget() {
    let program = Session::default()
        .elaborate(
            "#include <stdlib.h>\n\
             int main(void) { while (1) { void *p = malloc(1); if (!p) return 1; } return 0; }",
        )
        .unwrap();
    let limits = ResourceLimits::with_steps(10_000_000).with_max_live_allocations(16);
    let outcome = program.execute_bounded(
        &ModelConfig::de_facto(),
        ExecMode::Random { seed: 0 },
        &limits,
    );
    assert!(
        matches!(
            outcome.outcomes[0].result,
            ExecResult::ResourceExhausted(ResourceKind::LiveAllocations)
        ),
        "expected live-allocation exhaustion, got {:?}",
        outcome.outcomes[0].result
    );
}
