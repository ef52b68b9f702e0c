//! Integration tests: the symbolic provenance engine as a genuinely
//! different second `MemoryModel`, exercised through the full pipeline, the
//! differential runner and the job queue.
//!
//! These assert the known concrete-vs-symbolic disagreement classes (cross-
//! object pointer comparison, intptr round trips resolved through provenance
//! rather than through the concrete address space) and that a matrix run on
//! the queue's workers equals the one the runner builds on the calling
//! thread.

use cerberus::memory::config::ModelConfig;
use cerberus::pipeline::Session;
use cerberus::DifferentialRunner;
use cerberus_ast::ub::UbKind;
use cerberus_litmus::{catalogue, differential, elaborate, LitmusTest};
use cerberus_queue::{Job, JobQueue};

#[test]
fn cross_object_pointer_comparison_splits_concrete_and_symbolic() {
    // Equality of one-past-x and &y: concrete layouts make the addresses
    // coincide; the symbolic engine keeps every allocation in its own
    // address region, so the pointers are never equal.
    let program = Session::default()
        .elaborate(
            "int x = 1, y = 2;\nint main(void) { int *p = &x + 1; int *q = &y; return p == q; }",
        )
        .unwrap();
    let matrix = DifferentialRunner::new(vec![ModelConfig::concrete(), ModelConfig::symbolic()])
        .run(&program);
    assert_eq!(
        matrix.outcome_for("concrete").unwrap().exit_value(),
        Some(1)
    );
    assert_eq!(
        matrix.outcome_for("symbolic").unwrap().exit_value(),
        Some(0)
    );
    assert_eq!(matrix.disagreeing_models(), vec!["symbolic"]);

    // Relational comparison across objects: defined by address concretely, a
    // constraint violation symbolically (there is no inter-region order).
    let program = Session::default()
        .elaborate("int a, b;\nint main(void) { return (&a < &b) || (&a > &b); }")
        .unwrap();
    let matrix = DifferentialRunner::new(vec![ModelConfig::concrete(), ModelConfig::symbolic()])
        .run(&program);
    assert_eq!(
        matrix.outcome_for("concrete").unwrap().exit_value(),
        Some(1)
    );
    let symbolic = matrix.outcome_for("symbolic").unwrap();
    assert_eq!(
        symbolic.outcomes[0].result.ub_kind(),
        Some(UbKind::RelationalCompareDifferentObjects)
    );
}

#[test]
fn intptr_round_trips_split_concrete_and_symbolic() {
    // A plain round trip works under both engines (the symbolic engine
    // resolves it lazily through the integer's provenance) …
    let round_trip = "int main(void) { int x = 7; unsigned long a = (unsigned long)&x; int *p = (int*)a; return *p; }";
    let program = Session::default().elaborate(round_trip).unwrap();
    for model in [ModelConfig::concrete(), ModelConfig::symbolic()] {
        assert_eq!(
            program.run_under(&model).exit_value(),
            Some(7),
            "model {}",
            model.name
        );
    }

    // … but computing one object's address from another's by integer
    // arithmetic only works when the address space is concrete: the symbolic
    // result keeps x's provenance and lands a whole region outside it.
    let forged = "int x = 1, y = 2;\nint main(void) { unsigned long ax = (unsigned long)&x; unsigned long ay = (unsigned long)&y; int *p = (int*)(ax + (ay - ax)); return *p; }";
    let program = Session::default().elaborate(forged).unwrap();
    let matrix = DifferentialRunner::new(vec![ModelConfig::concrete(), ModelConfig::symbolic()])
        .run(&program);
    assert_eq!(
        matrix.outcome_for("concrete").unwrap().exit_value(),
        Some(2)
    );
    assert_eq!(
        matrix.outcome_for("symbolic").unwrap().outcomes[0]
            .result
            .ub_kind(),
        Some(UbKind::OutOfBoundsAccess)
    );
    assert!(!matrix.all_agree());
}

#[test]
fn every_litmus_differential_matrix_is_deterministic_under_parallelism() {
    // A 2-worker queue must produce exactly the calling thread's matrix for
    // every litmus test that records expectations (rows in runner order,
    // identical outcomes), however the workers interleave the jobs.
    let queue = JobQueue::start(2);
    let suite = catalogue();
    let models = |test: &LitmusTest| -> Vec<ModelConfig> {
        ModelConfig::all_named()
            .into_iter()
            .filter(|m| test.expectation_for(m.name).is_some())
            .collect()
    };
    let queued = queue.run_batch(
        suite
            .iter()
            .map(|test| Job::new(test.source.clone(), models(test))),
    );
    for (test, outcome) in suite.iter().zip(queued) {
        assert_eq!(
            outcome.into_matrix().unwrap(),
            DifferentialRunner::new(models(test)).run(&elaborate(test)),
            "test {}",
            test.name
        );
    }
    queue.shutdown();
}

#[test]
fn litmus_differential_matrices_include_the_symbolic_rows() {
    let suite = catalogue();
    let with_symbolic: Vec<_> = suite
        .iter()
        .filter(|t| t.expectation_for("symbolic").is_some())
        .collect();
    assert!(
        with_symbolic.len() >= 10,
        "only {} tests record symbolic expectations",
        with_symbolic.len()
    );
    for test in with_symbolic {
        let matrix = differential(test);
        assert!(
            matrix.outcome_for("symbolic").is_some(),
            "test {} lost its symbolic row",
            test.name
        );
    }
}
