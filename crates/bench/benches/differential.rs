//! Benchmark: the csmith-lite differential validation workload (experiment
//! E15/E16 — Cerberus vs the reference oracle), plus the optimisations
//! layered on the Session/DifferentialRunner pipeline and the job queue:
//!
//! * `model_matrix_shared_artifact`: one elaboration, every named model
//!   executed by the differential runner on the calling thread.
//! * `end_to_end_uncached_sequential` vs `model_matrix_queue_<n>`: elaborate
//!   a source and run it under every named model, on the calling thread or
//!   as one job per model on a fresh `n`-worker queue, whose workers run the
//!   interpreter inline on their own stacks.
//! * `elaborate_uncached` vs `elaborate_memoized` measure the Session
//!   artifact cache: the memoized path resolves a repeated source by hash
//!   lookup instead of re-running parse/desugar/elaborate.
//! * `seed_batch_sequential` vs `seed_batch_queue_<n>`: a batch of
//!   csmith-lite seeds on the calling thread or on a fresh `n`-worker queue.
//!   `tests/bench_checkpoints.rs` gates `seed_batch_queue_2` ≤
//!   `seed_batch_sequential` on the committed checkpoint.
//!
//! Queue rows run at 1 and 2 workers and at `available_parallelism`
//! (`all_cores`).

use criterion::{criterion_group, criterion_main, Criterion};

use cerberus::memory::config::ModelConfig;
use cerberus::pipeline::Session;
use cerberus::DifferentialRunner;
use cerberus_gen::{
    diff_one, generate, run_differential, run_differential_queued, to_c_source, GenConfig,
};
use cerberus_queue::{Job, JobQueue};

/// The worker counts of the queue rows, with their row-name suffixes.
fn queue_sizes() -> [(&'static str, usize); 3] {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    [("1", 1), ("2", 2), ("all_cores", cores)]
}

fn bench_differential(c: &mut Criterion) {
    let mut group = c.benchmark_group("differential");
    group.sample_size(10);
    group.bench_function("small_program", |b| {
        let program = generate(1, GenConfig::small());
        b.iter(|| diff_one(&program, 2_000_000))
    });
    group.bench_function("large_program", |b| {
        let program = generate(1, GenConfig::large());
        b.iter(|| diff_one(&program, 2_000_000))
    });
    // One elaboration shared across the full model matrix (the Session-API
    // fast path: no per-model re-parse or re-elaboration).
    group.bench_function("model_matrix_shared_artifact", |b| {
        let source = to_c_source(&generate(1, GenConfig::small()));
        let program = Session::default().elaborate(&source).unwrap();
        let runner = DifferentialRunner::all_named();
        b.iter(|| runner.run(&program))
    });
    // The matrix end to end: resolve the source to an artifact and run every
    // model, per iteration, on the calling thread...
    group.bench_function("end_to_end_uncached_sequential", |b| {
        let source = to_c_source(&generate(1, GenConfig::small()));
        let session = Session::default();
        let runner = DifferentialRunner::all_named();
        b.iter(|| runner.run(&session.elaborate_uncached(&source).unwrap()))
    });
    // ...and as one job per model on a fresh queue: one cold elaboration,
    // then memo hits, with the rows spread over the workers.
    for (suffix, workers) in queue_sizes() {
        group.bench_function(&format!("model_matrix_queue_{suffix}"), |b| {
            let source = to_c_source(&generate(1, GenConfig::small()));
            b.iter(|| {
                JobQueue::start(workers).run_batch(
                    ModelConfig::all_named()
                        .into_iter()
                        .map(|model| Job::new(source.clone(), vec![model])),
                )
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("elaboration_cache");
    group.sample_size(10);
    let source = to_c_source(&generate(1, GenConfig::large()));
    // Baseline: the full front end on every call.
    group.bench_function("elaborate_uncached", |b| {
        let session = Session::default();
        b.iter(|| session.elaborate_uncached(&source).unwrap())
    });
    // Memoized: after the warm-up call, every elaboration is a hash lookup.
    group.bench_function("elaborate_memoized", |b| {
        let session = Session::default();
        b.iter(|| session.elaborate(&source).unwrap())
    });
    group.finish();

    let mut group = c.benchmark_group("seed_batch");
    group.sample_size(10);
    group.bench_function("seed_batch_sequential", |b| {
        b.iter(|| run_differential(16, GenConfig::small(), 2_000_000))
    });
    for (suffix, workers) in queue_sizes() {
        group.bench_function(&format!("seed_batch_queue_{suffix}"), |b| {
            b.iter(|| {
                run_differential_queued(
                    &JobQueue::start(workers),
                    16,
                    GenConfig::small(),
                    2_000_000,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_differential);
criterion_main!(benches);
