//! One batch pass through a fresh `JobQueue`: the `corpus` and `fuzz`
//! workloads' unit of work.

use std::time::Instant;

use cerberus_queue::{Job, JobOutcome, JobQueue, QueueStats};

use crate::check;
use crate::inputs::Input;
use crate::trace::Tracer;
use crate::CpuClock;

/// The pause between starting a queue and submitting to it, so that the
/// workers have started and parked and do not race the submission. It is not
/// part of the pass time.
const SETTLE: std::time::Duration = std::time::Duration::from_millis(2);
/// A short spin after the pause, so the submitting core is awake when the
/// submission starts.
const WARM: std::time::Duration = std::time::Duration::from_micros(200);

/// What one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Starting the queue, plus the time from the submission until every
    /// outcome is verified.
    pub pass_ms: f64,
    /// Processor time all of the process's threads spent on the pass (the
    /// benchmark's own spin before the submission left out). The kernel
    /// does not count time the hypervisor gave to other guests, so this
    /// holds steady on a shared host where `pass_ms` does not.
    pub cpu_ms: f64,
    /// The `submit_batch` call: until the batch's job ids come back.
    pub ack_ms: f64,
    /// Per job, from the batch submission until `wait` returned its outcome.
    pub verdict_ms: Vec<f64>,
    /// The outcomes, in input order.
    pub outcomes: Vec<JobOutcome>,
    /// One message per wrong verdict or failed job.
    pub failures: Vec<String>,
    /// Queue statistics at the end of the pass.
    pub stats: QueueStats,
    /// The deepest queue seen (sampled only when `sample` was set).
    pub max_depth: usize,
    /// Resident memory once every outcome is in, before the queue shuts
    /// down, in MiB.
    pub rss_mb: Result<f64, String>,
}

/// Run every input as one job on a fresh queue of `workers` workers, wait for
/// each in submission order and check it. With `sample`, the queue depth is
/// read after the submission and after every wait, and a `queue.job` span is
/// recorded per job.
pub fn pass(inputs: &[Input], workers: usize, sample: bool, tracer: &Tracer) -> Pass {
    let jobs: Vec<Job> = inputs
        .iter()
        .map(|input| Job::new(input.source.text.clone(), input.models.clone()))
        .collect();
    let cpu_start = crate::cpu_ms(CpuClock::Process);
    let start = Instant::now();
    let queue = JobQueue::start(workers);
    let start_ms = start.elapsed().as_secs_f64() * 1e3;
    std::thread::sleep(SETTLE);
    let warm = Instant::now();
    let spin_start = crate::cpu_ms(CpuClock::Thread);
    while warm.elapsed() < WARM {
        std::hint::spin_loop();
    }
    let spin_ms = crate::cpu_ms(CpuClock::Thread) - spin_start;
    let submitted = Instant::now();
    let ids = queue.submit_batch(jobs);
    let ack_ms = submitted.elapsed().as_secs_f64() * 1e3;
    let mut max_depth = if sample { queue.stats().depth } else { 0 };
    let mut verdict_ms = Vec::with_capacity(ids.len());
    let mut outcomes = Vec::with_capacity(ids.len());
    let mut failures = Vec::new();
    for (index, (id, input)) in ids.into_iter().zip(inputs).enumerate() {
        let outcome = queue.wait(id);
        let done = Instant::now();
        verdict_ms.push((done - submitted).as_secs_f64() * 1e3);
        if sample {
            tracer.record("queue.job", index as u64, submitted, done);
            max_depth = max_depth.max(queue.stats().depth);
        }
        if let Err(failure) = check::verify_outcome(input, &outcome) {
            failures.push(failure);
        }
        outcomes.push(outcome);
    }
    let pass_ms = start_ms + submitted.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = crate::cpu_ms(CpuClock::Process) - cpu_start - spin_ms;
    let stats = queue.stats();
    let rss_mb = crate::resident_mb("VmRSS");
    queue.shutdown();
    Pass {
        pass_ms,
        cpu_ms,
        ack_ms,
        verdict_ms,
        outcomes,
        failures,
        stats,
        max_depth,
        rss_mb,
    }
}
