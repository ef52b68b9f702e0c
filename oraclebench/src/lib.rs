//! The end-to-end benchmark of the C-semantics oracle.
//!
//! Three workloads run against the public APIs of `cerberus`,
//! `cerberus-queue` and `cerberus-server`:
//!
//! * `corpus` — every golden fixture as an all-models differential job, in
//!   one batch on a fresh `JobQueue` per pass (the paper's §3 shape). Runs
//!   are short, so per-run thread spawning dominates interpretation.
//! * `fuzz` — seeded large generated programs as one-model (`concrete`)
//!   jobs, checked against the generator's reference evaluator (§6).
//!   Interpretation dominates; a cold front end is the rest.
//! * `service` — a live server on loopback driven in an open loop at a
//!   fixed rate by a skewed mix of fixtures and small generated programs,
//!   some repeated and some naming a model subset: the only workload where
//!   the HTTP transport, the analysis in the `202` acknowledgement and the
//!   cache eviction policy matter. Its latencies follow the host's load
//!   more than the program's, so `BENCHMARK.json` leaves it out; it runs by
//!   hand.
//!
//! Every verdict is checked. An untraced run (`trace: false`) reports the
//! end-to-end metrics; a traced run reports the per-layer metrics from spans
//! placed around calls into each layer's public functions (see [`layers`]).

pub mod batch;
pub mod check;
pub mod inputs;
pub mod layers;
pub mod service;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cerberus::memory::config::ModelConfig;
use cerberus_gen::GenConfig;
use cerberus_server::json::Json;
use cerberus_server::{Server, ServerConfig};

use inputs::{Input, Source};
use stats::{median, Summary};
use trace::Tracer;

/// The service's fixed request rate, requests per second: chosen, like the
/// rest of the service mix, not taken from real traffic. It sits below the
/// rate one generator thread and two workers sustain on a two-core host, so
/// no request queues up behind a late generator.
pub const SERVICE_RATE: f64 = 20.0;
/// The service's pass: this many consecutive requests (0.2 s of schedule).
pub const SERVICE_PASS_REQUESTS: usize = 4;
/// Large generated programs per `fuzz` pass.
pub const FUZZ_PROGRAMS: usize = 64;
/// Queue passes in a traced run.
const QUEUE_PASSES: usize = 3;
/// Share of pass time the staged layers must account for in a traced
/// `corpus` or `fuzz` run.
pub const COVERAGE_FLOOR: f64 = 0.9;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every golden fixture under every named model, batched on the queue.
    Corpus,
    /// Large generated programs under `concrete`, batched on the queue.
    Fuzz,
    /// An open loop of mixed submissions against a live server.
    Service,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Corpus, Workload::Fuzz, Workload::Service];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Corpus => "corpus",
            Workload::Fuzz => "fuzz",
            Workload::Service => "service",
        }
    }

    /// The workload named `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::full`] is the benchmark; [`Scale::tiny`] is for
/// the package's own tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Fixtures used (`None`: all of them).
    pub fixtures: Option<usize>,
    /// Generated programs per `fuzz` pass.
    pub fuzz_programs: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Requests a traced `corpus` or `fuzz` run sends through the live server.
    pub probe_requests: usize,
    /// Least number of measured passes in a `corpus` or `fuzz` run.
    pub min_passes: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            fixtures: None,
            fuzz_programs: FUZZ_PROGRAMS,
            setups: 21,
            probe_requests: 24,
            min_passes: 3,
        }
    }

    /// A few inputs per workload.
    pub fn tiny() -> Scale {
        Scale {
            fixtures: Some(6),
            fuzz_programs: 3,
            setups: 1,
            probe_requests: 3,
            min_passes: 1,
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

impl Options {
    /// Queue and server workers, and the load generator's connection cap:
    /// the host's parallelism.
    pub fn workers() -> usize {
        std::thread::available_parallelism().map_or(2, |n| n.get())
    }

    /// Requests in a `service` run: the fixed rate for the run's length.
    pub fn service_requests(&self) -> usize {
        ((SERVICE_RATE * self.seconds).ceil() as usize).max(2)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// The unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every check passed.
    pub correct: bool,
    /// Verdicts and requests checked.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The first failures, for the error stream.
    pub failures: Vec<String>,
}

impl Report {
    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([("value", Json::Float(m.value)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(i128::from(self.attempted))),
            ("failed", Json::Int(i128::from(self.failed))),
            ("metrics", Json::obj(metrics)),
        ])
        .encode()
    }
}

/// Counts checked verdicts and keeps the failures.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, attempted: u64, failures: impl IntoIterator<Item = String>) {
        self.attempted += attempted;
        self.failures.extend(failures);
    }

    fn into_report(self, metrics: Vec<Metric>, mut notes: Vec<String>) -> Report {
        let failed = self.failures.len() as u64;
        let attempted = self.attempted.max(failed).max(1);
        notes.push(format!(
            "  failed_share: {} ({failed} of {attempted})",
            failed as f64 / attempted as f64
        ));
        Report {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
            notes,
            failures: self.failures.into_iter().take(20).collect(),
        }
    }
}

/// A workload's inputs, built from the seed.
pub struct Prepared {
    /// What the first pass (or the open loop) submits, in order.
    pub inputs: Vec<Input>,
    /// When each `service` request falls due, in seconds from the start.
    pub due_s: Vec<f64>,
    /// For `fuzz`, the programs of the later passes: every pass runs
    /// programs no earlier pass ran, so a run's median pass does not hang
    /// on one draw of programs.
    pub programs: Option<inputs::Programs>,
}

/// `fuzz` inputs: each program under `concrete` alone.
fn concrete_only(sources: Vec<Arc<Source>>) -> Vec<Input> {
    sources
        .into_iter()
        .map(|source| Input {
            source,
            models: vec![ModelConfig::concrete()],
        })
        .collect()
}

/// Build the workload's inputs from the seed.
pub fn prepare(options: &Options, tracer: &Tracer) -> Result<Prepared, String> {
    let seed = options.seed;
    let scale = options.scale;
    let all = ModelConfig::all_named();
    let mut programs = None;
    let inputs = match options.workload {
        Workload::Corpus => {
            let mut inputs: Vec<Input> = inputs::fixture_sources(tracer, scale.fixtures)?
                .into_iter()
                .map(|source| Input {
                    source,
                    models: all.clone(),
                })
                .collect();
            inputs::shuffle(&mut inputs::rng(seed, 3), &mut inputs);
            inputs
        }
        Workload::Fuzz => {
            let mut stream = inputs::Programs::new(seed, GenConfig::large());
            let first = concrete_only(stream.take(tracer, scale.fuzz_programs));
            programs = Some(stream);
            first
        }
        Workload::Service => {
            let count = options.service_requests();
            let mut pool: Vec<Arc<Source>> = inputs::fixture_sources(tracer, scale.fixtures)?;
            pool.extend(inputs::Programs::new(seed, GenConfig::small()).take(tracer, count));
            inputs::service_requests(seed, &pool, count)
        }
    };
    let due_s = match options.workload {
        Workload::Service => inputs::schedule(seed, inputs.len(), SERVICE_RATE),
        _ => Vec::new(),
    };
    Ok(Prepared {
        inputs,
        due_s,
        programs,
    })
}

/// Start a server on an ephemeral loopback port with `workers` workers and
/// wait until it answers `GET /api/v0/models`.
pub fn start_server(workers: usize) -> Result<Server, String> {
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let server =
        cerberus_server::serve("127.0.0.1:0", config).map_err(|e| format!("serve: {e}"))?;
    let addr = server.local_addr().to_string();
    match cerberus_server::client::http_request(&addr, "GET", "/api/v0/models", None) {
        Ok((200, _)) => Ok(server),
        other => Err(format!("the server did not answer: {other:?}")),
    }
}

/// A resident-set figure of this process from `/proc/self/status`, in MiB:
/// `VmRSS` (now) or `VmHWM` (the process's high-water mark).
pub fn resident_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or_else(|| format!("no {field} in /proc/self/status"))?;
    Ok(kib / 1024.0)
}

/// A processor-time clock.
#[derive(Debug, Clone, Copy)]
pub enum CpuClock {
    /// Every thread of this process, including those that have exited.
    Process,
    /// The calling thread.
    Thread,
}

/// Processor time used so far on `clock`, in milliseconds. With steal-time
/// accounting, the kernel leaves out time the hypervisor ran other guests.
pub fn cpu_ms(clock: CpuClock) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    // CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID.
    let id = match clock {
        CpuClock::Process => 2,
        CpuClock::Thread => 3,
    };
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable timespec for the whole call.
    let status = unsafe { clock_gettime(id, &mut time) };
    assert_eq!(status, 0, "clock_gettime({id}) failed");
    time.tv_sec as f64 * 1e3 + time.tv_nsec as f64 / 1e6
}

/// The machine's (steal, total) CPU time from `/proc/stat`, in ticks. Steal
/// is time the hypervisor ran other guests while this one wanted a CPU.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// A note giving the steal share of CPU time since `before`: a run whose
/// machine was busy with other guests reads slower for that reason alone.
fn steal_note(before: Option<(u64, u64)>) -> String {
    match (before, cpu_ticks()) {
        (Some((steal0, total0)), Some((steal1, total1))) if total1 > total0 => format!(
            "  host steal while measuring: {:.1}% of CPU time",
            100.0 * (steal1 - steal0) as f64 / (total1 - total0) as f64
        ),
        _ => "  host steal while measuring: unknown".to_owned(),
    }
}

/// Run the benchmark once.
pub fn run(options: &Options) -> Result<Report, String> {
    if options.trace {
        run_traced(options)
    } else {
        run_untraced(options)
    }
}

/// Set up `scale.setups` times and keep the last set-up; returns it, the
/// `service` server, and the median set-up time in seconds. A set-up builds
/// the inputs from the seed, and for `service` starts a server and waits for
/// its first answer. The batch workloads then run one untimed warm-up pass,
/// which is not part of the set-up time.
fn set_up(options: &Options, tally: &mut Tally) -> Result<(Prepared, Option<Server>, f64), String> {
    let untraced = Tracer::new(false);
    let mut times = Vec::new();
    let mut kept: Option<(Prepared, Option<Server>)> = None;
    for _ in 0..options.scale.setups.max(1) {
        if let Some((_, Some(old))) = kept.take() {
            old.shutdown();
        }
        let start = Instant::now();
        let prepared = prepare(options, &untraced)?;
        let server = match options.workload {
            Workload::Service => Some(start_server(Options::workers())?),
            _ => None,
        };
        times.push(start.elapsed().as_secs_f64());
        kept = Some((prepared, server));
    }
    let (prepared, server) = kept.expect("at least one set-up");
    if server.is_none() {
        let warm = batch::pass(&prepared.inputs, Options::workers(), false, &untraced);
        tally.add(prepared.inputs.len() as u64, warm.failures);
    }
    Ok((prepared, server, median(&times)))
}

fn run_untraced(options: &Options) -> Result<Report, String> {
    let mut tally = Tally::default();
    let (prepared, server, setup_s) = set_up(options, &mut tally)?;
    let workers = Options::workers();
    let untraced = Tracer::new(false);
    let (mut pass_ms, mut ack_ms, mut verdict_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut pass_cpu_ms, mut pass_rss_mb) = (Vec::new(), Vec::new());
    let mut notes = vec![format!(
        "workload {} seed {}: {} inputs, {workers} workers",
        options.workload.name(),
        options.seed,
        prepared.inputs.len()
    )];
    let ticks = cpu_ticks();
    match server {
        None => {
            let mut inputs = prepared.inputs;
            let mut programs = prepared.programs;
            let start = Instant::now();
            let budget = Duration::from_secs_f64(options.seconds);
            while pass_ms.len() < options.scale.min_passes || start.elapsed() < budget {
                if let Some(stream) = programs.as_mut() {
                    inputs = concrete_only(stream.take(&untraced, inputs.len()));
                }
                let pass = batch::pass(&inputs, workers, false, &untraced);
                pass_ms.push(pass.pass_ms);
                pass_cpu_ms.push(pass.cpu_ms);
                ack_ms.push(pass.ack_ms);
                pass_rss_mb.push(pass.rss_mb?);
                // The pass's median job: the verdicts of one pass move
                // together, so pooling them would put the tail on the few
                // slowest passes.
                verdict_ms.push(median(&pass.verdict_ms));
                tally.add(inputs.len() as u64, pass.failures);
            }
        }
        Some(server) => {
            let addr = server.local_addr().to_string();
            let cpu_start = cpu_ms(CpuClock::Process);
            let load = service::open_loop(
                &addr,
                &prepared.inputs,
                &prepared.due_s,
                SERVICE_PASS_REQUESTS,
                &untraced,
            );
            // Server, queue and load generator share the process, and the
            // passes overlap, so only their mean processor time is known.
            let passes = load.pass_ms.len().max(1) as f64;
            pass_cpu_ms.push((cpu_ms(CpuClock::Process) - cpu_start) / passes);
            let stats = server.queue().stats();
            server.shutdown();
            let mix = inputs::mix_properties(&prepared.inputs);
            notes.push(format!(
                "  mix: {} requests at {SERVICE_RATE}/s, repeat share {:.3}, model-subset share {:.3}, {} distinct sources (result cache holds 256, elaboration memo 512)",
                prepared.inputs.len(),
                mix.repeat_share,
                mix.subset_share,
                mix.distinct_sources
            ));
            notes.push(format!(
                "  server queue: result cache {}/{} hits, elaboration memo {}/{} hits",
                stats.result_cache.hits,
                stats.result_cache.lookups(),
                stats.elaboration_cache.hits,
                stats.elaboration_cache.lookups()
            ));
            notes.push(layers::summary_note("loadgen.late_ms", "ms", &load.late_ms));
            pass_ms = load.pass_ms;
            ack_ms = load.ack_ms;
            verdict_ms = load.verdict_ms;
            tally.add(load.attempted, load.failures);
        }
    }
    notes.push(steal_note(ticks));
    let mut metrics = vec![Metric {
        name: "setup_s",
        value: setup_s,
        unit: "s",
    }];
    // Wall-clock times follow the processor time the hypervisor gives to
    // other guests: on a two-vCPU guest, 20% steal stretched the corpus
    // pass_ms.p50 by half. They are printed with their tails; a pass's
    // processor time, which the kernel keeps steal out of, is reported.
    // The batch submission (ack_ms) takes well under a millisecond and moves
    // by a fifth with the host's load alone.
    let timings = [
        ("pass_ms", &pass_ms),
        ("pass_cpu_ms", &pass_cpu_ms),
        ("ack_ms", &ack_ms),
        ("verdict_ms", &verdict_ms),
    ];
    for (name, samples) in timings {
        notes.push(layers::summary_note(name, "ms", samples));
    }
    let cpu = Summary::of(&pass_cpu_ms);
    metrics.extend([
        Metric {
            name: "pass_cpu_ms.p50",
            value: cpu.p50,
            unit: "ms",
        },
        Metric {
            name: "pass_cpu_ms.tail",
            value: cpu.tail,
            unit: "ms",
        },
    ]);
    // A batch pass holds the most memory when all its outcomes are in; the
    // median of that over passes is steadier than the run's single highest
    // moment, which the service (one long pass) reports.
    let high_water = resident_mb("VmHWM")?;
    notes.push(format!(
        "  resident high-water mark of the run: {high_water:.1} MB"
    ));
    let peak_rss_mb = if pass_rss_mb.is_empty() {
        high_water
    } else {
        median(&pass_rss_mb)
    };
    metrics.push(Metric {
        name: "peak_rss_mb",
        value: peak_rss_mb,
        unit: "MB",
    });
    Ok(tally.into_report(metrics, notes))
}

fn run_traced(options: &Options) -> Result<Report, String> {
    let tracer = Tracer::new(true);
    let mut tally = Tally::default();
    let workers = Options::workers();
    let setup_start = Instant::now();
    let prepared = prepare(options, &tracer)?;
    let setup_s = setup_start.elapsed().as_secs_f64();
    let inputs = &prepared.inputs;
    let mut notes = vec![format!(
        "workload {} seed {} (traced): {} inputs, {workers} workers, set-up {setup_s:.3} s",
        options.workload.name(),
        options.seed,
        inputs.len()
    )];
    let setup_spans = Tracer::self_times(&tracer.spans());

    let staged = layers::staged(
        inputs,
        Duration::from_secs_f64(options.seconds / 2.0),
        &tracer,
    );
    tally.add(staged.attempted, staged.failures.iter().cloned());
    let analysis = layers::analysis(inputs, 3, &tracer);
    tally.add(inputs.len() as u64, analysis.failures.iter().cloned());
    let queue = layers::queue(inputs, workers, QUEUE_PASSES, &tracer);
    tally.add(queue.attempted, queue.failures.iter().cloned());
    // The service sends its own schedule through the live server; the batch
    // workloads send a sample of their inputs at the service's rate.
    let (requests, due_s) = match options.workload {
        Workload::Service => (inputs.as_slice(), prepared.due_s.clone()),
        _ => {
            let sample = &inputs[..inputs.len().min(options.scale.probe_requests)];
            (
                sample,
                inputs::schedule(options.seed, sample.len(), SERVICE_RATE),
            )
        }
    };
    let server = layers::server(requests, &due_s, workers, &tracer)?;
    tally.add(
        requests.len() as u64 + server.load.attempted,
        server.failures.iter().chain(&server.load.failures).cloned(),
    );

    let layer = |name: &str| {
        staged
            .layer_ms
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, ms)| *ms)
    };
    let traced_pass = median(&staged.traced_ms);
    let untraced_pass = median(&staged.untraced_ms);
    let pass_mean = staged.traced_ms.iter().sum::<f64>() / staged.traced_ms.len() as f64;
    let inline_ms = layer("exec.inline.concrete") + layer("exec.inline.symbolic");
    let covered: f64 = layers::STAGED_LAYERS.iter().map(|name| layer(name)).sum();
    let coverage = covered / pass_mean;
    notes.push(format!(
        "  staged pass: traced p50 {traced_pass:.3} ms, untraced p50 {untraced_pass:.3} ms, {} traced passes",
        staged.traced_ms.len()
    ));
    notes.push("  self time per layer (staged pass):".to_owned());
    for name in layers::STAGED_LAYERS.iter().chain(&["check", "pass"]) {
        notes.push(layers::share_line(name, layer(name), pass_mean));
    }
    notes.push(format!(
        "  layers account for {:.1}% of the staged pass; unaccounted {:.3} ms/pass",
        100.0 * coverage,
        pass_mean - covered
    ));
    // Coverage is measured against the staged pass, which runs the layers
    // one after another on one thread. The queue does the same work less the
    // inline runs, on its workers and with bookkeeping no span reaches; its
    // processor time beside that layer time shows what is left unattributed.
    let queue_work = covered - inline_ms + layer("check");
    let queue_cpu = median(&queue.pass_cpu_ms);
    notes.push(format!(
        "  queue pass p50 {:.3} ms wall on {workers} workers, {queue_cpu:.3} ms of processor time against {queue_work:.3} ms of the same layers' self time staged (unattributed {:.3} ms)",
        median(&queue.pass_ms),
        queue_cpu - queue_work
    ));
    if options.workload != Workload::Service && coverage < COVERAGE_FLOOR {
        tally.add(
            0,
            [format!(
                "layer self times cover {:.1}% of the pass, below {:.0}%",
                100.0 * coverage,
                100.0 * COVERAGE_FLOOR
            )],
        );
    }
    notes.push(layers::summary_note("queue.job_ms", "ms", &queue.job_ms));
    notes.push(layers::summary_note("server.rtt_ms", "ms", &server.rtt_ms));
    notes.push(layers::summary_note(
        "server.handle_ms",
        "ms",
        &server.handle_ms,
    ));
    notes.push(layers::summary_note(
        "loadgen.late_ms",
        "ms",
        &server.load.late_ms,
    ));

    let job = Summary::of(&queue.job_ms);
    let finished_jobs = server.load.verdict_ms.len().max(1) as f64;
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("parser.ms", layer("parser"), "ms"),
        metric("ail.ms", layer("ail"), "ms"),
        metric("elab.ms", layer("elab"), "ms"),
        metric("elab.core_chars", staged.core_chars as f64, "chars"),
        metric("exec.bounded_ms", layer("exec.bounded"), "ms"),
        metric("exec.inline_ms", inline_ms, "ms"),
        metric("exec.spawn_ms", layer("exec.bounded") - inline_ms, "ms"),
        metric("exec.concrete_ms", layer("exec.inline.concrete"), "ms"),
        metric("exec.symbolic_ms", layer("exec.inline.symbolic"), "ms"),
        metric("exec.runs", staged.runs as f64, "count"),
        metric(
            "exec.budget_exhausted",
            staged.budget_exhausted as f64,
            "count",
        ),
        metric("analysis.ms", analysis.ms, "ms"),
        metric(
            "analysis.paths_explored",
            analysis.paths_explored as f64,
            "count",
        ),
        metric(
            "analysis.paths_pruned",
            analysis.paths_pruned as f64,
            "count",
        ),
        metric(
            "analysis.solver_queries",
            analysis.solver_queries as f64,
            "count",
        ),
        metric(
            "analysis.solver_memo_hits",
            analysis.solver_memo_hits as f64,
            "count",
        ),
        metric(
            "analysis.memo_hit_ratio",
            analysis.solver_memo_hits as f64 / analysis.solver_queries.max(1) as f64,
            "ratio",
        ),
        metric("analysis.steps_used", analysis.steps_used as f64, "count"),
        metric("queue.job_ms.p50", job.p50, "ms"),
        metric("queue.job_ms.tail", job.tail, "ms"),
        metric(
            "queue.result_cache.hit_ratio",
            queue.result_hit_ratio,
            "ratio",
        ),
        metric("queue.elab_cache.hit_ratio", queue.elab_hit_ratio, "ratio"),
        metric("queue.stolen", queue.stolen as f64, "count"),
        metric("queue.max_depth", queue.max_depth as f64, "count"),
        metric("server.rtt_ms.p50", median(&server.rtt_ms), "ms"),
        metric("server.handle_ms", median(&server.handle_ms), "ms"),
        metric(
            "server.polls_per_job",
            server.load.polls as f64 / finished_jobs,
            "count",
        ),
        metric(
            "server.connections",
            (server.load.connections + server.rtt_ms.len() as u64) as f64,
            "count",
        ),
        metric("wire.render_ms", queue.render_ms, "ms"),
        metric("wire.response_kb", queue.response_kb, "KiB"),
        metric(
            "litmus.catalogue_ms",
            setup_spans.get("litmus.catalogue").copied().unwrap_or(0.0),
            "ms",
        ),
        metric(
            "gen.generate_ms",
            setup_spans.get("gen.generate").copied().unwrap_or(0.0),
            "ms",
        ),
        metric(
            "loadgen.late_ms.tail",
            Summary::of(&server.load.late_ms).tail,
            "ms",
        ),
        metric("trace.overhead_ms", traced_pass - untraced_pass, "ms"),
        metric("trace.coverage", coverage, "share"),
    ];
    let path = trace_path(options);
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    notes.push(format!("  spans written to {}", path.display()));
    Ok(tally.into_report(metrics, notes))
}

/// Where a traced run writes its spans: `out/` beside this package's
/// manifest.
pub fn trace_path(options: &Options) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "trace-{}-{}.jsonl",
            options.workload.name(),
            options.seed
        ))
}
