//! The traced run: spans around each call into a layer's public function,
//! over the same inputs the workload's untraced run uses.
//!
//! The queue and the server call the front end and the engines internally,
//! where the benchmark cannot place a span. So the front-end and execution
//! layers are timed by a *staged pass*: the workload's inputs run through
//! `Session::parse`, `Parsed::desugar`, `Desugared::elaborate` and, per
//! model, `Elaborated::execute_bounded` and the same run inline through
//! `Elaborated::driver(..).run(..)`, on one thread. The queue, analysis,
//! server and wire layers are timed around their own public entry points.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cerberus::core_lang::pretty::expr_to_string;
use cerberus::memory::config::EngineKind;
use cerberus::pipeline::{Config, Session};
use cerberus_queue::{JobOutcome, JobQueue};
use cerberus_server::http::Request;
use cerberus_server::{render, ServerConfig};

use crate::inputs::Input;
use crate::service;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::{batch, check, SERVICE_PASS_REQUESTS};

/// What the staged passes measured, per pass.
#[derive(Debug, Default)]
pub struct Staged {
    /// Self time per layer per traced pass, in milliseconds.
    pub layer_ms: Vec<(&'static str, f64)>,
    /// Durations of the traced passes.
    pub traced_ms: Vec<f64>,
    /// Durations of the untraced passes of the same code.
    pub untraced_ms: Vec<f64>,
    /// Executions per pass.
    pub runs: u64,
    /// Executions per pass that ran out of a resource budget.
    pub budget_exhausted: u64,
    /// Summed length of the printed Core procedures, per pass.
    pub core_chars: u64,
    /// Verdicts checked.
    pub attempted: u64,
    /// Wrong verdicts, front-end rejections and inline/bounded mismatches.
    pub failures: Vec<String>,
}

/// The layer spans of a staged pass, in pipeline order.
pub const STAGED_LAYERS: [&str; 6] = [
    "parser",
    "ail",
    "elab",
    "exec.bounded",
    "exec.inline.concrete",
    "exec.inline.symbolic",
];

/// One cold staged pass that is not counted, then pairs of untraced and
/// traced passes for `budget` (at least two pairs), on one thread whose
/// stack fits the interpreter's call-depth budget. The pairs alternate
/// which of the two runs first, so neither always finds the caches warm.
pub fn staged(inputs: &[Input], budget: Duration, tracer: &Tracer) -> Staged {
    // The inline runs recurse as deep as the bounded ones; double their
    // stack leaves room for the pass's own frames.
    let stack = Config::default().limits.host_stack_bytes() * 2;
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("oraclebench-staged".to_owned())
            .stack_size(stack)
            .spawn_scoped(scope, || staged_on_this_thread(inputs, budget, tracer))
            .expect("spawning the staged-pass thread")
            .join()
            .expect("staged-pass thread")
    })
}

fn staged_on_this_thread(inputs: &[Input], budget: Duration, tracer: &Tracer) -> Staged {
    let untraced = Tracer::new(false);
    let mut out = Staged::default();
    let cold = staged_pass(inputs, &untraced, 0);
    out.attempted += inputs.len() as u64;
    out.failures.extend(cold.3);
    let start = Instant::now();
    let mut round = 0usize;
    while round < 2 || start.elapsed() < budget {
        let order = if round.is_multiple_of(2) {
            [false, true]
        } else {
            [true, false]
        };
        for traced in order {
            let pass = staged_pass(inputs, if traced { tracer } else { &untraced }, round);
            if traced {
                out.traced_ms.push(pass.0);
            } else {
                out.untraced_ms.push(pass.0);
            }
            out.runs = pass.1;
            out.budget_exhausted = pass.2;
            out.attempted += inputs.len() as u64;
            out.failures.extend(pass.3);
        }
        round += 1;
    }
    // Staged-pass span names are used by no other phase of the run.
    let totals = Tracer::self_times(&tracer.spans());
    let passes = out.traced_ms.len() as f64;
    out.layer_ms = STAGED_LAYERS
        .iter()
        .chain(&["check", "pass"])
        .map(|name| (*name, totals.get(name).copied().unwrap_or(0.0) / passes))
        .collect();
    out.core_chars = core_chars(inputs);
    out
}

/// One staged pass: (duration ms, executions, budget exhaustions, failures).
/// Whether a model's bounded or inline run goes first alternates from run to
/// run and from `round` to round, so neither always runs on warm caches.
fn staged_pass(inputs: &[Input], tracer: &Tracer, round: usize) -> (f64, u64, u64, Vec<String>) {
    let session = Session::default();
    let config = Config::default();
    let (mut runs, mut exhausted, mut failures) = (0, 0, Vec::new());
    let start = Instant::now();
    tracer.scope("pass", 0, || {
        for (index, input) in inputs.iter().enumerate() {
            let request = index as u64;
            let text = &input.source.text;
            let front = tracer
                .scope("parser", request, || session.parse(text))
                .and_then(|parsed| tracer.scope("ail", request, || parsed.desugar()));
            let desugared = match front {
                Ok(desugared) => desugared,
                Err(error) => {
                    failures.push(format!("{} rejected: {error}", input.source.label));
                    continue;
                }
            };
            let program = tracer.scope("elab", request, || desugared.elaborate());
            let mut observed = Vec::with_capacity(input.models.len());
            for model in &input.models {
                let engine = match model.engine {
                    EngineKind::Symbolic => "exec.inline.symbolic",
                    _ => "exec.inline.concrete",
                };
                let bounded = || {
                    tracer.scope("exec.bounded", request, || {
                        program.execute_bounded(model, config.mode, &config.limits)
                    })
                };
                let inline = || {
                    tracer.scope(engine, request, || {
                        program
                            .driver(model)
                            .with_limits(config.limits.clone())
                            .run(config.mode)
                    })
                };
                let (bounded, inline) = if (runs as usize + round).is_multiple_of(2) {
                    let bounded = bounded();
                    (bounded, inline())
                } else {
                    let inline = inline();
                    (bounded(), inline)
                };
                if inline != bounded.outcomes {
                    failures.push(format!(
                        "{} under {}: inline run differs from the bounded run",
                        input.source.label, model.name
                    ));
                }
                runs += 1;
                exhausted += u64::from(bounded.any_budget_exhaustion());
                observed.push((model, bounded));
            }
            if let Err(failure) =
                tracer.scope("check", request, || check::verify_runs(input, &observed))
            {
                failures.push(failure);
            }
        }
    });
    (
        start.elapsed().as_secs_f64() * 1e3,
        runs,
        exhausted,
        failures,
    )
}

/// The summed length of every printed Core procedure body over the inputs.
fn core_chars(inputs: &[Input]) -> u64 {
    let session = Session::default();
    inputs
        .iter()
        .filter_map(|input| session.elaborate(&input.source.text).ok())
        .map(|program| {
            program
                .core()
                .procs
                .values()
                .map(|proc| expr_to_string(&proc.body).len() as u64)
                .sum::<u64>()
        })
        .sum()
}

/// What the analysis passes measured.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Time to analyse every input on a cold session (median of `repeats`).
    pub ms: f64,
    /// Branch arms explored, over the distinct sources.
    pub paths_explored: u64,
    /// Branch arms pruned as infeasible.
    pub paths_pruned: u64,
    /// Constraint-solver queries issued.
    pub solver_queries: u64,
    /// Of those, answered from the solver's memo.
    pub solver_memo_hits: u64,
    /// Abstract steps consumed.
    pub steps_used: u64,
    /// Inputs the front end rejected.
    pub failures: Vec<String>,
}

/// `Session::analyze` over every input, on a fresh session each repeat.
/// Counters are summed over the distinct reports (a repeated source returns
/// the memoised report).
pub fn analysis(inputs: &[Input], repeats: usize, tracer: &Tracer) -> Analysis {
    let mut out = Analysis::default();
    let mut times = Vec::new();
    for repeat in 0..repeats.max(1) {
        let session = Session::default();
        let mut counted = HashSet::new();
        let start = Instant::now();
        for (index, input) in inputs.iter().enumerate() {
            let report = tracer.scope("analysis", index as u64, || {
                session.analyze(&input.source.text)
            });
            match report {
                Ok(report) if repeat == 0 && counted.insert(Arc::as_ptr(&report)) => {
                    out.paths_explored += report.paths_explored as u64;
                    out.paths_pruned += report.paths_pruned as u64;
                    out.solver_queries += report.solver_queries;
                    out.solver_memo_hits += report.solver_memo_hits;
                    out.steps_used += report.steps_used as u64;
                }
                Ok(_) => {}
                Err(error) if repeat == 0 => out
                    .failures
                    .push(format!("{} rejected: {error}", input.source.label)),
                Err(_) => {}
            }
        }
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    out.ms = median(&times);
    out
}

/// What the queue passes measured.
#[derive(Debug, Default)]
pub struct Queue {
    /// Per job over all passes, submission until `wait` returned.
    pub job_ms: Vec<f64>,
    /// Per pass, as the untraced run times it.
    pub pass_ms: Vec<f64>,
    /// Per pass, processor time.
    pub pass_cpu_ms: Vec<f64>,
    /// Result-cache hits over lookups (last pass).
    pub result_hit_ratio: f64,
    /// Elaboration-memo hits over lookups (last pass).
    pub elab_hit_ratio: f64,
    /// Jobs stolen between workers (last pass).
    pub stolen: u64,
    /// Deepest queue seen over all passes.
    pub max_depth: usize,
    /// Rendering every matrix to JSON text, per pass.
    pub render_ms: f64,
    /// Mean rendered matrix size in KiB.
    pub response_kb: f64,
    /// Verdicts checked.
    pub attempted: u64,
    /// Wrong verdicts and failed jobs.
    pub failures: Vec<String>,
}

/// Batch passes on fresh queues with the depth sampled, then the wire
/// rendering of the last pass's matrices.
pub fn queue(inputs: &[Input], workers: usize, passes: usize, tracer: &Tracer) -> Queue {
    let mut out = Queue::default();
    let mut last = None;
    for _ in 0..passes.max(1) {
        let pass = batch::pass(inputs, workers, true, tracer);
        out.job_ms.extend(&pass.verdict_ms);
        out.pass_ms.push(pass.pass_ms);
        out.pass_cpu_ms.push(pass.cpu_ms);
        out.max_depth = out.max_depth.max(pass.max_depth);
        out.attempted += inputs.len() as u64;
        out.failures.extend(pass.failures.iter().cloned());
        last = Some(pass);
    }
    let pass = last.expect("at least one pass");
    let ratio = |hits: u64, lookups: u64| hits as f64 / lookups.max(1) as f64;
    let result = pass.stats.result_cache;
    let elab = pass.stats.elaboration_cache;
    out.result_hit_ratio = ratio(result.hits, result.lookups());
    out.elab_hit_ratio = ratio(elab.hits, elab.lookups());
    out.stolen = pass.stats.workers.iter().map(|w| w.stolen).sum();
    let start = Instant::now();
    let mut bytes = Vec::new();
    for (index, outcome) in pass.outcomes.iter().enumerate() {
        if let JobOutcome::Matrix(matrix) = outcome {
            let text = tracer.scope("wire.render", index as u64, || {
                render::matrix_to_json(matrix).encode()
            });
            bytes.push(text.len() as f64);
        }
    }
    out.render_ms = start.elapsed().as_secs_f64() * 1e3;
    out.response_kb = bytes.iter().sum::<f64>() / bytes.len().max(1) as f64 / 1024.0;
    out
}

/// What the server probe measured.
#[derive(Debug, Default)]
pub struct ServerProbe {
    /// `GET /api/v0/models` round trips.
    pub rtt_ms: Vec<f64>,
    /// In-process `handle_request` on each input's submit body.
    pub handle_ms: Vec<f64>,
    /// The open-loop run against the live server.
    pub load: service::Load,
    /// Submit bodies `handle_request` did not accept.
    pub failures: Vec<String>,
}

/// In-process handling of each request's submit body, round trips, then an
/// open loop over `requests` due at `due_s` against a fresh server.
pub fn server(
    requests: &[Input],
    due_s: &[f64],
    workers: usize,
    tracer: &Tracer,
) -> Result<ServerProbe, String> {
    let mut out = ServerProbe::default();
    let limits = ServerConfig::default().default_limits;
    let queue = JobQueue::start(workers);
    for (index, input) in requests.iter().enumerate() {
        let request = Request {
            method: "POST".to_owned(),
            path: "/api/v0/submit".to_owned(),
            headers: Vec::new(),
            body: service::submit_body(input).into_bytes(),
        };
        let start = Instant::now();
        let (status, _) = tracer.scope("server.handle", index as u64, || {
            cerberus_server::handle_request(&queue, &limits, &request)
        });
        out.handle_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if status != 202 {
            out.failures.push(format!(
                "handle_request answered {status} for {}",
                input.source.label
            ));
        }
    }
    queue.shutdown();
    let live = crate::start_server(workers)?;
    let addr = live.local_addr().to_string();
    for index in 0..20 {
        let start = Instant::now();
        let response = cerberus_server::client::http_request(&addr, "GET", "/api/v0/models", None);
        let end = Instant::now();
        tracer.record("server.rtt", index, start, end);
        match response {
            Ok((200, _)) => out.rtt_ms.push((end - start).as_secs_f64() * 1e3),
            other => out.failures.push(format!("GET /api/v0/models: {other:?}")),
        }
    }
    out.load = service::open_loop(&addr, requests, due_s, SERVICE_PASS_REQUESTS, tracer);
    live.shutdown();
    Ok(out)
}

/// Format a layer's share line for the human-readable report.
pub fn share_line(name: &str, ms: f64, pass_ms: f64) -> String {
    format!(
        "  {name:<22} {ms:>10.3} ms/pass  {:>5.1}%",
        100.0 * ms / pass_ms.max(f64::MIN_POSITIVE)
    )
}

/// The median and tail of samples, for the human-readable report.
pub fn summary_note(name: &str, unit: &str, samples: &[f64]) -> String {
    let s = Summary::of(samples);
    format!(
        "  {name}: p50 {:.3} {unit}, tail p{:.1} {:.3} {unit} (n={})",
        s.p50, s.tail_pct, s.tail, s.n
    )
}
