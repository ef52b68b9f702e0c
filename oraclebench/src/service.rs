//! An open-loop load generator against a live `cerberus-server`.
//!
//! Requests fall due on a fixed schedule regardless of how the service
//! keeps up, and each is timed from when it was due, so a stall also counts
//! against the requests queued behind it. Two threads make the load: this
//! one submits (`POST /api/v0/submit`) and a second polls the submitted jobs
//! (`GET /api/v0/jobs/{id}`) until each is finished. Each request is one
//! connection, so at most two are open at once.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use cerberus_server::client::http_request;
use cerberus_server::json::Json;

use crate::check;
use crate::inputs::Input;
use crate::trace::Tracer;

/// How long the poller keeps waiting for verdicts after the last request
/// was due.
const DRAIN_DEADLINE: Duration = Duration::from_secs(60);

/// What one open-loop run measured.
#[derive(Debug, Default)]
pub struct Load {
    /// Per submitted request, due time until the `202` acknowledgement.
    pub ack_ms: Vec<f64>,
    /// Per finished request, due time until a poll saw it finished.
    pub verdict_ms: Vec<f64>,
    /// Per request, how late the generator started sending it.
    pub late_ms: Vec<f64>,
    /// Per pass of consecutive requests: from the last one's due time until
    /// the pass's last verdict. The spacing of the due times is not part of
    /// it, so the figure is the service's, not the schedule's.
    pub pass_ms: Vec<f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// One message per refused request, failed job or wrong verdict.
    pub failures: Vec<String>,
    /// Job polls made.
    pub polls: u64,
    /// Connections opened (submits plus polls).
    pub connections: u64,
}

/// The body of a submission: the source, plus the model names when the
/// request names a subset.
pub fn submit_body(input: &Input) -> String {
    let mut members = vec![("source", Json::str(&input.source.text))];
    if input.is_subset() {
        let names = input.models.iter().map(|m| Json::str(m.name)).collect();
        members.push(("models", Json::Arr(names)));
    }
    Json::obj(members).encode()
}

/// Drive `requests` against `addr`, request `i` falling due `due_s[i]`
/// seconds after the start. A pass is `per_pass` consecutive requests.
pub fn open_loop(
    addr: &str,
    requests: &[Input],
    due_s: &[f64],
    per_pass: usize,
    tracer: &Tracer,
) -> Load {
    assert_eq!(requests.len(), due_s.len(), "one due time per request");
    if requests.is_empty() {
        return Load::default();
    }
    let bodies: Vec<String> = requests.iter().map(submit_body).collect();
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(due_s[i]);
    let mut load = Load {
        attempted: requests.len() as u64,
        ..Load::default()
    };
    let (tx, rx) = mpsc::channel::<(usize, i128)>();
    let polled = std::thread::scope(|scope| {
        let poller = scope.spawn(|| poll_until_done(addr, requests, &due, rx, tracer));
        for (index, body) in bodies.iter().enumerate() {
            let due_at = due(index);
            let now = Instant::now();
            if now < due_at {
                std::thread::sleep(due_at - now);
            }
            let sent = Instant::now();
            load.late_ms.push((sent - due_at).as_secs_f64() * 1e3);
            let response = http_request(addr, "POST", "/api/v0/submit", Some(body));
            let acked = Instant::now();
            tracer.record("loadgen.submit", index as u64, sent, acked);
            load.connections += 1;
            match response {
                Ok((202, reply)) => match reply.get("job").and_then(Json::as_int) {
                    Some(job) => {
                        load.ack_ms.push((acked - due_at).as_secs_f64() * 1e3);
                        tx.send((index, job))
                            .expect("the poller outlives the submitter");
                    }
                    None => load.failures.push(format!("submit {index}: no job id")),
                },
                Ok((status, reply)) => load.failures.push(format!(
                    "submit {index}: status {status}: {}",
                    reply.encode()
                )),
                Err(error) => load.failures.push(format!("submit {index}: {error}")),
            }
        }
        drop(tx);
        poller.join().expect("poller thread")
    });
    load.polls = polled.polls;
    load.connections += polled.polls;
    load.failures.extend(polled.failures);
    let mut finished: Vec<Option<Instant>> = vec![None; requests.len()];
    for (index, at) in polled.finished {
        load.verdict_ms.push((at - due(index)).as_secs_f64() * 1e3);
        finished[index] = Some(at);
    }
    let per_pass = per_pass.max(1);
    for (p, chunk) in finished.chunks(per_pass).enumerate() {
        if let Some(seen) = chunk.iter().copied().collect::<Option<Vec<Instant>>>() {
            let last_due = due(p * per_pass + chunk.len() - 1);
            let last_seen = seen.into_iter().max().expect("a pass has requests");
            load.pass_ms
                .push(last_seen.saturating_duration_since(last_due).as_secs_f64() * 1e3);
        }
    }
    load
}

#[derive(Debug, Default)]
struct Polled {
    polls: u64,
    failures: Vec<String>,
    finished: Vec<(usize, Instant)>,
}

/// Poll every submitted job in turn until all are finished (or the drain
/// deadline passes), checking each finished job's verdicts.
fn poll_until_done(
    addr: &str,
    requests: &[Input],
    due: &dyn Fn(usize) -> Instant,
    submitted: mpsc::Receiver<(usize, i128)>,
    tracer: &Tracer,
) -> Polled {
    let mut out = Polled::default();
    let deadline = due(requests.len() - 1) + DRAIN_DEADLINE;
    let mut outstanding: Vec<(usize, i128)> = Vec::new();
    loop {
        if outstanding.is_empty() {
            match submitted.recv() {
                Ok(job) => outstanding.push(job),
                Err(_) => break,
            }
        }
        outstanding.extend(submitted.try_iter());
        if Instant::now() > deadline {
            for (index, job) in outstanding.drain(..) {
                out.failures.push(format!(
                    "request {index} (job {job}): no verdict before the deadline"
                ));
            }
            continue;
        }
        outstanding.retain(|&(index, job)| {
            let sent = Instant::now();
            let response = http_request(addr, "GET", &format!("/api/v0/jobs/{job}"), None);
            let seen = Instant::now();
            tracer.record("loadgen.poll", index as u64, sent, seen);
            out.polls += 1;
            let body = match response {
                Ok((200, body)) => body,
                Ok((status, body)) => {
                    out.failures
                        .push(format!("poll {job}: status {status}: {}", body.encode()));
                    return false;
                }
                Err(error) => {
                    out.failures.push(format!("poll {job}: {error}"));
                    return false;
                }
            };
            match body.get("status").and_then(Json::as_str) {
                Some("completed") => {
                    out.finished.push((index, seen));
                    if let Err(failure) = check::verify_wire(&requests[index], &body) {
                        out.failures.push(failure);
                    }
                    false
                }
                Some("failed") => {
                    out.finished.push((index, seen));
                    out.failures
                        .push(format!("job {job} failed: {}", body.encode()));
                    false
                }
                _ => true,
            }
        });
    }
    out
}
