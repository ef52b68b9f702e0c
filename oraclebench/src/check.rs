//! Verdict checks: every observed cell is compared against the fixture's
//! `.expect` document or the generated program's reference result.

use cerberus::exec::driver::{ExecResult, ProgramOutcome};
use cerberus::memory::config::ModelConfig;
use cerberus::RunOutcome;
use cerberus_litmus::fixtures::{diff_expectations, expectation_document};
use cerberus_queue::JobOutcome;
use cerberus_wire::json::Json;
use cerberus_wire::outcome::program_outcome_to_json;

use crate::inputs::{Expect, Input};

/// The expectation document for the input's models only.
fn expected_document(input: &Input) -> Json {
    let cells = input.models.iter().map(|model| {
        let cell = match &input.source.expect {
            Expect::Fixture(document) => document
                .get("matrix")
                .and_then(|matrix| matrix.get(model.name))
                .cloned()
                .unwrap_or(Json::Null),
            Expect::Reference(reference) => program_outcome_to_json(&ProgramOutcome {
                result: ExecResult::Return(reference.exit),
                stdout: format!("checksum={}\n", reference.checksum),
            }),
        };
        (model.name, cell)
    });
    Json::obj([("matrix", Json::obj(cells))])
}

/// Compare an observed `{"matrix": {model: cell}}` document with the input's
/// expectation; the error lists every differing cell.
pub fn verify_document(input: &Input, actual: &Json) -> Result<(), String> {
    let diffs = diff_expectations(&expected_document(input), actual);
    if diffs.is_empty() {
        return Ok(());
    }
    let cells: Vec<String> = diffs.iter().map(ToString::to_string).collect();
    Err(format!(
        "wrong verdict for {}:\n  {}",
        input.source.label,
        cells.join("\n  ")
    ))
}

/// Check a queue job's outcome.
pub fn verify_outcome(input: &Input, outcome: &JobOutcome) -> Result<(), String> {
    match outcome {
        JobOutcome::Matrix(matrix) => verify_document(input, &expectation_document(matrix)),
        other => Err(format!("job for {} failed: {other:?}", input.source.label)),
    }
}

/// Check per-model outcomes of direct executions, in the input's model order.
pub fn verify_runs(input: &Input, runs: &[(&ModelConfig, RunOutcome)]) -> Result<(), String> {
    let cells = runs.iter().map(|(model, run)| {
        let cell = run
            .outcomes
            .first()
            .map_or(Json::Null, program_outcome_to_json);
        (model.name, cell)
    });
    verify_document(input, &Json::obj([("matrix", Json::obj(cells))]))
}

/// Check the `result` member of a finished `GET /api/v0/jobs/{id}` body.
pub fn verify_wire(input: &Input, body: &Json) -> Result<(), String> {
    let rows = body
        .get("result")
        .and_then(|result| result.get("rows"))
        .and_then(Json::as_array)
        .ok_or_else(|| format!("job for {} has no result rows", input.source.label))?;
    let cells = rows.iter().filter_map(|row| {
        let model = row.get("model")?.as_str()?.to_owned();
        let cell = row
            .get("outcomes")
            .and_then(Json::as_array)
            .and_then(|outcomes| outcomes.first())
            .cloned()
            .unwrap_or(Json::Null);
        Some((model, cell))
    });
    verify_document(input, &Json::obj([("matrix", Json::obj(cells))]))
}
