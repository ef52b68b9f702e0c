//! Workload inputs, made from the seed alone: the same seed gives the same
//! inputs, and the program under test only ever sees the generated sources.

use std::collections::HashSet;
use std::sync::Arc;

use cerberus::memory::config::ModelConfig;
use cerberus_gen::{GenConfig, Reference};
use cerberus_litmus::fixtures;
use cerberus_wire::json::Json;
use rand::rngs::StdRng;
use rand::{Rng as _, RngCore as _, SeedableRng as _};

use crate::trace::Tracer;

/// The generator for `seed` and a stream label, so independent draws of one
/// seed do not share a sequence.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// A uniform draw from `[0, 1)`.
pub fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Shuffle `items` in place (Fisher–Yates).
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// What a source's verdicts are checked against.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A golden fixture's `.expect` document (`{"matrix": {model: cell}}`).
    Fixture(Json),
    /// A generated program's independent reference result.
    Reference(Reference),
}

/// One C program with its expected verdicts.
#[derive(Debug)]
pub struct Source {
    /// The fixture name, or `gen-<seed>` for a generated program.
    pub label: String,
    /// The C text.
    pub text: String,
    /// The oracle the verdicts are checked against.
    pub expect: Expect,
}

/// One submission: a source and the models it is run under.
#[derive(Debug, Clone)]
pub struct Input {
    /// The program.
    pub source: Arc<Source>,
    /// The models (a subset of the named models, or all of them).
    pub models: Vec<ModelConfig>,
}

impl Input {
    /// Whether the input names fewer models than the full named set.
    pub fn is_subset(&self) -> bool {
        self.models.len() < ModelConfig::all_named().len()
    }
}

/// Load the golden fixtures with their `.expect` documents, keeping the
/// first `limit` (by fixture order) when given.
pub fn fixture_sources(tracer: &Tracer, limit: Option<usize>) -> Result<Vec<Arc<Source>>, String> {
    let tests = tracer.scope("litmus.catalogue", 0, cerberus_litmus::catalogue);
    let entries = fixtures::discover(&fixtures::fixtures_root());
    if tests.len() != entries.len() {
        return Err(format!(
            "catalogue has {} tests but {} fixture files",
            tests.len(),
            entries.len()
        ));
    }
    let take = limit.unwrap_or(tests.len());
    tests
        .into_iter()
        .zip(entries)
        .take(take)
        .map(|(test, entry)| {
            let text = std::fs::read_to_string(&entry.expect_path)
                .map_err(|e| format!("{}: {e}", entry.expect_path.display()))?;
            let document =
                Json::parse(&text).map_err(|e| format!("{}: {e}", entry.expect_path.display()))?;
            Ok(Arc::new(Source {
                label: test.name,
                text: test.source,
                expect: Expect::Fixture(document),
            }))
        })
        .collect()
}

/// An endless stream of generated programs, each with its reference result,
/// drawn from one seed.
#[derive(Debug, Clone)]
pub struct Programs {
    rng: StdRng,
    config: GenConfig,
}

impl Programs {
    /// The stream of `config`-sized programs for `seed`.
    pub fn new(seed: u64, config: GenConfig) -> Programs {
        Programs {
            rng: rng(seed, 1),
            config,
        }
    }

    /// The next `count` programs.
    pub fn take(&mut self, tracer: &Tracer, count: usize) -> Vec<Arc<Source>> {
        tracer.scope("gen.generate", 0, || {
            (0..count)
                .map(|_| {
                    let program = cerberus_gen::generate(self.rng.next_u64(), self.config);
                    Arc::new(Source {
                        label: format!("gen-{}", program.seed),
                        text: cerberus_gen::to_c_source(&program),
                        expect: Expect::Reference(cerberus_gen::reference_eval(&program)),
                    })
                })
                .collect()
        })
    }
}

// The service mix is an assumption, not a measurement: no traffic log of
// the oracle exists to draw it from. The shares, the cubic skew and the
// two-to-four-model subsets are chosen so that the result cache, the
// elaboration memo and eviction are all exercised; a traffic record, once
// one exists, should replace them.

/// The assumed share of requests that repeat an earlier source.
pub const SERVICE_REPEAT_SHARE: f64 = 0.3;
/// The assumed share of requests that name a subset of the models.
pub const SERVICE_SUBSET_SHARE: f64 = 0.25;

/// The service request mix: a seeded draw over `pool` in which about
/// [`SERVICE_REPEAT_SHARE`] of requests repeat an earlier source (skewed
/// towards the first sources seen, so a few are hot) and about
/// [`SERVICE_SUBSET_SHARE`] name two to four models instead of all ten. A
/// subset request for a source already seen hits the elaboration and
/// analysis memos but misses the result cache.
pub fn service_requests(seed: u64, pool: &[Arc<Source>], count: usize) -> Vec<Input> {
    let mut rng = rng(seed, 2);
    let mut fresh: Vec<usize> = (0..pool.len()).collect();
    shuffle(&mut rng, &mut fresh);
    let mut fresh = fresh.into_iter();
    let mut seen: Vec<usize> = Vec::new();
    let all = ModelConfig::all_named();
    (0..count)
        .map(|_| {
            let repeat = !seen.is_empty() && unit(&mut rng) < SERVICE_REPEAT_SHARE;
            let index = match if repeat { None } else { fresh.next() } {
                Some(index) => {
                    seen.push(index);
                    index
                }
                // A cubed uniform draw skews repeats towards early sources.
                None => seen[(unit(&mut rng).powi(3) * seen.len() as f64) as usize],
            };
            let models = if unit(&mut rng) < SERVICE_SUBSET_SHARE {
                let mut names: Vec<usize> = (0..all.len()).collect();
                shuffle(&mut rng, &mut names);
                let mut chosen = names[..rng.gen_range(2..=4)].to_vec();
                chosen.sort_unstable();
                chosen.into_iter().map(|i| all[i].clone()).collect()
            } else {
                all.clone()
            };
            Input {
                source: Arc::clone(&pool[index]),
                models,
            }
        })
        .collect()
}

/// Due times, in seconds from the start, of `count` requests at `rate` per
/// second: request `i` falls uniformly within its slot `[i, i + 1) / rate`.
/// The jitter keeps the schedule from locking into phase with any periodic
/// loop in the server.
pub fn schedule(seed: u64, count: usize, rate: f64) -> Vec<f64> {
    let mut rng = rng(seed, 4);
    (0..count)
        .map(|i| (i as f64 + unit(&mut rng)) / rate)
        .collect()
}

/// Measured properties of a request list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixProperties {
    /// Requests whose source appeared earlier in the list, as a share.
    pub repeat_share: f64,
    /// Requests naming a model subset, as a share.
    pub subset_share: f64,
    /// Distinct source texts.
    pub distinct_sources: usize,
}

/// Measure the repeat share, subset share and distinct-source count.
pub fn mix_properties(requests: &[Input]) -> MixProperties {
    let mut seen = HashSet::new();
    let mut repeats = 0;
    for input in requests {
        if !seen.insert(input.source.text.as_str()) {
            repeats += 1;
        }
    }
    let n = requests.len().max(1) as f64;
    MixProperties {
        repeat_share: repeats as f64 / n,
        subset_share: requests.iter().filter(|i| i.is_subset()).count() as f64 / n,
        distinct_sources: seen.len(),
    }
}

/// A fingerprint of a request list: equal lists give equal fingerprints.
pub fn fingerprint(requests: &[Input]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    for input in requests {
        input.source.text.hash(&mut hasher);
        for model in &input.models {
            model.name.hash(&mut hasher);
        }
    }
    hasher.finish()
}
