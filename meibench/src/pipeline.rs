//! The two training workloads: generate → train → eval → save →
//! mmap-load → serve, with the sampled trainer (`wn18-negsamp`) or the
//! k-vs-all trainer of the block-term family (`wn18rr-kvsall`).

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mei_core::model::BlockTermShape;
use mei_core::{LossKind, MultiEmbedModel, SamplingStrategy, TrainConfig, Trainer, WeightPreset};
use mei_datagen::{SynthWnConfig, SynthWnRrConfig, SynthWnScale};
use mei_eval::{evaluate_with_stats, EvalConfig, Side};
use mei_kg::{Dataset, Triple, TripleStore};
use mei_obs::{EpochRecord, EvalRecord, TrainObserver};
use mei_serve::ServeConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::serve::{self, Query, Vocab};
use crate::stats::median;
use crate::{Result, Run};

/// Which trainer a pipeline workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    NegSamp,
    KvsAll,
}

/// Fixed shape of one pipeline workload.
struct Spec {
    kind: Kind,
    /// Epochs trained; the first is a warm-up left out of the throughput.
    epochs: usize,
    /// Train triples used (`None` = the whole split).
    train_subset: Option<usize>,
    /// Validation triples the trainer's forced last-epoch check ranks.
    valid_subset: usize,
    /// Test triples ranked by the filtered evaluation.
    test_subset: usize,
    /// Nominal open-loop rate, requests per second.
    rate: f64,
}

const NEGSAMP: Spec = Spec {
    kind: Kind::NegSamp,
    epochs: 2,
    train_subset: None,
    valid_subset: 200,
    test_subset: 500,
    rate: 40.0,
};

const KVSALL: Spec = Spec {
    kind: Kind::KvsAll,
    epochs: 2,
    train_subset: Some(512),
    valid_subset: 100,
    test_subset: 400,
    rate: 40.0,
};
/// Set-up repeats at least this many times and for at least
/// `SETUP_MIN_S` seconds in all; `setup_s` is the median.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 2.0;
/// Distinct queries per unloaded probe set.
const PROBE_SET: usize = 40;
/// Sampled queries whose served answers are checked byte for byte.
const CHECK_SAMPLE: usize = 48;

/// What set-up produces: the dataset the trainer sees, the vocabularies
/// and filter, the test subset, and the serving query pools.
struct Inputs {
    num_entities: usize,
    train: Dataset,
    vocab: Vocab,
    test: Vec<Triple>,
    /// Serving query pool; requests index into it.
    pool: Vec<Query>,
    /// Request sequence of the nominal phase (indices into `pool`).
    requests: Vec<usize>,
    /// Four disjoint probe sets, none of them in `requests`.
    probes: [Vec<Query>; 4],
}

/// The program's set-up work: generate the dataset and build the filter
/// index. Repeated (see `SETUP_REPS`); `setup_s` is the median and the
/// last result is kept.
fn generate(run: &Run, spec: &Spec) -> (Dataset, TripleStore) {
    let (seed, tr) = (run.seed, &run.tracer);
    let mut setups = Vec::new();
    let mut made = None;
    // `setup_s` is end-to-end only: a traced run sets up once.
    let done = |setups: &[f64]| {
        tr.enabled() || (setups.len() >= SETUP_REPS && setups.iter().sum::<f64>() >= SETUP_MIN_S)
    };
    while made.is_none() || !done(&setups) {
        drop(made.take());
        let t = Instant::now();
        made = Some(tr.span("setup", || {
            let t = Instant::now();
            let full = tr.span("datagen.generate", || dataset(spec.kind, seed));
            run.layer("datagen.generate_s", t.elapsed().as_secs_f64(), "s");
            let t = Instant::now();
            let filter = tr.span("kg.filter_store", || full.filter_store());
            run.layer("kg.filter_store_s", t.elapsed().as_secs_f64(), "s");
            (full, filter)
        }));
        setups.push(t.elapsed().as_secs_f64());
    }
    run.metric("setup_s", median(&setups), "s");
    run.note("setup_reps", crate::stats::list(&setups));
    made.expect("set-up ran")
}

fn dataset(kind: Kind, seed: u64) -> Dataset {
    match kind {
        Kind::NegSamp => SynthWnConfig::at_scale(SynthWnScale::Full, seed).generate(),
        Kind::KvsAll => SynthWnRrConfig {
            num_entities: 40_943,
            num_triples: 93_000,
            valid_fraction: 0.035,
            test_fraction: 0.035,
            seed,
        }
        .generate(),
    }
}

/// Derives the trainer's dataset, the test subset and the query pools from
/// the generated data; seeded, not timed.
fn inputs(run: &Run, spec: &Spec, full: Dataset, filter: TripleStore) -> Inputs {
    let seed = run.seed;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0001);
    let pick = |v: &[Triple], n: usize, rng: &mut StdRng| -> Vec<Triple> {
        let mut v = v.to_vec();
        v.shuffle(rng);
        v.truncate(n);
        v
    };
    let mut train = Dataset {
        entities: full.entities.clone(),
        relations: full.relations.clone(),
        train: full.train.clone(),
        valid: pick(&full.valid, spec.valid_subset, &mut rng),
        test: Vec::new(),
    };
    if let Some(n) = spec.train_subset {
        train.train = pick(&full.train, n, &mut rng);
    }
    let test = pick(&full.test, spec.test_subset, &mut rng);

    // Serving queries, deduplicated: the test split's in a seeded order,
    // then the train split's. Index 0 answers the bring-ups, the next
    // 4 × PROBE_SET feed the unloaded probes, and the nominal phase draws
    // from the rest.
    let mut seen = HashSet::new();
    let mut pool: Vec<Query> = Vec::new();
    for split in [&full.test, &full.train] {
        let mut queries: Vec<Query> = split
            .iter()
            .flat_map(both_sides)
            .filter(|q| seen.insert(*q))
            .collect();
        queries.shuffle(&mut rng);
        pool.extend(queries);
    }
    let count = (spec.rate * run.seconds).ceil() as usize;
    let probe = |i: usize| pool[1 + i * PROBE_SET..1 + (i + 1) * PROBE_SET].to_vec();
    let probes = [probe(0), probe(1), probe(2), probe(3)];
    let used = 1 + 4 * PROBE_SET;
    let requests: Vec<usize> = match spec.kind {
        // All distinct test queries: the result cache cannot help.
        Kind::NegSamp => (used..used + count).collect(),
        // Each request asks one side of a triple drawn uniformly from the
        // graph, so a query recurs in proportion to its number of true
        // answers in the data; a repeat is a cache hit. Queries held back
        // for the bring-ups and the probes are redrawn.
        Kind::KvsAll => {
            let index: HashMap<Query, usize> =
                pool.iter().enumerate().map(|(i, q)| (*q, i)).collect();
            let graph: Vec<&Triple> = full.test.iter().chain(&full.train).collect();
            let mut requests = Vec::with_capacity(count);
            while requests.len() < count {
                let sides = both_sides(graph[rng.gen_range(0..graph.len())]);
                let i = index[&sides[rng.gen_range(0..2usize)]];
                if i >= used {
                    requests.push(i);
                }
            }
            requests
        }
    };
    Inputs {
        num_entities: full.num_entities(),
        train,
        vocab: Vocab {
            entities: full.entities,
            relations: full.relations,
            exclude: filter,
        },
        test,
        pool,
        requests,
        probes,
    }
}

/// The tail and the head query a triple answers.
fn both_sides(t: &Triple) -> [Query; 2] {
    [
        Query {
            side: Side::Tail,
            anchor: t.head,
            relation: t.relation,
        },
        Query {
            side: Side::Head,
            anchor: t.tail,
            relation: t.relation,
        },
    ]
}

/// Records every epoch and validation callback with the instant it came.
#[derive(Default)]
struct EpochClock {
    epochs: Mutex<Vec<(Instant, EpochRecord)>>,
    evals: Mutex<Vec<(Instant, EvalRecord)>>,
}

impl TrainObserver for EpochClock {
    fn on_epoch(&self, record: &EpochRecord) {
        self.epochs
            .lock()
            .expect("epoch log")
            .push((Instant::now(), record.clone()));
    }
    fn on_eval(&self, record: &EvalRecord) {
        self.evals
            .lock()
            .expect("eval log")
            .push((Instant::now(), record.clone()));
    }
}

fn model_for(spec: &Spec, ds: &Dataset, seed: u64) -> MultiEmbedModel {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x30de1);
    match spec.kind {
        Kind::NegSamp => MultiEmbedModel::from_preset(
            WeightPreset::ComplEx,
            ds.num_entities(),
            ds.num_relations(),
            200,
            &mut rng,
        ),
        Kind::KvsAll => MultiEmbedModel::block_term(
            ds.num_entities(),
            ds.num_relations(),
            BlockTermShape { k: 2, ce: 2, cr: 2 },
            100,
            0.5,
            &mut rng,
        ),
    }
}

fn train_config(spec: &Spec, seed: u64) -> TrainConfig {
    let base = TrainConfig {
        max_epochs: spec.epochs,
        eval_every: spec.epochs,
        patience: spec.epochs,
        threads: 0,
        seed,
        ..TrainConfig::default()
    };
    match spec.kind {
        Kind::NegSamp => TrainConfig {
            batch_size: 4096,
            learning_rate: 1e-2,
            negatives_per_positive: 1,
            sampling: SamplingStrategy::Uniform,
            loss: LossKind::Logistic,
            unit_norm_entities: true,
            ..base
        },
        Kind::KvsAll => TrainConfig {
            batch_size: 512,
            learning_rate: 3e-3,
            sampling: SamplingStrategy::KvsAll,
            loss: LossKind::SoftmaxCrossEntropy { label_smooth: 0.1 },
            dropout: 0.1,
            input_dropout: 0.1,
            batch_norm: true,
            ..base
        },
    }
}

pub fn run_workload(run: &Run, kind: Kind) -> Result<()> {
    let spec = match kind {
        Kind::NegSamp => &NEGSAMP,
        Kind::KvsAll => &KVSALL,
    };
    let tr = &run.tracer;

    let (full, filter) = generate(run, spec);
    let inputs = inputs(run, spec, full, filter);
    run.start_memory_window();
    let seed = run.seed;
    let mut model = model_for(spec, &inputs.train, seed);
    let clock = Arc::new(EpochClock::default());
    let trainer = Trainer::new(train_config(spec, seed))
        .with_observer(Arc::clone(&clock) as Arc<dyn TrainObserver>);
    let path = run.work_dir.join("model.bin");

    // The timed pipeline: dataset ready → first served answer. The server
    // takes over its own copy of the vocabularies, made before the clock
    // starts.
    let vocab = inputs.vocab.clone();
    let t0 = Instant::now();
    let (stats, filtered, [train_s, eval_s, save_s], live) = tr.span("pipeline", || {
        let t = Instant::now();
        tr.span("trainer.train", || {
            trainer.train(&mut model, &inputs.train, &inputs.vocab.exclude)
        });
        let train_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (_, filtered, stats) = tr.span("eval.rank", || {
            evaluate_with_stats(
                &model,
                &inputs.test,
                &inputs.vocab.exclude,
                &EvalConfig::default(),
            )
        });
        let eval_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        tr.span("serialize.save", || {
            mei_core::serialize::save_model(&model, &path)
        })
        .map_err(|e| format!("save_model: {e}"))?;
        let save_s = t.elapsed().as_secs_f64();
        let live = serve::bring_up(run, &path, vocab, ServeConfig::default(), inputs.pool[0])?;
        Ok::<_, String>((stats, filtered, [train_s, eval_s, save_s], live))
    })?;
    let time_to_serve = live.first_answer_at.duration_since(t0).as_secs_f64();
    run.metric("time_to_serve_s", time_to_serve, "s");
    // The pipeline's steps run back to back, so this gap is the time no
    // timed step covers.
    let unaccounted = time_to_serve - (train_s + eval_s + save_s + live.ready_s);
    run.layer("pipeline.unaccounted_s", unaccounted, "s");
    run.layer("trainer.train_s", train_s, "s");
    run.layer("serialize.save_s", save_s, "s");
    run.layer(
        "serialize.model_bytes",
        std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64),
        "bytes",
    );
    record_training(
        run,
        kind,
        &clock,
        t0,
        inputs.train.train.len(),
        inputs.num_entities,
    )?;
    run.layer("eval.rank_s", eval_s, "s");
    run.layer("eval.queries", stats.queries as f64, "count");
    run.layer("eval.tie_rate", stats.tie_rate, "ratio");
    run.layer("eval_queries_per_s", stats.queries as f64 / eval_s, "1/s");
    run.layer("test_mrr", filtered.mrr, "mrr");
    run.set_test_mrr(filtered.mrr);

    // Gate: the mapped model carries exactly the trained parameters.
    let (snap, _) = live.engine.snapshot();
    run.gate(
        "mapped model bit-identical to the trained model",
        serve::parameter_digest(&model) == serve::parameter_digest(&snap.model),
    );
    drop(snap);
    drop(model);
    let live = serve::settle_ready(
        run,
        live,
        &path,
        &inputs.vocab,
        &ServeConfig::default(),
        inputs.pool[0],
    )?;

    // Nominal-rate open-loop phase, into a cold cache.
    let phase = tr.span("serve.phase", || {
        serve::drive(
            tr,
            &live,
            &inputs.pool,
            &inputs.requests,
            spec.rate,
            &inputs.vocab,
            None,
        )
    })?;
    serve::record_nominal(run, &phase);
    serve::record_phase_layers(run, &live, &phase);

    // Gate: served top-10 byte-equal to in-process top_k on the same
    // snapshot, for a fixed sample of the queries sent.
    let (snap, _) = live.engine.snapshot();
    let check: HashSet<usize> = inputs.requests.iter().copied().take(CHECK_SAMPLE).collect();
    let (checked, bad) = serve::check_answers(&phase, &check, &inputs.vocab.entities, |q, _| {
        let q = inputs.pool[q];
        Some(mei_eval::top_k(
            &snap.model,
            q.side,
            q.anchor,
            q.relation,
            serve::K,
            &snap.exclude,
        ))
    });
    drop(snap);
    run.gate("served answers checked", checked >= check.len());
    run.gate("served top-10 byte-equal to in-process top_k", bad == 0);
    // Exact serving: the served top-10 is the exact top-10 (the gate above
    // checks it), so recall@10 is 1 by construction here. Only the
    // screened workload measures it.
    run.metric("serve_recall_at_10", 1.0, "ratio");

    if !tr.enabled() {
        let mut live = live;
        live.server.shutdown();
        return Ok(());
    }
    let [a, b, c, d] = &inputs.probes;
    serve::unloaded_probes(run, &live, [a, b, c, d], &inputs.vocab)?;
    let mut live = live;
    live.server.shutdown();
    Ok(())
}

/// Train numbers from the observer's own clock: each epoch spans the gap
/// between two `on_epoch` callbacks, minus the validation pass it
/// contains. The first epoch is a warm-up and stays out of the rates.
fn record_training(
    run: &Run,
    kind: Kind,
    clock: &EpochClock,
    t0: Instant,
    positives: usize,
    num_entities: usize,
) -> Result<()> {
    let tr = &run.tracer;
    let epochs = clock.epochs.lock().expect("epoch log").clone();
    let evals = clock.evals.lock().expect("eval log").clone();
    if epochs.len() < 2 {
        return Err(format!("trainer reported {} epochs, need 2", epochs.len()));
    }
    let mut prev = t0;
    let mut train_s = Vec::new();
    let parent = tr.last("trainer.train");
    for (at, rec) in &epochs {
        let span = tr.record("trainer.epoch", prev, *at, parent, None);
        let mut valid = 0.0;
        for (eat, e) in evals.iter().filter(|(_, e)| e.epoch == rec.epoch) {
            let start = *eat - std::time::Duration::from_secs_f64(e.wall_secs);
            tr.record("trainer.valid", start, *eat, span, None);
            valid += e.wall_secs;
        }
        train_s.push(at.duration_since(prev).as_secs_f64() - valid);
        prev = *at;
    }
    let timed = &train_s[1..];
    let rate = positives as f64 * timed.len() as f64 / timed.iter().sum::<f64>();
    run.layer("train_triples_per_s", rate, "triples/s");
    run.layer("trainer.epoch_s", median(timed), "s");
    run.layer("trainer.first_epoch_s", train_s[0], "s");
    run.layer(
        "trainer.valid_s",
        evals.iter().map(|(_, e)| e.wall_secs).sum(),
        "s",
    );
    let phases: Vec<_> = epochs[1..].iter().map(|(_, r)| r.phases).collect();
    let per_epoch = |f: fn(&mei_obs::PhaseBreakdown) -> f64| {
        phases.iter().map(f).sum::<f64>() / phases.len() as f64
    };
    run.layer("trainer.sampling_s", per_epoch(|p| p.sampling), "s");
    run.layer("grads.forward_s", per_epoch(|p| p.forward), "s");
    run.layer("grads.merge_s", per_epoch(|p| p.merge), "s");
    run.layer("grads.backward_s", per_epoch(|p| p.backward), "s");
    run.layer("optim.step_s", per_epoch(|p| p.step + p.project), "s");
    if kind == Kind::KvsAll {
        // Every k-vs-all group scores all |E| candidates.
        let groups: usize = epochs[1..].iter().map(|(_, r)| r.examples).sum();
        let busy: f64 = phases.iter().map(|p| p.forward + p.backward).sum();
        let scores = groups as f64 * num_entities as f64;
        run.layer(
            "grads.candidate_scores_per_s",
            scores / busy.max(f64::MIN_POSITIVE),
            "1/s",
        );
    }
    Ok(())
}
