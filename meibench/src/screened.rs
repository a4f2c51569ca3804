//! `serve-screened-250k`: int8-screened serving of a 250,000-entity
//! ComplEx-shaped model mapped from disk: a nominal-rate phase, then a
//! phase at the same rate with a hot swap to a second model halfway, then
//! (traced runs) a ladder of fixed rates.
//! No training or evaluation runs here.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use mei_core::{ModelConfig, MultiEmbedModel, WeightPreset};
use mei_eval::Side;
use mei_kg::{Dictionary, EntityId, RelationId, TripleStore};
use mei_quant::ScreenParams;
use mei_serve::ServeConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::serve::{self, Query, Vocab};
use crate::stats::median;
use crate::{Result, Run};

const ENTITIES: usize = 250_000;
const RELATIONS: usize = 11;
/// ComplEx: n = 2 embeddings of D = 200, so n·D = 400 floats per entity.
const DIM: usize = 200;
/// Two screen threads: one per core of the two-core reference host.
const SCREEN: ScreenParams = ScreenParams {
    screen_k: 1024,
    threads: 2,
};
/// Set-up repetitions (each writes both model files); `setup_s` is their
/// median.
const SETUP_REPS: usize = 3;
/// Nominal open-loop rate, requests per second.
const RATE: f64 = 40.0;
/// Length of the phase that carries the swap, seconds. The swap stalls
/// serving for about a second (mapped checksum plus index build), so it
/// has a phase of its own: in the nominal phase its backlog would decide
/// the median.
const SWAP_PHASE_S: f64 = 6.0;
/// Queries whose exact and screened answers are compared in process.
const RECALL_SAMPLE: usize = 32;
/// Served answers checked byte for byte, before and after the swap.
const CHECK_EACH_SIDE: usize = 24;
const PROBE_SET: usize = 40;

/// The rate ladder searched after the nominal phase: 10 to about 200
/// qps, so that a slow period of a shared host still finds a rate that
/// passes (one such period sustained less than 60 qps).
const LADDER: serve::Ladder = serve::Ladder {
    base: 10.0,
    ratio: 1.045,
    steps: 69,
    step_s: 1.5,
    limit_ms: 50.0,
    share: 0.99,
};

fn random_model(seed: u64) -> MultiEmbedModel {
    let cfg = ModelConfig {
        num_entities: ENTITIES,
        num_relations: RELATIONS,
        n: 2,
        dim: DIM,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    MultiEmbedModel::with_fixed_weights(cfg, WeightPreset::ComplEx.weight_vector(), &mut rng)
}

/// Distinct random queries in a seeded order.
fn queries(seed: u64, count: usize) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let q = Query {
            side: if rng.gen_bool(0.5) {
                Side::Tail
            } else {
                Side::Head
            },
            anchor: EntityId(rng.gen_range(0..ENTITIES as u32)),
            relation: RelationId(rng.gen_range(0..RELATIONS as u32)),
        };
        if seen.insert(q) {
            out.push(q);
        }
    }
    out
}

pub fn run_workload(run: &Run) -> Result<()> {
    let tr = &run.tracer;
    let seed = run.seed;
    let (path_a, path_b) = (run.work_dir.join("a.bin"), run.work_dir.join("b.bin"));
    let mut setups = Vec::new();
    // `setup_s` is end-to-end only: a traced run sets up once.
    let reps = if tr.enabled() { 1 } else { SETUP_REPS };
    for _ in 0..reps {
        let t = Instant::now();
        tr.span("setup", || -> Result<()> {
            for (i, path) in [&path_a, &path_b].into_iter().enumerate() {
                let model = tr.span("core.random_model", || {
                    random_model(seed ^ (0xa11ce + i as u64))
                });
                let bytes = tr.span("serialize.model_to_bytes", || {
                    mei_core::serialize::model_to_bytes(&model)
                });
                drop(model);
                tr.span("setup.write", || std::fs::write(path, &bytes[..]))
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
            Ok(())
        })?;
        setups.push(t.elapsed().as_secs_f64());
    }
    run.metric("setup_s", median(&setups), "s");
    run.note("setup_reps", crate::stats::list(&setups));
    // What the bit-identity gate compares the mapped model with, taken
    // before the memory window opens so the copy stays out of it.
    let written = serve::parameter_digest(&random_model(seed ^ 0xa11ce));

    let vocab = Vocab {
        entities: Dictionary::from_names((0..ENTITIES).map(|i| format!("e{i}"))),
        relations: Dictionary::from_names((0..RELATIONS).map(|i| format!("r{i}"))),
        exclude: TripleStore::new(),
    };
    run.start_memory_window();
    let nominal = (RATE * run.seconds).ceil() as usize;
    let swap_count = (RATE * SWAP_PHASE_S).ceil() as usize;
    let pool = queries(
        seed ^ 0x9e77,
        1 + nominal + swap_count + LADDER.max_requests() + 4 * PROBE_SET,
    );
    let config = ServeConfig {
        screen: Some(SCREEN),
        ..ServeConfig::default()
    };

    let first_vocab = vocab.clone();
    let live = tr.span("pipeline", || {
        serve::bring_up(run, &path_a, first_vocab, config.clone(), pool[0])
    })?;
    run.layer("pipeline.unaccounted_s", 0.0, "s");
    let first_ready_s = live.ready_s;
    {
        let (snap, _) = live.engine.snapshot();
        run.gate(
            "mapped model bit-identical to the written model",
            serve::parameter_digest(&snap.model) == written,
        );
    }
    let live = serve::settle_ready(run, live, &path_a, &vocab, &config, pool[0])?;
    // No training or evaluation: the model file is the ready dataset, so
    // time to serve is the bring-up, the same median as `serve_ready_s`
    // (one bring-up in a traced run).
    run.metric(
        "time_to_serve_s",
        run.metric_value("serve_ready_s").unwrap_or(first_ready_s),
        "s",
    );
    let (snap_a, _) = live.engine.snapshot();

    // Recall of the screen against exact ranking, in process.
    let sample = &pool[1..1 + RECALL_SAMPLE];
    let index_a = snap_a.screen_index();
    let mut recall = Vec::new();
    let mut screened_ms = Vec::new();
    tr.span("probe.recall", || {
        for q in sample {
            let exact = mei_eval::top_k(
                &snap_a.model,
                q.side,
                q.anchor,
                q.relation,
                serve::K,
                &snap_a.exclude,
            );
            let t = Instant::now();
            let got = mei_quant::screened_top_k(
                &snap_a.model,
                &index_a,
                q.side,
                q.anchor,
                q.relation,
                serve::K,
                &snap_a.exclude,
                &SCREEN,
            );
            screened_ms.push(1e3 * t.elapsed().as_secs_f64());
            recall.push(serve::recall_at(&exact, &got, serve::K));
        }
    });
    let recall = recall.iter().sum::<f64>() / recall.len() as f64;
    run.metric("serve_recall_at_10", recall, "ratio");
    run.layer("quant.screened_top_k_ms", median(&screened_ms), "ms");
    run.gate("screened recall@10 >= 0.99", recall >= 0.99);

    // Nominal-rate phase, into a cold cache.
    let requests: Vec<usize> = (1..1 + nominal).collect();
    let phase = tr.span("serve.phase", || {
        serve::drive(tr, &live, &pool, &requests, RATE, &vocab, None)
    })?;
    serve::record_nominal(run, &phase);
    serve::record_phase_layers(run, &live, &phase);

    // The same rate with a wire swap to the second model halfway. The
    // answers expected before the swap are computed first, so the
    // benchmark holds no reference to the first model while the server
    // replaces it.
    let requests: Vec<usize> = (1 + nominal..1 + nominal + swap_count).collect();
    let check: HashSet<usize> = requests
        .iter()
        .take(CHECK_EACH_SIDE)
        .chain(requests.iter().rev().take(CHECK_EACH_SIDE))
        .copied()
        .collect();
    let screened = |snap: &mei_serve::Snapshot, index: &mei_quant::ScreenIndex, q: usize| {
        let q = pool[q];
        mei_quant::screened_top_k(
            &snap.model,
            index,
            q.side,
            q.anchor,
            q.relation,
            serve::K,
            &snap.exclude,
            &SCREEN,
        )
    };
    let before: HashMap<usize, _> = check
        .iter()
        .map(|&q| (q, screened(&snap_a, &index_a, q)))
        .collect();
    drop((snap_a, index_a));
    let phase = tr.span("serve.swap_phase", || {
        serve::drive(tr, &live, &pool, &requests, RATE, &vocab, Some(&path_b))
    })?;
    run.ops(phase.sent.len(), phase.failed);
    run.gate("no failed request around the swap", phase.failed == 0);
    let worst = phase.latencies_ms().into_iter().fold(0.0, f64::max);
    run.layer("serve.swap_stall_ms", worst, "ms");
    run.layer("serve.swap_critical_s", serve::swap_critical_s(&live), "s");
    match &phase.swap {
        Some(swap) => {
            run.layer("serve.swap_s", swap.round_trip_s, "s");
            run.gate("swap installed epoch 1", swap.new_epoch == Some(1));
            let stale = phase
                .answered
                .iter()
                .filter(|a| a.sent > swap.done_at && Some(a.epoch) != swap.new_epoch)
                .count();
            let after = phase
                .answered
                .iter()
                .filter(|a| a.sent > swap.done_at)
                .count();
            run.gate("answers sent after the swap exist", after > 0);
            run.gate(
                "every answer after the swap carries the new epoch",
                stale == 0,
            );
        }
        None => run.gate("swap ran", false),
    }

    // Served answers byte-equal to in-process screened_top_k on the
    // snapshot of the epoch each answer reports.
    let (snap_b, _) = live.engine.snapshot();
    let index_b = snap_b.screen_index();
    let (checked, bad) =
        serve::check_answers(&phase, &check, &vocab.entities, |q, epoch| match epoch {
            0 => before.get(&q).cloned(),
            1 => Some(screened(&snap_b, &index_b, q)),
            _ => None,
        });
    run.gate("served answers checked", checked == check.len());
    run.gate(
        "served top-10 byte-equal to in-process screened_top_k",
        bad == 0,
    );
    drop((snap_b, index_b));

    if !tr.enabled() {
        let mut live = live;
        live.server.shutdown();
        return Ok(());
    }
    let mut next = 1 + nominal + swap_count;
    LADDER.run(run, &live, &pool, &vocab, |count| {
        next += count;
        (next - count..next).collect()
    })?;

    let p = &pool[pool.len() - 4 * PROBE_SET..];
    let sets = [
        &p[..PROBE_SET],
        &p[PROBE_SET..2 * PROBE_SET],
        &p[2 * PROBE_SET..3 * PROBE_SET],
        &p[3 * PROBE_SET..],
    ];
    serve::unloaded_probes(run, &live, sets, &vocab)?;
    let mut live = live;
    live.server.shutdown();
    Ok(())
}
