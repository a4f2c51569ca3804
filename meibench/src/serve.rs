//! Serving harness shared by every workload: bring a model file up behind
//! the epoll server, drive it open-loop, check its answers, and read the
//! per-layer numbers the serving stack already exposes.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use mei_core::MultiEmbedModel;
use mei_eval::Side;
use mei_kg::{Dictionary, EntityId, RelationId, TripleStore};
use mei_obs::json::{self, build, JsonValue};
use mei_serve::{Engine, ServeConfig, Server, Snapshot};

use crate::loadgen::{self, Req, Sent};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{Result, Run};

/// One top-k question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Query {
    pub side: Side,
    pub anchor: EntityId,
    pub relation: RelationId,
}

pub const K: usize = 10;

impl Query {
    /// The wire line asking this query by name, tagged with `id`.
    pub fn line(&self, vocab: &Vocab, id: u64) -> String {
        let (entities, relations) = (&vocab.entities, &vocab.relations);
        let side = match self.side {
            Side::Tail => "tail",
            Side::Head => "head",
        };
        build::obj([
            ("op", build::str("predict")),
            ("side", build::str(side)),
            (
                "anchor",
                build::str(entities.name(self.anchor.0).expect("anchor in vocabulary")),
            ),
            (
                "relation",
                build::str(
                    relations
                        .name(self.relation.0)
                        .expect("relation in vocabulary"),
                ),
            ),
            ("k", build::int(K)),
            ("id", build::int(id as usize)),
        ])
        .to_json()
    }
}

/// The `"results"` array a correct server sends for `answer`, rendered
/// the way the wire layer renders it.
pub fn results_json(entities: &Dictionary, answer: &[(EntityId, f32)]) -> String {
    JsonValue::Arr(
        answer
            .iter()
            .map(|&(e, score)| {
                build::obj([
                    ("entity", build::str(entities.name(e.0).unwrap_or("?"))),
                    ("id", build::int(e.idx())),
                    ("score", build::num(score as f64)),
                ])
            })
            .collect(),
    )
    .to_json()
}

/// The raw bytes of a response's `"results"` array (results hold objects
/// only, so the first `]` closes the array).
pub fn raw_results(line: &str) -> Option<&str> {
    let start = line.find("\"results\":[")? + "\"results\":".len();
    let end = start + line[start..].find(']')?;
    Some(&line[start..=end])
}

/// A running server plus the timings of bringing it up.
pub struct Live {
    pub engine: Arc<Engine>,
    pub server: Server,
    pub addr: SocketAddr,
    /// Model file on disk → first answer, seconds.
    pub ready_s: f64,
    pub first_answer_at: Instant,
}

/// What a snapshot carries besides the model: the vocabularies and the
/// known-true triples excluded from answers.
#[derive(Clone)]
pub struct Vocab {
    pub entities: Dictionary,
    pub relations: Dictionary,
    pub exclude: TripleStore,
}

/// Maps `path`, builds the snapshot over `vocab` (and the screen index
/// when screening is on), starts the engine and the server, and waits for
/// the first answer to `probe`. The caller hands over `vocab` already
/// built, as a server process would, so copying it is not timed.
pub fn bring_up(
    run: &Run,
    path: &std::path::Path,
    vocab: Vocab,
    config: ServeConfig,
    probe: Query,
) -> Result<Live> {
    let line = probe.line(&vocab, 0);
    let tr = &run.tracer;
    let t0 = Instant::now();
    let model = tr
        .span("serialize.load_mapped", || {
            mei_core::serialize::load_model_mapped(path)
        })
        .map_err(|e| format!("load_model_mapped: {e}"))?;
    run.layer("serialize.load_mapped_s", t0.elapsed().as_secs_f64(), "s");
    let t_snap = Instant::now();
    let screen = config.screen.is_some();
    let snap = tr.span("serve.snapshot", || {
        let snap = Snapshot::new(model, vocab.entities, vocab.relations, vocab.exclude);
        if screen {
            let t = Instant::now();
            let index = tr.span("quant.index_build", || snap.screen_index());
            run.layer("quant.index_build_s", t.elapsed().as_secs_f64(), "s");
            run.layer("quant.index_bytes", index.memory_bytes() as f64, "bytes");
        }
        snap
    });
    run.layer("serve.snapshot_s", t_snap.elapsed().as_secs_f64(), "s");
    let t_start = Instant::now();
    let engine = tr.span("serve.engine_start", || {
        Arc::new(Engine::start(snap, config))
    });
    let server = tr
        .span("serve.server_start", || {
            Server::start(Arc::clone(&engine), "127.0.0.1:0")
        })
        .map_err(|e| format!("server start: {e}"))?;
    run.layer("serve.start_s", t_start.elapsed().as_secs_f64(), "s");
    let addr = server.local_addr();
    let t_first = Instant::now();
    let response = tr
        .span("serve.first_answer", || loadgen::round_trip(addr, &line))
        .map_err(|e| format!("first answer: {e}"))?;
    let first_answer_at = Instant::now();
    run.layer("serve.first_answer_s", t_first.elapsed().as_secs_f64(), "s");
    if !response.contains("\"ok\":true") {
        return Err(format!("first answer failed: {response}"));
    }
    Ok(Live {
        engine,
        server,
        addr,
        ready_s: t0.elapsed().as_secs_f64(),
        first_answer_at,
    })
}

/// Bring-ups repeat at least this many times and for at least
/// `READY_MIN_S` seconds in all; `serve_ready_s` is their median. A slow
/// spell of a shared host can last several sub-second bring-ups, so those
/// are spread over a longer window.
const READY_REPS: usize = 5;
const READY_MIN_S: f64 = 2.0;

/// Shuts `first` down and brings the same file up again until
/// [`READY_REPS`] bring-ups taking [`READY_MIN_S`] in all are timed;
/// records their median as `serve_ready_s` and returns the last server.
pub fn settle_ready(
    run: &Run,
    mut first: Live,
    path: &std::path::Path,
    vocab: &Vocab,
    config: &ServeConfig,
    probe: Query,
) -> Result<Live> {
    // `serve_ready_s` is end-to-end only: a traced run keeps its first
    // server.
    if run.tracer.enabled() {
        return Ok(first);
    }
    let mut ready = vec![first.ready_s];
    first.server.shutdown();
    drop(first);
    loop {
        let vocab = vocab.clone();
        let live = run.tracer.span("serve.ready_repeat", || {
            bring_up(run, path, vocab, config.clone(), probe)
        })?;
        ready.push(live.ready_s);
        if ready.len() >= READY_REPS && ready.iter().sum::<f64>() >= READY_MIN_S {
            run.metric("serve_ready_s", median(&ready), "s");
            run.note("serve_ready_reps", crate::stats::list(&ready));
            return Ok(live);
        }
        let mut live = live;
        live.server.shutdown();
    }
}

/// Every query answer parsed out of one open-loop phase.
pub struct Answered {
    pub query: usize,
    pub epoch: u64,
    pub line: String,
    pub sent: f64,
}

/// Outcome of one open-loop phase.
pub struct Phase {
    pub sent: Vec<Sent>,
    pub answered: Vec<Answered>,
    /// Requests that failed, were refused, or never got an answer.
    pub failed: usize,
    /// Wire error kinds seen.
    pub wire_errors: usize,
    pub queue_depth_max: usize,
    pub swap: Option<SwapOutcome>,
}

pub struct SwapOutcome {
    pub round_trip_s: f64,
    /// Seconds after phase start at which the swap response arrived.
    pub done_at: f64,
    pub new_epoch: Option<u64>,
}

impl Phase {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .filter_map(|s| s.latency())
            .map(|l| 1e3 * l)
            .collect()
    }

    pub fn lateness_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .map(|s| 1e3 * (s.sent - s.due).max(0.0))
            .collect()
    }

    /// Requests answered within `limit_ms` of their due time, as a share
    /// of requests sent (failures miss).
    pub fn share_within(&self, limit_ms: f64) -> f64 {
        let within = self
            .sent
            .iter()
            .filter(|s| {
                s.latency().is_some_and(|l| 1e3 * l <= limit_ms)
                    && s.response
                        .as_deref()
                        .is_some_and(|r| r.starts_with("{\"ok\":true"))
            })
            .count();
        within as f64 / self.sent.len().max(1) as f64
    }
}

/// Sends `queries` (indices into `pool`) at `rate` per second over two
/// connections. With `swap_file`, the coordinating thread sends one wire
/// `swap` to it halfway through, on an admin connection of its own: on a
/// load connection it would stall that connection's reads behind it for
/// the swap's whole duration, a client artefact rather than a server cost.
pub fn drive(
    tracer: &Tracer,
    live: &Live,
    pool: &[Query],
    queries: &[usize],
    rate: f64,
    vocab: &Vocab,
    swap_file: Option<&std::path::Path>,
) -> Result<Phase> {
    let dues = loadgen::schedule(queries.len(), rate, 0.01);
    let reqs: Vec<Req> = queries
        .iter()
        .zip(&dues)
        .enumerate()
        .map(|(i, (&q, &due))| Req {
            line: pool[q].line(vocab, i as u64 + 1),
            due,
        })
        .collect();
    let lanes = loadgen::deal(reqs, 2);
    let engine = Arc::clone(&live.engine);
    let watch = move || engine.queue_depth();
    let start = Instant::now();
    let parent = tracer.current();
    let mut swap = None;
    let swap_task = || {
        let Some(path) = swap_file else { return };
        let due = dues[dues.len() / 2];
        std::thread::sleep(std::time::Duration::from_secs_f64(
            (due - start.elapsed().as_secs_f64()).max(0.0),
        ));
        let line = build::obj([
            ("op", build::str("swap")),
            (
                "model_file",
                build::str(path.to_string_lossy().into_owned()),
            ),
        ])
        .to_json();
        let t = Instant::now();
        let response = tracer.span("serve.swap", || loadgen::round_trip(live.addr, &line));
        let round_trip_s = t.elapsed().as_secs_f64();
        let new_epoch = response
            .ok()
            .and_then(|r| json::parse(&r).ok())
            .filter(|v| v.get("ok") == Some(&JsonValue::Bool(true)))
            .and_then(|v| v.get("epoch").and_then(|e| e.as_usize()))
            .map(|e| e as u64);
        swap = Some(SwapOutcome {
            round_trip_s,
            done_at: start.elapsed().as_secs_f64(),
            new_epoch,
        });
    };
    let (mut sent_lanes, queue_depth_max) =
        loadgen::run(live.addr, lanes, start, 30.0, &watch, swap_task)
            .map_err(|e| format!("load: {e}"))?;

    // Undo the round-robin deal: request i went to lane i % 2 at slot i / 2.
    let total: usize = sent_lanes.iter().map(Vec::len).sum();
    let mut sent = Vec::with_capacity(total);
    for i in 0..total {
        sent.push(std::mem::take(&mut sent_lanes[i % 2][i / 2]));
    }

    let (mut failed, mut wire_errors) = (0usize, 0usize);
    let mut answered = Vec::with_capacity(total);
    for (i, s) in sent.iter().enumerate() {
        if tracer.enabled() {
            if let Some(recv) = s.recv {
                let at = |secs: f64| start + std::time::Duration::from_secs_f64(secs.max(0.0));
                tracer.record(
                    "serve.request",
                    at(s.due),
                    at(recv),
                    parent,
                    Some(i as u64 + 1),
                );
            }
        }
        let Some(line) = &s.response else {
            failed += 1;
            continue;
        };
        let parsed = json::parse(line).ok();
        let ok = parsed.as_ref().and_then(|v| v.get("ok")) == Some(&JsonValue::Bool(true));
        let tag = parsed
            .as_ref()
            .and_then(|v| v.get("id"))
            .and_then(|v| v.as_usize());
        if !ok || tag != Some(i + 1) {
            failed += 1;
            if parsed.as_ref().and_then(|v| v.get("kind")).is_some() {
                wire_errors += 1;
            }
            continue;
        }
        let epoch = parsed
            .as_ref()
            .and_then(|v| v.get("epoch"))
            .and_then(|v| v.as_usize())
            .unwrap_or(usize::MAX) as u64;
        answered.push(Answered {
            query: queries[i],
            epoch,
            line: line.clone(),
            sent: s.sent,
        });
    }
    Ok(Phase {
        sent,
        answered,
        failed,
        wire_errors,
        queue_depth_max,
        swap,
    })
}

/// A ladder of fixed absolute rates `base · ratio^i`, `i < steps`,
/// searched by bisection for the highest rate at which at least `share`
/// of the requests sent are answered within `limit_ms` of their due time
/// (a failed request misses). A step lasts `step_s` seconds.
pub struct Ladder {
    pub base: f64,
    pub ratio: f64,
    pub steps: usize,
    pub step_s: f64,
    pub limit_ms: f64,
    pub share: f64,
}

impl Ladder {
    pub fn rate(&self, i: usize) -> f64 {
        self.base * self.ratio.powi(i as i32)
    }

    /// Most requests one bisection can send.
    pub fn max_requests(&self) -> usize {
        let probes = (self.steps as f64).log2().ceil() as usize + 1;
        probes * (self.rate(self.steps - 1) * self.step_s).ceil() as usize
    }

    /// Runs the bisection; `requests(count)` hands out each step's
    /// queries. Records `serve_max_qps`: 0 when even the lowest rate
    /// misses the limit. A missed latency limit is a measurement, not an
    /// incorrect answer, so it does not fail the run.
    pub fn run(
        &self,
        run: &Run,
        live: &Live,
        pool: &[Query],
        vocab: &Vocab,
        mut requests: impl FnMut(usize) -> Vec<usize>,
    ) -> Result<()> {
        let t = Instant::now();
        let (mut lo, mut hi) = (-1isize, self.steps as isize);
        let mut probes = 0;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let rate = self.rate(mid as usize);
            let reqs = requests((rate * self.step_s).ceil() as usize);
            let step = run.tracer.span("serve.ladder_step", || {
                drive(&run.tracer, live, pool, &reqs, rate, vocab, None)
            })?;
            probes += 1;
            let share = step.share_within(self.limit_ms);
            run.note(
                &format!("ladder_{probes}"),
                format!("{rate:.2} qps: {share:.4} within limit"),
            );
            if share >= self.share {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        run.note(
            "ladder",
            format!("{probes} steps in {:.3} s", t.elapsed().as_secs_f64()),
        );
        if lo < 0 {
            eprintln!(
                "warning: no ladder rate down to {} qps met the limit",
                self.base
            );
        }
        let max_qps = if lo < 0 { 0.0 } else { self.rate(lo as usize) };
        run.layer("serve_max_qps", max_qps, "qps");
        Ok(())
    }
}

/// Reads a counter from an engine metrics snapshot.
fn counter(snapshot: &JsonValue, name: &str) -> f64 {
    snapshot
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0)
}

/// `(count, sum, bounds, buckets)` of a histogram in a metrics snapshot.
fn histogram(snapshot: &JsonValue, name: &str) -> (f64, f64, Vec<f64>, Vec<f64>) {
    let h = snapshot.get(name);
    let f = |k: &str| {
        h.and_then(|m| m.get(k))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    let arr = |k: &str| -> Vec<f64> {
        h.and_then(|m| m.get(k))
            .and_then(|v| v.as_arr())
            .map(|a| a.iter().filter_map(|x| x.as_f64()).collect())
            .unwrap_or_default()
    };
    (f("count"), f("sum"), arr("bounds"), arr("buckets"))
}

/// The `p` quantile of a bucketed histogram, interpolated linearly inside
/// the bucket that holds it (bucket `i` covers `(bounds[i-1], bounds[i]]`).
fn bucket_quantile(bounds: &[f64], buckets: &[f64], p: f64) -> f64 {
    let total: f64 = buckets.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    let target = p * total;
    let mut seen = 0.0;
    for (i, &c) in buckets.iter().enumerate() {
        if c > 0.0 && seen + c >= target {
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
            let hi = bounds.get(i).copied().unwrap_or(lo);
            return lo + (hi - lo) * (target - seen) / c;
        }
        seen += c;
    }
    bounds.last().copied().unwrap_or(0.0)
}

/// Records the per-layer numbers of a finished phase: what the serving
/// stack counted itself (read from its metrics snapshot) and what the
/// generator saw.
pub fn record_phase_layers(run: &Run, live: &Live, phase: &Phase) {
    let snap = live.engine.metrics_snapshot();
    let requests = counter(&snap, "serve/requests").max(1.0);
    let (bcount, bsum, _, _) = histogram(&snap, "serve/batch_size");
    run.layer(
        "serve.batch_size_mean",
        if bcount > 0.0 { bsum / bcount } else { 0.0 },
        "count",
    );
    let (_, _, bounds, buckets) = histogram(&snap, "serve/latency_secs");
    run.layer(
        "serve.engine_latency_p99_ms",
        1e3 * bucket_quantile(&bounds, &buckets, 0.99),
        "ms",
    );
    run.layer(
        "serve.epoll_wakes_per_req",
        counter(&snap, "serve/epoll_wakes") / requests,
        "count",
    );
    run.layer("serve.rejected", counter(&snap, "serve/rejected"), "count");
    run.layer(
        "serve.errors",
        counter(&snap, "serve/errors") + phase.wire_errors as f64,
        "count",
    );
    run.layer(
        "serve.cache_hit_rate",
        live.engine.cache_stats().hit_rate(),
        "ratio",
    );
    run.layer(
        "serve.queue_depth_max",
        phase.queue_depth_max as f64,
        "count",
    );
    let late = tail(&phase.lateness_ms(), 0.99).map_or(0.0, |t| t.value);
    run.layer("serve.gen_lateness_p99_ms", late, "ms");
}

/// Seconds the snapshot swaps spent in their install critical section:
/// the exact sum of `serve/swap_latency_secs` (its buckets are decades
/// wide).
pub fn swap_critical_s(live: &Live) -> f64 {
    histogram(&live.engine.metrics_snapshot(), "serve/swap_latency_secs").1
}

/// Records the nominal-rate latency percentiles and failures of `phase`.
pub fn record_nominal(run: &Run, phase: &Phase) {
    let lat = phase.latencies_ms();
    run.layer("serve_p50_ms", median(&lat), "ms");
    for (name, p) in [("serve_p90_ms", 0.90), ("serve_p99_ms", 0.99)] {
        match tail(&lat, p) {
            Some(t) => {
                run.layer(name, t.value, "ms");
                run.note(name, format!("p{:.2} over {} samples", t.pct, t.samples));
            }
            None => run.fail(format!("only {} latency samples for {name}", lat.len())),
        }
    }
    run.ops(phase.sent.len(), phase.failed);
    run.layer(
        "serve_fail_frac",
        phase.failed as f64 / phase.sent.len().max(1) as f64,
        "ratio",
    );
    if phase.failed > 0 {
        run.fail(format!(
            "{} of {} requests failed at the nominal rate",
            phase.failed,
            phase.sent.len()
        ));
    }
}

/// Unloaded per-layer timings over `queries`, each set fresh so every call
/// misses the result cache: direct `top_k`, direct `Engine::predict`,
/// `wire::handle_line`, and a client round trip over TCP.
pub fn unloaded_probes(run: &Run, live: &Live, sets: [&[Query]; 4], vocab: &Vocab) -> Result<()> {
    let tr = &run.tracer;
    let (snap, _) = live.engine.snapshot();
    let time_ms = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        1e3 * t.elapsed().as_secs_f64()
    };
    let mut top_k = Vec::new();
    tr.span("probe.top_k", || {
        for q in sets[0] {
            top_k.push(time_ms(&mut || {
                std::hint::black_box(mei_eval::top_k(
                    &snap.model,
                    q.side,
                    q.anchor,
                    q.relation,
                    K,
                    &snap.exclude,
                ));
            }));
        }
    });
    let mut predict = Vec::new();
    tr.span("probe.engine_predict", || {
        for q in sets[1] {
            predict.push(time_ms(&mut || {
                std::hint::black_box(
                    live.engine
                        .predict(q.side, q.anchor, q.relation, K)
                        .expect("probe predict"),
                );
            }));
        }
    });
    let mut handle = Vec::new();
    tr.span("probe.handle_line", || {
        for (i, q) in sets[2].iter().enumerate() {
            let line = q.line(vocab, i as u64);
            handle.push(time_ms(&mut || {
                std::hint::black_box(mei_serve::wire::handle_line(&live.engine, &line));
            }));
        }
    });
    let mut stream =
        std::net::TcpStream::connect(live.addr).map_err(|e| format!("probe connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut rtt = Vec::new();
    let mut rtt_err = None;
    tr.span("probe.client_round_trip", || {
        for (i, q) in sets[3].iter().enumerate() {
            let line = q.line(vocab, i as u64);
            rtt.push(time_ms(&mut || {
                if let Err(e) = loadgen::round_trip_on(&mut stream, &line) {
                    rtt_err = Some(e.to_string());
                }
            }));
        }
    });
    if let Some(e) = rtt_err {
        return Err(format!("probe round trip: {e}"));
    }
    let (top_k, predict, handle, rtt) = (
        median(&top_k),
        median(&predict),
        median(&handle),
        median(&rtt),
    );
    run.layer("eval.top_k_ms", top_k, "ms");
    run.layer("serve.engine_predict_ms", predict, "ms");
    run.layer("serve.wire_ms", handle - predict, "ms");
    run.layer("serve.loop_ms", rtt - handle, "ms");
    Ok(())
}

/// Checks every answer to a query in `check`: its raw `"results"` bytes
/// must equal `expected(query, epoch)` rendered the wire's way. Returns
/// (checked, mismatches).
pub fn check_answers(
    phase: &Phase,
    check: &HashSet<usize>,
    entities: &Dictionary,
    mut expected: impl FnMut(usize, u64) -> Option<Vec<(EntityId, f32)>>,
) -> (usize, usize) {
    let (mut checked, mut bad) = (0, 0);
    for a in &phase.answered {
        if !check.contains(&a.query) {
            continue;
        }
        checked += 1;
        let matches = expected(a.query, a.epoch).is_some_and(|want| {
            raw_results(&a.line) == Some(results_json(entities, &want).as_str())
        });
        if !matches {
            bad += 1;
        }
    }
    (checked, bad)
}

/// Mean recall of `got` against `truth` at depth `k`.
pub fn recall_at(truth: &[(EntityId, f32)], got: &[(EntityId, f32)], k: usize) -> f64 {
    let t: HashSet<_> = truth.iter().take(k).map(|p| p.0).collect();
    if t.is_empty() {
        return 1.0;
    }
    got.iter().take(k).filter(|p| t.contains(&p.0)).count() as f64 / t.len() as f64
}

/// A 64-bit digest of every parameter bit of `model` (embeddings, ω and
/// the interaction-norm state): equal digests mean bit-identical
/// parameters, short of a hash collision. It lets a model be compared
/// with one that is no longer in memory.
pub fn parameter_digest(model: &MultiEmbedModel) -> u64 {
    let norm = model
        .interaction_norm()
        .map(|n| n.flat())
        .unwrap_or_default();
    let parts: [&[f32]; 4] = [
        model.entities.as_slice(),
        model.relations.as_slice(),
        model.raw_omega().dense(),
        &norm,
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for word in
            std::iter::once(part.len() as u64).chain(part.iter().map(|x| u64::from(x.to_bits())))
        {
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
