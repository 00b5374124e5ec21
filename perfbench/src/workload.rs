//! The three workloads and the round loop that drives them.
//!
//! A run is a sequence of identical *rounds*. Each round brings a fresh
//! server up from the paper's data files (the timed set-up), then walks a
//! fixed schedule of steps on one thread: an engine batch every step, a
//! group of single estimates, update batches, statistics republishes and
//! restarts at fixed intervals. Every round sends the same operations
//! (they depend on the seed only), so the share of failed operations is
//! the same in every run and accuracy does not depend on how many rounds
//! fit into the run.
//!
//! The workloads are three mixes of the same operations. Every end-to-end
//! metric is therefore measured on every workload from operations it
//! performs at volume; what differs is where the time goes.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use selest_core::{BatchScratch, PreparedColumn, RangeQuery, SelectivityEstimator};
use selest_data::{DataFile, PaperFile, QueryFile};
use selest_kernel::{BandwidthSelector, DirectPlugIn, KernelFn};
use selest_store::{
    build_estimator_from_prepared, splitmix64, AnalyzeConfig, CatalogSnapshot, Column, ColumnDelta,
    DurableStore, EstimatorKind, JournalRecord, Relation, ServeRung, ServedEstimate, ServingEngine,
    ServingOptions, ServingScratch, StalenessPolicy, StatisticsCatalog,
};

use crate::clock::{CpuTimer, Elapsed};
use crate::oracle::LiveRows;
use crate::stats::{Ops, Samples};

/// The paper's query sizes, as fractions of the domain width.
pub const QUERY_SIZES: [f64; 4] = [0.01, 0.02, 0.05, 0.10];
/// Queries per engine batch.
pub const BATCH: usize = 256;
/// Single estimates per timed group: the estimates one optimizer plan needs.
pub const GROUP: usize = 64;
/// The ANALYZE sample size of the paper's experiments.
pub const SAMPLE_SIZE: usize = 2_000;
/// How far the insert distribution drifts over one round, as a fraction
/// of the domain width.
const DRIFT: f64 = 0.05;
/// Steps between journaled query-feedback observations (each one is an
/// fsync'd append).
const JOURNAL_EVERY: usize = 8;
/// Pool of repeated queries per column on the cache-friendly workload.
const HOT_POOL: usize = 128;
/// One query in this many on the cache-friendly workload is fresh.
const FRESH_ONE_IN: u64 = 4;
/// Step between deleted rows in a column's row order: a prime larger than
/// every file, so `k * STRIDE mod n` visits every row once.
const STRIDE: usize = 1_000_003;

/// The data files of the paper's Table 2 that the workloads load, with
/// the relation name each one is served under.
const FILES: [(PaperFile, &str); 8] = [
    (PaperFile::Uniform { p: 20 }, "u20"),
    (PaperFile::Normal { p: 20 }, "n20"),
    (PaperFile::Exponential { p: 20 }, "e20"),
    (PaperFile::Arapahoe1, "arap1"),
    (PaperFile::Arapahoe2, "arap2"),
    (PaperFile::RailRiver1 { p: 20 }, "rr1_20"),
    (PaperFile::RailRiver2 { p: 20 }, "rr2_20"),
    (PaperFile::InstanceWeight, "iw"),
];

/// The one column of every relation.
const COLUMN: &str = "v";

/// The estimator kinds the per-layer trace times directly on every
/// workload's columns and queries, with the metric each one feeds.
const SIDE_KINDS: [(EstimatorKind, &str, &str); 5] = [
    (
        EstimatorKind::Kernel,
        "kernel.batch_us",
        "catalog.analyze_column_us.kernel",
    ),
    (
        EstimatorKind::EquiDepth,
        "histogram.equi_depth.batch_us",
        "catalog.analyze_column_us.equi_depth",
    ),
    (
        EstimatorKind::MaxDiff,
        "histogram.max_diff.batch_us",
        "catalog.analyze_column_us.max_diff",
    ),
    (
        EstimatorKind::Sampling,
        "core.sampling.batch_us",
        "catalog.analyze_column_us.sampling",
    ),
    (
        EstimatorKind::Uniform,
        "core.uniform.batch_us",
        "catalog.analyze_column_us.uniform",
    ),
];

/// Mean relative error a 2 000-row uniform sample makes at selectivity
/// 1 %: the relative standard error `sqrt((1 - s) / (n s))` times
/// `E|Z| = sqrt(2 / pi)`.
pub fn sampling_mre_at_one_percent() -> f64 {
    let (n, s) = (SAMPLE_SIZE as f64, 0.01);
    ((1.0 - s) / (n * s)).sqrt() * (2.0 / std::f64::consts::PI).sqrt()
}

/// Accuracy ceiling for every sample-based estimator: the sampling error
/// above times this margin (see the README for the derivation).
pub const MRE_MARGIN: f64 = 3.0;

/// One workload: which estimators serve, what traffic they see, and how
/// often the writes, republishes and restarts come.
#[derive(Clone, Copy)]
pub struct Plan {
    pub name: &'static str,
    /// Estimator kind per file, in `FILES` order.
    pub kinds: [EstimatorKind; 8],
    /// Draw queries from a small skewed pool (cache-friendly) instead of
    /// fresh from the query generator.
    pub hot_pool: bool,
    pub round_steps: usize,
    pub single_every: usize,
    pub write_every: usize,
    /// Inserts, and as many deletes, per column per write step.
    pub rows_per_write: usize,
    pub refresh_every: usize,
    /// Republish every dirty column on schedule (a scheduled re-ANALYZE)
    /// instead of leaving it to the default staleness policy.
    pub scheduled_refresh: bool,
    pub restart_every: usize,
}

const ED: EstimatorKind = EstimatorKind::EquiDepth;
const MD: EstimatorKind = EstimatorKind::MaxDiff;
const SA: EstimatorKind = EstimatorKind::Sampling;
const UN: EstimatorKind = EstimatorKind::Uniform;

/// The workloads by name.
pub fn plan(name: &str) -> Option<Plan> {
    let plan = match name {
        "serve-kernel" => Plan {
            name: "serve-kernel",
            kinds: [EstimatorKind::Kernel; 8],
            hot_pool: false,
            round_steps: 512,
            single_every: 2,
            write_every: 8,
            rows_per_write: 16,
            refresh_every: 16,
            scheduled_refresh: true,
            restart_every: 64,
        },
        "serve-cheap" => Plan {
            name: "serve-cheap",
            kinds: [ED, MD, SA, UN, ED, MD, SA, UN],
            hot_pool: true,
            round_steps: 512,
            single_every: 1,
            write_every: 8,
            rows_per_write: 16,
            refresh_every: 64,
            scheduled_refresh: true,
            restart_every: 64,
        },
        "ingest-recover" => Plan {
            name: "ingest-recover",
            kinds: [ED; 8],
            hot_pool: false,
            round_steps: 256,
            single_every: 4,
            write_every: 1,
            rows_per_write: 128,
            refresh_every: 1,
            scheduled_refresh: false,
            restart_every: 16,
        },
        _ => return None,
    };
    Some(plan)
}

/// The smoke-test version of a plan: one short round (the files stay at
/// full size, so every check holds as it does in a full run).
pub fn smoke(plan: Plan) -> Plan {
    Plan {
        round_steps: 64,
        restart_every: 32,
        refresh_every: plan.refresh_every.min(16),
        ..plan
    }
}

fn kind_label(kind: EstimatorKind) -> &'static str {
    match kind {
        EstimatorKind::Uniform => "uniform",
        EstimatorKind::Sampling => "sampling",
        EstimatorKind::EquiWidth => "equi_width",
        EstimatorKind::EquiDepth => "equi_depth",
        EstimatorKind::MaxDiff => "max_diff",
        EstimatorKind::Ash => "ash",
        EstimatorKind::Kernel => "kernel",
        EstimatorKind::Hybrid => "hybrid",
    }
}

/// Run options from the command line.
pub struct Options {
    pub plan: Plan,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub store: PathBuf,
}

/// What a run measured.
pub struct Outcome {
    pub ops: Ops,
    pub correct: bool,
    pub failures: Vec<String>,
    pub rounds: usize,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Mean relative error per estimator kind, with its ceiling (`None`
    /// for the uniform estimator, which ignores the data).
    pub mre_by_kind: Vec<(&'static str, f64, Option<f64>)>,
    /// Traced runs: median engine and direct batch time per served kind.
    pub batch_by_kind: Vec<(&'static str, f64, f64)>,
}

/// One file as the workload serves it.
struct Table {
    name: &'static str,
    kind: EstimatorKind,
    data: DataFile,
    relation: Relation,
    initial: LiveRows,
}

/// Everything a round sends, fixed by the seed.
struct Traffic {
    /// One batch per step; step `s` targets column `s % 8`.
    batches: Vec<Vec<RangeQuery>>,
    /// One group per single-estimate step, with its column.
    groups: Vec<(usize, Vec<RangeQuery>)>,
    /// One update batch per column per write step.
    writes: Vec<Vec<ColumnDelta>>,
    /// The batch each column answers before and after every restart.
    probes: Vec<Vec<RangeQuery>>,
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(a)) ^ b)
}

fn fresh_queries(data: &DataFile, size: f64, n: usize, seed: u64) -> Vec<RangeQuery> {
    QueryFile::generate(data, size, n, seed).queries().to_vec()
}

impl Traffic {
    fn new(plan: &Plan, tables: &[Table], seed: u64) -> Self {
        let cols = tables.len();
        let size_of = |s: usize| QUERY_SIZES[(s / cols) % QUERY_SIZES.len()];
        // The cache-friendly pool: HOT_POOL queries per column over all
        // four sizes, drawn with a cubic skew so a few are very hot.
        let pools: Vec<Vec<RangeQuery>> = tables
            .iter()
            .enumerate()
            .map(|(c, t)| {
                let per_size = HOT_POOL / QUERY_SIZES.len();
                QUERY_SIZES
                    .iter()
                    .enumerate()
                    .flat_map(|(k, &size)| {
                        fresh_queries(&t.data, size, per_size, mix(seed, c as u64, 100 + k as u64))
                    })
                    .collect()
            })
            .collect();
        let draw = |c: usize, fresh: Vec<RangeQuery>, key: u64| -> Vec<RangeQuery> {
            if !plan.hot_pool {
                return fresh;
            }
            fresh
                .into_iter()
                .enumerate()
                .map(|(i, q)| {
                    let r = mix(seed, key, i as u64);
                    if r.is_multiple_of(FRESH_ONE_IN) {
                        return q;
                    }
                    let u = (r >> 11) as f64 / (1u64 << 53) as f64;
                    pools[c][((u * u * u) * HOT_POOL as f64) as usize]
                })
                .collect()
        };
        let batches = (0..plan.round_steps)
            .map(|s| {
                let c = s % cols;
                let fresh =
                    fresh_queries(&tables[c].data, size_of(s), BATCH, mix(seed, s as u64, 1));
                draw(c, fresh, mix(seed, s as u64, 2))
            })
            .collect();
        let groups = (0..plan.round_steps)
            .filter(|s| s % plan.single_every == 0)
            .map(|s| {
                let c = (s + 3) % cols;
                let fresh =
                    fresh_queries(&tables[c].data, size_of(s), GROUP, mix(seed, s as u64, 3));
                (c, draw(c, fresh, mix(seed, s as u64, 4)))
            })
            .collect();
        let writes_per_round = plan.round_steps / plan.write_every;
        let writes = (0..writes_per_round)
            .map(|w| {
                let step = (w + 1) * plan.write_every - 1;
                tables
                    .iter()
                    .enumerate()
                    .map(|(c, t)| {
                        let values = t.data.values();
                        let n = values.len();
                        assert!(
                            writes_per_round * plan.rows_per_write <= n,
                            "a round deletes more rows than {} has",
                            t.name
                        );
                        let hi = t.data.domain().hi();
                        let shift = (DRIFT * hi * step as f64 / plan.round_steps as f64).round();
                        let inserts = (0..plan.rows_per_write)
                            .map(|i| {
                                let r = mix(seed, (c * 1_000_003 + w) as u64, i as u64);
                                let v = values[(r % n as u64) as usize] + shift;
                                if v > hi {
                                    2.0 * hi - v
                                } else {
                                    v
                                }
                            })
                            .collect();
                        // Deletes walk the file's rows in a seeded
                        // permutation, so each removes a row still live.
                        let offset = (mix(seed, c as u64, 5) % n as u64) as usize;
                        let deletes = (0..plan.rows_per_write)
                            .map(|i| {
                                let k = w * plan.rows_per_write + i;
                                values[(k * STRIDE + offset) % n]
                            })
                            .collect();
                        ColumnDelta {
                            column: COLUMN.to_owned(),
                            inserts,
                            deletes,
                        }
                    })
                    .collect()
            })
            .collect();
        let probes = tables
            .iter()
            .enumerate()
            .map(|(c, t)| fresh_queries(&t.data, QUERY_SIZES[c % 4], BATCH, mix(seed, c as u64, 6)))
            .collect();
        Traffic {
            batches,
            groups,
            writes,
            probes,
        }
    }
}

/// Per-run accumulators.
#[derive(Default)]
struct Measure {
    setup_s: Samples,
    batch_us: Samples,
    single_ns: Samples,
    estimates: u64,
    estimate_s: f64,
    refresh_ms: Samples,
    /// Rows per second inside each `try_apply_updates` call.
    update_rate: Samples,
    recover_ms: Samples,
    durable_bytes: f64,
    cache_hits: u64,
    cache_probes: u64,
    layers: BTreeMap<&'static str, Samples>,
    /// Traced engine and direct batch times per served estimator kind.
    by_kind: BTreeMap<&'static str, (Samples, Samples)>,
}

impl Measure {
    fn layer(&mut self, name: &'static str, v: f64) {
        self.layers.entry(name).or_default().push(v);
    }
}

/// Relative-error accumulator per estimator kind. Each distinct query of
/// a column counts once per round, at its first answer: relative error is
/// heavy-tailed, and weighting a hot query by its repeats would let a few
/// queries of the skewed pool decide the figure.
#[derive(Default)]
struct Accuracy {
    by_kind: BTreeMap<&'static str, (f64, u64)>,
    seen: HashSet<(usize, u64, u64)>,
}

impl Accuracy {
    fn add(
        &mut self,
        kind: &'static str,
        column: usize,
        q: &RangeQuery,
        estimate: f64,
        truth: f64,
    ) {
        let (a, b) = q.bounds_bits();
        if truth > 0.0 && self.seen.insert((column, a, b)) {
            let e = self.by_kind.entry(kind).or_default();
            e.0 += (estimate - truth).abs() / truth;
            e.1 += 1;
        }
    }

    fn overall(&self) -> f64 {
        let (sum, n) = self
            .by_kind
            .values()
            .fold((0.0, 0), |(s, n), (es, en)| (s + es, n + en));
        sum / n.max(1) as f64
    }
}

/// A served slot is correct when the primary rung answered with a finite
/// selectivity bit-identical to the column estimator's own sequential
/// answer.
fn check_slot(
    slot: &Result<ServedEstimate, selest_core::EstimateError>,
    reference: f64,
) -> Result<f64, String> {
    let served = slot.as_ref().map_err(|e| format!("error {e}"))?;
    if served.rung != ServeRung::Full {
        return Err(format!("served by the {:?} rung", served.rung));
    }
    let v = served.value;
    if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
        return Err(format!("value {v} outside [0, 1]"));
    }
    if v.to_bits() != reference.to_bits() {
        return Err(format!("value {v} differs from sequential {reference}"));
    }
    Ok(v)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// A live server: the engine, the catalog it publishes from, and the
/// durable store.
struct Server {
    engine: ServingEngine,
    catalog: StatisticsCatalog,
    store: DurableStore,
}

/// The per-layer trace's direct estimators: every side kind built over a
/// column's current sample.
type Side = Vec<Vec<Box<dyn SelectivityEstimator + Send + Sync>>>;

struct Runner<'a> {
    plan: Plan,
    opts: &'a Options,
    tables: Vec<Table>,
    traffic: Traffic,
    serving: ServingOptions,
    jobs: selest_par::TryConfig,
    ops: Ops,
    failures: Vec<String>,
    accuracy: Accuracy,
    scratch: ServingScratch,
    batch_scratch: BatchScratch,
    served: Vec<Result<ServedEstimate, selest_core::EstimateError>>,
    direct: Vec<f64>,
    restarts: usize,
    /// The answer key, kept across rounds (see `round`).
    live: Vec<LiveRows>,
}

impl<'a> Runner<'a> {
    fn fail(&mut self, what: String) {
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Bring a server up from the data files: the timed set-up is the
    /// engine, the incremental ANALYZE of every file and the first
    /// publish; creating the durable store (fsync-bound) is not timed.
    fn setup(&mut self, m: &mut Measure, traced: bool) -> Result<Server, String> {
        let t = CpuTimer::start();
        let engine = ServingEngine::new(self.serving);
        let mut catalog = StatisticsCatalog::new();
        for table in &self.tables {
            let config = AnalyzeConfig {
                kind: table.kind,
                sample_size: SAMPLE_SIZE,
                ..Default::default()
            };
            let ta = CpuTimer::start();
            let health = catalog.try_analyze_incremental(&table.relation, &config, &self.jobs);
            if traced {
                m.layer("catalog.analyze_incremental_ms", ta.us() / 1e3);
            }
            if !health.is_healthy() {
                return Err(format!("ANALYZE of {} failed: {:?}", table.name, health));
            }
        }
        engine.publish_snapshot(CatalogSnapshot::from_catalog_ref(&catalog, 0));
        m.setup_s.push(t.us() / 1e6);

        let dir = &self.opts.store;
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        let (mut store, report) =
            DurableStore::open(dir).map_err(|e| format!("open store: {e}"))?;
        if !report.is_clean() {
            return Err(format!("fresh store recovered unclean: {report:?}"));
        }
        engine
            .publish_durable(&mut store)
            .map_err(|e| format!("durable publish: {e}"))?;
        for cp in catalog.incremental_checkpoints() {
            store
                .checkpoint_sketch(&cp)
                .map_err(|e| format!("checkpoint: {e}"))?;
        }
        Ok(Server {
            engine,
            catalog,
            store,
        })
    }

    /// Side estimators and ANALYZE/bandwidth timings for a traced round.
    fn trace_round_start(&mut self, server: &Server, m: &mut Measure) -> Side {
        let mut side = Vec::with_capacity(self.tables.len());
        let mut failed = Vec::new();
        for table in &self.tables {
            let stats = server
                .catalog
                .statistics(table.name, COLUMN)
                .expect("analyzed column");
            let prepared = stats
                .prepared
                .clone()
                .expect("incremental columns are prepared");
            // A freshly prepared column, so the lazily cached summary the
            // plug-in rule reads is computed inside the timing, as in ANALYZE.
            let fresh = PreparedColumn::prepare(prepared.values(), prepared.domain());
            let t = CpuTimer::start();
            black_box(DirectPlugIn::two_stage().bandwidth_prepared(&fresh, KernelFn::Epanechnikov));
            m.layer("kernel.bandwidth_ms", t.us() / 1e3);
            let mut kinds = Vec::with_capacity(SIDE_KINDS.len());
            for (kind, _, analyze_metric) in SIDE_KINDS {
                let config = AnalyzeConfig {
                    kind,
                    sample_size: SAMPLE_SIZE,
                    ..Default::default()
                };
                let mut scratch = StatisticsCatalog::new();
                let t = CpuTimer::start();
                let built = scratch.try_analyze_column(&table.relation, COLUMN, &config);
                m.layer(analyze_metric, t.us());
                if let Err(e) = built {
                    failed.push(format!("side ANALYZE {} {kind:?}: {e}", table.name));
                }
                kinds.push(build_estimator_from_prepared(&prepared, kind));
            }
            side.push(kinds);
        }
        for f in failed {
            self.fail(f);
        }
        side
    }

    fn serve_batch(
        &mut self,
        server: &Server,
        live: &[LiveRows],
        step: usize,
        m: &mut Measure,
        side: Option<&Side>,
    ) -> f64 {
        let c = step % self.tables.len();
        let name = self.tables[c].name;
        let label = kind_label(self.tables[c].kind);
        let queries = &self.traffic.batches[step];
        let engine = &server.engine;
        let before = engine.cache().stats();
        let t = CpuTimer::start();
        engine.estimate_batch_with(
            name,
            COLUMN,
            queries,
            None,
            &mut self.scratch,
            &mut self.served,
        );
        let engine_us = t.us();
        let after = engine.cache().stats();
        m.batch_us.push(engine_us);
        m.estimates += queries.len() as u64;
        m.estimate_s += engine_us / 1e6;
        m.cache_hits += after.hits - before.hits;
        m.cache_probes += (after.hits + after.misses) - (before.hits + before.misses);

        let estimator = Arc::clone(
            &server
                .catalog
                .statistics(name, COLUMN)
                .expect("served column is in the catalog")
                .estimator,
        );
        if let Some(side) = side {
            let snap = engine.snapshot();
            let t = Instant::now();
            for _ in 0..GROUP {
                black_box(engine.snapshot());
            }
            m.layer("serving.snapshot_ns", t.us() * 1e3 / GROUP as f64);
            let t = Instant::now();
            for _ in 0..GROUP {
                black_box(snap.find(black_box(name), COLUMN));
            }
            m.layer("serving.find_ns", t.us() * 1e3 / GROUP as f64);
            let (idx, col) = snap.find(name, COLUMN).expect("served column");
            let domain = col.domain();
            let t = Instant::now();
            for q in &queries[..GROUP] {
                black_box(engine.cache().get(snap.generation(), idx, &domain, q));
            }
            m.layer("serving.cache_get_ns", t.us() * 1e3 / GROUP as f64);
            self.direct.resize(queries.len(), 0.0);
            let t = CpuTimer::start();
            estimator.selectivity_batch_into(queries, &mut self.batch_scratch, &mut self.direct);
            let direct_us = t.us();
            m.layer("serving.batch_self_us", engine_us - direct_us);
            let by_kind = m.by_kind.entry(label).or_default();
            by_kind.0.push(engine_us);
            by_kind.1.push(direct_us);
            for (k, (_, metric, _)) in SIDE_KINDS.iter().enumerate() {
                let t = CpuTimer::start();
                side[c][k].selectivity_batch_into(
                    queries,
                    &mut self.batch_scratch,
                    &mut self.direct,
                );
                m.layer(metric, t.us());
            }
        }

        let mut first = f64::NAN;
        let mut bad = Vec::new();
        for (i, (q, slot)) in queries.iter().zip(&self.served).enumerate() {
            match check_slot(slot, estimator.selectivity(q)) {
                Ok(v) => {
                    self.accuracy.add(label, c, q, v, live[c].selectivity(q));
                    self.ops.batch_slots.record(true);
                    if i == 0 {
                        first = v;
                    }
                }
                Err(e) => {
                    self.ops.batch_slots.record(false);
                    bad.push(format!(
                        "batch step {step} {name} [{}, {}]: {e}",
                        q.a(),
                        q.b()
                    ));
                }
            }
        }
        for b in bad {
            self.fail(b);
        }
        first
    }

    fn serve_group(
        &mut self,
        server: &Server,
        live: &[LiveRows],
        g: usize,
        m: &mut Measure,
        traced: bool,
    ) {
        let (c, ref queries) = self.traffic.groups[g];
        let name = self.tables[c].name;
        let label = kind_label(self.tables[c].kind);
        let engine = &server.engine;
        let mut answers = Vec::with_capacity(GROUP);
        let before = engine.cache().stats();
        let t = CpuTimer::start();
        for q in queries {
            answers.push(engine.try_estimate_with(name, COLUMN, q, None));
        }
        let engine_us = t.us();
        let after = engine.cache().stats();
        let per_call_ns = engine_us * 1e3 / queries.len() as f64;
        m.single_ns.push(per_call_ns);
        m.estimates += queries.len() as u64;
        m.estimate_s += engine_us / 1e6;
        m.cache_hits += after.hits - before.hits;
        m.cache_probes += (after.hits + after.misses) - (before.hits + before.misses);
        let estimator = Arc::clone(
            &server
                .catalog
                .statistics(name, COLUMN)
                .expect("served column is in the catalog")
                .estimator,
        );
        if traced {
            let t = CpuTimer::start();
            for q in queries {
                black_box(estimator.selectivity(q));
            }
            m.layer(
                "serving.single_self_ns",
                per_call_ns - t.us() * 1e3 / queries.len() as f64,
            );
        }
        let mut bad = Vec::new();
        for (q, slot) in queries.iter().zip(&answers) {
            match check_slot(slot, estimator.selectivity(q)) {
                Ok(v) => {
                    self.accuracy.add(label, c, q, v, live[c].selectivity(q));
                    self.ops.single_estimates.record(true);
                }
                Err(e) => {
                    self.ops.single_estimates.record(false);
                    bad.push(format!(
                        "single group {g} {name} [{}, {}]: {e}",
                        q.a(),
                        q.b()
                    ));
                }
            }
        }
        for b in bad {
            self.fail(b);
        }
    }

    fn write(
        &mut self,
        server: &mut Server,
        live: &mut [LiveRows],
        w: usize,
        m: &mut Measure,
        traced: bool,
    ) {
        for (c, rows_of) in live.iter_mut().enumerate() {
            let name = self.tables[c].name;
            let delta = &self.traffic.writes[w][c];
            let rows = (delta.inserts.len() + delta.deletes.len()) as u64;
            if traced {
                let mut sketch = server
                    .catalog
                    .statistics(name, COLUMN)
                    .and_then(|s| s.incremental.as_ref())
                    .expect("incremental column")
                    .sketch
                    .clone();
                let t = CpuTimer::start();
                for &v in &delta.inserts {
                    black_box(sketch.try_insert(v)).expect("finite insert");
                }
                m.layer(
                    "data.gk_insert_ns",
                    t.us() * 1e3 / delta.inserts.len() as f64,
                );
            }
            let t = CpuTimer::start();
            let report =
                server
                    .catalog
                    .try_apply_updates(name, std::slice::from_ref(delta), &self.jobs);
            let dt = t.us();
            m.update_rate.push(rows as f64 / (dt / 1e6));
            if traced {
                m.layer("catalog.apply_updates_ns_per_row", dt * 1e3 / rows as f64);
            }
            let ok = report.is_clean() && report.applied.len() == 1;
            self.ops.update_batches.record(ok);
            for &v in &delta.inserts {
                rows_of.insert(v);
            }
            for &v in &delta.deletes {
                rows_of.delete(v);
            }
            if !ok {
                self.fail(format!("update batch {w} on {name}: {:?}", report.failed));
            }
        }
    }

    /// Journal one query-feedback observation (fsync-bound; per layer only).
    fn journal(
        &mut self,
        server: &mut Server,
        live: &[LiveRows],
        step: usize,
        base: f64,
        m: &mut Measure,
        traced: bool,
    ) -> Result<(), String> {
        let c = step % self.tables.len();
        let q = self.traffic.batches[step][0];
        let rec = JournalRecord::Observation {
            relation: self.tables[c].name.to_owned(),
            column: COLUMN.to_owned(),
            a: q.a(),
            b: q.b(),
            base,
            truth: live[c].selectivity(&q),
        };
        let t = Instant::now();
        let appended = server.store.append(&rec);
        if traced {
            m.layer("durable.append_us", t.us());
        }
        appended.map_err(|e| format!("journal append at step {step}: {e}"))
    }

    fn policy(&self) -> StalenessPolicy {
        if self.plan.scheduled_refresh {
            eager()
        } else {
            StalenessPolicy::default()
        }
    }

    fn republish(&mut self, server: &mut Server, m: &mut Measure, traced: bool) {
        let policy = self.policy();
        let Server {
            engine, catalog, ..
        } = server;
        if !traced {
            let t = CpuTimer::start();
            let report = engine.republish_if_stale(catalog, &policy, &self.jobs);
            let dt = t.us();
            if let Some(report) = report {
                m.refresh_ms.push(dt / 1e3);
                let ok = report.refresh.failed.is_empty();
                self.ops.republishes.record(ok);
                if !ok {
                    self.fail(format!("republish: {:?}", report.refresh.failed));
                }
            }
            return;
        }
        // The same steps `republish_if_stale` takes, each timed: sweep the
        // staleness signals, refresh the stale columns, build the serving
        // snapshot, publish it.
        let t0 = CpuTimer::start();
        let stale: Vec<String> = catalog
            .staleness_signals()
            .into_iter()
            .filter(|(_, _, s)| policy.verdict(s).is_some())
            .map(|(r, _, _)| r)
            .collect();
        m.layer("catalog.staleness_sweep_us", t0.us());
        if stale.is_empty() {
            return;
        }
        let mut column = catalog
            .statistics(&stale[0], COLUMN)
            .and_then(|s| s.incremental.as_ref())
            .expect("stale columns are incremental")
            .column
            .clone();
        let t = CpuTimer::start();
        black_box(column.snapshot());
        m.layer("core.incremental_snapshot_us", t.us());
        let t = CpuTimer::start();
        let refresh = catalog.try_refresh_stale(&policy, &self.jobs);
        m.layer("catalog.refresh_stale_ms", t.us() / 1e3);
        let t = CpuTimer::start();
        let snapshot = CatalogSnapshot::from_catalog_ref(catalog, 0);
        m.layer("serving.rebuild_us", t.us());
        let t = CpuTimer::start();
        engine.publish_snapshot(snapshot);
        m.layer("serving.publish_us", t.us());
        m.refresh_ms.push(t0.us() / 1e3);
        let ok = refresh.failed.is_empty();
        self.ops.republishes.record(ok);
        if !ok {
            self.fail(format!("republish: {:?}", refresh.failed));
        }
    }

    /// Answer every column's probe batch, checked like any batch.
    fn probe_all(&mut self, server: &Server) -> Result<Vec<Vec<u64>>, String> {
        let mut all = Vec::with_capacity(self.tables.len());
        for c in 0..self.tables.len() {
            let name = self.tables[c].name;
            server.engine.estimate_batch_with(
                name,
                COLUMN,
                &self.traffic.probes[c],
                None,
                &mut self.scratch,
                &mut self.served,
            );
            let estimator = &server
                .catalog
                .statistics(name, COLUMN)
                .ok_or_else(|| format!("{name} missing from the catalog"))?
                .estimator;
            let mut bits = Vec::with_capacity(BATCH);
            for (q, slot) in self.traffic.probes[c].iter().zip(&self.served) {
                bits.push(check_slot(slot, estimator.selectivity(q))?.to_bits());
            }
            all.push(bits);
        }
        Ok(all)
    }

    /// Flush, persist, drop the server and bring it back from disk. The
    /// timed part is what a restarted process does before it serves:
    /// open the store, load the active generation into a new engine,
    /// restore the incremental columns from their journaled checkpoints,
    /// publish them and serve one probe batch.
    fn restart(&mut self, server: Server, m: &mut Measure, traced: bool) -> Result<Server, String> {
        let Server {
            engine,
            mut catalog,
            mut store,
        } = server;
        // A clean shutdown folds pending updates in first, so the state on
        // disk is the state being served.
        if let Some(report) = engine.republish_if_stale(&mut catalog, &eager(), &self.jobs) {
            if !report.refresh.failed.is_empty() {
                return Err(format!("shutdown refresh: {:?}", report.refresh.failed));
            }
        }
        let t = Instant::now();
        let generation = engine
            .publish_durable(&mut store)
            .map_err(|e| format!("durable publish: {e}"))?;
        if traced {
            m.layer("durable.publish_ms", t.us() / 1e3);
            let stem = store.dir().join(format!("gen-{generation:06}"));
            let bytes = file_bytes(&stem.with_extension("stats"))
                + file_bytes(&stem.with_extension("feedback"));
            m.layer("durable.bytes_per_publish", bytes as f64);
        }
        for cp in catalog.incremental_checkpoints() {
            let t = Instant::now();
            store
                .checkpoint_sketch(&cp)
                .map_err(|e| format!("checkpoint: {e}"))?;
            if traced {
                m.layer("durable.checkpoint_us", t.us());
            }
        }
        m.durable_bytes = dir_bytes(store.dir()) as f64;
        let before = Server {
            engine,
            catalog,
            store,
        };
        let expected = self.probe_all(&before)?;
        drop(before);

        let c = self.restarts % self.tables.len();
        self.restarts += 1;
        let t0 = CpuTimer::start();
        let (store, report) =
            DurableStore::open(&self.opts.store).map_err(|e| format!("reopen: {e}"))?;
        let t_open = t0.us();
        let engine = ServingEngine::new(self.serving);
        let t = CpuTimer::start();
        let (_, load_failures) = engine.load_durable(&store);
        let t_load = t.us();
        let t = CpuTimer::start();
        let mut catalog = StatisticsCatalog::new();
        let restore_failures = store.restore_incremental(&mut catalog);
        let t_restore = t.us();
        engine.publish_snapshot(CatalogSnapshot::from_catalog_ref(&catalog, 0));
        engine.estimate_batch_with(
            self.tables[c].name,
            COLUMN,
            &self.traffic.probes[c],
            None,
            &mut self.scratch,
            &mut self.served,
        );
        m.recover_ms.push(t0.us() / 1e3);
        if traced {
            m.layer("durable.open_ms", t_open / 1e3);
            m.layer("durable.load_catalog_ms", t_load / 1e3);
            m.layer("durable.restore_incremental_ms", t_restore / 1e3);
        }
        if !report.is_clean() {
            return Err(format!("recovery was not clean: {report:?}"));
        }
        if !load_failures.is_empty() || !restore_failures.is_empty() {
            return Err(format!(
                "restart lost columns: load {load_failures:?}, restore {restore_failures:?}"
            ));
        }
        let server = Server {
            engine,
            catalog,
            store,
        };
        let after = self.probe_all(&server)?;
        if after != expected {
            return Err("probe answers changed across the restart".to_owned());
        }
        Ok(server)
    }

    fn round(&mut self, m: &mut Measure, traced: bool) -> Result<(), String> {
        let mut server = self.setup(m, traced)?;
        self.accuracy.seen.clear();
        let side = traced.then(|| self.trace_round_start(&server, m));
        // The answer key is reset in place: reallocating tens of MiB each
        // round would make the process's peak memory depend on how the
        // allocator happened to reuse the freed blocks.
        let mut live = std::mem::take(&mut self.live);
        if live.is_empty() {
            live = self.tables.iter().map(|t| t.initial.clone()).collect();
        } else {
            for (rows, table) in live.iter_mut().zip(&self.tables) {
                rows.reset_to(&table.initial);
            }
        }
        let plan = self.plan;
        let mut group = 0;
        for step in 0..plan.round_steps {
            let first = self.serve_batch(&server, &live, step, m, side.as_ref());
            if step % plan.single_every == 0 {
                self.serve_group(&server, &live, group, m, traced);
                group += 1;
            }
            if (step + 1) % plan.write_every == 0 {
                self.write(&mut server, &mut live, step / plan.write_every, m, traced);
            }
            if (step + 1) % JOURNAL_EVERY == 0 {
                self.journal(&mut server, &live, step, first, m, traced)?;
            }
            if (step + 1) % plan.refresh_every == 0 {
                self.republish(&mut server, m, traced);
            }
            if (step + 1) % plan.restart_every == 0 {
                match self.restart(server, m, traced) {
                    Ok(s) => {
                        self.ops.restarts.record(true);
                        server = s;
                    }
                    Err(e) => {
                        self.ops.restarts.record(false);
                        return Err(format!("restart at step {step}: {e}"));
                    }
                }
            }
        }
        self.live = live;
        Ok(())
    }
}

/// Republish every column with a pending update.
fn eager() -> StalenessPolicy {
    StalenessPolicy {
        max_updates: 1,
        min_updates: 1,
        ..Default::default()
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn load_tables(plan: &Plan) -> Vec<Table> {
    FILES
        .iter()
        .zip(plan.kinds)
        .map(|(&(file, name), kind)| {
            let data = file.generate();
            let mut relation = Relation::new(name);
            relation.add_column(Column::new(COLUMN, data.domain(), data.values().to_vec()));
            let initial = LiveRows::new(data.domain().hi() as usize + 1, data.values());
            Table {
                name,
                kind,
                data,
                relation,
                initial,
            }
        })
        .collect()
}

/// Run whole rounds until `seconds` have passed (at least one; in a
/// traced run at least one plain and one traced, alternating).
pub fn run(opts: &Options) -> Outcome {
    let plan = opts.plan;
    let tables = load_tables(&plan);
    let traffic = Traffic::new(&plan, &tables, opts.seed);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serving = ServingOptions {
        shards: ServingOptions::default().shards.min(nproc),
        ..Default::default()
    };
    let mut runner = Runner {
        plan,
        opts,
        tables,
        traffic,
        serving,
        jobs: selest_par::TryConfig::jobs(1),
        ops: Ops::default(),
        failures: Vec::new(),
        accuracy: Accuracy::default(),
        scratch: ServingScratch::new(),
        batch_scratch: BatchScratch::new(),
        served: Vec::with_capacity(BATCH),
        direct: Vec::with_capacity(BATCH),
        restarts: 0,
        live: Vec::new(),
    };
    let mut plain = Measure::default();
    let mut traced = Measure::default();
    let started = Instant::now();
    let mut rounds = 0;
    let min_rounds = if opts.trace { 2 } else { 1 };
    let mut fatal = None;
    while rounds < min_rounds || started.elapsed().as_secs_f64() < opts.seconds {
        let trace_this = opts.trace && rounds % 2 == 1;
        let m = if trace_this { &mut traced } else { &mut plain };
        rounds += 1;
        let (round_start, first_batch) = (Instant::now(), m.batch_us.len());
        if let Err(e) = runner.round(m, trace_this) {
            fatal = Some(e);
            break;
        }
        eprintln!(
            "round {rounds}{}: {:.2} s, batch p50 {:.1} us",
            if trace_this { " (traced)" } else { "" },
            round_start.elapsed().as_secs_f64(),
            m.batch_us.tail(first_batch).median().unwrap_or(f64::NAN)
        );
        if opts.smoke && rounds >= min_rounds {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&opts.store);
    if let Some(e) = fatal {
        runner.fail(e);
    }

    let mut mre_by_kind = Vec::new();
    let ceiling = MRE_MARGIN * sampling_mre_at_one_percent();
    let by_kind: Vec<_> = runner
        .accuracy
        .by_kind
        .iter()
        .map(|(&k, &v)| (k, v))
        .collect();
    for (kind, (sum, n)) in by_kind {
        let mre = sum / n.max(1) as f64;
        let limit = (kind != "uniform").then_some(ceiling);
        if limit.is_some_and(|l| mre > l) {
            runner.fail(format!(
                "{kind}: mre {mre:.4} above the ceiling {ceiling:.4}"
            ));
        }
        mre_by_kind.push((kind, mre, limit));
    }

    let mut end_to_end = BTreeMap::new();
    let put = |map: &mut BTreeMap<&'static str, f64>, k: &'static str, v: Option<f64>| {
        if let Some(v) = v {
            map.insert(k, v);
        }
    };
    {
        let m = &plain;
        let e = &mut end_to_end;
        put(e, "setup_s", m.setup_s.median());
        put(e, "batch_p50_us", m.batch_us.median());
        put(e, "batch_p99_us", m.batch_us.quantile(0.99));
        put(e, "single_p50_ns", m.single_ns.median());
        put(
            e,
            "estimates_per_s",
            (m.estimate_s > 0.0).then(|| m.estimates as f64 / m.estimate_s),
        );
        put(e, "mre", Some(runner.accuracy.overall()));
        put(e, "refresh_ms", m.refresh_ms.median());
        put(e, "updates_per_s", m.update_rate.median());
        put(e, "recover_ms", m.recover_ms.median());
        put(
            e,
            "durable_bytes",
            (m.durable_bytes > 0.0).then_some(m.durable_bytes),
        );
        put(e, "peak_rss_mib", Some(peak_rss_mib()));
    }
    let mut per_layer = BTreeMap::new();
    if opts.trace {
        for (name, samples) in &traced.layers {
            put(&mut per_layer, name, samples.median());
        }
        put(
            &mut per_layer,
            "serving.cache_hit_ratio",
            (traced.cache_probes > 0)
                .then(|| traced.cache_hits as f64 / traced.cache_probes as f64),
        );
        if let (Some(t), Some(p)) = (traced.batch_us.median(), plain.batch_us.median()) {
            per_layer.insert("trace.overhead_pct", 100.0 * (t / p - 1.0));
        }
    }
    let batch_by_kind = traced
        .by_kind
        .iter()
        .filter_map(|(&kind, (engine, direct))| Some((kind, engine.median()?, direct.median()?)))
        .collect();
    let correct = runner.failures.is_empty() && runner.ops.failed() == 0;
    Outcome {
        ops: runner.ops,
        correct,
        failures: runner.failures,
        rounds,
        end_to_end,
        per_layer,
        mre_by_kind,
        batch_by_kind,
    }
}
