//! The three serving workloads and the run that measures one of them.
//!
//! Every workload serves ε = 0.25 with library defaults for every other
//! knob, under churn from `adapter::churn_stream` with the default mix.
//! The instance is the same in every run of a workload; the seed draws the
//! churn stream, which is generated before any timer starts and cut into
//! fixed-size epoch batches. (Instances drawn from different seeds differ
//! by up to a fifth in serving and recovery cost, which would swamp the
//! run-to-run comparison.) One client drives a closed loop: the batch of
//! epoch e+1 is submitted only after `end_epoch(e)` returns.
//!
//! | workload | instance | engine |
//! |---|---|---|
//! | `powerlaw_serial` | power law, 400k × 100k, exp 1.5, deg 2..512, cap 4 | serial `ServeLoop`; 300 updates / epoch |
//! | `forest_star_durable` | 4 spanning trees, 130k × 100k, cap 2 | `NetServeLoop` star, WAL, full checkpoint every 16 epochs, crash and recovery; m/1000 updates / epoch |
//! | `forest_p2p` | 4 spanning trees, 65k × 50k, cap 2 | `NetServeLoop` peer-to-peer; 50 updates / epoch |
//!
//! The networked engines run 2 shards over loopback.
//!
//! `powerlaw_serial` is not listed in `BENCHMARK.json`: on a shared
//! 2-core host its memory-bound sweep swung by 30–40 % between runs of the
//! same code (interquartile range over ten seeds), beyond any bound the
//! benchmark may set. It stays runnable by name.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sparse_alloc_core::{boosting::hk::boost_hk, guessing::run_with_guessing, rounding};
use sparse_alloc_dynamic::adapter::{churn_stream, ChurnMix};
use sparse_alloc_dynamic::distributed::BatchReport;
use sparse_alloc_dynamic::{
    snapshot, wal, DynamicConfig, EpochReport, NetServeLoop, NetStats, ServeLoop, ShardedConfig,
    TransportKind, Update, WalRecord, WalWriter,
};
use sparse_alloc_flow::opt::opt_value;
use sparse_alloc_graph::generators::{power_law, union_of_spanning_trees, PowerLawParams};
use sparse_alloc_graph::{Bipartite, RightId};

use crate::spans::{self_times_ns, Spans};
use crate::stats::{mean, median, percentile, ratio};

const EPS: f64 = 0.25;
const SHARDS: usize = 2;
/// Generator seed of every workload's instance.
const INSTANCE_SEED: u64 = 1;
/// Every measured run closes at least this many epochs, so at least ten
/// epochs lie beyond the reported p90.
const MIN_EPOCHS: usize = 100;
/// The durable workload takes a full checkpoint every this many epochs...
const CHECKPOINT_EVERY: usize = 16;
/// ... and crashes this many epochs after its last checkpoint, so every
/// recovery replays a WAL tail of the same length.
const TAIL_EPOCHS: usize = 8;
/// Set-ups per run, reported as their median.
const SETUPS: usize = 5;
/// Timed restarts from the last full checkpoint per run: at least
/// `MIN_LOADS`, and more, up to `MAX_LOADS`, until they add up to
/// `LOAD_SECONDS` (one load takes tens of milliseconds).
const MIN_LOADS: usize = 3;
const MAX_LOADS: usize = 60;
const LOAD_SECONDS: f64 = 3.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Serial,
    StarDurable,
    P2p,
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    kind: Kind,
    /// Updates per epoch batch, from the instance's edge count.
    per_epoch: fn(usize) -> usize,
    /// Upper bound on epochs per second, to size the pre-generated stream.
    max_epochs_per_s: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "powerlaw_serial",
        kind: Kind::Serial,
        per_epoch: |_| 300,
        max_epochs_per_s: 30,
    },
    Spec {
        name: "forest_star_durable",
        kind: Kind::StarDurable,
        per_epoch: |m| m / 1000,
        max_epochs_per_s: 30,
    },
    Spec {
        name: "forest_p2p",
        kind: Kind::P2p,
        per_epoch: |_| 50,
        max_epochs_per_s: 20,
    },
];

impl Spec {
    fn instance(&self, seed: u64) -> Bipartite {
        match self.kind {
            Kind::Serial => {
                let p = PowerLawParams {
                    n_left: 400_000,
                    n_right: 100_000,
                    exponent: 1.5,
                    min_degree: 2,
                    max_degree: 512,
                    cap: 4,
                };
                power_law(&p, seed).graph
            }
            Kind::StarDurable => union_of_spanning_trees(130_000, 100_000, 4, 2, seed).graph,
            Kind::P2p => union_of_spanning_trees(65_000, 50_000, 4, 2, seed).graph,
        }
    }

    fn dynamic_config(&self) -> DynamicConfig {
        match self.kind {
            Kind::Serial => DynamicConfig::for_eps(EPS),
            Kind::StarDurable | Kind::P2p => sharded_config().dynamic,
        }
    }
}

fn sharded_config() -> ShardedConfig {
    ShardedConfig::for_eps(EPS, SHARDS)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// What the value was computed from, for the human-readable report.
    pub base: String,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness checks that failed (empty: correct).
    pub problems: Vec<String>,
    /// Engine calls made, and those that returned an error.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Context lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    fn report(&mut self, rows: Vec<(&'static str, f64, &'static str, String)>) {
        let rows = rows.into_iter().map(|(name, value, unit, base)| Metric {
            name,
            value,
            unit,
            base,
        });
        self.metrics.extend(rows);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

// Both variants are about 12 KB; a run holds one engine at a time.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Serial(ServeLoop),
    Net(NetServeLoop),
}

type Mate = Vec<Option<RightId>>;

impl Engine {
    fn serial(&self) -> &ServeLoop {
        match self {
            Engine::Serial(s) => s,
            Engine::Net(s) => s.serial(),
        }
    }

    fn validate(&self) -> Result<(), String> {
        match self {
            Engine::Serial(s) => s.validate(),
            Engine::Net(s) => s.validate(),
        }
    }

    fn net_stats(&self) -> NetStats {
        match self {
            Engine::Serial(_) => NetStats::default(),
            Engine::Net(s) => s.net_stats(),
        }
    }

    fn wal_bytes(&self) -> u64 {
        match self {
            Engine::Serial(_) => 0,
            Engine::Net(s) => s.wal_bytes(),
        }
    }

    fn ledger_words(&self) -> u64 {
        match self {
            Engine::Serial(_) => 0,
            Engine::Net(s) => s.ledger().words_total,
        }
    }
}

/// Layer counters of one serving phase.
#[derive(Debug, Default)]
struct Served {
    epochs: usize,
    updates: u64,
    wall_s: f64,
    cpu_s: f64,
    /// Per epoch: first apply of its batch to the return of its
    /// `end_epoch`.
    visible_ms: Vec<f64>,
    reports: Vec<EpochReport>,
    batches: Vec<BatchReport>,
    /// Max over epochs of the busiest shard's words, and the budget.
    peak_shard_words: usize,
    budget: usize,
    net: NetStats,
    wal_bytes: u64,
    ledger_words: u64,
    /// Durable workload: the epoch count at the last periodic checkpoint
    /// and the coordinator's matching it holds.
    checkpointed: Option<(usize, Mate)>,
    attempted: u64,
    failed: u64,
    error: Option<String>,
}

enum Stop {
    /// Serve for `seconds` and at least [`MIN_EPOCHS`] epochs; the
    /// durable workload then goes on to a crash point.
    Timed(f64),
    /// Serve exactly this many epochs.
    Epochs(usize),
}

/// What the correctness gate established about the served state.
struct Checked {
    mate: Mate,
    size: usize,
    opt: u64,
}

/// Recovery of the crash after the last epoch, and the timed restarts.
#[derive(Debug, Default)]
struct Recovery {
    /// Seconds the crash recovery took.
    crash_secs: f64,
    /// Updates it replayed from the WAL.
    replayed: u64,
    /// Seconds each restart from the last full checkpoint took.
    /// `recover_s` is the fastest: on a shared host one restart slows by
    /// up to a quarter under other tenants' memory traffic, and the
    /// fastest repeat measures the restart path itself.
    secs: Vec<f64>,
}

/// A state to recover: the checkpoint taken after `from` epochs, replayed
/// (durable workload) through the close of epoch `crash`, must give
/// `state`.
struct Target<'a> {
    from: usize,
    crash: Option<usize>,
    state: &'a Mate,
}

/// Measure `spec` once: end-to-end metrics, or with `trace` the
/// per-layer metrics.
///
/// WAL and checkpoint files go to `scratch`; with `trace`, the spans are
/// written to that file when the run ends.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: Option<&Path>, scratch: &Path) -> Outcome {
    let g = spec.instance(INSTANCE_SEED);
    let per_epoch = (spec.per_epoch)(g.m()).max(1);
    let max_epochs =
        MIN_EPOCHS + CHECKPOINT_EVERY + (seconds.ceil() as usize) * spec.max_epochs_per_s;
    let events = max_epochs * per_epoch;
    let stream = churn_stream(&g, events, &ChurnMix::default(), seed);
    let mut run = Run {
        spec,
        g: &g,
        batches: stream.chunks(per_epoch).take(max_epochs).collect(),
        seconds,
        scratch: scratch.to_path_buf(),
        out: Outcome::default(),
    };
    run.out.notes.push(format!(
        "instance: n_left {} n_right {} m {}; {per_epoch} updates per epoch; seed {seed}",
        g.n_left(),
        g.n_right(),
        g.m()
    ));
    match trace {
        Some(trace_file) => run.traced(trace_file),
        None => run.untraced(),
    }
    run.out
}

/// One run of a workload: its inputs, its files, and what it reports.
struct Run<'a> {
    spec: &'a Spec,
    g: &'a Bipartite,
    batches: Vec<&'a [Update]>,
    seconds: f64,
    /// Holds the WAL and checkpoints.
    scratch: PathBuf,
    out: Outcome,
}

impl Run<'_> {
    fn wal(&self) -> PathBuf {
        self.scratch.join("wal.log")
    }

    /// The full checkpoint taken after `epochs` epochs.
    fn checkpoint(&self, epochs: usize) -> PathBuf {
        self.scratch.join(format!("checkpoint-{epochs}.snap"))
    }

    fn durable(&self) -> bool {
        self.spec.kind == Kind::StarDurable
    }

    fn untraced(&mut self) {
        let mut off = Spans::new(false);
        let mut setups = Vec::new();
        let mut engine = None;
        for _ in 0..SETUPS {
            drop(engine.take());
            match self.setup(&mut off) {
                Ok((e, secs)) => {
                    setups.push(secs);
                    engine = Some(e);
                }
                Err(e) => return self.out.problems.push(e),
            }
        }
        let mut engine = engine.expect("at least one set-up");
        let served = self.serve(&mut engine, Stop::Timed(self.seconds), &mut off);
        let rss_mb = peak_rss_mb();
        let Some(checked) = self.check(&mut engine, &served) else {
            return;
        };
        let recovery = self.crash_and_recover(engine, &checked.mate, &served, true, &mut off);

        let n = served.visible_ms.len();
        let (p50, p90) = match (
            percentile(&served.visible_ms, 50.0),
            percentile(&served.visible_ms, 90.0),
        ) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => return self.out.problems.push(format!("visible_ms: {e}")),
        };
        let ups = served.updates as f64;
        let beyond = n - (n * 9).div_ceil(10);
        self.out.report(vec![
            (
                "setup_s",
                median(&setups),
                "s",
                format!("median of {} set-ups", setups.len()),
            ),
            (
                "throughput_ups",
                ups / served.wall_s,
                "1/s",
                format!("{ups} updates / {:.3} s serving", served.wall_s),
            ),
            ("visible_ms_p50", p50, "ms", format!("{n} epoch samples")),
            (
                "visible_ms_p90",
                p90,
                "ms",
                format!("{n} epoch samples, {beyond} beyond"),
            ),
            (
                "recover_s",
                recovery.secs.iter().copied().fold(f64::INFINITY, f64::min),
                "s",
                format!("fastest of {} restarts", recovery.secs.len()),
            ),
            (
                "match_ratio",
                ratio(checked.size as f64, checked.opt as f64),
                "ratio",
                format!("|M| {} / OPT {}", checked.size, checked.opt),
            ),
            ("peak_rss_mb", rss_mb, "MB", "VmHWM after serving".into()),
            (
                "cpu_us_per_update",
                served.cpu_s * 1e6 / ups,
                "us",
                format!("{:.2} s user+sys / {ups} updates", served.cpu_s),
            ),
        ]);
        let out = &mut self.out;
        out.notes.push(format!(
            "epochs {} (rebuilt {}); failed_ratio {} ({} of {} calls)",
            served.epochs,
            served.reports.iter().filter(|r| r.rebuilt).count(),
            ratio(out.failed as f64, out.attempted as f64),
            out.failed,
            out.attempted
        ));
        out.notes.push(format!(
            "crash after the last epoch recovered in {:.3} s, {} updates replayed from the WAL",
            recovery.crash_secs, recovery.replayed
        ));
    }

    fn traced(&mut self, trace_file: &Path) {
        let mut spans = Spans::new(true);
        let cfg = self.spec.dynamic_config();
        let g = self.g;

        // The static solve, layer by layer, on the base instance.
        let id = spans.open("core.guess", None);
        let guess = run_with_guessing(g, cfg.eps);
        spans.close(id);
        let id = spans.open("core.round", None);
        let rounded = rounding::round_greedy(g, &guess.result.fractional);
        spans.close(id);
        let id = spans.open("core.boost", None);
        let (boosted, _) = boost_hk(g, &rounded, cfg.walk_budget);
        spans.close(id);
        let valid = boosted.validate(g);
        self.out
            .check(valid.is_ok(), || format!("static solve: {valid:?}"));

        // Untraced half: the reference wall for the tracing overhead.
        let mut off = Spans::new(false);
        let (mut engine, _) = match self.setup(&mut off) {
            Ok(e) => e,
            Err(e) => return self.out.problems.push(e),
        };
        let untraced = self.serve(&mut engine, Stop::Timed(self.seconds / 2.0), &mut off);
        drop(engine);
        if untraced.error.is_some() {
            return;
        }

        // Traced half: the same epochs on a fresh engine.
        let (mut engine, _) = match self.setup(&mut spans) {
            Ok(e) => e,
            Err(e) => return self.out.problems.push(e),
        };
        let served = self.serve(&mut engine, Stop::Epochs(untraced.epochs), &mut spans);
        let Some(checked) = self.check(&mut engine, &served) else {
            return;
        };
        let recovery = self.crash_and_recover(engine, &checked.mate, &served, false, &mut spans);

        self.layer_metrics(guess.total_rounds, &spans, &served, &untraced, &recovery);
        match spans.write_jsonl(trace_file) {
            Ok(()) => self
                .out
                .notes
                .push(format!("spans written to {}", trace_file.display())),
            Err(e) => self.out.problems.push(format!("writing spans: {e}")),
        }
    }

    fn layer_metrics(
        &mut self,
        core_rounds: usize,
        spans: &Spans,
        served: &Served,
        untraced: &Served,
        recovery: &Recovery,
    ) {
        let ups = served.updates as f64;
        let epochs = served.epochs as f64;
        let net = self.spec.kind != Kind::Serial;
        let one = |name: &str| spans.durations_ms(name).first().copied().unwrap_or(0.0);
        let p50 = |samples: &[f64]| percentile(samples, 50.0).unwrap_or(0.0);
        let per_up = || format!("{} updates", served.updates);
        let per_ep = || format!("{} epochs", served.epochs);

        let end_ms = spans.durations_ms("end_epoch");
        let sum = |f: fn(&EpochReport) -> f64| served.reports.iter().map(f).fold(0.0, |a, x| a + x);
        let starts = sum(|r| r.sweep_starts as f64);
        let augmentations = sum(|r| r.sweep_augmentations as f64);
        let (apply_us, apply_base): (Vec<f64>, _) = if net {
            let batch_ms = spans.durations_ms("apply_batch").into_iter();
            let per_update = batch_ms.zip(&served.batches);
            let us = per_update
                .map(|(ms, b)| ms * 1e3 / b.updates.max(1) as f64)
                .collect();
            (us, "apply_batch spans, each ÷ its updates")
        } else {
            let us = spans
                .durations_ms("apply")
                .iter()
                .map(|ms| ms * 1e3)
                .collect();
            (us, "apply spans")
        };
        let rebuild_ms: Vec<f64> = (end_ms.iter().zip(&served.reports))
            .filter(|(_, r)| r.rebuilt)
            .map(|(ms, _)| *ms)
            .collect();

        let bsum =
            |f: fn(&BatchReport) -> f64| served.batches.iter().map(f).fold(0.0, |a, x| a + x);
        let n_batches = served.batches.len() as f64;
        let waves = bsum(|b| b.waves as f64);
        let n = &served.net;
        let p50_net = |name: &str| {
            if net {
                p50(&spans.durations_ms(name))
            } else {
                0.0
            }
        };
        let ckpt = spans.durations_ms("snapshot.checkpoint");

        let all = spans.spans();
        let selfs = self_times_ns(all);
        let is_frame = |name: &str| name == "serve" || name == "epoch";
        let unattributed = (all.iter().zip(&selfs))
            .filter(|(s, _)| is_frame(s.name))
            .fold(0, |a, (_, t)| a + t);
        let serve_ns = all
            .iter()
            .find(|s| s.name == "serve")
            .map_or(0, |s| s.duration_ns());

        self.out.report(vec![
            (
                "core.guess_ms",
                one("core.guess"),
                "ms",
                "run_with_guessing, base instance".into(),
            ),
            (
                "core.round_ms",
                one("core.round"),
                "ms",
                "round_greedy".into(),
            ),
            ("core.boost_ms", one("core.boost"), "ms", "boost_hk".into()),
            (
                "core.rounds",
                core_rounds as f64,
                "count",
                "GuessingResult.total_rounds".into(),
            ),
            ("serve.epochs", epochs, "count", "closed epochs".into()),
            (
                "serve.end_epoch_ms_p50",
                p50(&end_ms),
                "ms",
                format!("{} spans", end_ms.len()),
            ),
            ("serve.sweep_starts", starts / epochs, "count", per_ep()),
            (
                "serve.sweep_expansions",
                sum(|r| r.sweep_expansions as f64) / epochs,
                "count",
                per_ep(),
            ),
            (
                "serve.ball_rights",
                sum(|r| r.ball_rights as f64) / epochs,
                "count",
                per_ep(),
            ),
            (
                "serve.sweep_yield",
                ratio(augmentations, starts),
                "ratio",
                format!("{augmentations} augmentations / {starts} sweep starts"),
            ),
            (
                "serve.apply_us_p50",
                p50(&apply_us),
                "us",
                format!("{} {apply_base}", apply_us.len()),
            ),
            ("serve.rebuilds", rebuild_ms.len() as f64, "count", per_ep()),
            (
                "serve.rebuild_ms",
                mean(&rebuild_ms),
                "ms",
                format!("mean of {} rebuild epochs", rebuild_ms.len()),
            ),
            (
                "batch.waves_per_batch",
                ratio(waves, n_batches),
                "count",
                format!("{n_batches} batches"),
            ),
            (
                "batch.mean_wave_width",
                ratio(bsum(|b| b.updates as f64), waves),
                "count",
                format!("{waves} waves"),
            ),
            (
                "batch.delayed_ratio",
                ratio(bsum(|b| b.delayed as f64), ups),
                "ratio",
                per_up(),
            ),
            (
                "batch.escalations",
                bsum(|b| b.escalations as f64),
                "count",
                per_ep(),
            ),
            (
                "mpc.peak_shard_words",
                served.peak_shard_words as f64,
                "words",
                per_ep(),
            ),
            (
                "mpc.space_budget_ratio",
                ratio(served.peak_shard_words as f64, served.budget as f64),
                "ratio",
                format!("budget {} words", served.budget),
            ),
            (
                "mpc.ledger_words_per_update",
                served.ledger_words as f64 / ups,
                "words",
                per_up(),
            ),
            (
                "net.apply_batch_ms_p50",
                p50_net("apply_batch"),
                "ms",
                per_ep(),
            ),
            ("net.end_epoch_ms_p50", p50_net("end_epoch"), "ms", per_ep()),
            (
                "net.wire_bytes_per_update",
                (n.bytes_sent + n.bytes_received) as f64 / ups,
                "B",
                per_up(),
            ),
            (
                "net.frames_per_epoch",
                (n.frames_sent + n.frames_received) as f64 / epochs,
                "count",
                per_ep(),
            ),
            (
                "net.route_bytes_per_update",
                n.route_bytes as f64 / ups,
                "B",
                per_up(),
            ),
            (
                "net.commit_bytes_per_update",
                n.commit_bytes as f64 / ups,
                "B",
                per_up(),
            ),
            (
                "net.census_bytes_per_epoch",
                n.census_bytes as f64 / epochs,
                "B",
                per_ep(),
            ),
            (
                "net.wave_bytes_per_update",
                n.wave_bytes as f64 / ups,
                "B",
                per_up(),
            ),
            (
                "net.handoff_frames_per_update",
                n.handoff_frames as f64 / ups,
                "count",
                per_up(),
            ),
            (
                "net.handoff_bytes_per_update",
                n.handoff_bytes as f64 / ups,
                "B",
                per_up(),
            ),
            (
                "net.max_handoff_rounds",
                n.max_handoff_rounds as f64,
                "count",
                "deepest plan".into(),
            ),
            ("net.retries", n.retries as f64, "count", per_ep()),
            ("net.respawns", n.respawns as f64, "count", per_ep()),
            (
                "wal.bytes_per_update",
                served.wal_bytes as f64 / ups,
                "B",
                per_up(),
            ),
            (
                "snapshot.checkpoint_ms",
                median(&ckpt),
                "ms",
                format!("median of {} checkpoints", ckpt.len()),
            ),
            (
                "snapshot.load_ms",
                one("snapshot.load"),
                "ms",
                "one recovery".into(),
            ),
            ("wal.read_ms", one("wal.read"), "ms", "one recovery".into()),
            (
                "wal.replay_ms",
                one("wal.replay"),
                "ms",
                "one recovery".into(),
            ),
            (
                "wal.replayed_updates",
                recovery.replayed as f64,
                "count",
                "one recovery".into(),
            ),
            (
                "obs.trace_overhead",
                served.wall_s / untraced.wall_s,
                "ratio",
                format!(
                    "{:.3} s traced / {:.3} s untraced, {} epochs each",
                    served.wall_s, untraced.wall_s, served.epochs
                ),
            ),
            (
                "trace.unattributed_share",
                ratio(unattributed as f64, serve_ns as f64),
                "ratio",
                "self time of serve and epoch spans / serve span".into(),
            ),
        ]);
    }

    /// Build the workload's engine; returns it with the set-up time in
    /// seconds (instance in hand to first batch accepted).
    fn setup(&mut self, spans: &mut Spans) -> Result<(Engine, f64), String> {
        let g = self.g.clone();
        self.out.attempted += 1;
        let t0 = Instant::now();
        let span = spans.open("setup", None);
        let id = spans.open("engine.new", None);
        let (cfg, kind) = (sharded_config(), TransportKind::Loopback);
        let built = match self.spec.kind {
            Kind::Serial => Ok(Engine::Serial(ServeLoop::new(
                g,
                self.spec.dynamic_config(),
            ))),
            Kind::StarDurable => NetServeLoop::new(g, cfg, kind).map(Engine::Net),
            Kind::P2p => NetServeLoop::new_p2p(g, cfg, kind).map(Engine::Net),
        };
        spans.close(id);
        let mut engine = built.map_err(|e| {
            self.out.failed += 1;
            format!("engine set-up failed: {e}")
        })?;
        if let (true, Engine::Net(net)) = (self.durable(), &mut engine) {
            let id = spans.open("wal.attach", None);
            let wal =
                WalWriter::create(&self.wal()).map_err(|e| format!("creating the WAL: {e}"))?;
            net.attach_wal(wal);
            spans.close(id);
            let id = spans.open("snapshot.checkpoint", None);
            self.out.attempted += 1;
            net.checkpoint(self.checkpoint(0)).map_err(|e| {
                self.out.failed += 1;
                format!("base checkpoint failed: {e}")
            })?;
            spans.close(id);
        }
        spans.close(span);
        Ok((engine, t0.elapsed().as_secs_f64()))
    }

    /// The closed-loop serving phase.
    fn serve(&mut self, engine: &mut Engine, stop: Stop, spans: &mut Spans) -> Served {
        let mut s = Served {
            budget: match engine {
                Engine::Serial(_) => 0,
                Engine::Net(n) => n.inner().space_budget(),
            },
            ..Served::default()
        };
        let net0 = engine.net_stats();
        let wal0 = engine.wal_bytes();
        let words0 = engine.ledger_words();
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let serve_span = spans.open("serve", None);
        for (e, batch) in self.batches.iter().enumerate() {
            let done = match stop {
                Stop::Timed(seconds) => {
                    e >= MIN_EPOCHS
                        && t0.elapsed().as_secs_f64() >= seconds
                        && (!self.durable() || e % CHECKPOINT_EVERY == TAIL_EPOCHS)
                }
                Stop::Epochs(n) => e >= n,
            };
            if done {
                break;
            }
            let epoch = Some(e as u64);
            let epoch_span = spans.open("epoch", epoch);
            let te = Instant::now();
            let closed = match engine {
                Engine::Serial(serve) => {
                    for up in batch.iter() {
                        let id = spans.open("apply", epoch);
                        serve.apply(up);
                        spans.close(id);
                    }
                    s.attempted += batch.len() as u64 + 1;
                    let id = spans.open("end_epoch", epoch);
                    let report = serve.end_epoch();
                    spans.close(id);
                    Ok(report)
                }
                Engine::Net(serve) => {
                    s.attempted += 1;
                    let id = spans.open("apply_batch", epoch);
                    let applied = serve.apply_batch(batch);
                    spans.close(id);
                    applied.and_then(|b| {
                        s.batches.push(b);
                        s.attempted += 1;
                        let id = spans.open("end_epoch", epoch);
                        let report = serve.end_epoch();
                        spans.close(id);
                        report.map(|r| {
                            s.peak_shard_words = s.peak_shard_words.max(r.inner.peak_shard_words);
                            r.inner.serial
                        })
                    })
                }
            };
            s.visible_ms.push(te.elapsed().as_secs_f64() * 1e3);
            let closed = closed.map_err(|err| format!("epoch {e}: {err}"));
            let closed = closed.and_then(|report| {
                s.reports.push(report);
                s.epochs += 1;
                s.updates += batch.len() as u64;
                self.durability(engine, &mut s, spans)
            });
            spans.close(epoch_span);
            if let Err(err) = closed {
                s.failed += 1;
                s.error = Some(err);
                break;
            }
        }
        spans.close(serve_span);
        s.wall_s = t0.elapsed().as_secs_f64();
        s.cpu_s = cpu_seconds() - cpu0;
        s.net = net_delta(&net0, &engine.net_stats());
        s.wal_bytes = engine.wal_bytes() - wal0;
        s.ledger_words = engine.ledger_words() - words0;
        self.out.attempted += s.attempted;
        self.out.failed += s.failed;
        if let Some(e) = &s.error {
            self.out.problems.push(e.clone());
        }
        s
    }

    /// The durable workload's work after an epoch closes: a full
    /// checkpoint every [`CHECKPOINT_EVERY`] epochs, replacing the previous
    /// one, and the matching it holds.
    fn durability(
        &self,
        engine: &mut Engine,
        s: &mut Served,
        spans: &mut Spans,
    ) -> Result<(), String> {
        let Engine::Net(serve) = engine else {
            return Ok(());
        };
        if !self.durable() {
            return Ok(());
        }
        if s.epochs.is_multiple_of(CHECKPOINT_EVERY) {
            s.attempted += 1;
            let id = spans.open("snapshot.checkpoint", Some(s.epochs as u64 - 1));
            let written = serve.checkpoint(self.checkpoint(s.epochs));
            spans.close(id);
            written.map_err(|e| format!("checkpoint after {} epochs: {e}", s.epochs))?;
            let _ = std::fs::remove_file(self.checkpoint(s.epochs - CHECKPOINT_EVERY));
            s.checkpointed = Some((s.epochs, serve.serial().assignment().mate));
        }
        Ok(())
    }

    /// The correctness gate (untimed): the engine validates, its matching
    /// is within `k/(k+1)` of OPT, and a networked engine's wire-gathered
    /// assignment equals a serial `ServeLoop` oracle on the same epochs.
    fn check(&mut self, engine: &mut Engine, served: &Served) -> Option<Checked> {
        if served.error.is_some() {
            return None;
        }
        let out = &mut self.out;
        if let Err(e) = engine.validate() {
            out.problems.push(format!("validate: {e}"));
            return None;
        }
        let size = engine.serial().match_size();
        let opt = opt_value(&engine.serial().snapshot());
        let k = self.spec.dynamic_config().walk_budget as f64;
        let match_ratio = ratio(size as f64, opt as f64);
        out.check(match_ratio >= k / (k + 1.0), || {
            format!(
                "match_ratio {match_ratio} below k/(k+1) = {}",
                k / (k + 1.0)
            )
        });
        let mate = match engine {
            Engine::Serial(s) => s.assignment().mate,
            Engine::Net(net) => {
                out.attempted += 1;
                let gathered = match net.gather_assignment() {
                    Ok(a) => a.mate,
                    Err(e) => {
                        out.failed += 1;
                        out.problems.push(format!("gather_assignment: {e}"));
                        return None;
                    }
                };
                let mut oracle = ServeLoop::new(self.g.clone(), self.spec.dynamic_config());
                for batch in &self.batches[..served.epochs] {
                    for up in batch.iter() {
                        oracle.apply(up);
                    }
                    oracle.end_epoch();
                }
                let same = oracle.assignment().mate == gathered;
                out.check(same, || {
                    "gathered assignment differs from the serial oracle".into()
                });
                gathered
            }
        };
        Some(Checked { mate, size, opt })
    }

    /// Crash the engine after its last epoch, recover it and check the
    /// recovered state; with `repeat`, then time restarts for `recover_s`.
    ///
    /// The durable workload recovers from its last full checkpoint plus
    /// the WAL tail; the others have no WAL and take a full checkpoint
    /// after the last epoch. `recover_s` times the restart from the last
    /// full checkpoint alone, at least [`MIN_LOADS`] times and more, up to
    /// [`MAX_LOADS`], until [`LOAD_SECONDS`] have passed. The WAL replay is
    /// left to the per-layer metrics: its time swings by half between
    /// churn seeds, as the one drift rebuild of a run lands inside the
    /// replayed tail or not.
    fn crash_and_recover(
        &mut self,
        mut engine: Engine,
        pre_crash: &Mate,
        served: &Served,
        repeat: bool,
        spans: &mut Spans,
    ) -> Recovery {
        if !self.durable() {
            let last = self.checkpoint(served.epochs);
            let id = spans.open("snapshot.checkpoint", None);
            let written = match &mut engine {
                Engine::Serial(s) => snapshot::save_serial(s, &last).map_err(|e| e.to_string()),
                Engine::Net(n) => n.checkpoint(&last).map_err(|e| e.to_string()),
            };
            spans.close(id);
            if let Err(e) = written {
                self.out.problems.push(format!("final checkpoint: {e}"));
                return Recovery::default();
            }
        }
        drop(engine);
        let crash = self.durable().then_some(served.epochs);
        let real = Target {
            from: served.epochs - crash.map_or(0, |_| TAIL_EPOCHS),
            crash,
            state: pre_crash,
        };
        let mut recovery = Recovery::default();
        let Some((crash_secs, replayed)) = self.recover_checked(&real, spans) else {
            return recovery;
        };
        recovery.crash_secs = crash_secs;
        recovery.replayed = replayed;
        if !repeat {
            return recovery;
        }
        let restart = match &served.checkpointed {
            Some((e, state)) => Target {
                from: *e,
                crash: None,
                state,
            },
            None => real,
        };
        let t_all = Instant::now();
        while recovery.secs.len() < MIN_LOADS
            || (recovery.secs.len() < MAX_LOADS && t_all.elapsed().as_secs_f64() < LOAD_SECONDS)
        {
            match self.recover_checked(&restart, spans) {
                Some((secs, _)) => recovery.secs.push(secs),
                None => break,
            }
        }
        recovery
    }

    /// Recover `target` once and check the state; returns the seconds it
    /// took and the updates it replayed, or `None` after recording the
    /// failure.
    fn recover_checked(&mut self, target: &Target, spans: &mut Spans) -> Option<(f64, u64)> {
        self.out.attempted += 1;
        let t0 = Instant::now();
        let span = spans.open("recover", None);
        let recovered = self.recover(target, spans);
        spans.close(span);
        let secs = t0.elapsed().as_secs_f64();
        match recovered {
            Ok((mate, replayed)) => {
                self.out.check(mate == *target.state, || {
                    let at = target.crash.unwrap_or(target.from);
                    format!("the state recovered at epoch {at} differs from the pre-crash one")
                });
                Some((secs, replayed))
            }
            Err(e) => {
                self.out.failed += 1;
                self.out.problems.push(format!("recovery: {e}"));
                None
            }
        }
    }

    /// One recovery: the recovered mate vector and the number of updates
    /// replayed from the WAL.
    fn recover(&self, target: &Target, spans: &mut Spans) -> Result<(Mate, u64), String> {
        let checkpoint = self.checkpoint(target.from);
        let id = spans.open("snapshot.load", None);
        if self.spec.kind == Kind::Serial {
            let s = snapshot::load_serial(&checkpoint).map_err(|e| e.to_string())?;
            spans.close(id);
            return Ok((s.assignment().mate, 0));
        }
        let mut s = snapshot::load_sharded(&checkpoint, Some(SHARDS)).map_err(|e| e.to_string())?;
        spans.close(id);
        let Some(crash) = target.crash else {
            return Ok((s.assignment().mate, 0));
        };
        let id = spans.open("wal.read", None);
        let log = wal::read_wal_file(&self.wal()).map_err(|e| e.to_string())?;
        spans.close(id);
        let tail =
            crash_tail(&log.records, target.from, crash).ok_or("WAL lacks the crash tail")?;
        let id = spans.open("wal.replay", None);
        let stats = wal::replay_sharded(&mut s, tail).map_err(|e| e.to_string())?;
        spans.close(id);
        Ok((s.assignment().mate, stats.updates))
    }
}

/// The WAL records after the base marker of the checkpoint taken after
/// `from` epochs, through the record closing the `to`-th epoch.
fn crash_tail(records: &[WalRecord], from: usize, to: usize) -> Option<&[WalRecord]> {
    let base = |r: &WalRecord| matches!(r, WalRecord::Base { epoch, .. } if *epoch == from as u64);
    let start = records.iter().rposition(base)? + 1;
    let close =
        |r: &WalRecord| matches!(r, WalRecord::EpochEnd { epoch, .. } if *epoch + 1 == to as u64);
    let end = start + records[start..].iter().position(close)? + 1;
    Some(&records[start..end])
}

fn net_delta(a: &NetStats, b: &NetStats) -> NetStats {
    NetStats {
        bytes_sent: b.bytes_sent - a.bytes_sent,
        bytes_received: b.bytes_received - a.bytes_received,
        frames_sent: b.frames_sent - a.frames_sent,
        frames_received: b.frames_received - a.frames_received,
        route_bytes: b.route_bytes - a.route_bytes,
        commit_bytes: b.commit_bytes - a.commit_bytes,
        census_bytes: b.census_bytes - a.census_bytes,
        init_bytes: b.init_bytes - a.init_bytes,
        retries: b.retries - a.retries,
        respawns: b.respawns - a.respawns,
        replayed_bytes: b.replayed_bytes - a.replayed_bytes,
        recovery_ns: b.recovery_ns - a.recovery_ns,
        wave_bytes: b.wave_bytes - a.wave_bytes,
        handoff_bytes: b.handoff_bytes - a.handoff_bytes,
        handoff_frames: b.handoff_frames - a.handoff_frames,
        max_handoff_rounds: b.max_handoff_rounds,
    }
}

/// User plus system CPU time of this process, in seconds, from
/// `/proc/self/stat` (Linux; clock ticks of 1/100 s).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(") ")
        .map_or(vec![], |(_, rest)| rest.split(' ').collect());
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set (VmHWM) of this process in MB, from
/// `/proc/self/status` (Linux).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
