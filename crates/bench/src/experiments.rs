//! The paper's evaluation (Tables 1–2, Figs. 2–10), the `ablate-*`
//! ablations (mis-tiering, λ, delta vs absolute polyline), the LEAF run and
//! the robustness / wire-codec scenarios, as one registry (`EXPERIMENTS`):
//! per id, a builder returning its `Vec<Job>` ([`jobs`] hands one out
//! without running it) and a printer over the results. [`run`] is the one
//! place jobs run; every printer writes through one `Artifact` (the id's
//! directory, text report and CSV tables), which `run` ends with why each
//! run stopped (`<stem>_runs.csv`, and one report line per run).
//!
//! Heavy artifacts share runs: Table 1, Table 2 and Figs. 2–4 all print the
//! strategy × dataset matrix on the 100-client cluster, which `repro
//! matrix` / `all` therefore compute once.
//!
//! The robustness and codec builders ([`churn_jobs`], [`corrupt_jobs`],
//! [`corrupt_curve_jobs`], [`codec_jobs`]) take their task and seed:
//! `tests/acceptance.rs` asserts the claims they carry at its own sizes,
//! and each scenario literal exists once.

use crate::grid::run_grid;
use crate::harness::{Job, JobResult, Scale};
use crate::report::{create_dir, fmt_mb, fmt_tta, slug, write_fault_log, write_text, write_trace};
use fedat_compress::codec::CodecKind;
use fedat_core::aggregate::AggRule;
use fedat_core::config::{
    ExperimentConfig, FaultPolicy, GuardPolicy, NormScreen, RetierPolicy, StrategyKind,
};
use fedat_data::leaf::{writer, LeafBenchmark};
use fedat_data::suite::{self, FedTask};
use fedat_sim::churn::{ChurnConfig, CorruptMode, CorruptSpec, DriftSpec, FlapSpec, StormSpec};
use fedat_sim::fault::FaultKind::{
    Clip, Corrupt, Quarantine, Quorum, Reject, Retier, Retry, Stale, Timeout,
};
use fedat_sim::fleet::ClusterConfig;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use Jobs::{Loaded, Matrix, Own};
use StrategyKind::{AsoFed, FedAsync, FedAt, FedAvg, FedProx, TiFL};

/// Shared experiment context.
pub struct Ctx {
    /// Full or quick scale.
    pub scale: Scale,
    /// Output directory root (usually `results/`).
    pub out: PathBuf,
    /// Master seed.
    pub seed: u64,
    /// Worker hint for [`run_grid`]: > 1 grows the kernel pool to that many
    /// workers, 0 or 1 leaves it at its ambient size.
    pub threads: usize,
}

/// Smoothing window used by the paper's figures ("average-smoothed for
/// every 40 global rounds"; our eval cadence is every 5 rounds, so 8 points
/// ≈ 40 rounds).
const SMOOTH_WINDOW: usize = 8;

/// Shared virtual-time horizon (seconds) for the medium-cluster matrix.
const MATRIX_HORIZON: f64 = 4500.0;

/// The five Table 1 strategies in paper order.
const TABLE1: [StrategyKind; 5] = [TiFL, FedAvg, FedProx, FedAsync, FedAt];

/// The 2-class non-IID datasets of Table 2 and Figs. 2 and 4.
const TWO_CLASS: [&str; 3] = ["cifar10-like(#2)", "fmnist-like(#2)", "sent140-like"];

impl Ctx {
    /// Round budgets for the medium-cluster matrix. Calibrated so every
    /// method fills (roughly) the same virtual-time horizon: a synchronous
    /// round takes ~30 s (compute + worst sampled delay), a FedAT tier round
    /// ~10–35 s depending on the tier, so FedAT earns proportionally more
    /// global updates within the shared `max_time` — exactly the effect the
    /// paper measures.
    fn matrix_rounds(&self, s: StrategyKind) -> u64 {
        self.scale.rounds(if s == FedAt { 1000 } else { 150 })
    }

    /// The default cluster at `n` clients: the large-cluster (Figs. 7, 8,
    /// 10) and LEAF runs.
    fn cluster(&self, n: usize) -> ClusterConfig {
        fedat_core::experiment::default_cluster(n, self.seed)
    }

    /// The config of the paper's runs: strategy `s` for up to `rounds`
    /// global updates within `horizon` virtual seconds on `cluster`,
    /// evaluated every 5 rounds.
    fn cfg(
        &self,
        s: StrategyKind,
        rounds: u64,
        horizon: f64,
        cluster: ClusterConfig,
    ) -> ExperimentConfig {
        let cfg = ExperimentConfig::builder().strategy(s).rounds(rounds);
        let cfg = cfg.max_time(horizon).eval_every(5).seed(self.seed);
        cfg.cluster(cluster).build()
    }

    /// `s` in the medium-cluster matrix (its ten unstable clients kept at
    /// any scale).
    fn matrix_cfg(&self, s: StrategyKind) -> ExperimentConfig {
        let n = self.scale.medium_clients();
        let medium = ClusterConfig::paper_medium(self.seed).with_clients(n);
        self.cfg(s, self.matrix_rounds(s), MATRIX_HORIZON, medium)
    }

    /// `s`'s matrix config on `task` with one field set by `vary`, labelled
    /// `label`: Figs. 5, 6 and 9 and the three ablations.
    fn varied(
        &self,
        task: &Arc<FedTask>,
        s: StrategyKind,
        label: String,
        vary: impl Fn(&mut ExperimentConfig),
    ) -> Job {
        let (mut cfg, task) = (self.matrix_cfg(s), task.clone());
        vary(&mut cfg);
        Job { label, task, cfg }
    }

    /// CIFAR-10-like on the medium cluster, `classes` labels per client
    /// (0 = IID).
    fn cifar10(&self, classes: usize) -> Arc<FedTask> {
        let n = self.scale.medium_clients();
        Arc::new(suite::cifar10_like(n, classes, self.seed))
    }

    fn fmnist2(&self) -> Arc<FedTask> {
        let n = self.scale.medium_clients();
        Arc::new(suite::fmnist_like(n, 2, self.seed))
    }

    fn sent140(&self) -> Arc<FedTask> {
        Arc::new(suite::sent140_like(self.scale.medium_clients(), self.seed))
    }
}

/// A job labelled `<strategy> @ <task>`.
fn job(task: &Arc<FedTask>, cfg: ExperimentConfig) -> Job {
    let label = format!("{} @ {}", cfg.strategy.name(), task.name);
    let task = task.clone();
    Job { label, task, cfg }
}

fn best(r: &JobResult) -> f32 {
    r.outcome.best_accuracy()
}

fn tta(r: &JobResult) -> Option<f64> {
    r.outcome.trace.time_to_accuracy(r.target_accuracy)
}

/// `s` or `-`, for a CSV cell.
fn or_dash(s: Option<String>) -> String {
    s.unwrap_or_else(|| "-".into())
}

/// The strategy × dataset matrix behind Table 1/2 and Figs. 2–4,
/// dataset-major.
fn matrix_jobs(ctx: &Ctx) -> Vec<Job> {
    let mut tasks: Vec<Arc<FedTask>> = [2, 4, 6, 8, 0].map(|c| ctx.cifar10(c)).into();
    tasks.extend([ctx.fmnist2(), ctx.sent140()]);
    let row = |task| TABLE1.map(|s| job(task, ctx.matrix_cfg(s)));
    tasks.iter().flat_map(row).collect()
}

/// Table 1: best accuracy + accuracy variance per dataset and strategy.
fn table1<'r>(art: &mut Artifact<'r>, matrix: &'r [JobResult]) {
    art.title("Table 1 — prediction performance and variance");
    let line = |first: &str, cells: Vec<String>, tag: &str| {
        let cells: String = cells.iter().map(|c| format!(" {c:>9}")).collect();
        format!("{first:<22}{cells}{tag}")
    };
    art.line(line("dataset", TABLE1.map(|s| s.name().into()).into(), ""));
    let header = "dataset,strategy,best_accuracy,accuracy_variance,norm_variance";
    art.csv("", header);
    for row in matrix.chunks(TABLE1.len()) {
        let ds = &row[0].task_name;
        let fedat = row.iter().find(|r| r.strategy == "FedAT");
        let fedat_var = fedat.map_or(1.0, |r| r.outcome.accuracy_variance.max(1e-9));
        let norm_var = |r: &JobResult| r.outcome.accuracy_variance / fedat_var;
        let acc = row.iter().map(|r| format!("{:.3}", best(r)));
        art.line(line(ds, acc.collect(), "  (acc)"));
        let var = row.iter().map(|r| format!("{:.2}", norm_var(r)));
        art.line(line("", var.collect(), "  (norm.var)"));
        for r in row {
            let var = r.outcome.accuracy_variance;
            let (s, b, norm) = (r.strategy, best(r), norm_var(r));
            art.row(format!("{ds},{s},{b:.4},{var:.6},{norm:.3}"));
        }
    }
}

/// Table 2: MB transferred (up + down) to reach the target accuracy on the
/// 2-class non-IID datasets.
fn table2<'r>(art: &mut Artifact<'r>, matrix: &'r [JobResult]) {
    art.title("Table 2 — MB transferred to reach target accuracy (2-class non-IID)");
    let line = |first: &str, [a, b, c]: [String; 3]| format!("{first:<10} {a:>22} {b:>18} {c:>14}");
    art.line(line("method", TWO_CLASS.map(String::from)));
    art.csv("", "dataset,strategy,target,mb_to_target");
    for s in ["FedAvg", "TiFL", "FedProx", "FedAsync", "FedAT"] {
        let cells = TWO_CLASS.map(|ds| {
            let at = |r: &&JobResult| r.task_name == ds && r.strategy == s;
            let r = matrix.iter().find(at).expect("the matrix has every cell");
            let target = r.target_accuracy;
            let mb = r.outcome.trace.bytes_to_accuracy(target);
            let cell = or_dash(mb.map(|b| b.to_string()));
            art.row(format!("{ds},{s},{target},{cell}"));
            fmt_mb(mb)
        });
        art.line(line(s, cells));
    }
}

/// One block per dataset of `datasets`: `[name]`, a line per strategy (its
/// trace written beside the report), a blank line — Figs. 2–4.
fn per_dataset<'r>(
    art: &mut Artifact<'r>,
    m: &'r [JobResult],
    datasets: &[&str],
    line: fn(&JobResult) -> String,
) {
    for ds in datasets {
        art.line(format!("[{ds}]"));
        for r in m.iter().filter(|r| r.task_name == *ds) {
            art.trace(r);
            art.line(line(r));
        }
        art.line("");
    }
}

/// Fig. 2: accuracy-over-time curves + time-to-target bars for the three
/// 2-class non-IID datasets.
fn fig2<'r>(art: &mut Artifact<'r>, matrix: &'r [JobResult]) {
    art.title("Fig. 2 — convergence timelines and time-to-target");
    per_dataset(art, matrix, &TWO_CLASS, |r| {
        let (s, b, target, t) = (r.strategy, best(r), r.target_accuracy, fmt_tta(tta(r)));
        format!("  {s:<9} best {b:.3}  time→{target:.2}: {t}")
    });
}

/// Fig. 3: convergence vs non-IID level on CIFAR-10-like.
fn fig3<'r>(art: &mut Artifact<'r>, matrix: &'r [JobResult]) {
    art.title("Fig. 3 — CIFAR-10-like convergence across non-IID levels");
    let levels = [
        "cifar10-like(#4)",
        "cifar10-like(#6)",
        "cifar10-like(#8)",
        "cifar10-like(iid)",
    ];
    per_dataset(art, matrix, &levels, |r| {
        let (s, b, last) = (r.strategy, best(r), r.outcome.trace.final_accuracy());
        format!("  {s:<9} best {b:.3}  final {last:.3}")
    });
}

/// Fig. 4: accuracy vs cumulative uploaded bytes (2-class non-IID); the
/// trace CSVs carry `up_bytes` per point, the figure's x axis.
fn fig4<'r>(art: &mut Artifact<'r>, matrix: &'r [JobResult]) {
    art.title("Fig. 4 — accuracy vs uploaded bytes (2-class non-IID)");
    per_dataset(art, matrix, &TWO_CLASS, |r| {
        let (s, target) = (r.strategy, r.target_accuracy);
        let up = fmt_mb(r.outcome.trace.upload_bytes_to_accuracy(target));
        format!("  {s:<9} upload-MB→{target:.2}: {up}")
    });
}

/// The paper's polyline codec at `precision` decimals, delta-coded or not.
const fn polyline(precision: u8, delta: bool) -> CodecKind {
    CodecKind::Polyline { precision, delta }
}

/// Fig. 5: FedAT compression-precision sweep on CIFAR-10-like 2-class.
fn fig5_jobs(ctx: &Ctx) -> Vec<Job> {
    let task = ctx.cifar10(2);
    let codecs = (3..=6).map(|p| (format!("precision{p}"), polyline(p, true)));
    let codecs = codecs.chain([("no-compression".into(), CodecKind::None)]);
    let run = |(name, k)| ctx.varied(&task, FedAt, format!("FedAT-{name}"), |c| c.codec = Some(k));
    codecs.map(run).collect()
}

fn fig5<'r>(art: &mut Artifact<'r>, results: &'r [JobResult]) {
    art.title("Fig. 5 — accuracy vs compression precision (FedAT, CIFAR-10-like #2)");
    art.csv("", "variant,best_accuracy,up_mb_total,up_mb_to_target");
    for r in results {
        art.trace(r);
        let (label, b, target) = (&r.label, best(r), r.target_accuracy);
        let up = r.up_bytes() as f64 / 1e6;
        let up_t = r.outcome.trace.upload_bytes_to_accuracy(target);
        let mb = fmt_mb(up_t);
        art.line(format!(
            "  {label:<22} best {b:.3}  upload total {up:.1} MB  upload→{target:.2}: {mb}"
        ));
        let up_t = or_dash(up_t.map(|b| format!("{:.2}", b as f64 / 1e6)));
        art.row(format!("{label},{b:.4},{up:.2},{up_t}"));
    }
}

/// Fig. 6: weighted vs uniform cross-tier aggregation.
fn fig6_jobs(ctx: &Ctx) -> Vec<Job> {
    let pair = |task: Arc<FedTask>| {
        [("Weighted", false), ("Uniform", true)].map(|(name, uniform)| {
            let label = format!("{name} @ {}", task.name);
            ctx.varied(&task, FedAt, label, |c| c.uniform_tier_weights = uniform)
        })
    };
    let tasks = [ctx.cifar10(2), ctx.fmnist2(), ctx.sent140()];
    tasks.into_iter().flat_map(pair).collect()
}

fn fig6<'r>(art: &mut Artifact<'r>, results: &'r [JobResult]) {
    art.title("Fig. 6 — weighted vs uniform cross-tier aggregation (FedAT)");
    art.csv("", "dataset,aggregation,best_accuracy");
    for pair in results.chunks(2) {
        let (ds, w, u) = (&pair[0].task_name, best(&pair[0]), best(&pair[1]));
        let delta = w - u;
        art.line(format!(
            "  {ds:<22} weighted {w:.3}  uniform {u:.3}  (Δ {delta:+.3})"
        ));
        art.row(format!("{ds},weighted,{w:.4}"));
        art.row(format!("{},uniform,{u:.4}", pair[1].task_name));
    }
}

/// Fig. 7: FEMNIST-like at large scale, all six methods (adds ASO-Fed).
fn fig7_jobs(ctx: &Ctx) -> Vec<Job> {
    let n = ctx.scale.large_clients();
    let task = Arc::new(suite::femnist_like(n, ctx.seed));
    // At 500 clients a fully-async method performs hundreds of single-client
    // updates per virtual minute; its budget is capped lower so the simulated
    // compute stays tractable (the paper's async curves plateau early
    // regardless).
    let rounds = |s| match s {
        FedAt => 500,
        FedAsync | AsoFed => 64,
        _ => 200,
    };
    let cfg = |s| ctx.cfg(s, ctx.scale.rounds(rounds(s)), 6000.0, ctx.cluster(n));
    StrategyKind::all().map(|s| job(&task, cfg(s))).into()
}

fn fig7<'r>(art: &mut Artifact<'r>, results: &'r [JobResult]) {
    art.title("Fig. 7 — FEMNIST-like, 500 clients, accuracy vs time and bytes");
    for r in results {
        art.trace(r);
        let (s, b, target, t) = (r.strategy, best(r), r.target_accuracy, fmt_tta(tta(r)));
        let up = r.up_bytes() as f64 / 1e6;
        art.line(format!(
            "  {s:<9} best {b:.3}  t→{target:.2}: {t:>8}  upload {up:.1} MB"
        ));
    }
}

/// Fig. 8: Reddit-like LSTM, accuracy and loss over time
/// (FedAT / TiFL / FedProx).
fn fig8_jobs(ctx: &Ctx) -> Vec<Job> {
    let n = ctx.scale.large_clients();
    let task = Arc::new(suite::reddit_like(n, ctx.seed));
    // FedAT tier updates are ~3–4× faster than full rounds; budgets are set
    // so both fill the same 4000 s horizon — the comparison is at equal
    // virtual time, not at an equal update count.
    let rounds = |s| ctx.scale.rounds(if s == FedAt { 1400 } else { 160 });
    let run = |s| job(&task, ctx.cfg(s, rounds(s), 4000.0, ctx.cluster(n)));
    [FedAt, TiFL, FedProx].map(run).into()
}

fn fig8<'r>(art: &mut Artifact<'r>, results: &'r [JobResult]) {
    art.title("Fig. 8 — Reddit-like LSTM: accuracy and loss over time");
    for r in results {
        art.trace(r);
        let loss = r.outcome.trace.points.last().map_or(f32::NAN, |p| p.loss);
        let (s, b) = (r.strategy, best(r));
        art.line(format!("  {s:<9} best acc {b:.3}  final loss {loss:.3}"));
    }
}

/// Fig. 9's participation levels (clients per round) and methods.
const FIG9_PARTS: [usize; 4] = [2, 5, 10, 15];
const FIG9_STRATEGIES: [StrategyKind; 4] = [FedAt, TiFL, FedAvg, FedProx];

/// Fig. 9: client-participation sweep (clients per round) on CIFAR-10-like
/// #2 and Sentiment140-like for the four synchronous-flavoured methods,
/// task-major, then by participation level.
fn fig9_jobs(ctx: &Ctx) -> Vec<Job> {
    let mut jobs = Vec::new();
    for task in [ctx.cifar10(2), ctx.sent140()] {
        for k in FIG9_PARTS {
            for s in FIG9_STRATEGIES {
                let label = format!("{} k={k} @ {}", s.name(), task.name);
                jobs.push(ctx.varied(&task, s, label, |c| c.clients_per_round = k));
            }
        }
    }
    jobs
}

fn fig9<'r>(art: &mut Artifact<'r>, results: &'r [JobResult]) {
    art.title("Fig. 9 — accuracy vs clients per round");
    art.csv("", "dataset,clients_per_round,strategy,best_accuracy");
    for task in results.chunks(FIG9_PARTS.len() * FIG9_STRATEGIES.len()) {
        art.line(format!("[{}]", task[0].task_name));
        for (k, row) in FIG9_PARTS.iter().zip(task.chunks(FIG9_STRATEGIES.len())) {
            let cells = row.iter().map(|r| format!("{}={:.3}", r.strategy, best(r)));
            art.line(format!(
                "  k={k:<3} {}",
                cells.collect::<Vec<_>>().join("  ")
            ));
            for r in row {
                art.row(format!("{},{k},{},{:.4}", r.task_name, r.strategy, best(r)));
            }
        }
        art.line("");
    }
}

/// Fig. 10: tier-size distributions (Uniform/Slow/Medium/Fast) on the
/// large FEMNIST-like cluster, FedAT only.
fn fig10_jobs(ctx: &Ctx) -> Vec<Job> {
    let n = ctx.scale.large_clients();
    let task = Arc::new(suite::femnist_like(n, ctx.seed));
    // The paper's 500-client distributions, scaled to n.
    let sizes = |fracs: [usize; 5]| {
        let mut sizes = fracs.map(|f| f * n / fracs.iter().sum::<usize>()).to_vec();
        for i in 0..n - sizes.iter().sum::<usize>() {
            sizes[i % 5] += 1;
        }
        sizes
    };
    let run = |(name, fracs)| {
        let cluster = ctx.cluster(n).with_part_sizes(sizes(fracs));
        let (label, task) = (format!("FedAT-{name}"), task.clone());
        let cfg = ctx.cfg(FedAt, ctx.scale.rounds(500), 6000.0, cluster);
        Job { label, task, cfg }
    };
    let distributions = [
        ("Uniform", [100, 100, 100, 100, 100]),
        ("Slow", [50, 50, 100, 100, 200]),
        ("Medium", [50, 100, 200, 100, 50]),
        ("Fast", [200, 100, 100, 50, 50]),
    ];
    distributions.map(run).into()
}

fn fig10<'r>(art: &mut Artifact<'r>, results: &'r [JobResult]) {
    art.title("Fig. 10 — FedAT under different tier-size distributions (FEMNIST-like)");
    for r in results {
        art.trace(r);
        let (label, b, target, t) = (&r.label, best(r), r.target_accuracy, fmt_tta(tta(r)));
        art.line(format!("  {label:<15} best {b:.3}  t→{target:.2}: {t}"));
    }
}

/// The LEAF-format scenario: the Table-1 strategies on a **disk-loaded**
/// LEAF task under its natural per-user partition, with the matrix's round
/// budgets and horizon on a cluster sized to the task.
pub fn leaf_jobs(ctx: &Ctx, task: &Arc<FedTask>) -> Vec<Job> {
    let n = task.fed.num_clients();
    let cfg = |s| ctx.cfg(s, ctx.matrix_rounds(s), MATRIX_HORIZON, ctx.cluster(n));
    TABLE1.map(|s| job(task, cfg(s))).into()
}

/// Loads [`leaf_jobs`]' task and notes in the report where from. Point
/// `FEDAT_LEAF_DIR` at a real (or writer-generated) LEAF directory and
/// optionally `FEDAT_LEAF_BENCH` at `femnist`/`sent140`/`reddit` (default
/// `femnist`). Without the env var, a FEMNIST-shaped fixture is generated
/// via [`fedat_data::leaf::writer`] under the output directory and loaded
/// back from disk, so the measured path is always the loader. A bad
/// directory or bench name is an error naming it.
fn leaf_load(ctx: &Ctx, art: &mut Artifact) -> io::Result<Vec<Job>> {
    let (dir, bench, source) = match std::env::var_os("FEDAT_LEAF_DIR") {
        Some(dir) => {
            let bench = match std::env::var("FEDAT_LEAF_BENCH").as_deref() {
                Ok("sent140") => LeafBenchmark::sent140(),
                Ok("reddit") => LeafBenchmark::reddit(),
                Ok("femnist") | Err(_) => LeafBenchmark::femnist(),
                Ok(other) => {
                    let msg =
                        format!("FEDAT_LEAF_BENCH must be femnist|sent140|reddit, got `{other}`");
                    return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
                }
            };
            let dir = PathBuf::from(dir);
            let source = dir.display().to_string();
            (dir, bench, source)
        }
        None => {
            let dir = art.dir.join("fixture");
            let (clients, per_client) = match ctx.scale {
                Scale::Full => (50, 40),
                Scale::Quick => (10, 16),
            };
            writer::write_femnist_fixture(&dir, clients, per_client, ctx.seed)
                .map_err(|e| io::Error::other(format!("{}: {e}", dir.display())))?;
            let source = format!("generated fixture @ {}", dir.display());
            (dir, LeafBenchmark::femnist(), source)
        }
    };
    let task = FedTask::from_leaf_dir(&dir, bench, ctx.seed)
        .map_err(|e| io::Error::other(format!("loading LEAF directory {}: {e}", dir.display())))?;
    let (fed, sizes) = (&task.fed, task.fed.client_sizes());
    let min = sizes.iter().min().unwrap_or(&0);
    let max = sizes.iter().max().unwrap_or(&0);
    art.line(format!("source: {source}"));
    art.line(format!(
        "task: {} — {} clients, sizes {min}..{max}, {} classes, {} features",
        task.name,
        fed.num_clients(),
        fed.classes,
        fed.features
    ));
    Ok(leaf_jobs(ctx, &Arc::new(task)))
}

fn leaf<'r>(art: &mut Artifact<'r>, results: &'r [JobResult]) {
    art.title("LEAF — disk-loaded natural partition, Table-1 strategies");
    art.csv(
        "",
        "strategy,best_accuracy,accuracy_variance,time_to_target",
    );
    for r in results {
        art.trace(r);
        let (s, b, var) = (r.strategy, best(r), r.outcome.accuracy_variance);
        let (target, t) = (r.target_accuracy, fmt_tta(tta(r)));
        art.line(format!(
            "  {s:<9} best {b:.3}  variance {var:.5}  t→{target:.2}: {t}"
        ));
        let t = or_dash(tta(r).map(|t| format!("{t:.1}")));
        art.row(format!("{s},{b:.4},{var:.6},{t}"));
    }
}

/// Ablation: FedAT vs TiFL under mis-tiering — 30 % of the clients
/// profiled into the wrong tier.
fn ablate_mistier_jobs(ctx: &Ctx) -> Vec<Job> {
    let task = ctx.cifar10(2);
    let pair = |s: StrategyKind| {
        [0.0, 0.3].map(|frac| {
            let label = format!("{} mistier={frac}", s.name());
            ctx.varied(&task, s, label, |c| c.mistier_fraction = frac)
        })
    };
    [FedAt, TiFL].into_iter().flat_map(pair).collect()
}

fn ablate_mistier<'r>(art: &mut Artifact<'r>, results: &'r [JobResult]) {
    art.title("Ablation — tolerance to mis-tiering (30% of clients mis-assigned)");
    for pair in results.chunks(2) {
        let (s, clean, noisy) = (pair[0].strategy, best(&pair[0]), best(&pair[1]));
        let drop = noisy - clean;
        art.line(format!(
            "  {s:<9} clean {clean:.3} → mis-tiered {noisy:.3}  (drop {drop:+.3})"
        ));
    }
}

/// Ablation: the proximal coefficient λ (paper fixes 0.4).
fn ablate_lambda_jobs(ctx: &Ctx) -> Vec<Job> {
    let task = ctx.cifar10(2);
    let run = |l: f32| ctx.varied(&task, FedAt, format!("FedAT λ={l}"), |c| c.lambda = l);
    [0.0, 0.1, 0.4, 1.0].map(run).into()
}

fn ablate_lambda<'r>(art: &mut Artifact<'r>, results: &'r [JobResult]) {
    art.title("Ablation — local constraint λ (FedAT, CIFAR-10-like #2)");
    for r in results {
        let (label, b, var) = (&r.label, best(r), r.outcome.accuracy_variance);
        art.line(format!("  {label:<12} best {b:.3}  variance {var:.5}"));
    }
}

/// Ablation: delta vs absolute polyline coding — the paper's codec encodes
/// the difference of consecutive rounded weights, absolute mode each weight
/// alone (the format is in `fedat_compress::polyline`).
fn ablate_delta_jobs(ctx: &Ctx) -> Vec<Job> {
    let task = ctx.cifar10(2);
    let run = |(name, delta)| {
        let label = format!("FedAT polyline-{name}");
        ctx.varied(&task, FedAt, label, |c| c.codec = Some(polyline(4, delta)))
    };
    [("delta", true), ("absolute", false)].map(run).into()
}

fn ablate_delta<'r>(art: &mut Artifact<'r>, results: &'r [JobResult]) {
    art.title("Ablation — delta vs absolute polyline coding (FedAT)");
    for r in results {
        let (label, b, up) = (&r.label, best(r), r.up_bytes() as f64 / 1e6);
        art.line(format!("  {label:<26} best {b:.3}  upload {up:.1} MB"));
    }
}

/// The robustness scenarios' cluster: the paper-medium latency parts sized
/// to the task, with the legacy permanent dropouts off so the scenario's
/// own churn is the only availability fault.
fn churned_cluster(task: &FedTask, seed: u64, churn: ChurnConfig) -> ClusterConfig {
    ClusterConfig::paper_medium(seed)
        .with_clients(task.fed.num_clients())
        .without_dropouts()
        .with_churn(churn)
}

/// Virtual-time horizon (seconds) of the churn and FedAT-corrupt rows; an
/// unreached accuracy target counts as this long.
pub const CHURN_HORIZON: f64 = 8_000.0;

/// FedAT under light flapping, two ~30% correlated storms and compute drift
/// on half the fleet, with the server-side fault layer off (`static`), with
/// deadlines + bounded re-dispatch + quorum degradation (`timeouts`), and
/// with those plus EWMA-driven re-tiering (`dynamic re-tier`).
pub fn churn_jobs(task: &Arc<FedTask>, seed: u64) -> Vec<Job> {
    let scenario = ChurnConfig {
        flaps: Some(FlapSpec {
            fraction: 0.25,
            mean_up: 300.0,
            mean_down: 60.0,
            horizon: 4000.0,
        }),
        storms: Some(StormSpec {
            count: 2,
            cohort_fraction: 0.3,
            duration: 150.0,
            horizon: 1500.0,
        }),
        // Severe drift: half the fleet degrades 30% per selection round, up
        // to 10× — a drifted fast-tier client ends up slower than the
        // slowest injected-delay part, so a static tier assignment pins the
        // fast tier's cadence to its worst straggler.
        drift: Some(DriftSpec {
            fraction: 0.5,
            per_round: 0.3,
            max_factor: 10.0,
        }),
        ..ChurnConfig::default()
    };
    let timeouts = FaultPolicy {
        deadline_multiplier: Some(3.0),
        quorum: 0.9,
        retier: None,
    };
    let dynamic = FaultPolicy {
        retier: Some(RetierPolicy {
            check_every: 10,
            drift_threshold: 0.05,
        }),
        ..timeouts
    };
    [
        ("static", FaultPolicy::default()),
        ("timeouts", timeouts),
        ("dynamic re-tier", dynamic),
    ]
    .into_iter()
    .map(|(name, fault)| Job {
        label: format!("FedAT {name}"),
        task: task.clone(),
        cfg: ExperimentConfig::builder()
            .strategy(StrategyKind::FedAt)
            // Generous at any scale: the shared horizon is the binding
            // stopping rule, so cadence differences show up as updates.
            .rounds(20_000)
            .clients_per_round(3)
            .local_epochs(1)
            .eval_every(10)
            .max_time(CHURN_HORIZON)
            .seed(seed)
            .cluster(churned_cluster(task, seed, scenario))
            .fault(fault)
            .build(),
    })
    .collect()
}

/// Robustness rows: [`churn_jobs`] with per-variant traces and fault logs.
/// `tests/acceptance.rs` asserts the claim the rows carry: no stalled tier,
/// and dynamic re-tiering does not lose time-to-target to the static server.
fn churn<'r>(art: &mut Artifact<'r>, results: &'r [JobResult]) {
    art.title("Robustness — FedAT under flaps + 30% storms + 10x compute drift (8000 s horizon)");
    art.csv(
        "",
        "variant,best_accuracy,time_to_target,global_updates,timeouts,retries,quorum_rounds,retier_events",
    );
    for r in results {
        art.trace(r);
        art.fault_log(r);
        let tta = tta(r);
        let n = |kind| r.outcome.faults.count(kind);
        let tiers = r.outcome.tier_updates.clone().unwrap_or_default();
        art.line(format!(
            "  {:<22} best {:.3}  t→{:.2}: {}  updates {}  tiers {:?}",
            r.label,
            r.outcome.best_accuracy(),
            r.target_accuracy,
            fmt_tta(tta),
            r.outcome.global_updates,
            tiers,
        ));
        art.line(format!(
            "  {:<22} timeouts {}  retries {}  quorum-skips {}  re-tiers {}  fault rows {}",
            "",
            n(Timeout),
            n(Retry),
            n(Quorum),
            n(Retier),
            r.outcome.faults.events().len(),
        ));
        art.row(format!(
            "{},{:.4},{},{},{},{},{},{}",
            slug(&r.label),
            r.outcome.best_accuracy(),
            or_dash(tta.map(|t| format!("{t:.1}"))),
            r.outcome.global_updates,
            n(Timeout),
            n(Retry),
            n(Quorum),
            n(Retier),
        ));
    }
    art.line("");
    art.line("  (see docs/ROBUSTNESS.md for the fault model)");
}

/// The attack of both corrupt scenarios: a corrupt-capable client uplinks
/// its trained weights scaled 5× on half of its selections — a magnitude
/// attack that preserves the update's direction but inflates every
/// aggregate it reaches, compounding round over round until the undefended
/// model saturates and freezes.
fn scale_attack(fraction: f64) -> ChurnConfig {
    ChurnConfig {
        corrupt: (fraction > 0.0).then_some(CorruptSpec {
            fraction,
            probability: 0.5,
            mode: CorruptMode::Scale { factor: 5.0 },
        }),
        ..ChurnConfig::default()
    }
}

/// Finite check + L2-norm screen against a deterministic EWMA of accepted
/// norms, clipping over-limit updates down to the threshold.
fn clip_guard() -> GuardPolicy {
    GuardPolicy {
        finite_check: true,
        norm_screen: Some(NormScreen {
            alpha: 0.2,
            threshold: 2.0,
            clip: true,
        }),
        ..GuardPolicy::default()
    }
}

/// FedAT with 30% of clients under the scale attack (uplinks ×5 on half
/// their selections), with the guard layer off, norm-screen clipping, and
/// rejection + quarantine + coordinate-median aggregation.
pub fn corrupt_jobs(task: &Arc<FedTask>, seed: u64) -> Vec<Job> {
    let clip = clip_guard();
    let full = GuardPolicy {
        quarantine_after: Some(3),
        quarantine_secs: 600.0,
        agg_rule: AggRule::CoordinateMedian,
        norm_screen: clip.norm_screen.map(|s| NormScreen { clip: false, ..s }),
        ..clip
    };
    [
        ("undefended", GuardPolicy::default()),
        ("clip", clip),
        ("median+quarantine", full),
    ]
    .into_iter()
    .map(|(name, guard)| Job {
        label: format!("FedAT {name}"),
        task: task.clone(),
        cfg: ExperimentConfig::builder()
            .strategy(StrategyKind::FedAt)
            .rounds(20_000)
            .clients_per_round(5)
            .local_epochs(1)
            .eval_every(10)
            .max_time(CHURN_HORIZON)
            .seed(seed)
            .cluster(churned_cluster(task, seed, scale_attack(0.3)))
            .guard(guard)
            .build(),
    })
    .collect()
}

/// Shares of corrupt-capable clients along the FedAvg curve.
const CORRUPT_FRACTIONS: [f64; 4] = [0.0, 0.1, 0.2, 0.3];

/// Server postures of the FedAvg curve, in column order.
const POSTURES: [&str; 4] = ["undefended", "clip", "trimmed", "median"];

/// The accuracy-vs-corrupt-fraction curve: 200 FedAvg rounds per
/// `CORRUPT_FRACTIONS` × `POSTURES` cell (fraction-major), labelled
/// `FedAvg <posture> <percent>%`. The clean column differs across postures
/// only by the aggregation rule; it runs per posture anyway and doubles as
/// the inert-guard sanity row for each rule.
pub fn corrupt_curve_jobs(task: &Arc<FedTask>, seed: u64) -> Vec<Job> {
    let robust = |agg_rule| GuardPolicy {
        finite_check: true,
        agg_rule,
        ..GuardPolicy::default()
    };
    let guards = [
        GuardPolicy::default(),
        clip_guard(),
        robust(AggRule::TrimmedMean { frac: 0.45 }),
        robust(AggRule::CoordinateMedian),
    ];
    let mut jobs = Vec::new();
    for fraction in CORRUPT_FRACTIONS {
        for (posture, guard) in POSTURES.into_iter().zip(guards) {
            jobs.push(Job {
                label: format!("FedAvg {posture} {:.0}%", fraction * 100.0),
                task: task.clone(),
                cfg: ExperimentConfig::builder()
                    .strategy(StrategyKind::FedAvg)
                    .rounds(200)
                    // A 12-wide cohort keeps the per-round corrupt count
                    // concentrated near its mean: with 30% corrupt clients
                    // firing half the time, rounds that breach the order
                    // statistics' 6-of-12 breakdown point are ~0.02% instead
                    // of the ~2% an 8-wide cohort sees.
                    .clients_per_round(12)
                    .local_epochs(1)
                    .eval_every(5)
                    .max_time(6_000.0)
                    .seed(seed)
                    .cluster(churned_cluster(task, seed, scale_attack(fraction)))
                    .guard(guard)
                    .build(),
            });
        }
    }
    jobs
}

/// `repro corrupt`'s list: [`corrupt_jobs`], then [`corrupt_curve_jobs`].
fn corrupt_both_jobs(ctx: &Ctx) -> Vec<Job> {
    let task = ctx.sent140();
    let mut jobs = corrupt_jobs(&task, ctx.seed);
    jobs.extend(corrupt_curve_jobs(&task, ctx.seed));
    jobs
}

/// Robustness rows: [`corrupt_jobs`] with per-variant traces and fault logs
/// for forensics, then the [`corrupt_curve_jobs`] table.
/// `tests/acceptance.rs` asserts the claim the curve carries: the undefended
/// server collapses at ≥ 20% corrupt clients while every defended posture
/// stays within two points of clean.
fn corrupt<'r>(art: &mut Artifact<'r>, results: &'r [JobResult]) {
    art.title("Robustness — FedAT under 30% corrupted uplinks (scale-by-5, half of selections)");
    let curve_len = CORRUPT_FRACTIONS.len() * POSTURES.len();
    let (fedat, curve) = results.split_at(results.len() - curve_len);
    let header =
        "best_accuracy,final_finite,global_updates,corrupt,rejects,clips,stale,quarantines";
    let csv_row = |r: &JobResult| {
        let n = |kind| r.outcome.faults.count(kind);
        format!(
            "{:.4},{},{},{},{},{},{},{}",
            r.outcome.best_accuracy(),
            r.final_finite(),
            r.outcome.global_updates,
            n(Corrupt),
            n(Reject),
            n(Clip),
            n(Stale),
            n(Quarantine),
        )
    };
    art.csv("", &format!("variant,{header}"));
    for r in fedat {
        art.trace(r);
        art.fault_log(r);
        let n = |kind| r.outcome.faults.count(kind);
        art.line(format!(
            "  {:<24} best {:.3}  finite {}  updates {}",
            r.label,
            r.outcome.best_accuracy(),
            r.final_finite(),
            r.outcome.global_updates,
        ));
        art.line(format!(
            "  {:<24} corrupt {}  rejects {}  clips {}  stale {}  quarantines {}  fault rows {}",
            "",
            n(Corrupt),
            n(Reject),
            n(Clip),
            n(Stale),
            n(Quarantine),
            r.outcome.faults.events().len(),
        ));
        art.row(format!("{},{}", slug(&r.label), csv_row(r)));
    }

    art.line("");
    art.line("FedAvg, ≤ 200 rounds: best accuracy (corrupt events / clips) by server posture");
    let columns: String = POSTURES.iter().map(|p| format!(" {p:>18}")).collect();
    art.line(format!("  {:<8}{columns}", "corrupt"));
    art.csv("_curve", &format!("posture,corrupt_fraction,{header}"));
    for (fraction, row) in CORRUPT_FRACTIONS.iter().zip(curve.chunks(POSTURES.len())) {
        let mut line = format!("  {:<8}", format!("{:.0}%", fraction * 100.0));
        for (posture, r) in POSTURES.iter().zip(row) {
            let n = |kind| r.outcome.faults.count(kind);
            let cell = format!(
                "{:.4} ({}/{})",
                r.outcome.best_accuracy(),
                n(Corrupt),
                n(Clip)
            );
            line.push_str(&format!(" {cell:>18}"));
            art.row(format!("{posture},{fraction:.2},{}", csv_row(r)));
        }
        art.line(line);
    }
    art.line("");
    art.line("  (see docs/ROBUSTNESS.md §Corrupted updates)");
}

/// The codec column of [`codec_jobs`]: the uncompressed baseline, the
/// paper's polyline codec at two precisions, the lossless delta, the 8/4-bit
/// quantized deltas, and the sparse top-5% delta.
const CODECS: [(&str, CodecKind); 7] = [
    ("none", CodecKind::None),
    ("polyline-p3", polyline(3, true)),
    ("polyline-p4", polyline(4, true)),
    ("delta-rle", CodecKind::DeltaRle),
    ("quantized8", CodecKind::Quantized { bits: 8 }),
    ("quantized4", CodecKind::Quantized { bits: 4 }),
    ("topk-50pm", CodecKind::TopK { per_mille: 50 }),
];

/// Every strategy × `CODECS` cell (strategy-major, the uncompressed run
/// first in each row) on a 100-round budget of the full two-leg wire
/// path, labelled `<strategy> <codec>`: downlink broadcasts and
/// reference-aware uplinks both charge the traffic meter what the codec
/// actually produces.
pub fn codec_jobs(task: &Arc<FedTask>, seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for strategy in StrategyKind::all() {
        for (name, kind) in CODECS {
            jobs.push(Job {
                label: format!("{} {name}", strategy.name()),
                task: task.clone(),
                cfg: ExperimentConfig::builder()
                    .strategy(strategy)
                    .rounds(100)
                    .clients_per_round(4)
                    .local_epochs(1)
                    .eval_every(10)
                    .max_time(6_000.0)
                    .codec(kind)
                    .seed(seed)
                    .build(),
            });
        }
    }
    jobs
}

/// Of one strategy's row of [`codec_jobs`] results, the compressed cell with
/// the fewest uplink bytes whose best accuracy stays within one point of the
/// uncompressed run's: `(cell, uplink ratio, accuracy loss)`.
pub fn best_codec_within_a_point(row: &[JobResult]) -> Option<(&JobResult, f64, f64)> {
    let (none, compressed) = row.split_first()?;
    compressed
        .iter()
        .map(|c| {
            let ratio = none.up_bytes() as f64 / c.up_bytes().max(1) as f64;
            let loss = (none.outcome.best_accuracy() - c.outcome.best_accuracy()) as f64;
            (c, ratio, loss)
        })
        .filter(|&(_, _, loss)| loss <= 0.01)
        .reduce(|best, c| if c.1 > best.1 { c } else { best })
}

/// Wire-codec table: [`codec_jobs`] as best accuracy and traffic per cell,
/// with the uplink ratio against the same strategy uncompressed. Downlink
/// bytes stay at the raw size under the delta-family codecs, which are
/// uplink-only. `tests/acceptance.rs` asserts the claim the FedAT row
/// carries: some codec cuts uplink bytes ≥ 4× within one accuracy point.
fn codec<'r>(art: &mut Artifact<'r>, results: &'r [JobResult]) {
    art.title("Wire codecs — strategy × codec, a 100-round budget through the wire path");
    art.csv(
        "",
        "strategy,codec,best_accuracy,up_bytes,down_bytes,uplink_ratio,global_updates",
    );
    for row in results.chunks(CODECS.len()) {
        art.line(format!("[{}]", row[0].strategy));
        for ((name, _), r) in CODECS.iter().zip(row) {
            let ratio = row[0].up_bytes() as f64 / r.up_bytes().max(1) as f64;
            art.line(format!(
                "  {:<12} best {:.4}  up {:>9} B  down {:>9} B  uplink {:>5.2}×  updates {}",
                name,
                r.outcome.best_accuracy(),
                r.up_bytes(),
                r.down_bytes(),
                ratio,
                r.outcome.global_updates,
            ));
            art.row(format!(
                "{},{},{:.4},{},{},{:.2},{}",
                r.strategy,
                name,
                r.outcome.best_accuracy(),
                r.up_bytes(),
                r.down_bytes(),
                ratio,
                r.outcome.global_updates,
            ));
        }
        art.line(match best_codec_within_a_point(row) {
            Some((c, ratio, loss)) => format!(
                "  within one point of uncompressed: {} at {ratio:.2}× (loss {loss:.4})",
                c.label
            ),
            None => "  within one point of uncompressed: none".into(),
        });
        art.line("");
    }
}

/// Everything one experiment leaves under `<out>/<id>/`: its text report
/// (`<stem>.txt`, also printed), its CSV tables, and the smoothed traces and
/// fault logs of the runs its printer picks (`<slug(label)>[_faults].csv`).
#[derive(Default)]
struct Artifact<'r> {
    dir: PathBuf,
    /// File stem of the report and of the first CSV table: the id, `-` → `_`.
    stem: String,
    title: &'static str,
    lines: Vec<String>,
    /// `(file stem, body)` per CSV table.
    csvs: Vec<(String, String)>,
    traces: Vec<&'r JobResult>,
    fault_logs: Vec<&'r JobResult>,
}

impl<'r> Artifact<'r> {
    fn new(out: &Path, id: &str) -> Self {
        let (dir, stem) = (out.join(id), id.replace('-', "_"));
        Artifact {
            dir,
            stem,
            ..Default::default()
        }
    }

    fn title(&mut self, title: &'static str) {
        self.title = title;
    }

    fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Starts the CSV table `<stem><suffix>.csv`; [`Self::row`] appends to
    /// the latest one.
    fn csv(&mut self, suffix: &str, header: &str) {
        let stem = format!("{}{suffix}", self.stem);
        self.csvs.push((stem, format!("{header}\n")));
    }

    fn row(&mut self, row: String) {
        let csv = &mut self.csvs.last_mut().expect("a CSV table was started").1;
        csv.push_str(&row);
        csv.push('\n');
    }

    fn trace(&mut self, r: &'r JobResult) {
        self.traces.push(r);
    }

    fn fault_log(&mut self, r: &'r JobResult) {
        self.fault_logs.push(r);
    }

    /// Says why each run stopped, after whatever the printer wrote: one
    /// report line and one `<stem>_runs.csv` row per run, with its end time,
    /// horizon, stop reason and global updates.
    fn stops(&mut self, results: &[JobResult]) {
        let w = results
            .iter()
            .map(|r| r.label.chars().count())
            .max()
            .unwrap_or(0);
        self.line("Why each run stopped — end time / horizon, reason, global updates:");
        self.csv("_runs", "label,end_time,horizon,reason,global_updates");
        for r in results {
            let (report, updates) = (&r.outcome.report, r.outcome.global_updates);
            let (end, horizon, reason) = (report.end_time, r.max_time, report.reason);
            self.line(format!(
                "  {:<w$}  {end:>8.1} s / {horizon:.0} s  {reason:?}  {updates}",
                r.label,
            ));
            self.row(format!("{},{end},{horizon},{reason:?},{updates}", r.label));
        }
    }

    /// Writes every file, then prints the report (`=== title ===`, then its
    /// lines); the first failed write is the error, naming its path.
    fn finish(self) -> io::Result<()> {
        for r in self.traces {
            write_trace(&self.dir, &slug(&r.label), &r.outcome.trace, SMOOTH_WINDOW)?;
        }
        for r in self.fault_logs {
            write_fault_log(&self.dir, &slug(&r.label), &r.outcome.faults)?;
        }
        for (stem, csv) in &self.csvs {
            write_text(&self.dir, &format!("{stem}.csv"), csv)?;
        }
        let mut text = format!("=== {} ===\n", self.title);
        for line in self.lines {
            text.push_str(&line);
            text.push('\n');
        }
        print!("{text}");
        io::stdout().flush()?;
        write_text(&self.dir, &format!("{}.txt", self.stem), &text)
    }
}

/// Where an experiment's jobs come from.
#[derive(Clone, Copy)]
enum Jobs {
    /// The strategy × dataset matrix, shared by every such experiment.
    Matrix,
    /// Its own builder.
    Own(fn(&Ctx) -> Vec<Job>),
    /// Loads its task first, noting in the report where from.
    Loaded(fn(&Ctx, &mut Artifact) -> io::Result<Vec<Job>>),
}

/// A registry row: the id `repro` takes, its jobs, and the printer that
/// titles and fills its `Artifact`.
type Experiment = (
    &'static str,
    Jobs,
    for<'r> fn(&mut Artifact<'r>, &'r [JobResult]),
);

/// Every experiment, in the order `repro all` prints them.
const EXPERIMENTS: [Experiment; 18] = [
    ("table1", Matrix, table1),
    ("table2", Matrix, table2),
    ("fig2", Matrix, fig2),
    ("fig3", Matrix, fig3),
    ("fig4", Matrix, fig4),
    ("fig5", Own(fig5_jobs), fig5),
    ("fig6", Own(fig6_jobs), fig6),
    ("fig7", Own(fig7_jobs), fig7),
    ("fig8", Own(fig8_jobs), fig8),
    ("fig9", Own(fig9_jobs), fig9),
    ("fig10", Own(fig10_jobs), fig10),
    ("leaf", Loaded(leaf_load), leaf),
    ("churn", Own(|c| churn_jobs(&c.sent140(), c.seed)), churn),
    ("corrupt", Own(corrupt_both_jobs), corrupt),
    ("codec", Own(|c| codec_jobs(&c.sent140(), c.seed)), codec),
    ("ablate-mistier", Own(ablate_mistier_jobs), ablate_mistier),
    ("ablate-lambda", Own(ablate_lambda_jobs), ablate_lambda),
    ("ablate-delta", Own(ablate_delta_jobs), ablate_delta),
];

/// Every id [`run`] accepts, as `repro`'s usage text lists them: the
/// registry's, then `matrix` and `all`.
pub const IDS: [&str; EXPERIMENTS.len() + 2] = {
    let mut ids = ["matrix"; EXPERIMENTS.len() + 2];
    let mut i = 0;
    while i < EXPERIMENTS.len() {
        ids[i] = EXPERIMENTS[i].0;
        i += 1;
    }
    ids[i + 1] = "all";
    ids
};

/// The jobs `repro <id>` runs, built and not run: `None` for an id outside
/// the registry and for `leaf`, whose task comes from disk ([`leaf_jobs`]
/// takes it).
pub fn jobs(id: &str, ctx: &Ctx) -> Option<Vec<Job>> {
    match EXPERIMENTS.iter().find(|e| e.0 == id)?.1 {
        Matrix => Some(matrix_jobs(ctx)),
        Own(build) => Some(build(ctx)),
        Loaded(_) => None,
    }
}

/// Runs one experiment by id, or several: `matrix` the ones printing the
/// strategy × dataset matrix, `all` every one but those loading their task
/// (`leaf`: it reads `FEDAT_LEAF_DIR`, takes ≈ 47 s at `--quick`, and its
/// report embeds the output path). The matrix runs at most once. Fails
/// before computing anything if the output directory cannot be created,
/// and on the first failed load or write after that, naming the path.
pub fn run(id: &str, ctx: &Ctx) -> io::Result<()> {
    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|(eid, jobs, _)| match id {
            "matrix" => matches!(jobs, Matrix),
            "all" => !matches!(jobs, Loaded(_)),
            _ => *eid == id,
        })
        .collect();
    if selected.is_empty() {
        let known = IDS.join(" ");
        let msg = format!("unknown experiment id `{id}`; known: {known}");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    }
    create_dir(&ctx.out)?;
    let grid = |jobs| run_grid(jobs, ctx.threads);
    let mut matrix = None;
    for &(id, jobs, print) in selected {
        let (mut own, mut art) = (None, Artifact::new(&ctx.out, id));
        let results = match jobs {
            Matrix => matrix.get_or_insert_with(|| grid(matrix_jobs(ctx))),
            Own(build) => own.insert(grid(build(ctx))),
            Loaded(load) => own.insert(grid(load(ctx, &mut art)?)),
        };
        print(&mut art, results);
        art.stops(results);
        art.finish()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_title_and_lines() {
        let out = std::env::temp_dir().join(format!("fedat_artifact_{}", std::process::id()));
        let mut art = Artifact::new(&out, "ablate-x");
        art.title("Table 1");
        art.line("row");
        art.finish().unwrap();
        let text = std::fs::read_to_string(out.join("ablate-x").join("ablate_x.txt")).unwrap();
        assert_eq!(text, "=== Table 1 ===\nrow\n");
        std::fs::remove_dir_all(&out).unwrap();
    }
}
