//! One function per table/figure of the paper's evaluation section, plus
//! the DESIGN.md §5 ablations and the robustness / wire-codec scenarios.
//!
//! Heavy artifacts share runs: Table 1, Table 2 and Figs. 2–4 all derive
//! from [`core_matrix`] (strategy × dataset on the 100-client cluster);
//! `repro all` therefore computes that matrix once.
//!
//! The robustness and codec scenarios are built by functions returning
//! `Vec<Job>` ([`churn_jobs`], [`corrupt_jobs`], [`corrupt_curve_jobs`],
//! [`codec_jobs`]): `repro` prints them, `tests/acceptance.rs` asserts the
//! claims they carry, and each scenario literal exists once.

use crate::grid::run_grid;
use crate::harness::{Job, JobResult, Scale};
use crate::report::{
    create_dir, fmt_mb, fmt_tta, out_dir, slug, write_csv, write_fault_log, write_trace, TextReport,
};
use fedat_compress::codec::CodecKind;
use fedat_core::aggregate::AggRule;
use fedat_core::config::{
    ExperimentConfig, FaultPolicy, GuardPolicy, NormScreen, RetierPolicy, StrategyKind,
};
use fedat_data::leaf::{writer, LeafBenchmark};
use fedat_data::suite::{self, FedTask};
use fedat_sim::churn::{ChurnConfig, CorruptMode, CorruptSpec, DriftSpec, FlapSpec, StormSpec};
use fedat_sim::fleet::ClusterConfig;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Shared experiment context.
pub struct Ctx {
    /// Full or quick scale.
    pub scale: Scale,
    /// Output directory root (usually `results/`).
    pub out: PathBuf,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub threads: usize,
}

/// Smoothing window used by the paper's figures ("average-smoothed for
/// every 40 global rounds"; our eval cadence is every 5 rounds, so 8 points
/// ≈ 40 rounds).
const SMOOTH_WINDOW: usize = 8;

/// Round budgets for the medium-cluster matrix. Calibrated so every method
/// fills (roughly) the same virtual-time horizon: a synchronous round takes
/// ~30 s (compute + worst sampled delay), a FedAT tier round ~10–35 s
/// depending on the tier, so FedAT earns proportionally more global updates
/// within the shared `max_time` — exactly the effect the paper measures.
fn sync_rounds(scale: Scale) -> u64 {
    scale.rounds(150)
}
fn fedat_rounds(scale: Scale) -> u64 {
    scale.rounds(1000)
}

/// Shared virtual-time horizon (seconds) for the medium-cluster matrix.
const MATRIX_HORIZON: f64 = 4500.0;

impl Ctx {
    fn medium_cluster(&self) -> ClusterConfig {
        ClusterConfig::paper_medium(self.seed).with_clients(self.scale.medium_clients())
    }

    fn large_cluster(&self) -> ClusterConfig {
        let mut c = ClusterConfig::paper_large(self.seed).with_clients(self.scale.large_clients());
        c.n_unstable = c.n_unstable.min(c.n_clients / 10);
        c
    }

    fn cfg(&self, strategy: StrategyKind) -> ExperimentConfig {
        let rounds = match strategy {
            StrategyKind::FedAt => fedat_rounds(self.scale),
            _ => sync_rounds(self.scale),
        };
        ExperimentConfig::builder()
            .strategy(strategy)
            .rounds(rounds)
            .max_time(MATRIX_HORIZON)
            .eval_every(5)
            .seed(self.seed)
            .cluster(self.medium_cluster())
            .build()
    }

    fn job(&self, task: &Arc<FedTask>, cfg: ExperimentConfig) -> Job {
        Job {
            label: format!("{} @ {}", cfg.strategy.name(), task.name),
            task: task.clone(),
            cfg,
        }
    }
}

/// The five Table 1 strategies in paper order.
fn table1_strategies() -> [StrategyKind; 5] {
    [
        StrategyKind::TiFL,
        StrategyKind::FedAvg,
        StrategyKind::FedProx,
        StrategyKind::FedAsync,
        StrategyKind::FedAt,
    ]
}

/// The medium-cluster datasets of Table 1 / Figs. 2–4.
fn matrix_tasks(ctx: &Ctx) -> Vec<Arc<FedTask>> {
    let n = ctx.scale.medium_clients();
    vec![
        Arc::new(suite::cifar10_like(n, 2, ctx.seed)),
        Arc::new(suite::cifar10_like(n, 4, ctx.seed)),
        Arc::new(suite::cifar10_like(n, 6, ctx.seed)),
        Arc::new(suite::cifar10_like(n, 8, ctx.seed)),
        Arc::new(suite::cifar10_like(n, 0, ctx.seed)),
        Arc::new(suite::fmnist_like(n, 2, ctx.seed)),
        Arc::new(suite::sent140_like(n, ctx.seed)),
    ]
}

/// Runs the strategy×dataset matrix behind Table 1/2 and Figs. 2–4.
pub fn core_matrix(ctx: &Ctx) -> Vec<JobResult> {
    let tasks = matrix_tasks(ctx);
    let mut jobs = Vec::new();
    for task in &tasks {
        for strategy in table1_strategies() {
            jobs.push(ctx.job(task, ctx.cfg(strategy)));
        }
    }
    run_grid(jobs, ctx.threads)
}

/// Table 1: best accuracy + accuracy variance per dataset and strategy.
pub fn table1(ctx: &Ctx, matrix: &[JobResult]) -> io::Result<()> {
    let dir = out_dir(&ctx.out, "table1");
    let mut rep = TextReport::new("Table 1 — prediction performance and variance");
    rep.line(format!(
        "{:<22} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "dataset", "TiFL", "FedAvg", "FedProx", "FedAsync", "FedAT"
    ));
    let mut csv = String::from("dataset,strategy,best_accuracy,accuracy_variance,norm_variance\n");
    let datasets: Vec<String> = dedup_keep_order(matrix.iter().map(|r| r.task_name.clone()));
    for ds in &datasets {
        let row: Vec<&JobResult> = matrix.iter().filter(|r| &r.task_name == ds).collect();
        let fedat_var = row
            .iter()
            .find(|r| r.strategy == "FedAT")
            .map(|r| r.outcome.accuracy_variance.max(1e-9))
            .unwrap_or(1.0);
        let cell = |name: &str| -> String {
            row.iter()
                .find(|r| r.strategy == name)
                .map(|r| format!("{:.3}", r.outcome.best_accuracy()))
                .unwrap_or_else(|| "—".into())
        };
        rep.line(format!(
            "{:<22} {:>9} {:>9} {:>9} {:>9} {:>9}  (acc)",
            ds,
            cell("TiFL"),
            cell("FedAvg"),
            cell("FedProx"),
            cell("FedAsync"),
            cell("FedAT"),
        ));
        let var_cell = |name: &str| -> String {
            row.iter()
                .find(|r| r.strategy == name)
                .map(|r| format!("{:.2}", r.outcome.accuracy_variance / fedat_var))
                .unwrap_or_else(|| "—".into())
        };
        rep.line(format!(
            "{:<22} {:>9} {:>9} {:>9} {:>9} {:>9}  (norm.var)",
            "",
            var_cell("TiFL"),
            var_cell("FedAvg"),
            var_cell("FedProx"),
            var_cell("FedAsync"),
            var_cell("FedAT"),
        ));
        for r in &row {
            csv.push_str(&format!(
                "{},{},{:.4},{:.6},{:.3}\n",
                ds,
                r.strategy,
                r.outcome.best_accuracy(),
                r.outcome.accuracy_variance,
                r.outcome.accuracy_variance / fedat_var
            ));
        }
    }
    write_csv(&dir, "table1", &csv)?;
    rep.emit(&dir, "table1")
}

/// Table 2: MB transferred (up + down) to reach the target accuracy on the
/// 2-class non-IID datasets.
pub fn table2(ctx: &Ctx, matrix: &[JobResult]) -> io::Result<()> {
    let dir = out_dir(&ctx.out, "table2");
    let mut rep =
        TextReport::new("Table 2 — MB transferred to reach target accuracy (2-class non-IID)");
    let mut csv = String::from("dataset,strategy,target,mb_to_target\n");
    let wanted = ["cifar10-like(#2)", "fmnist-like(#2)", "sent140-like"];
    rep.line(format!(
        "{:<10} {:>22} {:>18} {:>14}",
        "method", "cifar10-like(#2)", "fmnist-like(#2)", "sent140-like"
    ));
    for strategy in ["FedAvg", "TiFL", "FedProx", "FedAsync", "FedAT"] {
        let mut cells = Vec::new();
        for ds in wanted {
            let r = matrix
                .iter()
                .find(|r| r.task_name == ds && r.strategy == strategy);
            let cell = match r {
                Some(r) => {
                    let b = r.outcome.trace.bytes_to_accuracy(r.target_accuracy);
                    csv.push_str(&format!(
                        "{},{},{},{}\n",
                        ds,
                        strategy,
                        r.target_accuracy,
                        b.map(|x| x.to_string()).unwrap_or_else(|| "-".into())
                    ));
                    fmt_mb(b)
                }
                None => "—".into(),
            };
            cells.push(cell);
        }
        rep.line(format!(
            "{:<10} {:>22} {:>18} {:>14}",
            strategy, cells[0], cells[1], cells[2]
        ));
    }
    write_csv(&dir, "table2", &csv)?;
    rep.emit(&dir, "table2")
}

/// Fig. 2: accuracy-over-time curves + time-to-target bars for the three
/// 2-class non-IID datasets.
pub fn fig2(ctx: &Ctx, matrix: &[JobResult]) -> io::Result<()> {
    let dir = out_dir(&ctx.out, "fig2");
    let mut rep = TextReport::new("Fig. 2 — convergence timelines and time-to-target");
    for ds in ["cifar10-like(#2)", "fmnist-like(#2)", "sent140-like"] {
        rep.line(format!("[{ds}]"));
        for r in matrix.iter().filter(|r| r.task_name == ds) {
            write_trace(&dir, &slug(&r.label), &r.outcome.trace, SMOOTH_WINDOW)?;
            rep.line(format!(
                "  {:<9} best {:.3}  time→{:.2}: {}",
                r.strategy,
                r.outcome.best_accuracy(),
                r.target_accuracy,
                fmt_tta(r.outcome.trace.time_to_accuracy(r.target_accuracy)),
            ));
        }
        rep.blank();
    }
    rep.emit(&dir, "fig2")
}

/// Fig. 3: convergence vs non-IID level on CIFAR-10-like.
pub fn fig3(ctx: &Ctx, matrix: &[JobResult]) -> io::Result<()> {
    let dir = out_dir(&ctx.out, "fig3");
    let mut rep = TextReport::new("Fig. 3 — CIFAR-10-like convergence across non-IID levels");
    for ds in [
        "cifar10-like(#4)",
        "cifar10-like(#6)",
        "cifar10-like(#8)",
        "cifar10-like(iid)",
    ] {
        rep.line(format!("[{ds}]"));
        for r in matrix.iter().filter(|r| r.task_name == ds) {
            write_trace(&dir, &slug(&r.label), &r.outcome.trace, SMOOTH_WINDOW)?;
            rep.line(format!(
                "  {:<9} best {:.3}  final {:.3}",
                r.strategy,
                r.outcome.best_accuracy(),
                r.outcome.trace.final_accuracy()
            ));
        }
        rep.blank();
    }
    rep.emit(&dir, "fig3")
}

/// Fig. 4: accuracy vs cumulative uploaded bytes (2-class non-IID).
pub fn fig4(ctx: &Ctx, matrix: &[JobResult]) -> io::Result<()> {
    let dir = out_dir(&ctx.out, "fig4");
    let mut rep = TextReport::new("Fig. 4 — accuracy vs uploaded bytes (2-class non-IID)");
    for ds in ["cifar10-like(#2)", "fmnist-like(#2)", "sent140-like"] {
        rep.line(format!("[{ds}]"));
        for r in matrix.iter().filter(|r| r.task_name == ds) {
            // The trace CSV already carries up_bytes per point; the figure
            // is accuracy against that column.
            write_trace(&dir, &slug(&r.label), &r.outcome.trace, SMOOTH_WINDOW)?;
            let up = r.outcome.trace.upload_bytes_to_accuracy(r.target_accuracy);
            rep.line(format!(
                "  {:<9} upload-MB→{:.2}: {}",
                r.strategy,
                r.target_accuracy,
                fmt_mb(up)
            ));
        }
        rep.blank();
    }
    rep.emit(&dir, "fig4")
}

/// Fig. 5: FedAT compression-precision sweep on CIFAR-10-like 2-class.
pub fn fig5(ctx: &Ctx) -> io::Result<()> {
    let dir = out_dir(&ctx.out, "fig5");
    let task = Arc::new(suite::cifar10_like(ctx.scale.medium_clients(), 2, ctx.seed));
    let variants: Vec<(String, Option<CodecKind>)> = vec![
        (
            "precision3".into(),
            Some(CodecKind::Polyline {
                precision: 3,
                delta: true,
            }),
        ),
        (
            "precision4".into(),
            Some(CodecKind::Polyline {
                precision: 4,
                delta: true,
            }),
        ),
        (
            "precision5".into(),
            Some(CodecKind::Polyline {
                precision: 5,
                delta: true,
            }),
        ),
        (
            "precision6".into(),
            Some(CodecKind::Polyline {
                precision: 6,
                delta: true,
            }),
        ),
        ("no-compression".into(), Some(CodecKind::None)),
    ];
    let jobs: Vec<Job> = variants
        .iter()
        .map(|(name, codec)| {
            let mut cfg = ctx.cfg(StrategyKind::FedAt);
            if let Some(k) = codec {
                cfg.codec = Some(*k);
            }
            Job {
                label: format!("FedAT-{name}"),
                task: task.clone(),
                cfg,
            }
        })
        .collect();
    let results = run_grid(jobs, ctx.threads);
    let mut rep =
        TextReport::new("Fig. 5 — accuracy vs compression precision (FedAT, CIFAR-10-like #2)");
    let mut csv = String::from("variant,best_accuracy,up_mb_total,up_mb_to_target\n");
    for r in &results {
        write_trace(&dir, &slug(&r.label), &r.outcome.trace, SMOOTH_WINDOW)?;
        let up_total = r.up_bytes();
        let up_t = r.outcome.trace.upload_bytes_to_accuracy(r.target_accuracy);
        rep.line(format!(
            "  {:<22} best {:.3}  upload total {:.1} MB  upload→{:.2}: {}",
            r.label,
            r.outcome.best_accuracy(),
            up_total as f64 / 1e6,
            r.target_accuracy,
            fmt_mb(up_t)
        ));
        csv.push_str(&format!(
            "{},{:.4},{:.2},{}\n",
            r.label,
            r.outcome.best_accuracy(),
            up_total as f64 / 1e6,
            up_t.map(|b| format!("{:.2}", b as f64 / 1e6))
                .unwrap_or_else(|| "-".into())
        ));
    }
    write_csv(&dir, "fig5", &csv)?;
    rep.emit(&dir, "fig5")
}

/// Fig. 6: weighted vs uniform cross-tier aggregation.
pub fn fig6(ctx: &Ctx) -> io::Result<()> {
    let dir = out_dir(&ctx.out, "fig6");
    let n = ctx.scale.medium_clients();
    let tasks = vec![
        Arc::new(suite::cifar10_like(n, 2, ctx.seed)),
        Arc::new(suite::fmnist_like(n, 2, ctx.seed)),
        Arc::new(suite::sent140_like(n, ctx.seed)),
    ];
    let mut jobs = Vec::new();
    for task in &tasks {
        for uniform in [false, true] {
            let mut cfg = ctx.cfg(StrategyKind::FedAt);
            cfg.uniform_tier_weights = uniform;
            jobs.push(Job {
                label: format!(
                    "{} @ {}",
                    if uniform { "Uniform" } else { "Weighted" },
                    task.name
                ),
                task: task.clone(),
                cfg,
            });
        }
    }
    let results = run_grid(jobs, ctx.threads);
    let mut rep = TextReport::new("Fig. 6 — weighted vs uniform cross-tier aggregation (FedAT)");
    let mut csv = String::from("dataset,aggregation,best_accuracy\n");
    for pair in results.chunks(2) {
        let (w, u) = (&pair[0], &pair[1]);
        rep.line(format!(
            "  {:<22} weighted {:.3}  uniform {:.3}  (Δ {:+.3})",
            w.task_name,
            w.outcome.best_accuracy(),
            u.outcome.best_accuracy(),
            w.outcome.best_accuracy() - u.outcome.best_accuracy()
        ));
        csv.push_str(&format!(
            "{},weighted,{:.4}\n",
            w.task_name,
            w.outcome.best_accuracy()
        ));
        csv.push_str(&format!(
            "{},uniform,{:.4}\n",
            u.task_name,
            u.outcome.best_accuracy()
        ));
    }
    write_csv(&dir, "fig6", &csv)?;
    rep.emit(&dir, "fig6")
}

/// Fig. 7: FEMNIST-like at large scale, all six methods (adds ASO-Fed).
pub fn fig7(ctx: &Ctx) -> io::Result<()> {
    let dir = out_dir(&ctx.out, "fig7");
    let task = Arc::new(suite::femnist_like(ctx.scale.large_clients(), ctx.seed));
    let mut jobs = Vec::new();
    for strategy in StrategyKind::all() {
        // At 500 clients a fully-async method performs hundreds of single-
        // client updates per virtual minute; its budget is capped lower so
        // the simulated compute stays tractable (the paper's async curves
        // plateau early regardless).
        let rounds = match strategy {
            StrategyKind::FedAt => ctx.scale.rounds(500),
            StrategyKind::FedAsync | StrategyKind::AsoFed => ctx.scale.rounds(64),
            _ => ctx.scale.rounds(200),
        };
        let cfg = ExperimentConfig::builder()
            .strategy(strategy)
            .rounds(rounds)
            .max_time(6000.0)
            .eval_every(5)
            .seed(ctx.seed)
            .cluster(ctx.large_cluster())
            .build();
        jobs.push(ctx.job(&task, cfg));
    }
    let results = run_grid(jobs, ctx.threads);
    let mut rep = TextReport::new("Fig. 7 — FEMNIST-like, 500 clients, accuracy vs time and bytes");
    for r in &results {
        write_trace(&dir, &slug(&r.label), &r.outcome.trace, SMOOTH_WINDOW)?;
        let up_total = r.up_bytes();
        rep.line(format!(
            "  {:<9} best {:.3}  t→{:.2}: {:>8}  upload {:.1} MB",
            r.strategy,
            r.outcome.best_accuracy(),
            r.target_accuracy,
            fmt_tta(r.outcome.trace.time_to_accuracy(r.target_accuracy)),
            up_total as f64 / 1e6
        ));
    }
    rep.emit(&dir, "fig7")
}

/// Fig. 8: Reddit-like LSTM, accuracy and loss over time
/// (FedAT / TiFL / FedProx).
pub fn fig8(ctx: &Ctx) -> io::Result<()> {
    let dir = out_dir(&ctx.out, "fig8");
    let task = Arc::new(suite::reddit_like(ctx.scale.large_clients(), ctx.seed));
    let mut jobs = Vec::new();
    for strategy in [
        StrategyKind::FedAt,
        StrategyKind::TiFL,
        StrategyKind::FedProx,
    ] {
        // FedAT tier updates are ~3–4× faster than full rounds; budgets are
        // set so both fill the same 4000 s horizon (DESIGN.md §6).
        let rounds = match strategy {
            StrategyKind::FedAt => ctx.scale.rounds(1400),
            _ => ctx.scale.rounds(160),
        };
        let cfg = ExperimentConfig::builder()
            .strategy(strategy)
            .rounds(rounds)
            .max_time(4000.0)
            .eval_every(5)
            .seed(ctx.seed)
            .cluster(ctx.large_cluster())
            .build();
        jobs.push(ctx.job(&task, cfg));
    }
    let results = run_grid(jobs, ctx.threads);
    let mut rep = TextReport::new("Fig. 8 — Reddit-like LSTM: accuracy and loss over time");
    for r in &results {
        write_trace(&dir, &slug(&r.label), &r.outcome.trace, SMOOTH_WINDOW)?;
        let final_loss = r
            .outcome
            .trace
            .points
            .last()
            .map(|p| p.loss)
            .unwrap_or(f32::NAN);
        rep.line(format!(
            "  {:<9} best acc {:.3}  final loss {:.3}",
            r.strategy,
            r.outcome.best_accuracy(),
            final_loss
        ));
    }
    rep.emit(&dir, "fig8")
}

/// Fig. 9: client-participation sweep (clients per round) on CIFAR-10-like
/// #2 and Sentiment140-like, for the four synchronous-flavoured methods.
pub fn fig9(ctx: &Ctx) -> io::Result<()> {
    let dir = out_dir(&ctx.out, "fig9");
    let n = ctx.scale.medium_clients();
    let tasks = vec![
        Arc::new(suite::cifar10_like(n, 2, ctx.seed)),
        Arc::new(suite::sent140_like(n, ctx.seed)),
    ];
    let parts = [2usize, 5, 10, 15];
    let strategies = [
        StrategyKind::FedAt,
        StrategyKind::TiFL,
        StrategyKind::FedAvg,
        StrategyKind::FedProx,
    ];
    let mut jobs = Vec::new();
    for task in &tasks {
        for &k in &parts {
            for strategy in strategies {
                let mut cfg = ctx.cfg(strategy);
                cfg.clients_per_round = k;
                jobs.push(Job {
                    label: format!("{} k={k} @ {}", strategy.name(), task.name),
                    task: task.clone(),
                    cfg,
                });
            }
        }
    }
    let results = run_grid(jobs, ctx.threads);
    let mut rep = TextReport::new("Fig. 9 — accuracy vs clients per round");
    let mut csv = String::from("dataset,clients_per_round,strategy,best_accuracy\n");
    for r in &results {
        csv.push_str(&format!(
            "{},{},{},{:.4}\n",
            r.task_name,
            r.label
                .split("k=")
                .nth(1)
                .and_then(|s| s.split(' ').next())
                .unwrap_or("?"),
            r.strategy,
            r.outcome.best_accuracy()
        ));
    }
    for task in &tasks {
        rep.line(format!("[{}]", task.name));
        for &k in &parts {
            let row: Vec<String> = strategies
                .iter()
                .map(|s| {
                    results
                        .iter()
                        .find(|r| {
                            r.task_name == task.name
                                && r.strategy == s.name()
                                && r.label.contains(&format!("k={k} "))
                        })
                        .map(|r| format!("{}={:.3}", s.name(), r.outcome.best_accuracy()))
                        .unwrap_or_default()
                })
                .collect();
            rep.line(format!("  k={k:<3} {}", row.join("  ")));
        }
        rep.blank();
    }
    write_csv(&dir, "fig9", &csv)?;
    rep.emit(&dir, "fig9")
}

/// Fig. 10: tier-size distributions (Uniform/Slow/Medium/Fast) on the
/// large FEMNIST-like cluster, FedAT only.
pub fn fig10(ctx: &Ctx) -> io::Result<()> {
    let dir = out_dir(&ctx.out, "fig10");
    let n = ctx.scale.large_clients();
    let task = Arc::new(suite::femnist_like(n, ctx.seed));
    // Scale the paper's 500-client distributions to n.
    let dist = |fracs: [usize; 5]| -> Vec<usize> {
        let total: usize = fracs.iter().sum();
        let mut sizes: Vec<usize> = fracs.iter().map(|f| f * n / total).collect();
        let mut diff = n as isize - sizes.iter().sum::<usize>() as isize;
        let mut i = 0usize;
        while diff > 0 {
            sizes[i % 5] += 1;
            diff -= 1;
            i += 1;
        }
        sizes
    };
    let configs = vec![
        ("Uniform", dist([100, 100, 100, 100, 100])),
        ("Slow", dist([50, 50, 100, 100, 200])),
        ("Medium", dist([50, 100, 200, 100, 50])),
        ("Fast", dist([200, 100, 100, 50, 50])),
    ];
    let mut jobs = Vec::new();
    for (name, sizes) in &configs {
        let cluster = ctx.large_cluster().with_part_sizes(sizes.clone());
        let cfg = ExperimentConfig::builder()
            .strategy(StrategyKind::FedAt)
            .rounds(ctx.scale.rounds(500))
            .max_time(6000.0)
            .eval_every(5)
            .seed(ctx.seed)
            .cluster(cluster)
            .build();
        jobs.push(Job {
            label: format!("FedAT-{name}"),
            task: task.clone(),
            cfg,
        });
    }
    let results = run_grid(jobs, ctx.threads);
    let mut rep =
        TextReport::new("Fig. 10 — FedAT under different tier-size distributions (FEMNIST-like)");
    for r in &results {
        write_trace(&dir, &slug(&r.label), &r.outcome.trace, SMOOTH_WINDOW)?;
        rep.line(format!(
            "  {:<15} best {:.3}  t→{:.2}: {}",
            r.label,
            r.outcome.best_accuracy(),
            r.target_accuracy,
            fmt_tta(r.outcome.trace.time_to_accuracy(r.target_accuracy))
        ));
    }
    rep.emit(&dir, "fig10")
}

/// The LEAF-format scenario: the Table-1 strategies on a **disk-loaded**
/// LEAF directory under the natural per-user partition.
///
/// Point `FEDAT_LEAF_DIR` at a real (or writer-generated) LEAF directory
/// and optionally `FEDAT_LEAF_BENCH` at `femnist`/`sent140`/`reddit`
/// (default `femnist`). Without the env var, a FEMNIST-shaped fixture is
/// generated via [`fedat_data::leaf::writer`] under the output directory
/// and loaded back from disk, so the measured path is always the loader.
pub fn leaf(ctx: &Ctx) -> io::Result<()> {
    let dir = out_dir(&ctx.out, "leaf");
    let (task, source) = match std::env::var_os("FEDAT_LEAF_DIR") {
        Some(d) => {
            let bench = match std::env::var("FEDAT_LEAF_BENCH").as_deref() {
                Ok("sent140") => LeafBenchmark::sent140(),
                Ok("reddit") => LeafBenchmark::reddit(),
                Ok("femnist") | Err(_) => LeafBenchmark::femnist(),
                Ok(other) => {
                    panic!("FEDAT_LEAF_BENCH must be femnist|sent140|reddit, got `{other}`")
                }
            };
            let path = PathBuf::from(d);
            let task = FedTask::from_leaf_dir(&path, bench, ctx.seed)
                .unwrap_or_else(|e| panic!("loading LEAF directory {}: {e}", path.display()));
            (task, path.display().to_string())
        }
        None => {
            let fixture = dir.join("fixture");
            let (clients, per_client) = match ctx.scale {
                Scale::Full => (50, 40),
                Scale::Quick => (10, 16),
            };
            writer::write_femnist_fixture(&fixture, clients, per_client, ctx.seed)
                .map_err(|e| io::Error::other(format!("{}: {e}", fixture.display())))?;
            let task = FedTask::from_leaf_dir(&fixture, LeafBenchmark::femnist(), ctx.seed)
                .expect("parsing the fixture the writer just emitted");
            (task, format!("generated fixture @ {}", fixture.display()))
        }
    };
    let task = Arc::new(task);
    let n = task.fed.num_clients();
    let mut cluster = ClusterConfig::paper_medium(ctx.seed).with_clients(n);
    cluster.n_unstable = cluster.n_unstable.min(n / 10);
    let mut jobs = Vec::new();
    for strategy in table1_strategies() {
        let rounds = match strategy {
            StrategyKind::FedAt => fedat_rounds(ctx.scale),
            _ => sync_rounds(ctx.scale),
        };
        let cfg = ExperimentConfig::builder()
            .strategy(strategy)
            .rounds(rounds)
            .max_time(MATRIX_HORIZON)
            .eval_every(5)
            .seed(ctx.seed)
            .cluster(cluster.clone())
            .build();
        jobs.push(ctx.job(&task, cfg));
    }
    let results = run_grid(jobs, ctx.threads);
    let mut rep = TextReport::new("LEAF — disk-loaded natural partition, Table-1 strategies");
    rep.line(format!("source: {source}"));
    let sizes = task.fed.client_sizes();
    rep.line(format!(
        "task: {} — {} clients, sizes {}..{}, {} classes, {} features",
        task.name,
        n,
        sizes.iter().min().unwrap_or(&0),
        sizes.iter().max().unwrap_or(&0),
        task.fed.classes,
        task.fed.features
    ));
    let mut csv = String::from("strategy,best_accuracy,accuracy_variance,time_to_target\n");
    for r in &results {
        write_trace(&dir, &slug(&r.label), &r.outcome.trace, SMOOTH_WINDOW)?;
        let tta = r.outcome.trace.time_to_accuracy(r.target_accuracy);
        rep.line(format!(
            "  {:<9} best {:.3}  variance {:.5}  t→{:.2}: {}",
            r.strategy,
            r.outcome.best_accuracy(),
            r.outcome.accuracy_variance,
            r.target_accuracy,
            fmt_tta(tta),
        ));
        csv.push_str(&format!(
            "{},{:.4},{:.6},{}\n",
            r.strategy,
            r.outcome.best_accuracy(),
            r.outcome.accuracy_variance,
            tta.map(|t| format!("{t:.1}")).unwrap_or_else(|| "-".into())
        ));
    }
    write_csv(&dir, "leaf", &csv)?;
    rep.emit(&dir, "leaf")
}

/// Ablation: FedAT vs TiFL under mis-tiering (DESIGN.md §5.4).
pub fn ablate_mistier(ctx: &Ctx) -> io::Result<()> {
    let dir = out_dir(&ctx.out, "ablate-mistier");
    let task = Arc::new(suite::cifar10_like(ctx.scale.medium_clients(), 2, ctx.seed));
    let mut jobs = Vec::new();
    for strategy in [StrategyKind::FedAt, StrategyKind::TiFL] {
        for frac in [0.0, 0.3] {
            let mut cfg = ctx.cfg(strategy);
            cfg.mistier_fraction = frac;
            jobs.push(Job {
                label: format!("{} mistier={frac}", strategy.name()),
                task: task.clone(),
                cfg,
            });
        }
    }
    let results = run_grid(jobs, ctx.threads);
    let mut rep =
        TextReport::new("Ablation — tolerance to mis-tiering (30% of clients mis-assigned)");
    for pair in results.chunks(2) {
        let (clean, noisy) = (&pair[0], &pair[1]);
        rep.line(format!(
            "  {:<9} clean {:.3} → mis-tiered {:.3}  (drop {:+.3})",
            clean.strategy,
            clean.outcome.best_accuracy(),
            noisy.outcome.best_accuracy(),
            noisy.outcome.best_accuracy() - clean.outcome.best_accuracy()
        ));
    }
    rep.emit(&dir, "ablate_mistier")
}

/// Ablation: the proximal coefficient λ (paper fixes 0.4).
pub fn ablate_lambda(ctx: &Ctx) -> io::Result<()> {
    let dir = out_dir(&ctx.out, "ablate-lambda");
    let task = Arc::new(suite::cifar10_like(ctx.scale.medium_clients(), 2, ctx.seed));
    let jobs: Vec<Job> = [0.0f32, 0.1, 0.4, 1.0]
        .into_iter()
        .map(|lambda| {
            let mut cfg = ctx.cfg(StrategyKind::FedAt);
            cfg.lambda = lambda;
            Job {
                label: format!("FedAT λ={lambda}"),
                task: task.clone(),
                cfg,
            }
        })
        .collect();
    let results = run_grid(jobs, ctx.threads);
    let mut rep = TextReport::new("Ablation — local constraint λ (FedAT, CIFAR-10-like #2)");
    for r in &results {
        rep.line(format!(
            "  {:<12} best {:.3}  variance {:.5}",
            r.label,
            r.outcome.best_accuracy(),
            r.outcome.accuracy_variance
        ));
    }
    rep.emit(&dir, "ablate_lambda")
}

/// Ablation: delta vs absolute polyline coding (DESIGN.md §5.2).
pub fn ablate_delta(ctx: &Ctx) -> io::Result<()> {
    let dir = out_dir(&ctx.out, "ablate-delta");
    let task = Arc::new(suite::cifar10_like(ctx.scale.medium_clients(), 2, ctx.seed));
    let jobs: Vec<Job> = [true, false]
        .into_iter()
        .map(|delta| {
            let mut cfg = ctx.cfg(StrategyKind::FedAt);
            cfg.codec = Some(CodecKind::Polyline {
                precision: 4,
                delta,
            });
            Job {
                label: format!(
                    "FedAT polyline-{}",
                    if delta { "delta" } else { "absolute" }
                ),
                task: task.clone(),
                cfg,
            }
        })
        .collect();
    let results = run_grid(jobs, ctx.threads);
    let mut rep = TextReport::new("Ablation — delta vs absolute polyline coding (FedAT)");
    for r in &results {
        let up = r.up_bytes();
        rep.line(format!(
            "  {:<26} best {:.3}  upload {:.1} MB",
            r.label,
            r.outcome.best_accuracy(),
            up as f64 / 1e6
        ));
    }
    rep.emit(&dir, "ablate_delta")
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
        max_retries: 2,
        backoff: 1.5,
        quorum: 0.9,
        retier: None,
    };
    let dynamic = FaultPolicy {
        retier: Some(RetierPolicy {
            alpha: 0.3,
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
pub fn churn(ctx: &Ctx) -> io::Result<()> {
    let dir = out_dir(&ctx.out, "churn");
    let task = Arc::new(suite::sent140_like(ctx.scale.medium_clients(), ctx.seed));
    let results = run_grid(churn_jobs(&task, ctx.seed), ctx.threads);
    let mut rep = TextReport::new(
        "Robustness — FedAT under flaps + 30% storms + 10x compute drift (8000 s horizon)",
    );
    let mut csv = String::from(
        "variant,best_accuracy,time_to_target,global_updates,timeouts,retries,quorum_rounds,retier_events\n",
    );
    for r in &results {
        write_trace(&dir, &slug(&r.label), &r.outcome.trace, SMOOTH_WINDOW)?;
        write_fault_log(&dir, &slug(&r.label), &r.outcome.faults)?;
        let tta = r.outcome.trace.time_to_accuracy(r.target_accuracy);
        let fc = r.outcome.fault_counters;
        let tiers = r.outcome.tier_updates.clone().unwrap_or_default();
        rep.line(format!(
            "  {:<22} best {:.3}  t→{:.2}: {}  updates {}  tiers {:?}",
            r.label,
            r.outcome.best_accuracy(),
            r.target_accuracy,
            fmt_tta(tta),
            r.outcome.global_updates,
            tiers,
        ));
        rep.line(format!(
            "  {:<22} timeouts {}  retries {}  quorum-skips {}  re-tiers {}  fault rows {}",
            "",
            fc.timeouts,
            fc.retries,
            fc.quorum_rounds,
            fc.retier_events,
            r.outcome.faults.events().len(),
        ));
        csv.push_str(&format!(
            "{},{:.4},{},{},{},{},{},{}\n",
            slug(&r.label),
            r.outcome.best_accuracy(),
            tta.map(|t| format!("{t:.1}")).unwrap_or_else(|| "-".into()),
            r.outcome.global_updates,
            fc.timeouts,
            fc.retries,
            fc.quorum_rounds,
            fc.retier_events,
        ));
    }
    rep.blank();
    rep.line("  (see docs/ROBUSTNESS.md for the fault model)");
    write_csv(&dir, "churn", &csv)?;
    rep.emit(&dir, "churn")
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

/// FedAT with 30% of clients under [`scale_attack`], with the guard layer
/// off, norm-screen clipping, and rejection + quarantine + coordinate-median
/// aggregation.
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

/// Robustness rows: [`corrupt_jobs`] with per-variant traces and fault logs
/// for forensics, then the [`corrupt_curve_jobs`] table.
/// `tests/acceptance.rs` asserts the claim the curve carries: the undefended
/// server collapses at ≥ 20% corrupt clients while every defended posture
/// stays within two points of clean.
pub fn corrupt(ctx: &Ctx) -> io::Result<()> {
    let dir = out_dir(&ctx.out, "corrupt");
    let task = Arc::new(suite::sent140_like(ctx.scale.medium_clients(), ctx.seed));
    let mut jobs = corrupt_jobs(&task, ctx.seed);
    let n_fedat = jobs.len();
    jobs.extend(corrupt_curve_jobs(&task, ctx.seed));
    let results = run_grid(jobs, ctx.threads);
    let (fedat, curve) = results.split_at(n_fedat);

    let mut rep = TextReport::new(
        "Robustness — FedAT under 30% corrupted uplinks (scale-by-5, half of selections)",
    );
    let header =
        "best_accuracy,final_finite,global_updates,corrupt,rejects,clips,stale,quarantines\n";
    let csv_row = |r: &JobResult| {
        let fc = r.outcome.fault_counters;
        format!(
            "{:.4},{},{},{},{},{},{},{}\n",
            r.outcome.best_accuracy(),
            r.final_finite(),
            r.outcome.global_updates,
            fc.corrupt,
            fc.rejects,
            fc.clips,
            fc.stale,
            fc.quarantines,
        )
    };
    let mut csv = format!("variant,{header}");
    for r in fedat {
        write_trace(&dir, &slug(&r.label), &r.outcome.trace, SMOOTH_WINDOW)?;
        write_fault_log(&dir, &slug(&r.label), &r.outcome.faults)?;
        let fc = r.outcome.fault_counters;
        rep.line(format!(
            "  {:<24} best {:.3}  finite {}  updates {}",
            r.label,
            r.outcome.best_accuracy(),
            r.final_finite(),
            r.outcome.global_updates,
        ));
        rep.line(format!(
            "  {:<24} corrupt {}  rejects {}  clips {}  stale {}  quarantines {}  fault rows {}",
            "",
            fc.corrupt,
            fc.rejects,
            fc.clips,
            fc.stale,
            fc.quarantines,
            r.outcome.faults.events().len(),
        ));
        csv.push_str(&format!("{},{}", slug(&r.label), csv_row(r)));
    }
    write_csv(&dir, "corrupt", &csv)?;

    rep.blank();
    rep.line("FedAvg, ≤ 200 rounds: best accuracy (corrupt events / clips) by server posture");
    let columns: String = POSTURES.iter().map(|p| format!(" {p:>18}")).collect();
    rep.line(format!("  {:<8}{columns}", "corrupt"));
    let mut csv = format!("posture,corrupt_fraction,{header}");
    for (fraction, row) in CORRUPT_FRACTIONS.iter().zip(curve.chunks(POSTURES.len())) {
        let mut line = format!("  {:<8}", format!("{:.0}%", fraction * 100.0));
        for (posture, r) in POSTURES.iter().zip(row) {
            let fc = r.outcome.fault_counters;
            let cell = format!(
                "{:.4} ({}/{})",
                r.outcome.best_accuracy(),
                fc.corrupt,
                fc.clips
            );
            line.push_str(&format!(" {cell:>18}"));
            csv.push_str(&format!("{posture},{fraction:.2},{}", csv_row(r)));
        }
        rep.line(line);
    }
    rep.blank();
    rep.line("  (see docs/ROBUSTNESS.md §Corrupted updates)");
    write_csv(&dir, "corrupt_curve", &csv)?;
    rep.emit(&dir, "corrupt")
}

/// The codec column of [`codec_jobs`]: the uncompressed baseline, the
/// paper's polyline codec at two precisions, the lossless delta, the 8/4-bit
/// quantized deltas, and the sparse top-5% delta.
const CODECS: [(&str, CodecKind); 7] = [
    ("none", CodecKind::None),
    (
        "polyline-p3",
        CodecKind::Polyline {
            precision: 3,
            delta: true,
        },
    ),
    (
        "polyline-p4",
        CodecKind::Polyline {
            precision: 4,
            delta: true,
        },
    ),
    ("delta-rle", CodecKind::DeltaRle),
    ("quantized8", CodecKind::Quantized { bits: 8 }),
    ("quantized4", CodecKind::Quantized { bits: 4 }),
    ("topk-50pm", CodecKind::TopK { per_mille: 50 }),
];

/// Every strategy × `CODECS` cell (strategy-major, the uncompressed run
/// first in each row) on a 100-round budget of the full two-phase wire
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
pub fn codec(ctx: &Ctx) -> io::Result<()> {
    let dir = out_dir(&ctx.out, "codec");
    let task = Arc::new(suite::sent140_like(ctx.scale.medium_clients(), ctx.seed));
    let results = run_grid(codec_jobs(&task, ctx.seed), ctx.threads);
    let mut rep =
        TextReport::new("Wire codecs — strategy × codec, a 100-round budget through the wire path");
    let mut csv = String::from(
        "strategy,codec,best_accuracy,up_bytes,down_bytes,uplink_ratio,global_updates\n",
    );
    for row in results.chunks(CODECS.len()) {
        rep.line(format!("[{}]", row[0].strategy));
        for ((name, _), r) in CODECS.iter().zip(row) {
            let ratio = row[0].up_bytes() as f64 / r.up_bytes().max(1) as f64;
            rep.line(format!(
                "  {:<12} best {:.4}  up {:>9} B  down {:>9} B  uplink {:>5.2}×  updates {}",
                name,
                r.outcome.best_accuracy(),
                r.up_bytes(),
                r.down_bytes(),
                ratio,
                r.outcome.global_updates,
            ));
            csv.push_str(&format!(
                "{},{},{:.4},{},{},{:.2},{}\n",
                r.strategy,
                name,
                r.outcome.best_accuracy(),
                r.up_bytes(),
                r.down_bytes(),
                ratio,
                r.outcome.global_updates,
            ));
        }
        match best_codec_within_a_point(row) {
            Some((c, ratio, loss)) => rep.line(format!(
                "  within one point of uncompressed: {} at {ratio:.2}× (loss {loss:.4})",
                c.label
            )),
            None => rep.line("  within one point of uncompressed: none"),
        }
        rep.blank();
    }
    write_csv(&dir, "codec", &csv)?;
    rep.emit(&dir, "codec")
}

fn dedup_keep_order<I: Iterator<Item = String>>(it: I) -> Vec<String> {
    let mut seen = Vec::new();
    for s in it {
        if !seen.contains(&s) {
            seen.push(s);
        }
    }
    seen
}

/// Every id [`run`] accepts, as `repro`'s usage text lists them.
pub const IDS: [&str; 20] = [
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "leaf",
    "churn",
    "corrupt",
    "codec",
    "ablate-mistier",
    "ablate-lambda",
    "ablate-delta",
    "matrix",
    "all",
];

/// Runs one experiment by id; `matrix` and `all` share the core matrix
/// across the artifacts that reuse it. Fails before computing anything if
/// the output directory cannot be created, and on the first failed write
/// after that, naming the path either way.
pub fn run(id: &str, ctx: &Ctx) -> io::Result<()> {
    create_dir(&ctx.out)?;
    match id {
        "table1" => table1(ctx, &core_matrix(ctx)),
        "table2" => table2(ctx, &core_matrix(ctx)),
        "fig2" => fig2(ctx, &core_matrix(ctx)),
        "fig3" => fig3(ctx, &core_matrix(ctx)),
        "fig4" => fig4(ctx, &core_matrix(ctx)),
        "fig5" => fig5(ctx),
        "fig6" => fig6(ctx),
        "fig7" => fig7(ctx),
        "fig8" => fig8(ctx),
        "fig9" => fig9(ctx),
        "fig10" => fig10(ctx),
        "leaf" => leaf(ctx),
        "churn" => churn(ctx),
        "corrupt" => corrupt(ctx),
        "codec" => codec(ctx),
        "ablate-mistier" => ablate_mistier(ctx),
        "ablate-lambda" => ablate_lambda(ctx),
        "ablate-delta" => ablate_delta(ctx),
        "matrix" | "all" => {
            let m = core_matrix(ctx);
            table1(ctx, &m)?;
            table2(ctx, &m)?;
            fig2(ctx, &m)?;
            fig3(ctx, &m)?;
            fig4(ctx, &m)?;
            if id == "all" {
                fig5(ctx)?;
                fig6(ctx)?;
                fig7(ctx)?;
                fig8(ctx)?;
                fig9(ctx)?;
                fig10(ctx)?;
                churn(ctx)?;
                corrupt(ctx)?;
                codec(ctx)?;
                ablate_mistier(ctx)?;
                ablate_lambda(ctx)?;
                ablate_delta(ctx)?;
            }
            Ok(())
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown experiment id `{other}`; known: {}", IDS.join(" ")),
        )),
    }
}
