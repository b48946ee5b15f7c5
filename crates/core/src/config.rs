//! Experiment configuration.

use fedat_compress::codec::CodecKind;
use fedat_sim::fleet::ClusterConfig;

/// Which federated-learning method to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Synchronous FedAvg (McMahan et al.) — Algorithm 1.
    FedAvg,
    /// FedProx: FedAvg + proximal term + device-dependent local epochs.
    FedProx,
    /// TiFL: synchronous tier-based selection with adaptive, accuracy-driven
    /// tier probabilities.
    TiFL,
    /// FedAsync (Xie et al.): fully asynchronous staleness-weighted mixing.
    FedAsync,
    /// ASO-Fed (Chen et al.): asynchronous with per-client server copies
    /// and local constraints.
    AsoFed,
    /// FedAT — this paper.
    FedAt,
}

impl StrategyKind {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::FedAvg => "FedAvg",
            StrategyKind::FedProx => "FedProx",
            StrategyKind::TiFL => "TiFL",
            StrategyKind::FedAsync => "FedAsync",
            StrategyKind::AsoFed => "ASO-Fed",
            StrategyKind::FedAt => "FedAT",
        }
    }

    /// All strategies, in the paper's table order.
    pub fn all() -> [StrategyKind; 6] {
        [
            StrategyKind::TiFL,
            StrategyKind::FedAvg,
            StrategyKind::FedProx,
            StrategyKind::FedAsync,
            StrategyKind::AsoFed,
            StrategyKind::FedAt,
        ]
    }
}

/// Local solver choice. The paper uses Adam (§6 *Hyperparameters*).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OptimizerKind {
    /// Adam with the given learning rate.
    Adam {
        /// Learning rate.
        lr: f32,
    },
}

impl OptimizerKind {
    /// Constructs the optimizer.
    pub fn build(&self) -> Box<dyn fedat_nn::optim::Optimizer> {
        let OptimizerKind::Adam { lr } = *self;
        Box::new(fedat_nn::optim::Adam::new(lr))
    }
}

/// Dynamic re-tiering policy: maintain an EWMA of observed response
/// latencies and periodically re-partition tiers when enough clients have
/// drifted out of place (cf. the one-shot [`crate::tiering::TierAssignment::profile`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetierPolicy {
    /// Re-evaluate tier assignments every this many concluded tier rounds.
    pub check_every: u64,
    /// Adopt a new assignment only when at least this fraction of clients
    /// would change tier.
    pub drift_threshold: f64,
}

impl RetierPolicy {
    /// EWMA smoothing factor for observed round-trip latencies.
    pub const ALPHA: f64 = 0.3;
}

impl Default for RetierPolicy {
    fn default() -> Self {
        RetierPolicy {
            check_every: 10,
            drift_threshold: 0.1,
        }
    }
}

/// Server-side fault-tolerance policy: per-dispatch deadlines with bounded,
/// backed-off re-dispatch, quorum accounting, and optional dynamic
/// re-tiering. The default (`deadline_multiplier: None`, `retier: None`)
/// reproduces the legacy behavior bit-for-bit: no timers are ever
/// scheduled.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPolicy {
    /// Deadline = multiplier × the dispatch group's nominal (expected)
    /// latency; `None` disables timeouts entirely.
    pub deadline_multiplier: Option<f64>,
    /// A round concluding with fewer than `quorum × picked` landed updates
    /// is recorded as degraded (it still aggregates whatever arrived).
    pub quorum: f64,
    /// Dynamic re-tiering; `None` keeps the one-shot profile.
    pub retier: Option<RetierPolicy>,
}

impl FaultPolicy {
    /// Bounded re-dispatches per round slot after a timeout.
    pub const MAX_RETRIES: u32 = 2;
    /// Each retry's deadline is scaled by `BACKOFF^attempt`.
    pub const BACKOFF: f64 = 1.5;
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            deadline_multiplier: None,
            quorum: 0.5,
            retier: None,
        }
    }
}

/// L2-norm screen: each landed update's *displacement* from the current
/// global model is compared against `threshold ×` a deterministic EWMA of
/// previously *accepted* displacement norms. (Uploads are full models;
/// screening the displacement instead of the raw weights bounds a
/// magnitude attack additively rather than letting it compound.) The first
/// accepted update initializes the EWMA; over-threshold updates are
/// clipped down to the limit (`clip: true`) or rejected outright.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NormScreen {
    /// EWMA smoothing factor for accepted displacement norms, in `(0, 1]`.
    pub alpha: f64,
    /// An update whose displacement norm exceeds `threshold × EWMA` trips
    /// the screen (must be ≥ 1).
    pub threshold: f64,
    /// Trip response: `true` rescales the update to the limit (`Clip`),
    /// `false` discards it (`Reject`).
    pub clip: bool,
}

impl Default for NormScreen {
    fn default() -> Self {
        NormScreen {
            alpha: 0.2,
            threshold: 3.0,
            clip: true,
        }
    }
}

/// Server-side guard layer against corrupted updates: per-update screens
/// applied as each uplink lands, a staleness bound for the async
/// strategies, quarantine of repeat offenders, and the aggregation rule.
///
/// The default is **inert**: no check runs, no norm is computed, every
/// strategy reproduces its unguarded trace bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GuardPolicy {
    /// Reject updates containing NaN/Inf before they touch any reduction.
    pub finite_check: bool,
    /// L2-norm screen against the accepted-norm EWMA; `None` disables it.
    pub norm_screen: Option<NormScreen>,
    /// Wait-free lanes (FedAsync/ASO-Fed) discard updates staler than this
    /// many global model versions; barrier lanes ignore it. `None`
    /// disables the bound.
    pub max_staleness: Option<u64>,
    /// Quarantine a client after this many rejected updates; `None`
    /// disables quarantine. Stale discards do not count — slowness is not
    /// an offense.
    pub quarantine_after: Option<u32>,
    /// How long (virtual seconds) a quarantined client sits out of the
    /// dispatch pools before its offense count restarts from zero.
    pub quarantine_secs: f64,
    /// How landed updates are combined each (tier-)round.
    pub agg_rule: crate::aggregate::AggRule,
}

impl Default for GuardPolicy {
    fn default() -> Self {
        GuardPolicy {
            finite_check: false,
            norm_screen: None,
            max_staleness: None,
            quarantine_after: None,
            quarantine_secs: 600.0,
            agg_rule: crate::aggregate::AggRule::WeightedMean,
        }
    }
}

impl GuardPolicy {
    /// True when landed updates need per-update screening (finite check,
    /// norm screen, or offense tracking for quarantine). The inert default
    /// returns false, letting the completion path skip the guard entirely
    /// — no norm computation, no state, bit-identical legacy behavior.
    pub fn screens_updates(&self) -> bool {
        self.finite_check || self.norm_screen.is_some() || self.quarantine_after.is_some()
    }

    /// True when the whole policy is the inert default shape (used by
    /// tests and the bench to label variants).
    pub fn is_inert(&self) -> bool {
        !self.screens_updates()
            && self.max_staleness.is_none()
            && self.agg_rule == crate::aggregate::AggRule::WeightedMean
    }
}

/// Per-run execution override. A run executes under its calling thread's
/// kernel overlay ([`fedat_tensor::ctx`]); the one thing a config can pin
/// is job cap 0 ([`resolve`](crate::exec::resolve)). It selects between
/// bit-identical executions, so it cannot change a trace — only wall-clock
/// behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecOverrides {
    /// `Some(Inline)` pins the job cap to 0; `None` keeps the overlay's.
    pub mode: Option<crate::exec::ExecMode>,
}

/// Full experiment configuration. Build via [`ExperimentConfig::builder`].
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// FL method.
    pub strategy: StrategyKind,
    /// Budget of *global* model updates (`T` in Algorithm 2).
    pub rounds: u64,
    /// Virtual-time horizon in seconds (runs stop at whichever of
    /// `rounds`/`max_time` hits first).
    pub max_time: f64,
    /// Clients sampled per (tier-)round — 10 in the paper.
    pub clients_per_round: usize,
    /// Local epochs `E` — 3 in the paper.
    pub local_epochs: usize,
    /// Mini-batch size — 10 in the paper.
    pub batch_size: usize,
    /// Local solver.
    pub optimizer: OptimizerKind,
    /// Proximal coefficient λ (Eq. 3) — 0.4 in the paper. Only strategies
    /// with a local constraint (FedProx, ASO-Fed, FedAT) use it.
    pub lambda: f32,
    /// Transfer codec; `None` is the strategy default (polyline precision 4
    /// for FedAT, uncompressed for the baselines) — see [`default_codec`].
    pub codec: Option<CodecKind>,
    /// Number of logical tiers `M` — 5 in the paper.
    pub num_tiers: usize,
    /// Evaluate the global model every this many global updates.
    pub eval_every: u64,
    /// Cap on test samples per evaluation (fixed subset; keeps runs fast).
    pub eval_subset: usize,
    /// Mixing weight α for FedAsync.
    pub fedasync_alpha: f32,
    /// Staleness attenuation for FedAsync (constant or polynomial;
    /// polynomial `a = 0.5` is the default the FedAT paper's baseline
    /// uses).
    pub fedasync_staleness: crate::staleness::StalenessFn,
    /// Fraction of clients deliberately assigned to a wrong tier
    /// (mis-tiering robustness ablation; 0 = off).
    pub mistier_fraction: f64,
    /// Use uniform cross-tier weights instead of Eq. 5 (Fig. 6 ablation).
    pub uniform_tier_weights: bool,
    /// Master seed.
    pub seed: u64,
    /// Cluster override; `None` builds the paper's medium cluster sized to
    /// the task's client count.
    pub cluster: Option<ClusterConfig>,
    /// Server-side fault tolerance (timeouts, retries, quorum accounting,
    /// dynamic re-tiering). Defaults to the legacy no-op policy.
    pub fault: FaultPolicy,
    /// Guard layer against corrupted updates (finite check, norm screen,
    /// staleness bound, quarantine, robust aggregation). Defaults inert.
    pub guard: GuardPolicy,
    /// Per-run execution override: job cap 0, or (the default) the
    /// calling thread's overlay.
    pub exec: ExecOverrides,
}

impl ExperimentConfig {
    /// Starts a builder with the paper's §6 hyperparameters.
    pub fn builder() -> ExperimentConfigBuilder {
        ExperimentConfigBuilder {
            cfg: ExperimentConfig::default(),
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            strategy: StrategyKind::FedAt,
            rounds: 300,
            max_time: f64::INFINITY,
            clients_per_round: 10,
            local_epochs: 3,
            batch_size: 10,
            optimizer: OptimizerKind::Adam { lr: 0.003 },
            lambda: 0.4,
            codec: None,
            num_tiers: 5,
            eval_every: 5,
            eval_subset: 512,
            fedasync_alpha: 0.6,
            fedasync_staleness: crate::staleness::StalenessFn::default_polynomial(),
            mistier_fraction: 0.0,
            uniform_tier_weights: false,
            seed: 0,
            cluster: None,
            fault: FaultPolicy::default(),
            guard: GuardPolicy::default(),
            exec: ExecOverrides::default(),
        }
    }
}

/// Fluent builder for [`ExperimentConfig`].
pub struct ExperimentConfigBuilder {
    cfg: ExperimentConfig,
}

impl ExperimentConfigBuilder {
    /// Sets the FL method.
    pub fn strategy(mut self, s: StrategyKind) -> Self {
        self.cfg.strategy = s;
        self
    }

    /// Sets the global update budget.
    pub fn rounds(mut self, r: u64) -> Self {
        self.cfg.rounds = r;
        self
    }

    /// Sets the virtual-time horizon (seconds).
    pub fn max_time(mut self, t: f64) -> Self {
        self.cfg.max_time = t;
        self
    }

    /// Sets clients sampled per round.
    pub fn clients_per_round(mut self, k: usize) -> Self {
        self.cfg.clients_per_round = k;
        self
    }

    /// Sets local epochs.
    pub fn local_epochs(mut self, e: usize) -> Self {
        self.cfg.local_epochs = e;
        self
    }

    /// Sets the mini-batch size.
    pub fn batch_size(mut self, b: usize) -> Self {
        self.cfg.batch_size = b;
        self
    }

    /// Sets the local solver.
    pub fn optimizer(mut self, o: OptimizerKind) -> Self {
        self.cfg.optimizer = o;
        self
    }

    /// Sets the proximal coefficient λ.
    pub fn lambda(mut self, l: f32) -> Self {
        self.cfg.lambda = l;
        self
    }

    /// Overrides the transfer codec.
    pub fn codec(mut self, c: CodecKind) -> Self {
        self.cfg.codec = Some(c);
        self
    }

    /// Sets the tier count `M`.
    pub fn num_tiers(mut self, m: usize) -> Self {
        self.cfg.num_tiers = m;
        self
    }

    /// Sets the evaluation cadence (global updates between evals).
    pub fn eval_every(mut self, n: u64) -> Self {
        self.cfg.eval_every = n;
        self
    }

    /// Caps test samples per evaluation.
    pub fn eval_subset(mut self, n: usize) -> Self {
        self.cfg.eval_subset = n;
        self
    }

    /// Sets FedAsync's α.
    pub fn fedasync_alpha(mut self, a: f32) -> Self {
        self.cfg.fedasync_alpha = a;
        self
    }

    /// Sets FedAsync's staleness attenuation family.
    pub fn fedasync_staleness(mut self, s: crate::staleness::StalenessFn) -> Self {
        self.cfg.fedasync_staleness = s;
        self
    }

    /// Enables mis-tiering of a client fraction.
    pub fn mistier_fraction(mut self, f: f64) -> Self {
        self.cfg.mistier_fraction = f;
        self
    }

    /// Switches FedAT to uniform cross-tier weights (Fig. 6 baseline).
    pub fn uniform_tier_weights(mut self, u: bool) -> Self {
        self.cfg.uniform_tier_weights = u;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.seed = s;
        self
    }

    /// Overrides the simulated cluster.
    pub fn cluster(mut self, c: ClusterConfig) -> Self {
        self.cfg.cluster = Some(c);
        self
    }

    /// Sets the full fault-tolerance policy.
    pub fn fault(mut self, f: FaultPolicy) -> Self {
        self.cfg.fault = f;
        self
    }

    /// Enables per-dispatch deadlines at `m ×` the group's nominal latency.
    pub fn deadline_multiplier(mut self, m: f64) -> Self {
        self.cfg.fault.deadline_multiplier = Some(m);
        self
    }

    /// Enables dynamic re-tiering with the given policy.
    pub fn retier(mut self, p: RetierPolicy) -> Self {
        self.cfg.fault.retier = Some(p);
        self
    }

    /// Sets the full corrupted-update guard policy.
    pub fn guard(mut self, g: GuardPolicy) -> Self {
        self.cfg.guard = g;
        self
    }

    /// Sets the aggregation rule (leaving the rest of the guard as-is).
    pub fn agg_rule(mut self, rule: crate::aggregate::AggRule) -> Self {
        self.cfg.guard.agg_rule = rule;
        self
    }

    /// Finalizes the config.
    ///
    /// # Panics
    /// Panics on inconsistent settings (zero rounds, zero participation…).
    pub fn build(self) -> ExperimentConfig {
        let c = self.cfg;
        assert!(c.rounds > 0, "rounds must be positive");
        assert!(
            c.clients_per_round > 0,
            "clients_per_round must be positive"
        );
        assert!(c.local_epochs > 0, "local_epochs must be positive");
        assert!(c.batch_size > 0, "batch_size must be positive");
        assert!(c.num_tiers > 0, "num_tiers must be positive");
        assert!(c.eval_every > 0, "eval_every must be positive");
        assert!(
            (0.0..=1.0).contains(&c.mistier_fraction),
            "mistier_fraction out of range"
        );
        if let Some(m) = c.fault.deadline_multiplier {
            assert!(m > 0.0, "deadline_multiplier must be positive");
        }
        assert!((0.0..=1.0).contains(&c.fault.quorum), "quorum out of range");
        if let Some(r) = c.fault.retier {
            assert!(r.check_every > 0, "retier check_every must be positive");
            assert!(
                (0.0..=1.0).contains(&r.drift_threshold),
                "retier drift_threshold out of range"
            );
        }
        if let Some(s) = c.guard.norm_screen {
            assert!(
                s.alpha > 0.0 && s.alpha <= 1.0,
                "norm-screen alpha out of range"
            );
            assert!(
                s.threshold >= 1.0,
                "norm-screen threshold must be at least 1"
            );
        }
        if let Some(k) = c.guard.quarantine_after {
            assert!(k > 0, "quarantine_after must be positive");
            assert!(
                c.guard.quarantine_secs > 0.0,
                "quarantine_secs must be positive"
            );
        }
        if let crate::aggregate::AggRule::TrimmedMean { frac } = c.guard.agg_rule {
            assert!(
                (0.0..0.5).contains(&frac),
                "trimmed-mean frac must be in [0, 0.5)"
            );
        }
        c
    }
}

/// The codec a strategy uses when none is overridden: FedAT compresses with
/// polyline precision 4 (§7, *Implementation and Setup*); the baselines send
/// raw weights as in their reference implementations.
pub fn default_codec(strategy: StrategyKind) -> CodecKind {
    match strategy {
        StrategyKind::FedAt => CodecKind::Polyline {
            precision: 4,
            delta: true,
        },
        _ => CodecKind::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_paper() {
        let c = ExperimentConfig::builder().build();
        assert_eq!(c.clients_per_round, 10);
        assert_eq!(c.local_epochs, 3);
        assert_eq!(c.batch_size, 10);
        assert_eq!(c.num_tiers, 5);
        assert!((c.lambda - 0.4).abs() < 1e-9);
    }

    #[test]
    fn builder_overrides_stick() {
        let c = ExperimentConfig::builder()
            .strategy(StrategyKind::FedAvg)
            .rounds(42)
            .clients_per_round(2)
            .lambda(0.0)
            .seed(9)
            .build();
        assert_eq!(c.strategy, StrategyKind::FedAvg);
        assert_eq!(c.rounds, 42);
        assert_eq!(c.clients_per_round, 2);
        assert_eq!(c.lambda, 0.0);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn default_codecs() {
        assert_eq!(
            default_codec(StrategyKind::FedAt),
            CodecKind::Polyline {
                precision: 4,
                delta: true
            }
        );
        assert_eq!(default_codec(StrategyKind::FedAvg), CodecKind::None);
        assert_eq!(default_codec(StrategyKind::FedAsync), CodecKind::None);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(StrategyKind::FedAt.name(), "FedAT");
        assert_eq!(StrategyKind::AsoFed.name(), "ASO-Fed");
        assert_eq!(StrategyKind::all().len(), 6);
    }

    #[test]
    #[should_panic(expected = "rounds must be positive")]
    fn zero_rounds_rejected() {
        let _ = ExperimentConfig::builder().rounds(0).build();
    }

    #[test]
    fn guard_default_is_inert() {
        let c = ExperimentConfig::builder().build();
        assert!(c.guard.is_inert());
        assert!(!c.guard.screens_updates());
        assert_eq!(c.guard.agg_rule, crate::aggregate::AggRule::WeightedMean);
        // Any single knob wakes the screen.
        let g = GuardPolicy {
            finite_check: true,
            ..GuardPolicy::default()
        };
        assert!(g.screens_updates() && !g.is_inert());
        let g = GuardPolicy {
            norm_screen: Some(NormScreen::default()),
            ..GuardPolicy::default()
        };
        assert!(g.screens_updates());
        let g = GuardPolicy {
            quarantine_after: Some(3),
            ..GuardPolicy::default()
        };
        assert!(g.screens_updates());
    }

    #[test]
    #[should_panic(expected = "trimmed-mean frac")]
    fn out_of_range_trim_rejected() {
        let _ = ExperimentConfig::builder()
            .agg_rule(crate::aggregate::AggRule::TrimmedMean { frac: 0.5 })
            .build();
    }
}
