//! The one comparison of two runs and the one execution-settings sweep.
//!
//! No execution setting — the SIMD lane, the job cap, the pool's worker
//! count — may move a result bit. [`first_difference`] is what "the same
//! result" means: every [`Outcome`] field but the cap-dependent
//! `speculation`, compared bit for bit. [`sweep`] runs one scenario under a
//! list of settings and holds every run to the first.
#![allow(
    dead_code,
    reason = "each test binary that includes this module uses its own subset"
)]

use fedat_core::{run_experiment_shared, ExperimentConfig, Outcome};
use fedat_data::suite::FedTask;
use fedat_sim::fault::FaultKind;
use fedat_tensor::ctx::{self, KernelCtx};
use fedat_tensor::simd::SimdKernel;
use std::sync::Arc;

/// The job cap that lets every job onto the pool, whatever the host
/// default (cap 0 under `FEDAT_EXEC=inline`).
pub const UNCAPPED: usize = usize::MAX;

/// The overlay with job cap `max_pool_jobs` on lane `simd`.
pub const fn at(max_pool_jobs: usize, simd: SimdKernel) -> KernelCtx {
    KernelCtx {
        simd,
        max_pool_jobs,
    }
}

/// The setting every sweep's base run and rerun use.
pub const BASE: KernelCtx = at(UNCAPPED, SimdKernel::Auto);

/// Job caps {0, 1, 3, 7, uncapped} × {`Auto`, `Scalar`}. Cap `W − 1` is
/// "`W` workers": the joining event-loop thread plus `W − 1` pool helpers;
/// cap 0 is what a config's `ExecMode::Inline` pins. The lane is named, so
/// a row means the same under `FEDAT_SIMD=scalar` and `FEDAT_EXEC=inline`.
pub const SETTINGS: &[KernelCtx] = &[
    at(UNCAPPED, SimdKernel::Auto),
    at(UNCAPPED, SimdKernel::Scalar),
    at(0, SimdKernel::Auto),
    at(0, SimdKernel::Scalar),
    at(1, SimdKernel::Auto),
    at(3, SimdKernel::Auto),
    at(7, SimdKernel::Auto),
    at(1, SimdKernel::Scalar),
    at(3, SimdKernel::Scalar),
    at(7, SimdKernel::Scalar),
];

/// The first seven [`SETTINGS`], for the two costliest rows (a CNN and a
/// loader-built task): uncapped and cap 0 on both lanes, caps 1, 3 and 7
/// on `Auto`.
pub const SHORT: &[KernelCtx] = SETTINGS.split_at(7).0;

/// The first field in which two lists' items differ, as
/// `list[index].field at t = time: bits vs bits` (`field` alone for the
/// unnamed list), else their lengths. `key` gives an item's virtual time
/// and the bits of the fields `fields` names, space-separated.
fn first<T, const N: usize>(
    list: &str,
    fields: &str,
    (a, b): (&[T], &[T]),
    key: impl Fn(&T) -> (f64, [u64; N]),
) -> Option<String> {
    let diff = a.iter().zip(b).enumerate().find_map(|(i, (x, y))| {
        let ((t, x), (_, y)) = (key(x), key(y));
        let f = (0..N).find(|&f| x[f] != y[f])?;
        let field = fields.split(' ').nth(f).unwrap_or_default();
        let item = match list {
            "" => String::new(),
            _ => format!("{list}[{i}]"),
        };
        let (x, y) = (x[f], y[f]);
        Some(format!("{item}{field} at t = {t}: {x:#x} vs {y:#x}"))
    });
    let (m, n) = (a.len(), b.len());
    diff.or_else(|| (m != n).then(|| format!("{list}: {m} vs {n} items")))
}

/// The first field in which two runs differ, with its index and virtual
/// time, or `None` when they agree bit for bit. Compared: every field of
/// every trace point and fault row, the report (end time, events, stop
/// reason), `global_updates`, `accuracy_variance`, `tier_updates`, the
/// per-client accuracies and the final weights — floats by their bits, so
/// a NaN equals the same NaN. Skipped: `speculation`, which depends on the
/// job cap by definition, and the trace's label.
pub fn first_difference(a: &Outcome, b: &Outcome) -> Option<String> {
    let end = a.report.end_time;
    let f32s = |v: &f32| (end, [v.to_bits().into()]);
    let id = |x: Option<usize>| x.map_or(u64::MAX, |x| x as u64);
    let tiers = |o: &Outcome| o.tier_updates.clone().unwrap_or_default();
    let points = (&a.trace.points[..], &b.trace.points[..]);
    let trace = first("trace.points", POINT, points, |p| {
        let t = p.time.to_bits();
        let (acc, loss) = (p.accuracy.to_bits().into(), p.loss.to_bits().into());
        (p.time, [t, p.round, acc, loss, p.up_bytes, p.down_bytes])
    });
    let faults = || {
        first("faults", ROW, (a.faults.events(), b.faults.events()), |e| {
            let (t, kind) = (e.time.to_bits(), e.kind as u64);
            (e.time, [t, kind, id(e.client), id(e.tier), e.detail])
        })
    };
    let scalars = || {
        first("", SCALARS, (&[a], &[b]), |o| {
            let r = &o.report;
            let (t, v) = (r.end_time.to_bits(), o.accuracy_variance.to_bits().into());
            (end, [t, r.events, r.reason as u64, o.global_updates, v])
        })
    };
    trace
        .or_else(faults)
        .or_else(scalars)
        .or_else(|| first("tier_updates", "", (&tiers(a), &tiers(b)), |&n| (end, [n])))
        .or_else(|| {
            let accs = (&a.per_client_accuracy[..], &b.per_client_accuracy[..]);
            first("per_client_accuracy", "", accs, f32s)
        })
        .or_else(|| {
            let weights = (&a.final_weights[..], &b.final_weights[..]);
            first("final_weights", "", weights, f32s)
        })
}

/// The fields `first_difference` names, in `key` order.
const POINT: &str = ".time .round .accuracy .loss .up_bytes .down_bytes";
const ROW: &str = ".time .kind .client .tier .detail";
const SCALARS: &str =
    "report.end_time report.events report.reason global_updates accuracy_variance";

/// What every run must satisfy whatever its scenario: monotone trace time,
/// round and byte counters, a time-ordered fault log, no retry without a
/// timeout before it, and no discard without a launch.
fn assert_invariants(label: &str, out: &Outcome) {
    let monotone = out.trace.points.windows(2).all(|w| {
        let (p, q) = (&w[0], &w[1]);
        p.time <= q.time
            && p.round <= q.round
            && p.up_bytes <= q.up_bytes
            && p.down_bytes <= q.down_bytes
    });
    assert!(monotone, "{label}: a trace point goes back");
    let rows = out.faults.events();
    let ordered = rows.windows(2).all(|w| w[0].time <= w[1].time);
    assert!(ordered, "{label}: the fault log goes back in time");
    let n = |kind| out.faults.count(kind);
    let (retries, timeouts) = (n(FaultKind::Retry), n(FaultKind::Timeout));
    assert!(retries <= timeouts, "{label}: {retries} retries");
    let spec = out.speculation;
    assert!(spec.discards <= spec.launches, "{label}: {spec:?}");
}

/// Runs `cfg` on `task` under [`BASE`] twice, then under each of
/// `settings` in turn, and fails with [`first_difference`]'s message at
/// the first run that differs from the first. A setting equal to [`BASE`]
/// is the rerun. The base run must also hold the invariants every run
/// holds. Returns the base run, so a row can assert that its scenario
/// still exercises the path it sweeps.
pub fn sweep(
    label: &str,
    task: &FedTask,
    cfg: &ExperimentConfig,
    settings: &[KernelCtx],
) -> Outcome {
    // Enough workers that cap 7 means eight threads, even on a small host.
    fedat_tensor::pool::ensure_workers(8);
    let task = Arc::new(task.clone());
    let run = |setting: KernelCtx| {
        let _overlay = ctx::install(setting);
        run_experiment_shared(&task, cfg)
    };
    let base = run(BASE);
    assert_invariants(label, &base);
    let again = first_difference(&base, &run(BASE));
    assert_eq!(again, None, "{label}: the rerun differs from the run");
    for &setting in settings.iter().filter(|&&s| s != BASE) {
        let diff = first_difference(&base, &run(setting));
        assert_eq!(diff, None, "{label}: {setting:?} differs from {BASE:?}");
    }
    base
}
