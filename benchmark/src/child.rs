//! One workload, one process: pin, reference runs, timed repetitions, and (with
//! `--trace 1`) the traced repetition and the layer probes.
//!
//! Order of work, and what each part feeds:
//!
//! 1. pin to the current CPU (before any thread exists);
//! 2. the inputs (for SOR also the sequential oracle), then two cold reference
//!    runs — profiling off (the base of `sim_vs_off_pct`) and fixed full-rate
//!    tracking (the reference TCM of `tcm_accuracy`);
//! 3. where one input set is not steady enough (`Spec::ensemble`), the same
//!    two references and one run of the workload's own configuration on each
//!    further input set derived from the seed;
//! 4. timed repetitions of the workload's own configuration for `--seconds`
//!    seconds; every end-to-end metric comes from these and from step 3, with
//!    tracing off;
//! 5. with `--trace 1`: one repetition with a `JournalSink` attached and spans
//!    around every call into a layer, one unpinned repetition, then the probes.
//!
//! Every run of the simulator is one operation. It fails on `Err`/panic, on a
//! wrong result, on a `DeterministicReport` (TCM included) that differs from
//! the first repetition's, and on any lost, shed or late OAL.

use std::path::PathBuf;
use std::time::Instant;

use jessy_core::{accuracy_abs, StackSamplingConfig};
use jessy_net::MsgClass;
use jessy_obs::{analyze_waste, to_json_lines, JournalSink};
use jessy_runtime::{DeterministicReport, MasterOutput, RunReport};
use serde::Value;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans::Spans;
use crate::stats::Summary;
use crate::sys::{self, CpuSet, Usage};
use crate::workloads::{run_once, Lane, Run, Spec, Workload};

pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub pin: bool,
    pub out_dir: PathBuf,
}

/// `(name, value)` in catalogue order.
type Metrics = Vec<(&'static str, f64)>;

/// Operations attempted and failed, with the reason for each failure.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failures: Vec<String>,
}

impl Ops {
    fn attempt(&mut self, what: &str, outcome: Result<Run, String>) -> Option<Run> {
        self.attempted += 1;
        match outcome.and_then(|run| fault_free(&run.report).map(|()| run)) {
            Ok(run) => Some(run),
            Err(e) => {
                self.fail(what, e);
                None
            }
        }
    }

    fn fail(&mut self, what: &str, why: String) {
        eprintln!("FAILED {what}: {why}");
        self.failures.push(format!("{what}: {why}"));
    }
}

/// These runs inject no faults, so any lost, shed or late OAL is a failure.
fn fault_free(r: &RunReport) -> Result<(), String> {
    if r.oal_post_failures != 0 || !r.lost_oals.is_empty() {
        let lost = r.oal_post_failures.max(r.lost_oals.len() as u64);
        return Err(format!("{lost} OAL batches lost"));
    }
    if !r.shed_oals.is_empty() {
        return Err(format!("{} OAL batches shed", r.shed_oals.len()));
    }
    match &r.master {
        Some(m) if m.late_oals != 0 => Err(format!("{} late OALs", m.late_oals)),
        _ => Ok(()),
    }
}

/// The host-independent view two repetitions must share. The traced repetition
/// records its OALs for replay; that log is not part of the comparison.
fn comparable(r: &RunReport) -> DeterministicReport {
    let mut det = r.deterministic();
    if let Some(m) = &mut det.master {
        m.oal_log.clear();
    }
    det
}

fn master(r: &RunReport) -> Result<&MasterOutput, String> {
    r.master
        .as_ref()
        .ok_or_else(|| "the run produced no master output".to_string())
}

/// Accesses per wall-clock second from `try_run` through `report`.
fn accesses_per_s(run: &Run) -> f64 {
    run.report.proto.accesses as f64 / run.phases.measured_s()
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// The five simulated metrics of one input set, in catalogue order: pure
/// functions of the inputs.
const SIMULATED: [&str; 5] = [
    "sim_exec_ms",
    "sim_vs_off_pct",
    "tcm_accuracy",
    "oal_pct_of_gos",
    "fabric_bytes_per_access",
];

fn simulated(on: &RunReport, off: &RunReport, full: &RunReport) -> Result<[f64; 5], String> {
    Ok([
        on.sim_exec_ms(),
        100.0 * on.sim_exec_ns as f64 / off.sim_exec_ns as f64,
        accuracy_abs(&master(on)?.tcm, &master(full)?.tcm),
        100.0 * on.net.oal_over_gos(),
        on.net.total_bytes() as f64 / on.proto.accesses as f64,
    ])
}

/// One further input set of the ensemble: its two references and one run of
/// the workload's own configuration.
struct Member {
    off: Run,
    full: Run,
    on: Run,
}

/// What the reference runs and the timed repetitions produced.
struct Measured {
    spec: Spec,
    /// The CPU this process is pinned to; `None` with `--no-pin`.
    cpu: Option<usize>,
    original_affinity: CpuSet,
    off: Run,
    full: Run,
    /// The timed repetitions; every one reproduces `reps[0]` exactly.
    reps: Vec<Run>,
    /// Input sets 1.. of the ensemble (input set 0 is `off`, `full`, `reps`).
    others: Vec<Member>,
    /// Hypervisor steal on the pinned CPU during each repetition attempted.
    rep_steal_ms: Vec<u64>,
    /// Resource use over the timed repetitions.
    usage: Usage,
    /// Process start to the first timed repetition.
    cold_start_s: f64,
}

impl Measured {
    fn throughput(&self) -> Vec<f64> {
        self.reps.iter().map(accesses_per_s).collect()
    }

    /// Whatever disturbs a repetition (mostly another tenant of the host) only
    /// ever slows it, so the fastest one is the steadiest estimate of the
    /// simulator's speed: over ten runs it spreads 1.6-8 % where the median of
    /// the same repetitions spreads 2.9-15 %.
    fn fastest(&self) -> f64 {
        self.throughput().into_iter().fold(0.0, f64::max)
    }

    fn median_of(&self, f: fn(&Run) -> f64) -> f64 {
        Summary::of(&self.reps.iter().map(f).collect::<Vec<_>>()).median
    }

    /// `try_build` + `init` seconds of every cluster this process set up.
    fn setup(&self) -> Summary {
        let others = self.others.iter().flat_map(|m| [&m.off, &m.full, &m.on]);
        let all = [&self.off, &self.full]
            .into_iter()
            .chain(others)
            .chain(&self.reps);
        Summary::of(&all.map(|r| r.phases.setup_s()).collect::<Vec<_>>())
    }

    /// Each simulated metric: its median over the ensemble's input sets.
    fn simulated(&self) -> Result<[f64; 5], String> {
        let first = (&self.reps[0], &self.off, &self.full);
        let others = self.others.iter().map(|m| (&m.on, &m.off, &m.full));
        let sets = std::iter::once(first)
            .chain(others)
            .map(|(on, off, full)| simulated(&on.report, &off.report, &full.report))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(std::array::from_fn(|i| {
            Summary::of(&sets.iter().map(|s| s[i]).collect::<Vec<_>>()).median
        }))
    }
}

/// Pin, run the references and the ensemble's further input sets, then repeat
/// the workload for the time budget.
fn measure(args: &ChildArgs, spans: &mut Spans, ops: &mut Ops) -> Result<Measured, String> {
    let started = Instant::now();
    sys::steady_heap();
    let original_affinity = sys::affinity()?;
    let cpu = if args.pin {
        // A run that could not pin is invalid, not silently unpinned.
        let pinned = sys::pin_to_current_cpu();
        Some(pinned.map_err(|e| format!("cannot pin (use --no-pin to diagnose): {e}"))?)
    } else {
        None
    };
    let (spec, _) = spans.time("benchmark.spec", |_| {
        Spec::new(args.workload, args.quick, args.seed)
    });
    let mut reference = |spec: &Spec, lane, span, what: &str| {
        let outcome = spans.time(span, |sp| run_once(spec, lane, None, sp)).0;
        ops.attempt(what, outcome)
            .ok_or_else(|| format!("the {what} failed"))
    };
    let off = reference(&spec, Lane::Off, "reference.off", "off-baseline run")?;
    let full = reference(
        &spec,
        Lane::FullRate,
        "reference.full_rate",
        "full-rate reference run",
    )?;
    // The per-layer metrics describe input set 0 alone.
    let members = if args.trace { 1 } else { spec.ensemble };
    let mut others = Vec::new();
    for member in 1..members {
        let seed = Spec::member_seed(args.seed, member);
        let spec = Spec::new(args.workload, args.quick, seed);
        others.push(Member {
            off: reference(
                &spec,
                Lane::Off,
                "ensemble.off",
                "ensemble off-baseline run",
            )?,
            full: reference(
                &spec,
                Lane::FullRate,
                "ensemble.full_rate",
                "ensemble full-rate run",
            )?,
            on: reference(&spec, Lane::On, "ensemble.on", "ensemble run")?,
        });
    }
    let cold_start_s = started.elapsed().as_secs_f64();

    // Trace mode needs the repetitions only as the untraced baseline.
    let (budget_s, min_reps) = match (args.quick, args.trace) {
        (true, _) => (0.0, 1),
        (false, true) => (args.seconds / 2.0, 3),
        (false, false) => (args.seconds, spec.min_reps),
    };
    let usage_before = Usage::now();
    let measuring = Instant::now();
    let mut reps: Vec<Run> = Vec::new();
    let mut rep_steal_ms = Vec::new();
    let mut first: Option<DeterministicReport> = None;
    while reps.len() < min_reps || measuring.elapsed().as_secs_f64() < budget_s {
        if ops.failures.len() >= 3 {
            let why = ops.failures.join("; ");
            return Err(format!("giving up after repeated failures: {why}"));
        }
        let steal_before = cpu.map_or(0, sys::steal_ms);
        let outcome = spans
            .time("rep", |sp| run_once(&spec, Lane::On, None, sp))
            .0;
        rep_steal_ms.push(cpu.map_or(0, sys::steal_ms) - steal_before);
        let Some(rep) = ops.attempt("timed repetition", outcome) else {
            continue;
        };
        let det = comparable(&rep.report);
        if *first.get_or_insert_with(|| det.clone()) == det {
            reps.push(rep);
        } else {
            let why = "DeterministicReport differs from repetition 1";
            ops.fail("timed repetition", why.into());
        }
    }
    let usage = Usage::now().since(&usage_before);
    Ok(Measured {
        spec,
        cpu,
        original_affinity,
        off,
        full,
        reps,
        others,
        rep_steal_ms,
        usage,
        cold_start_s,
    })
}

/// The end-to-end metrics: untraced repetitions only.
fn end_to_end(m: &Measured) -> Result<Metrics, String> {
    let mut metrics = vec![("host_accesses_per_s", m.fastest())];
    metrics.extend(SIMULATED.into_iter().zip(m.simulated()?));
    metrics.push(("host_peak_rss_mb", sys::peak_rss_mb()?));
    metrics.push(("setup_s", m.setup().median));
    Ok(metrics)
}

/// The per-layer metrics: counts from the untraced repetitions, times from one
/// traced repetition and from the probes, which are sized from that run's counts.
fn per_layer(m: &Measured, spans: &mut Spans, ops: &mut Ops) -> Result<Metrics, String> {
    let spec = &m.spec;
    let rep = &m.reps[0];
    let on = &rep.report;
    let on_master = master(on)?;
    let accesses = on.proto.accesses as f64;
    let run_wall = m.median_of(|r| r.phases.run_s);

    let sink = JournalSink::shared();
    let traced = spans.time("traced_rep", |sp| {
        run_once(spec, Lane::On, Some(sink.clone()), sp)
    });
    let traced = ops
        .attempt("traced repetition", traced.0)
        .ok_or("the traced repetition failed")?;
    if comparable(&traced.report) != comparable(on) {
        let why = "DeterministicReport differs from repetition 1";
        ops.fail("traced repetition", why.into());
    }
    let (events, _) = spans.time("obs.sorted_events", |_| sink.sorted_events());
    let (lines, export_s) = spans.time("obs.to_json_lines", |_| to_json_lines(&events));
    let (_, analyze_s) = spans.time("obs.analyze_waste", |_| analyze_waste(&events));
    let reference_tcm = &master(&m.full.report)?.tcm;
    spans.time("core.accuracy_abs", |_| {
        accuracy_abs(&on_master.tcm, reference_tcm)
    });
    let n_events = events.len().max(1) as f64;
    drop((events, lines));

    // One repetition free to roam the cores: how much pinning buys.
    let mut unpinned_slowdown = 0.0;
    let roaming_cpus: u32 = m.original_affinity.iter().map(|w| w.count_ones()).sum();
    if let (Some(cpu), true) = (m.cpu, roaming_cpus > 1) {
        sys::set_affinity(&m.original_affinity)?;
        let outcome = spans
            .time("unpinned_rep", |sp| run_once(spec, Lane::On, None, sp))
            .0;
        sys::set_affinity(&sys::single_cpu(cpu))?;
        if let Some(run) = ops.attempt("unpinned repetition", outcome) {
            unpinned_slowdown = run.phases.run_s / run_wall;
        }
    }

    // The same problem on one carrier: what hand-off costs end to end.
    let vs_1t = match spec.single_carrier_twin() {
        Some(_) if spec.threads == 1 => 1.0,
        Some(twin) => {
            let outcome = spans.time("single_carrier_rep", |sp| {
                run_once(&twin, Lane::On, None, sp)
            });
            ops.attempt("single-carrier repetition", outcome.0)
                .map_or(0.0, |run| accesses_per_s(&run) / m.fastest())
        }
        None => 0.0,
    };

    // Probes, sized from the traced run's own counts.
    let t = &traced.report;
    let traced_master = master(t)?;
    let data = t.net.class(MsgClass::ObjData);
    let header = MsgClass::ObjData.header_bytes() as u64;
    let payload_bytes = (data.bytes / data.messages.max(1))
        .saturating_sub(header)
        .max(8);
    let words = (payload_bytes / 8) as u32;
    let n_acc = t.proto.accesses;
    let (handoff, _) = spans.time("probe.net.executor", |_| {
        [1, 8, 64].map(|carriers| probes::executor_handoff(carriers, n_acc))
    });
    let (send_ns, _) = spans.time("probe.net.fabric", |_| {
        probes::fabric_send_ns(t.net.total_messages(), payload_bytes as usize)
    });
    let (post_ns, _) = spans.time("probe.net.mailbox", |_| {
        probes::mailbox_post_ns(traced_master.oals_ingested)
    });
    let (gos, _) = spans.time("probe.gos", |_| probes::gos_access(n_acc, words));
    let (on_access_ns, _) = spans.time("probe.core.profiler", |_| {
        probes::profiler_on_access_ns(n_acc, words, spec.profiler())
    });
    let ipr = u64::from(spec.profiler().intervals_per_round);
    let (tcm_round_ms, _) = spans.time("probe.core.tcm", |_| {
        probes::tcm_replay_round_ms(&traced_master.oal_log, spec.threads, ipr)
    });
    let (tcm_n1024_ms, _) =
        spans.time("probe.core.tcm.n1024", |_| probes::tcm_synthetic_round_ms());
    let stack_config = spec.profiler().stack.unwrap_or(StackSamplingConfig {
        gap_ns: 0,
        lazy_extraction: true,
    });
    let (sample_ns, _) = spans.time("probe.stack", |_| {
        probes::stack_sample_ns(traced.stack_samples, stack_config)
    });

    // Hand-off time in one repetition. With several carriers a yield that
    // re-picks its own task does not park, so true hand-offs are counted by the
    // context switches the run caused, converted at the rate the matching probe
    // saw. One carrier never parks: every access pays the self re-pick.
    let handoff_here = match spec.threads {
        1 => handoff[0],
        2..=16 => handoff[1],
        _ => handoff[2],
    };
    let ctx_switches = m.usage.ctx_switches as f64 / m.reps.len() as f64;
    let handoffs = if spec.threads == 1 {
        accesses
    } else {
        ctx_switches / handoff_here.ctx_switches_per_yield
    };
    let handoff_s = 1e-9 * handoffs * handoff_here.ns_per_yield;
    let p = &on.proto;
    let traps = (p.real_faults + p.false_invalid_faults) as f64;
    let explained_s = 1e-9
        * ((accesses - traps) * (gos.home_hit_ns + gos.cache_hit_ns) / 2.0
            + traps * gos.armed_trap_ns
            + accesses * on_access_ns
            + on.net.total_messages() as f64 * send_ns
            + on_master.oals_ingested as f64 * post_ns
            + p.diffs_flushed as f64 * gos.write_diff_ns
            + rep.stack_samples as f64 * sample_ns)
        + handoff_s
        + on_master.rounds as f64 * tcm_round_ms / 1e3;
    let placement = &on_master.placement;
    let vetoes = placement.vetoed_gain
        + placement.vetoed_cooldown
        + placement.vetoed_cost
        + placement.vetoed_budget;
    let full_rate_entries = m.full.report.profiler.oal_entries.max(1) as f64;
    let cpu_s = m.usage.user_s + m.usage.sys_s;

    Ok(vec![
        ("runtime.build_ms", ms(m.median_of(|r| r.phases.build_s))),
        ("workloads.setup_ms", ms(m.median_of(|r| r.phases.init_s))),
        ("runtime.run_ms", ms(run_wall)),
        ("runtime.report_ms", ms(m.median_of(|r| r.phases.report_s))),
        ("workloads.accesses", accesses),
        ("net.executor.handoff_ns.t1", handoff[0].ns_per_yield),
        ("net.executor.handoff_ns.t8", handoff[1].ns_per_yield),
        ("net.executor.handoff_ns.t64", handoff[2].ns_per_yield),
        ("net.executor.est_share_pct", 100.0 * handoff_s / run_wall),
        ("net.executor.vs_1t_x", vs_1t),
        ("net.executor.sys_share_pct", 100.0 * m.usage.sys_s / cpu_s),
        (
            "net.executor.ctx_switches_per_access",
            ctx_switches / accesses,
        ),
        ("net.executor.unpinned_slowdown_x", unpinned_slowdown),
        (
            "net.fabric.msgs_per_access",
            on.net.total_messages() as f64 / accesses,
        ),
        ("net.fabric.bytes.gos", on.net.gos_bytes() as f64),
        ("net.fabric.bytes.oal", on.net.oal_bytes() as f64),
        (
            "net.fabric.bytes.tcm",
            on.net.class(MsgClass::TcmPartial).bytes as f64,
        ),
        (
            "net.fabric.bytes.migration",
            on.net.migration_bytes() as f64,
        ),
        ("net.fabric.send_ns", send_ns),
        ("net.mailbox.post_ns", post_ns),
        ("gos.access_ns.home_hit", gos.home_hit_ns),
        ("gos.access_ns.cache_hit", gos.cache_hit_ns),
        ("gos.access_ns.armed_trap", gos.armed_trap_ns),
        ("gos.write_diff_ns", gos.write_diff_ns),
        (
            "gos.real_faults_per_kacc",
            1e3 * p.real_faults as f64 / accesses,
        ),
        (
            "gos.false_invalid_faults_per_kacc",
            1e3 * p.false_invalid_faults as f64 / accesses,
        ),
        ("gos.diffs_flushed", p.diffs_flushed as f64),
        ("gos.notices_applied", p.notices_applied as f64),
        ("core.profiler.on_access_ns", on_access_ns),
        (
            "core.profiler.host_share_pct",
            100.0 * (1.0 - m.off.phases.run_s / run_wall),
        ),
        ("core.profiler.oal_entries", on.profiler.oal_entries as f64),
        (
            "core.profiler.sampled_pct",
            100.0 * on.profiler.oal_entries as f64 / full_rate_entries,
        ),
        ("core.tcm.round_ms", tcm_round_ms),
        ("core.tcm.round_ms.n1024", tcm_n1024_ms),
        (
            "core.adaptive.rate_changes",
            on_master.rate_changes.len() as f64,
        ),
        (
            "core.adaptive.converged_classes",
            on_master.converged_classes as f64,
        ),
        (
            "core.adaptive.drift_reactivations",
            on_master.drift_reactivations as f64,
        ),
        ("stack.samples", rep.stack_samples as f64),
        ("stack.sample_ns", sample_ns),
        (
            "core.sticky.resolved_bytes",
            rep.sticky_resolved_bytes as f64,
        ),
        (
            "runtime.migration.thread_moves",
            placement.applied_migrations as f64,
        ),
        (
            "runtime.migration.home_moves",
            placement.homes_migrated as f64,
        ),
        ("runtime.migration.bytes", placement.migrated_bytes as f64),
        ("runtime.balancer.vetoes", vetoes as f64),
        ("runtime.master.rounds", on_master.rounds as f64),
        ("runtime.master.late_oals", on_master.late_oals as f64),
        (
            "runtime.master.min_round_coverage",
            on_master.round_coverage.iter().copied().fold(1.0, f64::min),
        ),
        ("obs.journal.events_per_access", n_events / n_acc as f64),
        (
            "obs.journal.overhead_pct",
            100.0 * (traced.phases.run_s / run_wall - 1.0),
        ),
        ("obs.export.ns_per_event", export_s * 1e9 / n_events),
        ("obs.analyze.ms", ms(analyze_s)),
        (
            "layers.unattributed_pct",
            100.0 * (1.0 - explained_s / run_wall),
        ),
    ])
}

/// Run one workload and print its result; `Err` is a fatal error (no result).
/// Failed operations are part of the result (`correct: false`, `failed` > 0).
pub fn run(args: &ChildArgs) -> Result<(), String> {
    let mut spans = Spans::new();
    let mut ops = Ops::default();
    let m = measure(args, &mut spans, &mut ops)?;

    // Name, unit and whether the value must be positive, in catalogue order.
    let (reported, catalogue): (Metrics, Vec<(&str, &str, bool)>) = if args.trace {
        let catalogue = PER_LAYER.iter().map(|c| (c.name, c.unit, false));
        (per_layer(&m, &mut spans, &mut ops)?, catalogue.collect())
    } else {
        let catalogue = END_TO_END.iter().map(|c| (c.name, c.unit, true));
        (end_to_end(&m)?, catalogue.collect())
    };
    if reported.len() != catalogue.len() {
        return Err("the reported metrics do not match the catalogue".into());
    }
    let mut metrics = Vec::new();
    for ((name, value), (expected, unit, positive)) in reported.iter().zip(&catalogue) {
        if name != expected {
            return Err(format!(
                "metric {name} reported where the catalogue has {expected}"
            ));
        }
        if !value.is_finite() || (*positive && *value <= 0.0) {
            ops.fail("metric", format!("{name} = {value}"));
        }
        let entry = vec![
            ("value".into(), Value::Float(*value)),
            ("unit".into(), Value::Str(unit.to_string())),
        ];
        metrics.push((name.to_string(), Value::Object(entry)));
    }

    let name = m.spec.workload.name();
    let throughput = Summary::of(&m.throughput());
    let setup = m.setup();
    println!(
        "workload {name} ({}; {} nodes, {} threads) seed {} input sets {} pinned {} cpu {} reps {} attempted {} failed {}",
        m.spec.size,
        m.spec.nodes,
        m.spec.threads,
        args.seed,
        1 + m.others.len(),
        m.cpu.is_some(),
        m.cpu.map_or("-".to_string(), |c| c.to_string()),
        m.reps.len(),
        ops.attempted,
        ops.failures.len(),
    );
    println!(
        "  accesses/s over {} reps: fastest {:.0}, quartiles {:.0} / {:.0} / {:.0} (spread {:.2} %); cold start {:.3} s",
        throughput.n,
        m.fastest(),
        throughput.q1,
        throughput.median,
        throughput.q3,
        100.0 * throughput.spread(),
        m.cold_start_s
    );
    for ((name, value), (_, unit, _)) in reported.iter().zip(&catalogue) {
        println!("  {name:<40} {value:>16.6} {unit}");
    }

    let write = |file: String, body: String| {
        let path = args.out_dir.join(file);
        println!("  writing {}", path.display());
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
    };
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    if args.trace {
        write(format!("trace-{name}.json"), spans.to_chrome_trace(name))?;
    }
    let floats = |values: Vec<f64>| Value::Array(values.into_iter().map(Value::Float).collect());
    // CPUs this process could use before it pinned itself.
    let host_cpus: u32 = m.original_affinity.iter().map(|w| w.count_ones()).sum();
    let detail = Value::Object(vec![
        ("workload".into(), Value::Str(name.into())),
        ("size".into(), Value::Str(m.spec.size.clone())),
        ("seed".into(), Value::UInt(args.seed)),
        ("input_sets".into(), Value::UInt(1 + m.others.len() as u64)),
        ("pinned".into(), Value::Bool(m.cpu.is_some())),
        (
            "cpu".into(),
            m.cpu.map_or(Value::Null, |c| Value::UInt(c as u64)),
        ),
        ("host_cpus".into(), Value::UInt(u64::from(host_cpus))),
        ("reps".into(), Value::UInt(m.reps.len() as u64)),
        ("rep_accesses_per_s".into(), floats(m.throughput())),
        (
            "rep_accesses_per_s_quartiles".into(),
            floats(vec![throughput.q1, throughput.median, throughput.q3]),
        ),
        (
            "rep_steal_ms".into(),
            Value::Array(m.rep_steal_ms.iter().map(|ms| Value::UInt(*ms)).collect()),
        ),
        (
            "setup_s_quartiles".into(),
            floats(vec![setup.q1, setup.median, setup.q3]),
        ),
        ("setup_samples".into(), Value::UInt(setup.n as u64)),
        ("cold_start_s".into(), Value::Float(m.cold_start_s)),
        (
            "failures".into(),
            Value::Array(ops.failures.iter().cloned().map(Value::Str).collect()),
        ),
        ("metrics".into(), Value::Object(metrics.clone())),
    ]);
    let kind = if args.trace { "layers" } else { "end_to_end" };
    let body = serde_json::to_string_pretty(&detail).expect("a Value tree always serializes");
    write(format!("{name}-{kind}.json"), body + "\n")?;

    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(ops.failures.is_empty())),
        ("attempted".into(), Value::UInt(ops.attempted)),
        ("failed".into(), Value::UInt(ops.failures.len() as u64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("a Value tree always serializes")
    );
    Ok(())
}
