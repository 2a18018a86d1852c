//! `jessy-cli` — run the simulated DJVM with the profiler from the command line.
//!
//! ```text
//! jessy-cli run --workload bh --nodes 8 --threads 16 --rate 4x
//! jessy-cli run --workload sor --scale small --rate full --json
//! jessy-cli run --workload water --adaptive 0.05 --rebalance 4
//! jessy-cli run --workload sor --adaptive 0.05 --overhead-budget 0.02
//! jessy-cli run --workload bh --mailbox-capacity 8
//! jessy-cli run --workload sor --trace trace.json --journal run.jsonl
//! jessy-cli heatmap --workload bh --threads 16
//! jessy-cli info
//! ```
//!
//! `--trace FILE` writes the run's event journal in Chrome `trace_event` format
//! (load it at `chrome://tracing` or <https://ui.perfetto.dev>); `--journal FILE`
//! writes the raw journal as JSON lines, one event per line in the canonical
//! deterministic order. Both apply to `run` only; one that cannot be written
//! makes `run` exit 1 after printing the report. A journaled run also prints
//! the journal's drift spans and per-class waste; a phase-shift run is always
//! journaled, because its re-convergence lag is read off the journal.
//!
//! Argument parsing is deliberately dependency-free (the workspace's crate policy);
//! see `parse_args` below.

use std::process::ExitCode;

use jessy::prelude::*;

#[derive(Debug, Clone, PartialEq)]
struct Options {
    command: Command,
    workload: WorkloadKind,
    nodes: usize,
    threads: usize,
    rate: RateOpt,
    scale: WorkloadPreset,
    adaptive: Option<f64>,
    rebalance: Option<u64>,
    rebalance_every: Option<u64>,
    cooldown_rounds: Option<u64>,
    migration_budget_bytes: Option<u64>,
    overhead_budget: Option<f64>,
    mailbox_capacity: Option<usize>,
    prefetch_depth: u32,
    json: bool,
    trace: Option<String>,
    journal: Option<String>,
    exec_seed: u64,
    exec_jitter: u64,
    drift_threshold: Option<f64>,
    flip_round: Option<usize>,
    zipf_s: Option<f64>,
    session_len: Option<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Command {
    Run,
    Heatmap,
    Info,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RateOpt {
    Off,
    Nx(u32),
    Full,
    Trace,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            command: Command::Run,
            workload: WorkloadKind::Sor,
            nodes: 8,
            threads: 8,
            rate: RateOpt::Nx(1),
            scale: WorkloadPreset::Small,
            adaptive: None,
            rebalance: None,
            rebalance_every: None,
            cooldown_rounds: None,
            migration_budget_bytes: None,
            overhead_budget: None,
            mailbox_capacity: None,
            prefetch_depth: 0,
            json: false,
            trace: None,
            journal: None,
            exec_seed: 0,
            exec_jitter: 0,
            drift_threshold: None,
            flip_round: None,
            zipf_s: None,
            session_len: None,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter().peekable();
    let Some(cmd) = it.next() else {
        return Err("missing command (run | heatmap | info)".into());
    };
    opts.command = match cmd.as_str() {
        "run" => Command::Run,
        "heatmap" => Command::Heatmap,
        "info" => Command::Info,
        other => return Err(format!("unknown command {other:?} (run | heatmap | info)")),
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--workload" | "-w" => {
                opts.workload = match value(flag)?.to_lowercase().as_str() {
                    "sor" => WorkloadKind::Sor,
                    "bh" | "barnes-hut" | "barneshut" => WorkloadKind::BarnesHut,
                    "water" | "water-spatial" => WorkloadKind::WaterSpatial,
                    "lu" => WorkloadKind::Lu,
                    "phase_shift" | "phase-shift" | "phase" => WorkloadKind::PhaseShift,
                    "sessions" | "zipf" => WorkloadKind::Sessions,
                    other => return Err(format!("unknown workload {other:?}")),
                }
            }
            "--nodes" | "-n" => {
                opts.nodes = value(flag)?.parse().map_err(|e| format!("--nodes: {e}"))?
            }
            "--threads" | "-t" => {
                opts.threads = value(flag)?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--rate" | "-r" => {
                let v = value(flag)?.to_lowercase();
                opts.rate = match v.as_str() {
                    "off" | "none" => RateOpt::Off,
                    "full" => RateOpt::Full,
                    "trace" | "ground-truth" => RateOpt::Trace,
                    other => {
                        let n = other
                            .strip_suffix('x')
                            .and_then(|n| n.parse::<u32>().ok())
                            .ok_or_else(|| format!("bad rate {other:?} (e.g. 4x, full, off)"))?;
                        RateOpt::Nx(n)
                    }
                }
            }
            "--scale" | "-s" => {
                opts.scale = match value(flag)?.to_lowercase().as_str() {
                    "paper" => WorkloadPreset::Paper,
                    "small" => WorkloadPreset::Small,
                    other => return Err(format!("unknown scale {other:?} (paper | small)")),
                }
            }
            "--adaptive" => {
                opts.adaptive =
                    Some(value(flag)?.parse().map_err(|e| format!("--adaptive: {e}"))?)
            }
            "--rebalance" => {
                opts.rebalance =
                    Some(value(flag)?.parse().map_err(|e| format!("--rebalance: {e}"))?)
            }
            "--rebalance-every" => {
                opts.rebalance_every = Some(
                    value(flag)?
                        .parse()
                        .map_err(|e| format!("--rebalance-every: {e}"))?,
                )
            }
            "--cooldown-rounds" => {
                opts.cooldown_rounds = Some(
                    value(flag)?
                        .parse()
                        .map_err(|e| format!("--cooldown-rounds: {e}"))?,
                )
            }
            "--migration-budget-bytes" => {
                opts.migration_budget_bytes = Some(
                    value(flag)?
                        .parse()
                        .map_err(|e| format!("--migration-budget-bytes: {e}"))?,
                )
            }
            "--overhead-budget" => {
                opts.overhead_budget = Some(
                    value(flag)?
                        .parse()
                        .map_err(|e| format!("--overhead-budget: {e}"))?,
                )
            }
            "--mailbox-capacity" => {
                opts.mailbox_capacity = Some(
                    value(flag)?
                        .parse()
                        .map_err(|e| format!("--mailbox-capacity: {e}"))?,
                )
            }
            "--prefetch-depth" => {
                opts.prefetch_depth = value(flag)?
                    .parse()
                    .map_err(|e| format!("--prefetch-depth: {e}"))?
            }
            "--json" => opts.json = true,
            "--trace" => opts.trace = Some(value(flag)?),
            "--journal" => opts.journal = Some(value(flag)?),
            "--exec-seed" => {
                opts.exec_seed = value(flag)?
                    .parse()
                    .map_err(|e| format!("--exec-seed: {e}"))?
            }
            "--exec-jitter" => {
                opts.exec_jitter = value(flag)?
                    .parse()
                    .map_err(|e| format!("--exec-jitter: {e}"))?
            }
            "--drift-threshold" => {
                opts.drift_threshold = Some(
                    value(flag)?
                        .parse()
                        .map_err(|e| format!("--drift-threshold: {e}"))?,
                )
            }
            "--flip-round" => {
                opts.flip_round = Some(
                    value(flag)?
                        .parse()
                        .map_err(|e| format!("--flip-round: {e}"))?,
                )
            }
            "--zipf-s" => {
                opts.zipf_s = Some(value(flag)?.parse().map_err(|e| format!("--zipf-s: {e}"))?)
            }
            "--session-len" => {
                opts.session_len = Some(
                    value(flag)?
                        .parse()
                        .map_err(|e| format!("--session-len: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if opts.nodes == 0 || opts.threads == 0 {
        return Err("--nodes and --threads must be positive".into());
    }
    if opts.rebalance.is_some() && matches!(opts.rate, RateOpt::Off) {
        return Err("--rebalance needs correlation tracking (pick a --rate)".into());
    }
    if opts.rebalance.is_some() && opts.nodes < 2 {
        return Err("--rebalance on a single node has nowhere to move threads; use --nodes >= 2".into());
    }
    if opts.rebalance_every == Some(0) {
        return Err("--rebalance-every 0 would re-plan on no cadence; use >= 1".into());
    }
    if opts.rebalance.is_none()
        && (opts.rebalance_every.is_some()
            || opts.cooldown_rounds.is_some()
            || opts.migration_budget_bytes.is_some())
    {
        return Err(
            "--rebalance-every / --cooldown-rounds / --migration-budget-bytes tune the \
             placement engine; also pass --rebalance ROUNDS"
                .into(),
        );
    }
    if opts.command == Command::Heatmap && (opts.trace.is_some() || opts.journal.is_some()) {
        return Err("--trace / --journal only apply to the run command".into());
    }
    if opts.flip_round.is_some() && opts.workload != WorkloadKind::PhaseShift {
        return Err("--flip-round only applies to --workload phase_shift".into());
    }
    if (opts.zipf_s.is_some() || opts.session_len.is_some())
        && opts.workload != WorkloadKind::Sessions
    {
        return Err("--zipf-s / --session-len only apply to --workload sessions".into());
    }
    if let Some(s) = opts.zipf_s {
        if !s.is_finite() || s < 0.0 {
            return Err(format!("--zipf-s {s} is not a nonnegative exponent"));
        }
    }
    if opts.session_len == Some(0) {
        return Err("--session-len 0 would serve empty sessions; use >= 1".into());
    }
    // Every rule on a config field lives in `ProfilerConfig::validate`; the
    // cluster builder would panic on what it rejects.
    profiler_config(&opts)
        .validate()
        .map_err(|e| e.to_string())?;
    Ok(opts)
}

fn profiler_config(opts: &Options) -> ProfilerConfig {
    let mut config = match opts.rate {
        RateOpt::Off => ProfilerConfig::disabled(),
        RateOpt::Nx(n) => ProfilerConfig::tracking_at(SamplingRate::NX(n)),
        RateOpt::Full => ProfilerConfig::tracking_at(SamplingRate::Full),
        RateOpt::Trace => ProfilerConfig::ground_truth(),
    };
    config.adaptive_threshold = opts.adaptive;
    config.drift_threshold = opts.drift_threshold;
    config.overhead_budget = opts.overhead_budget;
    config.oal_mailbox_capacity = opts.mailbox_capacity;
    config
}

fn build_cluster(opts: &Options) -> (Cluster, Option<std::sync::Arc<JournalSink>>) {
    let mut builder = Cluster::builder()
        .nodes(opts.nodes)
        .threads(opts.threads)
        .prefetch_depth(opts.prefetch_depth)
        .exec_seed(opts.exec_seed)
        .exec_jitter(opts.exec_jitter)
        .profiler(profiler_config(opts));
    if let Some(rounds) = opts.rebalance {
        let mut rb = jessy::runtime::RebalanceConfig {
            after_rounds: rounds,
            every_rounds: opts.rebalance_every,
            ..Default::default()
        };
        if let Some(c) = opts.cooldown_rounds {
            rb.cooldown_rounds = c;
        }
        if let Some(b) = opts.migration_budget_bytes {
            rb.migration_budget_bytes = Some(b as f64);
        }
        builder = builder.rebalance(rb);
    }
    // Phase-shift's re-convergence lag is read off the journal.
    let journaled = opts.workload == WorkloadKind::PhaseShift;
    let sink = if journaled || opts.trace.is_some() || opts.journal.is_some() {
        let sink = JournalSink::shared();
        builder = builder.trace(sink.clone());
        Some(sink)
    } else {
        None
    };
    (builder.build(), sink)
}

/// Write the journal exports requested on the command line; false if any
/// requested file could not be written.
fn export_journal(opts: &Options, sink: &JournalSink) -> bool {
    let events = sink.sorted_events();
    let write = |path: &String, what: &str, contents: String| match std::fs::write(path, contents) {
        Ok(()) => {
            eprintln!("wrote {what} ({} events) to {path}", events.len());
            true
        }
        Err(e) => {
            eprintln!("error: cannot write {path}: {e}");
            false
        }
    };
    let trace_ok = opts
        .trace
        .as_ref()
        .is_none_or(|path| write(path, "Chrome trace", to_chrome_trace(&events)));
    let journal_ok = opts
        .journal
        .as_ref()
        .is_none_or(|path| write(path, "journal", to_json_lines(&events)));
    trace_ok && journal_ok
}

fn cmd_info() {
    println!("workload presets (Table I):");
    for kind in WorkloadKind::ALL {
        for preset in [WorkloadPreset::Paper, WorkloadPreset::Small] {
            println!(
                "  {:<13} {:<6} {:>14}  rounds {:>2}  {:<7}  {}",
                kind.name(),
                format!("{preset:?}").to_lowercase(),
                kind.data_set(preset),
                kind.rounds(preset),
                kind.granularity(),
                kind.object_size()
            );
        }
    }
    println!("\nsuite extensions:");
    for kind in [WorkloadKind::Lu, WorkloadKind::PhaseShift, WorkloadKind::Sessions] {
        for preset in [WorkloadPreset::Paper, WorkloadPreset::Small] {
            println!(
                "  {:<13} {:<6} {:>14}  rounds {:>2}  {:<16}  {}",
                kind.name(),
                format!("{preset:?}").to_lowercase(),
                kind.data_set(preset),
                kind.rounds(preset),
                kind.granularity(),
                kind.object_size()
            );
        }
    }
}

/// The effective phase-shift config: preset at `--scale`, `--flip-round` override.
fn phase_cfg(opts: &Options) -> jessy::workloads::phase_shift::PhaseShiftConfig {
    use jessy::workloads::phase_shift::PhaseShiftConfig;
    let mut cfg = match opts.scale {
        WorkloadPreset::Paper => PhaseShiftConfig::paper(),
        WorkloadPreset::Small => PhaseShiftConfig::small(),
    };
    if let Some(f) = opts.flip_round {
        cfg.flip_round = f;
    }
    cfg
}

/// The effective sessions config: preset at `--scale`, skew/length overrides.
fn sessions_cfg(opts: &Options) -> jessy::workloads::sessions::SessionsConfig {
    use jessy::workloads::sessions::SessionsConfig;
    let mut cfg = match opts.scale {
        WorkloadPreset::Paper => SessionsConfig::paper(),
        WorkloadPreset::Small => SessionsConfig::small(),
    };
    if let Some(s) = opts.zipf_s {
        cfg.zipf_s = s;
    }
    if let Some(l) = opts.session_len {
        cfg.ops_per_session = l;
    }
    cfg
}

/// Run the selected workload, honoring the drift-era per-workload overrides.
fn run_workload(cluster: &mut Cluster, opts: &Options) -> RunReport {
    match opts.workload {
        WorkloadKind::PhaseShift => {
            jessy::workloads::phase_shift::run_on(cluster, phase_cfg(opts))
        }
        WorkloadKind::Sessions => jessy::workloads::sessions::run_on(cluster, sessions_cfg(opts)),
        _ => opts.workload.run_on(cluster, opts.scale),
    }
}

/// Run the workload and print its report; false if a requested export failed.
fn cmd_run(opts: &Options) -> bool {
    let (mut cluster, sink) = build_cluster(opts);
    eprintln!(
        "running {} ({:?}) on {} nodes / {} threads, rate {:?}…",
        opts.workload.name(),
        opts.scale,
        opts.nodes,
        opts.threads,
        opts.rate
    );
    let report = run_workload(&mut cluster, opts);
    let exported = sink.as_ref().is_none_or(|sink| export_journal(opts, sink));
    if opts.json {
        println!("{}", serde_json::to_string_pretty(&report).expect("report serializes"));
        return exported;
    }
    let events = sink.as_ref().map_or_else(Vec::new, |sink| sink.sorted_events());
    println!("simulated execution : {:>12.2} ms", report.sim_exec_ms());
    println!("wall clock          : {:>12.2} ms", report.wall_ns as f64 / 1e6);
    // What the simulator paid, not the simulated system: text summary only —
    // `RunReport` must not move with how the executor reaches a schedule.
    let handoffs = cluster.shared().exec.handoffs();
    println!(
        "executor hand-offs  : {:>12} ({:.3} per access)",
        handoffs,
        handoffs as f64 / report.proto.accesses.max(1) as f64
    );
    println!("accesses            : {:>12}", report.proto.accesses);
    println!("object faults       : {:>12}", report.proto.real_faults);
    println!("correlation faults  : {:>12}", report.proto.false_invalid_faults);
    println!("objects prefetched  : {:>12}", report.proto.objects_prefetched);
    println!("GOS volume          : {:>12.1} KB", report.gos_kb());
    println!("OAL volume          : {:>12.1} KB ({:.2}% of GOS)", report.oal_kb(), report.net.oal_over_gos() * 100.0);
    if !report.shed_oals.is_empty() {
        println!("OALs shed           : {:>12}", report.shed_oals.len());
    }
    if report.oal_post_failures > 0 {
        println!("OALs lost at post   : {:>12}", report.oal_post_failures);
    }
    if let Some(master) = &report.master {
        println!("TCM rounds          : {:>12}", master.rounds);
        println!("TCM build (real)    : {:>12.2} ms", master.tcm_build_real_ns as f64 / 1e6);
        if master.budget_over_rounds > 0 {
            println!(
                "budget ladder       : {:>12} rungs ({} rounds over budget)",
                master.budget_degrades, master.budget_over_rounds
            );
        }
        if master.drift_reactivations > 0 {
            println!("drift reactivations : {:>12}", master.drift_reactivations);
        }
        if opts.workload == WorkloadKind::PhaseShift {
            let cfg = phase_cfg(opts);
            println!(
                "re-convergence lag  : {:>12} rounds after the flip (round {})",
                jessy::workloads::phase_shift::reconvergence_lag(&events, cfg.flip_round),
                cfg.flip_round
            );
        }
        for ch in &master.rate_changes {
            println!(
                "  rate change: {} -> {} (round {}, distance {:.3}{})",
                ch.class_name,
                ch.new_rate,
                ch.round,
                ch.relative_distance,
                if ch.drift { ", drift" } else { "" }
            );
        }
        for m in &master.planned_migrations {
            println!(
                "  planned migration: {} {} -> {} (gain {:.0} B)",
                m.thread, m.from, m.to, m.gain_bytes
            );
        }
        let p = &master.placement;
        if p.plans > 0 {
            println!(
                "placement engine    : {:>12} plans, {} directives, {} applied ({:.1} KB moved)",
                p.plans,
                p.directives,
                p.applied_migrations,
                p.migrated_bytes as f64 / 1024.0
            );
            if p.homes_repaired > 0 {
                println!(
                    "  homes: {} repaired by the master ({:.1} KB)",
                    p.homes_repaired,
                    p.repaired_bytes as f64 / 1024.0
                );
            }
            let vetoes = p.vetoed_gain + p.vetoed_cooldown + p.vetoed_cost + p.vetoed_budget;
            if vetoes > 0 {
                println!(
                    "  vetoes: {} gain, {} cooldown, {} cost, {} budget",
                    p.vetoed_gain, p.vetoed_cooldown, p.vetoed_cost, p.vetoed_budget
                );
            }
            if p.fenced_directives > 0 {
                println!("  stale directives fenced: {}", p.fenced_directives);
            }
        }
        println!("\nthread correlation map:");
        print!("{}", master.tcm.ascii_heatmap());
    }
    if sink.is_some() {
        let spans = jessy::obs::round_series(&events).drift;
        if !spans.is_empty() {
            println!("\ndrift spans (journal):");
            for s in &spans {
                match s.lag() {
                    Some(lag) => println!(
                        "  {} drifted at round {} (distance {:.3}), re-converged after {} rounds",
                        s.class, s.drift_round, s.relative_distance, lag
                    ),
                    None => println!(
                        "  {} drifted at round {} (distance {:.3}), never re-converged",
                        s.class, s.drift_round, s.relative_distance
                    ),
                }
            }
        }
        let waste = jessy::obs::analyze_waste(&events);
        if !waste.classes.is_empty() {
            println!("\nper-class waste (journal):");
            println!("  class     faults     fault KB   replicas  dup fetch     dup KB  false-inv");
            for c in &waste.classes {
                println!(
                    "  {:>5} {:>10} {:>12.1} {:>10} {:>10} {:>10.1} {:>10}",
                    c.class,
                    c.faults,
                    c.fault_bytes as f64 / 1024.0,
                    c.replica_objects,
                    c.duplicate_fetches,
                    c.duplicate_bytes as f64 / 1024.0,
                    c.false_invalid_traps
                );
            }
            println!(
                "  totals: {:.1} KB faulted, {:.1} KB duplicate refetches, {} false-invalid traps",
                waste.total_fault_bytes as f64 / 1024.0,
                waste.total_duplicate_bytes as f64 / 1024.0,
                waste.total_false_invalid_traps
            );
        }
    }
    exported
}

fn cmd_heatmap(opts: &Options) {
    let mut config = ProfilerConfig::ground_truth();
    config.record_oals = true;
    let mut cluster = Cluster::builder()
        .nodes(opts.nodes)
        .threads(opts.threads)
        .profiler(config)
        .build();
    let report = opts.workload.run_on(&mut cluster, opts.scale);
    let master = report.master.as_ref().expect("tracking on");
    println!("inherent (object-grain) correlation map:");
    print!("{}", master.tcm.ascii_heatmap());
    let layout = jessy::pagedsm::PageLayout::from_gos(&cluster.shared().gos);
    let mut induced = jessy::pagedsm::InducedTcmBuilder::new(opts.threads);
    for oal in &master.oal_log {
        induced.ingest(oal, &layout);
    }
    println!("\ninduced (page-grain) correlation map:");
    print!("{}", induced.build().ascii_heatmap());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(opts) => {
            match opts.command {
                Command::Info => cmd_info(),
                Command::Run => {
                    if !cmd_run(&opts) {
                        return ExitCode::FAILURE;
                    }
                }
                Command::Heatmap => cmd_heatmap(&opts),
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("usage: jessy-cli <run|heatmap|info> [--workload sor|bh|water|lu|phase_shift|sessions]");
            eprintln!("       [--nodes N] [--threads T] [--rate off|1x|4x|full|trace]");
            eprintln!("       [--scale paper|small] [--adaptive THRESHOLD]");
            eprintln!("       [--drift-threshold D (un-freeze converged classes on drift; needs --adaptive)]");
            eprintln!("       [--flip-round R (phase_shift: when the sharing graph flips)]");
            eprintln!("       [--zipf-s S] [--session-len OPS (sessions: skew and session length)]");
            eprintln!("       [--rebalance ROUNDS (one placement epoch after this many TCM rounds; needs >= 2 nodes)]");
            eprintln!("       [--rebalance-every K (keep re-planning every K rounds)]");
            eprintln!("       [--cooldown-rounds C] [--migration-budget-bytes B (per-epoch cap)]");
            eprintln!("       [--prefetch-depth D] [--json]");
            eprintln!("       [--overhead-budget FRACTION (SLO cost ceiling; needs --adaptive)]");
            eprintln!("       [--mailbox-capacity N (bound the master's OAL queue; overflow drops the oldest batch)]");
            eprintln!("       [--trace FILE (Chrome trace_event)] [--journal FILE (JSON lines)] (run only)");
            eprintln!("       [--exec-seed N] [--exec-jitter NS (deterministic schedule jitter)]");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// The message `parse_args` rejects the command line `s` with.
    fn rejection(s: &str) -> String {
        parse_args(&args(s)).expect_err(s)
    }

    /// Assert each command line is rejected with a message containing its fragment.
    fn assert_rejected(cases: &[(&str, &str)]) {
        for (line, fragment) in cases {
            let msg = rejection(line);
            assert!(msg.contains(fragment), "{line:?} rejected with {msg:?}");
        }
    }

    #[test]
    fn parses_a_full_command_line() {
        let o = parse_args(&args(
            "run -w bh -n 4 -t 16 -r 4x --scale paper --adaptive 0.05 --rebalance 3 --prefetch-depth 2 --json",
        ))
        .unwrap();
        assert_eq!(o.command, Command::Run);
        assert_eq!(o.workload, WorkloadKind::BarnesHut);
        assert_eq!(o.nodes, 4);
        assert_eq!(o.threads, 16);
        assert_eq!(o.rate, RateOpt::Nx(4));
        assert_eq!(o.scale, WorkloadPreset::Paper);
        assert_eq!(o.adaptive, Some(0.05));
        assert_eq!(o.rebalance, Some(3));
        assert_eq!(o.prefetch_depth, 2);
        assert!(o.json);
    }

    #[test]
    fn defaults_are_sensible() {
        let o = parse_args(&args("run")).unwrap();
        assert_eq!(o, Options::default());
    }

    #[test]
    fn rate_spellings() {
        assert_eq!(parse_args(&args("run -r off")).unwrap().rate, RateOpt::Off);
        assert_eq!(parse_args(&args("run -r full")).unwrap().rate, RateOpt::Full);
        assert_eq!(parse_args(&args("run -r trace")).unwrap().rate, RateOpt::Trace);
        assert_eq!(parse_args(&args("run -r 512x")).unwrap().rate, RateOpt::Nx(512));
        assert!(parse_args(&args("run -r banana")).is_err());
    }

    #[test]
    fn no_flag_selects_another_reduce_path() {
        // The flat close into the dense map is the one reduce path.
        assert_rejected(&[
            ("run --tcm-fanout 2", "unknown flag \"--tcm-fanout\""),
            ("run --top-k 4", "unknown flag \"--top-k\""),
            ("run --tcm-backend dense", "unknown flag \"--tcm-backend\""),
        ]);
    }

    #[test]
    fn parses_overload_protection_flags() {
        let o = parse_args(&args(
            "run --adaptive 0.05 --overhead-budget 0.02 --mailbox-capacity 8",
        ))
        .unwrap();
        assert_eq!(o.overhead_budget, Some(0.02));
        assert_eq!(o.mailbox_capacity, Some(8));
        assert_eq!(profiler_config(&o).oal_mailbox_capacity, Some(8));
    }

    #[test]
    fn rejects_bad_overload_input() {
        assert_rejected(&[
            // Budget above 1, zero, and without the adaptive controller.
            (
                "run --adaptive 0.05 --overhead-budget 1.5",
                "ProfilerConfig.overhead_budget = 1.5",
            ),
            (
                "run --adaptive 0.05 --overhead-budget 0",
                "ProfilerConfig.overhead_budget = 0",
            ),
            ("run --overhead-budget 0.02", "set adaptive_threshold"),
            (
                "run --mailbox-capacity 0",
                "ProfilerConfig.oal_mailbox_capacity = 0",
            ),
        ]);
    }

    #[test]
    fn parses_placement_engine_flags() {
        let o = parse_args(&args(
            "run --rebalance 2 --rebalance-every 4 --cooldown-rounds 16 --migration-budget-bytes 65536",
        ))
        .unwrap();
        assert_eq!(o.rebalance, Some(2));
        assert_eq!(o.rebalance_every, Some(4));
        assert_eq!(o.cooldown_rounds, Some(16));
        assert_eq!(o.migration_budget_bytes, Some(65536));
        // One-shot mode: the tuners stay unset.
        let o = parse_args(&args("run --rebalance 2")).unwrap();
        assert_eq!(o.rebalance_every, None);
        assert_eq!(o.cooldown_rounds, None);
        assert_eq!(o.migration_budget_bytes, None);
    }

    #[test]
    fn rejects_bad_placement_engine_input() {
        assert_rejected(&[
            // One node has no migration destination.
            ("run --rebalance 2 --nodes 1", "nowhere to move threads"),
            // Tuners without --rebalance.
            ("run --rebalance-every 4", "also pass --rebalance"),
            ("run --cooldown-rounds 8", "also pass --rebalance"),
            ("run --migration-budget-bytes 1024", "also pass --rebalance"),
            (
                "run --rebalance 2 --rebalance-every 0",
                "--rebalance-every 0",
            ),
        ]);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&[]).unwrap_err().contains("missing command"));
        assert_rejected(&[
            ("fly", "unknown command"),
            ("run --nodes 0", "must be positive"),
            ("run --workload", "--workload requires a value"),
            ("run --rebalance 2 --rate off", "needs correlation tracking"),
            ("run --trace", "--trace requires a value"),
            ("run --journal", "--journal requires a value"),
            ("heatmap --journal x", "--trace / --journal only apply to the run command"),
            ("heatmap --trace x", "--trace / --journal only apply to the run command"),
            // `ClusterBuilder::build` panicked on this one.
            (
                "run -w sessions --scale small --nodes 2 --threads 4 --rate 1x --adaptive -1",
                "ProfilerConfig.adaptive_threshold = -1",
            ),
            // `SamplingRate::nominal_gap` panicked on this one.
            ("run --rate 0x", "ProfilerConfig.initial_rate"),
        ]);
    }

    #[test]
    fn parses_drift_era_workload_flags() {
        let o = parse_args(&args(
            "run -w phase_shift --adaptive 0.1 --drift-threshold 0.3 --flip-round 6",
        ))
        .unwrap();
        assert_eq!(o.workload, WorkloadKind::PhaseShift);
        assert_eq!(o.drift_threshold, Some(0.3));
        assert_eq!(o.flip_round, Some(6));
        let o = parse_args(&args("run -w sessions --zipf-s 1.2 --session-len 32")).unwrap();
        assert_eq!(o.workload, WorkloadKind::Sessions);
        assert_eq!(o.zipf_s, Some(1.2));
        assert_eq!(o.session_len, Some(32));
        // Spellings.
        assert_eq!(
            parse_args(&args("run -w phase-shift")).unwrap().workload,
            WorkloadKind::PhaseShift
        );
        assert_eq!(
            parse_args(&args("run -w zipf")).unwrap().workload,
            WorkloadKind::Sessions
        );
    }

    #[test]
    fn rejects_bad_drift_era_input() {
        assert_rejected(&[
            // Drift watching without the adaptive controller.
            (
                "run -w phase_shift --drift-threshold 0.3",
                "set adaptive_threshold",
            ),
            (
                "run -w phase_shift --adaptive 0.1 --drift-threshold 0",
                "ProfilerConfig.drift_threshold = 0",
            ),
            // Below the convergence threshold: `ClusterBuilder::build` panicked on it.
            (
                "run -w sessions --scale small --nodes 2 --threads 4 --rate 1x --adaptive 0.3 \
                 --drift-threshold 0.1",
                "ProfilerConfig.drift_threshold = 0.1",
            ),
            (
                "run -w sor --flip-round 6",
                "only applies to --workload phase_shift",
            ),
            (
                "run -w sor --zipf-s 1.1",
                "only apply to --workload sessions",
            ),
            ("run -w sessions --zipf-s -1", "not a nonnegative exponent"),
            ("run -w sessions --session-len 0", "empty sessions"),
        ]);
    }

    #[test]
    fn parses_trace_and_journal_outputs() {
        let o = parse_args(&args("run --trace t.json --journal j.jsonl")).unwrap();
        assert_eq!(o.trace.as_deref(), Some("t.json"));
        assert_eq!(o.journal.as_deref(), Some("j.jsonl"));
        let o = parse_args(&args("run")).unwrap();
        assert_eq!(o.trace, None);
        assert_eq!(o.journal, None);
    }
}
