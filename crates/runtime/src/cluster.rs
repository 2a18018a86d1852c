//! Cluster construction and execution.
//!
//! A [`Cluster`] is the whole simulated DJVM: the GOS, the clock board, the shared
//! profiler state, the master daemon and a thread→node placement. Usage:
//!
//! ```
//! use jessy_runtime::Cluster;
//! use jessy_core::ProfilerConfig;
//!
//! let mut cluster = Cluster::builder()
//!     .nodes(2)
//!     .threads(4)
//!     .profiler(ProfilerConfig::default())
//!     .build();
//! // Set up classes and shared data from the init context…
//! let class = cluster.init(|ctx| {
//!     let c = ctx.register_scalar_class("Counter", 1);
//!     for node in 0..2 {
//!         ctx.alloc_scalar_at(jessy_net::NodeId(node), c);
//!     }
//!     c
//! });
//! // …then run one closure per application thread.
//! cluster.run(move |jt| {
//!     jt.read(jessy_gos::ObjectId(jt.thread_id().0 % 2), |_| {});
//!     jt.barrier();
//! });
//! let report = cluster.report();
//! assert_eq!(report.n_threads, 4);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::{rc::Rc, sync::Arc};
use std::time::Instant;

use parking_lot::RwLock;

use jessy_core::{ProfilerConfig, ProfilerShared};
use jessy_gos::protocol::ConsistencyModel;
use jessy_gos::{ClassId, CostModel, Gos, GosConfig, LockId, ObjectCore, ObjectId, ThreadSpace};
use jessy_obs::{EventKind, TraceSink};
use jessy_net::mailbox::MailboxSender;
use jessy_net::{
    ClockBoard, ClockHandle, DetExecutor, FaultPlan, LatencyModel, Mailbox, MsgClass, NodeId,
    TaskSpec, ThreadId, POISON_MSG,
};
use jessy_stack::{MethodId, MethodRegistry};

use crate::dynamic::{Directive, RebalanceConfig};
use crate::error::RuntimeError;
use crate::master::{daemon_task, EpochOal, LiveBoundary, MasterBoundary, MasterOutput};
use crate::metrics::RunReport;
use crate::migration::MigrationReport;
use crate::thread::JThread;

/// State shared by every thread of the cluster.
pub struct ClusterShared {
    /// The Global Object Space.
    pub gos: Gos,
    /// Simulated clocks: indices `0..n_threads` are application threads; index
    /// `n_threads` is the master/init clock.
    pub board: Arc<ClockBoard>,
    /// Shared profiler state (gap table, counters).
    pub prof: Arc<ProfilerShared>,
    /// Method layouts for Java stacks.
    pub methods: MethodRegistry,
    /// Sender half of the master's OAL mailbox. OALs travel epoch-stamped so a
    /// restored master can fence stale duplicates (DESIGN.md §12).
    pub oal_tx: MailboxSender<EpochOal>,
    /// Number of nodes.
    pub n_nodes: usize,
    /// Number of application threads.
    pub n_threads: usize,
    /// Current thread→node placement (updated by migrations).
    pub placement: RwLock<Vec<NodeId>>,
    /// Parked single-writer access arenas, one per thread. A [`JThread`] checks its
    /// arena out on construction and parks it back on drop; while a thread runs, its
    /// slot is `None`. The mutex only guards checkout/park — accesses themselves go
    /// through the `&mut` the owning `JThread` holds.
    pub spaces: Vec<parking_lot::Mutex<Option<ThreadSpace>>>,
    /// Per-thread migration directives issued by the dynamic balancer; each thread
    /// honours its slot at its next barrier (a safe point) and clears it. A
    /// directive whose epoch is stale by then is fenced instead of applied.
    pub directives: RwLock<Vec<Option<Directive>>>,
    /// Directives dropped at barriers for carrying a stale master epoch.
    pub fenced_directives: AtomicU64,
    /// Dynamic-rebalancing configuration, if enabled.
    pub rebalance: Option<RebalanceConfig>,
    /// Log of every thread migration performed during the run.
    pub migration_log: parking_lot::Mutex<Vec<MigrationReport>>,
    /// Latest per-thread sticky-set footprint totals (bytes), published at interval
    /// close when footprinting is on — the *cost* side of the balancer's
    /// migration-profitability test.
    pub footprints: RwLock<Vec<f64>>,
    /// Set when application threads have all finished (stops the master daemon).
    pub done: AtomicBool,
    /// The `(thread, interval)` pairs whose OALs were lost to failed posts (the
    /// master's mailbox was gone; threads keep running — losing profiling data
    /// must never stop the application). The one record behind
    /// [`crate::RunReport::lost_oals`] and its `oal_post_failures` count, so the
    /// loss reaches coverage accounting instead of dying as a bare counter.
    pub lost_oals: parking_lot::Mutex<Vec<(u32, u64)>>,
    /// The `(thread, interval)` of every OAL batch dropped under mailbox
    /// backpressure — the one record behind [`crate::RunReport::shed_oals`],
    /// folded into `adjusted_round_coverage` exactly like `lost_oals`, so no
    /// shed is ever silent.
    pub shed_oals: parking_lot::Mutex<Vec<(u32, u64)>>,
    /// The observability journal, if tracing is enabled. Runtime-layer events
    /// funnel through [`ClusterShared::emit_event`]; the GOS and fabric hold
    /// their own clones installed at build time.
    pub trace: Option<Arc<dyn TraceSink>>,
    /// The master's current recovery epoch, bumped on every restore and read by
    /// worker threads when stamping outgoing OAL batches.
    pub master_epoch: AtomicU64,
    /// Rejoin handshakes performed by threads of restarted nodes.
    pub rejoins: AtomicU64,
    /// The deterministic cooperative executor that carries the run: tasks
    /// `0..n_threads` are the application threads, task `n_threads` is the master
    /// daemon. At most one task executes at any instant, ordered by virtual
    /// clock, so a given `(exec_seed, exec_jitter)` pair replays bit-identically.
    pub exec: Arc<DetExecutor>,
}

impl ClusterShared {
    /// The master/init clock handle.
    pub fn master_clock(&self) -> ClockHandle {
        self.board.handle(ThreadId(self.n_threads as u32))
    }

    /// The executor task id of the master daemon (one past the worker tasks).
    pub fn master_task(&self) -> usize {
        self.n_threads
    }

    /// Emit a journal event stamped with `clock`'s current simulated time and
    /// thread index. A single never-taken branch when tracing is off.
    pub fn emit_event(&self, clock: &ClockHandle, kind: EventKind) {
        if let Some(sink) = &self.trace {
            sink.emit(clock.now(), clock.thread().0, kind);
        }
    }

    /// Current node of a thread.
    pub fn node_of(&self, thread: ThreadId) -> NodeId {
        self.placement.read()[thread.index()]
    }

    /// Run `f` over a thread's parked access arena (post-run inspection).
    ///
    /// # Panics
    /// If the thread's arena is checked out (its `JThread` is still alive).
    pub fn with_space<R>(&self, thread: ThreadId, f: impl FnOnce(&ThreadSpace) -> R) -> R {
        let guard = self.spaces[thread.index()].lock();
        let space = guard
            .as_ref()
            .expect("thread space is checked out (JThread still alive)");
        f(space)
    }
}

/// Builder for a [`Cluster`].
#[derive(Clone)]
pub struct ClusterBuilder {
    n_nodes: usize,
    n_threads: usize,
    latency: LatencyModel,
    costs: CostModel,
    profiler: ProfilerConfig,
    placement: Option<Vec<NodeId>>,
    rebalance: Option<RebalanceConfig>,
    prefetch_depth: u32,
    faults: Option<FaultPlan>,
    trace: Option<Arc<dyn TraceSink>>,
    exec_seed: u64,
    exec_jitter_ns: u64,
}

impl std::fmt::Debug for ClusterBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterBuilder")
            .field("n_nodes", &self.n_nodes)
            .field("n_threads", &self.n_threads)
            .field("latency", &self.latency)
            .field("costs", &self.costs)
            .field("profiler", &self.profiler)
            .field("placement", &self.placement)
            .field("rebalance", &self.rebalance)
            .field("prefetch_depth", &self.prefetch_depth)
            .field("faults", &self.faults)
            .field("traced", &self.trace.is_some())
            .field("exec_seed", &self.exec_seed)
            .field("exec_jitter_ns", &self.exec_jitter_ns)
            .finish()
    }
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            n_nodes: 8,
            n_threads: 8,
            latency: LatencyModel::fast_ethernet(),
            costs: CostModel::pentium4_2ghz(),
            profiler: ProfilerConfig::disabled(),
            placement: None,
            rebalance: None,
            prefetch_depth: 0,
            faults: None,
            trace: None,
            exec_seed: 0,
            exec_jitter_ns: 0,
        }
    }
}

impl ClusterBuilder {
    /// Number of nodes (default 8, the paper's testbed).
    pub fn nodes(mut self, n: usize) -> Self {
        self.n_nodes = n;
        self
    }

    /// Number of application threads.
    pub fn threads(mut self, n: usize) -> Self {
        self.n_threads = n;
        self
    }

    /// Network model (default Fast Ethernet).
    pub fn latency(mut self, l: LatencyModel) -> Self {
        self.latency = l;
        self
    }

    /// CPU cost model (default 2 GHz Pentium 4).
    pub fn costs(mut self, c: CostModel) -> Self {
        self.costs = c;
        self
    }

    /// Profiler configuration (default: everything off) — the one way to set a
    /// profiler option: every knob is a field of [`ProfilerConfig`].
    pub fn profiler(mut self, p: ProfilerConfig) -> Self {
        self.profiler = p;
        self
    }

    /// Explicit initial thread→node placement (default: block distribution, matching
    /// how SPLASH-2 style workloads are usually laid out: thread i on node
    /// i·K/N).
    pub fn placement(mut self, p: Vec<NodeId>) -> Self {
        self.placement = Some(p);
        self
    }

    /// Connectivity-based object prefetching depth (0 disables; the paper's runs have
    /// "optimizations of object prefetching and home migration … enabled").
    pub fn prefetch_depth(mut self, depth: u32) -> Self {
        self.prefetch_depth = depth;
        self
    }

    /// Enable the dynamic load balancer: after `r.after_rounds` TCM rounds the master
    /// runs a planning epoch — it refines the live placement against the correlation
    /// map and issues per-thread migration directives, honoured at the threads' next
    /// barriers — once, or every `r.every_rounds` rounds from then on.
    /// Requires a profiler configuration with correlation tracking on.
    pub fn rebalance(mut self, r: RebalanceConfig) -> Self {
        self.rebalance = Some(r);
        self
    }

    /// Inject network faults according to `plan` (drops, duplicates, node stalls,
    /// crashes, partitions — see [`FaultPlan`]). OAL batches to the master travel
    /// through a lossy sender sharing the fabric's injector, so one plan governs all
    /// traffic.
    /// A plan with every probability zero behaves bit-identically to no plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attach an observability sink: every layer (fabric, GOS, profiler rounds,
    /// master daemon) journals its structured events there, stamped with simulated
    /// time. Pass a [`jessy_obs::JournalSink`] and keep a clone to export the
    /// journal after the run. When unset (the default), no emission site is ever
    /// reached and the hot paths cost exactly what they did before.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Seed of the deterministic executor's scheduling jitter (default 0). Only
    /// observable when [`ClusterBuilder::exec_jitter`] is nonzero.
    pub fn exec_seed(mut self, seed: u64) -> Self {
        self.exec_seed = seed;
        self
    }

    /// Scheduling jitter of the deterministic executor, in simulated nanoseconds
    /// (default 0 = pure min-clock order). A nonzero jitter perturbs each
    /// scheduling decision by a seeded hash, so `(seed, jitter)` selects one
    /// reproducible interleaving out of many — useful for schedule-space
    /// exploration without giving up replayability.
    pub fn exec_jitter(mut self, jitter_ns: u64) -> Self {
        self.exec_jitter_ns = jitter_ns;
        self
    }

    /// Build the cluster.
    ///
    /// # Panics
    /// On an invalid configuration; use [`ClusterBuilder::try_build`] to handle that
    /// as a typed error.
    pub fn build(self) -> Cluster {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build the cluster, surfacing configuration mistakes as a [`RuntimeError`].
    pub fn try_build(self) -> Result<Cluster, RuntimeError> {
        if self.n_nodes == 0 || self.n_threads == 0 {
            return Err(RuntimeError::InvalidTopology {
                n_nodes: self.n_nodes,
                n_threads: self.n_threads,
            });
        }
        let placement = self.placement.unwrap_or_else(|| {
            // Block placement: contiguous groups of threads per node.
            (0..self.n_threads)
                .map(|t| NodeId((t * self.n_nodes / self.n_threads) as u16))
                .collect()
        });
        if placement.len() != self.n_threads {
            return Err(RuntimeError::InvalidPlacement(format!(
                "placement lists {} threads, cluster has {}",
                placement.len(),
                self.n_threads
            )));
        }
        if let Some(bad) = placement.iter().find(|n| n.index() >= self.n_nodes) {
            return Err(RuntimeError::InvalidPlacement(format!(
                "thread placed on {bad}, but the cluster has {} nodes",
                self.n_nodes
            )));
        }

        // Validate the fault plan and profiler config up front so a malformed
        // field is reported with the offending name/value instead of surfacing as
        // a mid-run anomaly.
        if let Some(plan) = &self.faults {
            plan.validate()?;
            plan.validate_bounds(self.n_nodes)?;
        }
        self.profiler.validate()?;

        let mut gos = Gos::try_new(GosConfig {
            n_nodes: self.n_nodes,
            n_threads: self.n_threads,
            latency: self.latency,
            costs: self.costs,
            prefetch_depth: self.prefetch_depth,
            consistency: ConsistencyModel::GlobalHlrc,
            faults: self.faults,
        })?;
        if let Some(sink) = &self.trace {
            gos.set_trace_sink(Arc::clone(sink));
        }
        // One task per application thread plus the master daemon. The executor is
        // inert until `run` registers the tasks.
        let exec = DetExecutor::new(self.n_threads + 1, self.exec_seed, self.exec_jitter_ns);
        // On equal virtual time the master daemon runs first, so mail is serviced
        // promptly even under cost models that never advance the clocks.
        exec.set_priority(self.n_threads, 0);
        gos.set_executor(Arc::clone(&exec));
        let board = ClockBoard::new(self.n_threads + 1);
        // A configured capacity bounds the master's OAL queue; senders that find
        // it full queue per-thread and drop their oldest batch. `None` keeps the
        // unbounded mailbox, whose senders never find it full.
        let mailbox = match self.profiler.oal_mailbox_capacity {
            Some(cap) => Mailbox::bounded(NodeId::MASTER, cap),
            None => Mailbox::new(NodeId::MASTER),
        };
        // With faults on, OAL delivery goes through a lossy sender sharing the
        // fabric's injector (fabric accounting stays separate: bytes are spent on the
        // wire whether or not the master ever sees them).
        let oal_tx = match gos.fabric().injector() {
            Some(inj) => mailbox.sender_with_faults(Arc::clone(inj), MsgClass::OalBatch),
            None => mailbox.sender(),
        };
        let shared = Rc::new(ClusterShared {
            gos,
            board,
            prof: ProfilerShared::new(self.profiler),
            methods: MethodRegistry::new(),
            oal_tx,
            n_nodes: self.n_nodes,
            n_threads: self.n_threads,
            placement: RwLock::new(placement),
            spaces: (0..self.n_threads)
                .map(|t| parking_lot::Mutex::new(Some(ThreadSpace::new(ThreadId(t as u32)))))
                .collect(),
            directives: RwLock::new(vec![None; self.n_threads]),
            fenced_directives: AtomicU64::new(0),
            rebalance: self.rebalance,
            migration_log: parking_lot::Mutex::new(Vec::new()),
            footprints: RwLock::new(vec![0.0; self.n_threads]),
            done: AtomicBool::new(false),
            lost_oals: parking_lot::Mutex::new(Vec::new()),
            shed_oals: parking_lot::Mutex::new(Vec::new()),
            trace: self.trace,
            master_epoch: AtomicU64::new(0),
            rejoins: AtomicU64::new(0),
            exec,
        });
        Ok(Cluster {
            shared,
            mailbox: Some(mailbox),
            master_out: None,
            run_wall_ns: 0,
        })
    }
}

/// Context for pre-run setup: class registration and shared-data allocation with
/// explicit home placement. Costs are charged to the master clock and excluded from
/// the run's execution time (clocks reset when the run starts).
pub struct InitCtx<'a> {
    shared: &'a ClusterShared,
    clock: ClockHandle,
}

impl InitCtx<'_> {
    /// Register a scalar class of `words` 8-byte words (also registers it for
    /// sampling at the configured initial rate).
    pub fn register_scalar_class(&self, name: &str, words: u32) -> ClassId {
        let class = self.shared.gos.classes().register_scalar(name, words);
        self.shared.prof.register_class(class, words.max(1) as usize * 8);
        class
    }

    /// Register an array class of `elem_words` words per element.
    pub fn register_array_class(&self, name: &str, elem_words: u32) -> ClassId {
        let class = self.shared.gos.classes().register_array(name, elem_words);
        self.shared
            .prof
            .register_class(class, elem_words.max(1) as usize * 8);
        class
    }

    /// Register a method layout for Java stacks.
    pub fn register_method(&self, name: &str, n_slots: usize) -> MethodId {
        self.shared.methods.register(name, n_slots)
    }

    /// Allocate a zeroed scalar instance homed at `node`.
    pub fn alloc_scalar_at(&self, node: NodeId, class: ClassId) -> Rc<ObjectCore> {
        let core = self.shared.gos.alloc_scalar(node, class, &self.clock, None);
        self.shared.prof.tag_new_object(&core);
        core
    }

    /// Allocate an initialized scalar instance homed at `node`.
    pub fn alloc_scalar_init(&self, node: NodeId, class: ClassId, init: &[f64]) -> Rc<ObjectCore> {
        let core = self
            .shared
            .gos
            .alloc_scalar(node, class, &self.clock, Some(init));
        self.shared.prof.tag_new_object(&core);
        core
    }

    /// Allocate an initialized array homed at `node`.
    pub fn alloc_array_init(
        &self,
        node: NodeId,
        class: ClassId,
        init: &[f64],
    ) -> Rc<ObjectCore> {
        let core =
            self.shared
                .gos
                .alloc_array(node, class, init.len() as u32, &self.clock, Some(init));
        self.shared.prof.tag_new_object(&core);
        core
    }

    /// Register a distributed lock.
    pub fn register_lock(&self) -> LockId {
        self.shared.gos.register_lock()
    }

    /// Add a reference edge `from → to` in the object graph.
    pub fn add_ref(&self, from: ObjectId, to: ObjectId) {
        self.shared.gos.object_ref(from).add_ref(to);
    }

    /// Direct access to the GOS (advanced setup).
    pub fn gos(&self) -> &Gos {
        &self.shared.gos
    }
}

/// Stack of each application thread's task.
const WORKER_STACK_BYTES: usize = 512 * 1024;

/// Held by each worker task while it runs: the last one to drop it, panicking
/// or not, ends the run — marks it done and wakes the master for its final
/// drain of the mailbox.
struct EndOfRun<'a> {
    shared: &'a ClusterShared,
    live: &'a AtomicUsize,
}

impl Drop for EndOfRun<'_> {
    fn drop(&mut self) {
        if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.shared.done.store(true, Ordering::Release);
            self.shared.exec.unblock(self.shared.master_task());
        }
    }
}

/// A simulated DJVM cluster.
pub struct Cluster {
    shared: Rc<ClusterShared>,
    mailbox: Option<Mailbox<EpochOal>>,
    master_out: Option<MasterOutput>,
    run_wall_ns: u64,
}

impl Cluster {
    /// Start building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Shared state (for advanced inspection).
    pub fn shared(&self) -> &Rc<ClusterShared> {
        &self.shared
    }

    /// Run setup code with an [`InitCtx`].
    pub fn init<R>(&self, f: impl FnOnce(&mut InitCtx<'_>) -> R) -> R {
        let mut ctx = InitCtx {
            shared: &self.shared,
            clock: self.shared.master_clock(),
        };
        f(&mut ctx)
    }

    /// Run `body` once per application thread (each a cooperatively-scheduled task
    /// of the deterministic executor, on a stack of its own), with the master
    /// daemon pumping OALs as task `n_threads` of the same schedule. Every task
    /// runs on the calling OS thread; the run starts no other. Clocks are reset
    /// first, so the reported simulated execution time covers exactly this
    /// parallel phase.
    ///
    /// # Panics
    /// If called twice, or if any application thread panics; use
    /// [`Cluster::try_run`] to handle those as typed errors.
    pub fn run<F>(&mut self, body: F)
    where
        F: Fn(&mut JThread) + 'static,
    {
        self.try_run(body).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run the cluster, surfacing a double run, unmappable task stacks and panicked
    /// threads as a [`RuntimeError`]. Even when workers panic, the master runs to
    /// its end, so the partial [`MasterOutput`] stays available for post-mortem
    /// inspection.
    pub fn try_run<F>(&mut self, body: F) -> Result<(), RuntimeError>
    where
        F: Fn(&mut JThread) + 'static,
    {
        self.try_run_tapped(body, |fx| fx).map(drop)
    }

    /// [`Cluster::try_run`] with the master's boundary passed through `tap`
    /// first: the seam a test harness uses to record, or stand in for, every
    /// read the master makes of the cluster and every effect it has on it
    /// ([`MasterBoundary`]). Returns the tapped boundary once the master
    /// has finished.
    pub fn try_run_tapped<F, B>(
        &mut self,
        body: F,
        tap: impl FnOnce(LiveBoundary) -> B + 'static,
    ) -> Result<B, RuntimeError>
    where
        F: Fn(&mut JThread) + 'static,
        B: MasterBoundary + 'static,
    {
        let mailbox = self.mailbox.take().ok_or(RuntimeError::AlreadyRun)?;
        self.shared.board.reset();
        self.shared.done.store(false, Ordering::Release);

        let wall_start = Instant::now();
        let shared = &self.shared;
        let (body, live) = (&body, &AtomicUsize::new(shared.n_threads));
        let mut master_out = None;
        // Every worker and the master run as tasks on this thread. Their
        // stacks are mapped by `run_tasks`, so set-up (`try_build`, `init`)
        // never pays for them.
        let mut tasks: Vec<TaskSpec<'_>> = (0..shared.n_threads)
            .map(|t| {
                TaskSpec::new(WORKER_STACK_BYTES, move || {
                    let _end = EndOfRun { shared, live };
                    let mut jt = JThread::new(Rc::clone(shared), ThreadId(t as u32));
                    body(&mut jt);
                })
            })
            .collect();
        tasks.push(daemon_task(
            Rc::clone(shared),
            mailbox,
            tap,
            &mut master_out,
        ));
        let outcomes = shared
            .exec
            .run_tasks(tasks)
            .map_err(|e| RuntimeError::SpawnFailed(format!("task stacks: {e}")))?;

        // Panic classification: a task killed by executor poisoning (payload ==
        // POISON_MSG) is a cascade, not a root cause — report the first *primary*
        // panic if there is one, and fall back to the first cascade only when the
        // whole task set deadlocked.
        let mut primary = None;
        let mut first_cascade = None;
        for (t, outcome) in outcomes.into_iter().take(self.shared.n_threads).enumerate() {
            if let Err(payload) = outcome {
                let is_poison = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    == Some(POISON_MSG);
                if is_poison {
                    first_cascade.get_or_insert(t);
                } else {
                    primary.get_or_insert(t);
                }
            }
        }
        self.run_wall_ns = wall_start.elapsed().as_nanos() as u64;
        // Keep whatever the master managed to produce, then report the most
        // fundamental failure.
        let (tapped, master_err) = match master_out {
            Some((out, fx)) => {
                self.master_out = Some(out);
                (Some(fx), None)
            }
            None => (None, Some(RuntimeError::MasterPanicked)),
        };
        if let Some(thread) = primary {
            return Err(RuntimeError::TaskPanicked { thread });
        }
        if let Some(e) = master_err {
            if let Some(thread) = first_cascade {
                // The master died of the same poisoning — the worker-side report
                // (which names a thread) is the more useful one.
                if e == RuntimeError::MasterPanicked && self.shared.exec.is_poisoned() {
                    return Err(RuntimeError::TaskPanicked { thread });
                }
            }
            return Err(e);
        }
        if let Some(thread) = first_cascade {
            return Err(RuntimeError::TaskPanicked { thread });
        }
        tapped.ok_or(RuntimeError::MasterPanicked)
    }

    /// The master daemon's output (TCM, rounds, rate changes) — available after
    /// [`Cluster::run`].
    pub fn master_output(&self) -> Option<&MasterOutput> {
        self.master_out.as_ref()
    }

    /// Build the run report.
    pub fn report(&self) -> RunReport {
        RunReport::gather(
            &self.shared,
            self.master_out.as_ref(),
            self.run_wall_ns,
        )
    }

    /// Per-thread profiler handle for one-off (non-`run`) driving in tests: builds a
    /// fresh [`JThread`] on the calling thread.
    pub fn adopt_thread(&self, thread: ThreadId) -> JThread {
        JThread::new(Rc::clone(&self.shared), thread)
    }
}
