//! Property-based tests over the core invariants (proptest).

use std::collections::HashMap;

use proptest::prelude::*;

use jessy::core::oal::{Oal, OalEntry};
use jessy::core::sampling::{multiples_in, GapTable};
use jessy::core::sticky::resolution::resolve_sticky_set;
use jessy::core::stack_sampling::StackSampler;
use jessy::core::{
    accuracy_abs, e_abs, e_euc, CorrelationView, SamplingRate, StackSamplingConfig, Tcm, TcmBuilder,
};
use jessy::gos::prime::{is_prime, nearest_prime};
use jessy::gos::twin::Diff;
use jessy::gos::{ClassId, CostModel, Gos, GosConfig, ObjectId};
use jessy::net::{ClockBoard, LatencyModel, NodeId, ThreadId};
use jessy::runtime::{LoadBalancer, MoveFilter};
use jessy::stack::{JavaStack, MethodId, Slot};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---------------------------------------------------------------- primes & gaps

    #[test]
    fn nearest_prime_is_prime_and_closest(n in 2u64..1_000_000) {
        let p = nearest_prime(n);
        prop_assert!(is_prime(p));
        let d = p.abs_diff(n);
        // No prime strictly closer; at equal distance the upward one wins.
        for q in n.saturating_sub(d)..=(n + d) {
            if is_prime(q) {
                prop_assert!(q.abs_diff(n) >= d, "prime {q} closer to {n} than {p}");
                if q.abs_diff(n) == d {
                    prop_assert!(p >= n || q == p, "tie must break upward: {n} -> {p}, rival {q}");
                }
            }
        }
    }

    #[test]
    fn multiples_in_matches_brute_force(start in 0u64..10_000, len in 0u64..500, gap in 1u64..600) {
        let brute = (start..start + len).filter(|x| x % gap == 0).count() as u64;
        prop_assert_eq!(multiples_in(start, len, gap), brute);
    }

    #[test]
    fn scaled_bytes_estimator_is_unbiased_over_cycles(
        unit_bytes in prop::sample::select(vec![8usize, 64, 512]),
        rate_n in prop::sample::select(vec![1u32, 2, 4, 8]),
        lens in prop::collection::vec(1u32..32, 500..1500),
    ) {
        let gaps = GapTable::new(4096);
        let class = ClassId(0);
        gaps.register_class(class, unit_bytes, SamplingRate::NX(rate_n));
        let mut seq = 0u64;
        let mut scaled = 0u64;
        let mut truth = 0u64;
        for len in &lens {
            scaled += gaps.scaled_bytes(class, seq, *len);
            truth += *len as u64 * unit_bytes as u64;
            seq += *len as u64;
        }
        // Exactly unbiased over full gap cycles; allow the partial-cycle remainder.
        let gap = gaps.state(class).real_gap;
        let slack = gap as f64 * unit_bytes as f64 * 32.0 / truth as f64;
        let err = (scaled as f64 - truth as f64).abs() / truth as f64;
        prop_assert!(err <= slack + 0.05, "bias {err} (slack {slack}) at gap {gap}");
    }

    // ---------------------------------------------------------------- twin/diff

    #[test]
    fn diff_roundtrip_reconstructs_any_mutation(
        base in prop::collection::vec(-1e6f64..1e6, 1..200),
        writes in prop::collection::vec((0usize..200, -1e6f64..1e6), 0..50),
    ) {
        let twin = base.clone();
        let mut current = base.clone();
        for (idx, v) in &writes {
            if *idx < current.len() {
                current[*idx] = *v;
            }
        }
        let diff = Diff::compute(&twin, &current);
        let mut home = twin.clone();
        diff.apply(&mut home);
        prop_assert_eq!(home, current);
        prop_assert!(diff.changed_words() <= writes.len());
    }

    #[test]
    fn diff_wire_bytes_never_exceed_full_payload_much(
        base in prop::collection::vec(0f64..10.0, 1..128),
    ) {
        // Worst case (everything changed): one run, 8 bytes overhead.
        let changed: Vec<f64> = base.iter().map(|v| v + 1.0).collect();
        let diff = Diff::compute(&base, &changed);
        prop_assert!(diff.wire_bytes() <= base.len() * 8 + 8);
    }

    // ---------------------------------------------------------------- TCM & metrics

    #[test]
    fn tcm_builder_is_permutation_invariant(
        accesses in prop::collection::vec((0u32..6, 0u32..20, 1u64..1000), 1..60),
        seed in 0u64..1000,
    ) {
        let to_oals = |acc: &[(u32, u32, u64)]| -> Vec<Oal> {
            acc.iter()
                .map(|(t, o, b)| Oal {
                    thread: ThreadId(*t),
                    interval: 0,
                    entries: vec![OalEntry { obj: ObjectId(*o), class: ClassId(0), bytes: *b }],
                })
                .collect()
        };
        let mut fwd = TcmBuilder::new(6);
        for oal in to_oals(&accesses) {
            fwd.ingest(&oal);
        }
        fwd.close_round();

        // Deterministic shuffle from the seed.
        let mut shuffled = accesses.clone();
        let mut state = seed.wrapping_add(1);
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let mut rev = TcmBuilder::new(6);
        for oal in to_oals(&shuffled) {
            rev.ingest(&oal);
        }
        rev.close_round();
        prop_assert_eq!(fwd.tcm().raw(), rev.tcm().raw());
    }

    #[test]
    fn distance_metrics_behave_like_distances(
        pairs in prop::collection::vec((0u32..5, 0u32..5, 0f64..1e6), 1..20),
        scale in 0.1f64..3.0,
    ) {
        let mut a = Tcm::new(5);
        for (i, j, v) in &pairs {
            a.add_pair(ThreadId(*i), ThreadId(*j), *v);
        }
        // Identity.
        prop_assert!(e_abs(&a, &a).abs() < 1e-12);
        prop_assert!(e_euc(&a, &a).abs() < 1e-12);
        if a.total() > 0.0 {
            // Pure rescaling: both metrics equal |1 - scale|.
            let mut b = Tcm::new(5);
            for (i, j, v) in &pairs {
                b.add_pair(ThreadId(*i), ThreadId(*j), v * scale);
            }
            prop_assert!((e_abs(&b, &a) - (scale - 1.0).abs()).abs() < 1e-9);
            prop_assert!((e_euc(&b, &a) - (scale - 1.0).abs()).abs() < 1e-9);
            // Accuracy is clamped into [0, 1].
            let acc = accuracy_abs(&b, &a);
            prop_assert!((0.0..=1.0).contains(&acc));
        }
    }

    // ---------------------------------------------------------------- balancer

    #[test]
    fn balancer_plan_is_balanced_and_deterministic(
        pairs in prop::collection::vec((0u32..8, 0u32..8, 1f64..1e6), 0..24),
        n_nodes in 1usize..5,
    ) {
        let mut tcm = Tcm::new(8);
        for (i, j, v) in &pairs {
            tcm.add_pair(ThreadId(*i), ThreadId(*j), *v);
        }
        let lb = LoadBalancer::new();
        let plan = lb.plan(&tcm, n_nodes);
        prop_assert_eq!(plan.placement.len(), 8);
        let cap = 8usize.div_ceil(n_nodes);
        for node in 0..n_nodes {
            let load = plan.placement.iter().filter(|p| p.index() == node).count();
            prop_assert!(load <= cap, "node {node} overloaded: {load} > {cap}");
        }
        prop_assert!((0.0..=1.0).contains(&plan.intra_fraction));
        // Determinism.
        let plan2 = lb.plan(&tcm, n_nodes);
        prop_assert_eq!(plan.placement, plan2.placement);
    }

    #[test]
    fn balancer_plan_is_view_agnostic_and_order_invariant(
        pairs in prop::collection::vec((0u32..8, 0u32..8, 1u64..1_000_000), 0..24),
        n_nodes in 1usize..5,
        seed in 0u64..1000,
    ) {
        // Integer-valued weights: per-cell accumulation is exact however the
        // insertions are ordered, so any plan difference is the planner's fault.
        let mut tcm = Tcm::new(8);
        for (i, j, v) in &pairs {
            tcm.add_pair(ThreadId(*i), ThreadId(*j), *v as f64);
        }
        let mut shuffled = pairs.clone();
        let mut state = seed.wrapping_add(1);
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let mut reordered = Tcm::new(8);
        for (i, j, v) in &shuffled {
            reordered.add_pair(ThreadId(*i), ThreadId(*j), *v as f64);
        }
        let lb = LoadBalancer::new();
        let dense = lb.plan(&tcm, n_nodes);
        // Same correlation structure through a different backend (sparse cells)
        // or built in a different order must yield the identical plan: the
        // partitioner's determinism may not lean on the packed-triangle layout.
        let sparse = lb.plan(&tcm.to_sparse(), n_nodes);
        prop_assert_eq!(&dense.placement, &sparse.placement, "dense vs sparse view");
        let reordered = lb.plan(&reordered, n_nodes);
        prop_assert_eq!(&dense.placement, &reordered.placement, "insertion order leaked");
    }

    #[test]
    fn refinement_never_scores_below_its_seed(
        pairs in prop::collection::vec((0u32..8, 0u32..8, 1u64..1_000_000), 0..24),
        n_nodes in 1usize..5,
    ) {
        let mut tcm = Tcm::new(8);
        for (i, j, v) in &pairs {
            tcm.add_pair(ThreadId(*i), ThreadId(*j), *v as f64);
        }
        let lb = LoadBalancer::new();
        let seed_plan = lb.greedy_seed(&tcm, n_nodes);
        let out = lb.refine(&tcm, n_nodes, &seed_plan.placement, &MoveFilter::default());
        let refined = lb.intra_fraction(&tcm, &out.placement);
        // Refinement only applies exact positive-gain steps, so it can never
        // hand back a placement worse than the greedy seed it started from.
        prop_assert!(
            refined >= seed_plan.intra_fraction - 1e-9,
            "refine lost mass: {} -> {}", seed_plan.intra_fraction, refined
        );
        // And it must still respect capacity.
        let cap = 8usize.div_ceil(n_nodes);
        for node in 0..n_nodes {
            let load = out.placement.iter().filter(|p| p.index() == node).count();
            prop_assert!(load <= cap, "node {node} overloaded after refine");
        }
    }

    #[test]
    fn home_affine_labels_are_free_on_correlation(
        shape in (1usize..13, 2usize..6),
        pairs in prop::collection::vec((0u32..12, 0u32..12, 1u64..1000), 0..30),
        slots in prop::collection::vec(0usize..5, 12),
        data in prop::collection::vec((0usize..5, 0u64..8, 0u8..3, 0u8..2), 12),
        cooling in prop::collection::vec(0u8..4, 12),
        budget in (0u8..2, 0u64..1500),
    ) {
        let (n, n_nodes) = shape;
        let mut tcm = Tcm::new(n);
        for &(i, j, w) in &pairs {
            if (i as usize) < n && (j as usize) < n && i != j {
                tcm.add_pair(ThreadId(i), ThreadId(j), w as f64);
            }
        }
        // A placement within capacity: each thread on its drawn node, or the next
        // one with room.
        let cap = n.div_ceil(n_nodes);
        let mut load = vec![0usize; n_nodes];
        let current: Vec<NodeId> = slots[..n]
            .iter()
            .map(|&s| {
                let k = (0..n_nodes).map(|d| (s + d) % n_nodes).find(|&k| load[k] < cap).unwrap();
                load[k] += 1;
                NodeId(k as u16)
            })
            .collect();
        // Each thread's bytes mostly on one node, sometimes a little on the next.
        let affinity: Vec<Vec<f64>> = data[..n]
            .iter()
            .map(|&(home, amount, spill, _)| {
                let mut row = vec![0.0; n_nodes];
                row[home % n_nodes] += (amount * 64) as f64;
                if spill == 0 {
                    row[(home + 1) % n_nodes] += 64.0;
                }
                row
            })
            .collect();
        // About half the threads keep a sticky set as large as what they logged;
        // the rest move for their context alone.
        let footprints: Vec<f64> = affinity
            .iter()
            .zip(&data)
            .map(|(row, &(.., sticky))| if sticky == 0 { 0.0 } else { row.iter().sum() })
            .collect();
        let in_cooldown: Vec<bool> = cooling[..n].iter().map(|&c| c == 0).collect();
        let budget_bytes = (budget.0 == 1).then_some(budget.1 as f64);
        let filter = MoveFilter {
            min_gain: 1.0,
            gain_horizon: 10.0,
            costs: Some(&footprints),
            budget_bytes,
            in_cooldown: Some(&in_cooldown),
        };
        let lb = LoadBalancer::new();
        let refined = lb.refine(&tcm, n_nodes, &current, &filter);
        let out =
            lb.home_affine_labels(&tcm, n_nodes, &current, refined.clone(), &affinity, &filter);

        // Correlation: the same groups, so bit-equal intra mass and equal loads.
        prop_assert_eq!(
            lb.intra_fraction(&tcm, &out.placement).to_bits(),
            lb.intra_fraction(&tcm, &refined.placement).to_bits()
        );
        let loads = |p: &[NodeId]| {
            let mut l = vec![0usize; n_nodes];
            p.iter().for_each(|k| l[k.index()] += 1);
            l
        };
        prop_assert!(loads(&out.placement).iter().all(|&l| l <= cap));
        let (mut a, mut b) = (loads(&out.placement), loads(&refined.placement));
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        for t in (0..n).filter(|&t| in_cooldown[t]) {
            prop_assert_eq!(out.placement[t], current[t], "cooldown thread {} moved", t);
        }

        // Locality never falls. The movers' footprints, `refine`'s price, never sum
        // above `refine`'s spend or the budget, so no mover's footprint alone
        // exceeds that spend, and each leg is charged its own footprint.
        let home_local = |p: &[NodeId]| -> f64 { (0..n).map(|t| affinity[t][p[t].index()]).sum() };
        let cost = |p: &[NodeId]| -> f64 {
            (0..n).filter(|&t| p[t] != current[t]).map(|t| footprints[t]).sum()
        };
        prop_assert!(home_local(&out.placement) >= home_local(&refined.placement));
        prop_assert!(cost(&out.placement) <= cost(&refined.placement));
        prop_assert!(budget_bytes.is_none_or(|b| cost(&out.placement) <= b));
        for m in &out.moves {
            prop_assert!(footprints[m.thread.index()] <= refined.spent_bytes);
            prop_assert_eq!(m.sticky_cost_bytes, footprints[m.thread.index()]);
        }
        prop_assert_eq!(out.spent_bytes, cost(&out.placement));

        // The moves replay `current` into the plan, and their legs sum to its
        // intra-mass delta.
        let mut replayed = current.clone();
        for m in &out.moves {
            prop_assert_eq!(replayed[m.thread.index()], m.from);
            replayed[m.thread.index()] = m.to;
        }
        prop_assert_eq!(&replayed, &out.placement);
        let mut total = 0.0;
        tcm.for_each_pair(&mut |_, _, w| total += w);
        let intra = |p: &[NodeId]| lb.intra_fraction(&tcm, p);
        let delta = (intra(&out.placement) - intra(&current)) * total;
        let legs: f64 = out.moves.iter().map(|m| m.gain_bytes).sum();
        prop_assert!((legs - delta).abs() <= 1e-9 * total.max(1.0), "legs {legs} vs delta {delta}");
    }

    // ---------------------------------------------------------------- sticky resolution

    #[test]
    fn resolution_selects_unique_objects_and_respects_budget(
        n in 2usize..40,
        extra_edges in prop::collection::vec((0usize..40, 0usize..40), 0..30),
        budget_bytes in 0u64..4000,
    ) {
        let gos = Gos::new(GosConfig {
            n_nodes: 1,
            n_threads: 1,
            latency: LatencyModel::free(),
            costs: CostModel::free(),
            prefetch_depth: 0,
            consistency: jessy_gos::protocol::ConsistencyModel::GlobalHlrc,
            faults: None,
        });
        let clock = ClockBoard::new(1).handle(ThreadId(0));
        let class = gos.classes().register_scalar("N", 2);
        let gaps = GapTable::new(4096);
        gaps.register_class(class, 16, SamplingRate::Full);
        let ids: Vec<ObjectId> = (0..n)
            .map(|_| {
                let c = gos.alloc_scalar(NodeId(0), class, &clock, None);
                c.set_sampled(true);
                c.id
            })
            .collect();
        for w in ids.windows(2) {
            gos.object(w[0]).add_ref(w[1]);
        }
        for (a, b) in &extra_edges {
            if *a < n && *b < n {
                gos.object(ids[*a]).add_ref(ids[*b]);
            }
        }
        let budget = HashMap::from([(class, budget_bytes)]);
        let res = resolve_sticky_set(&gos, &gaps, &ids[..1], &budget, &clock);
        // Uniqueness.
        let mut seen = res.selected.clone();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), res.selected.len(), "duplicates selected");
        // Budget semantics (everything sampled at gap 1 → scaled == payload bytes).
        let collected = res.collected.get(&class).copied().unwrap_or(0);
        if res.budget_met && budget_bytes > 0 {
            prop_assert!(collected >= budget_bytes);
            // Stops as soon as satisfied: no more than one object's overshoot.
            prop_assert!(collected < budget_bytes + 16);
        }
        prop_assert_eq!(res.total_bytes, res.selected.len() as u64 * 16);
    }
}

// ---------------------------------------------------------------- stack sampler

// Random stack operations; after a sample, force-compare every frame by popping one
// frame per sample — every reported invariant for the then-top frame must match its
// live slot content.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stack_sampler_invariants_are_sound(
        ops in prop::collection::vec(0u8..4, 1..80),
        refs in prop::collection::vec(0u32..50, 80),
    ) {
        let board = ClockBoard::new(1);
        let clock = board.handle(ThreadId(0));
        let costs = CostModel::free();
        let mut stack = JavaStack::new();
        let mut sampler = StackSampler::new(StackSamplingConfig { gap_ns: 0, lazy_extraction: true });
        stack.push_raw(MethodId(0), 3);

        for (k, op) in ops.iter().enumerate() {
            match op {
                0 => { stack.push_raw(MethodId(1), 3); }
                1 => if stack.depth() > 1 { stack.pop(); },
                2 => {
                    let slot = k % 3;
                    stack.set_local(slot, Slot::Ref(ObjectId(refs[k % refs.len()])));
                }
                _ => { sampler.sample(&mut stack, &clock, &costs); }
            }
        }

        // Drain: sample + pop until empty; at each step the first-visited (top) frame
        // was just compared, so its invariants must match live content.
        while stack.depth() > 0 {
            sampler.sample(&mut stack, &clock, &costs);
            let top_depth = stack.depth() - 1;
            for inv in sampler.invariants() {
                if inv.depth == top_depth {
                    let live = stack.frame(top_depth).slot(inv.slot).as_ref_obj();
                    prop_assert_eq!(live, Some(inv.obj),
                        "stale invariant at depth {} slot {}", inv.depth, inv.slot);
                }
            }
            stack.pop();
        }
    }
}

// Random {push, pop, set_local, advance} scripts against the timer-gated sampler,
// checked against a model that knows, per live frame, which references it has held
// untouched since its first sample and whether it has been compared since. Whatever
// the back-off skipped, one `refresh` makes the report sound (every invariant sits
// in the live stack at its (depth, slot)) and complete (an untouched reference of a
// compared frame is reported). The back-off only ever skips samples, and at the
// paper's gaps and at zero it skips none.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn backed_off_sampler_is_sound_and_complete_after_refresh(
        gap_ns in prop::sample::select(vec![0u64, 1_000, 4_000_000, 16_000_000]),
        lazy in 0u8..2,
        ops in prop::collection::vec((0u8..8, 0u32..6, 1u64..3_000_000), 1..120),
    ) {
        #[derive(Default)]
        struct FrameModel {
            /// Per slot: the reference held ever since the frame's first sample.
            held: Option<[Option<ObjectId>; 3]>,
            compared: bool,
        }
        fn on_sample(model: &mut [FrameModel], stack: &JavaStack) {
            if let Some(fv) = model.iter_mut().rev().find(|f| f.held.is_some()) {
                fv.compared = true;
            }
            for (d, f) in model.iter_mut().enumerate() {
                f.held.get_or_insert_with(|| {
                    std::array::from_fn(|slot| stack.frame(d).slot(slot).as_ref_obj())
                });
            }
        }

        let board = ClockBoard::new(1);
        let clock = board.handle(ThreadId(0));
        let costs = CostModel::pentium4_2ghz();
        let mut stack = JavaStack::new();
        let mut sampler = StackSampler::new(StackSamplingConfig { gap_ns, lazy_extraction: lazy == 1 });
        stack.push_raw(MethodId(0), 3);
        let mut model = vec![FrameModel::default()];
        let (mut fixed, mut last) = (0u64, None::<u64>);

        for &(op, obj, dt) in &ops {
            match op {
                0 => {
                    stack.push_raw(MethodId(1), 3);
                    model.push(FrameModel::default());
                }
                1 => if stack.depth() > 1 {
                    stack.pop();
                    model.pop();
                },
                2..=4 => {
                    let slot = (op - 2) as usize;
                    stack.set_local(slot, Slot::Ref(ObjectId(obj)));
                    if let Some(held) = &mut model.last_mut().unwrap().held {
                        if held[slot] != Some(ObjectId(obj)) {
                            held[slot] = None;
                        }
                    }
                }
                _ => { clock.spend(dt); }
            }
            // The fixed timer, on the same clock and the same opportunities.
            let now = clock.now();
            if last.is_none_or(|l| now - l >= gap_ns) {
                last = Some(now);
                fixed += 1;
            }
            if sampler.maybe_sample(&mut stack, &clock, &costs) {
                on_sample(&mut model, &stack);
            }
        }
        let taken = sampler.stats().samples;
        prop_assert!(taken <= fixed, "backing off took {} samples, the fixed timer {}", taken, fixed);
        if gap_ns != 1_000 {
            prop_assert_eq!(taken, fixed, "gap {} must keep the fixed cadence", gap_ns);
            prop_assert_eq!(sampler.stats().gap_resets, 0);
        }

        sampler.refresh(&mut stack, &clock, &costs);
        on_sample(&mut model, &stack);
        let reported = sampler.invariants();
        for inv in &reported {
            prop_assert!(inv.depth < stack.depth(), "invariant in a popped frame: {:?}", inv);
            prop_assert_eq!(stack.frame(inv.depth).slot(inv.slot).as_ref_obj(), Some(inv.obj),
                "stale invariant at depth {} slot {}", inv.depth, inv.slot);
        }
        for (depth, frame) in model.iter().enumerate().filter(|(_, f)| f.compared) {
            for (slot, held) in frame.held.unwrap().iter().enumerate() {
                if let Some(obj) = *held {
                    prop_assert!(
                        reported.iter().any(|i| (i.depth, i.slot, i.obj) == (depth, slot, obj)),
                        "untouched reference {:?} at depth {} slot {} not reported", obj, depth, slot);
                }
            }
        }
    }
}

// ---------------------------------------------------------------- TCM reduction

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The optimized pipeline (thread bitsets, packed-triangular maps, sparse
    /// per-class maps) must be **bit-identical** to the retained scalar reference
    /// — the seed's `Vec<ThreadId>` + dense-matrix implementation — over arbitrary
    /// OAL streams: multi-class, multi-interval (duplicate thread/object
    /// loggings), closed over multiple rounds. OAL bytes are integer-valued f64
    /// with per-cell sums far below 2⁵³, so f64 accrual is exact and no ordering
    /// choice may perturb a single bit.
    #[test]
    fn bitset_triangular_reduction_matches_scalar_reference(
        raw in prop::collection::vec(
            (0u32..8, 0u64..4, prop::collection::vec((0u32..48, 0u32..3, 1u64..100_000), 0..6)),
            2..80,
        ),
    ) {
        use jessy::core::tcm::reference::ScalarTcmBuilder;
        let t = ThreadId;
        let oals: Vec<jessy::core::Oal> = raw
            .iter()
            .map(|(th, i, es)| jessy::core::Oal {
                thread: ThreadId(*th),
                interval: *i,
                entries: es
                    .iter()
                    .map(|&(o, c, b)| jessy::core::OalEntry {
                        obj: ObjectId(o),
                        class: ClassId(c as u16),
                        bytes: b,
                    })
                    .collect(),
            })
            .collect();

        let mut scalar = ScalarTcmBuilder::new(8);
        let mut bitset = TcmBuilder::new(8);
        let half = oals.len() / 2;
        for chunk in [&oals[..half], &oals[half..]] {
            for o in chunk {
                scalar.ingest(o);
                bitset.ingest(o);
            }
            let rs = scalar.close_round();
            let bs = bitset.close_round();
            prop_assert_eq!(rs.objects, bs.objects);
            prop_assert_eq!(rs.per_class.len(), bs.per_class.len());
            for i in 0..8u32 {
                for j in 0..8u32 {
                    prop_assert_eq!(
                        bitset.tcm().at(t(i), t(j)).to_bits(),
                        scalar.tcm().at(t(i), t(j)).to_bits(),
                        "cumulative pair ({}, {})", i, j
                    );
                }
            }
            for (class, dense) in &rs.per_class {
                let sparse = &bs.per_class[class];
                for i in 0..8u32 {
                    for j in 0..8u32 {
                        prop_assert_eq!(
                            sparse.at(t(i), t(j)).to_bits(),
                            dense.at(t(i), t(j)).to_bits(),
                            "class {:?} pair ({}, {})", class, i, j
                        );
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------ LU numerics

    #[test]
    fn lu_reference_reconstructs_random_diagonally_dominant_matrices(seed in 0u64..500) {
        use jessy::workloads::lu::{reference, LuConfig};
        // The entry function is seed-independent, but sweep block/size combos.
        let combos = [(16usize, 4usize), (16, 8), (32, 8), (24, 8)];
        let (n, block) = combos[(seed % combos.len() as u64) as usize];
        let cfg = LuConfig { n, block };
        let nb = cfg.nb();
        let blocks = reference(&cfg);
        // Spot-check reconstruction at a few pseudo-random coordinates.
        let b = cfg.block;
        let entry = |bi: usize, bj: usize, e: usize| blocks[bi * nb + bj][e];
        let mut state = seed.wrapping_add(7);
        for _ in 0..16 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = (state >> 33) as usize % n;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let c = (state >> 33) as usize % n;
            let mut dot = 0.0;
            for k in 0..=r.min(c) {
                // L is unit lower triangular, U upper; both packed into the blocks.
                let l = if k == r {
                    1.0
                } else {
                    entry(r / b, k / b, (r % b) * b + k % b)
                };
                let u = entry(k / b, c / b, (k % b) * b + c % b);
                dot += l * u;
            }
            let orig = if r == c {
                cfg.n as f64 + 1.0
            } else {
                ((r * 31 + c * 17) % 13) as f64 / 13.0
            };
            prop_assert!(
                (dot - orig).abs() < 1e-7 * (1.0 + orig.abs()),
                "A[{}][{}]: {} vs {}", r, c, dot, orig
            );
        }
    }

}

// ---------------------------------------------------------------- crash recovery

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `ProfilerCheckpoint` — the coordinator snapshot a crashed master restores
    /// from — serializes and deserializes to an *identical* value over arbitrary
    /// coordinator states (an arbitrary OAL stream, split at an arbitrary point,
    /// its head driven through the real scheduler/controller/round-accrual
    /// machinery, plus arbitrary report tails).
    /// And a restore resumes identically: the deserialized scheduler, controller
    /// and reducer, fed the stream's tail alongside the live ones, classify every
    /// OAL, close and reduce every round, decide every round and end in the same
    /// state — cumulative map and last-close cost inputs included.
    #[test]
    fn profiler_checkpoint_serde_roundtrip_is_identity(
        raw in prop::collection::vec(
            (0u32..6, 0u64..8, prop::collection::vec((0u32..40, 0u32..3, 1u64..500), 0..5)),
            1..60,
        ),
        ipr in 1u64..4,
        deadline_raw in 0u64..5, // 0 ⇒ no deadline
        quarantine_raw in prop::collection::vec(0u64..9, 6), // 8 ⇒ not quarantined
        small in 0u64..5, // the ledger's small counts
        threshold in 0.01f64..0.5,
        coverage_raw in 0.0f64..1.2, // ≥ 1 ⇒ no round closed
        costs in prop::collection::vec(0.0f64..0.05, 1..8),
        split_raw in 0usize..61,
        cost_base in (0u64..1 << 40, 0u64..1 << 30, 0u64..1 << 20),
    ) {
        use jessy::core::{AdaptiveController, ProfilerConfig, RoundAccrual, RoundSummary};
        use jessy::runtime::master::CostInputs;
        use jessy::runtime::{
            AppliedRateChange, MasterLedger, MasterState, PlannedMigration, ProfilerCheckpoint,
            RoundScheduler,
        };

        let oals: Vec<Oal> = raw
            .iter()
            .map(|(t, i, es)| Oal {
                thread: ThreadId(*t),
                interval: *i,
                entries: es
                    .iter()
                    .map(|&(o, c, b)| OalEntry {
                        obj: ObjectId(o),
                        class: ClassId(c as u16),
                        bytes: b,
                    })
                    .collect(),
            })
            .collect();

        // Drive the real machinery into an arbitrary mid-run state.
        let deadline = (deadline_raw > 0).then(|| deadline_raw - 1);
        let quarantine: Vec<Option<u64>> =
            quarantine_raw.iter().map(|&q| (q < 8).then_some(q)).collect();
        let mut sched = RoundScheduler::new(6, ipr, deadline);
        sched.set_quarantine(quarantine);
        let reduce = |accrual: &mut RoundAccrual, tcm: &mut Tcm, oals: &[Oal]| -> RoundSummary {
            for oal in oals {
                accrual.ingest(oal);
            }
            accrual.close(tcm)
        };
        let mut reducer = RoundAccrual::new(6);
        let mut reduced = Tcm::new(6);
        let mut pending: Vec<Oal> = Vec::new();
        let gaps = GapTable::new(4096);
        for c in 0..3u16 {
            gaps.register_class(ClassId(c), 64, SamplingRate::NX(2));
        }
        // A 2% budget against arbitrary cost fractions, so the snapshot catches
        // the degradation ladder mid-walk.
        let config = ProfilerConfig {
            adaptive_threshold: Some(threshold),
            overhead_budget: Some(0.02),
            ..ProfilerConfig::default()
        };
        let mut ctl = AdaptiveController::new(&config).unwrap();
        let mut fed = Vec::new();
        let (head, tail) = oals.split_at(split_raw % (oals.len() + 1));
        for (k, oal) in head.iter().enumerate() {
            pending.push(oal.clone());
            sched.ingest(oal.clone());
            if k % 5 == 4 {
                for closed in sched.ready_rounds() {
                    let oals = std::mem::take(&mut pending);
                    let summary = reduce(&mut reducer, &mut reduced, &oals);
                    let cost = costs[fed.len() % costs.len()];
                    fed.push(cost);
                    ctl.on_round(&summary.per_class, &gaps, closed.coverage, cost);
                }
            }
        }

        let cp = ProfilerCheckpoint {
            oal_log_len: head.len(),
            cost_log_len: fed.len(),
            state: MasterState {
                tcm: reduced.clone(),
                scheduler: sched.clone(),
                controller: Some(ctl.clone()),
                rates: gaps.clone(),
                ledger: MasterLedger {
                    rounds: sched.next_round(),
                    oals: oals.len() as u64,
                    objects_organized: raw.len() as u64 * 2,
                    lowest_coverage: (coverage_raw < 1.0).then_some(coverage_raw),
                    budget_over_rounds: fed.iter().filter(|&&f| f > 0.02).count() as u64,
                    rate_changes: vec![AppliedRateChange {
                        round: small,
                        class_name: "Body".to_string(),
                        new_rate: "4X".to_string(),
                        relative_distance: threshold * 1.5,
                        resampled_objects: raw.len(),
                        drift: small % 2 == 1,
                    }],
                    skipped_rounds: small + 1,
                    planned_migrations: vec![PlannedMigration {
                        thread: ThreadId(1),
                        from: NodeId(0),
                        to: NodeId(1),
                        gain_bytes: threshold * 1e6,
                        sticky_cost_bytes: threshold * 1e3,
                    }],
                    last_moved_round: vec![None, Some(small), None, Some(small + 2), None, None],
                    placement: jessy::runtime::PlacementTelemetry {
                        plans: small + 1,
                        directives: 2,
                        planned_bytes: threshold * 1e3,
                        vetoed_gain: 1,
                        vetoed_cooldown: small % 3,
                        vetoed_cost: 0,
                        vetoed_budget: 1,
                        fenced_directives: 0,
                        applied_migrations: 1,
                        migrated_bytes: 4096,
                        homes_migrated: 3,
                        homes_repaired: 2,
                        repaired_bytes: 512,
                    },
                },
                cost_base: CostInputs {
                    compute_ns: cost_base.0,
                    prof_bytes: cost_base.1,
                    oal_entries: cost_base.2,
                },
            },
        };

        // Serialize → deserialize is the identity, f64 bits included.
        let json = serde_json::to_string(&cp).expect("checkpoint serializes");
        let back: ProfilerCheckpoint = serde_json::from_str(&json).expect("deserializes");
        prop_assert_eq!(&back, &cp);

        // Restore as the master does: the deserialized state — scheduler,
        // cumulative map, controller and rate table — under fresh round scratch.
        let mut reducer2 = RoundAccrual::new(6);
        let MasterState { scheduler: mut sched2, tcm: mut reduced2, controller, rates: gaps2, .. } =
            back.state;
        let mut ctl2 = controller.expect("controller checkpointed");
        // Both copies resume on the same tail in lockstep.
        for (k, oal) in tail.iter().enumerate() {
            pending.push(oal.clone());
            prop_assert_eq!(sched.ingest(oal.clone()), sched2.ingest(oal.clone()));
            if (head.len() + k) % 5 == 4 {
                let closed = sched.ready_rounds();
                prop_assert_eq!(&closed, &sched2.ready_rounds());
                for round in closed {
                    let oals = std::mem::take(&mut pending);
                    let (summary, summary2) = (
                        reduce(&mut reducer, &mut reduced, &oals),
                        reduce(&mut reducer2, &mut reduced2, &oals),
                    );
                    prop_assert_eq!(&summary.per_class, &summary2.per_class);
                    let cost = costs[fed.len() % costs.len()];
                    fed.push(cost);
                    prop_assert_eq!(
                        ctl.on_round(&summary.per_class, &gaps, round.coverage, cost),
                        ctl2.on_round(&summary2.per_class, &gaps2, round.coverage, cost)
                    );
                }
            }
        }
        prop_assert_eq!(&reduced, &reduced2);
        prop_assert_eq!(sched.flush(), sched2.flush());
        prop_assert_eq!(sched.take_late(), sched2.take_late());
        prop_assert_eq!(&sched, &sched2);
        prop_assert_eq!(&ctl, &ctl2);
        for c in 0..3u16 {
            prop_assert_eq!(gaps.state(ClassId(c)), gaps2.state(ClassId(c)));
        }
    }
}

// ---------------------------------------------------------------- profiler state machine

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Drive a single-thread profiler with random access/sync sequences and check the
    /// paper's core invariants: OAL entries are unique per interval (at-most-once),
    /// only sampled objects are logged, and every logged size is the gap-scaled
    /// amortized size.
    #[test]
    fn profiler_oals_respect_at_most_once_and_sampling(
        ops in prop::collection::vec((0u8..4, 0usize..12), 10..150),
    ) {
        use jessy::core::{ProfilerConfig, ProfilerShared, ThreadProfiler};
        let gos = Gos::new(GosConfig {
            n_nodes: 1,
            n_threads: 1,
            latency: LatencyModel::free(),
            costs: CostModel::free(),
            prefetch_depth: 0,
            consistency: jessy::gos::protocol::ConsistencyModel::GlobalHlrc,
            faults: None,
        });
        let clock = ClockBoard::new(1).handle(ThreadId(0));
        let mut space = jessy::gos::ThreadSpace::new(ThreadId(0));
        // 64-byte class at 8X → gap 8 → prime 7: objects 0 and 7 sampled.
        let shared = ProfilerShared::new(ProfilerConfig::tracking_at(
            jessy::core::SamplingRate::NX(8),
        ));
        let class = gos.classes().register_scalar("Body", 8);
        shared.register_class(class, 64);
        let gap = shared.gaps().gap(class);
        let objs: Vec<_> = (0..12)
            .map(|_| {
                let core = gos.alloc_scalar(NodeId(0), class, &clock, None);
                shared.tag_new_object(&core);
                core
            })
            .collect();
        let mut prof = ThreadProfiler::new(std::sync::Arc::clone(&shared), ThreadId(0));

        let mut oals = Vec::new();
        for (op, idx) in &ops {
            match op {
                0 | 1 => {
                    // Read or write the chosen object.
                    let id = objs[*idx].id;
                    let out = if *op == 0 {
                        gos.read(&mut space, NodeId(0), id, &clock, |_| {}).1
                    } else {
                        gos.write(&mut space, NodeId(0), id, &clock, |d| d[0] += 1.0).1
                    };
                    prof.on_access(&gos, &mut space, &out, &clock);
                }
                _ => {
                    // Sync point: close + flush + open.
                    if let Some(oal) = prof.close_interval() {
                        oals.push(oal);
                    }
                    gos.flush_thread(&mut space, NodeId(0), &clock);
                    gos.apply_notices(&mut space, NodeId(0), &clock);
                    prof.open_interval(&mut space);
                }
            }
        }
        if let Some(oal) = prof.close_interval() {
            oals.push(oal);
        }

        for oal in &oals {
            // At-most-once per interval.
            let mut ids: Vec<_> = oal.entries.iter().map(|e| e.obj).collect();
            ids.sort_unstable();
            let len_before = ids.len();
            ids.dedup();
            prop_assert_eq!(ids.len(), len_before, "duplicate OAL entry in an interval");
            for e in &oal.entries {
                let core = gos.object(e.obj);
                prop_assert!(core.is_sampled(), "unsampled object {} logged", e.obj);
                prop_assert_eq!(e.bytes, 64 * gap, "gap-scaled amortized size");
            }
        }
        // Interval ids are strictly increasing.
        for w in oals.windows(2) {
            prop_assert!(w[0].interval < w[1].interval);
        }
    }
}
