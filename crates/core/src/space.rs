//! Construction of the monomorphism problem from a time solution
//! (paper §IV-C): the scheduled DFG becomes the pattern, the MRRG the
//! target — plus the [`SpaceEngine`] that amortises target construction
//! across attempts.

use std::collections::HashMap;
use std::sync::Arc;

use cgra_arch::{Cgra, Mrrg, RoutingModel};
use cgra_base::{CancelFlag, DenseBitSet};
use cgra_dfg::Dfg;
use cgra_iso::{MonoOutcome, Pattern, SearchConfig, Searcher, Target};
use cgra_sched::TimeSolution;

/// Builds the undirected labelled pattern graph from the DFG and its
/// time solution: labels are kernel slots (`l_G(v) = T_v mod II`), edge
/// direction is dropped, self edges vanish (paper §IV-B: "the
/// directionality of the edges becomes redundant and is removed").
///
/// Each vertex additionally carries its operation class as a
/// requirement mask, matched against the per-PE capability masks of
/// [`build_target`]: on heterogeneous CGRAs the search's candidate
/// domains are *compatibility-filtered* up front (an op lands only on
/// PEs whose functional units cover it), which shrinks the space
/// instead of growing it. On homogeneous CGRAs every target vertex
/// carries the full mask, so the domains — and therefore the search —
/// are exactly what they were without capabilities.
pub fn build_pattern(dfg: &Dfg, solution: &TimeSolution) -> Pattern {
    let labels: Vec<u32> = dfg.nodes().map(|v| solution.slot(v) as u32).collect();
    let edges: Vec<(usize, usize)> = dfg
        .edges()
        .iter()
        .filter(|e| e.src != e.dst)
        .map(|e| (e.src.index(), e.dst.index()))
        .collect();
    let requirements: Vec<u32> = dfg
        .nodes()
        .map(|v| dfg.op(v).op_class().bit() as u32)
        .collect();
    Pattern::new(labels, edges).with_requirements(requirements)
}

/// Builds the MRRG as a monomorphism target under a k-hop routing
/// model: vertex `slot · |PEs| + pe` carries label `slot`, and the
/// edge relation is assembled from the per-distance reachability rows
/// of a [`RoutingModel`] as distance tiers (tier 0: the held-value
/// relation — the same PE in every other slot; tier `d`: the PEs at
/// exactly `d` topology hops, in every slot for cross-slot pairs and
/// excluding the producer's own slot only at `d = 0`). The DFS
/// consumes the cumulative union of the tiers, so at `k = 1` the
/// relation is exactly the classic register-file-readability relation
/// of [`Mrrg`]: same-slot pairs must be neighbours, cross-slot pairs
/// may also share the PE. Every vertex also carries its PE's
/// capability bitmask, the counterpart of [`build_pattern`]'s
/// requirement masks.
pub fn build_target(cgra: &Cgra, ii: usize, max_route_hops: usize) -> Target {
    let routing = RoutingModel::new(cgra, max_route_hops);
    build_target_with_routing(cgra, ii, &routing)
}

/// [`build_target`] against a prebuilt routing model (the
/// [`SpaceEngine`] holds one model across every II it builds targets
/// for).
fn build_target_with_routing(cgra: &Cgra, ii: usize, routing: &RoutingModel) -> Target {
    let n = cgra.num_pes();
    let total = n * ii;
    let labels: Vec<u32> = (0..total).map(|i| (i / n) as u32).collect();
    let caps: Vec<u32> = (0..ii)
        .flat_map(|_| cgra.pes().map(|pe| cgra.capability(pe).bits() as u32))
        .collect();
    let mut tiers = Vec::with_capacity(routing.max_hops() + 1);
    let mut tier0 = Vec::with_capacity(total);
    for slot in 0..ii {
        for pe in cgra.pes() {
            let mut row = DenseBitSet::new(total);
            for other in 0..ii {
                if other != slot {
                    row.insert(other * n + pe.index());
                }
            }
            tier0.push(row);
        }
    }
    tiers.push(tier0);
    for d in 1..=routing.max_hops() {
        let mut tier = Vec::with_capacity(total);
        for _slot in 0..ii {
            for pe in cgra.pes() {
                let mut row = DenseBitSet::new(total);
                for other in 0..ii {
                    let base = other * n;
                    for q in routing.tier(pe, d).iter() {
                        row.insert(base + q.index());
                    }
                }
                tier.push(row);
            }
        }
        tiers.push(tier);
    }
    Target::from_tiers(labels, tiers).with_capabilities(caps)
}

/// Outcome of one space-phase attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpaceOutcome {
    /// `map[v]` is the MRRG vertex index of node `v`.
    Found(Vec<usize>),
    /// The search space was exhausted without a monomorphism.
    Exhausted,
    /// The step budget ran out.
    LimitReached,
    /// The cancellation flag interrupted the search.
    Cancelled,
}

impl From<MonoOutcome> for SpaceOutcome {
    fn from(o: MonoOutcome) -> Self {
        match o {
            MonoOutcome::Found(map) => SpaceOutcome::Found(map),
            MonoOutcome::Exhausted => SpaceOutcome::Exhausted,
            MonoOutcome::LimitReached => SpaceOutcome::LimitReached,
            MonoOutcome::Cancelled => SpaceOutcome::Cancelled,
        }
    }
}

/// The reusable space-phase engine.
///
/// The paper's headline claim is that decoupling makes the space phase
/// cheap; rebuilding the MRRG [`Target`] for every attempt worked
/// against that — at II `k` on an `n`-PE CGRA each rebuild allocates
/// `n·k` bit rows of `n·k` bits. The engine caches the target per II
/// (the target depends only on the CGRA and the II, never on the time
/// solution or slack level), so all slack levels and all enumerated
/// time solutions at one II share a single construction.
///
/// Targets are handed out as [`Arc`]s: the portfolio mapper shares one
/// target across its worker threads without copying.
pub struct SpaceEngine<'a> {
    cgra: &'a Cgra,
    routing: RoutingModel,
    targets: HashMap<usize, Arc<Target>>,
    /// Targets constructed (cache misses) — observable amortisation.
    builds: usize,
}

impl<'a> SpaceEngine<'a> {
    /// An engine for `cgra` under the paper's one-hop routing model,
    /// with an empty target cache.
    pub fn new(cgra: &'a Cgra) -> Self {
        SpaceEngine::with_route_hops(cgra, 1)
    }

    /// An engine whose targets relate vertices up to `max_route_hops`
    /// topology hops apart.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= max_route_hops <= MAX_ROUTE_HOPS`.
    pub fn with_route_hops(cgra: &'a Cgra, max_route_hops: usize) -> Self {
        SpaceEngine {
            cgra,
            routing: RoutingModel::new(cgra, max_route_hops),
            targets: HashMap::new(),
            builds: 0,
        }
    }

    /// The CGRA this engine builds targets for.
    pub fn cgra(&self) -> &Cgra {
        self.cgra
    }

    /// The routing model the targets are assembled from.
    pub fn routing(&self) -> &RoutingModel {
        &self.routing
    }

    /// Number of targets constructed so far (cache misses).
    pub fn target_builds(&self) -> usize {
        self.builds
    }

    /// The monomorphism target for iteration interval `ii`, built on
    /// first use and cached for every later attempt at the same II.
    pub fn target(&mut self, ii: usize) -> Arc<Target> {
        if let Some(t) = self.targets.get(&ii) {
            return Arc::clone(t);
        }
        self.builds += 1;
        let t = Arc::new(build_target_with_routing(self.cgra, ii, &self.routing));
        self.targets.insert(ii, Arc::clone(&t));
        t
    }

    /// Drops cached targets for IIs other than `ii` (the mapper calls
    /// this when it escalates the II: earlier targets are never needed
    /// again, and large-CGRA rows are not free to keep).
    pub fn retain_ii(&mut self, ii: usize) {
        self.targets.retain(|&k, _| k == ii);
    }

    /// Runs the monomorphism search for one time solution against the
    /// cached target, with a step budget and an optional cancellation
    /// flag polled inside the DFS.
    ///
    /// Returns the outcome along with the number of search steps taken.
    pub fn search(
        &mut self,
        dfg: &Dfg,
        solution: &TimeSolution,
        step_limit: u64,
        cancel: Option<&CancelFlag>,
    ) -> (SpaceOutcome, u64) {
        let target = self.target(solution.ii());
        let pattern = build_pattern(dfg, solution);
        let mut config = SearchConfig::steps(step_limit);
        if let Some(flag) = cancel {
            config = config.with_cancel_flag(flag.clone());
        }
        let mut searcher = Searcher::with_config(&pattern, &target, config);
        let outcome = SpaceOutcome::from(searcher.run());
        (outcome, searcher.stats().steps)
    }
}

/// Runs the monomorphism search for one time solution.
///
/// Returns the found map along with the number of search steps taken.
/// One-shot convenience over [`SpaceEngine`] (the target is built and
/// dropped); callers with several attempts at one II should hold a
/// [`SpaceEngine`] instead.
pub fn space_search(
    dfg: &Dfg,
    cgra: &Cgra,
    solution: &TimeSolution,
    step_limit: u64,
    cancel: Option<&CancelFlag>,
) -> (SpaceOutcome, u64) {
    SpaceEngine::new(cgra).search(dfg, solution, step_limit, cancel)
}

/// Verifies that target construction agrees with the [`Mrrg`]
/// reachability oracle at the given route bound (used by tests; the
/// target is the performance-oriented materialisation of the same
/// graph).
pub fn target_matches_mrrg(cgra: &Cgra, ii: usize, max_route_hops: usize) -> bool {
    let target = build_target(cgra, ii, max_route_hops);
    let mrrg = Mrrg::with_route_hops(cgra, ii, max_route_hops);
    if target.num_vertices() != mrrg.num_vertices() {
        return false;
    }
    for a in 0..target.num_vertices() {
        let va = mrrg.vertex_at(a);
        if target.label(a) as usize != mrrg.label(va) {
            return false;
        }
        for b in 0..target.num_vertices() {
            if target.adjacent(a, b) != mrrg.adjacent(va, mrrg.vertex_at(b)) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::Topology;
    use cgra_dfg::examples::running_example;
    use cgra_sched::{TimeSolver, TimeSolverConfig};

    #[test]
    fn target_agrees_with_mrrg_oracle() {
        for topo in [Topology::Torus, Topology::Mesh] {
            let cgra = Cgra::with_topology(2, 2, topo).unwrap();
            assert!(target_matches_mrrg(&cgra, 3, 1), "{topo} 2x2 II=3");
        }
        let cgra = Cgra::new(3, 3).unwrap();
        assert!(target_matches_mrrg(&cgra, 2, 1), "torus 3x3 II=2");
    }

    #[test]
    fn routed_target_agrees_with_mrrg_oracle() {
        for topo in [Topology::Torus, Topology::Mesh, Topology::Diagonal] {
            let cgra = Cgra::with_topology(3, 3, topo).unwrap();
            for k in [2, 3] {
                assert!(target_matches_mrrg(&cgra, 2, k), "{topo} 3x3 II=2 k={k}");
            }
        }
    }

    #[test]
    fn routed_target_records_route_lengths() {
        // 3x3 mesh, II=2: corner PE0 to centre PE4 is 2 hops.
        let cgra = Cgra::with_topology(3, 3, Topology::Mesh).unwrap();
        let n = cgra.num_pes();
        let t = build_target(&cgra, 2, 2);
        assert_eq!(t.route_length(0, 1), Some(1), "same slot, adjacent");
        assert_eq!(t.route_length(0, 4), Some(2), "same slot, knight");
        assert_eq!(t.route_length(0, n), Some(0), "held value across slots");
        assert_eq!(t.route_length(0, n + 4), Some(2), "cross slot, 2 hops");
        assert_eq!(t.route_length(0, 8), None, "far corner beyond k=2");
        // k=1 targets only relate adjacency; the same pair vanishes.
        let t1 = build_target(&cgra, 2, 1);
        assert!(!t1.adjacent(0, 4));
        assert_eq!(t1.route_length(0, 4), None);
    }

    #[test]
    fn pattern_drops_direction_and_self_edges() {
        let dfg = running_example();
        let cgra = Cgra::new(2, 2).unwrap();
        let cfg = TimeSolverConfig::for_cgra(&cgra);
        let sol = TimeSolver::new(&dfg, 4, cfg).unwrap().solve().unwrap();
        let p = build_pattern(&dfg, &sol);
        assert_eq!(p.num_vertices(), 14);
        // 15 directed edges, no duplicates between the same pair, no
        // self edges in the running example.
        assert_eq!(p.num_edges(), 15);
        for v in dfg.nodes() {
            assert_eq!(p.label(v.index()) as usize, sol.slot(v));
        }
    }

    #[test]
    fn running_example_space_solution_exists() {
        // The paper's Fig. 4: a monomorphism exists for the running
        // example at II = 4 on the 2×2 CGRA.
        let dfg = running_example();
        let cgra = Cgra::new(2, 2).unwrap();
        let cfg = TimeSolverConfig::for_cgra(&cgra);
        let sol = TimeSolver::new(&dfg, 4, cfg).unwrap().solve().unwrap();
        let (outcome, steps) = space_search(&dfg, &cgra, &sol, 1_000_000, None);
        assert!(matches!(outcome, SpaceOutcome::Found(_)), "{outcome:?}");
        assert!(steps > 0);
    }

    #[test]
    fn engine_caches_target_per_ii() {
        let cgra = Cgra::new(4, 4).unwrap();
        let mut engine = SpaceEngine::new(&cgra);
        let a = engine.target(3);
        let b = engine.target(3);
        assert!(Arc::ptr_eq(&a, &b), "same II shares one target");
        assert_eq!(engine.target_builds(), 1);
        let c = engine.target(4);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(engine.target_builds(), 2);
        engine.retain_ii(4);
        let a2 = engine.target(3);
        assert!(
            !Arc::ptr_eq(&a, &a2),
            "retain_ii(4) evicted the II=3 target"
        );
        assert_eq!(engine.target_builds(), 3);
    }

    #[test]
    fn engine_search_matches_one_shot_search() {
        let dfg = running_example();
        let cgra = Cgra::new(2, 2).unwrap();
        let cfg = TimeSolverConfig::for_cgra(&cgra);
        let sol = TimeSolver::new(&dfg, 4, cfg).unwrap().solve().unwrap();
        let mut engine = SpaceEngine::new(&cgra);
        let (a, steps_a) = engine.search(&dfg, &sol, 1_000_000, None);
        let (b, steps_b) = engine.search(&dfg, &sol, 1_000_000, None);
        let (c, steps_c) = space_search(&dfg, &cgra, &sol, 1_000_000, None);
        assert_eq!(a, b, "engine search is deterministic across reuse");
        assert_eq!(a, c, "cached target gives the same result as a rebuild");
        assert_eq!(steps_a, steps_b);
        assert_eq!(steps_a, steps_c);
        assert_eq!(
            engine.target_builds(),
            1,
            "second attempt reused the target"
        );
    }

    #[test]
    fn engine_search_observes_cancel_flag() {
        let dfg = running_example();
        let cgra = Cgra::new(2, 2).unwrap();
        let cfg = TimeSolverConfig::for_cgra(&cgra);
        let sol = TimeSolver::new(&dfg, 4, cfg).unwrap().solve().unwrap();
        let flag = CancelFlag::new();
        flag.cancel();
        let mut engine = SpaceEngine::new(&cgra);
        let (outcome, steps) = engine.search(&dfg, &sol, 1_000_000, Some(&flag));
        assert_eq!(outcome, SpaceOutcome::Cancelled);
        assert_eq!(steps, 0);
    }

    #[test]
    fn heterogeneous_target_filters_domains() {
        use cgra_arch::{CapabilityProfile, OpClass};
        use cgra_dfg::{DfgBuilder, Operation as Op};
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let ld = b.load("ld", x);
        b.output("o", ld);
        let dfg = b.build().unwrap();
        let cgra = Cgra::new(3, 3)
            .unwrap()
            .with_capability_profile(CapabilityProfile::MemLeftColumn);
        let cfg = TimeSolverConfig::for_cgra(&cgra).with_window_slack(1);
        let sol = TimeSolver::new(&dfg, 2, cfg).unwrap().solve().unwrap();
        let (outcome, _) = space_search(&dfg, &cgra, &sol, 1_000_000, None);
        let SpaceOutcome::Found(map) = outcome else {
            panic!("mem-left-column hosts one load: {outcome:?}");
        };
        // The load must sit in the memory column (PE index % 3 == 0).
        let n = cgra.num_pes();
        let load_pe = map[1] % n;
        assert_eq!(load_pe % 3, 0, "load on PE{load_pe} outside the mem column");
        assert_eq!(dfg.op(cgra_dfg::NodeId::from_index(1)), Op::Load);
        assert_eq!(cgra.providers(OpClass::Mem), 3);
    }

    #[test]
    fn homogeneous_target_capabilities_accept_everything() {
        // On a homogeneous grid every target vertex carries the full
        // mask, so requirement filtering removes nothing and the search
        // is unchanged.
        let cgra = Cgra::new(2, 2).unwrap();
        let t = build_target(&cgra, 2, 1);
        for v in 0..t.num_vertices() {
            assert_eq!(t.capability(v), cgra_arch::OpClassSet::all().bits() as u32);
        }
    }

    #[test]
    fn target_sizes() {
        let cgra = Cgra::new(4, 4).unwrap();
        let t = build_target(&cgra, 5, 1);
        assert_eq!(t.num_vertices(), 80);
        // Uniform torus: same-slot degree 4, cross-slot 5 each.
        assert_eq!(t.degree(0), 4 + 4 * 5);
        // k=2 on the 4x4 torus adds the 6 distance-2 PEs (2 straight
        // wraps + 4 diagonal steps): 10 reachable per slot.
        let t2 = build_target(&cgra, 5, 2);
        assert_eq!(t2.degree(0), 10 + 4 * 11);
    }
}
