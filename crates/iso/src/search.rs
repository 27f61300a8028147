//! The backtracking monomorphism search.

use std::time::Instant;

use cgra_base::{CancelFlag, DenseBitSet};

use crate::{Pattern, Target};

/// How many search steps pass between deadline/cancellation polls.
///
/// An atomic load is cheap but `Instant::now` is not; polling every
/// `2^10` extension attempts keeps the overhead unmeasurable while
/// bounding the reaction latency to well under a millisecond of search
/// work.
const POLL_MASK: u64 = (1 << 10) - 1;

/// Limits applied to one search run.
#[derive(Clone, Debug, Default)]
pub struct SearchConfig {
    /// Maximum number of extension attempts (candidate placements tried)
    /// before giving up with [`MonoOutcome::LimitReached`]. `None` means
    /// unlimited.
    pub max_steps: Option<u64>,
    /// Cooperative cancellation flag, polled inside the DFS loop; a
    /// raised flag stops the search with [`MonoOutcome::Cancelled`].
    pub cancel: Option<CancelFlag>,
    /// Wall-clock deadline, polled inside the DFS loop; past it the
    /// search stops with [`MonoOutcome::Cancelled`].
    pub deadline: Option<Instant>,
}

impl SearchConfig {
    /// Unlimited search.
    pub fn unlimited() -> Self {
        SearchConfig::default()
    }

    /// A search budget of `n` extension attempts.
    pub fn steps(n: u64) -> Self {
        SearchConfig {
            max_steps: Some(n),
            ..SearchConfig::default()
        }
    }

    /// Returns the configuration with a cooperative cancellation flag.
    pub fn with_cancel_flag(mut self, cancel: CancelFlag) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Returns the configuration with a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// True when the flag is raised or the deadline has passed.
    fn interrupted(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelFlag::is_cancelled)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Result of a monomorphism search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MonoOutcome {
    /// A monomorphism was found: `map[u]` is the target vertex of
    /// pattern vertex `u`.
    Found(Vec<usize>),
    /// The full space was explored; no monomorphism exists.
    Exhausted,
    /// The step budget ran out first.
    LimitReached,
    /// The cancellation flag was raised (or the deadline passed) before
    /// the search concluded.
    Cancelled,
}

impl MonoOutcome {
    /// Extracts the mapping, if found.
    pub fn into_map(self) -> Option<Vec<usize>> {
        match self {
            MonoOutcome::Found(m) => Some(m),
            _ => None,
        }
    }
}

/// Work counters of a search run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonoStats {
    /// Candidate placements attempted.
    pub steps: u64,
    /// Backtracks taken.
    pub backtracks: u64,
    /// Solutions reported (for enumeration runs).
    pub solutions: u64,
}

/// A reusable monomorphism searcher over a pattern/target pair.
///
/// All working storage (the per-depth candidate domains, the partial
/// map, the used-vertex set) is allocated once at construction and
/// reused across [`Searcher::run`] calls: the DFS loop itself performs
/// no heap allocation.
pub struct Searcher<'a> {
    pattern: &'a Pattern,
    target: &'a Target,
    config: SearchConfig,
    /// Matching order of pattern vertices.
    order: Vec<usize>,
    /// Base candidate sets (label + degree compatible) per pattern
    /// vertex.
    base: Vec<DenseBitSet>,
    /// Per-depth candidate domains of the DFS (reused across runs).
    domains: Vec<DenseBitSet>,
    /// Per-depth scan cursors into `domains`.
    cursors: Vec<usize>,
    /// Partial map under construction (`usize::MAX` = unmapped).
    map: Vec<usize>,
    /// Target vertices used by the partial map.
    used: DenseBitSet,
    stats: MonoStats,
}

/// Why the enumeration loop stopped.
enum EnumStop {
    /// Space exhausted, or the solution callback asked to stop.
    Exhausted,
    /// The step budget ran out.
    LimitReached,
    /// The cancellation flag/deadline fired.
    Cancelled,
}

impl<'a> Searcher<'a> {
    /// Prepares a search with default (unlimited) configuration.
    pub fn new(pattern: &'a Pattern, target: &'a Target) -> Self {
        Searcher::with_config(pattern, target, SearchConfig::unlimited())
    }

    /// Prepares a search with explicit limits.
    pub fn with_config(pattern: &'a Pattern, target: &'a Target, config: SearchConfig) -> Self {
        let np = pattern.num_vertices();
        let nt = target.num_vertices();
        // Base candidates: label equality + degree dominance +
        // requirement/capability compatibility. The compatibility test
        // only ever *removes* candidates, so constrained instances
        // start from smaller domains than their unconstrained
        // counterparts (and unconstrained instances are unchanged:
        // a requirement of 0 passes every capability mask).
        let mut base = Vec::with_capacity(np);
        for u in 0..np {
            let req = pattern.requirement(u);
            let mut s = DenseBitSet::new(nt);
            for t in 0..nt {
                if target.label(t) == pattern.label(u)
                    && target.degree(t) >= pattern.degree(u)
                    && target.capability(t) & req == req
                {
                    s.insert(t);
                }
            }
            base.push(s);
        }
        // Greatest-constraint-first ordering: start at the most
        // constrained vertex (fewest base candidates, then highest
        // degree); grow by maximising already-ordered neighbours.
        let mut order: Vec<usize> = Vec::with_capacity(np);
        let mut placed = vec![false; np];
        while order.len() < np {
            let next = (0..np)
                .filter(|&u| !placed[u])
                .min_by_key(|&u| {
                    let mapped_nbrs = pattern.neighbors(u).iter().filter(|&&w| placed[w]).count();
                    // More mapped neighbours first, then fewer
                    // candidates, then higher degree.
                    (
                        usize::MAX - mapped_nbrs,
                        base[u].len(),
                        usize::MAX - pattern.degree(u),
                    )
                })
                .expect("unplaced vertex exists");
            placed[next] = true;
            order.push(next);
        }
        Searcher {
            pattern,
            target,
            config,
            order,
            base,
            domains: (0..np).map(|_| DenseBitSet::new(nt)).collect(),
            cursors: vec![0; np],
            map: vec![usize::MAX; np],
            used: DenseBitSet::new(nt),
            stats: MonoStats::default(),
        }
    }

    /// Replaces the search limits (the prepared ordering and candidate
    /// sets are kept, so one searcher can serve several attempts with
    /// different budgets).
    pub fn set_config(&mut self, config: SearchConfig) {
        self.config = config;
    }

    /// Counters from the most recent run.
    pub fn stats(&self) -> MonoStats {
        self.stats
    }

    /// Runs the search for the first monomorphism.
    pub fn run(&mut self) -> MonoOutcome {
        let mut found = None;
        let outcome = self.enumerate(&mut |map| {
            found = Some(map.to_vec());
            true // stop at the first
        });
        match (found, outcome) {
            (Some(m), _) => MonoOutcome::Found(m),
            (None, EnumStop::LimitReached) => MonoOutcome::LimitReached,
            (None, EnumStop::Exhausted) => MonoOutcome::Exhausted,
            (None, EnumStop::Cancelled) => MonoOutcome::Cancelled,
        }
    }

    /// Finds up to `limit` monomorphisms.
    pub fn find_all(&mut self, limit: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        self.enumerate(&mut |map| {
            out.push(map.to_vec());
            out.len() >= limit
        });
        out
    }

    /// Core enumeration. Calls `on_solution` for each monomorphism; the
    /// callback returns `true` to stop.
    ///
    /// Iterative depth-first search over a preallocated stack of bit-set
    /// candidate domains with per-depth cursors: no allocation happens
    /// inside the loop, and the cancellation flag / deadline is polled
    /// every [`POLL_MASK`]`+1` steps.
    fn enumerate(&mut self, on_solution: &mut dyn FnMut(&[usize]) -> bool) -> EnumStop {
        self.stats = MonoStats::default();
        let pattern = self.pattern;
        let target = self.target;
        let np = pattern.num_vertices();
        let nt = target.num_vertices();
        if np == 0 {
            self.stats.solutions = 1;
            on_solution(&[]);
            return EnumStop::Exhausted;
        }
        if np > nt {
            return EnumStop::Exhausted; // injectivity is impossible
        }
        if self.config.interrupted() {
            return EnumStop::Cancelled;
        }
        for v in &mut self.map {
            *v = usize::MAX;
        }
        self.used.clear();

        let mut depth = 0usize;
        if !Self::fill_domain(
            &mut self.domains[0],
            &self.base[self.order[0]],
            pattern,
            target,
            self.order[0],
            &self.map,
            &self.used,
        ) {
            return EnumStop::Exhausted;
        }
        self.cursors[0] = 0;

        loop {
            let u = self.order[depth];
            let Some(t) = self.domains[depth].next_member(self.cursors[depth]) else {
                // Domain exhausted at this depth: backtrack.
                if depth == 0 {
                    return EnumStop::Exhausted;
                }
                depth -= 1;
                self.stats.backtracks += 1;
                let prev_u = self.order[depth];
                self.used.remove(self.map[prev_u]);
                self.map[prev_u] = usize::MAX;
                continue;
            };
            self.cursors[depth] = t + 1;
            self.stats.steps += 1;
            if let Some(max) = self.config.max_steps {
                if self.stats.steps > max {
                    return EnumStop::LimitReached;
                }
            }
            if self.stats.steps & POLL_MASK == 0 && self.config.interrupted() {
                return EnumStop::Cancelled;
            }
            self.map[u] = t;
            self.used.insert(t);
            if depth + 1 == np {
                self.stats.solutions += 1;
                if on_solution(&self.map) {
                    return EnumStop::Exhausted;
                }
                self.used.remove(t);
                self.map[u] = usize::MAX;
                continue;
            }
            let next_u = self.order[depth + 1];
            let viable = Self::fill_domain(
                &mut self.domains[depth + 1],
                &self.base[next_u],
                pattern,
                target,
                next_u,
                &self.map,
                &self.used,
            );
            if !viable {
                self.stats.backtracks += 1;
                self.used.remove(t);
                self.map[u] = usize::MAX;
                continue;
            }
            depth += 1;
            self.cursors[depth] = 0;
        }
    }

    /// Computes into `dom` the candidate targets for pattern vertex `u`
    /// under the partial map: base set ∩ neighbourhoods of mapped
    /// neighbours, minus used vertices. Returns `false` when the
    /// resulting domain is empty, so the caller backtracks without a
    /// separate occupancy scan.
    ///
    /// The fused [`DenseBitSet::assign_difference`] / [`DenseBitSet::intersect_any`]
    /// passes track occupancy bitwise alongside the stores; a domain
    /// that empties mid-way skips the remaining row intersections
    /// (empty is absorbing).
    #[allow(clippy::too_many_arguments)]
    fn fill_domain(
        dom: &mut DenseBitSet,
        base: &DenseBitSet,
        pattern: &Pattern,
        target: &Target,
        u: usize,
        map: &[usize],
        used: &DenseBitSet,
    ) -> bool {
        let mut any = dom.assign_difference(base, used);
        for &w in pattern.neighbors(u) {
            if any && map[w] != usize::MAX {
                any = dom.intersect_any(target.row(map[w]));
            }
        }
        any
    }
}

/// Finds one monomorphism from `pattern` into `target`, if any.
///
/// Convenience wrapper over [`Searcher`]; see the crate-level example.
pub fn find_monomorphism(pattern: &Pattern, target: &Target) -> Option<Vec<usize>> {
    Searcher::new(pattern, target).run().into_map()
}

/// Counts all monomorphisms (up to `limit`, to bound the work).
pub fn count_monomorphisms(pattern: &Pattern, target: &Target, limit: usize) -> usize {
    Searcher::new(pattern, target).find_all(limit).len()
}

/// Checks the three monomorphism properties of the paper (§IV-A) for a
/// candidate map. Exposed for tests and for `Mapping::validate` in the
/// core crate.
pub fn is_monomorphism(pattern: &Pattern, target: &Target, map: &[usize]) -> bool {
    if map.len() != pattern.num_vertices() {
        return false;
    }
    // mono1: injectivity.
    let mut seen = DenseBitSet::new(target.num_vertices());
    for &t in map {
        if t >= target.num_vertices() || seen.contains(t) {
            return false;
        }
        seen.insert(t);
    }
    // mono2: label preservation, plus requirement/capability
    // compatibility when the graphs carry masks.
    for (u, &t) in map.iter().enumerate() {
        if pattern.label(u) != target.label(t) {
            return false;
        }
        let req = pattern.requirement(u);
        if target.capability(t) & req != req {
            return false;
        }
    }
    // mono3: edge preservation.
    for u in 0..pattern.num_vertices() {
        for &w in pattern.neighbors(u) {
            if u < w && !target.adjacent(map[u], map[w]) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clique(n: usize, label: u32) -> Target {
        let mut t = Target::new(vec![label; n]);
        for a in 0..n {
            for b in (a + 1)..n {
                t.add_edge(a, b);
            }
        }
        t
    }

    #[test]
    fn triangle_into_k4_counts() {
        let p = Pattern::new(vec![0, 0, 0], vec![(0, 1), (1, 2), (2, 0)]);
        let t = clique(4, 0);
        // 4 choose 3 vertex sets × 3! orientations = 24 monomorphisms.
        assert_eq!(count_monomorphisms(&p, &t, 1000), 24);
    }

    #[test]
    fn found_map_is_a_monomorphism() {
        let p = Pattern::new(vec![0, 1, 0], vec![(0, 1), (1, 2)]);
        let mut t = Target::new(vec![0, 1, 0, 1, 0]);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            t.add_edge(a, b);
        }
        let m = find_monomorphism(&p, &t).expect("path embeds");
        assert!(is_monomorphism(&p, &t, &m));
    }

    #[test]
    fn labels_block_embedding() {
        let p = Pattern::new(vec![7], vec![]);
        let t = clique(3, 0);
        assert_eq!(find_monomorphism(&p, &t), None);
        assert_eq!(Searcher::new(&p, &t).run(), MonoOutcome::Exhausted);
    }

    #[test]
    fn injectivity_blocks_oversized_pattern() {
        let p = Pattern::new(vec![0, 0, 0], vec![]);
        let t = clique(2, 0);
        assert_eq!(find_monomorphism(&p, &t), None);
    }

    #[test]
    fn non_induced_embedding_allowed() {
        // Pattern: path a-b-c (no edge a-c). Target: triangle. A
        // monomorphism (unlike induced isomorphism) may map a,c to
        // adjacent vertices.
        let p = Pattern::new(vec![0, 0, 0], vec![(0, 1), (1, 2)]);
        let t = clique(3, 0);
        assert!(find_monomorphism(&p, &t).is_some());
    }

    #[test]
    fn square_does_not_embed_in_tree() {
        let p = Pattern::new(vec![0; 4], vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut t = Target::new(vec![0; 6]);
        for (a, b) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)] {
            t.add_edge(a, b);
        }
        assert_eq!(Searcher::new(&p, &t).run(), MonoOutcome::Exhausted);
    }

    #[test]
    fn empty_pattern_trivially_embeds() {
        let p = Pattern::new(vec![], vec![]);
        let t = clique(2, 0);
        assert_eq!(find_monomorphism(&p, &t), Some(vec![]));
    }

    #[test]
    fn disconnected_pattern_components() {
        let p = Pattern::new(vec![0, 0, 1, 1], vec![(0, 1), (2, 3)]);
        let mut t = Target::new(vec![0, 0, 1, 1, 0]);
        t.add_edge(0, 1);
        t.add_edge(2, 3);
        let m = find_monomorphism(&p, &t).expect("both components embed");
        assert!(is_monomorphism(&p, &t, &m));
    }

    #[test]
    fn step_limit_reports_limit() {
        // A hard instance: embed a 6-clique into a large sparse graph
        // where it does not exist, with a tiny budget.
        let mut edges = Vec::new();
        for a in 0..6 {
            for b in (a + 1)..6 {
                edges.push((a, b));
            }
        }
        let p = Pattern::new(vec![0; 6], edges);
        let mut t = Target::new(vec![0; 40]);
        for i in 0..39 {
            t.add_edge(i, i + 1);
            if i + 2 < 40 {
                t.add_edge(i, i + 2);
            }
            if i + 3 < 40 {
                t.add_edge(i, i + 3);
            }
            if i + 4 < 40 {
                t.add_edge(i, i + 4);
            }
            if i + 5 < 40 {
                t.add_edge(i, i + 5);
            }
        }
        let mut s = Searcher::with_config(&p, &t, SearchConfig::steps(3));
        assert_eq!(s.run(), MonoOutcome::LimitReached);
        assert!(s.stats().steps >= 3);
    }

    /// A 10-clique that does not embed into a width-8 band graph (whose
    /// largest cliques have 9 vertices): proving exhaustion takes ~10^8
    /// steps — several seconds even in release — so a mid-search cancel
    /// is observable long before the search would finish on its own.
    fn hard_instance() -> (Pattern, Target) {
        let k = 10;
        let (n, w) = (120, 8);
        let mut edges = Vec::new();
        for a in 0..k {
            for b in (a + 1)..k {
                edges.push((a, b));
            }
        }
        let p = Pattern::new(vec![0; k], edges);
        let mut t = Target::new(vec![0; n]);
        for i in 0..n {
            for d in 1..=w {
                if i + d < n {
                    t.add_edge(i, i + d);
                }
            }
        }
        (p, t)
    }

    #[test]
    fn cancel_pre_raised_flag_stops_immediately() {
        let (p, t) = hard_instance();
        let flag = cgra_base::CancelFlag::new();
        flag.cancel();
        let mut s = Searcher::with_config(&p, &t, SearchConfig::unlimited().with_cancel_flag(flag));
        assert_eq!(s.run(), MonoOutcome::Cancelled);
        assert_eq!(s.stats().steps, 0, "pre-raised flag is seen before work");
    }

    #[test]
    fn cancel_mid_search_returns_within_bounded_delay() {
        // Raise the flag from a watchdog thread 50 ms in; the DFS polls
        // the flag every 1024 steps, so it must return promptly — far
        // inside the generous 10 s bound (an uncancelled run of this
        // instance explores millions of states).
        let (p, t) = hard_instance();
        let flag = cgra_base::CancelFlag::new();
        let watchdog = flag.clone();
        let started = std::time::Instant::now();
        let outcome = std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(50));
                watchdog.cancel();
            });
            let mut s =
                Searcher::with_config(&p, &t, SearchConfig::unlimited().with_cancel_flag(flag));
            s.run()
        });
        assert_eq!(outcome, MonoOutcome::Cancelled);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "cancelled search must return promptly, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn deadline_in_the_past_cancels() {
        let (p, t) = hard_instance();
        let past = std::time::Instant::now();
        let mut s = Searcher::with_config(&p, &t, SearchConfig::unlimited().with_deadline(past));
        assert_eq!(s.run(), MonoOutcome::Cancelled);
    }

    #[test]
    fn searcher_is_reusable_across_runs() {
        // Repeated runs on one searcher reuse the preallocated domain
        // stack and give identical results.
        let p = Pattern::new(vec![0, 1, 0], vec![(0, 1), (1, 2)]);
        let mut t = Target::new(vec![0, 1, 0, 1, 0]);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            t.add_edge(a, b);
        }
        let mut s = Searcher::new(&p, &t);
        let first = s.run();
        let second = s.run();
        assert_eq!(first, second);
        assert!(matches!(first, MonoOutcome::Found(_)));
        // Changing the config between runs takes effect.
        s.set_config(SearchConfig::steps(1));
        assert!(matches!(
            s.run(),
            MonoOutcome::Found(_) | MonoOutcome::LimitReached
        ));
    }

    #[test]
    fn enumeration_is_duplicate_free() {
        let p = Pattern::new(vec![0, 0], vec![(0, 1)]);
        let t = clique(4, 0);
        let all = Searcher::new(&p, &t).find_all(1000);
        // Ordered pairs of distinct vertices: 4 × 3 = 12.
        assert_eq!(all.len(), 12);
        let set: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), 12);
        for m in &all {
            assert!(is_monomorphism(&p, &t, m));
        }
    }

    #[test]
    fn requirements_filter_candidates() {
        // Two vertices, one needing capability bit 0b10. Target: a path
        // of three vertices where only the middle one provides 0b10.
        let p = Pattern::new(vec![0, 0], vec![(0, 1)]).with_requirements(vec![0b10, 0]);
        let mut t = Target::new(vec![0, 0, 0]);
        t.add_edge(0, 1);
        t.add_edge(1, 2);
        let t = t.with_capabilities(vec![0b01, 0b11, 0b01]);
        let m = find_monomorphism(&p, &t).expect("middle vertex hosts the constrained node");
        assert_eq!(m[0], 1, "constrained vertex lands on the capable target");
        assert!(is_monomorphism(&p, &t, &m));
        // The same map with vertex 0 elsewhere is rejected.
        assert!(!is_monomorphism(&p, &t, &[0, 1]));
    }

    #[test]
    fn unsatisfiable_requirement_exhausts() {
        let p = Pattern::new(vec![0], vec![]).with_requirements(vec![0b100]);
        let t = clique(3, 0).with_capabilities(vec![0b011; 3]);
        assert_eq!(Searcher::new(&p, &t).run(), MonoOutcome::Exhausted);
    }

    #[test]
    fn zero_requirements_change_nothing() {
        // A pattern with all-zero requirements against a
        // capability-carrying target enumerates exactly the same set as
        // the mask-free pattern.
        let p_plain = Pattern::new(vec![0, 0], vec![(0, 1)]);
        let p_masked = p_plain.clone().with_requirements(vec![0, 0]);
        let t = clique(4, 0).with_capabilities(vec![0b1, 0b0, 0b1, 0b0]);
        let a = Searcher::new(&p_plain, &t).find_all(100);
        let b = Searcher::new(&p_masked, &t).find_all(100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
    }

    #[test]
    fn capability_free_target_accepts_any_requirement() {
        let p = Pattern::new(vec![0], vec![]).with_requirements(vec![u32::MAX]);
        let t = clique(2, 0);
        assert!(find_monomorphism(&p, &t).is_some());
    }

    /// Brute-force cross-check on pseudo-random small instances.
    #[test]
    fn matches_brute_force_on_random_graphs() {
        fn brute_count(p: &Pattern, t: &Target) -> usize {
            let np = p.num_vertices();
            let nt = t.num_vertices();
            let mut count = 0;
            let mut map = vec![usize::MAX; np];
            fn rec(
                p: &Pattern,
                t: &Target,
                map: &mut Vec<usize>,
                depth: usize,
                count: &mut usize,
                nt: usize,
            ) {
                if depth == map.len() {
                    *count += 1;
                    return;
                }
                'outer: for cand in 0..nt {
                    if map[..depth].contains(&cand) {
                        continue;
                    }
                    if t.label(cand) != p.label(depth) {
                        continue;
                    }
                    for &w in p.neighbors(depth) {
                        if w < depth && !t.adjacent(map[w], cand) {
                            continue 'outer;
                        }
                    }
                    map[depth] = cand;
                    rec(p, t, map, depth + 1, count, nt);
                    map[depth] = usize::MAX;
                }
            }
            rec(p, t, &mut map, 0, &mut count, nt);
            count
        }

        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..40 {
            let np = 2 + (next() % 4) as usize; // 2..=5
            let nt = 4 + (next() % 5) as usize; // 4..=8
            let nlabels = 1 + (next() % 3) as u32;
            let plabels: Vec<u32> = (0..np).map(|_| (next() % nlabels as u64) as u32).collect();
            let tlabels: Vec<u32> = (0..nt).map(|_| (next() % nlabels as u64) as u32).collect();
            let mut pedges = Vec::new();
            for a in 0..np {
                for b in (a + 1)..np {
                    if next() % 2 == 0 {
                        pedges.push((a, b));
                    }
                }
            }
            let p = Pattern::new(plabels, pedges);
            let mut t = Target::new(tlabels);
            for a in 0..nt {
                for b in (a + 1)..nt {
                    if next() % 2 == 0 {
                        t.add_edge(a, b);
                    }
                }
            }
            let fast = count_monomorphisms(&p, &t, 1_000_000);
            let slow = brute_count(&p, &t);
            assert_eq!(fast, slow, "trial {trial}: np={np} nt={nt}");
        }
    }
}
