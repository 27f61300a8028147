//! Seeded node relabelings. A cold solve is measured as a distribution
//! over node numberings of each kernel, because the solver's search
//! order follows the numbering: the same kernel has taken 843 ms under
//! one numbering and 0.8 ms under another.

use cgra_dfg::{Dfg, NodeId};

use crate::rng::Rng;

/// Rebuilds `dfg` through `Dfg::new` / `add_node` / `add_edge`, adding
/// old node `order[i]` as new node `i` and the edges in `edge_order`.
/// Names (the graph's and each node's) are kept.
pub fn rebuild(dfg: &Dfg, order: &[usize], edge_order: &[usize]) -> Dfg {
    assert_eq!(order.len(), dfg.num_nodes(), "node order is a permutation");
    assert_eq!(
        edge_order.len(),
        dfg.num_edges(),
        "edge order is a permutation"
    );
    let mut new_id = vec![usize::MAX; order.len()];
    let mut out = Dfg::new(dfg.name());
    for &old in order {
        let old_id = NodeId::from_index(old);
        let id = out.add_node(dfg.op(old_id), dfg.node_name(old_id));
        new_id[old] = id.index();
    }
    for &e in edge_order {
        let edge = dfg.edges()[e];
        out.add_edge(
            NodeId::from_index(new_id[edge.src.index()]),
            NodeId::from_index(new_id[edge.dst.index()]),
            edge.operand,
            edge.kind,
        );
    }
    out
}

/// A uniformly random renumbering of `dfg` (nodes and edge order).
pub fn relabel(dfg: &Dfg, rng: &mut Rng) -> Dfg {
    let mut order: Vec<usize> = (0..dfg.num_nodes()).collect();
    let mut edge_order: Vec<usize> = (0..dfg.num_edges()).collect();
    rng.shuffle(&mut order);
    rng.shuffle(&mut edge_order);
    rebuild(dfg, &order, &edge_order)
}

/// `count` numberings of `dfg`: its own first, then seeded random
/// ones. Every numbering is checked to carry the original's canonical
/// digest before it is handed out.
pub fn numberings(dfg: &Dfg, count: usize, rng: &mut Rng) -> Vec<Dfg> {
    let digest = dfg.digest();
    let mut out = vec![dfg.clone()];
    while out.len() < count {
        let relabelled = relabel(dfg, rng);
        assert_eq!(
            relabelled.digest(),
            digest,
            "relabelled `{}` changed its canonical digest",
            dfg.name()
        );
        out.push(relabelled);
    }
    out.truncate(count);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabelings_preserve_the_digest_and_structure() {
        let mut rng = Rng::new(7);
        for name in cgra_dfg::suite::names() {
            let dfg = cgra_dfg::suite::generate(name);
            for r in numberings(&dfg, 4, &mut rng) {
                assert_eq!(r.digest(), dfg.digest(), "{name}");
                assert_eq!(r.num_nodes(), dfg.num_nodes());
                assert_eq!(r.num_edges(), dfg.num_edges());
                assert_eq!(r.name(), dfg.name());
                r.validate().expect("relabelled DFG stays valid");
            }
        }
    }

    #[test]
    fn the_first_numbering_is_the_original() {
        let dfg = cgra_dfg::suite::generate("nw");
        let all = numberings(&dfg, 3, &mut Rng::new(1));
        assert_eq!(all[0].edges(), dfg.edges());
    }

    #[test]
    fn relabelings_actually_renumber() {
        let dfg = cgra_dfg::suite::generate("sha2");
        let r = relabel(&dfg, &mut Rng::new(3));
        assert_ne!(r.edges(), dfg.edges());
    }

    #[test]
    fn relabelings_are_a_function_of_the_seed() {
        let dfg = cgra_dfg::suite::generate("cfd");
        let a = relabel(&dfg, &mut Rng::new(11));
        let b = relabel(&dfg, &mut Rng::new(11));
        assert_eq!(a.edges(), b.edges());
    }
}
