//! Connectivity utilities.

use crate::{CsrGraph, NodeId};

/// Labels of the weakly connected components (edge direction ignored).
/// Returns `(labels, component_count)`; labels are dense in `0..count`.
pub fn weakly_connected_components(graph: &CsrGraph) -> (Vec<u32>, usize) {
    let n = graph.num_nodes();
    let transpose = graph.transpose();
    let mut label = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut stack: Vec<NodeId> = Vec::new();
    for start in 0..n as NodeId {
        if label[start as usize] != u32::MAX {
            continue;
        }
        label[start as usize] = count;
        stack.push(start);
        while let Some(v) = stack.pop() {
            for &t in graph.out_neighbors(v).iter().chain(transpose.out_neighbors(v)) {
                if label[t as usize] == u32::MAX {
                    label[t as usize] = count;
                    stack.push(t);
                }
            }
        }
        count += 1;
    }
    (label, count as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn two_components() {
        // component {0,1} and {2,3,4}
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0);
        b.add_edge(2, 3, 1.0);
        b.add_edge(4, 3, 1.0);
        let g = b.build().unwrap();
        let (labels, count) = weakly_connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn weak_connectivity_ignores_direction() {
        // 0 -> 1 <- 2 is weakly connected
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(2, 1, 1.0);
        let g = b.build().unwrap();
        let (_, count) = weakly_connected_components(&g);
        assert_eq!(count, 1);
    }

    #[test]
    fn isolated_nodes_are_own_components() {
        let g = GraphBuilder::new(3).build().unwrap();
        let (_, count) = weakly_connected_components(&g);
        assert_eq!(count, 3);
    }

    #[test]
    fn reachable_set_directed() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(3, 0, 1.0);
        let g = b.build().unwrap();
        let reachable_set = |root| crate::BfsTree::new(&g, root).order;
        assert_eq!(reachable_set(0), vec![0, 1, 2]);
        assert_eq!(reachable_set(3), vec![3, 0, 1, 2]);
        assert_eq!(reachable_set(2), vec![2]);
    }
}
