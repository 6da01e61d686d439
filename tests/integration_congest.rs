//! Integration tests for the CONGEST substrate: the simulator's round counts
//! and the primitives' outputs agree with the sequential references and with
//! the paper's stated bounds (with explicit constants).

use en_congest::bfs_tree::build_bfs_tree;
use en_congest::broadcast::{
    broadcast_rounds, convergecast_rounds, pipelined_broadcast, pipelined_convergecast,
};
use en_congest::flooding::FloodProtocol;
use en_congest::{SimulationConfig, Simulator};
use en_congest_algos::explore::distributed_exploration;
use en_congest_algos::theorem1::multi_source_hop_bounded;
use en_graph::bellman_ford::hop_bounded_distances;
use en_graph::bfs::{bfs, hop_diameter};
use en_graph::dijkstra::multi_source_dijkstra;
use en_graph::generators::{erdos_renyi_connected, grid, GeneratorConfig};

#[test]
fn flooding_round_count_equals_eccentricity() {
    let g = erdos_renyi_connected(&GeneratorConfig::new(100, 1), 0.05);
    let source = 17;
    let mut sim = Simulator::new(&g, SimulationConfig::default(), |v| {
        FloodProtocol::new(v == source)
    });
    let stats = sim.run();
    let ecc = bfs(&g, source).eccentricity();
    assert!(stats.rounds >= ecc && stats.rounds <= ecc + 2);
    assert!(!stats.hit_round_limit);
    // CONGEST discipline: flooding never queues more than one message per edge.
    assert_eq!(stats.max_edge_backlog, 1);
}

#[test]
fn bfs_tree_depth_equals_hop_diameter_bound() {
    let g = grid(&GeneratorConfig::new(64, 2), 8, 8);
    let res = build_bfs_tree(&g, 0);
    assert_eq!(res.depth, bfs(&g, 0).eccentricity());
    assert!(res.depth <= hop_diameter(&g));
    assert!(res.tree.is_subgraph_of(&g));
}

#[test]
fn lemma1_broadcast_and_convergecast_within_stated_rounds() {
    let g = erdos_renyi_connected(&GeneratorConfig::new(120, 3), 0.04);
    let messages: Vec<u64> = (0..40).collect();
    let b = pipelined_broadcast(&g, 5, &messages);
    assert!(b.stats.rounds <= broadcast_rounds(messages.len(), b.tree_depth) + 2);
    for v in g.nodes() {
        assert_eq!(b.received[v].len(), messages.len());
    }
    let per_node: Vec<Vec<u64>> = (0..120).map(|v| vec![v as u64]).collect();
    let c = pipelined_convergecast(&g, 5, &per_node);
    assert_eq!(c.at_root.len(), 120);
    assert!(c.stats.rounds <= convergecast_rounds(120, c.tree_depth) + 2);
}

#[test]
fn exploration_matches_sequential_reference_on_many_seeds() {
    for seed in 0..4u64 {
        let g = erdos_renyi_connected(&GeneratorConfig::new(70, seed).with_weights(1, 40), 0.08);
        let sources = vec![seed as usize % 70, (seed as usize * 13 + 5) % 70];
        let res = distributed_exploration(&g, &sources, g.num_nodes());
        let (dist, _) = multi_source_dijkstra(&g, &sources);
        assert_eq!(res.dist, dist, "seed {seed}");
        // Round count is bounded by the iteration budget plus drain slack.
        assert!(res.stats.rounds <= g.num_nodes() + 3);
    }
}

#[test]
fn theorem1_values_bracket_hop_bounded_distances() {
    let g = erdos_renyi_connected(&GeneratorConfig::new(80, 7).with_weights(1, 30), 0.06);
    let sources = vec![0, 11, 42];
    let b = 5;
    let t1 = multi_source_hop_bounded(&g, &sources, b, 0.1, 8);
    for (si, &s) in sources.iter().enumerate() {
        let reference = hop_bounded_distances(&g, s, b);
        for v in g.nodes() {
            // Inequality (2): d^(B) <= d_uv <= (1+eps) d^(B); our reproduction
            // returns the exact value.
            assert!(t1.dist_row(si)[v] >= reference.dist[v]);
            assert!(t1.dist_row(si)[v] as f64 <= 1.1 * reference.dist[v] as f64 + 1.0);
        }
    }
    // Remark 1 / inequality (3).
    for (si, _) in sources.iter().enumerate() {
        for v in g.nodes() {
            if let Some(p) = t1.parent_row(si)[v] {
                let w = g.edge_weight(v, p).unwrap();
                assert!(t1.dist_row(si)[v] >= w + t1.dist_row(si)[p]);
            }
        }
    }
}

#[test]
fn parallel_cluster_exploration_reproduces_the_constructions_level_0_clusters() {
    use en_congest_algos::cluster_explore::distributed_cluster_exploration;
    use en_graph::INFINITY;
    use en_routing::construction::{build_routing_scheme, ConstructionConfig};

    let g = erdos_renyi_connected(&GeneratorConfig::new(60, 17).with_weights(1, 40), 0.1);
    let built = build_routing_scheme(&g, &ConstructionConfig::new(3, 17)).unwrap();
    let hierarchy = &built.family.hierarchy;
    // Level-0 centres and their join thresholds d_G(v, A_1) from the pivot table.
    let centers = hierarchy.centers_at(0);
    let thresholds: Vec<u64> = (0..g.num_nodes())
        .map(|v| built.family.pivots[v][1].map_or(INFINITY, |(_, d)| d))
        .collect();
    let explored = distributed_cluster_exploration(&g, &centers, &thresholds, g.num_nodes());
    // The message-passing exploration and the construction's level-0 clusters
    // agree on membership and on the distances to the centre.
    for &c in &centers {
        let from_construction = built.family.cluster(c).expect("centre has a cluster");
        let from_protocol = &explored.clusters[&c];
        assert_eq!(
            from_construction.len(),
            from_protocol.members.len(),
            "centre {c}"
        );
        for v in from_construction.members() {
            let (dist, _) = from_protocol.members[&v];
            assert_eq!(
                dist,
                from_construction.root_dist(v).unwrap(),
                "centre {c} vertex {v}"
            );
        }
    }
    // The measured congestion stays within Claim 2's overlap bound.
    assert!(explored.stats.max_edge_backlog <= built.params.overlap_bound());
}

#[test]
fn congestion_is_paid_in_rounds() {
    // A protocol that bursts many messages over one edge must take
    // proportionally many rounds: the simulator cannot "cheat" the model.
    use en_congest::{Incoming, NodeContext, Outgoing, Protocol};
    struct Burst(usize);
    impl Protocol for Burst {
        type Msg = u64;
        fn init(&mut self, ctx: &NodeContext, out: &mut Vec<Outgoing<u64>>) {
            if ctx.id == 0 {
                out.extend((0..self.0 as u64).map(|i| Outgoing::new(0, i)));
            }
        }
        fn on_round(
            &mut self,
            _: &NodeContext,
            _: usize,
            _: &[Incoming<u64>],
            _: &mut Vec<Outgoing<u64>>,
        ) {
        }
    }
    let g = en_graph::WeightedGraph::from_edges(2, [(0, 1, 1)]).unwrap();
    let burst = 25;
    let mut sim = Simulator::new(&g, SimulationConfig::default(), |_| Burst(burst));
    let stats = sim.run();
    assert!(stats.rounds >= burst);
    assert_eq!(stats.max_edge_backlog, burst);
    assert_eq!(stats.messages, burst);
}
