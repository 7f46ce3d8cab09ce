//! Integration: the paper's headline numeric claims, each checked
//! against an executable artifact (not just the closed form).

use systolic_dp::prelude::*;

/// §3.2: "For the graph in Figure 1(b), the process is completed in 15
/// iterations" — Design 3 on a 4-stage, 3-value graph.
#[test]
fn design3_fig1b_fifteen_iterations() {
    let g = generate::node_value_random(
        0,
        4,
        3,
        Box::new(systolic_dp::multistage::node_value::AbsDiff),
        0,
        20,
    );
    let res = Design3Array::new(3)
        .run(&g, &mut NoFaults, &mut NullSink)
        .unwrap();
    assert_eq!(res.cycles, 15);
}

/// §3.2: "the total computational time is (N+1)m iterations".
#[test]
fn design3_general_timing() {
    for (n, m) in [(3usize, 2usize), (7, 4), (12, 6)] {
        let g = generate::node_value_random(
            1,
            n,
            m,
            Box::new(systolic_dp::multistage::node_value::SquaredDiff),
            -9,
            9,
        );
        let res = Design3Array::new(m)
            .run(&g, &mut NoFaults, &mut NullSink)
            .unwrap();
        assert_eq!(res.cycles, ((n + 1) * m) as u64, "n={n} m={m}");
    }
}

/// Eq. 9: PU of the matrix-string designs equals (N−2)/N + 1/(N·m).
#[test]
fn eq9_pu_formula() {
    for (stages, m) in [(10usize, 4u64), (20, 8), (50, 3)] {
        let g = generate::random_single_source_sink(3, stages, m as usize, 0, 9);
        let res = Design1Array::new(m as usize)
            .run(g.matrix_string(), &mut NoFaults, &mut NullSink)
            .unwrap();
        let n = (stages - 1) as u64;
        let serial = solve::SerialCounts::matrix_string(n, m);
        let pu = res.paper_pu(serial, m);
        let eq9 = solve::SerialCounts::eq9_pu(n, m);
        assert!((pu - eq9).abs() < 1e-9, "stages={stages} m={m}");
    }
}

/// Proposition 2 / Eq. 42: the broadcast chain array solves N matrices
/// in exactly N steps, for every N.
#[test]
fn prop2_td_equals_n() {
    for n in 1..=100usize {
        let dims: Vec<u64> = (0..=n).map(|i| 1 + (i as u64 % 7)).collect();
        let res = simulate_chain_array(&dims, ChainMapping::Broadcast);
        assert_eq!(res.finish, n as u64, "n={n}");
    }
}

/// Proposition 3 / Eq. 43: the serialized pipeline takes exactly 2N.
#[test]
fn prop3_tp_equals_2n() {
    for n in 1..=100usize {
        let dims: Vec<u64> = (0..=n).map(|i| 1 + (i as u64 % 5)).collect();
        let res = simulate_chain_array(&dims, ChainMapping::Pipelined);
        assert_eq!(res.finish, 2 * n as u64, "n={n}");
    }
}

/// Theorem 2 / Eq. 32: measured node counts match the closed form, and
/// p = 2 minimizes u(p) for m ≥ 3.
#[test]
fn thm2_u_p() {
    use systolic_dp::andor::partition::u_p_closed_form;
    for (n, m, p) in [(8usize, 3u64, 2u64), (9, 3, 3), (16, 2, 4)] {
        let pg = build_partition_graph(n, m as usize, p as usize);
        assert_eq!(pg.node_count(), u_p_closed_form(n as u64, m, p));
    }
    for m in 3u64..7 {
        assert!(u_p_closed_form(64, m, 2) < u_p_closed_form(64, m, 4));
        assert!(u_p_closed_form(64, m, 4) < u_p_closed_form(64, m, 8));
    }
}

/// Theorem 1: the optimal K·T² granularity sits at Θ(N/log₂N) and the
/// achieved S·T² is within a constant factor of N·log₂N.
#[test]
fn thm1_granularity() {
    for n in [1024u64, 4096] {
        let (k_star, v_star) = dnc::optimal_granularity(n, n / 2);
        let ideal = n as f64 / (n as f64).log2();
        assert!((k_star as f64 / ideal) < 2.0 && (k_star as f64 / ideal) > 0.5);
        let ratio = v_star as f64 / (n as f64 * (n as f64).log2());
        assert!(ratio < 8.0, "n={n}: ratio {ratio}");
    }
}

/// Proposition 1: PU ordering and slow convergence toward 1/(1+c).
#[test]
fn prop1_pu_ordering() {
    let n = 1 << 18;
    let pu_half = dnc::pu_asymptotic(n, 0.5);
    let pu_one = dnc::pu_asymptotic(n, 1.0);
    let pu_four = dnc::pu_asymptotic(n, 4.0);
    assert!(pu_half > pu_one && pu_one > pu_four);
    assert!(pu_half > 2.0 / 3.0); // above its limit, approaching from above
    assert!(pu_four > 0.2 && pu_four < 0.35);
}

/// §3.2: the node-value formulation reduces input words by ~m×.
#[test]
fn io_reduction_claim() {
    let g = generate::node_value_random(
        5,
        20,
        10,
        Box::new(systolic_dp::multistage::node_value::AbsDiff),
        0,
        99,
    );
    let (node, edge) = g.io_words();
    assert_eq!(node, 200);
    assert_eq!(edge, 1900);
    let res = Design3Array::new(10)
        .run(&g, &mut NoFaults, &mut NullSink)
        .unwrap();
    assert_eq!(res.input_words, node as u64 + 1); // + the comparison token
}

/// §5 (serial-monadic): the capacity-indexed knapsack array finishes in
/// exactly `n + Σwᵢ + 2(C+1)` cycles — the item stream drains through
/// C+1 capacity cells with one extra hop per unit of weight.
#[test]
fn knapsack_array_cycles_match_closed_form() {
    for seed in 0..20u64 {
        let n = 1 + (seed as usize % 9);
        let capacity = seed % 13;
        let items: Vec<KnapsackItem> = (0..n)
            .map(|i| {
                let x = seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(i as u64 * 0x45D9_F3B3);
                KnapsackItem::new(x % 7, (x >> 8) % 10)
            })
            .collect();
        let run = knapsack_array(&items, capacity, &mut NoFaults, &mut NullSink).unwrap();
        let weight_sum: u64 = items.iter().map(|it| it.weight).sum();
        assert_eq!(
            run.cycles,
            n as u64 + weight_sum + 2 * (capacity + 1),
            "seed {seed}"
        );
    }
    // Empty item lists build no array and spend no cycles.
    assert_eq!(
        knapsack_array(&[], 5, &mut NoFaults, &mut NullSink)
            .unwrap()
            .cycles,
        0
    );
}

/// Fig. 2 structure: four matrices give six subchain (OR) processors —
/// "mapped directly into six processors connected by broadcast busses".
#[test]
fn fig2_six_processors() {
    let andor = systolic_dp::andor::chain::build_chain_andor(&[2, 3, 4, 5, 6]);
    use systolic_dp::andor::NodeKind;
    assert_eq!(andor.graph.count_kind(NodeKind::Or), 6);
}

/// §6.2: serialization makes the chain AND/OR-graph serial at the price
/// of dummy nodes ("additional delay and redundant hardware").
#[test]
fn serialization_tradeoff() {
    let andor = systolic_dp::andor::chain::build_chain_andor(&[2, 3, 4, 5, 6, 7, 8]);
    assert!(!andor.graph.is_serial());
    let ser = serialize(&andor.graph);
    assert!(ser.graph.is_serial());
    assert!(ser.dummies > 0);
    // Propositions 2 vs 3 quantify the delay: 2N vs N.
    let dims = [2u64, 3, 4, 5, 6, 7, 8];
    let direct = simulate_chain_array(&dims, ChainMapping::Broadcast).finish;
    let serial = simulate_chain_array(&dims, ChainMapping::Pipelined).finish;
    assert_eq!(serial, 2 * direct);
}
