//! Circuit voltage assignment — the §2.2 power-dissipation application —
//! plus the monadic-nonserial grouping transform of §6.1.
//!
//! ```text
//! cargo run --example circuit_design
//! ```
//!
//! Part 1 picks voltages at a chain of circuit points minimizing total
//! (quadratic) dissipation with the Fig. 5 array.  Part 2 extends the
//! model so each dissipation term couples *three* consecutive points —
//! now monadic-nonserial — and solves it by grouping variables (Eq. 41).

use systolic_dp::prelude::*;

fn main() {
    // ---- Part 1: serial (pairwise) dissipation --------------------------
    let points = 10;
    let levels = 5;
    println!("== circuit voltage assignment ==");
    let net = generate::circuit_voltage(77, points, levels);
    println!("{points} circuit points, {levels} candidate voltages each; cost = (dV)^2\n");
    let res = Design3Array::new(levels)
        .run(&net, &mut NoFaults, &mut NullSink)
        .expect("stages of width m");
    let volts: Vec<i64> = res
        .path
        .iter()
        .enumerate()
        .map(|(s, &j)| net.stage_values(s)[j])
        .collect();
    println!("optimal dissipation: {}", res.cost);
    println!("voltage profile    : {volts:?}");
    let dp = solve::backward_dp(&net.to_multistage());
    assert_eq!(res.cost, dp.cost);

    // ---- Part 2: three-point coupling -> monadic-nonserial --------------
    println!("\n== with three-point coupling terms (monadic-nonserial) ==");
    let domains: Vec<Vec<i64>> = (0..6)
        .map(|i| (0..4).map(|j| (i as i64 % 3) + 2 * j).collect())
        .collect();
    // dissipation across two adjacent segments sharing the middle point
    let chain = TernaryChain::uniform(domains, |a, b, c| {
        let d1 = b - a;
        let d2 = c - b;
        Cost::from(d1 * d1 + d2 * d2 + (d1 - d2).abs())
    });
    println!(
        "interaction edges {:?} -> serial? {}",
        chain.interaction_edges(),
        sdp_andor::nonserial::is_serial_structure(6, &chain.interaction_edges())
    );

    let (elim_cost, steps) = chain.eliminate();
    println!(
        "variable elimination: optimum {elim_cost} in {steps} steps (Eq. 40 predicts {})",
        chain.eq40_steps()
    );

    let serial = chain.group_to_serial();
    println!(
        "grouping transform  : {} compound stages of {} states each",
        serial.num_stages(),
        serial.stage_size(0)
    );
    let dp2 = solve::forward_dp(&serial);
    let (bf, _) = chain.brute_force();
    assert_eq!(dp2.cost, elim_cost);
    assert_eq!(dp2.cost, bf);
    println!(
        "grouped-serial DP   : optimum {} (matches elimination & brute force ✓)",
        dp2.cost
    );

    let rec = table1(Formulation::MONADIC_NONSERIAL);
    println!("\nTable 1: {} -> {}", rec.class, rec.method);
}
