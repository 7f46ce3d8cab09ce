//! Multistage production / inventory planning — one of the "practical
//! sequentially controlled systems" §3.2 says the arrays extend to
//! (alongside Kalman filtering and multistage production processes).
//!
//! ```text
//! cargo run --example inventory_management
//! ```
//!
//! Each period we choose an end-of-period inventory level; producing
//! anything pays a setup plus per-unit cost, and stock carried pays a
//! holding cost.  The optimal plan trades setup amortization against
//! holding — the classic lot-sizing tension — and the Fig. 5 array finds
//! it in `(N+1)·m` cycles with only the candidate levels as input.

use systolic_dp::prelude::*;

fn main() {
    let periods = 12;
    let levels = 6;
    println!("== inventory / production planning (Design 3) ==");
    let plan = generate::inventory(99, periods, levels);
    println!(
        "{periods} periods, inventory levels 0..{}, cost model {}\n",
        levels - 1,
        plan.f().name()
    );

    let res = Design3Array::new(levels)
        .run(&plan, &mut NoFaults, &mut NullSink)
        .expect("stages of width m");
    let stock: Vec<i64> = res
        .path
        .iter()
        .enumerate()
        .map(|(s, &j)| plan.stage_values(s)[j])
        .collect();
    println!("optimal total cost : {}", res.cost);
    println!("inventory profile  : {stock:?}");
    println!(
        "array cycles       : {} ((N+1)*m = {})",
        res.cycles,
        (periods + 1) * levels
    );

    // Show the lot-sizing structure: production per period.
    // (Demand is baked into the cost function; recover production from
    // consecutive levels via the cost of each edge.)
    let ms = plan.to_multistage();
    print!("period costs       : ");
    let costs: Vec<Cost> = res
        .path
        .windows(2)
        .enumerate()
        .map(|(s, w)| ms.edge_cost(s, w[0], w[1]))
        .collect();
    println!("{costs:?}");

    // Verify against sequential DP and brute force.
    let dp = solve::backward_dp(&ms);
    assert_eq!(res.cost, dp.cost);
    assert_eq!(solve::path_cost(&ms, &res.path), res.cost);
    println!("\nverified against sequential DP ✓");

    // Compare against a naive "produce every period to minimum stock"
    // heuristic to show the DP actually buys something.
    let zero_path = vec![0usize; periods];
    let naive = solve::path_cost(&ms, &zero_path);
    println!(
        "chase-demand heuristic (always level 0): {naive} -> DP saves {}",
        match naive.finite() {
            Some(n) => (n - res.cost.finite().unwrap_or(0)).to_string(),
            None => "infeasible baseline".to_string(),
        }
    );
}
