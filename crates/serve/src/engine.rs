//! Executes one coalesced bucket of same-class, same-shape requests.
//!
//! The server runs every bucket through [`run_bucket`], on the
//! `sdp-backend` direct solvers.  Their `_batch` entries loop over the
//! riders, so a bucket amortises dispatch overhead, not an array's
//! fill and drain.  The cycle-accurate simulators stay behind
//! [`run_bucket_on`] with [`EngineKind::Sim`]: they are the reference
//! the direct payloads are checked against, and their batch entries
//! (`run_batch` / `multiply_batch` / `edit_distance_mesh_batch`) are
//! where the paper's §6 pipelining of independent instances through
//! one array is reproduced.
//!
//! Result payloads are a pure function of the problem instance — they
//! never include batch-dependent numbers — so a response is bit
//! identical whether it was computed cold, coalesced into a batch, or
//! replayed from the cache.
//!
//! Each class has one bucket path: it unpacks its riders once, lets the
//! [`EngineKind`] pick only the solver call (both return the same result
//! type, bit-identical — proved by the `conformance_backend` suite), and
//! renders the payload once.  The third payload source,
//! [`oracle_payload`], is what an open breaker degrades to.

use crate::protocol::{cost_to_json, matrix_to_json, Body, Class};
use sdp_andor::chain::{try_matrix_chain_order, try_optimal_bst};
use sdp_core::align::{sw_mesh_batch, Scoring};
use sdp_core::chain_array::{simulate_chain_array, ChainMapping};
use sdp_core::design1::Design1Array;
use sdp_core::design2::Design2Array;
use sdp_core::edit_array::edit_distance_mesh_batch;
use sdp_core::knapsack_array::{knapsack_array_batch, KnapsackItem};
use sdp_core::matmul_array::MatmulArray;
use sdp_fault::SdpError;
use sdp_oracle::served;
use sdp_semiring::{Matrix, MinPlus};
use sdp_trace::json::Json;
use sdp_trace::NullSink;

/// PE count for a matrix string (the interior square side, or the
/// boundary vector length for single-source strings).
fn string_m(mats: &[Matrix<MinPlus>]) -> usize {
    if mats[0].rows() == 1 {
        mats[0].cols()
    } else {
        mats[0].rows()
    }
}

fn values_json(values: &[sdp_semiring::Cost]) -> Json {
    Json::object().with(
        "values",
        Json::Array(values.iter().map(|&c| cost_to_json(c)).collect()),
    )
}

/// Renders one alignment answer the way the oracle's `served_align`
/// does: `{"score":s,"end":[i,j]}` with `null` when nothing scored
/// positive.
fn align_json(score: i64, end: Option<(usize, usize)>) -> Json {
    let end_json = match end {
        Some((i, j)) => Json::Array(vec![Json::Int(i as i64), Json::Int(j as i64)]),
        None => Json::Null,
    };
    Json::object()
        .with("score", Json::Int(score))
        .with("end", end_json)
}

/// Renders one knapsack answer: the optimum plus the full
/// best-value-per-capacity row.
fn knapsack_json(best: u64, row: &[u64]) -> Json {
    Json::object().with("best", best).with(
        "row",
        Json::Array(row.iter().map(|&v| Json::from(v)).collect()),
    )
}

/// Which execution backend answered a bucket: the cycle-accurate
/// simulator or the compiled `sdp-backend` direct solver.  The server
/// always runs `Direct`; `Sim` is the reference arm that E27 and the
/// tests reach through [`run_bucket_on`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Cycle-accurate systolic simulation (`sdp-core`).
    Sim,
    /// Compiled direct solver (`sdp-backend`).
    Direct,
}

impl EngineKind {
    /// Wire/metrics label: `"sim"` or `"direct"`.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Sim => "sim",
            EngineKind::Direct => "direct",
        }
    }
}

/// Per-instance work measure used for dispatch: the serial-op count of
/// the recurrence (DP cells × fan-in), the quantity both engines scale
/// with.  Multistage `N·m²`, matmul `p·q·r`, edit `|a|·|b|`,
/// chain/BST `n³`, align `|a|·|b|`, knapsack `n·(C+1)`; AND/OR
/// evaluation is already a direct graph walk, so it measures 0.
/// servebench's replay reads it for its per-cell engine figures.
pub fn body_work(body: &Body) -> u64 {
    match body {
        Body::Multistage { mats, .. } => mats
            .first()
            .map_or(0, |_| (mats.len() * string_m(mats) * string_m(mats)) as u64),
        Body::Matmul { a, b } => (a.rows() * a.cols() * b.cols()) as u64,
        Body::Edit { a, b } => (a.len() * b.len()) as u64,
        Body::Chain { dims } => {
            let n = dims.len().saturating_sub(1) as u64;
            n * n * n
        }
        Body::Bst { freq } => {
            let n = freq.len() as u64;
            n * n * n
        }
        Body::AndOr { .. } => 0,
        Body::Align { a, b, .. } => (a.len() * b.len()) as u64,
        Body::Knapsack { items, capacity } => items.len() as u64 * (capacity + 1),
    }
}

/// Size-based dispatch decision, kept for servebench's replay: with
/// `Config::default().direct_threshold` (0) it picks `Direct`, as the
/// server does.  Buckets are uniform in shape (same `shape_key`), so
/// the first rider's work measure speaks for all of them.
pub fn choose(bodies: &[Body], direct_threshold: u64) -> EngineKind {
    match bodies.first() {
        Some(body) if body_work(body) >= direct_threshold => EngineKind::Direct,
        _ => EngineKind::Sim,
    }
}

/// The serving entry: runs a bucket on the `sdp-backend` direct
/// solvers, returning one result per request in bucket order.  A
/// batch-level engine error (shape validation) is reported to every
/// rider of the bucket.
pub fn run_bucket(class: Class, bodies: &[Body]) -> Vec<Result<Json, SdpError>> {
    run_bucket_on(EngineKind::Direct, class, bodies)
}

/// Runs a bucket on either backend, like [`run_bucket`].  Direct and
/// sim payloads are bit-identical.  servebench's replay and E27 call
/// this; E27 times both arms.
pub fn run_bucket_on(
    kind: EngineKind,
    class: Class,
    bodies: &[Body],
) -> Vec<Result<Json, SdpError>> {
    match run_class(kind, class, bodies) {
        Ok(results) => results,
        Err(e) => bodies.iter().map(|_| Err(e.clone())).collect(),
    }
}

/// The one bucket path per class: unpack the riders, let `kind` pick
/// the solver call, render the payload.
#[allow(clippy::type_complexity)]
fn run_class(
    kind: EngineKind,
    class: Class,
    bodies: &[Body],
) -> Result<Vec<Result<Json, SdpError>>, SdpError> {
    match class {
        Class::Multistage1 => {
            let strings = matrix_strings(bodies);
            let m = string_m(strings[0]);
            let batch = match kind {
                EngineKind::Sim => Design1Array::try_new(m)?.run_batch(&strings, &mut NullSink)?,
                EngineKind::Direct => sdp_backend::design1_direct_batch(m, &strings)?,
            };
            Ok(batch
                .values
                .iter()
                .map(|vals| Ok(values_json(vals)))
                .collect())
        }
        Class::Multistage2 => {
            let strings = matrix_strings(bodies);
            let m = string_m(strings[0]);
            let batch = match kind {
                EngineKind::Sim => Design2Array::try_new(m)?.run_batch(&strings, &mut NullSink)?,
                EngineKind::Direct => sdp_backend::design2_direct_batch(m, &strings)?,
            };
            Ok(batch
                .values
                .iter()
                .zip(&batch.paths)
                .map(|(vals, path)| {
                    let path_json = match path {
                        Some(p) => Json::Array(p.iter().map(|&v| Json::from(v)).collect()),
                        None => Json::Null,
                    };
                    Ok(values_json(vals).with("path", path_json))
                })
                .collect())
        }
        Class::Matmul => {
            let pairs: Vec<(Matrix<MinPlus>, Matrix<MinPlus>)> = bodies
                .iter()
                .map(|b| match b {
                    Body::Matmul { a, b } => (a.clone(), b.clone()),
                    _ => unreachable!("bucket is single-class"),
                })
                .collect();
            let batch = match kind {
                EngineKind::Sim => MatmulArray::multiply_batch(&pairs, &mut NullSink)?,
                EngineKind::Direct => sdp_backend::matmul_direct_batch(&pairs)?,
            };
            Ok(batch
                .products
                .iter()
                .map(|p| Ok(Json::object().with("product", matrix_to_json(p))))
                .collect())
        }
        Class::Edit => {
            let pairs = string_pairs(bodies);
            let batch = match kind {
                EngineKind::Sim => edit_distance_mesh_batch(&pairs, &mut NullSink)?,
                EngineKind::Direct => sdp_backend::edit_direct_batch(&pairs)?,
            };
            Ok(batch
                .distances
                .iter()
                .map(|&d| Ok(Json::object().with("distance", d)))
                .collect())
        }
        Class::Chain => Ok(bodies
            .iter()
            .map(|b| match b {
                Body::Chain { dims } => {
                    let (cost, steps) = match kind {
                        EngineKind::Sim => {
                            let sol = try_matrix_chain_order(dims)?;
                            let sim = simulate_chain_array(dims, ChainMapping::Broadcast);
                            debug_assert_eq!(sim.cost, sol.cost, "array vs DP");
                            (sim.cost, sim.finish)
                        }
                        EngineKind::Direct => (
                            sdp_backend::chain_direct(dims)?.cost,
                            sdp_backend::chain_steps(dims.len() - 1),
                        ),
                    };
                    Ok(Json::object()
                        .with("cost", cost_to_json(cost))
                        .with("steps", steps))
                }
                _ => unreachable!("bucket is single-class"),
            })
            .collect()),
        Class::Bst => Ok(bodies
            .iter()
            .map(|b| match b {
                Body::Bst { freq } => {
                    let sol = match kind {
                        EngineKind::Sim => try_optimal_bst(freq)?,
                        EngineKind::Direct => sdp_backend::bst_direct(freq)?,
                    };
                    Ok(Json::object().with("cost", cost_to_json(sol.cost)))
                }
                _ => unreachable!("bucket is single-class"),
            })
            .collect()),
        // AND/OR evaluation is already a direct graph walk, so both
        // kinds run the same evaluator.
        Class::AndOr => Ok(bodies
            .iter()
            .map(|b| match b {
                Body::AndOr { graph, root } => {
                    Ok(Json::object().with("value", cost_to_json(graph.evaluate_node(*root))))
                }
                _ => unreachable!("bucket is single-class"),
            })
            .collect()),
        Class::Align => {
            let pairs = string_pairs(bodies);
            let scoring = align_scoring(bodies)?;
            let batch = match kind {
                EngineKind::Sim => sw_mesh_batch(&pairs, None, &scoring, &mut NullSink)?,
                EngineKind::Direct => sdp_backend::sw_direct_batch(&pairs, None, &scoring)?,
            };
            Ok(batch
                .scores
                .iter()
                .zip(&batch.ends)
                .map(|(&score, &end)| Ok(align_json(score, end)))
                .collect())
        }
        Class::Knapsack => {
            let (items, capacity) = knapsack_bucket(bodies)?;
            let batch = match kind {
                EngineKind::Sim => knapsack_array_batch(&items, capacity, &mut NullSink)?,
                EngineKind::Direct => sdp_backend::knapsack_direct_batch(&items, capacity)?,
            };
            Ok(batch
                .bests
                .iter()
                .zip(&batch.per_capacity)
                .map(|(&best, row)| Ok(knapsack_json(best, row)))
                .collect())
        }
    }
}

/// The matrix strings of a multistage bucket (Design 1 or 2).
fn matrix_strings(bodies: &[Body]) -> Vec<&[Matrix<MinPlus>]> {
    bodies
        .iter()
        .map(|b| match b {
            Body::Multistage { mats, .. } => mats.as_slice(),
            _ => unreachable!("bucket is single-class"),
        })
        .collect()
}

/// The operand pairs of an edit or align bucket.
fn string_pairs(bodies: &[Body]) -> Vec<(&[u8], &[u8])> {
    bodies
        .iter()
        .map(|b| match b {
            Body::Edit { a, b } | Body::Align { a, b, .. } => (a.as_slice(), b.as_slice()),
            _ => unreachable!("bucket is single-class"),
        })
        .collect()
}

/// The value `key` takes on every rider of a bucket.  Buckets are keyed
/// by a *hash* of the shape, so a collision could mix riders; the first
/// one that differs from rider 0 fails the bucket typed, as the batch
/// engines do for mismatched lengths, instead of being answered under
/// rider 0's parameters.
fn uniform<T: PartialEq>(bodies: &[Body], key: impl Fn(&Body) -> T) -> Result<T, SdpError> {
    let first = key(bodies.first().ok_or(SdpError::EmptyBatch)?);
    match bodies.iter().position(|b| key(b) != first) {
        Some(index) => Err(SdpError::BatchShapeMismatch { index }),
        None => Ok(first),
    }
}

/// The shared simple-scoring scheme of an align bucket.
fn align_scoring(bodies: &[Body]) -> Result<Scoring, SdpError> {
    let (matched, mismatched, gap) = uniform(bodies, |b| match b {
        Body::Align {
            matched,
            mismatched,
            gap,
            ..
        } => (*matched, *mismatched, *gap),
        _ => unreachable!("bucket is single-class"),
    })?;
    Ok(Scoring::simple(matched, mismatched, gap))
}

/// Splits a knapsack bucket into the batch engine's argument shape: the
/// item lists and their shared capacity.
fn knapsack_bucket(bodies: &[Body]) -> Result<(Vec<&[KnapsackItem]>, u64), SdpError> {
    let capacity = uniform(bodies, |b| match b {
        Body::Knapsack { capacity, .. } => *capacity,
        _ => unreachable!("bucket is single-class"),
    })?;
    let items = bodies
        .iter()
        .map(|b| match b {
            Body::Knapsack { items, .. } => items.as_slice(),
            _ => unreachable!("bucket is single-class"),
        })
        .collect();
    Ok((items, capacity))
}

/// The reference payload for one request, from the `sdp-oracle`
/// from-scratch solvers with no engine code on the path: what an open
/// breaker degrades to, and the third source E27 checks sim and direct
/// against.  `None` where the oracle cannot stand in bit-identically:
/// `Chain` (the engine adds a `steps` field) and `Multistage` (interior
/// shape checks are engine-side).
pub fn oracle_payload(body: &Body) -> Option<Json> {
    match body {
        Body::Matmul { a, b } => Some(served::served_matmul(a, b)),
        Body::Edit { a, b } => Some(served::served_edit(a, b)),
        Body::Bst { freq } => Some(served::served_bst(freq)),
        Body::AndOr { graph, root } => Some(served::served_andor(graph, *root)),
        Body::Align {
            a,
            b,
            matched,
            mismatched,
            gap,
        } => Some(served::served_align(a, b, *matched, *mismatched, *gap)),
        Body::Knapsack { items, capacity } => {
            let pairs: Vec<(u64, u64)> = items.iter().map(|it| (it.weight, it.value)).collect();
            Some(served::served_knapsack(&pairs, *capacity))
        }
        Body::Chain { .. } | Body::Multistage { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_semiring::Cost;

    fn mat(rows: usize, cols: usize, vals: &[i64]) -> Matrix<MinPlus> {
        Matrix::from_rows(
            rows,
            cols,
            vals.iter().map(|&v| MinPlus(Cost::new(v))).collect(),
        )
    }

    #[test]
    fn edit_bucket_of_three_matches_singles() {
        let b = |a: &str, bb: &str| Body::Edit {
            a: a.as_bytes().to_vec(),
            b: bb.as_bytes().to_vec(),
        };
        let bucket = vec![
            b("kitten", "sitting"),
            b("mitten", "fitting"),
            b("kitten", "kitting"),
        ];
        let batched = run_bucket_on(EngineKind::Sim, Class::Edit, &bucket);
        for (i, body) in bucket.iter().enumerate() {
            let single = run_bucket_on(EngineKind::Sim, Class::Edit, std::slice::from_ref(body));
            assert_eq!(batched[i], single[0], "instance {i}");
        }
    }

    #[test]
    fn multistage_bucket_matches_singles() {
        let s1 = vec![mat(2, 2, &[1, 5, 2, 0]), mat(2, 2, &[3, 1, 4, 1])];
        let s2 = vec![mat(2, 2, &[0, 2, 9, 1]), mat(2, 2, &[1, 1, 0, 7])];
        for design in [Class::Multistage1, Class::Multistage2] {
            let mk = |mats: &Vec<Matrix<MinPlus>>| Body::Multistage {
                design: if design == Class::Multistage1 { 1 } else { 2 },
                mats: mats.clone(),
            };
            let batched = run_bucket_on(EngineKind::Sim, design, &[mk(&s1), mk(&s2)]);
            let a = run_bucket_on(EngineKind::Sim, design, &[mk(&s1)]);
            let b = run_bucket_on(EngineKind::Sim, design, &[mk(&s2)]);
            assert_eq!(batched[0], a[0]);
            assert_eq!(batched[1], b[0]);
        }
    }

    #[test]
    fn batch_shape_error_reaches_every_rider() {
        let b1 = Body::Edit {
            a: b"ab".to_vec(),
            b: b"cd".to_vec(),
        };
        let b2 = Body::Edit {
            a: b"abc".to_vec(),
            b: b"cd".to_vec(),
        };
        let align = |matched| Body::Align {
            a: b"acacacta".to_vec(),
            b: b"agcacaca".to_vec(),
            matched,
            mismatched: -1,
            gap: 1,
        };
        let knapsack = |capacity| Body::Knapsack {
            items: vec![KnapsackItem::new(2, 3)],
            capacity,
        };
        let buckets = [
            (Class::Edit, vec![b1, b2]),
            (Class::Align, vec![align(2), align(3), align(2)]),
            (Class::Knapsack, vec![knapsack(7), knapsack(8)]),
        ];
        // Mixed lengths can only share a bucket through a coalescing
        // bug, mixed scoring or capacity only through a shape-key hash
        // collision.  Either way the engine must fail typed, for every
        // rider, on both backends — never answer under rider 0's
        // parameters.
        for (class, bodies) in &buckets {
            for kind in [EngineKind::Sim, EngineKind::Direct] {
                let out = run_bucket_on(kind, *class, bodies);
                assert_eq!(out.len(), bodies.len());
                for r in out {
                    assert_eq!(
                        r,
                        Err(SdpError::BatchShapeMismatch { index: 1 }),
                        "{class:?} {kind:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn direct_buckets_serve_bit_identical_payloads() {
        let mk_mats = |vals: [i64; 4]| mat(2, 2, &vals);
        let buckets: Vec<(Class, Vec<Body>)> = vec![
            (
                Class::Multistage1,
                vec![Body::Multistage {
                    design: 1,
                    mats: vec![mk_mats([1, 5, 2, 0]), mk_mats([3, 1, 4, 1])],
                }],
            ),
            (
                Class::Multistage2,
                vec![Body::Multistage {
                    design: 2,
                    mats: vec![mk_mats([0, 2, 9, 1]), mk_mats([1, 1, 0, 7])],
                }],
            ),
            (
                Class::Matmul,
                vec![Body::Matmul {
                    a: mat(2, 3, &[1, 2, 3, 4, 5, 6]),
                    b: mat(3, 2, &[6, 5, 4, 3, 2, 1]),
                }],
            ),
            (
                Class::Edit,
                vec![
                    Body::Edit {
                        a: b"kitten".to_vec(),
                        b: b"sitting".to_vec(),
                    },
                    Body::Edit {
                        a: b"mitten".to_vec(),
                        b: b"fitting".to_vec(),
                    },
                ],
            ),
            (
                Class::Chain,
                vec![Body::Chain {
                    dims: vec![10, 20, 50, 1],
                }],
            ),
            (
                Class::Bst,
                vec![Body::Bst {
                    freq: vec![3, 1, 4, 1, 5],
                }],
            ),
            (
                Class::Align,
                vec![
                    Body::Align {
                        a: b"acacacta".to_vec(),
                        b: b"agcacaca".to_vec(),
                        matched: 2,
                        mismatched: -1,
                        gap: 1,
                    },
                    Body::Align {
                        a: b"gattacaa".to_vec(),
                        b: b"gcatgcua".to_vec(),
                        matched: 2,
                        mismatched: -1,
                        gap: 1,
                    },
                ],
            ),
            (
                Class::Knapsack,
                vec![
                    Body::Knapsack {
                        items: vec![
                            KnapsackItem::new(1, 1),
                            KnapsackItem::new(3, 4),
                            KnapsackItem::new(4, 5),
                            KnapsackItem::new(5, 7),
                        ],
                        capacity: 7,
                    },
                    Body::Knapsack {
                        items: vec![KnapsackItem::new(2, 3)],
                        capacity: 7,
                    },
                ],
            ),
        ];
        for (class, bodies) in buckets {
            let sim = run_bucket_on(EngineKind::Sim, class, &bodies);
            let direct = run_bucket_on(EngineKind::Direct, class, &bodies);
            assert_eq!(sim, direct, "{class:?} direct payload diverged from sim");
            assert_eq!(
                run_bucket(class, &bodies),
                sim,
                "{class:?} served payload diverged from sim"
            );
            // Where the oracle can stand in, it renders the same bytes.
            for (body, served) in bodies.iter().zip(&sim) {
                if let Some(want) = oracle_payload(body) {
                    let got = served.as_ref().expect("payload").render();
                    assert_eq!(got, want.render(), "{class:?} oracle payload diverged");
                }
            }
        }
        // Chain carries engine-side `steps`, multistage engine-side
        // shape checks: the oracle cannot stand in for either.
        assert!(oracle_payload(&Body::Chain { dims: vec![2, 3] }).is_none());
        // Typed errors take the same shape on both paths.
        let bad = vec![Body::Chain { dims: vec![7] }];
        assert_eq!(
            run_bucket_on(EngineKind::Sim, Class::Chain, &bad),
            run_bucket_on(EngineKind::Direct, Class::Chain, &bad),
        );
    }

    #[test]
    fn choose_routes_by_work_measure() {
        let small = Body::Edit {
            a: b"ab".to_vec(),
            b: b"cd".to_vec(),
        };
        let big = Body::Edit {
            a: vec![b'a'; 100],
            b: vec![b'b'; 100],
        };
        assert_eq!(body_work(&small), 4);
        assert_eq!(body_work(&big), 10_000);
        assert_eq!(choose(std::slice::from_ref(&small), 4096), EngineKind::Sim);
        assert_eq!(choose(std::slice::from_ref(&big), 4096), EngineKind::Direct);
        assert_eq!(choose(&[big], u64::MAX), EngineKind::Sim, "MAX pins sim");
        assert_eq!(choose(&[small], 0), EngineKind::Direct);
        // AND/OR measures zero work, so any positive threshold keeps it
        // on the evaluator path.
        let mut g = sdp_andor::graph::AndOrGraph::new();
        let leaf = g.add_leaf(0, Cost::new(2));
        let andor = Body::AndOr {
            graph: g,
            root: leaf,
        };
        assert_eq!(body_work(&andor), 0);
        assert_eq!(choose(&[andor], 1), EngineKind::Sim);
        assert_eq!(choose(&[], 0), EngineKind::Sim, "empty bucket");
    }

    #[test]
    fn workload_buckets_match_singles_and_the_oracle_rendering() {
        let align = |a: &[u8], b: &[u8]| Body::Align {
            a: a.to_vec(),
            b: b.to_vec(),
            matched: 2,
            mismatched: -1,
            gap: 1,
        };
        let bucket = vec![
            align(b"acacacta", b"agcacaca"),
            align(b"aaaaaaaa", b"tttttttt"),
        ];
        let batched = run_bucket_on(EngineKind::Sim, Class::Align, &bucket);
        for (i, body) in bucket.iter().enumerate() {
            let single = run_bucket_on(EngineKind::Sim, Class::Align, std::slice::from_ref(body));
            assert_eq!(batched[i], single[0], "align instance {i}");
        }
        assert_eq!(
            batched[0].as_ref().unwrap().render(),
            sdp_oracle::served::served_align(b"acacacta", b"agcacaca", 2, -1, 1).render()
        );
        assert_eq!(
            batched[1].as_ref().unwrap().render(),
            r#"{"score":0,"end":null}"#
        );

        let sack = |items: &[(u64, u64)]| Body::Knapsack {
            items: items
                .iter()
                .map(|&(w, v)| KnapsackItem::new(w, v))
                .collect(),
            capacity: 7,
        };
        let bucket = vec![sack(&[(1, 1), (3, 4), (4, 5), (5, 7)]), sack(&[(2, 3)])];
        let batched = run_bucket_on(EngineKind::Sim, Class::Knapsack, &bucket);
        for (i, body) in bucket.iter().enumerate() {
            let single =
                run_bucket_on(EngineKind::Sim, Class::Knapsack, std::slice::from_ref(body));
            assert_eq!(batched[i], single[0], "knapsack instance {i}");
        }
        assert_eq!(
            batched[0].as_ref().unwrap().render(),
            sdp_oracle::served::served_knapsack(&[(1, 1), (3, 4), (4, 5), (5, 7)], 7).render()
        );
    }

    #[test]
    fn chain_and_bst_and_andor_run_singly() {
        let out = run_bucket_on(
            EngineKind::Sim,
            Class::Chain,
            &[Body::Chain {
                dims: vec![10, 20, 50, 1],
            }],
        );
        let payload = out[0].as_ref().unwrap().render();
        assert!(payload.contains("\"cost\":"));
        let out = run_bucket_on(
            EngineKind::Sim,
            Class::Bst,
            &[Body::Bst {
                freq: vec![3, 1, 4],
            }],
        );
        assert!(out[0].is_ok());
        let mut g = sdp_andor::graph::AndOrGraph::new();
        let l1 = g.add_leaf(0, Cost::new(2));
        let l2 = g.add_leaf(0, Cost::new(5));
        let a = g.add_and(1, vec![l1, l2], Cost::new(1));
        let out = run_bucket_on(
            EngineKind::Sim,
            Class::AndOr,
            &[Body::AndOr { graph: g, root: a }],
        );
        assert_eq!(out[0].as_ref().unwrap().render(), r#"{"value":8}"#);
    }
}
