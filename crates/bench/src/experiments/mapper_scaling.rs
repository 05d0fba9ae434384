//! Mapper scaling sweep: decision cost and solution quality of the mapping
//! strategies as the queue pool grows past the paper's node-scale regime.
//!
//! The paper justifies exact search by "the number of devices in
//! present-day nodes is not high" — true at Q=4, D=3, where the whole
//! space is 81 assignments. The serving layer pushes Q=64 pools at D=16,
//! where the space is 16^64 ≈ 10^77 and exhaustive search is physically
//! infeasible. This experiment sweeps Q∈{4..64} × D∈{2..16} over seeded
//! pseudo-random cost matrices (with twin-device symmetric columns, like
//! the paper node's twin GPUs), plus a *templated* arm where every row is a
//! copy of one of k ∈ {2,3,4} template rows (a serving pool built from a few
//! job kinds) at Q∈{16,32,64} × D∈{3,4}, and measures, per point:
//!
//! * greedy (LPT) makespan — the quality floor,
//! * greedy + local search makespan — the adaptive mapper's fallback,
//! * adaptive makespan, nodes explored, budget-tripped flag, and host
//!   wall-clock time per decision under the default node budget.
//!
//! [`verify`] asserts the tentpole claims: adaptive is never worse than
//! greedy anywhere, matches the enumerated optimum wherever enumeration is
//! feasible (counting identical rows once per device-count vector, so the
//! smaller templated pools are checked too — and must not trip the node
//! budget there), and stays within a per-decision wall-clock budget even at
//! Q=64, D=16.

use crate::harness::Table;
use hwsim::xrand::XorShift;
use hwsim::SimDuration;
use multicl::mapper;
use std::time::{Duration, Instant};

/// One (Q, D) measurement.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Queues in the pool.
    pub queues: usize,
    /// Devices in the node.
    pub devices: usize,
    /// Template rows the pool is built from; `None` when every row is drawn
    /// independently.
    pub kinds: Option<usize>,
    /// `D^Q` if it fits in `u128` — the exhaustive-search space size.
    pub space: Option<u128>,
    /// Plain LPT-greedy makespan.
    pub greedy: SimDuration,
    /// Greedy refined by move/swap local search.
    pub refined: SimDuration,
    /// Adaptive (budgeted exact search) makespan.
    pub adaptive: SimDuration,
    /// Branch-and-bound nodes the adaptive mapper explored.
    pub nodes: u64,
    /// Whether the adaptive node budget tripped (heuristic answer).
    pub tripped: bool,
    /// Fastest observed host wall-clock time for the adaptive decision.
    pub wall: Duration,
    /// Enumerated optimum, where [`enumerated_optimum`] can brute-force it.
    pub brute: Option<SimDuration>,
}

/// The sweep grid as (Q, D, template kinds): full (the acceptance grid, up
/// to Q=64 × D=16, then the templated arm) or smoke (a small prefix plus one
/// templated point, for CI).
pub fn grid(smoke: bool) -> Vec<(usize, usize, Option<usize>)> {
    let (qs, ds): (&[usize], &[usize]) =
        if smoke { (&[4, 8, 16], &[2, 4]) } else { (&[4, 8, 16, 32, 64], &[2, 4, 8, 16]) };
    let mut grid = Vec::new();
    for &q in qs {
        for &d in ds {
            grid.push((q, d, None));
        }
    }
    if smoke {
        grid.push((32, 4, Some(2)));
        return grid;
    }
    for k in [2, 3, 4] {
        for q in [16, 32, 64] {
            for d in [3, 4] {
                grid.push((q, d, Some(k)));
            }
        }
    }
    grid
}

/// Seeded cost matrix with paper-like structure: each device has a speed
/// factor and each queue a work size; half the devices are twinned
/// (identical columns), exercising the symmetric-device dedup exactly as a
/// node with k identical accelerators would. Per-(queue, distinct-device)
/// noise keeps the rest of the matrix unrelated-machines hard.
pub fn cost_matrix(rng: &mut XorShift, queues: usize, devices: usize) -> mapper::CostMatrix {
    // Distinct speed per device pair: devices 2k and 2k+1 are twins.
    let speeds: Vec<u64> = (0..devices.div_ceil(2)).map(|_| rng.range_u64(2, 12)).collect();
    (0..queues)
        .map(|_| {
            let work = rng.range_u64(50, 5_000);
            let mut row = Vec::with_capacity(devices);
            for &speed in &speeds {
                let noise = rng.range_u64(0, 200);
                let cost = SimDuration::from_micros(work * speed / 4 + noise + 1);
                row.push(cost);
                if row.len() < devices {
                    row.push(cost); // the twin: an identical column
                }
            }
            row.truncate(devices);
            row
        })
        .collect()
}

/// A templated pool: `kinds` template rows drawn by [`cost_matrix`] (so with
/// its twin columns), and every queue a copy of a random one of them.
pub fn templated_cost_matrix(
    rng: &mut XorShift,
    queues: usize,
    devices: usize,
    kinds: usize,
) -> mapper::CostMatrix {
    let templates = cost_matrix(rng, kinds, devices);
    (0..queues).map(|_| templates[rng.index(kinds)].clone()).collect()
}

/// Optimal makespan by exhaustive enumeration, or `None` when the space is
/// larger than [`mapper::MAX_ENUMERATION`]. Queues with identical rows are
/// interchangeable, so only how many of each row group land on each device
/// matters: the space is the product over groups of
/// `C(size + D - 1, D - 1)`, which is `D^Q` when every row is distinct.
pub fn enumerated_optimum(costs: &mapper::CostMatrix, devices: usize) -> Option<SimDuration> {
    let mut groups: Vec<(&[SimDuration], u64)> = Vec::new();
    for row in costs {
        match groups.iter_mut().find(|(r, _)| *r == row.as_slice()) {
            Some(group) => group.1 += 1,
            None => groups.push((row, 1)),
        }
    }
    let multisets = |n: u64| (1..devices as u128).fold(1u128, |c, i| c * (n as u128 + i) / i);
    let space = groups.iter().try_fold(1u128, |acc, &(_, n)| acc.checked_mul(multisets(n)))?;
    if space > mapper::MAX_ENUMERATION as u128 {
        return None;
    }
    // Depth-first over (group, device): `left` members of the current group
    // are still to place on devices `d..`.
    fn place(
        groups: &[(&[SimDuration], u64)],
        g: usize,
        d: usize,
        left: u64,
        load: &mut [SimDuration],
        best: &mut SimDuration,
    ) {
        let Some(&(row, _)) = groups.get(g) else {
            *best = (*best).min(load.iter().copied().max().unwrap_or(SimDuration::ZERO));
            return;
        };
        if d + 1 == load.len() {
            load[d] += row[d] * left;
            let next = groups.get(g + 1).map_or(0, |&(_, size)| size);
            place(groups, g + 1, 0, next, load, best);
            load[d] -= row[d] * left;
            return;
        }
        for n in 0..=left {
            load[d] += row[d] * n;
            place(groups, g, d + 1, left - n, load, best);
            load[d] -= row[d] * n;
        }
    }
    let mut load = vec![SimDuration::ZERO; devices];
    let mut best = SimDuration::from_nanos(u64::MAX);
    let first = groups.first().map_or(0, |&(_, size)| size);
    place(&groups, 0, 0, first, &mut load, &mut best);
    Some(best)
}

/// Measure one grid point.
pub fn run_point(queues: usize, devices: usize, kinds: Option<usize>, seed: u64) -> ScalingPoint {
    let mut rng = XorShift::new(
        seed ^ ((queues as u64) << 32) ^ devices as u64 ^ ((kinds.unwrap_or(0) as u64) << 16),
    );
    let costs = match kinds {
        Some(k) => templated_cost_matrix(&mut rng, queues, devices, k),
        None => cost_matrix(&mut rng, queues, devices),
    };
    let greedy = mapper::greedy(&costs).makespan;
    let refined = mapper::greedy_refined(&costs).makespan;

    let mut scratch = mapper::MapperScratch::new();
    let budget = multicl::DEFAULT_ADAPTIVE_NODE_BUDGET;
    let mut outcome = None;
    let mut wall = Duration::MAX;
    // Three timed runs; keep the fastest wall time (the decision itself is
    // deterministic, so any run's outcome will do).
    for _ in 0..3 {
        let t0 = Instant::now();
        let out = mapper::adaptive(&costs, None, budget, &mut scratch);
        wall = wall.min(t0.elapsed());
        outcome = Some(out);
    }
    let outcome = outcome.expect("three runs happened");

    let space = (devices as u128).checked_pow(queues as u32);
    let brute = enumerated_optimum(&costs, devices);

    ScalingPoint {
        queues,
        devices,
        kinds,
        space,
        greedy,
        refined,
        adaptive: outcome.mapping.makespan,
        nodes: outcome.nodes_explored,
        tripped: outcome.budget_tripped,
        wall,
        brute,
    }
}

/// Run the sweep.
pub fn run(smoke: bool, seed: u64) -> Vec<ScalingPoint> {
    grid(smoke).into_iter().map(|(q, d, k)| run_point(q, d, k, seed)).collect()
}

/// Assert the sweep's quality and decision-cost claims; returns an error
/// naming the first violated point. `wall_budget` is the per-decision
/// host-time ceiling (use a generous value for unoptimized builds).
pub fn verify(points: &[ScalingPoint], wall_budget: Duration) -> Result<(), String> {
    for p in points {
        let at = match p.kinds {
            Some(k) => format!("Q={} D={} k={k}", p.queues, p.devices),
            None => format!("Q={} D={}", p.queues, p.devices),
        };
        if p.refined > p.greedy {
            return Err(format!("{at}: local search worsened greedy"));
        }
        if p.adaptive > p.greedy {
            return Err(format!(
                "{at}: adaptive makespan {:?} exceeds greedy {:?}",
                p.adaptive, p.greedy
            ));
        }
        if p.adaptive > p.refined {
            return Err(format!("{at}: adaptive worse than its own fallback"));
        }
        if let Some(brute) = p.brute {
            if p.tripped {
                // Tripping on an enumerable instance (for templated rows:
                // one with few device-count vectors) would mean the budget
                // is absurdly small or identical rows are branched on per
                // permutation; quality is still ≥ greedy, but flag it.
                return Err(format!("{at}: budget tripped on an enumerable instance"));
            }
            if p.adaptive != brute {
                return Err(format!(
                    "{at}: adaptive {:?} != enumerated optimum {brute:?}",
                    p.adaptive
                ));
            }
        }
        if p.wall > wall_budget {
            return Err(format!("{at}: decision took {:?}, budget {:?}", p.wall, wall_budget));
        }
    }
    // The acceptance point: exact search at the top of the grid is not
    // just slow but physically infeasible, while adaptive handled it.
    if let Some(top) = points.iter().max_by_key(|p| (p.queues, p.devices)) {
        let enumerable = top.space.is_some_and(|s| s <= mapper::MAX_ENUMERATION as u128);
        if top.queues >= 64 && enumerable {
            return Err(format!(
                "Q={} D={} unexpectedly enumerable — grid too small to show scaling",
                top.queues, top.devices
            ));
        }
    }
    Ok(())
}

/// Render the sweep.
pub fn table(points: &[ScalingPoint]) -> Table {
    let mut t = Table::new(
        "Mapper scaling: decision cost and quality vs pool size (makespans in virtual ms)",
        &[
            "Q",
            "D",
            "rows",
            "space",
            "greedy",
            "greedy+LS",
            "adaptive",
            "adapt/greedy",
            "nodes",
            "tripped",
            "wall µs",
        ],
    );
    for p in points {
        let space = match p.space {
            Some(s) if s < 1_000_000 => format!("{s}"),
            Some(s) => format!("~10^{}", (s as f64).log10() as u32),
            None => ">10^38".to_string(),
        };
        let ratio = if p.greedy.as_nanos() == 0 {
            1.0
        } else {
            p.adaptive.as_nanos() as f64 / p.greedy.as_nanos() as f64
        };
        t.row(vec![
            p.queues.to_string(),
            p.devices.to_string(),
            p.kinds.map_or("random".to_string(), |k| format!("{k} kinds")),
            space,
            format!("{:.3}", p.greedy.as_millis_f64()),
            format!("{:.3}", p.refined.as_millis_f64()),
            format!("{:.3}", p.adaptive.as_millis_f64()),
            format!("{ratio:.4}"),
            p.nodes.to_string(),
            p.tripped.to_string(),
            format!("{}", p.wall.as_micros()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_passes_verification() {
        let points = run(true, 42);
        assert_eq!(points.len(), grid(true).len());
        // Debug builds are slow; the wall budget here only guards against
        // runaway search, not CI noise.
        verify(&points, Duration::from_secs(10)).expect("smoke sweep must verify");
    }

    #[test]
    fn twin_devices_produce_identical_columns() {
        let mut rng = XorShift::new(7);
        let costs = cost_matrix(&mut rng, 6, 4);
        for row in &costs {
            assert_eq!(row[0], row[1], "devices 0/1 are twins");
            assert_eq!(row[2], row[3], "devices 2/3 are twins");
        }
    }

    #[test]
    fn verify_catches_a_planted_quality_violation() {
        let mut points = run(true, 1);
        points[0].adaptive = points[0].greedy + SimDuration::from_millis(1);
        let err = verify(&points, Duration::from_secs(10)).unwrap_err();
        assert!(err.contains("exceeds greedy"), "{err}");
    }

    #[test]
    fn top_of_the_full_grid_is_not_enumerable() {
        // 16^64 overflows u128 — the acceptance point's exact-search
        // infeasibility is structural, not a tuning accident.
        assert_eq!((16u128).checked_pow(64), None);
        let top = grid(false).into_iter().filter(|p| p.2.is_none()).max().unwrap();
        assert_eq!(top, (64, 16, None));
    }

    #[test]
    fn grouped_enumeration_matches_plain_enumeration() {
        let mut rng = XorShift::new(11);
        for (q, d, k) in [(6, 3, None), (7, 3, Some(2)), (6, 4, Some(3))] {
            let costs = match k {
                Some(k) => templated_cost_matrix(&mut rng, q, d, k),
                None => cost_matrix(&mut rng, q, d),
            };
            let mut load = vec![SimDuration::ZERO; d];
            let plain = mapper::enumerate_assignments(q, d)
                .into_iter()
                .map(|a| mapper::makespan(&costs, &a, &mut load))
                .min();
            assert_eq!(enumerated_optimum(&costs, d), plain, "Q={q} D={d} k={k:?}");
        }
    }

    #[test]
    fn verify_catches_a_budget_trip_on_templated_rows() {
        let mut points = run(true, 3);
        // The smoke grid's templated point is checked by enumeration, so a
        // trip there fails the sweep.
        let templated = points.iter_mut().find(|p| p.kinds.is_some()).unwrap();
        assert!(templated.brute.is_some());
        templated.tripped = true;
        let err = verify(&points, Duration::from_secs(10)).unwrap_err();
        assert!(err.contains("k=2: budget tripped on an enumerable instance"), "{err}");
    }
}
