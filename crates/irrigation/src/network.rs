//! Canal water-distribution network (CBEC pilot).
//!
//! The Consorzio di Bonifica Emilia Centrale's primary goal is "optimizing
//! water distribution to the farms": a shared canal tree with finite segment
//! capacities must be divided among farms whose demands exceed supply in a
//! dry week. This module models the canal tree and implements two
//! allocation policies compared in experiment E10:
//!
//! - **Greedy upstream-first** — what an uncoordinated canal does
//!   physically: upstream offtakes fill first, tail-enders starve.
//! - **Max–min fairness** (progressive filling) — what the SWAMP platform
//!   computes centrally from telemetered demands, maximizing the minimum
//!   satisfaction ratio subject to capacities.

use std::collections::BTreeMap;

/// Identifies a junction in the canal tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JunctionId(pub usize);

/// Identifies a farm offtake.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FarmId(pub usize);

#[derive(Clone, Debug)]
struct Junction {
    parent: Option<JunctionId>,
    /// Capacity of the segment from the parent, m³/day.
    capacity_m3: f64,
}

#[derive(Clone, Debug)]
struct Farm {
    junction: JunctionId,
    demand_m3: f64,
    /// Gate state: a closed gate receives nothing (maintenance or attack).
    gate_open: bool,
}

/// Result of one allocation round.
#[derive(Clone, Debug, PartialEq)]
pub struct Allocation {
    /// Water allocated to each farm, m³/day (indexed by `FarmId.0`).
    pub per_farm_m3: Vec<f64>,
}

impl Allocation {
    /// Total water delivered, m³/day.
    pub fn total_m3(&self) -> f64 {
        self.per_farm_m3.iter().sum()
    }

    /// Jain's fairness index over per-farm *satisfaction ratios*.
    ///
    /// 1.0 = perfectly equal satisfaction; 1/n = one farm takes all.
    /// Farms with zero demand are excluded.
    pub fn jain_fairness(&self, demands: &[f64]) -> f64 {
        let ratios: Vec<f64> = self
            .per_farm_m3
            .iter()
            .zip(demands)
            .filter(|(_, &d)| d > 0.0)
            .map(|(&a, &d)| a / d)
            .collect();
        if ratios.is_empty() {
            return 1.0;
        }
        let sum: f64 = ratios.iter().sum();
        let sum_sq: f64 = ratios.iter().map(|r| r * r).sum();
        if sum_sq == 0.0 {
            return 1.0;
        }
        sum * sum / (ratios.len() as f64 * sum_sq)
    }
}

/// The canal tree: junctions with capacitated parent segments, farms at
/// junctions.
///
/// # Example
/// ```
/// use swamp_irrigation::network::DistributionNetwork;
/// let mut net = DistributionNetwork::new(1000.0);
/// let j = net.add_junction(net.root(), 400.0);
/// let f1 = net.add_farm(j, 300.0);
/// let f2 = net.add_farm(j, 300.0);
/// let alloc = net.allocate_max_min();
/// // The 400 m³ segment is shared equally.
/// assert!((alloc.per_farm_m3[f1.0] - 200.0).abs() < 1e-6);
/// assert!((alloc.per_farm_m3[f2.0] - 200.0).abs() < 1e-6);
/// ```
#[derive(Clone, Debug)]
pub struct DistributionNetwork {
    junctions: Vec<Junction>,
    farms: Vec<Farm>,
}

impl DistributionNetwork {
    /// Creates a network with a root junction fed at `source_capacity_m3`
    /// per day.
    pub fn new(source_capacity_m3: f64) -> Self {
        assert!(source_capacity_m3 >= 0.0);
        DistributionNetwork {
            junctions: vec![Junction {
                parent: None,
                capacity_m3: source_capacity_m3,
            }],
            farms: Vec::new(),
        }
    }

    /// The root junction (the source headworks).
    pub fn root(&self) -> JunctionId {
        JunctionId(0)
    }

    /// Adds a junction fed from `parent` through a segment of the given
    /// capacity. Returns its id.
    ///
    /// # Panics
    /// Panics if `parent` does not exist or capacity is negative.
    pub fn add_junction(&mut self, parent: JunctionId, capacity_m3: f64) -> JunctionId {
        assert!(parent.0 < self.junctions.len(), "unknown junction");
        assert!(capacity_m3 >= 0.0);
        self.junctions.push(Junction {
            parent: Some(parent),
            capacity_m3,
        });
        JunctionId(self.junctions.len() - 1)
    }

    /// Adds a farm offtake at a junction with a daily demand. Returns its id.
    ///
    /// # Panics
    /// Panics if the junction does not exist or demand is negative.
    pub fn add_farm(&mut self, junction: JunctionId, demand_m3: f64) -> FarmId {
        assert!(junction.0 < self.junctions.len(), "unknown junction");
        assert!(demand_m3 >= 0.0);
        self.farms.push(Farm {
            junction,
            demand_m3,
            gate_open: true,
        });
        FarmId(self.farms.len() - 1)
    }

    /// All current demands, indexed by farm id.
    pub fn demands(&self) -> Vec<f64> {
        self.farms.iter().map(|f| f.demand_m3).collect()
    }

    /// Opens or closes a farm's gate.
    pub fn set_gate(&mut self, farm: FarmId, open: bool) {
        self.farms[farm.0].gate_open = open;
    }

    /// The chain of segment indices (junction ids) from a junction to root,
    /// including the junction itself.
    fn path_to_root(&self, mut j: JunctionId) -> Vec<usize> {
        let mut path = vec![j.0];
        while let Some(p) = self.junctions[j.0].parent {
            path.push(p.0);
            j = p;
        }
        path
    }

    fn effective_demand(&self, farm: &Farm) -> f64 {
        if farm.gate_open {
            farm.demand_m3
        } else {
            0.0
        }
    }

    /// Greedy upstream-first allocation: farms are served in id order (which
    /// pilots construct upstream-to-downstream), each taking as much of its
    /// demand as residual capacities on its path allow.
    pub fn allocate_greedy_upstream(&self) -> Allocation {
        let mut residual: Vec<f64> = self.junctions.iter().map(|j| j.capacity_m3).collect();
        let mut per_farm = vec![0.0; self.farms.len()];
        for (i, farm) in self.farms.iter().enumerate() {
            let path = self.path_to_root(farm.junction);
            let available = path
                .iter()
                .map(|&seg| residual[seg])
                .fold(f64::INFINITY, f64::min);
            let take = self.effective_demand(farm).min(available).max(0.0);
            for &seg in &path {
                residual[seg] -= take;
            }
            per_farm[i] = take;
        }
        Allocation {
            per_farm_m3: per_farm,
        }
    }

    /// Max–min fair allocation by progressive filling: all unfrozen farms'
    /// allocations rise together until a segment saturates (freezing every
    /// farm through it) or a farm reaches its demand.
    pub fn allocate_max_min(&self) -> Allocation {
        let n = self.farms.len();
        let mut alloc = vec![0.0; n];
        let mut frozen = vec![false; n];
        let mut residual: Vec<f64> = self.junctions.iter().map(|j| j.capacity_m3).collect();
        let paths: Vec<Vec<usize>> = self
            .farms
            .iter()
            .map(|f| self.path_to_root(f.junction))
            .collect();
        // Farms with zero effective demand are frozen from the start.
        for (i, f) in self.farms.iter().enumerate() {
            if self.effective_demand(f) <= 0.0 {
                frozen[i] = true;
            }
        }

        for _ in 0..n + self.junctions.len() + 1 {
            let active: Vec<usize> = (0..n).filter(|&i| !frozen[i]).collect();
            if active.is_empty() {
                break;
            }
            // Count active farms through each segment.
            let mut through: BTreeMap<usize, usize> = BTreeMap::new();
            for &i in &active {
                for &seg in &paths[i] {
                    *through.entry(seg).or_insert(0) += 1;
                }
            }
            // Largest equal increment every active farm can take.
            let mut step = f64::INFINITY;
            for (&seg, &count) in &through {
                step = step.min(residual[seg] / count as f64);
            }
            for &i in &active {
                let remaining = self.effective_demand(&self.farms[i]) - alloc[i];
                step = step.min(remaining);
            }
            if step <= 1e-12 {
                // A segment is exactly saturated: freeze its farms.
                for &seg in through.keys() {
                    if residual[seg] <= 1e-9 {
                        for &i in &active {
                            if paths[i].contains(&seg) {
                                frozen[i] = true;
                            }
                        }
                    }
                }
                // Or a farm is exactly satisfied.
                for &i in &active {
                    if self.effective_demand(&self.farms[i]) - alloc[i] <= 1e-9 {
                        frozen[i] = true;
                    }
                }
                continue;
            }
            for &i in &active {
                alloc[i] += step;
                for &seg in &paths[i] {
                    residual[seg] -= step;
                }
            }
            // Freeze saturated farms/segments for the next round.
            for &i in &active {
                if self.effective_demand(&self.farms[i]) - alloc[i] <= 1e-9 {
                    frozen[i] = true;
                }
            }
            for &seg in through.keys() {
                if residual[seg] <= 1e-9 {
                    for i in 0..n {
                        if !frozen[i] && paths[i].contains(&seg) {
                            frozen[i] = true;
                        }
                    }
                }
            }
        }
        Allocation { per_farm_m3: alloc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Source(1000) → trunk(600) → {farmA(400), branch(300) → {farmB(400),
    /// farmC(200)}}; plus farmD(300) directly at the source.
    fn cbec_like() -> (DistributionNetwork, [FarmId; 4]) {
        cbec_with_c_demand(200.0)
    }

    fn cbec_with_c_demand(c_demand_m3: f64) -> (DistributionNetwork, [FarmId; 4]) {
        let mut net = DistributionNetwork::new(1000.0);
        let trunk = net.add_junction(net.root(), 600.0);
        let branch = net.add_junction(trunk, 300.0);
        let a = net.add_farm(trunk, 400.0);
        let b = net.add_farm(branch, 400.0);
        let c = net.add_farm(branch, c_demand_m3);
        let d = net.add_farm(net.root(), 300.0);
        (net, [a, b, c, d])
    }

    #[test]
    fn greedy_starves_tail_enders() {
        let (net, [a, b, c, d]) = cbec_like();
        let alloc = net.allocate_greedy_upstream();
        // A takes its full 400 from the 600 trunk; branch limited to 200
        // left; B takes it all; C gets nothing.
        assert_eq!(alloc.per_farm_m3[a.0], 400.0);
        assert_eq!(alloc.per_farm_m3[b.0], 200.0);
        assert_eq!(alloc.per_farm_m3[c.0], 0.0);
        assert_eq!(alloc.per_farm_m3[d.0], 300.0);
    }

    #[test]
    fn max_min_shares_bottlenecks() {
        let (net, [a, b, c, d]) = cbec_like();
        let alloc = net.allocate_max_min();
        // Branch (300) shared: B and C rise together; C freezes at... both
        // rise to 150 each (segment saturates at 150+150=300).
        assert!((alloc.per_farm_m3[b.0] - 150.0).abs() < 1e-6);
        assert!((alloc.per_farm_m3[c.0] - 150.0).abs() < 1e-6);
        // Trunk 600 minus branch 300 leaves A 300.
        assert!((alloc.per_farm_m3[a.0] - 300.0).abs() < 1e-6);
        assert!((alloc.per_farm_m3[d.0] - 300.0).abs() < 1e-6);
    }

    #[test]
    fn max_min_is_fairer_than_greedy() {
        let (net, _) = cbec_like();
        let demands = net.demands();
        let fair = net.allocate_max_min().jain_fairness(&demands);
        let greedy = net.allocate_greedy_upstream().jain_fairness(&demands);
        assert!(fair > greedy, "fair {fair:.3} vs greedy {greedy:.3}");
    }

    #[test]
    fn abundant_supply_satisfies_everyone() {
        let mut net = DistributionNetwork::new(10_000.0);
        let j = net.add_junction(net.root(), 5_000.0);
        let f1 = net.add_farm(j, 100.0);
        let f2 = net.add_farm(j, 250.0);
        for alloc in [net.allocate_max_min(), net.allocate_greedy_upstream()] {
            assert!((alloc.per_farm_m3[f1.0] - 100.0).abs() < 1e-6);
            assert!((alloc.per_farm_m3[f2.0] - 250.0).abs() < 1e-6);
            assert!((alloc.jain_fairness(&net.demands()) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn capacity_never_exceeded() {
        let (net, _) = cbec_like();
        for alloc in [net.allocate_max_min(), net.allocate_greedy_upstream()] {
            assert!(alloc.total_m3() <= 1000.0 + 1e-6);
            // Branch constraint: farms B and C together ≤ 300.
            assert!(alloc.per_farm_m3[1] + alloc.per_farm_m3[2] <= 300.0 + 1e-6);
            // Trunk constraint: A+B+C ≤ 600.
            assert!(
                alloc.per_farm_m3[0] + alloc.per_farm_m3[1] + alloc.per_farm_m3[2] <= 600.0 + 1e-6
            );
        }
    }

    #[test]
    fn closed_gate_excluded_and_water_redistributed() {
        let (mut net, [a, b, c, _d]) = cbec_like();
        net.set_gate(a, false);
        let alloc = net.allocate_max_min();
        assert_eq!(alloc.per_farm_m3[a.0], 0.0);
        // The 300-capacity branch still binds B and C, but they now share
        // the whole branch without competing with A for the trunk.
        assert!((alloc.per_farm_m3[b.0] - 150.0).abs() < 1e-6);
        assert!((alloc.per_farm_m3[c.0] - 150.0).abs() < 1e-6);
    }

    #[test]
    fn a_small_demand_leaves_its_branch_to_the_sibling() {
        let (net, [_, b, c, _]) = cbec_with_c_demand(50.0);
        let alloc = net.allocate_max_min();
        // C freezes at 50, B gets the rest of the 300 branch up to demand.
        assert!((alloc.per_farm_m3[c.0] - 50.0).abs() < 1e-6);
        assert!((alloc.per_farm_m3[b.0] - 250.0).abs() < 1e-6);
    }

    #[test]
    fn allocation_never_exceeds_demand() {
        let (net, _) = cbec_like();
        for alloc in [net.allocate_max_min(), net.allocate_greedy_upstream()] {
            for (got, want) in alloc.per_farm_m3.iter().zip(net.demands()) {
                assert!(*got <= want + 1e-9);
            }
        }
    }

    #[test]
    fn zero_demand_farm_is_ignored() {
        let mut net = DistributionNetwork::new(100.0);
        let f0 = net.add_farm(net.root(), 0.0);
        let f1 = net.add_farm(net.root(), 80.0);
        let alloc = net.allocate_max_min();
        assert_eq!(alloc.per_farm_m3[f0.0], 0.0);
        assert!((alloc.per_farm_m3[f1.0] - 80.0).abs() < 1e-6);
    }

    #[test]
    fn jain_fairness_extremes() {
        let demands = vec![100.0, 100.0];
        let equal = Allocation {
            per_farm_m3: vec![50.0, 50.0],
        };
        assert!((equal.jain_fairness(&demands) - 1.0).abs() < 1e-9);
        let skewed = Allocation {
            per_farm_m3: vec![100.0, 0.0],
        };
        assert!((skewed.jain_fairness(&demands) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn deep_chain_bottleneck() {
        // Source → j1(100) → j2(50) → farm(80): limited by the 50 segment.
        let mut net = DistributionNetwork::new(1000.0);
        let j1 = net.add_junction(net.root(), 100.0);
        let j2 = net.add_junction(j1, 50.0);
        let f = net.add_farm(j2, 80.0);
        for alloc in [net.allocate_max_min(), net.allocate_greedy_upstream()] {
            assert!((alloc.per_farm_m3[f.0] - 50.0).abs() < 1e-6);
        }
    }
}
