//! Schedule domains.
//!
//! Linux groups CPUs into a hierarchy of *schedule domains* based on shared
//! resources — SMT siblings at the bottom, LLC/socket groups above, the whole
//! machine at the top — and scopes its balancing and wake-placement
//! heuristics to them.
//!
//! Inside a cloud VM the hypervisor exposes vCPUs as flat, symmetric,
//! UMA-topology CPUs (paper §1), so the default [`DomainTree`] built here is
//! a single level spanning every vCPU: SMT-aware and LLC-aware optimizations
//! are inert, exactly as the paper observes. `vtop` rebuilds the tree at
//! runtime from probed topology (the paper's kernel module calls
//! `rebuild_sched_domains`), which switches those heuristics back on.

use crate::cpumask::CpuMask;
use crate::kernel::VcpuId;

/// The perceived vCPU topology, as three sibling lists per vCPU — the exact
/// representation the paper's kernel module stores ("the probed topology is
/// stored as three lists for each vCPU", §4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerceivedTopology {
    /// Number of vCPUs.
    pub nr_vcpus: usize,
    /// For each vCPU, the set of vCPUs stacked on the same hardware thread
    /// (including itself when stacked; empty set = not stacked).
    pub stacked: Vec<CpuMask>,
    /// For each vCPU, the set of vCPUs on the same physical core (SMT
    /// siblings, including itself).
    pub smt: Vec<CpuMask>,
    /// For each vCPU, the set of vCPUs in the same socket / LLC domain
    /// (including itself).
    pub socket: Vec<CpuMask>,
}

impl PerceivedTopology {
    /// The default abstraction a VM boots with: no SMT siblings, no
    /// stacking, and one UMA domain spanning all vCPUs.
    pub fn flat(nr_vcpus: usize) -> Self {
        let all = CpuMask::first_n(nr_vcpus);
        Self {
            nr_vcpus,
            stacked: vec![CpuMask::empty(); nr_vcpus],
            smt: (0..nr_vcpus).map(CpuMask::single).collect(),
            socket: vec![all; nr_vcpus],
        }
    }

    /// Builds a topology from explicit SMT sibling groups and socket groups.
    /// Groups must partition `0..nr_vcpus`; vCPUs not mentioned in
    /// `smt_groups` are their own core, and vCPUs not mentioned in
    /// `socket_groups` share one socket with all other unmentioned vCPUs.
    pub fn from_groups(
        nr_vcpus: usize,
        stacked_groups: &[Vec<usize>],
        smt_groups: &[Vec<usize>],
        socket_groups: &[Vec<usize>],
    ) -> Self {
        let mut t = Self::flat(nr_vcpus);
        for g in stacked_groups {
            let m = CpuMask::from_iter(g.iter().copied());
            for &v in g {
                t.stacked[v] = m;
            }
        }
        for g in smt_groups {
            let m = CpuMask::from_iter(g.iter().copied());
            for &v in g {
                t.smt[v] = m;
            }
        }
        if !socket_groups.is_empty() {
            let mentioned: Vec<usize> = socket_groups.iter().flatten().copied().collect();
            let rest: Vec<usize> = (0..nr_vcpus).filter(|v| !mentioned.contains(v)).collect();
            let rest_mask = CpuMask::from_iter(rest.iter().copied());
            for &v in &rest {
                t.socket[v] = rest_mask;
            }
            for g in socket_groups {
                let m = CpuMask::from_iter(g.iter().copied());
                for &v in g {
                    t.socket[v] = m;
                }
            }
        }
        t
    }

    /// Whether vCPU `v` is stacked with any other vCPU.
    pub fn is_stacked(&self, v: VcpuId) -> bool {
        self.stacked[v.0].count() > 1
    }
}

/// One level of the domain hierarchy: the vCPUs' groups at that level.
#[derive(Debug, Clone)]
pub struct DomainLevel {
    /// Human-readable level name ("SMT", "LLC", "MC").
    pub name: &'static str,
    /// The vCPU groups at this level. A perceived topology can make them
    /// overlap; a vCPU then belongs to the first group holding it.
    groups: Vec<CpuMask>,
    /// For each vCPU, the position in `groups` of the first group holding
    /// it (`NO_GROUP` where none does), up to the highest vCPU any group
    /// holds. Empty for a one-group level, which needs no table.
    first_group: Vec<u16>,
}

/// `DomainLevel::first_group`'s entry for a vCPU no group holds.
const NO_GROUP: u16 = u16::MAX;

impl DomainLevel {
    /// A level of `groups`, indexing each vCPU's first group.
    fn new(name: &'static str, groups: Vec<CpuMask>) -> Self {
        let mut first_group = Vec::new();
        if groups.len() > 1 {
            let held = groups.iter().fold(CpuMask::empty(), |u, g| u.or(g));
            first_group = vec![NO_GROUP; held.iter().last().map_or(0, |c| c + 1)];
            for (i, g) in groups.iter().enumerate() {
                let i = u16::try_from(i).expect("a level has at most MAX_CPUS groups");
                for c in g.iter() {
                    if first_group[c] == NO_GROUP {
                        first_group[c] = i;
                    }
                }
            }
        }
        Self {
            name,
            groups,
            first_group,
        }
    }

    /// The groups at this level.
    pub fn groups(&self) -> &[CpuMask] {
        &self.groups
    }

    /// The first group containing `v`, if any.
    pub fn group_of(&self, v: VcpuId) -> Option<&CpuMask> {
        let found = if self.first_group.is_empty() {
            self.groups.first().filter(|g| g.contains(v.0))
        } else {
            match self.first_group.get(v.0) {
                Some(&i) if i != NO_GROUP => Some(&self.groups[usize::from(i)]),
                _ => None,
            }
        };
        #[cfg(feature = "shadow")]
        assert_eq!(
            found.map(|g| g as *const CpuMask),
            self.groups
                .iter()
                .find(|g| g.contains(v.0))
                .map(|g| g as *const CpuMask),
            "shadow: {} group of vCPU {}",
            self.name,
            v.0
        );
        found
    }
}

/// The full domain hierarchy, lowest (most local) level first.
#[derive(Debug, Clone)]
pub struct DomainTree {
    levels: Vec<DomainLevel>,
    /// Position of the SMT level in `levels`, if there is one.
    smt: Option<usize>,
    /// Position of the LLC level in `levels`, if there is one.
    llc: Option<usize>,
}

impl DomainTree {
    /// The default single-level tree for the flat/UMA abstraction.
    pub fn flat(nr_vcpus: usize) -> Self {
        Self {
            levels: vec![DomainLevel::new("MC", vec![CpuMask::first_n(nr_vcpus)])],
            smt: None,
            llc: None,
        }
    }

    /// Rebuilds the hierarchy from a perceived topology
    /// (`rebuild_sched_domains` in the paper's kernel module).
    ///
    /// SMT groups with more than one member form the SMT level; socket
    /// groups form the LLC level; a machine-wide level is always present.
    pub fn rebuild(topo: &PerceivedTopology) -> Self {
        let mut levels = Vec::new();
        let mut has_smt = false;

        let mut smt_groups: Vec<CpuMask> = Vec::new();
        let mut seen = CpuMask::empty();
        for v in 0..topo.nr_vcpus {
            if seen.contains(v) {
                continue;
            }
            let g = topo.smt[v];
            if g.count() > 1 {
                has_smt = true;
            }
            smt_groups.push(g);
            seen = seen.or(&g);
        }
        if has_smt {
            levels.push(DomainLevel::new("SMT", smt_groups));
        }

        let mut socket_groups: Vec<CpuMask> = Vec::new();
        let mut seen = CpuMask::empty();
        for v in 0..topo.nr_vcpus {
            if seen.contains(v) {
                continue;
            }
            let g = topo.socket[v];
            socket_groups.push(g);
            seen = seen.or(&g);
        }
        let multi_socket = socket_groups.len() > 1;
        if multi_socket {
            levels.push(DomainLevel::new("LLC", socket_groups));
        }

        levels.push(DomainLevel::new(
            "MC",
            vec![CpuMask::first_n(topo.nr_vcpus)],
        ));

        let smt = has_smt.then_some(0);
        let llc = multi_socket.then_some(usize::from(has_smt));
        Self { levels, smt, llc }
    }

    /// Levels lowest-first.
    pub fn levels(&self) -> &[DomainLevel] {
        &self.levels
    }

    /// Whether an SMT level exists (enables SMT-aware idle-core search).
    pub fn has_smt(&self) -> bool {
        self.smt.is_some()
    }

    /// The SMT level's sibling groups; empty when there is no SMT level.
    pub(crate) fn smt_groups(&self) -> &[CpuMask] {
        match self.smt {
            Some(i) => &self.levels[i].groups,
            None => &[],
        }
    }

    /// The SMT sibling group of `v`, if an SMT level exists.
    pub fn smt_group(&self, v: VcpuId) -> Option<&CpuMask> {
        self.smt.and_then(|i| self.levels[i].group_of(v))
    }

    /// The LLC (socket) group of `v` — falls back to the machine level when
    /// no LLC level exists, which reproduces Linux treating the whole VM as
    /// one cache domain under the flat abstraction.
    pub fn llc_group(&self, v: VcpuId) -> &CpuMask {
        self.llc
            .and_then(|i| self.levels[i].group_of(v))
            .unwrap_or_else(|| {
                self.levels
                    .last()
                    .and_then(|l| l.group_of(v))
                    .expect("machine level always contains every vCPU")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_topology_is_one_level() {
        let t = DomainTree::flat(8);
        assert_eq!(t.levels().len(), 1);
        assert!(!t.has_smt());
        assert_eq!(t.llc_group(VcpuId(3)).count(), 8);
        assert!(t.smt_group(VcpuId(3)).is_none());
    }

    #[test]
    fn rebuild_with_smt_and_sockets() {
        // 8 vCPUs: SMT pairs (0,1)(2,3)(4,5)(6,7), sockets {0..3},{4..7}.
        let topo = PerceivedTopology::from_groups(
            8,
            &[],
            &[vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]],
            &[vec![0, 1, 2, 3], vec![4, 5, 6, 7]],
        );
        let t = DomainTree::rebuild(&topo);
        assert!(t.has_smt());
        assert_eq!(t.levels().len(), 3);
        assert_eq!(t.smt_group(VcpuId(2)).unwrap().count(), 2);
        assert!(t.smt_group(VcpuId(2)).unwrap().contains(3));
        assert_eq!(t.llc_group(VcpuId(5)).count(), 4);
        assert!(t.llc_group(VcpuId(5)).contains(7));
        assert!(!t.llc_group(VcpuId(5)).contains(0));
    }

    #[test]
    fn rebuild_single_socket_has_no_llc_level() {
        let topo =
            PerceivedTopology::from_groups(4, &[], &[vec![0, 1], vec![2, 3]], &[vec![0, 1, 2, 3]]);
        let t = DomainTree::rebuild(&topo);
        assert_eq!(t.levels().len(), 2); // SMT + MC
        assert_eq!(t.llc_group(VcpuId(0)).count(), 4);
    }

    #[test]
    fn stacked_detection() {
        let topo = PerceivedTopology::from_groups(4, &[vec![2, 3]], &[], &[]);
        assert!(!topo.is_stacked(VcpuId(0)));
        assert!(topo.is_stacked(VcpuId(2)));
        assert!(topo.is_stacked(VcpuId(3)));
    }

    #[test]
    fn flat_perceived_topology_matches_paper_default() {
        let topo = PerceivedTopology::flat(4);
        assert_eq!(topo.smt[0].count(), 1);
        assert_eq!(topo.socket[0].count(), 4);
        assert!(topo.stacked[0].is_empty());
    }

    #[test]
    fn rebuild_from_flat_matches_flat_tree() {
        let t = DomainTree::rebuild(&PerceivedTopology::flat(6));
        assert!(!t.has_smt());
        assert_eq!(t.levels().len(), 1);
    }
}
