//! The pinned answer table every benchmark operation is checked against.
//!
//! The expected verdicts are constants copied from the repository's
//! tier-1 tests (named next to each row), never computed by the program
//! under test.  Two implications extend the table to queries the tests
//! do not spell out, and are sound for the verifier's semantics:
//!
//! * `Any` is the disjunction of the two targets, so a capacity proven
//!   free for `Any` is free for `StuckPacket` and `DeadAutomaton` alone;
//! * invariants only remove candidates, so a capacity that has a
//!   candidate *with* invariants has one without them.

/// The coherence protocol a fabric hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// The paper's abstract MI protocol (Fig. 2).
    AbstractMi,
    /// The GEM5-inspired full MI protocol.
    FullMi,
    /// The MESI family.
    Mesi,
}

impl Protocol {
    /// The wire name used in JSON job requests.
    pub fn wire(self) -> &'static str {
        match self {
            Protocol::AbstractMi => "abstract-mi",
            Protocol::FullMi => "full-mi",
            Protocol::Mesi => "mesi",
        }
    }
}

/// The topology of a fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    /// `width × height` mesh.
    Mesh(u32, u32),
    /// `width × height` torus.
    Torus(u32, u32),
    /// Ring of `n` nodes.
    Ring(u32),
    /// Fat tree of `arity` and `levels`.
    FatTree(u32, u32),
}

/// A fabric of the answer table: topology, protocol and directory node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fabric {
    /// Topology.
    pub shape: Shape,
    /// Hosted protocol.
    pub protocol: Protocol,
    /// Directory placement as a node index.
    pub directory: usize,
}

/// The deadlock target of a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Target {
    /// Either symptom.
    Any,
    /// A packet stuck forever in a queue.
    StuckPacket,
    /// An automaton that can never move again.
    DeadAutomaton,
}

impl Target {
    /// The wire name used in JSON job requests.
    pub fn wire(self) -> &'static str {
        match self {
            Target::Any => "any",
            Target::StuckPacket => "stuck-packet",
            Target::DeadAutomaton => "dead-automaton",
        }
    }
}

/// Minimal deadlock-free capacity of a fabric for target `Any` with
/// invariants on (`None`: a candidate at every capacity of the range).
pub struct Threshold {
    /// The fabric.
    pub fabric: Fabric,
    /// The minimal deadlock-free uniform queue capacity.
    pub minimal: Option<usize>,
    /// Where the value is pinned (read by the table's own tests; it is
    /// documentation for a reader of the table).
    #[allow(dead_code)]
    pub source: &'static str,
}

const fn fabric(shape: Shape, protocol: Protocol, directory: usize) -> Fabric {
    Fabric {
        shape,
        protocol,
        directory,
    }
}

/// 2×2 abstract-MI mesh, directory at node 3.
pub const AMI_MESH_2X2: Fabric = fabric(Shape::Mesh(2, 2), Protocol::AbstractMi, 3);
/// 2×2 full-MI mesh, directory at node 3.
pub const FULL_MI_MESH_2X2: Fabric = fabric(Shape::Mesh(2, 2), Protocol::FullMi, 3);
/// 2×2 MESI mesh, directory at node 3.
pub const MESI_MESH_2X2: Fabric = fabric(Shape::Mesh(2, 2), Protocol::Mesi, 3);
/// MESI ring of 4, directory at node 1.
pub const MESI_RING_4: Fabric = fabric(Shape::Ring(4), Protocol::Mesi, 1);
/// MESI 2×2 torus, directory at node 3.
pub const MESI_TORUS_2X2: Fabric = fabric(Shape::Torus(2, 2), Protocol::Mesi, 3);
/// Abstract-MI 2×2 torus, directory at node 3.
pub const AMI_TORUS_2X2: Fabric = fabric(Shape::Torus(2, 2), Protocol::AbstractMi, 3);
/// 3×3 abstract-MI mesh, directory at node 4.
pub const AMI_MESH_3X3: Fabric = fabric(Shape::Mesh(3, 3), Protocol::AbstractMi, 4);
/// Abstract-MI ring of 4, directory at node 1.
pub const AMI_RING_4: Fabric = fabric(Shape::Ring(4), Protocol::AbstractMi, 1);
/// Abstract-MI fat tree (arity 2, 2 levels), directory at terminal 3.
pub const AMI_FAT_TREE_2_2: Fabric = fabric(Shape::FatTree(2, 2), Protocol::AbstractMi, 3);

/// The pinned thresholds.
pub const THRESHOLDS: &[Threshold] = &[
    Threshold {
        fabric: AMI_MESH_2X2,
        minimal: Some(3),
        source:
            "tests/topologies.rs one_session_sweep_runs_unchanged_on_mesh_torus_ring_and_fat_tree",
    },
    Threshold {
        fabric: FULL_MI_MESH_2X2,
        minimal: None,
        source: "ROADMAP fixed scenario set: candidate at every capacity 1-8",
    },
    Threshold {
        fabric: MESI_MESH_2X2,
        minimal: Some(3),
        source: "tests/mesi.rs one_study_compares_mi_and_mesi_minimal_capacities",
    },
    Threshold {
        fabric: MESI_RING_4,
        minimal: Some(2),
        source: "tests/mesi.rs mesi_rides_ring_and_torus_with_exact_thresholds",
    },
    Threshold {
        fabric: MESI_TORUS_2X2,
        minimal: Some(3),
        source: "tests/mesi.rs mesi_rides_ring_and_torus_with_exact_thresholds",
    },
    Threshold {
        fabric: AMI_TORUS_2X2,
        minimal: Some(3),
        source:
            "tests/topologies.rs one_session_sweep_runs_unchanged_on_mesh_torus_ring_and_fat_tree",
    },
    Threshold {
        fabric: AMI_MESH_3X3,
        minimal: Some(5),
        source: "tests/composition.rs mesh_3x3_composed_agrees_with_flat",
    },
    Threshold {
        fabric: AMI_RING_4,
        minimal: Some(2),
        source:
            "tests/topologies.rs one_session_sweep_runs_unchanged_on_mesh_torus_ring_and_fat_tree",
    },
    Threshold {
        fabric: AMI_FAT_TREE_2_2,
        minimal: Some(2),
        source:
            "tests/topologies.rs one_session_sweep_runs_unchanged_on_mesh_torus_ring_and_fat_tree",
    },
];

/// Extra pinned facts beyond the `Any`/invariants-on thresholds: the
/// fabric, target, invariants flag and the minimal free capacity under
/// them (`None`: a candidate at every capacity the test probes).
pub const PINNED_VARIANTS: &[(Fabric, Target, bool, Option<usize>, &str)] = &[
    (
        AMI_MESH_2X2,
        Target::StuckPacket,
        true,
        Some(3),
        "tests/spec_ablation.rs flipping_the_target_flips_only_the_expected_verdicts",
    ),
    (
        AMI_MESH_2X2,
        Target::DeadAutomaton,
        true,
        Some(3),
        "tests/spec_ablation.rs flipping_the_target_flips_only_the_expected_verdicts",
    ),
    (
        AMI_MESH_2X2,
        Target::Any,
        false,
        None,
        "tests/spec_ablation.rs invariant_ablation_round_trips_in_one_session",
    ),
    (
        MESI_MESH_2X2,
        Target::Any,
        false,
        None,
        "tests/mesi.rs invariant_ablation_flips_the_mesi_verdict",
    ),
];

/// The expected answer of the composed 8×8 check.
pub struct Composed {
    /// Whether the composed verdict is deadlock-free.
    pub free: bool,
    /// Whether a candidate names the tile or interface it touches.
    pub attributed: bool,
    /// Tiles of the per-node cut.
    pub tiles: usize,
    /// Structural tile classes.
    pub classes: usize,
    /// Engines the certification pool builds cold (one per class).
    pub cold_builds: u64,
}

/// The 8×8 mesh, directory 9, queue 2, per-node cut, at capacity 2: an
/// attributed candidate over 64 tiles in 4 classes certified by 4 cold
/// engines (`crates/bench/benches/composition.rs` pins the tile, class
/// and cold-build counts; `tests/composition.rs`
/// `the_composed_path_is_sound_where_flat_finds_a_deadlock` pins the
/// attributed composed candidate below the flat threshold).
pub const COMPOSED_8X8: Composed = Composed {
    free: false,
    attributed: true,
    tiles: 64,
    classes: 4,
    cold_builds: 4,
};

/// The largest capacity the invariant-ablation rows were probed at: the
/// tests show a candidate without invariants at capacity 3.
const ABLATION_PROBED_UP_TO: usize = 3;

/// The pinned minimal free capacity of `fabric` for `Any` with
/// invariants on, or `None` for a fabric outside the table.
pub fn threshold(fabric: Fabric) -> Option<Option<usize>> {
    THRESHOLDS
        .iter()
        .find(|t| t.fabric == fabric)
        .map(|t| t.minimal)
}

/// The expected verdict (`true` = deadlock-free) of one query, or
/// `None` when the table does not determine it.
pub fn expected(fabric: Fabric, target: Target, invariants: bool, capacity: usize) -> Option<bool> {
    let any = threshold(fabric)?;
    for &(f, t, inv, minimal, _) in PINNED_VARIANTS {
        if f == fabric && t == target && inv == invariants {
            return match minimal {
                Some(m) => Some(capacity >= m),
                None if capacity <= ABLATION_PROBED_UP_TO => Some(false),
                None => None,
            };
        }
    }
    // Below the `Any` threshold with invariants on there is a candidate;
    // dropping invariants keeps it.
    let below = any.is_none_or(|m| capacity < m);
    match (target, invariants, below) {
        (Target::Any, true, _) => Some(!below),
        (Target::Any, false, true) => Some(false),
        // Free for `Any` ⇒ free for each target alone.
        (_, true, false) => Some(true),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_answer_both_sides() {
        assert_eq!(expected(AMI_MESH_2X2, Target::Any, true, 2), Some(false));
        assert_eq!(expected(AMI_MESH_2X2, Target::Any, true, 3), Some(true));
        assert_eq!(expected(AMI_MESH_3X3, Target::Any, true, 4), Some(false));
        assert_eq!(expected(AMI_MESH_3X3, Target::Any, true, 5), Some(true));
        assert_eq!(
            expected(FULL_MI_MESH_2X2, Target::Any, true, 8),
            Some(false)
        );
    }

    #[test]
    fn implications_stay_inside_what_is_pinned() {
        // Free for `Any` implies free for a single target.
        assert_eq!(
            expected(MESI_RING_4, Target::StuckPacket, true, 2),
            Some(true)
        );
        // Below the threshold a single target is not determined.
        assert_eq!(expected(MESI_RING_4, Target::StuckPacket, true, 1), None);
        // A candidate with invariants survives their removal...
        assert_eq!(expected(AMI_TORUS_2X2, Target::Any, false, 2), Some(false));
        // ...but freedom without invariants is not implied.
        assert_eq!(expected(AMI_TORUS_2X2, Target::Any, false, 3), None);
        // Pinned ablations.
        assert_eq!(expected(MESI_MESH_2X2, Target::Any, false, 3), Some(false));
        assert_eq!(
            expected(AMI_MESH_2X2, Target::DeadAutomaton, true, 2),
            Some(false)
        );
    }

    #[test]
    fn every_fabric_is_in_the_table_once() {
        for (i, a) in THRESHOLDS.iter().enumerate() {
            assert!(!a.source.is_empty());
            for b in &THRESHOLDS[i + 1..] {
                assert_ne!(a.fabric, b.fabric);
            }
        }
        for (fabric, ..) in PINNED_VARIANTS {
            assert!(threshold(*fabric).is_some());
        }
    }
}
