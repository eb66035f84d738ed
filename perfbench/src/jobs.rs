//! The seeded job generator of the `service-http` workload.
//!
//! Jobs are JSON request texts — the program sees nothing else — built
//! from a fixed case table whose expected verdicts come from the oracle.
//! Each case asks for the capacities on both sides of its fabric's
//! threshold on one warm engine (the request's capacity range is the
//! engine range, so one case is one pool fingerprint).  Cases are split
//! between the clients so that each warm engine sees the query sequence
//! of exactly one closed-loop client, which makes its solver counts
//! repeat from run to run.

use crate::oracle::{self, Fabric, Shape, Target};

/// One request shape of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Case {
    /// Metric-safe case name.
    pub name: &'static str,
    /// The fabric.
    pub fabric: Fabric,
    /// Deadlock target.
    pub target: Target,
    /// Whether invariants strengthen the encoding.
    pub invariants: bool,
    /// The lane the case is dealt to: lane `l` belongs to client
    /// `l % clients`.  Lanes balance the cold MESI builds between the
    /// two clients and keep every warm engine on one lane.
    pub lane: usize,
}

const fn case(
    name: &'static str,
    fabric: Fabric,
    target: Target,
    invariants: bool,
    lane: usize,
) -> Case {
    Case {
        name,
        fabric,
        target,
        invariants,
        lane,
    }
}

/// The case table: mesh, torus, ring and fat-tree topologies, abstract MI
/// and MESI, both single deadlock targets and invariants on and off —
/// restricted to queries the oracle determines on both sides of the
/// threshold.  (The MESI torus is left out: its cold build alone would
/// double the set-up, and the torus and MESI are each covered.)
pub const CASES: &[Case] = &[
    case("ami-mesh", oracle::AMI_MESH_2X2, Target::Any, true, 0),
    case(
        "ami-mesh-noinv",
        oracle::AMI_MESH_2X2,
        Target::Any,
        false,
        0,
    ),
    case(
        "ami-mesh-stuck",
        oracle::AMI_MESH_2X2,
        Target::StuckPacket,
        true,
        1,
    ),
    case(
        "ami-mesh-dead",
        oracle::AMI_MESH_2X2,
        Target::DeadAutomaton,
        true,
        1,
    ),
    case("mesi-mesh", oracle::MESI_MESH_2X2, Target::Any, true, 0),
    case(
        "mesi-mesh-noinv",
        oracle::MESI_MESH_2X2,
        Target::Any,
        false,
        0,
    ),
    case("ami-torus", oracle::AMI_TORUS_2X2, Target::Any, true, 0),
    case("ami-ring", oracle::AMI_RING_4, Target::Any, true, 1),
    case("mesi-ring", oracle::MESI_RING_4, Target::Any, true, 1),
    case(
        "ami-fattree",
        oracle::AMI_FAT_TREE_2_2,
        Target::Any,
        true,
        0,
    ),
];

impl Case {
    /// The capacities the case checks: one below the `Any` threshold and
    /// the threshold itself.
    pub fn capacities(&self) -> (usize, usize) {
        let threshold = oracle::threshold(self.fabric)
            .flatten()
            .expect("service cases have a finite threshold");
        (threshold - 1, threshold)
    }

    /// The expected verdict (`true` = free) at each capacity, in order.
    pub fn expected(&self) -> Vec<(usize, bool)> {
        let (lo, hi) = self.capacities();
        (lo..=hi)
            .map(|capacity| {
                let free = oracle::expected(self.fabric, self.target, self.invariants, capacity)
                    .expect("service cases are determined by the oracle");
                (capacity, free)
            })
            .collect()
    }

    /// The JSON job request.
    pub fn request_json(&self) -> String {
        let topology = match self.fabric.shape {
            Shape::Mesh(w, h) => format!("{{\"kind\": \"mesh\", \"width\": {w}, \"height\": {h}}}"),
            Shape::Torus(w, h) => {
                format!("{{\"kind\": \"torus\", \"width\": {w}, \"height\": {h}}}")
            }
            Shape::Ring(n) => format!("{{\"kind\": \"ring\", \"nodes\": {n}}}"),
            Shape::FatTree(k, l) => {
                format!("{{\"kind\": \"fat-tree\", \"arity\": {k}, \"levels\": {l}}}")
            }
        };
        let (lo, hi) = self.capacities();
        format!(
            "{{\"name\": \"{}\", \"topology\": {topology}, \"queue_size\": {hi}, \
             \"protocol\": \"{}\", \"directory\": {}, \"capacities\": [{lo}, {hi}], \
             \"target\": \"{}\", \"invariants\": {}}}",
            self.name,
            self.fabric.protocol.wire(),
            self.fabric.directory,
            self.target.wire(),
            self.invariants,
        )
    }
}

/// One generated job: a case index and its request text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    /// Index into [`CASES`].
    pub case: usize,
    /// The JSON request body.
    pub json: String,
}

/// A xorshift64* stream: small, seedable, identical on every platform.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        // Never the all-zero state; mix the seed so nearby seeds diverge.
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

impl Case {
    /// What the service keys a warm engine by, as far as the cases vary
    /// it: the fabric and the target (invariants are a per-query selector
    /// on the same engine).
    pub fn engine_key(&self) -> (Fabric, Target) {
        (self.fabric, self.target)
    }
}

/// The cases client `client` of `clients` owns.
pub fn owned_cases(client: usize, clients: usize) -> Vec<usize> {
    (0..CASES.len())
        .filter(|&i| CASES[i].lane % clients == client)
        .collect()
}

/// The job list of `client`: each of its cases `rounds` times, in an
/// order shuffled by `seed`.
pub fn generate(seed: u64, client: usize, clients: usize, rounds: usize) -> Vec<Job> {
    let mut cases: Vec<usize> = owned_cases(client, clients)
        .into_iter()
        .flat_map(|case| std::iter::repeat_n(case, rounds))
        .collect();
    let mut rng = Rng::new(seed ^ (client as u64).wrapping_mul(0xd1b5_4a32_d192_ed03));
    for i in (1..cases.len()).rev() {
        cases.swap(i, rng.below(i + 1));
    }
    cases
        .into_iter()
        .map(|case| Job {
            case,
            json: CASES[case].request_json(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_a_byte_identical_job_list() {
        for seed in [0, 1, 7, u64::MAX] {
            for client in 0..2 {
                let a = generate(seed, client, 2, 5);
                let b = generate(seed, client, 2, 5);
                let bytes = |jobs: &[Job]| jobs.iter().map(|j| j.json.clone()).collect::<String>();
                assert_eq!(bytes(&a), bytes(&b));
                assert_eq!(a, b);
            }
        }
        assert_ne!(generate(1, 0, 2, 5), generate(2, 0, 2, 5), "seeds differ");
    }

    #[test]
    fn every_client_list_holds_its_cases_equally_often() {
        for client in 0..2 {
            let jobs = generate(3, client, 2, 4);
            for case in owned_cases(client, 2) {
                assert_eq!(jobs.iter().filter(|j| j.case == case).count(), 4);
            }
        }
        // The clients' engines are disjoint (no two clients share a warm
        // engine) and cover the table.
        let mut all: Vec<usize> = (0..2).flat_map(|c| owned_cases(c, 2)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..CASES.len()).collect::<Vec<_>>());
        for a in owned_cases(0, 2) {
            for b in owned_cases(1, 2) {
                assert_ne!(CASES[a].engine_key(), CASES[b].engine_key());
            }
        }
    }

    /// Every expected verdict is a lookup in the oracle's constant table
    /// (this module does not depend on the program under test at all),
    /// and the request asks exactly for the capacities it is checked at.
    #[test]
    fn expected_verdicts_come_from_the_oracle_table() {
        for job in generate(11, 0, 1, 2) {
            let case = CASES[job.case];
            let (lo, hi) = case.capacities();
            assert!(job.json.contains(&format!("\"capacities\": [{lo}, {hi}]")));
            assert!(job
                .json
                .contains(&format!("\"target\": \"{}\"", case.target.wire())));
            for (capacity, free) in case.expected() {
                let table = oracle::expected(case.fabric, case.target, case.invariants, capacity);
                assert_eq!(table, Some(free));
            }
            // Both sides of the threshold when invariants are on.
            if case.invariants {
                assert_eq!(case.expected(), vec![(lo, false), (hi, true)]);
            }
        }
    }

    #[test]
    fn the_mix_covers_every_dimension() {
        let has = |p: &dyn Fn(&Case) -> bool| CASES.iter().any(p);
        assert!(has(&|c| matches!(c.fabric.shape, Shape::Mesh(..))));
        assert!(has(&|c| matches!(c.fabric.shape, Shape::Torus(..))));
        assert!(has(&|c| matches!(c.fabric.shape, Shape::Ring(..))));
        assert!(has(&|c| matches!(c.fabric.shape, Shape::FatTree(..))));
        assert!(has(&|c| c.fabric.protocol == oracle::Protocol::Mesi));
        assert!(has(&|c| c.fabric.protocol == oracle::Protocol::AbstractMi));
        assert!(has(&|c| c.target == Target::StuckPacket));
        assert!(has(&|c| c.target == Target::DeadAutomaton));
        assert!(has(&|c| !c.invariants));
    }
}
