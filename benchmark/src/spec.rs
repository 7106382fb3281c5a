//! Fixed settings and the workload table. Nothing here depends on the
//! command line except through `--workload`; every run of a workload
//! uses exactly these values.

use spnet_core::methods::{LdmConfig, MethodConfig};

/// RSA modulus size of the owner key.
pub const RSA_BITS: usize = 1024;
/// The owner key is the same in every run: seeded key generation at
/// 1024 bits takes 3–11 s depending on the seed's luck in the prime
/// search, so a key drawn from `--seed` would make both set-up time
/// and total run time a function of that luck.
pub const KEY_SEED: u64 = 42;
/// The road network is the same in every run too: at 5k nodes the
/// partition a seed happens to draw moves HYP's proof bytes by 8 % and
/// its query latency by 17 %, which would drown what a change to the
/// code does. `--seed` draws the operation lists, POIs and updates.
pub const GRAPH_SEED: u64 = 42;
/// Short query range (generator extent is 10,000 units).
pub const SHORT_RANGE: f64 = 500.0;
/// Long query range — the paper's default.
pub const LONG_RANGE: f64 = 2000.0;
/// Queries per pooled stream chunk.
pub const CHUNK_LEN: usize = 16;
/// Owner-signed points of interest.
pub const POIS: usize = 32;
/// Size of the district the POIs and k-NN sources are drawn from.
pub const DISTRICT_NODES: usize = 1024;
/// Neighbours asked of the k-nearest-POI operator.
pub const KNN_K: u32 = 4;
/// Pairs in the `query` list and in the `stream` list.
pub const QUERIES: usize = 1000;
/// Sources of the `range` phase.
pub const RANGE_SOURCES: usize = 200;
/// Sources of the `knn` phase.
pub const KNN_SOURCES: usize = 40;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Pairs in the session-less `oneshot` phase.
pub const ONESHOT_PAIRS: usize = 100;
/// Short pairs a churn reader streams per fresh session.
pub const CHURN_BURST: usize = 64;
/// Seconds of each round spent on cold starts (one if it takes longer).
pub const COLD_SECONDS_PER_ROUND: f64 = 0.15;
/// Owner think time between two re-weights of the churn phase.
pub const UPDATE_GAP: std::time::Duration = std::time::Duration::from_millis(20);
/// `--seconds` the per-workload sizes below were chosen for.
pub const RUN_SECONDS: f64 = 15.0;

/// Share of `--seconds` the read phases may use; the churn phase,
/// sized by its update count, takes roughly the rest.
pub const READ_SHARE: f64 = 0.8;

/// One workload: a graph size, an authentication method and an
/// update count.
pub struct Spec {
    pub name: &'static str,
    /// Lattice side; |V| = side².
    pub side: usize,
    pub method: fn() -> MethodConfig,
    /// Edge re-weights in the `churn` phase.
    pub updates: usize,
}

/// Each method at the largest size whose three set-ups, updates and
/// read phases fit one run (README, "Sizing").
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "dij-road100k",
        side: 316,
        method: || MethodConfig::Dij,
        updates: 8,
    },
    Spec {
        name: "ldm-road100k",
        side: 316,
        method: || {
            MethodConfig::Ldm(LdmConfig {
                landmarks: 32,
                ..LdmConfig::default()
            })
        },
        updates: 5,
    },
    Spec {
        name: "hyp-city5k",
        side: 70,
        method: || MethodConfig::Hyp { cells: 64 },
        updates: 4,
    },
    Spec {
        name: "full-town1k6",
        side: 40,
        method: || MethodConfig::Full {
            use_floyd_warshall: false,
        },
        updates: 2,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
