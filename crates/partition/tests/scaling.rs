//! Step 1 must scale linearly at K = α·|V|: K grows with the graph, so
//! an O(K) walk per node is quadratic in |V|. The guard is a ratio of two
//! sizes, not a wall-clock bound — tier-1 runs unoptimised on a shared
//! two-core box — and it has this test binary to itself, so no sibling
//! test competes for the cores while it times.

use glodyne_datasets::community::planted_partition;
use glodyne_partition::{partition, PartitionConfig};
use std::time::{Duration, Instant};

fn best_of_3(n: u32) -> Duration {
    let g = planted_partition(n, 50, 11);
    let cfg = PartitionConfig::with_k(n as usize / 10);
    (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(partition(&g, &cfg));
            t.elapsed()
        })
        .min()
        .expect("three runs")
}

#[test]
fn partition_time_grows_linearly_with_n_at_k_tenth_of_n() {
    let small = best_of_3(6_000);
    let large = best_of_3(24_000);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    // 4× the nodes and 4× the parts: linear work gives ≈ 4, the O(n·K)
    // loops this guards against gave ≈ 16.
    assert!(
        ratio <= 8.0,
        "partition at n=24000 took {large:?}, {ratio:.1}x the {small:?} at n=6000"
    );
}
