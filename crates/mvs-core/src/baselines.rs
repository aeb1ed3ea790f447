//! Comparison baselines from the paper's evaluation (Sec. IV-C/D).
//!
//! * **Full** — full-frame detection on every frame of every camera; its
//!   per-frame latency is simply the slowest camera's `t^full`, so it needs
//!   no assignment and has no function here.
//! * **BALB-Ind** — each camera independently tracks everything it sees
//!   (slicing and batching still apply, but no cross-camera workload
//!   sharing).
//! * **Static partitioning (SP)** — overlap regions are divided offline in
//!   proportion to processing power; each camera tracks only objects in its
//!   allocated region, regardless of the current load. At the abstract
//!   problem level this is realized with weighted rendezvous hashing over
//!   stable spatial keys: the same key always maps to the same camera
//!   (static), faster cameras win proportionally more keys
//!   (power-proportional), and the current load is ignored (the weakness
//!   BALB exploits).
//! * **BALB-Cen** is [`balb_central`](crate::balb_central) itself — the
//!   difference from full BALB (no distributed stage) only materializes in
//!   the frame-by-frame pipeline of `mvs-sim`.

use crate::{Assignment, CameraId, MvsProblem};

/// BALB-Ind assignment: every camera tracks every object it can see.
pub fn balb_ind(problem: &MvsProblem) -> Assignment {
    let mut a = Assignment::empty(problem.num_objects());
    for o in problem.objects() {
        for c in o.coverage() {
            a.assign(o.id, c);
        }
    }
    a
}

/// Static-partitioning assignment over stable spatial keys.
///
/// `region_keys[j]` is a stable identifier of the spatial region where
/// object `j` currently is (e.g. a hash of its world-grid cell); the same
/// key always resolves to the same camera. Each object goes to the
/// rendezvous-winning camera among its coverage set, weighted by the
/// cameras' speed scores.
///
/// # Panics
///
/// Panics if `region_keys.len() != problem.num_objects()`.
fn static_partition(problem: &MvsProblem, region_keys: &[u64]) -> Assignment {
    assert_eq!(
        region_keys.len(),
        problem.num_objects(),
        "one region key per object required"
    );
    let mut a = Assignment::empty(problem.num_objects());
    for (o, &key) in problem.objects().iter().zip(region_keys) {
        let winner = o
            .coverage()
            .map(|c| {
                (
                    c,
                    rendezvous_score(key, c, problem.profile(c).speed_score()),
                )
            })
            .max_by(|x, y| {
                x.1.partial_cmp(&y.1)
                    .expect("rendezvous scores are finite")
                    .then(y.0.cmp(&x.0))
            })
            .expect("coverage sets are non-empty by problem validation")
            .0;
        a.assign(o.id, winner);
    }
    a
}

/// Static partitioning with the object's id as its region key — a
/// convenience for abstract instances without geometry.
pub fn static_partition_by_id(problem: &MvsProblem) -> Assignment {
    let keys: Vec<u64> = (0..problem.num_objects() as u64).collect();
    static_partition(problem, &keys)
}

/// Weighted rendezvous (highest-random-weight) score: camera `c` with
/// weight `w` scores `-w / ln(h)` where `h ∈ (0,1)` is a uniform hash of
/// `(key, c)`. The camera with the maximum score wins; the probability of
/// winning is proportional to `w`.
fn rendezvous_score(key: u64, camera: CameraId, weight: f64) -> f64 {
    let h = splitmix64(key ^ (camera.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Map to (0, 1); never exactly 0 or 1.
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    let u = u.clamp(f64::MIN_POSITIVE, 1.0 - f64::EPSILON);
    -weight / u.ln()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{balb_central, ObjectId, ProblemConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_problem(seed: u64, m: usize, n: usize) -> MvsProblem {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        MvsProblem::random(&mut rng, m, n, &ProblemConfig::default())
    }

    #[test]
    fn balb_ind_tracks_everything_it_sees() {
        let p = random_problem(2, 3, 20);
        let a = balb_ind(&p);
        assert!(a.is_feasible(&p));
        for o in p.objects() {
            assert_eq!(a.owners_of(o.id).len(), o.coverage_len());
        }
    }

    #[test]
    fn static_partition_is_feasible_and_deterministic() {
        let p = random_problem(3, 4, 30);
        let a = static_partition_by_id(&p);
        let b = static_partition_by_id(&p);
        assert!(a.is_feasible(&p));
        assert_eq!(a, b);
        for o in p.objects() {
            assert_eq!(a.owners_of(o.id).len(), 1);
        }
    }

    #[test]
    fn same_key_same_camera() {
        let p = random_problem(4, 4, 10);
        // Give two objects the same key; if their coverage sets agree they
        // must land on the same camera (that is what "static spatial
        // partition" means).
        let keys = vec![42u64; p.num_objects()];
        let a = static_partition(&p, &keys);
        for (i, oi) in p.objects().iter().enumerate() {
            for oj in &p.objects()[i + 1..] {
                let same_cov: Vec<_> = oi.coverage().collect();
                let other_cov: Vec<_> = oj.coverage().collect();
                if same_cov == other_cov {
                    assert_eq!(a.owners_of(oi.id), a.owners_of(oj.id));
                }
            }
        }
    }

    #[test]
    fn rendezvous_prefers_faster_cameras_in_aggregate() {
        // All objects seen by every camera: the Xavier (weight ≈ 1/110)
        // should win notably more keys than the Nano (weight ≈ 1/650).
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let p = MvsProblem::random(
            &mut rng,
            3,
            400,
            &ProblemConfig {
                overlap_prob: 1.0,
                ..Default::default()
            },
        );
        let a = static_partition_by_id(&p);
        let mut counts = [0usize; 3];
        for o in p.objects() {
            counts[a.owners_of(o.id)[0].0] += 1;
        }
        // Camera 0 = Xavier, camera 2 = Nano in the generator's cycle.
        assert!(
            counts[0] > counts[2] * 2,
            "xavier {} vs nano {}",
            counts[0],
            counts[2]
        );
    }

    #[test]
    fn balb_beats_static_partition_on_average() {
        // The headline comparison (Fig. 13's SP-vs-BALB gap) at the
        // abstract problem level: BALB's load-awareness must win in
        // aggregate.
        let (mut balb_total, mut sp_total) = (0.0, 0.0);
        for seed in 0..25 {
            let p = random_problem(seed, 5, 40);
            balb_total += balb_central(&p).system_latency_ms();
            sp_total += static_partition_by_id(&p).system_latency_ms(&p, true);
        }
        assert!(balb_total < sp_total, "BALB {balb_total} vs SP {sp_total}");
    }

    #[test]
    #[should_panic(expected = "one region key per object")]
    fn static_partition_validates_key_count() {
        let p = random_problem(6, 2, 5);
        static_partition(&p, &[1, 2]);
    }

    #[test]
    fn balb_ind_latency_is_never_below_balb() {
        for seed in 10..20 {
            let p = random_problem(seed, 4, 30);
            let ind = balb_ind(&p).system_latency_ms(&p, true);
            let balb = balb_central(&p).system_latency_ms();
            assert!(ind + 1e-9 >= balb, "seed {seed}: ind {ind} < balb {balb}");
        }
        let _ = ObjectId(0); // keep import used in all cfg combinations
    }
}
