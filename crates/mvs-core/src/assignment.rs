//! Object→camera assignments and the latency arithmetic of Definition 1.

use crate::{CameraId, MvsProblem, ObjectId};
use mvs_vision::SizeCounts;
use serde::{Deserialize, Serialize};

/// An assignment matrix `X` between cameras and objects (Definition 2),
/// stored per object as the list of tracking cameras.
///
/// BALB and the exact solver produce single-owner assignments; BALB-Ind
/// (every camera tracks everything it sees) produces multi-owner ones, so
/// the representation allows both.
///
/// # Examples
///
/// ```
/// use mvs_core::{Assignment, CameraId, MvsProblem, ProblemConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
/// let p = MvsProblem::random(&mut rng, 2, 5, &ProblemConfig::default());
/// let mut a = Assignment::empty(p.num_objects());
/// for o in p.objects() {
///     let cam = o.coverage().next().unwrap();
///     a.assign(o.id, cam);
/// }
/// assert!(a.is_feasible(&p));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// `owners[j]` = cameras tracking object `j` (sorted, deduplicated).
    owners: Vec<Vec<CameraId>>,
}

impl Assignment {
    /// An assignment with no owners for any of `num_objects` objects.
    pub fn empty(num_objects: usize) -> Self {
        Assignment {
            owners: vec![Vec::new(); num_objects],
        }
    }

    /// Number of objects covered by this assignment.
    pub fn len(&self) -> usize {
        self.owners.len()
    }

    /// True when there are no objects at all.
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }

    /// Clears every owner list in place and resizes to `num_objects`,
    /// reusing the outer table and each per-object list's capacity: once
    /// the object count is steady, repeated solves on one
    /// [`BalbSolver`](crate::BalbSolver) allocate nothing here.
    pub fn reset(&mut self, num_objects: usize) {
        self.owners.iter_mut().for_each(Vec::clear);
        self.owners.resize_with(num_objects, Vec::new);
    }

    /// Marks `camera` as tracking `object` (`x_ij := 1`). Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if the object id is out of range.
    pub fn assign(&mut self, object: ObjectId, camera: CameraId) {
        let owners = &mut self.owners[object.0];
        if let Err(pos) = owners.binary_search(&camera) {
            owners.insert(pos, camera);
        }
    }

    /// Cameras tracking `object`.
    ///
    /// # Panics
    ///
    /// Panics if the object id is out of range.
    pub fn owners_of(&self, object: ObjectId) -> &[CameraId] {
        &self.owners[object.0]
    }

    /// The single owner of `object`, if exactly one.
    pub fn sole_owner(&self, object: ObjectId) -> Option<CameraId> {
        match self.owners_of(object) {
            [c] => Some(*c),
            _ => None,
        }
    }

    /// Objects tracked by `camera`.
    pub fn objects_of(&self, camera: CameraId) -> Vec<ObjectId> {
        self.owners
            .iter()
            .enumerate()
            .filter(|(_, cams)| cams.contains(&camera))
            .map(|(j, _)| ObjectId(j))
            .collect()
    }

    /// Feasibility per Definition 2: every object tracked by ≥ 1 camera,
    /// and only by cameras that can see it.
    pub fn is_feasible(&self, problem: &MvsProblem) -> bool {
        if self.owners.len() != problem.num_objects() {
            return false;
        }
        problem.objects().iter().all(|o| {
            let owners = self.owners_of(o.id);
            !owners.is_empty() && owners.iter().all(|&c| o.covered_by(c))
        })
    }

    /// Per-size crop counts charged to `camera` by this assignment.
    fn size_counts(&self, problem: &MvsProblem, camera: CameraId) -> SizeCounts {
        let mut counts = SizeCounts::new();
        for (j, owners) in self.owners.iter().enumerate() {
            if owners.contains(&camera) {
                let size = problem.objects()[j]
                    .size_on(camera)
                    .expect("owner camera must cover the object");
                counts.add(size);
            }
        }
        counts
    }

    /// Camera latency `L_i` (Definition 1): greedy-batched partial-frame
    /// inspection time, plus the camera's full-frame time when
    /// `include_full_frame` (Algorithm 1 initializes `L_i := t_i^full`).
    ///
    /// # Panics
    ///
    /// Panics if an owner camera lies outside some object's coverage set
    /// (infeasible assignments have no defined latency).
    pub fn camera_latency_ms(
        &self,
        problem: &MvsProblem,
        camera: CameraId,
        include_full_frame: bool,
    ) -> f64 {
        let profile = problem.profile(camera);
        let base = if include_full_frame {
            profile.full_frame_ms()
        } else {
            0.0
        };
        base + self.size_counts(problem, camera).latency_ms(profile)
    }

    /// System latency `L = max_i L_i` over all cameras.
    pub fn system_latency_ms(&self, problem: &MvsProblem, include_full_frame: bool) -> f64 {
        (0..problem.num_cameras())
            .map(|i| self.camera_latency_ms(problem, CameraId(i), include_full_frame))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CameraInfo, ObjectInfo};
    use mvs_geometry::SizeClass;
    use mvs_vision::{DeviceKind, LatencyProfile};
    use std::collections::BTreeMap;

    fn two_camera_problem() -> MvsProblem {
        let cameras = vec![
            CameraInfo {
                id: CameraId(0),
                profile: LatencyProfile::for_device(DeviceKind::Xavier),
            },
            CameraInfo {
                id: CameraId(1),
                profile: LatencyProfile::for_device(DeviceKind::Nano),
            },
        ];
        let mut objects = Vec::new();
        // Object 0 visible to both; object 1 only to camera 1.
        let mut s0 = BTreeMap::new();
        s0.insert(CameraId(0), SizeClass::S128);
        s0.insert(CameraId(1), SizeClass::S64);
        objects.push(ObjectInfo {
            id: ObjectId(0),
            sizes: s0,
        });
        let mut s1 = BTreeMap::new();
        s1.insert(CameraId(1), SizeClass::S256);
        objects.push(ObjectInfo {
            id: ObjectId(1),
            sizes: s1,
        });
        MvsProblem::new(cameras, objects).unwrap()
    }

    #[test]
    fn assign_is_idempotent_and_sorted() {
        let mut a = Assignment::empty(3);
        a.assign(ObjectId(1), CameraId(2));
        a.assign(ObjectId(1), CameraId(0));
        a.assign(ObjectId(1), CameraId(2)); // idempotent
        assert_eq!(a.owners_of(ObjectId(1)), &[CameraId(0), CameraId(2)]);
        assert_eq!(a.sole_owner(ObjectId(1)), None);
        a.assign(ObjectId(0), CameraId(2));
        assert_eq!(a.sole_owner(ObjectId(0)), Some(CameraId(2)));
    }

    #[test]
    fn feasibility_rules() {
        let p = two_camera_problem();
        let mut a = Assignment::empty(2);
        assert!(!a.is_feasible(&p)); // object untracked
        a.assign(ObjectId(0), CameraId(0));
        a.assign(ObjectId(1), CameraId(1));
        assert!(a.is_feasible(&p));
        // Camera 0 cannot see object 1.
        a.assign(ObjectId(1), CameraId(0));
        assert!(!a.is_feasible(&p));
        // Wrong object count.
        let b = Assignment::empty(1);
        assert!(!b.is_feasible(&p));
    }

    #[test]
    fn latency_uses_per_camera_sizes() {
        let p = two_camera_problem();
        let mut a = Assignment::empty(2);
        a.assign(ObjectId(0), CameraId(0)); // S128 on Xavier: one 30 ms batch
        a.assign(ObjectId(1), CameraId(1)); // S256 on Nano: one 112 ms batch
        assert!((a.camera_latency_ms(&p, CameraId(0), false) - 30.0).abs() < 1e-9);
        assert!((a.camera_latency_ms(&p, CameraId(1), false) - 112.0).abs() < 1e-9);
        assert!((a.system_latency_ms(&p, false) - 112.0).abs() < 1e-9);
        // Full-frame initialization adds t^full.
        assert!((a.camera_latency_ms(&p, CameraId(0), true) - (110.0 + 30.0)).abs() < 1e-9);
    }

    #[test]
    fn same_object_costs_differently_per_camera() {
        let p = two_camera_problem();
        let mut on_fast = Assignment::empty(2);
        on_fast.assign(ObjectId(0), CameraId(0));
        on_fast.assign(ObjectId(1), CameraId(1));
        let mut on_slow = Assignment::empty(2);
        on_slow.assign(ObjectId(0), CameraId(1)); // S64 on Nano: 25 ms
        on_slow.assign(ObjectId(1), CameraId(1));
        // Moving object 0 to the Nano piles everything on one device.
        assert!(
            on_slow.camera_latency_ms(&p, CameraId(1), false)
                > on_fast.camera_latency_ms(&p, CameraId(1), false)
        );
    }

    #[test]
    fn objects_of_lists_assignments() {
        let mut a = Assignment::empty(3);
        a.assign(ObjectId(0), CameraId(1));
        a.assign(ObjectId(2), CameraId(1));
        a.assign(ObjectId(1), CameraId(0));
        assert_eq!(a.objects_of(CameraId(1)), vec![ObjectId(0), ObjectId(2)]);
    }
}
