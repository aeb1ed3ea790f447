//! The MVS task model (Sec. III-A) and a random-instance generator.

use crate::{CameraId, ObjectId};
use mvs_geometry::SizeClass;
use mvs_vision::{DeviceKind, LatencyProfile};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One camera of the deployment: its identity and profiled device speed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CameraInfo {
    /// Dense camera index.
    pub id: CameraId,
    /// Offline-profiled latency table of the onboard GPU.
    pub profile: LatencyProfile,
}

/// One physical object: the cameras that can see it and its quantized crop
/// size on each of them (`s_ij` — sizes differ across cameras because of
/// perspective).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectInfo {
    /// Dense object index (global identity after cross-camera association).
    pub id: ObjectId,
    /// Target crop size per covering camera. The key set *is* the coverage
    /// set `C_j`.
    pub sizes: BTreeMap<CameraId, SizeClass>,
}

impl ObjectInfo {
    /// The coverage set `C_j`: cameras that can see this object.
    pub fn coverage(&self) -> impl Iterator<Item = CameraId> + '_ {
        self.sizes.keys().copied()
    }

    /// Number of cameras that can see this object.
    pub fn coverage_len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether `camera` can see this object.
    pub fn covered_by(&self, camera: CameraId) -> bool {
        self.sizes.contains_key(&camera)
    }

    /// Crop size on `camera`, if covered.
    pub(crate) fn size_on(&self, camera: CameraId) -> Option<SizeClass> {
        self.sizes.get(&camera).copied()
    }

    /// The largest crop size over the coverage set (used for Algorithm 1's
    /// tie-breaking).
    pub(crate) fn max_size(&self) -> Option<SizeClass> {
        self.sizes.values().copied().max()
    }
}

/// Error returned by [`MvsProblem::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemError {
    /// The camera list was empty.
    NoCameras,
    /// Camera ids were not the dense sequence `0..M`.
    NonDenseCameraIds,
    /// Object ids were not the dense sequence `0..N`.
    NonDenseObjectIds,
    /// An object had an empty coverage set (unschedulable).
    EmptyCoverage(ObjectId),
    /// An object referenced a camera outside the camera list.
    UnknownCamera(ObjectId, CameraId),
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::NoCameras => write!(f, "problem has no cameras"),
            ProblemError::NonDenseCameraIds => write!(f, "camera ids must be dense 0..M"),
            ProblemError::NonDenseObjectIds => write!(f, "object ids must be dense 0..N"),
            ProblemError::EmptyCoverage(o) => write!(f, "object {o} has an empty coverage set"),
            ProblemError::UnknownCamera(o, c) => {
                write!(f, "object {o} references unknown camera {c}")
            }
        }
    }
}

impl std::error::Error for ProblemError {}

/// A complete MVS instance: cameras, objects, coverage, and crop sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MvsProblem {
    cameras: Vec<CameraInfo>,
    objects: Vec<ObjectInfo>,
}

impl MvsProblem {
    /// Validates and builds an instance.
    ///
    /// # Errors
    ///
    /// See [`ProblemError`]: ids must be dense, every object must be seen
    /// by at least one *known* camera.
    pub fn new(cameras: Vec<CameraInfo>, objects: Vec<ObjectInfo>) -> Result<Self, ProblemError> {
        if cameras.is_empty() {
            return Err(ProblemError::NoCameras);
        }
        for (i, c) in cameras.iter().enumerate() {
            if c.id.0 != i {
                return Err(ProblemError::NonDenseCameraIds);
            }
        }
        for (j, o) in objects.iter().enumerate() {
            if o.id.0 != j {
                return Err(ProblemError::NonDenseObjectIds);
            }
            if o.sizes.is_empty() {
                return Err(ProblemError::EmptyCoverage(o.id));
            }
            for &c in o.sizes.keys() {
                if c.0 >= cameras.len() {
                    return Err(ProblemError::UnknownCamera(o.id, c));
                }
            }
        }
        Ok(MvsProblem { cameras, objects })
    }

    /// The cameras, indexed by [`CameraId`].
    pub fn cameras(&self) -> &[CameraInfo] {
        &self.cameras
    }

    /// The objects, indexed by [`ObjectId`].
    pub fn objects(&self) -> &[ObjectInfo] {
        &self.objects
    }

    /// Number of cameras `M`.
    pub fn num_cameras(&self) -> usize {
        self.cameras.len()
    }

    /// Number of objects `N`.
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Latency profile of one camera.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn profile(&self, camera: CameraId) -> &LatencyProfile {
        &self.cameras[camera.0].profile
    }

    /// Generates a random instance for benchmarks and property tests.
    pub fn random<R: Rng + ?Sized>(
        rng: &mut R,
        num_cameras: usize,
        num_objects: usize,
        config: &ProblemConfig,
    ) -> MvsProblem {
        assert!(num_cameras > 0, "need at least one camera");
        let cameras: Vec<CameraInfo> = (0..num_cameras)
            .map(|i| CameraInfo {
                id: CameraId(i),
                profile: LatencyProfile::for_device(match i % 3 {
                    0 => DeviceKind::Xavier,
                    1 => DeviceKind::Tx2,
                    _ => DeviceKind::Nano,
                }),
            })
            .collect();
        let objects: Vec<ObjectInfo> = (0..num_objects)
            .map(|j| {
                let mut sizes = BTreeMap::new();
                // Every object is seen by at least one camera; extra
                // coverage is added per `overlap_prob`.
                let primary = rng.gen_range(0..num_cameras);
                sizes.insert(CameraId(primary), random_size(rng, config));
                for c in 0..num_cameras {
                    if c != primary && rng.gen_bool(config.overlap_prob) {
                        sizes.insert(CameraId(c), random_size(rng, config));
                    }
                }
                ObjectInfo {
                    id: ObjectId(j),
                    sizes,
                }
            })
            .collect();
        MvsProblem { cameras, objects }
    }
}

/// An MVS instance restricted to a surviving subset of its cameras, plus
/// the bookkeeping to translate the sub-problem's dense ids back to the
/// original instance. Built by [`MvsProblem::restrict_to_cameras`] when the
/// scheduler must re-solve on whatever part of the fleet is still
/// reachable (camera dropouts, lost key-frame uploads).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CameraSubset {
    /// The restricted instance with dense re-indexed camera/object ids.
    pub problem: MvsProblem,
    /// Original id of each surviving camera, indexed by its new id.
    pub cameras: Vec<CameraId>,
    /// Original id of each surviving object, indexed by its new id.
    pub objects: Vec<ObjectId>,
    /// Original ids of objects whose entire coverage set died with the
    /// removed cameras — they cannot be scheduled and are counted as
    /// coverage loss by the caller instead of crashing the solve.
    pub lost_objects: Vec<ObjectId>,
}

impl CameraSubset {
    /// Original id of a camera of the restricted instance.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for the sub-problem.
    pub fn original_camera(&self, camera: CameraId) -> CameraId {
        self.cameras[camera.0]
    }

    /// Original id of an object of the restricted instance.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for the sub-problem.
    pub fn original_object(&self, object: ObjectId) -> ObjectId {
        self.objects[object.0]
    }

    /// Translates a priority order over sub-problem camera ids (e.g. from
    /// [`BalbSchedule::priority`](crate::BalbSchedule)) back to original
    /// camera ids. Removed cameras simply do not appear — exactly the
    /// degraded-mode order the distributed stage fails over along.
    pub fn lift_priority(&self, priority: &[CameraId]) -> Vec<CameraId> {
        priority.iter().map(|&c| self.original_camera(c)).collect()
    }
}

impl MvsProblem {
    /// Restricts the instance to the given surviving cameras, re-indexing
    /// cameras and objects densely. Objects left with an empty coverage
    /// set are dropped and reported in
    /// [`CameraSubset::lost_objects`]. Duplicate and out-of-range entries
    /// in `alive` are ignored; the surviving cameras keep their relative
    /// id order.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::NoCameras`] when no valid camera survives.
    pub fn restrict_to_cameras(&self, alive: &[CameraId]) -> Result<CameraSubset, ProblemError> {
        let mut keep = vec![false; self.cameras.len()];
        for &c in alive {
            if c.0 < keep.len() {
                keep[c.0] = true;
            }
        }
        let surviving: Vec<CameraId> = (0..self.cameras.len())
            .filter(|&i| keep[i])
            .map(CameraId)
            .collect();
        if surviving.is_empty() {
            return Err(ProblemError::NoCameras);
        }
        // old camera id -> new dense id
        let mut new_id = vec![usize::MAX; self.cameras.len()];
        for (new, old) in surviving.iter().enumerate() {
            new_id[old.0] = new;
        }
        let cameras: Vec<CameraInfo> = surviving
            .iter()
            .enumerate()
            .map(|(new, old)| CameraInfo {
                id: CameraId(new),
                profile: self.cameras[old.0].profile.clone(),
            })
            .collect();
        let mut objects = Vec::new();
        let mut object_map = Vec::new();
        let mut lost_objects = Vec::new();
        for o in &self.objects {
            let sizes: BTreeMap<CameraId, SizeClass> = o
                .sizes
                .iter()
                .filter(|(c, _)| keep[c.0])
                .map(|(c, &s)| (CameraId(new_id[c.0]), s))
                .collect();
            if sizes.is_empty() {
                lost_objects.push(o.id);
            } else {
                objects.push(ObjectInfo {
                    id: ObjectId(object_map.len()),
                    sizes,
                });
                object_map.push(o.id);
            }
        }
        let problem = MvsProblem::new(cameras, objects)?;
        Ok(CameraSubset {
            problem,
            cameras: surviving,
            objects: object_map,
            lost_objects,
        })
    }
}

fn random_size<R: Rng + ?Sized>(rng: &mut R, config: &ProblemConfig) -> SizeClass {
    // Geometric-ish distribution over size classes: small crops dominate,
    // mirroring the long-tail object-size distribution of traffic scenes.
    let mut idx = 0usize;
    while idx + 1 < SizeClass::COUNT && rng.gen_bool(config.size_growth_prob) {
        idx += 1;
    }
    SizeClass::from_index(idx)
}

/// Parameters of the random-instance generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProblemConfig {
    /// Probability that an additional camera also sees an object.
    pub overlap_prob: f64,
    /// Probability of escalating to the next larger size class when drawing
    /// an object's crop size.
    pub size_growth_prob: f64,
}

impl Default for ProblemConfig {
    fn default() -> Self {
        ProblemConfig {
            overlap_prob: 0.45,
            size_growth_prob: 0.35,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn camera(i: usize) -> CameraInfo {
        CameraInfo {
            id: CameraId(i),
            profile: LatencyProfile::for_device(DeviceKind::Xavier),
        }
    }

    fn object(j: usize, coverage: &[(usize, SizeClass)]) -> ObjectInfo {
        ObjectInfo {
            id: ObjectId(j),
            sizes: coverage.iter().map(|&(c, s)| (CameraId(c), s)).collect(),
        }
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            MvsProblem::new(vec![], vec![]),
            Err(ProblemError::NoCameras)
        );
        let bad_cam = vec![CameraInfo {
            id: CameraId(1),
            ..camera(0)
        }];
        assert_eq!(
            MvsProblem::new(bad_cam, vec![]),
            Err(ProblemError::NonDenseCameraIds)
        );
        assert_eq!(
            MvsProblem::new(vec![camera(0)], vec![object(1, &[(0, SizeClass::S64)])]),
            Err(ProblemError::NonDenseObjectIds)
        );
        assert_eq!(
            MvsProblem::new(vec![camera(0)], vec![object(0, &[])]),
            Err(ProblemError::EmptyCoverage(ObjectId(0)))
        );
        assert_eq!(
            MvsProblem::new(vec![camera(0)], vec![object(0, &[(3, SizeClass::S64)])]),
            Err(ProblemError::UnknownCamera(ObjectId(0), CameraId(3)))
        );
    }

    #[test]
    fn object_accessors() {
        let o = object(0, &[(0, SizeClass::S64), (2, SizeClass::S256)]);
        assert_eq!(o.coverage_len(), 2);
        assert!(o.covered_by(CameraId(2)));
        assert!(!o.covered_by(CameraId(1)));
        assert_eq!(o.size_on(CameraId(0)), Some(SizeClass::S64));
        assert_eq!(o.max_size(), Some(SizeClass::S256));
        let cov: Vec<CameraId> = o.coverage().collect();
        assert_eq!(cov, vec![CameraId(0), CameraId(2)]);
    }

    #[test]
    fn random_instances_are_valid() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..20 {
            let p = MvsProblem::random(&mut rng, 4, 25, &ProblemConfig::default());
            assert_eq!(p.num_cameras(), 4);
            assert_eq!(p.num_objects(), 25);
            // Re-validates through the constructor.
            assert!(MvsProblem::new(p.cameras().to_vec(), p.objects().to_vec()).is_ok());
        }
    }

    #[test]
    fn random_generator_is_deterministic() {
        let a = MvsProblem::random(
            &mut ChaCha8Rng::seed_from_u64(9),
            3,
            10,
            &ProblemConfig::default(),
        );
        let b = MvsProblem::random(
            &mut ChaCha8Rng::seed_from_u64(9),
            3,
            10,
            &ProblemConfig::default(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn restriction_reindexes_and_reports_losses() {
        let cameras = vec![camera(0), camera(1), camera(2)];
        let objects = vec![
            object(0, &[(0, SizeClass::S64)]),
            object(1, &[(1, SizeClass::S128), (2, SizeClass::S64)]),
            object(2, &[(2, SizeClass::S256)]),
        ];
        let p = MvsProblem::new(cameras, objects).unwrap();
        // Camera 2 dies; duplicates and out-of-range survivors are ignored.
        let s = p
            .restrict_to_cameras(&[CameraId(1), CameraId(0), CameraId(0), CameraId(9)])
            .unwrap();
        assert_eq!(s.cameras, vec![CameraId(0), CameraId(1)]);
        assert_eq!(s.problem.num_cameras(), 2);
        // Object 2 was visible only from the dead camera.
        assert_eq!(s.lost_objects, vec![ObjectId(2)]);
        assert_eq!(s.objects, vec![ObjectId(0), ObjectId(1)]);
        // Object 1's coverage shrank to the re-indexed camera 1.
        let o1 = &s.problem.objects()[1];
        assert_eq!(o1.coverage().collect::<Vec<_>>(), vec![CameraId(1)]);
        assert_eq!(o1.size_on(CameraId(1)), Some(SizeClass::S128));
        // Back-translation round-trips.
        assert_eq!(s.original_camera(CameraId(1)), CameraId(1));
        assert_eq!(s.original_object(ObjectId(1)), ObjectId(1));
        assert_eq!(
            s.lift_priority(&[CameraId(1), CameraId(0)]),
            vec![CameraId(1), CameraId(0)]
        );
    }

    #[test]
    fn restriction_to_nothing_is_an_error() {
        let p = MvsProblem::new(vec![camera(0)], vec![object(0, &[(0, SizeClass::S64)])]).unwrap();
        assert_eq!(p.restrict_to_cameras(&[]), Err(ProblemError::NoCameras));
        assert_eq!(
            p.restrict_to_cameras(&[CameraId(5)]),
            Err(ProblemError::NoCameras)
        );
    }

    #[test]
    fn restriction_to_all_cameras_is_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let p = MvsProblem::random(&mut rng, 4, 30, &ProblemConfig::default());
        let all: Vec<CameraId> = (0..4).map(CameraId).collect();
        let s = p.restrict_to_cameras(&all).unwrap();
        assert_eq!(s.problem, p);
        assert!(s.lost_objects.is_empty());
    }

    #[test]
    fn overlap_probability_drives_coverage() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let sparse = MvsProblem::random(
            &mut rng,
            5,
            200,
            &ProblemConfig {
                overlap_prob: 0.05,
                ..Default::default()
            },
        );
        let dense = MvsProblem::random(
            &mut rng,
            5,
            200,
            &ProblemConfig {
                overlap_prob: 0.9,
                ..Default::default()
            },
        );
        let avg = |p: &MvsProblem| {
            p.objects().iter().map(|o| o.coverage_len()).sum::<usize>() as f64
                / p.num_objects() as f64
        };
        assert!(avg(&dense) > avg(&sparse) + 1.0);
    }
}
