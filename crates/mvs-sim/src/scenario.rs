//! The three evaluation scenarios (Sec. IV-A2, Table I).
//!
//! | Scenario | Cameras | Devices                        | Traffic |
//! |----------|---------|--------------------------------|---------|
//! | S1       | 5       | 2×Xavier, 2×TX2, 1×Nano        | signalized intersection, platooned |
//! | S2       | 2       | 1×Xavier, 1×Nano               | residential roadside, sparse |
//! | S3       | 3       | 1×Xavier, 1×TX2, 1×Nano        | busy fork road, small overlaps |
//!
//! Beyond the paper's deployments, [`Scenario::city`] procedurally
//! generates city-scale fleets (100–1000 cameras) on a seeded road grid:
//! camera clusters around intersections ("districts") with per-district
//! traffic intensity.

use crate::camera::CameraModel;
use crate::trajectory::{FollowingModel, Route, SpawnConfig, TrafficLight};
use crate::world::{Lane, World};
use mvs_geometry::{FrameDims, Point2};
use mvs_vision::DeviceKind;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which of the paper's deployment scenarios to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// Five cameras around a signalized intersection.
    S1,
    /// Two cameras on a residential roadside with sparse traffic.
    S2,
    /// Three cameras on a busy fork road with small view overlaps.
    S3,
    /// A procedural city-scale fleet (see [`Scenario::city`]); defaults to
    /// [`CityConfig::default`].
    City,
}

impl ScenarioKind {
    /// The paper's scenarios in paper order. `City` is intentionally not
    /// listed: it is a procedural family, not a fixed preset, and at fleet
    /// scale it is far too large for the preset sweeps that iterate `ALL`.
    pub const ALL: [ScenarioKind; 3] = [ScenarioKind::S1, ScenarioKind::S2, ScenarioKind::S3];
}

impl fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioKind::S1 => write!(f, "S1"),
            ScenarioKind::S2 => write!(f, "S2"),
            ScenarioKind::S3 => write!(f, "S3"),
            ScenarioKind::City => write!(f, "city"),
        }
    }
}

/// A fully specified deployment: cameras, devices, and world dynamics.
///
/// [`Scenario::new`] and [`Scenario::city`] build the presets; a custom
/// deployment — your own camera layout, device fleet and traffic — is a
/// literal of this struct, and everything else (association training,
/// masks, the full pipeline) works unchanged on it. `kind` only labels the
/// scenario; it never selects behaviour.
///
/// # Examples
///
/// ```
/// use mvs_geometry::{FrameDims, Point2};
/// use mvs_sim::{CameraModel, Lane, Route, Scenario, ScenarioKind, SpawnConfig};
/// use mvs_vision::DeviceKind;
///
/// let camera =
///     |x| CameraModel::looking_at(Point2::new(x, -10.0), Point2::ORIGIN, FrameDims::REGULAR);
/// let parking_lot = Scenario {
///     kind: ScenarioKind::S1,
///     cameras: vec![camera(-30.0), camera(30.0)],
///     devices: vec![DeviceKind::Xavier, DeviceKind::Nano],
///     lanes: vec![Lane {
///         route: Route::new(vec![Point2::new(-80.0, 0.0), Point2::new(80.0, 0.0)], 6.0),
///         light: None,
///         spawn: SpawnConfig { rate_per_s: 0.08, min_gap_m: 8.0 },
///     }],
///     fps: 10.0,
///     occlusion_threshold: 0.75,
/// };
/// assert_eq!(parking_lot.num_cameras(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Which paper scenario this is.
    pub kind: ScenarioKind,
    /// The camera models (indices are the pipeline's camera ids).
    pub cameras: Vec<CameraModel>,
    /// Device kind per camera (Table I).
    pub devices: Vec<DeviceKind>,
    /// Lanes driving the world.
    pub lanes: Vec<Lane>,
    /// Camera sampling rate (the dataset's 10 FPS).
    pub fps: f64,
    /// Occlusion coverage threshold (lower = more occlusion dropping).
    pub occlusion_threshold: f64,
}

impl Scenario {
    /// Builds the named scenario.
    pub fn new(kind: ScenarioKind) -> Scenario {
        match kind {
            ScenarioKind::S1 => s1(),
            ScenarioKind::S2 => s2(),
            ScenarioKind::S3 => s3(),
            ScenarioKind::City => Scenario::city(&CityConfig::default()),
        }
    }

    /// Number of cameras.
    pub fn num_cameras(&self) -> usize {
        self.cameras.len()
    }

    /// A fresh world in this scenario's initial state.
    fn make_world(&self) -> World {
        World::new(self.lanes.clone(), FollowingModel::default())
    }

    /// Seconds between frames.
    pub fn frame_dt_s(&self) -> f64 {
        1.0 / self.fps
    }

    /// Steps a fresh world for `warmup_s` seconds so traffic is flowing
    /// before measurement starts.
    pub fn warmed_world<R: Rng + ?Sized>(&self, warmup_s: f64, rng: &mut R) -> World {
        let mut w = self.make_world();
        let dt = self.frame_dt_s();
        let steps = (warmup_s / dt).round() as usize;
        for _ in 0..steps {
            w.step(dt, rng);
        }
        w
    }

    /// Per-camera object counts over time: the Fig. 2 series. Samples the
    /// world every `sample_every_s` seconds for `duration_s`, returning one
    /// count series per camera.
    pub fn workload_series<R: Rng + ?Sized>(
        &self,
        duration_s: f64,
        sample_every_s: f64,
        rng: &mut R,
    ) -> Vec<Vec<usize>> {
        let mut world = self.warmed_world(30.0, rng);
        let dt = self.frame_dt_s();
        let steps = (duration_s / dt).round() as usize;
        let sample_every = (sample_every_s / dt).round().max(1.0) as usize;
        let mut series = vec![Vec::new(); self.cameras.len()];
        for step in 0..steps {
            world.step(dt, rng);
            if step % sample_every == 0 {
                for (cam, out) in self.cameras.iter().zip(series.iter_mut()) {
                    out.push(cam.visible_objects(&world, self.occlusion_threshold).len());
                }
            }
        }
        series
    }
}

fn lane(waypoints: Vec<Point2>, speed: f64, rate: f64, light: Option<TrafficLight>) -> Lane {
    Lane {
        route: Route::new(waypoints, speed),
        light,
        spawn: SpawnConfig {
            rate_per_s: rate,
            min_gap_m: 10.0,
        },
    }
}

/// S1: four-way signalized intersection at the origin, five cameras.
fn s1() -> Scenario {
    let speed = 9.0;
    let rate = 0.16;
    // Each approach is 110 m long with its stop line 100 m in (10 m before
    // the centre); the light alternates between the EW and NS roads.
    let ew_light = |offset| TrafficLight {
        period_s: 40.0,
        green_fraction: 0.45,
        offset_s: offset,
        stop_line_s: 100.0,
    };
    let lanes = vec![
        // Eastbound and westbound (green first).
        lane(
            vec![Point2::new(-110.0, -3.0), Point2::new(110.0, -3.0)],
            speed,
            rate,
            Some(ew_light(0.0)),
        ),
        lane(
            vec![Point2::new(110.0, 3.0), Point2::new(-110.0, 3.0)],
            speed,
            rate,
            Some(ew_light(0.0)),
        ),
        // Northbound and southbound (opposite phase).
        lane(
            vec![Point2::new(3.0, -110.0), Point2::new(3.0, 110.0)],
            speed,
            rate,
            Some(ew_light(20.0)),
        ),
        lane(
            vec![Point2::new(-3.0, 110.0), Point2::new(-3.0, -110.0)],
            speed,
            rate,
            Some(ew_light(20.0)),
        ),
    ];
    let frame = FrameDims::REGULAR;
    let center = Point2::ORIGIN;
    let cameras = vec![
        CameraModel::looking_at(Point2::new(-45.0, -18.0), center, frame),
        CameraModel::looking_at(Point2::new(45.0, 18.0), center, frame),
        CameraModel::looking_at(Point2::new(18.0, -45.0), center, frame),
        CameraModel::looking_at(Point2::new(-18.0, 45.0), center, FrameDims::FISHEYE),
        // The Nano overlaps the Xavier/TX2 views almost entirely, so BALB
        // can offload nearly all of its workload (the deployments in the
        // paper's Fig. 1 share the intersection core across all cameras).
        CameraModel::looking_at(Point2::new(-40.0, 22.0), center, frame),
    ];
    Scenario {
        kind: ScenarioKind::S1,
        cameras,
        devices: vec![
            DeviceKind::Xavier,
            DeviceKind::Xavier,
            DeviceKind::Tx2,
            DeviceKind::Tx2,
            DeviceKind::Nano,
        ],
        lanes,
        fps: 10.0,
        occlusion_threshold: 0.75,
    }
}

/// S2: straight residential road, two cameras, sparse traffic.
fn s2() -> Scenario {
    let lanes = vec![
        lane(
            vec![Point2::new(-120.0, -2.5), Point2::new(120.0, -2.5)],
            8.0,
            0.07,
            None,
        ),
        lane(
            vec![Point2::new(120.0, 2.5), Point2::new(-120.0, 2.5)],
            8.0,
            0.06,
            None,
        ),
    ];
    let frame = FrameDims::REGULAR;
    let cameras = vec![
        // Both roadside cameras cover the stretch around the origin from
        // opposite ends: large view overlap. They sit well off the road so
        // vehicles do not stack up along the optical axis.
        CameraModel::looking_at(Point2::new(-35.0, -25.0), Point2::new(15.0, 0.0), frame),
        CameraModel::looking_at(Point2::new(35.0, -25.0), Point2::new(-15.0, 0.0), frame),
    ];
    Scenario {
        kind: ScenarioKind::S2,
        cameras,
        devices: vec![DeviceKind::Xavier, DeviceKind::Nano],
        lanes,
        fps: 10.0,
        occlusion_threshold: 0.75,
    }
}

/// S3: busy fork road, three cameras with small overlaps.
fn s3() -> Scenario {
    let speed = 9.0;
    let lanes = vec![
        // Main road splitting into an upper and a lower branch.
        lane(
            vec![
                Point2::new(-130.0, 0.0),
                Point2::new(0.0, 0.0),
                Point2::new(100.0, 38.0),
            ],
            speed,
            0.22,
            None,
        ),
        lane(
            vec![
                Point2::new(-130.0, -4.0),
                Point2::new(0.0, -4.0),
                Point2::new(100.0, -42.0),
            ],
            speed,
            0.22,
            None,
        ),
        // Return flow merging back onto the main road.
        lane(
            vec![
                Point2::new(100.0, 30.0),
                Point2::new(10.0, 6.0),
                Point2::new(-130.0, 6.0),
            ],
            speed,
            0.14,
            None,
        ),
    ];
    let frame = FrameDims::REGULAR;
    let cameras = vec![
        // Two cameras monitor the fork from either flank; the first one
        // also reaches a stretch of the approach road.
        CameraModel::looking_at(Point2::new(15.0, -35.0), Point2::new(-12.0, 2.0), frame),
        CameraModel::looking_at(Point2::new(30.0, 45.0), Point2::new(25.0, -5.0), frame),
        // …and one faces the approach road far upstream: little overlap
        // with the fork cameras.
        CameraModel::looking_at(Point2::new(-85.0, -16.0), Point2::new(-45.0, 0.0), frame),
    ];
    Scenario {
        kind: ScenarioKind::S3,
        cameras,
        devices: vec![DeviceKind::Xavier, DeviceKind::Tx2, DeviceKind::Nano],
        lanes,
        fps: 10.0,
        occlusion_threshold: 0.6,
    }
}

/// Configuration of the procedural city generator ([`Scenario::city`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CityConfig {
    /// Fleet size. Cameras are grouped into districts of up to eight.
    pub cameras: usize,
    /// Seed of the layout and traffic randomness; equal configs generate
    /// byte-identical scenarios.
    pub seed: u64,
    /// Global traffic intensity multiplier applied on top of the seeded
    /// per-district multipliers (1.0 = nominal).
    pub intensity: f64,
}

impl CityConfig {
    /// Cameras clustered around each district intersection.
    const CAMERAS_PER_DISTRICT: usize = 8;

    /// Number of districts this config generates.
    pub fn districts(&self) -> usize {
        self.cameras.div_ceil(Self::CAMERAS_PER_DISTRICT)
    }
}

impl Default for CityConfig {
    fn default() -> Self {
        CityConfig {
            cameras: 128,
            seed: 17,
            intensity: 1.0,
        }
    }
}

/// District intersections sit on a square grid with this spacing. It
/// exceeds twice the default camera range (90 m), so view wedges from
/// different districts can never intersect: the static overlap graph
/// decomposes into one connected component per district by construction.
const CITY_BLOCK_M: f64 = 300.0;

impl Scenario {
    /// Procedurally generates a city-scale deployment from a seeded road
    /// grid: districts of up to eight cameras ring their intersection (all
    /// facing the centre, so each district forms one view-overlap cluster),
    /// two signalized crossing streets per district carry traffic, and a
    /// seeded per-district multiplier — scaled by [`CityConfig::intensity`]
    /// — sets how busy each district is. Devices cycle Xavier → TX2 → Nano
    /// across the fleet.
    ///
    /// # Examples
    ///
    /// ```
    /// use mvs_sim::{CityConfig, Scenario};
    ///
    /// let city = Scenario::city(&CityConfig { cameras: 32, seed: 7, intensity: 1.0 });
    /// assert_eq!(city.num_cameras(), 32);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `cameras` is zero or `intensity` is not a positive finite
    /// number.
    pub fn city(config: &CityConfig) -> Scenario {
        use rand::SeedableRng;
        assert!(config.cameras > 0, "city fleet needs at least one camera");
        assert!(
            config.intensity.is_finite() && config.intensity > 0.0,
            "intensity must be positive and finite"
        );
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(config.seed);
        let districts = config.districts();
        let grid_side = (districts as f64).sqrt().ceil() as usize;
        let device_cycle = [DeviceKind::Xavier, DeviceKind::Tx2, DeviceKind::Nano];
        let frame = FrameDims::REGULAR;

        let mut cameras = Vec::with_capacity(config.cameras);
        let mut devices = Vec::with_capacity(config.cameras);
        let mut lanes = Vec::new();
        for district in 0..districts {
            let row = district / grid_side;
            let col = district % grid_side;
            let center = Point2::new(col as f64 * CITY_BLOCK_M, row as f64 * CITY_BLOCK_M);

            // Cameras ring the intersection and face (roughly) its centre,
            // so every wedge in the district contains the centre point and
            // the district is a single overlap component.
            let in_district = CityConfig::CAMERAS_PER_DISTRICT.min(config.cameras - cameras.len());
            for k in 0..in_district {
                let angle = std::f64::consts::TAU * k as f64 / in_district as f64
                    + rng.gen_range(-0.12..0.12);
                let radius = rng.gen_range(30.0..42.0);
                let position = center + Point2::new(radius, 0.0).rotated(angle);
                let target =
                    center + Point2::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0));
                cameras.push(CameraModel::looking_at(position, target, frame));
                devices.push(device_cycle[devices.len() % device_cycle.len()]);
            }

            // Two signalized crossing streets, S1-style: EW green first,
            // NS in the opposite phase, with a per-district phase offset so
            // the city does not pulse in lockstep.
            let mult = rng.gen_range(0.5..1.5) * config.intensity;
            let rate = 0.12 * mult;
            let phase = rng.gen_range(0.0..40.0);
            let light = |offset_s: f64| TrafficLight {
                period_s: 40.0,
                green_fraction: 0.45,
                offset_s,
                stop_line_s: 100.0,
            };
            let (cx, cy) = (center.x, center.y);
            lanes.push(lane(
                vec![
                    Point2::new(cx - 110.0, cy - 3.0),
                    Point2::new(cx + 110.0, cy - 3.0),
                ],
                9.0,
                rate,
                Some(light(phase)),
            ));
            lanes.push(lane(
                vec![
                    Point2::new(cx + 110.0, cy + 3.0),
                    Point2::new(cx - 110.0, cy + 3.0),
                ],
                9.0,
                rate,
                Some(light(phase)),
            ));
            lanes.push(lane(
                vec![
                    Point2::new(cx + 3.0, cy - 110.0),
                    Point2::new(cx + 3.0, cy + 110.0),
                ],
                9.0,
                rate,
                Some(light(phase + 20.0)),
            ));
            lanes.push(lane(
                vec![
                    Point2::new(cx - 3.0, cy + 110.0),
                    Point2::new(cx - 3.0, cy - 110.0),
                ],
                9.0,
                rate,
                Some(light(phase + 20.0)),
            ));
        }
        Scenario {
            kind: ScenarioKind::City,
            cameras,
            devices,
            lanes,
            fps: 10.0,
            occlusion_threshold: 0.75,
        }
    }
}

#[cfg(test)]
mod city_tests {
    use super::*;
    use mvs_core::OverlapGraph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn city_generates_requested_fleet() {
        let cfg = CityConfig {
            cameras: 20,
            seed: 3,
            intensity: 1.0,
        };
        let sc = Scenario::city(&cfg);
        assert_eq!(sc.kind, ScenarioKind::City);
        assert_eq!(sc.num_cameras(), 20);
        assert_eq!(sc.devices.len(), 20);
        assert_eq!(cfg.districts(), 3);
        assert_eq!(sc.lanes.len(), 4 * cfg.districts());
        for d in [DeviceKind::Xavier, DeviceKind::Tx2, DeviceKind::Nano] {
            assert!(sc.devices.contains(&d), "device mix should cycle {d:?}");
        }
    }

    #[test]
    fn city_generation_is_deterministic_in_the_seed() {
        let cfg = CityConfig {
            cameras: 24,
            seed: 99,
            intensity: 1.0,
        };
        assert_eq!(Scenario::city(&cfg), Scenario::city(&cfg));
        let other = Scenario::city(&CityConfig { seed: 100, ..cfg });
        assert_ne!(Scenario::city(&cfg), other);
    }

    #[test]
    fn city_overlap_graph_has_one_component_per_district() {
        let cfg = CityConfig {
            cameras: 48,
            seed: 5,
            intensity: 1.0,
        };
        let sc = Scenario::city(&cfg);
        let polygons: Vec<_> = sc.cameras.iter().map(|c| c.view_polygon()).collect();
        let graph = OverlapGraph::from_polygons(&polygons);
        let components = graph.components();
        assert_eq!(components.len(), cfg.districts());
        for component in &components {
            assert!(component.len() <= CityConfig::CAMERAS_PER_DISTRICT);
            // Districts are contiguous camera-id ranges by construction.
            let lo = component[0].0;
            let ids: Vec<usize> = component.iter().map(|c| c.0).collect();
            assert_eq!(ids, (lo..lo + component.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn small_city_produces_traffic_in_every_district() {
        let sc = Scenario::city(&CityConfig {
            cameras: 16,
            seed: 11,
            intensity: 1.2,
        });
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let series = sc.workload_series(60.0, 2.0, &mut rng);
        let seeing = series
            .iter()
            .filter(|s| s.iter().sum::<usize>() > 0)
            .count();
        assert!(
            seeing >= 12,
            "only {seeing}/16 city cameras ever saw an object"
        );
    }

    #[test]
    fn intensity_scales_traffic() {
        let quiet = Scenario::city(&CityConfig {
            cameras: 8,
            seed: 4,
            intensity: 0.4,
        });
        let busy = Scenario::city(&CityConfig {
            cameras: 8,
            seed: 4,
            intensity: 2.0,
        });
        let total_rate =
            |sc: &Scenario| -> f64 { sc.lanes.iter().map(|l| l.spawn.rate_per_s).sum() };
        assert!(total_rate(&busy) > 4.0 * total_rate(&quiet));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn configurations_match_table_one() {
        let s1 = Scenario::new(ScenarioKind::S1);
        assert_eq!(s1.num_cameras(), 5);
        assert_eq!(
            s1.devices
                .iter()
                .filter(|&&d| d == DeviceKind::Xavier)
                .count(),
            2
        );
        assert_eq!(
            s1.devices.iter().filter(|&&d| d == DeviceKind::Tx2).count(),
            2
        );
        assert_eq!(
            s1.devices
                .iter()
                .filter(|&&d| d == DeviceKind::Nano)
                .count(),
            1
        );
        let s2 = Scenario::new(ScenarioKind::S2);
        assert_eq!(s2.devices, vec![DeviceKind::Xavier, DeviceKind::Nano]);
        let s3 = Scenario::new(ScenarioKind::S3);
        assert_eq!(
            s3.devices,
            vec![DeviceKind::Xavier, DeviceKind::Tx2, DeviceKind::Nano]
        );
    }

    #[test]
    fn cameras_see_traffic_over_time() {
        for kind in ScenarioKind::ALL {
            let sc = Scenario::new(kind);
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            // Over a minute of samples, every camera must see traffic at
            // least sometimes (sparse scenarios may have empty instants).
            let series = sc.workload_series(60.0, 1.0, &mut rng);
            for (i, s) in series.iter().enumerate() {
                let total: usize = s.iter().sum();
                assert!(total > 0, "{kind}: camera {i} never saw an object");
            }
        }
    }

    #[test]
    fn s1_views_overlap_substantially() {
        let sc = Scenario::new(ScenarioKind::S1);
        // The four centre-facing cameras share the intersection centre.
        let shared = Point2::new(0.0, 0.0);
        let covering = sc
            .cameras
            .iter()
            .filter(|c| c.view_polygon().contains(shared))
            .count();
        assert!(covering >= 4, "only {covering} cameras cover the centre");
    }

    #[test]
    fn s3_overlaps_are_smaller_than_s1() {
        let mean_pairwise = |sc: &Scenario| {
            let polys: Vec<_> = sc.cameras.iter().map(|c| c.view_polygon()).collect();
            let mut total = 0.0;
            let mut pairs = 0;
            for i in 0..polys.len() {
                for j in i + 1..polys.len() {
                    let overlap = polys[i].overlap_area_approx(&polys[j], 40);
                    total += overlap / polys[i].area().min(polys[j].area());
                    pairs += 1;
                }
            }
            total / pairs as f64
        };
        let s1 = mean_pairwise(&Scenario::new(ScenarioKind::S1));
        let s3 = mean_pairwise(&Scenario::new(ScenarioKind::S3));
        assert!(s1 > s3, "S1 overlap {s1} should exceed S3 overlap {s3}");
    }

    #[test]
    fn s2_is_sparser_than_s3() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let density = |kind: ScenarioKind, rng: &mut ChaCha8Rng| {
            let sc = Scenario::new(kind);
            let series = sc.workload_series(60.0, 2.0, rng);
            let total: usize = series.iter().flatten().sum();
            let samples: usize = series.iter().map(Vec::len).sum();
            total as f64 / samples as f64
        };
        let d2 = density(ScenarioKind::S2, &mut rng);
        let d3 = density(ScenarioKind::S3, &mut rng);
        assert!(d3 > 2.0 * d2, "S3 {d3} should be much busier than S2 {d2}");
    }

    #[test]
    fn s1_workload_varies_over_time() {
        // The Fig. 2 property: per-camera workload fluctuates with the
        // signal cycle instead of staying flat.
        let sc = Scenario::new(ScenarioKind::S1);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let series = sc.workload_series(120.0, 2.0, &mut rng);
        let varying = series
            .iter()
            .filter(|s| {
                let min = s.iter().min().copied().unwrap_or(0);
                let max = s.iter().max().copied().unwrap_or(0);
                max >= min + 3
            })
            .count();
        assert!(
            varying >= 3,
            "expected most cameras to see strong workload variation"
        );
    }

    /// A deployment beyond the paper's presets is a `Scenario` literal.
    fn custom() -> Scenario {
        let camera = |x: f64| {
            CameraModel::looking_at(Point2::new(x, -12.0), Point2::ORIGIN, FrameDims::REGULAR)
        };
        Scenario {
            kind: ScenarioKind::S1,
            cameras: vec![camera(-30.0), camera(30.0)],
            devices: vec![DeviceKind::Xavier, DeviceKind::Tx2],
            lanes: vec![lane(
                vec![Point2::new(-90.0, 0.0), Point2::new(90.0, 0.0)],
                7.0,
                0.1,
                None,
            )],
            fps: 10.0,
            occlusion_threshold: 0.75,
        }
    }

    #[test]
    fn custom_scenario_produces_traffic() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let series = custom().workload_series(60.0, 2.0, &mut rng);
        let total: usize = series.iter().flatten().sum();
        assert!(total > 0, "custom scenario never produced visible traffic");
    }

    #[test]
    fn full_pipeline_runs_on_a_custom_scenario() {
        use crate::runtime::{run_pipeline, Algorithm, PipelineConfig};
        let cfg = PipelineConfig {
            train_s: 30.0,
            eval_s: 20.0,
            ..PipelineConfig::paper_default(Algorithm::Balb)
        };
        let r = run_pipeline(&custom(), &cfg);
        assert!(r.recall > 0.7, "recall {}", r.recall);
        assert!(r.mean_latency_ms > 0.0);
    }
}
