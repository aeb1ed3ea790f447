//! The simulated 2-D world: vehicles moving along routes.

use crate::trajectory::{FollowingModel, Route, SpawnConfig, TrafficLight};
use mvs_geometry::Point2;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A vehicle in the world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldObject {
    /// Globally unique identity (never reused within a run).
    pub id: u64,
    /// Index of the route being followed.
    pub route: usize,
    /// Arc length along the route, metres.
    pub progress_m: f64,
    /// Physical length of the vehicle, metres (its projected long side).
    pub length_m: f64,
    /// Physical height, metres (drives projected box height).
    pub height_m: f64,
}

/// One route with its optional light and arrival process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lane {
    /// The path vehicles follow.
    pub route: Route,
    /// Signal gating this route, if any.
    pub light: Option<TrafficLight>,
    /// Arrival process feeding this route.
    pub spawn: SpawnConfig,
}

/// The world: lanes, live vehicles, and simulated time.
///
/// Stepped at the camera frame rate; vehicle motion uses a simple
/// car-following model so red lights produce realistic queues and platoons
/// (the workload dynamics of Fig. 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct World {
    lanes: Vec<Lane>,
    following: FollowingModel,
    objects: Vec<WorldObject>,
    time_s: f64,
    next_id: u64,
    /// `positions[i]` = world position of `objects[i]`. A pure function of
    /// `lanes` and `objects`, kept because every camera reads every
    /// object's position every frame: `step` refills it, `spawn_at` drops
    /// it, and an unset cell (a new, respawned or deserialized world) is
    /// filled on first read. Not part of equality or the serialized form.
    #[serde(skip)]
    positions: OnceLock<Vec<Point2>>,
    /// Working buffer of [`World::step`]: object indices in move order.
    /// Refilled by every step; like `positions`, not part of equality or
    /// the serialized form.
    #[serde(skip)]
    move_order: Vec<usize>,
}

impl PartialEq for World {
    fn eq(&self, other: &Self) -> bool {
        self.lanes == other.lanes
            && self.following == other.following
            && self.objects == other.objects
            && self.time_s == other.time_s
            && self.next_id == other.next_id
    }
}

impl World {
    /// Creates an empty world over the given lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty.
    pub fn new(lanes: Vec<Lane>, following: FollowingModel) -> Self {
        assert!(!lanes.is_empty(), "world needs at least one lane");
        World {
            lanes,
            following,
            objects: Vec::new(),
            time_s: 0.0,
            next_id: 0,
            positions: OnceLock::new(),
            move_order: Vec::new(),
        }
    }

    /// Current simulated time in seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Live vehicles.
    pub fn objects(&self) -> &[WorldObject] {
        &self.objects
    }

    /// The lanes.
    pub fn lanes(&self) -> &[Lane] {
        &self.lanes
    }

    /// World position of an object.
    ///
    /// # Panics
    ///
    /// Panics if the object's route index is invalid (impossible for
    /// objects produced by this world).
    pub fn position_of(&self, obj: &WorldObject) -> Point2 {
        self.lanes[obj.route].route.position_at(obj.progress_m)
    }

    /// World positions of [`World::objects`], index for index.
    pub fn positions(&self) -> &[Point2] {
        self.positions
            .get_or_init(|| self.objects.iter().map(|o| self.position_of(o)).collect())
    }

    /// Advances the world by `dt_s` seconds: moves vehicles (respecting
    /// leaders and lights), despawns finished ones, and spawns arrivals.
    pub fn step<R: Rng + ?Sized>(&mut self, dt_s: f64, rng: &mut R) {
        assert!(dt_s > 0.0, "time step must be positive");
        // Move, lane by lane, front-to-back so leader gaps use current-step
        // leader positions consistently: one sort by (lane, progress
        // descending) puts every lane's vehicles leader first; equal
        // progress keeps object order.
        self.move_order.clear();
        self.move_order.extend(0..self.objects.len());
        // The index as last key makes the order total, so the unstable sort
        // gives the stable one's result without its merge buffer.
        self.move_order.sort_unstable_by(|&a, &b| {
            let (oa, ob) = (&self.objects[a], &self.objects[b]);
            oa.route
                .cmp(&ob.route)
                .then_with(|| {
                    ob.progress_m
                        .partial_cmp(&oa.progress_m)
                        .expect("finite progress")
                })
                .then(a.cmp(&b))
        });
        let mut leader: Option<(usize, f64)> = None; // (lane, rear position)
        for &i in &self.move_order {
            let lane_idx = self.objects[i].route;
            let lane = &self.lanes[lane_idx];
            let s = self.objects[i].progress_m;
            let gap = leader
                .filter(|&(l, _)| l == lane_idx)
                .map(|(_, rear)| rear - s);
            let light = lane.light.as_ref().map(|l| (l, self.time_s));
            let speed = self
                .following
                .effective_speed(lane.route.speed_mps, s, gap, light);
            self.objects[i].progress_m += speed * dt_s;
            leader = Some((
                lane_idx,
                self.objects[i].progress_m - self.objects[i].length_m,
            ));
        }
        // Despawn vehicles past the end of their route.
        let lanes = &self.lanes;
        self.objects
            .retain(|o| o.progress_m < lanes[o.route].route.length());
        // Spawn new arrivals.
        for lane_idx in 0..self.lanes.len() {
            let spawn = self.lanes[lane_idx].spawn;
            if spawn.rate_per_s <= 0.0 {
                continue;
            }
            let p = (spawn.rate_per_s * dt_s).min(1.0);
            if !rng.gen_bool(p) {
                continue;
            }
            // Respect the entry headway.
            let blocked = self
                .objects
                .iter()
                .any(|o| o.route == lane_idx && o.progress_m - o.length_m < spawn.min_gap_m);
            if blocked {
                continue;
            }
            let id = self.next_id;
            self.next_id += 1;
            self.objects.push(WorldObject {
                id,
                route: lane_idx,
                progress_m: 0.0,
                length_m: rng.gen_range(3.8..5.2),
                height_m: rng.gen_range(1.4..2.1),
            });
        }
        self.time_s += dt_s;
        let mut positions = self.positions.take().unwrap_or_default();
        positions.clear();
        positions.extend(self.objects.iter().map(|o| self.position_of(o)));
        self.positions = positions.into();
    }

    /// Injects a vehicle directly (used by tests and warm-started runs).
    pub fn spawn_at(&mut self, route: usize, progress_m: f64, length_m: f64, height_m: f64) -> u64 {
        assert!(route < self.lanes.len(), "route index out of range");
        let id = self.next_id;
        self.next_id += 1;
        self.objects.push(WorldObject {
            id,
            route,
            progress_m,
            length_m,
            height_m,
        });
        self.positions.take();
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn straight_lane(rate: f64) -> Lane {
        Lane {
            route: Route::new(vec![Point2::new(0.0, 0.0), Point2::new(200.0, 0.0)], 10.0),
            light: None,
            spawn: SpawnConfig {
                rate_per_s: rate,
                min_gap_m: 8.0,
            },
        }
    }

    #[test]
    fn vehicles_advance_and_despawn() {
        let mut w = World::new(vec![straight_lane(0.0)], FollowingModel::default());
        let id = w.spawn_at(0, 0.0, 4.5, 1.6);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..10 {
            w.step(0.1, &mut rng); // 1 s total at 10 m/s
        }
        let o = &w.objects()[0];
        assert_eq!(o.id, id);
        assert!((o.progress_m - 10.0).abs() < 1e-9);
        // Run until past the end: despawned.
        for _ in 0..300 {
            w.step(0.1, &mut rng);
        }
        assert!(w.objects().is_empty());
    }

    #[test]
    fn follower_respects_leader_gap() {
        let mut w = World::new(vec![straight_lane(0.0)], FollowingModel::default());
        w.spawn_at(0, 50.0, 4.5, 1.6); // leader
        w.spawn_at(0, 45.0, 4.5, 1.6); // follower 5 m behind (gap < stop)
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let before = w.objects()[1].progress_m;
        w.step(0.1, &mut rng);
        // gap = 50 - 4.5 - 45 = 0.5 < stop_gap → follower frozen.
        assert_eq!(w.objects()[1].progress_m, before);
        // Leader cruised.
        assert!(w.objects()[0].progress_m > 50.0);
    }

    #[test]
    fn red_light_builds_a_queue_and_green_releases_it() {
        let light = TrafficLight {
            period_s: 40.0,
            green_fraction: 0.5,
            offset_s: 20.0, // red during [0, 20)
            stop_line_s: 100.0,
        };
        let lane = Lane {
            light: Some(light),
            ..straight_lane(0.0)
        };
        let mut w = World::new(vec![lane], FollowingModel::default());
        w.spawn_at(0, 80.0, 4.5, 1.6);
        w.spawn_at(0, 60.0, 4.5, 1.6);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        // 15 s of red: both must be stopped near the line, in order.
        for _ in 0..150 {
            w.step(0.1, &mut rng);
        }
        let lead = w.objects()[0].progress_m;
        let follow = w.objects()[1].progress_m;
        assert!(lead < 100.0, "leader stopped before the line: {lead}");
        assert!(follow < lead, "queue preserves order");
        assert!(lead > 90.0, "leader crept close to the line: {lead}");
        // 10 more seconds reach the green phase: queue discharges.
        for _ in 0..100 {
            w.step(0.1, &mut rng);
        }
        assert!(w.objects().iter().all(|o| o.progress_m > 100.0));
    }

    #[test]
    fn spawning_respects_headway() {
        let mut w = World::new(vec![straight_lane(10.0)], FollowingModel::default());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // Extremely high rate, but headway caps density near the entry.
        for _ in 0..50 {
            w.step(0.1, &mut rng);
        }
        let mut entries: Vec<f64> = w
            .objects()
            .iter()
            .map(|o| o.progress_m)
            .filter(|&p| p < 30.0)
            .collect();
        entries.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        for pair in entries.windows(2) {
            assert!(pair[1] - pair[0] > 3.0, "vehicles overlap: {entries:?}");
        }
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let mut w = World::new(vec![straight_lane(5.0)], FollowingModel::default());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..200 {
            w.step(0.1, &mut rng);
        }
        let mut ids: Vec<u64> = w.objects().iter().map(|o| o.id).collect();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut w = World::new(vec![straight_lane(3.0)], FollowingModel::default());
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..100 {
                w.step(0.1, &mut rng);
            }
            w
        };
        assert_eq!(run(7), run(7));
    }
}
