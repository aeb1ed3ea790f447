//! Cross-camera object association (Sec. II-C of the paper).
//!
//! Identifies the *common objects* seen by multiple cameras so that the
//! scheduler can assign each physical object to exactly one camera. Because
//! camera view angles differ by up to 180°, plain homography fails; the
//! paper instead fits two data-driven models per ordered camera pair:
//!
//! 1. a **KNN classifier** deciding whether a bounding box seen by camera
//!    `i` is visible in camera `i'` at all, and
//! 2. a **KNN regressor** predicting *where* in camera `i'` it lands.
//!
//! Predicted boxes are then matched against actual detections in `i'` by
//! IoU proximity via the Hungarian algorithm, and matches are merged into
//! global identities with a union-find.
//!
//! All of camera `i`'s pair models memorize the same boxes — `i`'s own —
//! under different labels, so they are stored as one table with one head
//! per `i'`, and one outward sweep of that table per query box answers
//! both questions for every `i'` asked:
//!
//! * [`CameraSourceModel`] — a camera's labeled boxes, indexed once, plus
//!   per paired destination a label per box (the classifier's vote) and
//!   the shared boxes' locations there (what the regressor averages; no
//!   index of its own) — [`train_source_model`] fits it;
//! * [`CameraPairModel`] — its one-destination case, the bundle for a
//!   single pair ([`train_pair_model`] fits it from labeled
//!   correspondences);
//! * [`AssociationEngine`] — runs a full association round over all
//!   cameras' detections and returns the global object list
//!   ([`AssociationScratch`] is its reusable working memory; identities
//!   merge through a private union-find).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod model;
mod union_find;

pub use engine::{AssociationEngine, AssociationScratch, GlobalObject};
pub use model::{
    train_pair_model, train_source_model, CameraPairModel, CameraSourceModel, CorrespondenceSample,
};
use union_find::UnionFind;
