//! COBRA — the COntent-Based RetrievAl video data model and the tennis
//! video analysis pipeline of the paper's logical level.
//!
//! The model "distinguish\[es\] four distinct layers within video content:
//! the raw data, the feature, the object, and the event layer. The object
//! and event layers consist of entities characterized by prominent
//! spatial and temporal dimensions respectively."
//!
//! Because no MPEG footage of the 2001 Australian Open is available, the
//! **raw layer is synthetic**: [`synth`] generates per-frame signal
//! records — colour histograms, skin-pixel ratios, entropy statistics and
//! (for court shots) noisy player blobs — with full ground truth. This is
//! precisely the input domain the paper's detectors consume (colour
//! histograms for shot boundaries, dominant colour for court detection,
//! skin colour for close-ups, segmented blobs for tracking), so every
//! algorithm runs unchanged; see DESIGN.md §2.
//!
//! The pipeline, mirroring the paper's "Tennis video modeling and
//! analysis" section:
//!
//! * [`segment`] — shot-boundary detection from colour-histogram
//!   differences of neighbouring frames; dominant-colour extraction; the
//!   court colour is learned as "the dominant color that occurs most
//!   frequently", which generalises across court types "without changing
//!   any parameters".
//! * [`classify`] — shots become `tennis`, `closeup`, `audience` or
//!   `other` using dominant colour, skin ratio and entropy statistics.
//! * [`track`] — player segmentation in the first frame of a court shot,
//!   then predict-and-search tracking in subsequent frames.
//! * [`features`] — shape features of the segmented player: mass centre,
//!   area, bounding box, orientation, eccentricity.
//! * [`events`] — spatio-temporal event rules over observation sequences
//!   (the object/event grammars of the COBRA extensions); `netplay` is
//!   the running example.
//! * [`hmm`] — discrete hidden Markov models (Baum-Welch + Viterbi) for
//!   stochastic event recognition, the paper's \[PJZ01\] stroke recogniser.

#![warn(missing_docs)]

pub mod audio;
pub mod classify;
pub mod events;
pub mod features;
pub mod hmm;
pub mod image;
pub mod model;
pub mod segment;
pub mod synth;
pub mod track;

pub use classify::{classify_shot, classify_video};
pub use model::{Blob, FrameSignal, PlayerObservation, Shot, ShotClass, Video};
pub use segment::{court_color, detect_shots, dominant_bin};
pub use synth::{BroadcastSpec, ShotSpec, TrajectorySpec};
pub use track::track_player;
