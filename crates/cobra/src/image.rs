//! Still-image analysis for the Internet-scale scenario.
//!
//! The paper's future-work section wires generic multimedia detectors
//! into the Internet feature grammar: "a photo/graphic classifier for
//! images \[ASF97\] … face detection \[LH96\]. This would allow queries
//! like: 'show me all portraits embedded in pages containing keywords
//! semantically related to the word champion'."
//!
//! As with video, the raw layer is synthetic: an [`ImageSignal`] carries
//! the statistics those classifiers actually consume — colour count,
//! edge sharpness, saturation distribution (photos have many colours and
//! soft edges; graphics few colours and hard edges, the core of
//! Athitsos/Swain/Frankel's classifier) — plus skin-blob candidates for
//! the face detector.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The raw-layer record of one image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageSignal {
    /// Number of distinct colours (after quantisation).
    pub distinct_colors: u32,
    /// Fraction of pixels on hard edges (graphics ≫ photos).
    pub edge_sharpness: f64,
    /// Mean saturation.
    pub saturation: f64,
    /// Candidate face regions: `(relative area, ellipticity)` of
    /// skin-coloured blobs.
    pub skin_regions: Vec<(f64, f64)>,
}

/// Photo vs graphic, per \[ASF97\].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ImageKind {
    /// A photograph (natural image).
    Photo,
    /// A graphic (drawing, chart, logo).
    Graphic,
}

impl ImageKind {
    /// Lexical form used in grammar tokens.
    pub fn as_str(self) -> &'static str {
        match self {
            ImageKind::Photo => "photo",
            ImageKind::Graphic => "graphic",
        }
    }
}

/// Ground truth of one generated image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageTruth {
    /// The true kind.
    pub kind: ImageKind,
    /// Number of faces actually rendered.
    pub faces: usize,
}

/// Deterministically generates an image's raw signal with ground truth.
/// `faces` only makes sense for photos (graphics get zero).
pub fn generate_image(kind: ImageKind, faces: usize, seed: u64) -> (ImageSignal, ImageTruth) {
    let mut rng = StdRng::seed_from_u64(seed);
    let signal = match kind {
        ImageKind::Photo => {
            let mut skin_regions = Vec::new();
            for _ in 0..faces {
                // Faces: sizeable, roughly elliptical skin regions.
                skin_regions.push((
                    0.05 + rng.gen_range(0.0..0.25),
                    0.75 + rng.gen_range(0.0..0.2),
                ));
            }
            // Background skin-toned clutter (sand, wood): small or
            // non-elliptical.
            for _ in 0..rng.gen_range(0..3usize) {
                skin_regions.push((
                    rng.gen_range(0.001..0.02),
                    rng.gen_range(0.1..0.6),
                ));
            }
            ImageSignal {
                distinct_colors: 5_000 + rng.gen_range(0..60_000),
                edge_sharpness: 0.02 + rng.gen_range(0.0..0.08),
                saturation: 0.3 + rng.gen_range(0.0..0.3),
                skin_regions,
            }
        }
        ImageKind::Graphic => ImageSignal {
            distinct_colors: 2 + rng.gen_range(0..60),
            edge_sharpness: 0.35 + rng.gen_range(0.0..0.4),
            saturation: 0.5 + rng.gen_range(0.0..0.5),
            skin_regions: Vec::new(),
        },
    };
    let truth = ImageTruth {
        kind,
        faces: if kind == ImageKind::Photo { faces } else { 0 },
    };
    (signal, truth)
}

/// Colour-count threshold of the photo/graphic classifier.
pub const PHOTO_MIN_COLORS: u32 = 300;
/// Edge-sharpness threshold (above: graphic).
pub const GRAPHIC_MIN_SHARPNESS: f64 = 0.25;
/// Minimum relative area for a skin region to be a face candidate.
pub const FACE_MIN_AREA: f64 = 0.03;
/// Minimum ellipticity for a face candidate.
pub const FACE_MIN_ELLIPTICITY: f64 = 0.7;

/// The photo/graphic classifier: many colours and soft edges → photo.
pub fn classify_image(signal: &ImageSignal) -> ImageKind {
    if signal.distinct_colors >= PHOTO_MIN_COLORS
        && signal.edge_sharpness < GRAPHIC_MIN_SHARPNESS
    {
        ImageKind::Photo
    } else {
        ImageKind::Graphic
    }
}

/// The face detector: counts sizeable, elliptical skin regions.
pub fn count_faces(signal: &ImageSignal) -> usize {
    signal
        .skin_regions
        .iter()
        .filter(|(area, ell)| *area >= FACE_MIN_AREA && *ell >= FACE_MIN_ELLIPTICITY)
        .count()
}

/// A portrait is a photo with at least one face.
pub fn is_portrait(signal: &ImageSignal) -> bool {
    classify_image(signal) == ImageKind::Photo && count_faces(signal) >= 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(
            generate_image(ImageKind::Photo, 2, 7),
            generate_image(ImageKind::Photo, 2, 7)
        );
    }

    #[test]
    fn photo_graphic_classification_matches_truth() {
        for seed in 0..50 {
            for (kind, faces) in [(ImageKind::Photo, 1), (ImageKind::Graphic, 0)] {
                let (signal, truth) = generate_image(kind, faces, seed);
                assert_eq!(classify_image(&signal), truth.kind, "seed {seed}");
            }
        }
    }

    #[test]
    fn face_counting_matches_truth() {
        for seed in 0..50 {
            for faces in 0..4 {
                let (signal, truth) = generate_image(ImageKind::Photo, faces, seed);
                assert_eq!(count_faces(&signal), truth.faces, "seed {seed}");
            }
        }
    }

    #[test]
    fn portraits_are_photos_with_faces() {
        let (photo_face, _) = generate_image(ImageKind::Photo, 1, 3);
        assert!(is_portrait(&photo_face));
        let (photo_empty, _) = generate_image(ImageKind::Photo, 0, 3);
        assert!(!is_portrait(&photo_empty));
        let (graphic, _) = generate_image(ImageKind::Graphic, 0, 3);
        assert!(!is_portrait(&graphic));
    }

    #[test]
    fn graphics_never_contain_face_candidates() {
        for seed in 0..20 {
            let (signal, _) = generate_image(ImageKind::Graphic, 3, seed);
            assert_eq!(count_faces(&signal), 0);
        }
    }
}
