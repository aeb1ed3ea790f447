//! Quantized partial-region sizes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The quantized spatial sizes used for partial-frame DNN inspection.
///
/// Only crops with the same spatial size can be put into one GPU batch, so
/// the tracker expands every predicted search region to the nearest size in
/// this set (Sec. II-B of the paper). Regions larger than 512 are
/// *downsampled* to 512 — large objects are easy to detect at reduced
/// resolution — so `S512` is also the catch-all for oversized regions.
///
/// # Examples
///
/// ```
/// use mvs_geometry::SizeClass;
///
/// assert_eq!(SizeClass::quantize(30.0, 50.0), SizeClass::S64);
/// assert_eq!(SizeClass::quantize(300.0, 100.0), SizeClass::S512);
/// assert_eq!(SizeClass::quantize(2000.0, 900.0), SizeClass::S512); // downsized
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SizeClass {
    /// 64×64 crop.
    S64,
    /// 128×128 crop.
    S128,
    /// 256×256 crop.
    S256,
    /// 512×512 crop (also used, with downsampling, for larger regions).
    S512,
}

impl SizeClass {
    /// All size classes in increasing order.
    pub const ALL: [SizeClass; 4] = [
        SizeClass::S64,
        SizeClass::S128,
        SizeClass::S256,
        SizeClass::S512,
    ];

    /// Number of distinct size classes.
    pub const COUNT: usize = 4;

    /// Side length of the (square) crop in pixels.
    #[inline]
    pub const fn side(self) -> u32 {
        match self {
            SizeClass::S64 => 64,
            SizeClass::S128 => 128,
            SizeClass::S256 => 256,
            SizeClass::S512 => 512,
        }
    }

    /// Pixel area of the crop.
    #[inline]
    pub const fn pixels(self) -> u64 {
        let s = self.side() as u64;
        s * s
    }

    /// Dense index in `0..SizeClass::COUNT`, for table lookups.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            SizeClass::S64 => 0,
            SizeClass::S128 => 1,
            SizeClass::S256 => 2,
            SizeClass::S512 => 3,
        }
    }

    /// The size class with dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= SizeClass::COUNT`.
    #[inline]
    pub fn from_index(i: usize) -> SizeClass {
        SizeClass::ALL[i]
    }

    /// Quantizes a region of `width`×`height` pixels to the smallest class
    /// whose side covers the region's long side; regions beyond 512 are
    /// downsized to [`SizeClass::S512`].
    pub fn quantize(width: f64, height: f64) -> SizeClass {
        let long = width.max(height);
        for class in SizeClass::ALL {
            if long <= class.side() as f64 {
                return class;
            }
        }
        SizeClass::S512
    }
}

impl fmt::Display for SizeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.side())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_boundaries() {
        assert_eq!(SizeClass::quantize(64.0, 64.0), SizeClass::S64);
        assert_eq!(SizeClass::quantize(64.1, 10.0), SizeClass::S128);
        assert_eq!(SizeClass::quantize(128.0, 128.0), SizeClass::S128);
        assert_eq!(SizeClass::quantize(129.0, 1.0), SizeClass::S256);
        assert_eq!(SizeClass::quantize(512.0, 12.0), SizeClass::S512);
        assert_eq!(SizeClass::quantize(513.0, 12.0), SizeClass::S512);
    }

    #[test]
    fn quantize_uses_long_side() {
        assert_eq!(SizeClass::quantize(10.0, 200.0), SizeClass::S256);
        assert_eq!(SizeClass::quantize(200.0, 10.0), SizeClass::S256);
    }

    #[test]
    fn index_round_trip() {
        for class in SizeClass::ALL {
            assert_eq!(SizeClass::from_index(class.index()), class);
        }
    }

    #[test]
    fn ordering_matches_side() {
        assert!(SizeClass::S64 < SizeClass::S128);
        assert!(SizeClass::S128 < SizeClass::S256);
        assert!(SizeClass::S256 < SizeClass::S512);
    }

    #[test]
    fn display_is_side() {
        assert_eq!(SizeClass::S256.to_string(), "256");
    }
}
