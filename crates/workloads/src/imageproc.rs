//! Satellite-image blurring (paper §4.1 and §4.3).
//!
//! The paper blurs tiles of the open Landsat-8 dataset. The dataset itself is
//! not redistributable here, so tiles are generated synthetically: a seeded
//! fractal-noise generator produces grayscale tiles whose byte size matches
//! the ~168 kB images mentioned in the paper, and the processing function
//! applies a separable box blur of configurable radius — the same memory and
//! CPU access pattern as the original filter.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A grayscale image tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageTile {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Row-major pixel intensities.
    pub pixels: Vec<u8>,
}

impl ImageTile {
    /// Creates a tile from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height`.
    pub fn new(width: usize, height: usize, pixels: Vec<u8>) -> Self {
        assert_eq!(pixels.len(), width * height, "pixel buffer size mismatch");
        Self { width, height, pixels }
    }

    /// Size of the tile in bytes (what travels on the network).
    pub fn byte_size(&self) -> usize {
        self.pixels.len()
    }

    /// Intensity at `(x, y)`.
    pub fn get(&self, x: usize, y: usize) -> u8 {
        self.pixels[y * self.width + x]
    }
}

/// Generates a deterministic pseudo-Landsat tile: layered value noise with
/// per-seed variation, so different tile indices look different but the same
/// index always produces the same bytes.
pub fn synthetic_tile(seed: u64, width: usize, height: usize) -> ImageTile {
    let mut rng = StdRng::seed_from_u64(seed);
    // Coarse random lattice, bilinearly interpolated, plus fine-grained noise.
    let lattice = 16usize;
    let coarse: Vec<f64> = (0..(lattice + 1) * (lattice + 1)).map(|_| rng.gen::<f64>()).collect();
    let mut pixels = Vec::with_capacity(width * height);
    for y in 0..height {
        for x in 0..width {
            let fx = x as f64 / width as f64 * lattice as f64;
            let fy = y as f64 / height as f64 * lattice as f64;
            let (ix, iy) = (fx as usize, fy as usize);
            let (tx, ty) = (fx - ix as f64, fy - iy as f64);
            let idx = |gx: usize, gy: usize| coarse[gy * (lattice + 1) + gx];
            let top = idx(ix, iy) * (1.0 - tx) + idx(ix + 1, iy) * tx;
            let bottom = idx(ix, iy + 1) * (1.0 - tx) + idx(ix + 1, iy + 1) * tx;
            let value = top * (1.0 - ty) + bottom * ty;
            let speckle = ((x * 31 + y * 17 + seed as usize) % 13) as f64 / 13.0 * 0.15;
            pixels.push(((value * 0.85 + speckle).clamp(0.0, 1.0) * 255.0) as u8);
        }
    }
    ImageTile { width, height, pixels }
}

/// A tile with the default Landsat-like dimensions used in the evaluation:
/// 410×410 pixels ≈ 168 kB, the size quoted in paper §5.5.
pub fn landsat_like_tile(seed: u64) -> ImageTile {
    synthetic_tile(seed, 410, 410)
}

/// Applies a separable box blur of the given radius.
///
/// # Panics
///
/// Panics if `radius` is zero (that would be the identity and is almost
/// always a configuration mistake).
pub fn box_blur(tile: &ImageTile, radius: usize) -> ImageTile {
    assert!(radius > 0, "blur radius must be at least 1");
    let width = tile.width;
    let height = tile.height;
    let mut horizontal = vec![0u8; width * height];
    for y in 0..height {
        for x in 0..width {
            let lo = x.saturating_sub(radius);
            let hi = (x + radius).min(width - 1);
            let sum: u32 = (lo..=hi).map(|xx| tile.pixels[y * width + xx] as u32).sum();
            horizontal[y * width + x] = (sum / (hi - lo + 1) as u32) as u8;
        }
    }
    let mut vertical = vec![0u8; width * height];
    for y in 0..height {
        for x in 0..width {
            let lo = y.saturating_sub(radius);
            let hi = (y + radius).min(height - 1);
            let sum: u32 = (lo..=hi).map(|yy| horizontal[yy * width + x] as u32).sum();
            vertical[y * width + x] = (sum / (hi - lo + 1) as u32) as u8;
        }
    }
    ImageTile { width, height, pixels: vertical }
}

/// Root-mean-square difference between two tiles of identical dimensions,
/// used by tests and by the stubborn-processing example to check downloads.
///
/// # Panics
///
/// Panics if the tiles have different dimensions.
pub fn rms_difference(a: &ImageTile, b: &ImageTile) -> f64 {
    assert_eq!((a.width, a.height), (b.width, b.height), "tiles must have identical dimensions");
    let sum: f64 = a
        .pixels
        .iter()
        .zip(&b.pixels)
        .map(|(&pa, &pb)| {
            let d = pa as f64 - pb as f64;
            d * d
        })
        .sum();
    (sum / a.pixels.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_tiles_are_deterministic_per_seed() {
        assert_eq!(synthetic_tile(7, 64, 64), synthetic_tile(7, 64, 64));
        assert_ne!(synthetic_tile(7, 64, 64), synthetic_tile(8, 64, 64));
    }

    #[test]
    fn landsat_like_tile_matches_paper_size() {
        let tile = landsat_like_tile(0);
        let kb = tile.byte_size() as f64 / 1000.0;
        assert!((160.0..=175.0).contains(&kb), "tile is ~168 kB, got {kb} kB");
    }

    #[test]
    #[should_panic(expected = "pixel buffer size mismatch")]
    fn mismatched_buffer_is_rejected() {
        let _ = ImageTile::new(10, 10, vec![0; 99]);
    }

    #[test]
    fn blur_preserves_dimensions_and_smooths() {
        let tile = synthetic_tile(3, 96, 96);
        let blurred = box_blur(&tile, 3);
        assert_eq!((blurred.width, blurred.height), (96, 96));
        // Smoothing reduces local variation: compare total variation between
        // horizontally adjacent pixels.
        let variation = |t: &ImageTile| -> u64 {
            let mut total = 0u64;
            for y in 0..t.height {
                for x in 1..t.width {
                    total += (t.get(x, y) as i64 - t.get(x - 1, y) as i64).unsigned_abs();
                }
            }
            total
        };
        assert!(variation(&blurred) < variation(&tile));
    }

    #[test]
    fn blur_of_uniform_image_is_identity() {
        let tile = ImageTile::new(16, 16, vec![120; 256]);
        assert_eq!(box_blur(&tile, 2).pixels, tile.pixels);
    }

    #[test]
    #[should_panic(expected = "blur radius")]
    fn zero_radius_is_rejected() {
        let _ = box_blur(&synthetic_tile(0, 8, 8), 0);
    }

    #[test]
    fn rms_difference_detects_changes() {
        let tile = synthetic_tile(1, 32, 32);
        assert_eq!(rms_difference(&tile, &tile), 0.0);
        let blurred = box_blur(&tile, 4);
        assert!(rms_difference(&tile, &blurred) > 0.0);
    }

    #[test]
    #[should_panic(expected = "identical dimensions")]
    fn rms_difference_requires_same_dimensions() {
        let _ = rms_difference(&synthetic_tile(0, 8, 8), &synthetic_tile(0, 9, 9));
    }
}
