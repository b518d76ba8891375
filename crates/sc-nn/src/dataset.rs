//! Deterministic synthetic MNIST-like digit dataset.
//!
//! The paper evaluates LeNet-5 on MNIST. The MNIST files are not
//! redistributable inside this repository and no network access is assumed,
//! so this module procedurally renders 28×28 grey-scale digits instead: each
//! class is drawn from a 7×5 seed glyph, scaled up, randomly translated,
//! thickness-jittered and corrupted with pixel noise. The generator is fully
//! deterministic for a given seed, which keeps every experiment reproducible.
//!
//! The substitution preserves what the experiments need: a 10-class image
//! classification task of the same input geometry, hard enough that accuracy
//! degrades when weights are quantized or stochastic-computing noise is
//! injected, yet learnable by LeNet-5 in a few epochs on a CPU.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Image side length (matching MNIST's 28×28).
pub const IMAGE_SIZE: usize = 28;

/// Number of digit classes.
pub const CLASSES: usize = 10;

/// 7×5 seed glyphs for the ten digits.
const GLYPHS: [[&str; 7]; 10] = [
    [
        "01110", "10001", "10011", "10101", "11001", "10001", "01110",
    ], // 0
    [
        "00100", "01100", "00100", "00100", "00100", "00100", "01110",
    ], // 1
    [
        "01110", "10001", "00001", "00110", "01000", "10000", "11111",
    ], // 2
    [
        "01110", "10001", "00001", "00110", "00001", "10001", "01110",
    ], // 3
    [
        "00010", "00110", "01010", "10010", "11111", "00010", "00010",
    ], // 4
    [
        "11111", "10000", "11110", "00001", "00001", "10001", "01110",
    ], // 5
    [
        "00110", "01000", "10000", "11110", "10001", "10001", "01110",
    ], // 6
    [
        "11111", "00001", "00010", "00100", "01000", "01000", "01000",
    ], // 7
    [
        "01110", "10001", "10001", "01110", "10001", "10001", "01110",
    ], // 8
    [
        "01110", "10001", "10001", "01111", "00001", "00010", "01100",
    ], // 9
];

/// A generated train/test split.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyntheticDigits {
    /// Training images, each a `(1, 28, 28)` tensor with values in `[0, 1]`.
    pub train_images: Vec<Tensor>,
    /// Training labels (0–9).
    pub train_labels: Vec<usize>,
    /// Test images.
    pub test_images: Vec<Tensor>,
    /// Test labels.
    pub test_labels: Vec<usize>,
}

impl SyntheticDigits {
    /// Generates a balanced dataset with `train_per_class` training samples
    /// per digit and one quarter as many test samples per digit.
    ///
    /// # Panics
    ///
    /// Panics if `train_per_class` is zero.
    pub fn generate(train_per_class: usize, seed: u64) -> Self {
        assert!(
            train_per_class > 0,
            "need at least one training sample per class"
        );
        let test_per_class = (train_per_class / 4).max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut train_images = Vec::new();
        let mut train_labels = Vec::new();
        let mut test_images = Vec::new();
        let mut test_labels = Vec::new();
        for digit in 0..CLASSES {
            for _ in 0..train_per_class {
                train_images.push(render_digit(digit, &mut rng));
                train_labels.push(digit);
            }
            for _ in 0..test_per_class {
                test_images.push(render_digit(digit, &mut rng));
                test_labels.push(digit);
            }
        }
        Self {
            train_images,
            train_labels,
            test_images,
            test_labels,
        }
    }

    /// Number of training samples.
    pub fn train_len(&self) -> usize {
        self.train_images.len()
    }

    /// Number of test samples.
    pub fn test_len(&self) -> usize {
        self.test_images.len()
    }

    /// Loads the real MNIST dataset from `SC_MNIST_DIR` when the variable is
    /// set and the IDX files load, otherwise generates the synthetic dataset.
    ///
    /// The MNIST split is truncated to `train_per_class` training and
    /// `max(train_per_class / 4, 1)` test samples per class so the two
    /// sources are interchangeable in experiments.
    ///
    /// # Panics
    ///
    /// Panics if `train_per_class` is zero.
    pub fn load_or_generate(train_per_class: usize, seed: u64) -> Self {
        if let Some(dir) = std::env::var_os("SC_MNIST_DIR") {
            match mnist::load_from_dir(std::path::Path::new(&dir), train_per_class) {
                Ok(data) => return data,
                Err(error) => {
                    eprintln!(
                        "SC_MNIST_DIR set but MNIST load failed ({error}); \
                         falling back to SyntheticDigits"
                    );
                }
            }
        }
        Self::generate(train_per_class, seed)
    }
}

/// Loader for the real MNIST IDX files (pointed at by `SC_MNIST_DIR`).
///
/// Parses the classic `train-images-idx3-ubyte` / `train-labels-idx1-ubyte`
/// (and `t10k-…`) files with plain `std` I/O — no decompression, no network
/// access. Pixels are normalized to `[0, 1]` and shaped `(1, 28, 28)`, so
/// the loaded dataset is a drop-in replacement for [`SyntheticDigits`].
pub mod mnist {
    use super::{SyntheticDigits, CLASSES};
    use crate::tensor::Tensor;
    use std::io::{self, Read};
    use std::path::Path;

    /// IDX magic for unsigned-byte rank-3 image files.
    const IMAGES_MAGIC: u32 = 0x0000_0803;
    /// IDX magic for unsigned-byte rank-1 label files.
    const LABELS_MAGIC: u32 = 0x0000_0801;

    fn read_u32(reader: &mut impl Read) -> io::Result<u32> {
        let mut buf = [0u8; 4];
        reader.read_exact(&mut buf)?;
        Ok(u32::from_be_bytes(buf))
    }

    fn bad_data(message: String) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, message)
    }

    /// Parses an IDX image file into `(1, rows, cols)` tensors in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error for unreadable files and `InvalidData` for a
    /// wrong magic or a truncated payload.
    pub fn read_idx_images(path: &Path) -> io::Result<Vec<Tensor>> {
        let mut reader = io::BufReader::new(std::fs::File::open(path)?);
        let magic = read_u32(&mut reader)?;
        if magic != IMAGES_MAGIC {
            return Err(bad_data(format!(
                "{}: image magic {magic:#010x}, expected {IMAGES_MAGIC:#010x}",
                path.display()
            )));
        }
        let count = read_u32(&mut reader)? as usize;
        let rows = read_u32(&mut reader)? as usize;
        let cols = read_u32(&mut reader)? as usize;
        let mut pixels = vec![0u8; rows * cols];
        let mut images = Vec::with_capacity(count);
        for _ in 0..count {
            reader.read_exact(&mut pixels)?;
            let data: Vec<f32> = pixels.iter().map(|&p| f32::from(p) / 255.0).collect();
            images.push(Tensor::from_vec(data, &[1, rows, cols]));
        }
        Ok(images)
    }

    /// Parses an IDX label file into class indices.
    ///
    /// # Errors
    ///
    /// Returns an I/O error for unreadable files and `InvalidData` for a
    /// wrong magic, a truncated payload, or an out-of-range label.
    pub fn read_idx_labels(path: &Path) -> io::Result<Vec<usize>> {
        let mut reader = io::BufReader::new(std::fs::File::open(path)?);
        let magic = read_u32(&mut reader)?;
        if magic != LABELS_MAGIC {
            return Err(bad_data(format!(
                "{}: label magic {magic:#010x}, expected {LABELS_MAGIC:#010x}",
                path.display()
            )));
        }
        let count = read_u32(&mut reader)? as usize;
        let mut bytes = vec![0u8; count];
        reader.read_exact(&mut bytes)?;
        bytes
            .into_iter()
            .map(|label| {
                let label = label as usize;
                if label < CLASSES {
                    Ok(label)
                } else {
                    Err(bad_data(format!("label {label} out of range")))
                }
            })
            .collect()
    }

    /// Takes a class-balanced prefix of `per_class` samples per digit.
    fn balanced_subset(
        images: &[Tensor],
        labels: &[usize],
        per_class: usize,
    ) -> (Vec<Tensor>, Vec<usize>) {
        let mut taken = [0usize; CLASSES];
        let mut out_images = Vec::with_capacity(per_class * CLASSES);
        let mut out_labels = Vec::with_capacity(per_class * CLASSES);
        for (image, &label) in images.iter().zip(labels.iter()) {
            if taken[label] < per_class {
                taken[label] += 1;
                out_images.push(image.clone());
                out_labels.push(label);
            }
        }
        (out_images, out_labels)
    }

    /// Loads MNIST from a directory holding the four classic IDX files and
    /// truncates it to a class-balanced split matching
    /// [`SyntheticDigits::generate`]'s sizing.
    ///
    /// # Errors
    ///
    /// Returns an error if any file is missing or malformed, or if
    /// image/label counts disagree.
    pub fn load_from_dir(dir: &Path, train_per_class: usize) -> io::Result<SyntheticDigits> {
        let train_images = read_idx_images(&dir.join("train-images-idx3-ubyte"))?;
        let train_labels = read_idx_labels(&dir.join("train-labels-idx1-ubyte"))?;
        let test_images = read_idx_images(&dir.join("t10k-images-idx3-ubyte"))?;
        let test_labels = read_idx_labels(&dir.join("t10k-labels-idx1-ubyte"))?;
        if train_images.len() != train_labels.len() || test_images.len() != test_labels.len() {
            return Err(bad_data(format!(
                "image/label count mismatch: {}/{} train, {}/{} test",
                train_images.len(),
                train_labels.len(),
                test_images.len(),
                test_labels.len()
            )));
        }
        let test_per_class = (train_per_class / 4).max(1);
        let (train_images, train_labels) =
            balanced_subset(&train_images, &train_labels, train_per_class);
        let (test_images, test_labels) =
            balanced_subset(&test_images, &test_labels, test_per_class);
        Ok(SyntheticDigits {
            train_images,
            train_labels,
            test_images,
            test_labels,
        })
    }
}

/// Renders one noisy digit image as a `(1, 28, 28)` tensor in `[0, 1]`.
pub fn render_digit(digit: usize, rng: &mut StdRng) -> Tensor {
    assert!(digit < CLASSES, "digit {digit} out of range");
    let glyph = &GLYPHS[digit];
    let mut image = Tensor::zeros(&[1, IMAGE_SIZE, IMAGE_SIZE]);
    // Random placement and per-sample stroke intensity.
    let scale: f32 = rng.gen_range(2.6..3.4);
    let offset_x: f32 = rng.gen_range(3.0..9.0);
    let offset_y: f32 = rng.gen_range(2.0..6.0);
    let intensity: f32 = rng.gen_range(0.75..1.0);
    let thickness: f32 = rng.gen_range(0.9..1.5);
    for y in 0..IMAGE_SIZE {
        for x in 0..IMAGE_SIZE {
            // Map the image pixel back into glyph coordinates.
            let gy = (y as f32 - offset_y) / scale;
            let gx = (x as f32 - offset_x) / scale;
            let mut value: f32 = 0.0;
            if gy >= -0.5 && gx >= -0.5 && gy < 7.5 && gx < 5.5 {
                // Soft-sample the glyph with a small neighbourhood so strokes
                // have anti-aliased edges whose width depends on `thickness`.
                for (dy, dx) in [(0.0, 0.0), (0.3, 0.0), (0.0, 0.3), (-0.3, 0.0), (0.0, -0.3)] {
                    let sy = (gy + dy * thickness).round();
                    let sx = (gx + dx * thickness).round();
                    if (0.0..7.0).contains(&sy) && (0.0..5.0).contains(&sx) {
                        let row = glyph[sy as usize].as_bytes();
                        if row[sx as usize] == b'1' {
                            value += 0.25;
                        }
                    }
                }
            }
            let noise: f32 = rng.gen_range(-0.06..0.06);
            *image.at3_mut(0, y, x) = (value.min(1.0) * intensity + noise).clamp(0.0, 1.0);
        }
    }
    image
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticDigits::generate(5, 42);
        let b = SyntheticDigits::generate(5, 42);
        assert_eq!(a.train_images[0].as_slice(), b.train_images[0].as_slice());
        assert_eq!(a.train_labels, b.train_labels);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticDigits::generate(2, 1);
        let b = SyntheticDigits::generate(2, 2);
        assert_ne!(a.train_images[0].as_slice(), b.train_images[0].as_slice());
    }

    #[test]
    fn dataset_is_balanced_and_sized() {
        let data = SyntheticDigits::generate(8, 3);
        assert_eq!(data.train_len(), 80);
        assert_eq!(data.test_len(), 20);
        for digit in 0..CLASSES {
            assert_eq!(data.train_labels.iter().filter(|&&l| l == digit).count(), 8);
            assert_eq!(data.test_labels.iter().filter(|&&l| l == digit).count(), 2);
        }
    }

    #[test]
    fn images_are_normalized_and_shaped() {
        let data = SyntheticDigits::generate(2, 9);
        for image in &data.train_images {
            assert_eq!(image.shape(), &[1, IMAGE_SIZE, IMAGE_SIZE]);
            assert!(image.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn digits_have_visible_strokes() {
        let mut rng = StdRng::seed_from_u64(5);
        for digit in 0..CLASSES {
            let image = render_digit(digit, &mut rng);
            let bright = image.as_slice().iter().filter(|&&v| v > 0.5).count();
            assert!(
                bright > 20,
                "digit {digit} renders only {bright} bright pixels"
            );
        }
    }

    #[test]
    fn classes_are_visually_distinct() {
        // Average images of different digits should differ noticeably.
        let mut rng = StdRng::seed_from_u64(11);
        let zero = render_digit(0, &mut rng);
        let one = render_digit(1, &mut rng);
        let diff: f32 = zero
            .as_slice()
            .iter()
            .zip(one.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(
            diff > 10.0,
            "digits 0 and 1 are nearly identical (diff {diff})"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_digit_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = render_digit(10, &mut rng);
    }

    #[test]
    fn load_or_generate_falls_back_to_synthetic() {
        // Without SC_MNIST_DIR this must be the synthetic generator,
        // bit-for-bit.
        let loaded = SyntheticDigits::load_or_generate(3, 42);
        let generated = SyntheticDigits::generate(3, 42);
        assert_eq!(
            loaded.train_images[0].as_slice(),
            generated.train_images[0].as_slice()
        );
        assert_eq!(loaded.train_labels, generated.train_labels);
    }
}

#[cfg(test)]
mod mnist_tests {
    use super::mnist::{load_from_dir, read_idx_images, read_idx_labels};
    use super::*;
    use std::io::Write;
    use std::path::PathBuf;

    /// Writes a minimal IDX pair (images + labels) and returns the dir.
    fn write_fixture(name: &str, samples_per_class: usize) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sc-mnist-fixture-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (images_name, labels_name) in [
            ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
            ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
        ] {
            let count = samples_per_class * CLASSES;
            let mut images = std::fs::File::create(dir.join(images_name)).unwrap();
            images.write_all(&0x0000_0803u32.to_be_bytes()).unwrap();
            images.write_all(&(count as u32).to_be_bytes()).unwrap();
            images.write_all(&28u32.to_be_bytes()).unwrap();
            images.write_all(&28u32.to_be_bytes()).unwrap();
            let mut labels = std::fs::File::create(dir.join(labels_name)).unwrap();
            labels.write_all(&0x0000_0801u32.to_be_bytes()).unwrap();
            labels.write_all(&(count as u32).to_be_bytes()).unwrap();
            for sample in 0..count {
                let digit = (sample % CLASSES) as u8;
                // Constant plane whose intensity encodes the digit, so the
                // parsed pixel values are checkable.
                images.write_all(&[digit * 20; 28 * 28]).unwrap();
                labels.write_all(&[digit]).unwrap();
            }
        }
        dir
    }

    #[test]
    fn idx_round_trip_parses_shapes_and_values() {
        let dir = write_fixture("roundtrip", 2);
        let images = read_idx_images(&dir.join("train-images-idx3-ubyte")).unwrap();
        let labels = read_idx_labels(&dir.join("train-labels-idx1-ubyte")).unwrap();
        assert_eq!(images.len(), 20);
        assert_eq!(labels[..3], [0, 1, 2]);
        assert_eq!(images[0].shape(), &[1, 28, 28]);
        assert!((images[3].as_slice()[0] - 60.0 / 255.0).abs() < 1e-6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_from_dir_produces_balanced_split() {
        let dir = write_fixture("balanced", 5);
        let data = load_from_dir(&dir, 4).unwrap();
        assert_eq!(data.train_len(), 40);
        assert_eq!(data.test_len(), 10);
        for digit in 0..CLASSES {
            assert_eq!(data.train_labels.iter().filter(|&&l| l == digit).count(), 4);
            assert_eq!(data.test_labels.iter().filter(|&&l| l == digit).count(), 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let dir = write_fixture("magic", 1);
        // Labels parsed as images must fail on the magic number.
        assert!(read_idx_images(&dir.join("train-labels-idx1-ubyte")).is_err());
        assert!(read_idx_labels(&dir.join("train-images-idx3-ubyte")).is_err());
        assert!(load_from_dir(&dir.join("missing"), 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
