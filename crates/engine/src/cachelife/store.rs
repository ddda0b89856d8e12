//! On-disk persistence of LUT-cache images (`std::fs` only).
//!
//! A cache directory holds one checksummed binary file per cache key plus
//! a checksummed manifest listing them:
//!
//! ```text
//! <dir>/manifest.lcm          magic "LCLM", version, entry table, FNV-64
//! <dir>/lut-<keyhex>.bin      magic "LCLT", version, key, canonical
//!                             image (i32 LE), reorder image (LE at its
//!                             stored width: 1, 2 or 4 bytes an entry),
//!                             FNV-64 over everything before it
//! ```
//!
//! All integers are little-endian; the checksum is the workspace-standard
//! FNV-1a 64 ([`runtime::fnv1a_64`]) over every byte that precedes it.
//! The manifest records each image file's length and checksum, so a
//! truncated, corrupted, or swapped file is detected before any entry is
//! trusted — and every failure is a typed [`StoreError`], which the
//! engine maps to "fall back to a cold build" rather than a crash.
//!
//! LUT images are pure functions of their key, so restoring one is
//! bitwise equivalent to rebuilding it; the store exists purely to skip
//! the multi-hundred-millisecond host-side build on warm starts. Writes
//! go through a temp file + rename so a crashed writer can't leave a
//! half-written manifest that parses.

use super::lru::LutKey;
use localut::canonical::CanonicalLut;
use localut::kernels::SharedLuts;
use localut::plan::Placement;
use localut::reorder::{ReorderEntries, ReorderLut};
use quant::NumericFormat;
use runtime::fnv1a_64;
use std::fmt;
use std::path::{Path, PathBuf};

/// Manifest magic bytes.
const MANIFEST_MAGIC: [u8; 4] = *b"LCLM";
/// Image-file magic bytes.
const IMAGE_MAGIC: [u8; 4] = *b"LCLT";
/// On-disk format version (bumped on any incompatible layout change;
/// 2 = reorder entries at their stored width instead of 8 bytes each).
const VERSION: u16 = 2;
/// Manifest file name inside a cache directory.
const MANIFEST_NAME: &str = "manifest.lcm";
/// Bytes of one encoded [`LutKey`].
const KEY_BYTES: usize = 10;

/// Why a cache directory could not be read or written.
///
/// Every variant names the file it arose from; load failures are
/// *recoverable* by design — [`crate::EngineBuilder::build`] records the
/// error and falls back to a cold cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem I/O failed (the error is carried as text so the type
    /// stays `Clone + PartialEq` like every other engine error).
    Io {
        /// Path the operation touched.
        path: String,
        /// The underlying I/O error, displayed.
        message: String,
    },
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// Offending file.
        path: String,
    },
    /// The file's format version is not one this build reads.
    UnsupportedVersion {
        /// Offending file.
        path: String,
        /// Version found.
        version: u16,
    },
    /// The file ended before its declared contents did.
    Truncated {
        /// Offending file.
        path: String,
    },
    /// The trailing checksum does not match the file's bytes, or an image
    /// file's length/checksum does not match what the manifest recorded.
    ChecksumMismatch {
        /// Offending file.
        path: String,
    },
    /// The file decoded structurally but its contents are inconsistent
    /// (unknown format tag, image shape mismatch, key mismatch, ...).
    Corrupt {
        /// Offending file.
        path: String,
        /// What was inconsistent.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "cache store I/O on {path}: {message}"),
            StoreError::BadMagic { path } => {
                write!(f, "{path} is not a LUT cache file (bad magic)")
            }
            StoreError::UnsupportedVersion { path, version } => {
                write!(f, "{path} has unsupported cache format version {version}")
            }
            StoreError::Truncated { path } => write!(f, "{path} is truncated"),
            StoreError::ChecksumMismatch { path } => write!(f, "{path} failed its checksum"),
            StoreError::Corrupt { path, detail } => write!(f, "{path} is corrupt: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_error(path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// The canonical 10-byte encoding of a cache key: format tags and bit
/// widths, packing degree, placement. Doubles as the persistence sort
/// key and the image file name stem, so on-disk layout is a pure
/// function of the cache contents.
#[must_use]
pub fn key_bytes(key: LutKey) -> [u8; KEY_BYTES] {
    fn format_tag(f: NumericFormat) -> (u8, u8) {
        match f {
            NumericFormat::Int(b) => (0, b),
            NumericFormat::Uint(b) => (1, b),
            NumericFormat::Bipolar => (2, 1),
            NumericFormat::Fp4 => (3, 4),
            NumericFormat::Fp8 => (4, 8),
            NumericFormat::Fp16 => (5, 16),
        }
    }
    let (wt, wb) = format_tag(key.wf);
    let (at, ab) = format_tag(key.af);
    let p = key.p.to_le_bytes();
    let placement = match key.placement {
        Placement::BufferResident => 0u8,
        Placement::Streaming => 1u8,
    };
    [wt, wb, at, ab, p[0], p[1], p[2], p[3], placement, 0]
}

fn decode_format(tag: u8, bits: u8, path: &Path) -> Result<NumericFormat, StoreError> {
    match tag {
        0 => Ok(NumericFormat::Int(bits)),
        1 => Ok(NumericFormat::Uint(bits)),
        2 => Ok(NumericFormat::Bipolar),
        3 => Ok(NumericFormat::Fp4),
        4 => Ok(NumericFormat::Fp8),
        5 => Ok(NumericFormat::Fp16),
        other => Err(StoreError::Corrupt {
            path: path.display().to_string(),
            detail: format!("unknown numeric-format tag {other}"),
        }),
    }
}

fn decode_key(bytes: &[u8], path: &Path) -> Result<LutKey, StoreError> {
    let wf = decode_format(bytes[0], bytes[1], path)?;
    let af = decode_format(bytes[2], bytes[3], path)?;
    let p = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let placement = match bytes[8] {
        0 => Placement::BufferResident,
        1 => Placement::Streaming,
        other => {
            return Err(StoreError::Corrupt {
                path: path.display().to_string(),
                detail: format!("unknown placement tag {other}"),
            });
        }
    };
    Ok(LutKey {
        wf,
        af,
        p,
        placement,
    })
}

/// The image file name for a cache key.
fn image_name(key: LutKey) -> String {
    let hex: String = key_bytes(key).iter().map(|b| format!("{b:02x}")).collect();
    format!("lut-{hex}.bin")
}

/// A bounds-checked little-endian reader with typed errors.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    path: &'a Path,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.at..end];
                self.at = end;
                Ok(slice)
            }
            None => Err(StoreError::Truncated {
                path: self.path.display().to_string(),
            }),
        }
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }
}

/// Verifies magic + version + trailing checksum, returning the payload
/// between the header and the checksum.
fn check_envelope<'a>(
    bytes: &'a [u8],
    magic: [u8; 4],
    path: &Path,
) -> Result<&'a [u8], StoreError> {
    let display = || path.display().to_string();
    if bytes.len() < 4 || bytes[..4] != magic {
        return Err(StoreError::BadMagic { path: display() });
    }
    if bytes.len() < 4 + 2 + 8 {
        return Err(StoreError::Truncated { path: display() });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion {
            path: display(),
            version,
        });
    }
    let body_end = bytes.len() - 8;
    let recorded = u64::from_le_bytes(bytes[body_end..].try_into().expect("8-byte tail"));
    if fnv1a_64(bytes[..body_end].iter().copied()) != recorded {
        return Err(StoreError::ChecksumMismatch { path: display() });
    }
    Ok(&bytes[6..body_end])
}

fn finish_with_checksum(mut bytes: Vec<u8>) -> Vec<u8> {
    let checksum = fnv1a_64(bytes.iter().copied());
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

fn encode_image(key: LutKey, luts: &SharedLuts) -> Vec<u8> {
    let canonical = luts.canonical();
    let reorder = luts.reorder();
    let reorder_bytes = (reorder.entry_count() * reorder.entries().entry_bytes()) as usize;
    let mut out = Vec::with_capacity(
        4 + 2 + KEY_BYTES + 16 + canonical.entries().len() * 4 + 17 + reorder_bytes + 8,
    );
    out.extend_from_slice(&IMAGE_MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&key_bytes(key));
    out.extend_from_slice(&canonical.rows().to_le_bytes());
    out.extend_from_slice(&canonical.cols().to_le_bytes());
    for &v in canonical.entries() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.push(reorder.bits());
    out.extend_from_slice(&reorder.rows().to_le_bytes());
    out.extend_from_slice(&reorder.cols().to_le_bytes());
    reorder.entries().extend_le_bytes(&mut out);
    finish_with_checksum(out)
}

fn decode_image(bytes: &[u8], path: &Path) -> Result<(LutKey, SharedLuts), StoreError> {
    let payload = check_envelope(bytes, IMAGE_MAGIC, path)?;
    let mut r = Reader {
        bytes: payload,
        at: 0,
        path,
    };
    let key = decode_key(r.take(KEY_BYTES)?, path)?;
    let corrupt = |detail: String| StoreError::Corrupt {
        path: path.display().to_string(),
        detail,
    };
    // Both shapes come from the key; the file's own headers are only ever
    // compared with them, so nothing the file declares sizes a read or an
    // allocation — an image is at most what its key derives, and `take`
    // refuses to go past the bytes that are really there.
    let bits = key.wf.bits();
    let canonical_shape = CanonicalLut::<i32>::shape(key.wf, key.af, key.p)
        .map_err(|e| corrupt(format!("canonical image: {e}")))?;
    let reorder_shape =
        ReorderLut::shape(bits, key.p).map_err(|e| corrupt(format!("reorder image: {e}")))?;
    let width = ReorderLut::stored_entry_bytes(bits, key.p)
        .map_err(|e| corrupt(format!("reorder image: {e}")))?;
    let image_bytes = |(rows, cols): (u64, u64), width: u64| -> Result<usize, StoreError> {
        rows.checked_mul(cols)
            .and_then(|entries| entries.checked_mul(width))
            .and_then(|bytes| usize::try_from(bytes).ok())
            .ok_or_else(|| corrupt(format!("image shape {rows} x {cols} exceeds host memory")))
    };

    let declared = (r.u64()?, r.u64()?);
    if declared != canonical_shape {
        return Err(corrupt(format!(
            "canonical shape {} x {} does not match the key",
            declared.0, declared.1
        )));
    }
    let canonical_entries = r
        .take(image_bytes(canonical_shape, 4)?)?
        .chunks_exact(4)
        .map(|b| i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    let canonical = CanonicalLut::<i32>::from_parts(key.wf, key.af, key.p, canonical_entries)
        .map_err(|e| corrupt(format!("canonical image: {e}")))?;

    let declared = (r.take(1)?[0], r.u64()?, r.u64()?);
    if declared != (bits, reorder_shape.0, reorder_shape.1) {
        return Err(corrupt(format!(
            "reorder shape {} x {} at {} bits does not match the key",
            declared.1, declared.2, declared.0
        )));
    }
    let reorder_entries =
        ReorderEntries::from_le_bytes(width, r.take(image_bytes(reorder_shape, width)?)?)
            .ok_or_else(|| corrupt(format!("reorder image: no {width}-byte entry width")))?;
    if r.at != r.bytes.len() {
        return Err(corrupt("trailing bytes after the reorder image".to_owned()));
    }
    let reorder = ReorderLut::from_parts(bits, key.p, reorder_entries)
        .map_err(|e| corrupt(format!("reorder image: {e}")))?;
    let luts = SharedLuts::from_parts(canonical, reorder)
        .map_err(|e| corrupt(format!("image pair: {e}")))?;
    Ok((key, luts))
}

/// Writes every `(key, image)` pair to `dir` (created if absent) and
/// replaces its manifest atomically (temp file + rename). Existing image
/// files for keys not in `entries` are left in place but dropped from the
/// manifest, so they are ignored by [`load`].
///
/// # Errors
///
/// [`StoreError::Io`] on any filesystem failure.
pub fn save(dir: &Path, entries: &[(LutKey, SharedLuts)]) -> Result<(), StoreError> {
    std::fs::create_dir_all(dir).map_err(|e| io_error(dir, &e))?;
    let mut manifest = Vec::new();
    manifest.extend_from_slice(&MANIFEST_MAGIC);
    manifest.extend_from_slice(&VERSION.to_le_bytes());
    manifest.extend_from_slice(
        &u32::try_from(entries.len())
            .unwrap_or(u32::MAX)
            .to_le_bytes(),
    );
    for (key, luts) in entries {
        let image = encode_image(*key, luts);
        let image_path = dir.join(image_name(*key));
        write_atomically(&image_path, &image)?;
        manifest.extend_from_slice(&key_bytes(*key));
        manifest.extend_from_slice(&(image.len() as u64).to_le_bytes());
        let image_checksum =
            u64::from_le_bytes(image[image.len() - 8..].try_into().expect("8-byte tail"));
        manifest.extend_from_slice(&image_checksum.to_le_bytes());
    }
    write_atomically(&dir.join(MANIFEST_NAME), &finish_with_checksum(manifest))
}

fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes).map_err(|e| io_error(&tmp, &e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_error(path, &e))
}

/// Reads every image the manifest lists, in manifest order, verifying the
/// manifest's checksum, each image file's recorded length and checksum,
/// and each image's internal consistency (shape, key, format tags).
///
/// Returns an empty vector when `dir` has no manifest at all (a fresh
/// cache directory is not an error).
///
/// # Errors
///
/// Any [`StoreError`]; the caller is expected to fall back to a cold
/// cache and surface the error as an observable, not fatal, condition.
pub fn load(dir: &Path) -> Result<Vec<(LutKey, SharedLuts)>, StoreError> {
    let manifest_path = dir.join(MANIFEST_NAME);
    let bytes = match std::fs::read(&manifest_path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_error(&manifest_path, &e)),
    };
    let payload = check_envelope(&bytes, MANIFEST_MAGIC, &manifest_path)?;
    let mut r = Reader {
        bytes: payload,
        at: 0,
        path: &manifest_path,
    };
    let count = r.u32()?;
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let key = decode_key(r.take(KEY_BYTES)?, &manifest_path)?;
        let recorded_len = r.u64()?;
        let recorded_checksum = r.u64()?;
        let image_path = dir.join(image_name(key));
        let image = std::fs::read(&image_path).map_err(|e| io_error(&image_path, &e))?;
        if image.len() as u64 != recorded_len {
            return Err(StoreError::ChecksumMismatch {
                path: image_path.display().to_string(),
            });
        }
        let tail = u64::from_le_bytes(image[image.len() - 8..].try_into().expect("8-byte tail"));
        if tail != recorded_checksum {
            return Err(StoreError::ChecksumMismatch {
                path: image_path.display().to_string(),
            });
        }
        let (decoded_key, luts) = decode_image(&image, &image_path)?;
        if decoded_key != key {
            return Err(StoreError::Corrupt {
                path: image_path.display().to_string(),
                detail: "image key does not match its manifest entry".to_owned(),
            });
        }
        entries.push((key, luts));
    }
    if r.at != r.bytes.len() {
        return Err(StoreError::Corrupt {
            path: manifest_path.display().to_string(),
            detail: "trailing bytes after the entry table".to_owned(),
        });
    }
    Ok(entries)
}

/// The manifest path inside a cache directory (exposed so tests and
/// tooling can corrupt or inspect it without duplicating the name).
#[must_use]
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_NAME)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("localut-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_key(p: u32, placement: Placement) -> LutKey {
        LutKey {
            wf: NumericFormat::Int(2),
            af: NumericFormat::Int(3),
            p,
            placement,
        }
    }

    fn sample_entry(p: u32, placement: Placement) -> (LutKey, SharedLuts) {
        let key = sample_key(p, placement);
        (key, SharedLuts::build(key.wf, key.af, key.p).unwrap())
    }

    /// One image per stored reorder width (4, 10 and 18 index bits).
    #[test]
    fn roundtrip_is_bitwise_identical() {
        let dir = tempdir("roundtrip");
        let wide = LutKey {
            wf: NumericFormat::Int(9),
            af: NumericFormat::Int(2),
            p: 2,
            placement: Placement::BufferResident,
        };
        let entries = vec![
            sample_entry(2, Placement::BufferResident),
            sample_entry(5, Placement::Streaming),
            (wide, SharedLuts::build(wide.wf, wide.af, wide.p).unwrap()),
        ];
        let widths = entries
            .iter()
            .map(|(_, luts)| luts.reorder().entries().entry_bytes());
        assert_eq!(widths.collect::<Vec<_>>(), [1, 2, 4]);
        save(&dir, &entries).unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.len(), 3);
        for ((key, built), (lkey, restored)) in entries.iter().zip(&loaded) {
            assert_eq!(key, lkey);
            assert_eq!(built.canonical().entries(), restored.canonical().entries());
            assert_eq!(built.reorder().entries(), restored.reorder().entries());
            assert_eq!(built.resident_bytes(), restored.resident_bytes());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_an_empty_cache() {
        let dir = tempdir("empty");
        assert!(load(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_manifest_is_typed() {
        let dir = tempdir("truncated");
        save(&dir, &[sample_entry(2, Placement::BufferResident)]).unwrap();
        let path = manifest_path(&dir);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        // Chopping the manifest in half lands either mid-table (checksum
        // fails) — both are typed, never a panic or a partial load.
        assert!(matches!(
            load(&dir).unwrap_err(),
            StoreError::ChecksumMismatch { .. } | StoreError::Truncated { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_image_byte_is_detected() {
        let dir = tempdir("flip");
        let entries = [sample_entry(2, Placement::BufferResident)];
        save(&dir, &entries).unwrap();
        let image_path = dir.join(image_name(entries[0].0));
        let mut bytes = std::fs::read(&image_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&image_path, &bytes).unwrap();
        assert!(matches!(
            load(&dir).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_magic_is_typed() {
        let dir = tempdir("magic");
        std::fs::write(manifest_path(&dir), b"not a manifest at all").unwrap();
        assert!(matches!(
            load(&dir).unwrap_err(),
            StoreError::BadMagic { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn future_version_is_typed() {
        let dir = tempdir("version");
        save(&dir, &[]).unwrap();
        let path = manifest_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        // Bump the version field, then re-seal the checksum so only the
        // version is "wrong".
        bytes[4] = 99;
        let body = bytes[..bytes.len() - 8].to_vec();
        std::fs::write(&path, finish_with_checksum(body)).unwrap();
        assert!(matches!(
            load(&dir).unwrap_err(),
            StoreError::UnsupportedVersion { version: 99, .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What 138db6a and earlier wrote (`VERSION` 1, 8-byte reorder
    /// entries) is refused by version, and the engine starts cold, serves,
    /// and overwrites it with a store this build reads.
    #[test]
    fn version_1_store_is_a_typed_error_and_a_working_cold_start() {
        use crate::{Engine, GemmRequest};
        use quant::QMatrix;

        let dir = tempdir("version-1");
        let mut manifest = MANIFEST_MAGIC.to_vec();
        manifest.extend_from_slice(&1u16.to_le_bytes());
        manifest.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(manifest_path(&dir), finish_with_checksum(manifest)).unwrap();
        assert!(matches!(
            load(&dir).unwrap_err(),
            StoreError::UnsupportedVersion { version: 1, .. }
        ));

        let open = || {
            Engine::builder()
                .threads(1)
                .banks(2)
                .cache_dir(&dir)
                .build()
        };
        let engine = open();
        assert!(matches!(
            engine.cache_restore_error(),
            Some(StoreError::UnsupportedVersion { version: 1, .. })
        ));
        let request = GemmRequest::new(
            QMatrix::pseudo_random(6, 8, NumericFormat::Int(2), 1),
            QMatrix::pseudo_random(8, 3, NumericFormat::Int(3), 2),
        );
        let cold = engine.submit(&request).unwrap();
        engine.persist_cache().unwrap();
        let warm = open();
        assert!(warm.cache_restore_error().is_none());
        assert_eq!(warm.lut_cache_stats().entries, 1);
        assert_eq!(warm.submit(&request).unwrap().checksum, cold.checksum);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Headers that disagree with the key — under a checksum that is valid,
    /// so only the shape check stands between the file and the allocator.
    /// Before the shapes were derived from the key first, the 2^40-entry
    /// row sized a `Vec::with_capacity` of 4 TiB.
    #[test]
    fn image_headers_that_disagree_with_the_key_are_corrupt_before_any_read() {
        let (key, luts) = sample_entry(2, Placement::BufferResident);
        let path = Path::new("lut-under-test.bin");
        let image = encode_image(key, &luts);
        assert!(decode_image(&image, path).is_ok());
        let canonical_rows = 4 + 2 + KEY_BYTES;
        let reorder_bits = canonical_rows + 16 + luts.canonical().entries().len() * 4;
        let resealed = |at: usize, bytes: &[u8]| {
            let mut body = image[..image.len() - 8].to_vec();
            body[at..at + bytes.len()].copy_from_slice(bytes);
            finish_with_checksum(body)
        };
        let table = [
            (canonical_rows, (1u64 << 40).to_le_bytes().to_vec()),
            (canonical_rows + 8, u64::MAX.to_le_bytes().to_vec()),
            (reorder_bits, vec![luts.reorder().bits() + 1]),
            (reorder_bits + 1, (1u64 << 40).to_le_bytes().to_vec()),
            (reorder_bits + 9, 0u64.to_le_bytes().to_vec()),
        ];
        for (at, bytes) in table {
            let err = decode_image(&resealed(at, &bytes), path).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { .. }), "{at}: {err}");
        }
        // A key whose own shape is out of range is refused the same way.
        let mut absurd = key_bytes(key);
        absurd[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_image(&resealed(6, &absurd), path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn key_bytes_sorts_formats_before_degrees() {
        // Sanity: distinct keys encode distinctly and deterministically.
        let a = key_bytes(sample_key(2, Placement::BufferResident));
        let b = key_bytes(sample_key(2, Placement::Streaming));
        let c = key_bytes(sample_key(3, Placement::BufferResident));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, key_bytes(sample_key(2, Placement::BufferResident)));
    }

    #[test]
    fn errors_display_distinctly() {
        let variants = [
            StoreError::Io {
                path: "x".into(),
                message: "denied".into(),
            },
            StoreError::BadMagic { path: "x".into() },
            StoreError::UnsupportedVersion {
                path: "x".into(),
                version: 2,
            },
            StoreError::Truncated { path: "x".into() },
            StoreError::ChecksumMismatch { path: "x".into() },
            StoreError::Corrupt {
                path: "x".into(),
                detail: "why".into(),
            },
        ];
        let mut seen = std::collections::HashSet::new();
        for v in &variants {
            assert!(seen.insert(v.to_string()), "duplicate display: {v}");
        }
    }
}
