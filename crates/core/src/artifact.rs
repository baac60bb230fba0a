//! Single-file model artifact: everything needed to serve a fitted
//! [`BaClassifier`] from a fresh process.
//!
//! Format (`BART v2`): a [`durable`](crate::durable) record file — an
//! 8-byte magic, then CRC frames — fields little-endian:
//!
//! ```text
//! magic  := "BART" · format version 2 u32
//! header := weight frames u32 · manifest
//! weight := rows u32 · cols u32 · rows × cols f32, row-major
//! ```
//!
//! The manifest is a versioned fixed-order binary encoding of [`BacConfig`]
//! — the full architecture description — so loading needs no out-of-band
//! configuration. One weight frame follows per parameter, in `params()`
//! order, the positional contract of [`numnet::assign_params`]. This is the
//! workspace's one on-disk model format; there is no bare weights file
//! beside it. Every frame is CRC-checked and the file must hold exactly the
//! frames its header declares, so a flipped bit, a cut or an appended frame
//! is a typed error before any model is constructed; so is a NaN or an
//! infinite weight, which a CRC cannot catch. A file of another
//! version (v1: one FNV-checked payload) is refused, not migrated.

use crate::config::{BacConfig, ConstructionConfig, ModelConfig};
use crate::durable::{put_u32, put_u64, write_records, Cursor, RecordFault, RecordReader};
use crate::pipeline::BaClassifier;
use numnet::{LoadError, Matrix};
use std::io;
use std::path::Path;

/// "BART", then the format version as a `u32`: the v1 layout's first 8
/// bytes, so an older file names its version.
const MAGIC: &[u8; 8] = b"BART\x02\0\0\0";
const MANIFEST_VERSION: u32 = 1;

/// Errors from saving/loading/instantiating a model artifact.
#[derive(Debug)]
pub enum ArtifactError {
    Io(io::Error),
    /// Not an artifact file.
    BadMagic,
    /// Artifact format newer/older than this build understands.
    UnsupportedVersion(u32),
    /// A frame fails its CRC, is missing or torn (the file was cut), or
    /// bytes follow the last one the header declares.
    Frames(RecordFault),
    /// Manifest could not be decoded (wrong length or version).
    BadManifest,
    /// Weight frame `i` holds other than its `rows × cols` floats.
    BadMatrix(usize),
    /// Weight matrix `i` holds a NaN or an infinity: a diverged fit or a
    /// damaged writer, refused before it can label every address alike.
    NonFinite(usize),
    /// Weights inconsistent with the manifest architecture.
    Weights(LoadError),
    /// `to_artifact`/`save_artifact` on a classifier that was never fitted.
    NotFitted,
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "io error: {e}"),
            ArtifactError::BadMagic => write!(f, "not a BAClassifier artifact"),
            ArtifactError::UnsupportedVersion(v) => {
                write!(f, "unsupported artifact version {v}")
            }
            ArtifactError::Frames(fault) => write!(f, "artifact corrupted: {fault}"),
            ArtifactError::BadManifest => write!(f, "artifact manifest is malformed"),
            ArtifactError::BadMatrix(i) => {
                write!(f, "artifact weight {i}: size is not rows × cols")
            }
            ArtifactError::NonFinite(i) => {
                write!(f, "artifact weight {i}: holds a NaN or an infinity")
            }
            ArtifactError::Weights(e) => write!(f, "artifact weights: {e}"),
            ArtifactError::NotFitted => {
                write!(f, "cannot export an artifact from an unfitted classifier")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<io::Error> for ArtifactError {
    fn from(e: io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

impl From<LoadError> for ArtifactError {
    fn from(e: LoadError) -> Self {
        ArtifactError::Weights(e)
    }
}

impl From<RecordFault> for ArtifactError {
    fn from(fault: RecordFault) -> Self {
        match fault {
            RecordFault::Magic(m) if m.len() == MAGIC.len() && m.starts_with(b"BART") => {
                ArtifactError::UnsupportedVersion(u32::from_le_bytes([m[4], m[5], m[6], m[7]]))
            }
            RecordFault::Magic(_) => ArtifactError::BadMagic,
            fault => ArtifactError::Frames(fault),
        }
    }
}

/// An in-memory model bundle: architecture config plus all weight matrices
/// in `params()` order. Plain data: a serving layer builds one
/// [`BaClassifier`] from it and shares that across its worker threads.
#[derive(Clone, Debug)]
pub struct ModelArtifact {
    pub config: BacConfig,
    pub weights: Vec<Matrix>,
}

fn encode_manifest(cfg: &BacConfig) -> Vec<u8> {
    let mut m = Vec::with_capacity(96);
    put_u32(&mut m, MANIFEST_VERSION);
    let c = &cfg.construction;
    put_u64(&mut m, c.slice_size as u64);
    m.push(c.compress as u8);
    put_u64(&mut m, c.psi.to_bits());
    put_u64(&mut m, c.sigma as u64);
    m.push(c.augment as u8);
    let md = &cfg.model;
    put_u64(&mut m, md.gfn_k as u64);
    put_u64(&mut m, md.hidden_dim as u64);
    put_u64(&mut m, md.embed_dim as u64);
    put_u64(&mut m, md.lstm_hidden as u64);
    put_u64(&mut m, md.gnn_epochs as u64);
    put_u64(&mut m, md.head_epochs as u64);
    put_u32(&mut m, md.learning_rate.to_bits());
    put_u64(&mut m, md.seed);
    put_u64(&mut m, md.max_slices as u64);
    m
}

/// A manifest flag byte: exactly 0 or 1.
fn byte_flag(c: &mut Cursor) -> Option<bool> {
    match c.u8()? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

/// A wrong version, a short or over-long body and a flag byte that is
/// neither 0 nor 1 are all `None`: [`ArtifactError::BadManifest`].
fn decode_manifest(bytes: &[u8]) -> Option<BacConfig> {
    let mut c = Cursor::new(bytes);
    if c.u32()? != MANIFEST_VERSION {
        return None;
    }
    let construction = ConstructionConfig {
        slice_size: c.u64()? as usize,
        compress: byte_flag(&mut c)?,
        psi: f64::from_bits(c.u64()?),
        sigma: c.u64()? as usize,
        augment: byte_flag(&mut c)?,
    };
    let model = ModelConfig {
        gfn_k: c.u64()? as usize,
        hidden_dim: c.u64()? as usize,
        embed_dim: c.u64()? as usize,
        lstm_hidden: c.u64()? as usize,
        gnn_epochs: c.u64()? as usize,
        head_epochs: c.u64()? as usize,
        learning_rate: f32::from_bits(c.u32()?),
        seed: c.u64()?,
        max_slices: c.u64()? as usize,
    };
    if c.remaining() != 0 {
        return None;
    }
    Some(BacConfig {
        construction,
        model,
        // `threads` is a runtime knob, deliberately not persisted: a model
        // trained on a 32-core box must load unchanged on a 2-core one.
        // 0 = auto (see `config::resolve_threads`).
        threads: 0,
    })
}

impl ModelArtifact {
    /// The freshly initialised weights of `BaClassifier::new(config)`, never
    /// fitted: labels are meaningless but every code path runs and every
    /// byte is determined by `config.model.seed` — what tests use where
    /// identity matters and accuracy does not.
    pub fn untrained(config: BacConfig) -> Self {
        let weights = BaClassifier::new(config.clone()).weights();
        Self { config, weights }
    }

    /// Serialize to a single artifact file, atomically (see
    /// [`crate::write_atomic`]). A crash mid-save leaves either the old
    /// artifact or none — never a torn `BART` file masquerading as a model
    /// (and any torn temp file that does survive fails to load anyway).
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        let mut header = (self.weights.len() as u32).to_le_bytes().to_vec();
        header.extend(encode_manifest(&self.config));
        let frames = self.weights.iter().map(|m| {
            let mut out = Vec::with_capacity(8 + 4 * m.as_slice().len());
            put_u32(&mut out, m.rows() as u32);
            put_u32(&mut out, m.cols() as u32);
            out.extend(m.as_slice().iter().flat_map(|v| v.to_le_bytes()));
            out
        });
        Ok(write_records(path, MAGIC, &header, frames)?)
    }

    /// Read and integrity-check an artifact file.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        Self::decode(&std::fs::read(path)?)
    }

    fn decode(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let (mut reader, header) = RecordReader::open(bytes, MAGIC)?;
        let (count, manifest) = header
            .split_first_chunk()
            .ok_or(ArtifactError::BadManifest)?;
        let config = decode_manifest(manifest).ok_or(ArtifactError::BadManifest)?;
        let mut weights = Vec::new();
        for i in 0..u32::from_le_bytes(*count) as usize {
            weights.push(decode_matrix(reader.record()?).ok_or(ArtifactError::BadMatrix(i))?);
        }
        reader.finish()?;
        check_finite(&weights)?;
        Ok(Self { config, weights })
    }
}

/// `NonFinite(i)` for the first weight matrix `i` holding a NaN or an
/// infinity. A NaN logit never wins `row_argmax`, so such a model would
/// answer the first class for every address; it is refused at every
/// artifact boundary instead.
fn check_finite(weights: &[Matrix]) -> Result<(), ArtifactError> {
    match weights.iter().position(|m| !m.all_finite()) {
        Some(i) => Err(ArtifactError::NonFinite(i)),
        None => Ok(()),
    }
}

/// A weight frame: rows, cols, then exactly `rows × cols` floats. The
/// length is checked, in checked arithmetic, before anything is allocated.
fn decode_matrix(payload: &[u8]) -> Option<Matrix> {
    let mut c = Cursor::new(payload);
    let (rows, cols) = (c.u32()? as usize, c.u32()? as usize);
    if rows.checked_mul(cols)?.checked_mul(4)? != c.remaining() {
        return None;
    }
    let floats = payload[c.pos()..].chunks_exact(4);
    let data = floats.map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
    Some(Matrix::from_vec(rows, cols, data.collect()))
}

impl BaClassifier {
    /// Every weight matrix, in `params()` order.
    fn weights(&self) -> Vec<Matrix> {
        self.all_params()
            .iter()
            .map(|p| p.value().clone())
            .collect()
    }

    /// Snapshot this fitted classifier as an in-memory artifact.
    pub fn to_artifact(&self) -> Result<ModelArtifact, ArtifactError> {
        if !self.is_fitted() {
            return Err(ArtifactError::NotFitted);
        }
        let weights = self.weights();
        check_finite(&weights)?;
        Ok(ModelArtifact {
            config: self.config().clone(),
            weights,
        })
    }

    /// Instantiate a fitted classifier from an artifact. The architecture is
    /// rebuilt from the embedded config, the weights installed positionally
    /// (shape-checked, all-or-nothing), and the result marked fitted.
    /// Non-finite weights are refused.
    pub fn from_artifact(artifact: &ModelArtifact) -> Result<Self, ArtifactError> {
        check_finite(&artifact.weights)?;
        let mut clf = BaClassifier::new(artifact.config.clone());
        numnet::assign_params(&clf.all_params(), artifact.weights.clone())?;
        clf.mark_fitted();
        Ok(clf)
    }

    /// `to_artifact` + [`ModelArtifact::save`].
    pub fn save_artifact(&self, path: &Path) -> Result<(), ArtifactError> {
        self.to_artifact()?.save(path)
    }

    /// [`ModelArtifact::load`] + `from_artifact`.
    pub fn load_artifact(path: &Path) -> Result<Self, ArtifactError> {
        Self::from_artifact(&ModelArtifact::load(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{next_frame, put_frame, Frame, FRAME_HEADER};
    use btcsim::{Dataset, SimConfig, Simulator};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bac_artifact_{name}_{}", std::process::id()))
    }

    /// The file of an untrained `BacConfig::fast()` artifact.
    fn saved_fast(name: &str) -> Vec<u8> {
        let path = tmp(name);
        ModelArtifact::untrained(BacConfig::fast())
            .save(&path)
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(path).ok();
        bytes
    }

    fn decode(bytes: &[u8]) -> Result<ModelArtifact, ArtifactError> {
        ModelArtifact::decode(bytes)
    }

    /// Every frame boundary: after the magic, then after each frame.
    fn frame_ends(bytes: &[u8]) -> Vec<usize> {
        let mut ends = vec![MAGIC.len()];
        while let Frame::Whole { end, .. } = next_frame(&bytes[*ends.last().unwrap()..], u32::MAX) {
            ends.push(ends.last().unwrap() + end);
        }
        ends
    }

    #[test]
    fn manifest_roundtrips_every_field() {
        let mut cfg = BacConfig::default();
        cfg.construction.slice_size = 73;
        cfg.construction.compress = false;
        cfg.construction.psi = 0.625;
        cfg.model.embed_dim = 48;
        cfg.model.learning_rate = 0.003;
        cfg.model.seed = 0xdead_beef;
        let decoded = decode_manifest(&encode_manifest(&cfg)).unwrap();
        assert_eq!(format!("{cfg:?}"), format!("{decoded:?}"));
    }

    #[test]
    fn truncated_manifest_is_rejected() {
        let cfg = BacConfig::default();
        let m = encode_manifest(&cfg);
        assert!(decode_manifest(&m[..m.len() - 3]).is_none());
        let mut extended = m.clone();
        extended.push(0);
        assert!(decode_manifest(&extended).is_none());
        // In a file: a header frame with no room for its weight count, and
        // one whose manifest is cut short.
        for header in [&[0u8; 3][..], &[&[0; 4][..], &m[..m.len() - 3]].concat()] {
            let mut file = MAGIC.to_vec();
            put_frame(&mut file, header, u32::MAX).unwrap();
            assert!(matches!(decode(&file), Err(ArtifactError::BadManifest)));
        }
    }

    #[test]
    fn artifact_file_roundtrips() {
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let path = tmp("roundtrip");
        artifact.save(&path).unwrap();
        let back = ModelArtifact::load(&path).unwrap();
        assert_eq!(
            format!("{:?}", artifact.config),
            format!("{:?}", back.config)
        );
        assert_eq!(artifact.weights, back.weights);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn two_replicas_from_one_artifact_predict_identically() {
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let a = BaClassifier::from_artifact(&artifact).unwrap();
        let b = BaClassifier::from_artifact(&artifact).unwrap();
        assert!(a.is_fitted() && b.is_fitted());
        let sim = Simulator::run_to_completion(SimConfig::tiny(5));
        let ds = Dataset::from_simulator(&sim, 3);
        for r in ds.records.iter().take(8) {
            assert_eq!(a.predict(r).unwrap(), b.predict(r).unwrap());
        }
    }

    /// `untrained` must be the retired helper's artifact: the fresh weights
    /// of `BaClassifier::new`, bit for bit, through a file and back.
    #[test]
    fn untrained_artifact_predicts_like_fresh_weights_saved_and_loaded() {
        let cfg = BacConfig::fast();
        let mut served = BaClassifier::new(cfg.clone());
        served.mark_fitted();
        let path = tmp("untrained");
        ModelArtifact::untrained(cfg).save(&path).unwrap();
        let loaded = BaClassifier::load_artifact(&path).unwrap();
        std::fs::remove_file(path).ok();

        let sim = Simulator::run_to_completion(SimConfig::tiny(5));
        let ds = Dataset::from_simulator(&sim, 3);
        let bits = |seq: &[Matrix]| -> Vec<Vec<u32>> {
            let row = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect();
            seq.iter().map(row).collect()
        };
        for r in ds.records.iter().take(8) {
            let (a, b) = (served.embed_record(r), loaded.embed_record(r));
            assert_eq!(bits(&a), bits(&b), "embeddings of {:?}", r.address);
            let (la, ma) = served.classify_embeddings_scored(&a).unwrap();
            let (lb, mb) = loaded.classify_embeddings_scored(&b).unwrap();
            assert_eq!((la, ma.to_bits()), (lb, mb.to_bits()));
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let path = tmp("corrupt");
        artifact.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let target = bytes.len() - 5; // inside the weights blob
        bytes[target] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ModelArtifact::load(&path),
            Err(ArtifactError::Frames(RecordFault::Crc(_)))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn wrong_magic_and_version_are_distinct_errors() {
        let good = saved_fast("magic");
        let mut bad_magic = good.clone();
        bad_magic[..4].copy_from_slice(b"NOPE");
        assert!(matches!(decode(&bad_magic), Err(ArtifactError::BadMagic)));
        assert!(matches!(
            decode(b"definitely not weights"),
            Err(ArtifactError::BadMagic)
        ));

        let mut bad_version = good.clone();
        bad_version[4..8].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            decode(&bad_version),
            Err(ArtifactError::UnsupportedVersion(7))
        ));
        // A v1 file: "BART", version 1, then its FNV checksum, length and
        // payload. It is refused by version, never parsed.
        let mut v1 = b"BART".to_vec();
        v1.extend(1u32.to_le_bytes());
        v1.extend(&good[8..]);
        assert!(matches!(
            decode(&v1),
            Err(ArtifactError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn garbage_file_rejected() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not weights").unwrap();
        assert!(matches!(
            BaClassifier::load_artifact(&path),
            Err(ArtifactError::BadMagic)
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn wrong_magic_is_bad_magic() {
        let mut bytes = saved_fast("xmagic");
        bytes[..4].copy_from_slice(b"XART");
        assert!(matches!(decode(&bytes), Err(ArtifactError::BadMagic)));
    }

    #[test]
    fn wrong_version_is_unsupported_version() {
        let mut bytes = saved_fast("version");
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(ArtifactError::UnsupportedVersion(99))
        ));
    }

    /// A file cut mid-way through a weight matrix's floats is a torn frame,
    /// reported at that frame's start, and no classifier is built from it.
    #[test]
    fn truncated_file_is_torn_frame_error() {
        let bytes = saved_fast("cut");
        let first_weight = frame_ends(&bytes)[1];
        let path = tmp("cut_file");
        std::fs::write(&path, &bytes[..first_weight + FRAME_HEADER + 10]).unwrap();
        assert!(matches!(
            BaClassifier::load_artifact(&path),
            Err(ArtifactError::Frames(RecordFault::Torn(at))) if at == first_weight
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_header_is_error_not_panic() {
        let bytes = saved_fast("header");
        // Inside the magic, then inside the header frame.
        assert!(matches!(decode(b"BA"), Err(ArtifactError::BadMagic)));
        assert!(matches!(
            decode(&bytes[..MAGIC.len() + FRAME_HEADER + 3]),
            Err(ArtifactError::Frames(RecordFault::Torn(at))) if at == MAGIC.len()
        ));
    }

    #[test]
    fn truncated_artifact_is_clean_error() {
        let bytes = saved_fast("truncated");
        assert!(matches!(
            decode(&bytes[..bytes.len() / 3]),
            Err(ArtifactError::Frames(RecordFault::Torn(_)))
        ));
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_file() {
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let path = tmp("atomic");
        artifact.save(&path).unwrap();
        // Overwriting an existing artifact also goes through the temp file.
        artifact.save(&path).unwrap();
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().into_owned();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(&stem) && n.contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        assert!(ModelArtifact::load(&path).is_ok());
        std::fs::remove_file(path).ok();
    }

    /// A torn write (simulated by truncating the saved bytes and patching
    /// the last frame's length so the payload "fits") must be caught by the
    /// checksum — a crash mid-save can never produce a loadable artifact.
    #[test]
    fn truncated_artifact_is_rejected_by_checksum() {
        let bytes = saved_fast("torn");
        let ends = frame_ends(&bytes);
        let last = ends[ends.len() - 2];
        let torn_len = (bytes.len() - last - FRAME_HEADER) / 2;
        let mut torn = bytes[..last + FRAME_HEADER + torn_len].to_vec();
        torn[last..last + 4].copy_from_slice(&(torn_len as u32).to_le_bytes());
        assert!(matches!(
            decode(&torn),
            Err(ArtifactError::Frames(RecordFault::Crc(_)))
        ));
    }

    #[test]
    fn every_byte_prefix_is_a_typed_error() {
        let bytes = saved_fast("prefix");
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Err(ArtifactError::BadMagic) => assert!(cut < MAGIC.len(), "cut {cut}"),
                Err(ArtifactError::Frames(RecordFault::Missing(at))) => assert_eq!(at, cut),
                Err(ArtifactError::Frames(RecordFault::Torn(at))) => assert!(at < cut),
                other => panic!("cut {cut} of {}: {other:?}", bytes.len()),
            }
        }
    }

    #[test]
    fn every_frame_boundary_cut_is_a_count_error() {
        let bytes = saved_fast("boundary");
        let ends = frame_ends(&bytes);
        // The magic, the header and one frame per weight matrix.
        let weights = ModelArtifact::untrained(BacConfig::fast()).weights.len();
        assert_eq!((ends.len(), ends.last()), (weights + 2, Some(&bytes.len())));
        for &cut in &ends[..ends.len() - 1] {
            assert!(
                matches!(
                    decode(&bytes[..cut]),
                    Err(ArtifactError::Frames(RecordFault::Missing(at))) if at == cut
                ),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn a_bit_flip_in_any_frame_fails_its_checksum() {
        let bytes = saved_fast("flip");
        for pair in frame_ends(&bytes).windows(2) {
            let mut flipped = bytes.clone();
            flipped[(pair[0] + FRAME_HEADER + pair[1]) / 2] ^= 0x10;
            assert!(
                matches!(
                    decode(&flipped),
                    Err(ArtifactError::Frames(RecordFault::Crc(_)))
                ),
                "frame at {}",
                pair[0]
            );
        }
    }

    #[test]
    fn a_frame_after_the_declared_weights_is_refused() {
        let mut bytes = saved_fast("extra");
        let end = bytes.len();
        put_frame(&mut bytes, &[0; 8], u32::MAX).unwrap();
        assert!(matches!(
            decode(&bytes),
            Err(ArtifactError::Frames(RecordFault::Trailing(at))) if at == end
        ));
    }

    /// One weight frame of `rows`, `cols` and `floats` values, under a
    /// header that declares it alone.
    fn one_matrix_file(rows: u32, cols: u32, floats: usize) -> Vec<u8> {
        let mut header = 1u32.to_le_bytes().to_vec();
        header.extend(encode_manifest(&BacConfig::fast()));
        let mut matrix = rows.to_le_bytes().to_vec();
        matrix.extend(cols.to_le_bytes());
        matrix.extend(vec![0; 4 * floats]);
        let mut out = MAGIC.to_vec();
        put_frame(&mut out, &header, u32::MAX).unwrap();
        put_frame(&mut out, &matrix, u32::MAX).unwrap();
        out
    }

    #[test]
    fn matrix_dimensions_must_match_the_frame_length() {
        let back = decode(&one_matrix_file(2, 3, 6)).unwrap();
        assert_eq!(back.weights, vec![Matrix::zeros(2, 3)]);
        // Sized from the frame, not from the dimensions: u32::MAX² floats
        // overflow the byte count and are refused with nothing allocated.
        for (rows, cols, floats) in [(2, 3, 5), (2, 3, 7), (u32::MAX, u32::MAX, 1), (0, 5, 1)] {
            assert!(
                matches!(
                    decode(&one_matrix_file(rows, cols, floats)),
                    Err(ArtifactError::BadMatrix(0))
                ),
                "{rows} x {cols} with {floats} floats"
            );
        }
    }

    #[test]
    fn unfitted_classifier_cannot_export() {
        let clf = BaClassifier::new(BacConfig::fast());
        assert!(matches!(clf.to_artifact(), Err(ArtifactError::NotFitted)));
    }

    #[test]
    fn mismatched_weights_rejected_on_instantiation() {
        let mut artifact = ModelArtifact::untrained(BacConfig::fast());
        artifact.weights.pop();
        assert!(matches!(
            BaClassifier::from_artifact(&artifact),
            Err(ArtifactError::Weights(
                numnet::LoadError::ParamCountMismatch { .. }
            ))
        ));
    }

    /// A CRC-valid file with one NaN in its last weight matrix used to load
    /// and label every address Exchange with margin NaN; it is refused at
    /// load, at `from_artifact` and at `to_artifact`, for NaN and infinity.
    #[test]
    fn non_finite_weights_are_refused_at_every_boundary() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut artifact = ModelArtifact::untrained(BacConfig::fast());
            let last = artifact.weights.len() - 1;
            let clean = BaClassifier::from_artifact(&artifact).unwrap();
            artifact.weights[last].as_mut_slice()[0] = bad;

            let path = tmp("non_finite");
            artifact.save(&path).unwrap();
            let loaded = BaClassifier::load_artifact(&path);
            std::fs::remove_file(path).ok();
            assert!(
                matches!(loaded, Err(ArtifactError::NonFinite(i)) if i == last),
                "load of {bad}: {:?}",
                loaded.err()
            );
            assert!(matches!(
                BaClassifier::from_artifact(&artifact),
                Err(ArtifactError::NonFinite(i)) if i == last
            ));

            clean.all_params()[last].update(|m| m.as_mut_slice()[0] = bad);
            assert!(matches!(
                clean.to_artifact(),
                Err(ArtifactError::NonFinite(i)) if i == last
            ));
        }
    }
}
