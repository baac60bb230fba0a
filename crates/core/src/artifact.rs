//! Single-file model artifact: everything needed to serve a fitted
//! [`BaClassifier`] from a fresh process.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "BART" | format version u32 | fnv1a-64 checksum u64
//!   | payload_len u64 | payload
//! payload = manifest_len u32 | manifest | NNIO weights stream
//! ```
//!
//! The manifest is a versioned fixed-order binary encoding of [`BacConfig`]
//! — the full architecture description — so loading needs no out-of-band
//! configuration. This is the workspace's one on-disk model format; there
//! is no bare weights file beside it. The checksum covers the whole payload;
//! a flipped bit anywhere in config or weights is detected before any model
//! is constructed. Weights reuse the positional `NNIO` framing from
//! [`numnet::io`], relying on its `params()` order-stability guarantee.

use crate::config::{BacConfig, ConstructionConfig, ModelConfig};
use crate::durable::{put_u32, put_u64, write_atomic, Cursor};
use crate::pipeline::BaClassifier;
use numnet::{read_matrices, write_matrices, LoadError, Matrix};
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::Path;

const MAGIC: &[u8; 4] = b"BART";
const FORMAT_VERSION: u32 = 1;
const MANIFEST_VERSION: u32 = 1;

/// Errors from saving/loading/instantiating a model artifact.
#[derive(Debug)]
pub enum ArtifactError {
    Io(io::Error),
    /// Not an artifact file.
    BadMagic,
    /// Artifact format newer/older than this build understands.
    UnsupportedVersion(u32),
    /// Payload bytes do not match the stored checksum.
    ChecksumMismatch {
        stored: u64,
        computed: u64,
    },
    /// Manifest could not be decoded (wrong length or version).
    BadManifest,
    /// Weights blob invalid or inconsistent with the manifest architecture.
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
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact corrupted: checksum {computed:#018x} != stored {stored:#018x}"
            ),
            ArtifactError::BadManifest => write!(f, "artifact manifest is malformed"),
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

/// An in-memory model bundle: architecture config plus all weight matrices
/// in `params()` order. Plain data: a serving layer builds one
/// [`BaClassifier`] from it and shares that across its worker threads.
#[derive(Clone, Debug)]
pub struct ModelArtifact {
    pub config: BacConfig,
    pub weights: Vec<Matrix>,
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
/// neither 0 nor 1 are all [`ArtifactError::BadManifest`].
fn decode_manifest(bytes: &[u8]) -> Result<BacConfig, ArtifactError> {
    parse_manifest(bytes).ok_or(ArtifactError::BadManifest)
}

fn parse_manifest(bytes: &[u8]) -> Option<BacConfig> {
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
    /// [`write_atomic`]). A crash mid-save leaves either the old artifact
    /// or none — never a torn `BART` file masquerading as a model (and any
    /// torn temp file that does survive fails the checksum on load anyway).
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        let manifest = encode_manifest(&self.config);
        let mut payload = Vec::new();
        put_u32(&mut payload, manifest.len() as u32);
        payload.extend_from_slice(&manifest);
        write_matrices(&mut payload, &self.weights)?;

        let mut bytes = Vec::with_capacity(24 + payload.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        Ok(write_atomic(path, &bytes)?)
    }

    /// Read and integrity-check an artifact file.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let mut r = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let mut u32buf = [0u8; 4];
        r.read_exact(&mut u32buf)?;
        let version = u32::from_le_bytes(u32buf);
        if version != FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion(version));
        }
        let mut u64buf = [0u8; 8];
        r.read_exact(&mut u64buf)?;
        let stored = u64::from_le_bytes(u64buf);
        r.read_exact(&mut u64buf)?;
        let payload_len = u64::from_le_bytes(u64buf) as usize;
        let mut payload = Vec::new();
        r.read_to_end(&mut payload)?;
        if payload.len() != payload_len {
            return Err(ArtifactError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "payload is {} bytes, header says {payload_len}",
                    payload.len()
                ),
            )));
        }
        let computed = fnv1a64(&payload);
        if computed != stored {
            return Err(ArtifactError::ChecksumMismatch { stored, computed });
        }

        let mut c = Cursor::new(&payload);
        let manifest = c
            .u32()
            .and_then(|len| c.take(len as usize))
            .ok_or(ArtifactError::BadManifest)?;
        let config = decode_manifest(manifest)?;
        let mut weights_stream = &payload[c.pos()..];
        let weights = read_matrices(&mut weights_stream)?;
        Ok(Self { config, weights })
    }
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
        Ok(ModelArtifact {
            config: self.config().clone(),
            weights: self.weights(),
        })
    }

    /// Instantiate a fitted classifier from an artifact. The architecture is
    /// rebuilt from the embedded config, the weights installed positionally
    /// (shape-checked, all-or-nothing), and the result marked fitted.
    pub fn from_artifact(artifact: &ModelArtifact) -> Result<Self, ArtifactError> {
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
    use btcsim::{Dataset, SimConfig, Simulator};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bac_artifact_{name}_{}", std::process::id()))
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
        assert!(matches!(
            decode_manifest(&m[..m.len() - 3]),
            Err(ArtifactError::BadManifest)
        ));
        let mut extended = m.clone();
        extended.push(0);
        assert!(matches!(
            decode_manifest(&extended),
            Err(ArtifactError::BadManifest)
        ));
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
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn wrong_magic_and_version_are_distinct_errors() {
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let path = tmp("magic");
        artifact.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[..4].copy_from_slice(b"NOPE");
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(matches!(
            ModelArtifact::load(&path),
            Err(ArtifactError::BadMagic)
        ));

        let mut bad_version = good.clone();
        bad_version[4..8].copy_from_slice(&7u32.to_le_bytes());
        std::fs::write(&path, &bad_version).unwrap();
        assert!(matches!(
            ModelArtifact::load(&path),
            Err(ArtifactError::UnsupportedVersion(7))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_artifact_is_clean_error() {
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let path = tmp("truncated");
        artifact.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(ModelArtifact::load(&path).is_err());
        std::fs::remove_file(path).ok();
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
    /// the header length so the payload "fits") must be caught by the
    /// checksum — a crash mid-save can never produce a loadable artifact.
    #[test]
    fn truncated_artifact_is_rejected_by_checksum() {
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let path = tmp("torn");
        artifact.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let header = 4 + 4 + 8 + 8; // magic, version, checksum, payload_len
        let torn_payload = (bytes.len() - header) / 2;
        let mut torn = bytes[..header + torn_payload].to_vec();
        torn[16..24].copy_from_slice(&(torn_payload as u64).to_le_bytes());
        std::fs::write(&path, &torn).unwrap();
        assert!(matches!(
            ModelArtifact::load(&path),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(path).ok();
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
}
