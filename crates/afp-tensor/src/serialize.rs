//! Saving and loading network parameters.
//!
//! A checkpoint is an ordered list of named tensors (a "state dict"). The
//! on-disk format is a small self-describing text format so that checkpoints
//! can be inspected and diffed without extra tooling, and so the crate stays
//! dependency-free.

use std::io::{self, BufRead, BufReader, Read, Write};

use crate::{Layer, Tensor};

/// An ordered collection of named parameter tensors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateDict {
    entries: Vec<(String, Tensor)>,
}

impl StateDict {
    /// Creates an empty state dict.
    pub fn new() -> Self {
        StateDict {
            entries: Vec::new(),
        }
    }

    /// Extracts the parameters of a layer (in declaration order).
    pub fn from_layer<L: Layer + ?Sized>(layer: &L) -> Self {
        let entries = layer
            .params()
            .iter()
            .enumerate()
            .map(|(i, p)| (format!("{}:{}", i, p.name), p.value.clone()))
            .collect();
        StateDict { entries }
    }

    /// Writes the parameters back into a layer.
    ///
    /// # Errors
    ///
    /// Returns an error if the number of parameters or any shape differs.
    pub fn apply_to<L: Layer + ?Sized>(&self, layer: &mut L) -> Result<(), SerializeError> {
        let mut params = layer.params_mut();
        if params.len() != self.entries.len() {
            return Err(SerializeError::ParameterCountMismatch {
                expected: params.len(),
                found: self.entries.len(),
            });
        }
        for (p, (name, value)) in params.iter_mut().zip(self.entries.iter()) {
            if p.value.shape() != value.shape() {
                return Err(SerializeError::ShapeMismatch {
                    name: name.clone(),
                    expected: p.value.shape().to_vec(),
                    found: value.shape().to_vec(),
                });
            }
            p.value = value.clone();
        }
        Ok(())
    }

    /// Number of tensors stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no tensors are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, tensor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.entries.iter().map(|(n, t)| (n.as_str(), t))
    }

    /// Adds a named tensor.
    pub fn insert(&mut self, name: impl Into<String>, tensor: Tensor) {
        self.entries.push((name.into(), tensor));
    }

    /// Serializes the state dict to a writer.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save<W: Write>(&self, mut writer: W) -> io::Result<()> {
        writeln!(writer, "afp-state-dict v1 {}", self.entries.len())?;
        for (name, tensor) in &self.entries {
            let shape: Vec<String> = tensor.shape().iter().map(|d| d.to_string()).collect();
            writeln!(writer, "{} {}", name.replace(' ', "_"), shape.join(","))?;
            let values: Vec<String> = tensor.data().iter().map(|v| format!("{v:e}")).collect();
            writeln!(writer, "{}", values.join(" "))?;
        }
        Ok(())
    }

    /// Deserializes a state dict from a reader.
    ///
    /// # Errors
    ///
    /// Returns a [`SerializeError`] if the stream is not a valid checkpoint.
    pub fn load<R: Read>(reader: R) -> Result<Self, SerializeError> {
        let mut lines = BufReader::new(reader).lines();
        let header = lines
            .next()
            .ok_or(SerializeError::Malformed("empty stream"))?
            .map_err(SerializeError::Io)?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("afp-state-dict") || parts.next() != Some("v1") {
            return Err(SerializeError::Malformed("bad header"));
        }
        let count: usize = parts
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or(SerializeError::Malformed("bad entry count"))?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let meta = lines
                .next()
                .ok_or(SerializeError::Malformed("missing tensor header"))?
                .map_err(SerializeError::Io)?;
            let mut meta_parts = meta.split_whitespace();
            let name = meta_parts
                .next()
                .ok_or(SerializeError::Malformed("missing tensor name"))?
                .to_string();
            let shape: Vec<usize> = meta_parts
                .next()
                .ok_or(SerializeError::Malformed("missing tensor shape"))?
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse()
                        .map_err(|_| SerializeError::Malformed("bad shape value"))
                })
                .collect::<Result<_, _>>()?;
            let data_line = lines
                .next()
                .ok_or(SerializeError::Malformed("missing tensor data"))?
                .map_err(SerializeError::Io)?;
            let data: Vec<f32> = data_line
                .split_whitespace()
                .map(|s| {
                    s.parse()
                        .map_err(|_| SerializeError::Malformed("bad data value"))
                })
                .collect::<Result<_, _>>()?;
            let expected: usize = shape.iter().product();
            if data.len() != expected {
                return Err(SerializeError::Malformed(
                    "data length does not match shape",
                ));
            }
            entries.push((name, Tensor::from_vec(data, &shape)));
        }
        Ok(StateDict { entries })
    }
}

/// Errors produced when saving or loading checkpoints.
#[derive(Debug)]
pub enum SerializeError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The stream is not a valid checkpoint.
    Malformed(&'static str),
    /// The checkpoint holds a different number of parameters than the network.
    ParameterCountMismatch {
        /// Parameters in the target network.
        expected: usize,
        /// Parameters found in the checkpoint.
        found: usize,
    },
    /// A tensor in the checkpoint has the wrong shape.
    ShapeMismatch {
        /// Parameter name.
        name: String,
        /// Shape expected by the network.
        expected: Vec<usize>,
        /// Shape found in the checkpoint.
        found: Vec<usize>,
    },
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "i/o error: {e}"),
            SerializeError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            SerializeError::ParameterCountMismatch { expected, found } => write!(
                f,
                "parameter count mismatch: network has {expected}, checkpoint has {found}"
            ),
            SerializeError::ShapeMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "shape mismatch for {name}: expected {expected:?}, found {found:?}"
            ),
        }
    }
}

impl std::error::Error for SerializeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SerializeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Dense, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(3, 4, &mut rng));
        net.push(Activation::relu());
        net.push(Dense::new(4, 2, &mut rng));
        net
    }

    #[test]
    fn save_load_roundtrip() {
        let net = small_net(1);
        let dict = StateDict::from_layer(&net);
        let mut buf = Vec::new();
        dict.save(&mut buf).unwrap();
        let loaded = StateDict::load(buf.as_slice()).unwrap();
        assert_eq!(dict, loaded);
    }

    #[test]
    fn apply_transfers_weights() {
        let src = small_net(1);
        let mut dst = small_net(2);
        let x = Tensor::from_slice(&[0.2, -0.4, 0.9]);
        let y_src = {
            let mut s = small_net(1);
            s.forward(&x)
        };
        StateDict::from_layer(&src).apply_to(&mut dst).unwrap();
        let y_dst = dst.forward(&x);
        assert_eq!(y_src.data(), y_dst.data());
    }

    #[test]
    fn apply_rejects_wrong_architecture() {
        let src = small_net(1);
        let mut rng = StdRng::seed_from_u64(3);
        let mut other = Sequential::new();
        other.push(Dense::new(3, 4, &mut rng));
        let err = StateDict::from_layer(&src).apply_to(&mut other);
        assert!(matches!(
            err,
            Err(SerializeError::ParameterCountMismatch { .. })
        ));
    }

    #[test]
    fn load_rejects_garbage() {
        let result = StateDict::load("not a checkpoint".as_bytes());
        assert!(result.is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = SerializeError::ParameterCountMismatch {
            expected: 4,
            found: 2,
        };
        assert!(e.to_string().contains("4"));
        assert!(e.to_string().contains("2"));
    }
}
