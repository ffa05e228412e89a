//! The error type shared by every `.lpt` reading and writing path.

use std::fmt;
use std::io;

/// Everything that can go wrong while reading or writing a `.lpt`
/// trace file.
///
/// Corrupted or truncated inputs always surface as one of these
/// variants — the reader never panics on untrusted bytes.
#[derive(Debug)]
pub enum TraceFileError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// The file does not start with the `.lpt` magic bytes.
    BadMagic([u8; 4]),
    /// The file's format version is not supported by this reader.
    UnsupportedVersion(u16),
    /// The file ended before a section or field was complete.
    Truncated {
        /// Which part of the file was being read.
        section: &'static str,
    },
    /// A section's payload does not match its stored CRC32.
    ChecksumMismatch {
        /// Which section failed validation.
        section: &'static str,
        /// The checksum stored in the file.
        stored: u32,
        /// The checksum computed over the payload actually read.
        computed: u32,
    },
    /// A section required by the format is absent.
    MissingSection(&'static str),
    /// The bytes parse but violate a format invariant.
    Malformed {
        /// Which section the inconsistency was found in.
        section: &'static str,
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl TraceFileError {
    /// Convenience constructor for [`TraceFileError::Malformed`].
    pub(crate) fn malformed(section: &'static str, detail: impl Into<String>) -> Self {
        TraceFileError::Malformed {
            section,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "i/o error: {e}"),
            TraceFileError::BadMagic(m) => {
                write!(f, "not a .lpt trace file (magic {m:02x?})")
            }
            TraceFileError::UnsupportedVersion(v) => {
                write!(f, "unsupported .lpt format version {v}")
            }
            TraceFileError::Truncated { section } => {
                write!(f, "truncated trace file while reading {section}")
            }
            TraceFileError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in {section} section: stored {stored:#010x}, computed {computed:#010x}"
            ),
            TraceFileError::MissingSection(section) => {
                write!(f, "missing required {section} section")
            }
            TraceFileError::Malformed { section, detail } => {
                write!(f, "malformed {section} section: {detail}")
            }
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_descriptive() {
        let cases: Vec<(TraceFileError, &str)> = vec![
            (TraceFileError::BadMagic([0, 1, 2, 3]), "magic"),
            (TraceFileError::UnsupportedVersion(9), "version 9"),
            (TraceFileError::Truncated { section: "records" }, "records"),
            (
                TraceFileError::ChecksumMismatch {
                    section: "events",
                    stored: 1,
                    computed: 2,
                },
                "checksum",
            ),
            (TraceFileError::MissingSection("meta"), "meta"),
            (
                TraceFileError::malformed("chains", "bad frame id"),
                "bad frame id",
            ),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle}"
            );
        }
    }
}
