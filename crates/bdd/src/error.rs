use std::fmt;

/// Errors reported by the BDD kernel and its finite-domain layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BddError {
    /// A domain name appeared twice in a declaration set.
    DuplicateDomain(String),
    /// An ordering spec referenced a domain that was never declared.
    UnknownDomainInOrder(String),
    /// A declared domain was missing from the ordering spec.
    DomainMissingFromOrder(String),
    /// An ordering spec failed to parse.
    MalformedOrderSpec(String),
    /// A domain was declared with size zero.
    EmptyDomain(String),
    /// A value was out of range for the domain it was encoded into.
    ValueOutOfRange {
        /// Domain name.
        domain: String,
        /// The offending value.
        value: u64,
        /// The domain size.
        size: u64,
    },
    /// Two domains participating in a pairwise operation have different
    /// bit widths.
    BitWidthMismatch {
        /// First domain name.
        left: String,
        /// Second domain name.
        right: String,
    },
    /// A `.bdd` file was written by a manager with a different number of
    /// variables: it belongs to another domain layout (another program,
    /// domain sizes or order) and cannot be decoded here.
    VarCountMismatch {
        /// Variables the file was written with.
        file: u32,
        /// Variables of the manager reading it.
        manager: u32,
    },
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::DuplicateDomain(d) => write!(f, "duplicate domain declaration `{d}`"),
            BddError::UnknownDomainInOrder(d) => {
                write!(f, "ordering spec references unknown domain `{d}`")
            }
            BddError::DomainMissingFromOrder(d) => {
                write!(f, "domain `{d}` missing from ordering spec")
            }
            BddError::MalformedOrderSpec(s) => write!(f, "malformed ordering spec `{s}`"),
            BddError::EmptyDomain(d) => write!(f, "domain `{d}` declared with size zero"),
            BddError::ValueOutOfRange {
                domain,
                value,
                size,
            } => write!(
                f,
                "value {value} out of range for domain `{domain}` of size {size}"
            ),
            BddError::BitWidthMismatch { left, right } => write!(
                f,
                "domains `{left}` and `{right}` have different bit widths"
            ),
            BddError::VarCountMismatch { file, manager } => write!(
                f,
                "bdd file has {file} variables but this manager has {manager}: \
                 it was written for another domain layout and should be deleted"
            ),
        }
    }
}

impl std::error::Error for BddError {}
