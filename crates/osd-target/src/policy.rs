//! The data encoding policy: class → redundancy scheme.

use std::fmt;

use reo_osd::ObjectClass;
use reo_stripe::RedundancyScheme;

/// How the target assigns redundancy to objects.
///
/// # Examples
///
/// ```
/// use reo_osd::ObjectClass;
/// use reo_osd_target::ProtectionPolicy;
/// use reo_stripe::RedundancyScheme;
///
/// let reo = ProtectionPolicy::differentiated();
/// assert_eq!(reo.scheme_for(ObjectClass::Dirty), RedundancyScheme::Replication);
/// assert_eq!(reo.scheme_for(ObjectClass::HotClean), RedundancyScheme::parity(2));
/// assert_eq!(reo.scheme_for(ObjectClass::ColdClean), RedundancyScheme::parity(0));
///
/// let uniform = ProtectionPolicy::uniform(RedundancyScheme::parity(1));
/// assert_eq!(uniform.scheme_for(ObjectClass::ColdClean), RedundancyScheme::parity(1));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtectionPolicy {
    /// The baseline: the same scheme for every object regardless of class
    /// ("uniform data protection" in the paper's evaluation).
    Uniform(RedundancyScheme),
    /// Reo's differentiated redundancy (Section IV-C.4): replication for
    /// classes 0/1, two parity chunks for class 2, none for class 3.
    Differentiated,
}

/// Parity chunks per stripe for hot clean objects under differentiated
/// redundancy: the paper's 2, "which ensures that they can survive no
/// more than two device failures".
const HOT_PARITY: u8 = 2;

impl ProtectionPolicy {
    /// Reo's policy with the paper's 2-parity protection for hot data.
    pub const fn differentiated() -> Self {
        ProtectionPolicy::Differentiated
    }

    /// A uniform-protection baseline.
    pub const fn uniform(scheme: RedundancyScheme) -> Self {
        ProtectionPolicy::Uniform(scheme)
    }

    /// The scheme this policy assigns to `class`.
    pub fn scheme_for(self, class: ObjectClass) -> RedundancyScheme {
        match self {
            ProtectionPolicy::Uniform(s) => s,
            ProtectionPolicy::Differentiated => match class {
                ObjectClass::Metadata | ObjectClass::Dirty => RedundancyScheme::Replication,
                ObjectClass::HotClean => RedundancyScheme::Parity(HOT_PARITY),
                ObjectClass::ColdClean => RedundancyScheme::Parity(0),
            },
        }
    }

    /// `true` if a class change under this policy requires re-encoding the
    /// object's stripes.
    pub fn requires_reencode(self, from: ObjectClass, to: ObjectClass) -> bool {
        self.scheme_for(from) != self.scheme_for(to)
    }
}

impl fmt::Display for ProtectionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtectionPolicy::Uniform(s) => write!(f, "uniform({s})"),
            ProtectionPolicy::Differentiated => {
                write!(f, "differentiated(hot={HOT_PARITY}-parity)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_of_section_iv_c4() {
        let p = ProtectionPolicy::differentiated();
        assert_eq!(
            p.scheme_for(ObjectClass::Metadata),
            RedundancyScheme::Replication
        );
        assert_eq!(
            p.scheme_for(ObjectClass::Dirty),
            RedundancyScheme::Replication
        );
        assert_eq!(
            p.scheme_for(ObjectClass::HotClean),
            RedundancyScheme::parity(2)
        );
        assert_eq!(
            p.scheme_for(ObjectClass::ColdClean),
            RedundancyScheme::parity(0)
        );
    }

    #[test]
    fn uniform_ignores_class() {
        for scheme in [
            RedundancyScheme::parity(0),
            RedundancyScheme::parity(1),
            RedundancyScheme::parity(2),
            RedundancyScheme::Replication,
        ] {
            let p = ProtectionPolicy::uniform(scheme);
            for class in ObjectClass::ALL {
                assert_eq!(p.scheme_for(class), scheme);
            }
        }
    }

    #[test]
    fn reencode_matrix() {
        let p = ProtectionPolicy::differentiated();
        // Hot -> cold changes scheme.
        assert!(p.requires_reencode(ObjectClass::HotClean, ObjectClass::ColdClean));
        // Dirty -> metadata both replicate: no re-encode.
        assert!(!p.requires_reencode(ObjectClass::Dirty, ObjectClass::Metadata));
        // Uniform never re-encodes.
        let u = ProtectionPolicy::uniform(RedundancyScheme::parity(1));
        for a in ObjectClass::ALL {
            for b in ObjectClass::ALL {
                assert!(!u.requires_reencode(a, b));
            }
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            ProtectionPolicy::differentiated().to_string(),
            "differentiated(hot=2-parity)"
        );
        assert_eq!(
            ProtectionPolicy::uniform(RedundancyScheme::parity(1)).to_string(),
            "uniform(1-parity)"
        );
    }
}
