//! Variable-ordering specifications.
//!
//! The paper reports that BDD performance "depends greatly on the ordering
//! of the variables" and that `bddbddb` searches for an effective ordering
//! empirically. Orderings are written in `bddbddb`'s notation: domains
//! separated by `_` are laid out sequentially, domains separated by `x` are
//! bit-interleaved, e.g. `N_F_I_M2_V2xV1_H2_C_H1`.

use crate::BddError;

/// A parsed variable-ordering specification.
///
/// # Example
///
/// ```
/// use whale_bdd::OrderSpec;
/// let spec = OrderSpec::parse("A_BxC_D").unwrap();
/// assert_eq!(spec.groups().len(), 3);
/// assert_eq!(spec.groups()[1], vec!["B".to_string(), "C".to_string()]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderSpec {
    groups: Vec<Vec<String>>,
}

impl OrderSpec {
    /// Parses an ordering string such as `"N_F_I_M2_V2xV1_H2_C_H1"`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::MalformedOrderSpec`] on empty strings, empty
    /// groups (`A__B`) or empty interleave members (`AxxB`).
    pub fn parse(s: &str) -> Result<Self, BddError> {
        if s.is_empty() {
            return Err(BddError::MalformedOrderSpec(s.to_string()));
        }
        let mut groups = Vec::new();
        for group in s.split('_') {
            if group.is_empty() {
                return Err(BddError::MalformedOrderSpec(s.to_string()));
            }
            let members: Vec<String> = group.split('x').map(str::to_string).collect();
            if members.iter().any(String::is_empty) {
                return Err(BddError::MalformedOrderSpec(s.to_string()));
            }
            groups.push(members);
        }
        Ok(OrderSpec { groups })
    }

    /// Builds a spec from explicit groups (outer = sequential, inner =
    /// interleaved), bypassing the string syntax. Useful when member names
    /// contain characters the string form reserves (`_`, `x`).
    pub fn from_groups(groups: Vec<Vec<String>>) -> Self {
        OrderSpec { groups }
    }

    /// Builds a spec that lays out the given domains sequentially in
    /// declaration order (the default when no tuned ordering is known).
    pub fn sequential<S: AsRef<str>>(names: &[S]) -> Self {
        OrderSpec {
            groups: names.iter().map(|n| vec![n.as_ref().to_string()]).collect(),
        }
    }

    /// The ordering groups: outer list is sequential, inner lists are
    /// bit-interleaved.
    pub fn groups(&self) -> &[Vec<String>] {
        &self.groups
    }

    /// All domain names mentioned by the spec, in layout order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.groups.iter().flatten().map(String::as_str)
    }
}

impl std::fmt::Display for OrderSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s: Vec<String> = self.groups.iter().map(|g| g.join("x")).collect();
        write!(f, "{}", s.join("_"))
    }
}

/// Assigns levels for `groups`, where each group is a list of bit widths.
///
/// Within an interleaved group, bits are emitted most-significant first and
/// significance-aligned: at each significance position, one bit of every
/// member wide enough to have that position, in member order. Returns one
/// `Vec<level>` (LSB first) per member, in group order.
pub(crate) fn assign_levels_grouped(groups: &[Vec<u32>]) -> Vec<Vec<Vec<u32>>> {
    let mut next_level: u32 = 0;
    let mut out = Vec::with_capacity(groups.len());
    for group in groups {
        let max_bits = group.iter().copied().max().unwrap_or(0);
        let mut member_bits: Vec<Vec<u32>> = group.iter().map(|&w| vec![0; w as usize]).collect();
        // Significance positions from MSB (max_bits - 1) down to 0.
        for pos in (0..max_bits).rev() {
            for (m, &w) in group.iter().enumerate() {
                if pos < w {
                    member_bits[m][pos as usize] = next_level;
                    next_level += 1;
                }
            }
        }
        out.push(member_bits);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let s = "N_F_I_M2_V2xV1_H2_C_H1";
        let spec = OrderSpec::parse(s).unwrap();
        assert_eq!(spec.to_string(), s);
        assert_eq!(spec.groups().len(), 8);
        assert_eq!(spec.groups()[4], vec!["V2".to_string(), "V1".to_string()]);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(OrderSpec::parse("").is_err());
        assert!(OrderSpec::parse("A__B").is_err());
        assert!(OrderSpec::parse("AxxB").is_err());
        assert!(OrderSpec::parse("_A").is_err());
    }

    #[test]
    fn sequential_layout() {
        // Two sequential groups of widths 2 and 3: levels 0..2 then 2..5.
        let lv = assign_levels_grouped(&[vec![2], vec![3]]);
        // LSB first: group 0 member 0 has MSB at level 0, LSB at level 1.
        assert_eq!(lv[0][0], vec![1, 0]);
        assert_eq!(lv[1][0], vec![4, 3, 2]);
    }

    #[test]
    fn interleaved_layout() {
        // One group interleaving two 2-bit members: levels
        // pos1: m0 -> 0, m1 -> 1; pos0: m0 -> 2, m1 -> 3.
        let lv = assign_levels_grouped(&[vec![2, 2]]);
        assert_eq!(lv[0][0], vec![2, 0]);
        assert_eq!(lv[0][1], vec![3, 1]);
    }

    #[test]
    fn interleaved_unequal_widths() {
        // Widths 3 and 1, significance-aligned: pos2 -> m0; pos1 -> m0;
        // pos0 -> m0 then m1.
        let lv = assign_levels_grouped(&[vec![3, 1]]);
        assert_eq!(lv[0][0], vec![2, 1, 0]);
        assert_eq!(lv[0][1], vec![3]);
    }
}
