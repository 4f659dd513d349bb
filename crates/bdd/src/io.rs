//! Serialization of BDDs to a compact text format.
//!
//! The original `bddbddb` cached relations as `.bdd` files between runs;
//! this module provides the same capability. The format is line-based:
//!
//! ```text
//! bdd 2 <varcount> <node-count> <root-id>
//! order <var-at-level-0> <var-at-level-1> ...
//! <id> <variable> <low-id> <high-id>
//! ...
//! ```
//!
//! Node ids are arbitrary (they are remapped on load); ids `0` and `1`
//! denote the terminals. Node lines name *variables*, and the reader
//! rebuilds each node through `ite` on its variable, so the result is
//! canonical whatever order the node lines imply. A variable's level is
//! fixed when its manager is built, so the writer's `order` line is the
//! identity; files from managers that permuted their levels at run time
//! carry another permutation there and decode the same way. Version-1
//! files, which had no `order` line, are still accepted.
//!
//! Loading validates the variable count — a file written for another
//! domain layout is [`BddError::VarCountMismatch`] — and (for version 2)
//! that the `order` line is a permutation of the variables.

use crate::manager::{Bdd, BddManager};
use crate::BddError;
use std::collections::HashMap;
use std::io::{BufRead, Write};

/// Writes `f` to `out` in the text format above.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_bdd<W: Write>(f: &Bdd, mut out: W) -> std::io::Result<()> {
    let mgr = f.manager();
    let nodes = f.dump_nodes();
    writeln!(
        out,
        "bdd 2 {} {} {}",
        mgr.varcount(),
        nodes.len(),
        f.root_token()
    )?;
    let order: Vec<String> = (0..mgr.varcount()).map(|v| v.to_string()).collect();
    writeln!(out, "order {}", order.join(" "))?;
    for (id, var, low, high) in nodes {
        writeln!(out, "{id} {var} {low} {high}")?;
    }
    Ok(())
}

/// Reads a BDD written by [`write_bdd`] into `mgr`.
///
/// # Errors
///
/// [`BddError::MalformedOrderSpec`] is reused for malformed input
/// (including a version-2 `order` line that is not a permutation of the
/// variables); a file whose variable count differs from `mgr`'s is
/// [`BddError::VarCountMismatch`].
pub fn read_bdd<R: BufRead>(mgr: &BddManager, input: R) -> Result<Bdd, BddError> {
    let malformed = |m: &str| BddError::MalformedOrderSpec(format!("bdd file: {m}"));
    let mut lines = input.lines();
    let header = lines
        .next()
        .ok_or_else(|| malformed("empty input"))?
        .map_err(|e| malformed(&e.to_string()))?;
    let parts: Vec<&str> = header.split_whitespace().collect();
    if parts.len() != 5 || parts[0] != "bdd" || !matches!(parts[1], "1" | "2") {
        return Err(malformed("bad header"));
    }
    let version = parts[1];
    let varcount: u32 = parts[2].parse().map_err(|_| malformed("bad varcount"))?;
    if varcount != mgr.varcount() {
        return Err(BddError::VarCountMismatch {
            file: varcount,
            manager: mgr.varcount(),
        });
    }
    let count: usize = parts[3].parse().map_err(|_| malformed("bad node count"))?;
    let root: u64 = parts[4].parse().map_err(|_| malformed("bad root"))?;

    if version == "2" {
        // The writer's level→variable map. The node lines carry variables,
        // so the map is not needed to decode, but it must be a permutation
        // or the file is corrupt.
        let line = lines
            .next()
            .ok_or_else(|| malformed("missing order line"))?
            .map_err(|e| malformed(&e.to_string()))?;
        let mut p = line.split_whitespace();
        if p.next() != Some("order") {
            return Err(malformed("missing order line"));
        }
        let mut seen = vec![false; varcount as usize];
        let mut n = 0u32;
        for tok in p {
            let v: u32 = tok.parse().map_err(|_| malformed("bad order entry"))?;
            if v >= varcount || std::mem::replace(&mut seen[v as usize], true) {
                return Err(malformed("order is not a permutation of the variables"));
            }
            n += 1;
        }
        if n != varcount {
            return Err(malformed("order is not a permutation of the variables"));
        }
    }

    let mut map: HashMap<u64, Bdd> = HashMap::new();
    map.insert(0, mgr.zero());
    map.insert(1, mgr.one());
    for _ in 0..count {
        let line = lines
            .next()
            .ok_or_else(|| malformed("truncated node list"))?
            .map_err(|e| malformed(&e.to_string()))?;
        let p: Vec<&str> = line.split_whitespace().collect();
        if p.len() != 4 {
            return Err(malformed("bad node line"));
        }
        let id: u64 = p[0].parse().map_err(|_| malformed("bad id"))?;
        if id < 2 {
            return Err(malformed("node id collides with a terminal"));
        }
        let var: u32 = p[1].parse().map_err(|_| malformed("bad variable"))?;
        if var >= varcount {
            return Err(malformed("node variable out of range"));
        }
        let low: u64 = p[2].parse().map_err(|_| malformed("bad low"))?;
        let high: u64 = p[3].parse().map_err(|_| malformed("bad high"))?;
        let low_b = map
            .get(&low)
            .ok_or_else(|| malformed("low reference before definition"))?
            .clone();
        let high_b = map
            .get(&high)
            .ok_or_else(|| malformed("high reference before definition"))?
            .clone();
        // mk via ite on the variable: var ? high : low.
        let var = mgr.ithvar(var);
        let node = var.ite(&high_b, &low_b);
        if map.insert(id, node).is_some() {
            return Err(malformed("duplicate node id"));
        }
    }
    map.get(&root)
        .cloned()
        .ok_or_else(|| malformed("root not defined"))
}

/// A BDD captured as plain data, detached from any manager: its
/// [`write_bdd`] dump, held in memory.
///
/// It carries a relation between managers built from the same domain
/// layout — e.g. to compare the relations two engines over one program
/// solved.
#[derive(Clone, Debug)]
pub struct BddSnapshot {
    dump: Vec<u8>,
}

impl BddSnapshot {
    /// Captures `f` as manager-independent plain data.
    #[must_use]
    pub fn of(f: &Bdd) -> Self {
        let mut dump = Vec::new();
        write_bdd(f, &mut dump).expect("writing to a Vec cannot fail");
        BddSnapshot { dump }
    }

    /// Rebuilds the snapshot inside `target`, through [`read_bdd`].
    ///
    /// Variables are copied one-to-one, so `target` must assign the same
    /// meaning to each variable number as the source manager did — in
    /// practice: construct both from the same `DomainSpec`/`OrderSpec`
    /// pair (variable numbers are fixed at construction).
    ///
    /// # Errors
    ///
    /// [`BddError::VarCountMismatch`] if `target` has a different variable
    /// count than the snapshot's source manager.
    pub fn restore(&self, target: &BddManager) -> Result<Bdd, BddError> {
        read_bdd(target, self.dump.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DomainSpec, OrderSpec};

    fn mgr() -> BddManager {
        BddManager::with_domains(
            &[DomainSpec::new("A", 1000), DomainSpec::new("B", 1000)],
            &OrderSpec::parse("AxB").unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let m = mgr();
        let a = m.domain("A").unwrap();
        let b = m.domain("B").unwrap();
        let f = m.domain_range(a, 17, 600).and(&m.domain_add_const(a, b, 3));
        let mut buf = Vec::new();
        write_bdd(&f, &mut buf).unwrap();
        let g = read_bdd(&m, buf.as_slice()).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn roundtrip_constants() {
        let m = mgr();
        for f in [m.zero(), m.one()] {
            let mut buf = Vec::new();
            write_bdd(&f, &mut buf).unwrap();
            assert_eq!(read_bdd(&m, buf.as_slice()).unwrap(), f);
        }
    }

    #[test]
    fn roundtrip_across_managers_same_layout() {
        let m1 = mgr();
        let m2 = mgr();
        let a = m1.domain("A").unwrap();
        let f = m1.domain_range(a, 5, 800);
        let mut buf = Vec::new();
        write_bdd(&f, &mut buf).unwrap();
        let g = read_bdd(&m2, buf.as_slice()).unwrap();
        let a2 = m2.domain("A").unwrap();
        assert_eq!(g, m2.domain_range(a2, 5, 800));
    }

    #[test]
    fn varcount_mismatch_rejected() {
        let m1 = mgr();
        let m2 = BddManager::with_vars(3);
        let f = m1.one();
        let mut buf = Vec::new();
        write_bdd(&f, &mut buf).unwrap();
        let err = read_bdd(&m2, buf.as_slice()).unwrap_err();
        assert_eq!(
            err,
            BddError::VarCountMismatch {
                file: 20,
                manager: 3
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("20") && msg.contains('3'), "{msg}");
        assert!(msg.contains("another domain layout"), "{msg}");
        assert!(msg.contains("deleted"), "{msg}");
    }

    /// A version-2 dump as a manager that permuted its levels wrote it:
    /// the `order` line is not the identity and the nodes test `x2`
    /// above `x1` above `x0`. The node lines name variables, so it
    /// decodes to the same function under the identity order.
    #[test]
    fn permuted_order_line_decodes_to_the_same_function() {
        let m = BddManager::with_vars(3);
        let (x0, x1, x2) = (m.ithvar(0), m.ithvar(1), m.ithvar(2));
        // (x0 ∧ x2) ∨ x1, written under the order x2, x1, x0 (top first).
        let want = x0.and(&x2).or(&x1);
        // Top x2: x2=0 gives x1 (node 6), x2=1 gives x1 ∨ x0 (node 7).
        let dump = "bdd 2 3 4 8\norder 2 1 0\n5 0 0 1\n6 1 0 1\n7 1 5 1\n8 2 6 7\n";
        let got = read_bdd(&m, dump.as_bytes()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn order_line_that_is_not_a_permutation_is_refused() {
        let m = BddManager::with_vars(3);
        for order in [
            "order 0 1 1",
            "order 0 1",
            "order 0 1 2 3",
            "order 0 1 3",
            "nodes 0 1 2",
        ] {
            let dump = format!("bdd 2 3 0 1\n{order}\n");
            let err = read_bdd(&m, dump.as_bytes()).unwrap_err();
            assert!(
                matches!(err, BddError::MalformedOrderSpec(_)),
                "{order}: {err}"
            );
        }
    }

    #[test]
    fn snapshot_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<BddSnapshot>();
    }

    #[test]
    fn malformed_rejected() {
        let m = mgr();
        assert!(read_bdd(&m, "nope".as_bytes()).is_err());
        assert!(read_bdd(&m, "".as_bytes()).is_err());
        assert!(read_bdd(&m, "bdd 1 20 1 5\n5 0 9 1".as_bytes()).is_err());
    }
}
