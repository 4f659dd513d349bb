//! Serialization of BDDs to a compact, order-portable text format.
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
//! denote the terminals. Node lines name stable *variables*, and the
//! `order` line records the writer's level→variable map, so a file written
//! under one variable order decodes correctly under any other (the reader
//! rebuilds through ordinary apply operations). Version-1 files, which
//! predate dynamic reordering, carried levels in the node lines; they are
//! still accepted, with the numbers read as variables — identical for the
//! identity orders every version-1 writer had.
//!
//! Loading validates the variable count and (for version 2) that the
//! persisted order is a permutation of the variables.

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
    let order: Vec<String> = mgr.var_order().iter().map(u32::to_string).collect();
    writeln!(out, "order {}", order.join(" "))?;
    for (id, var, low, high) in nodes {
        writeln!(out, "{id} {var} {low} {high}")?;
    }
    Ok(())
}

/// Reads a BDD written by [`write_bdd`] into `mgr`, which may use a
/// different variable order than the writer did.
///
/// # Errors
///
/// [`BddError::MalformedOrderSpec`] is reused for malformed input
/// (including a version-2 `order` line that is not a permutation of the
/// variables); variable-count mismatches are reported as
/// [`BddError::BitWidthMismatch`].
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
        return Err(BddError::BitWidthMismatch {
            left: format!("file({varcount} vars)"),
            right: format!("manager({} vars)", mgr.varcount()),
        });
    }
    let count: usize = parts[3].parse().map_err(|_| malformed("bad node count"))?;
    let root: u64 = parts[4].parse().map_err(|_| malformed("bad root"))?;

    if version == "2" {
        // The writer's level→variable map. The node lines carry variables,
        // so the map is not needed to decode — but it must be a valid
        // permutation or the file is corrupt.
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

/// A plain-data snapshot of a BDD, detached from any manager.
///
/// This is the in-memory form of the `.bdd` text format: a children-first
/// node list naming stable *variables* (not levels), plus the root. It is
/// the unit of transfer between managers built from the same domain
/// layout — e.g. a demand query's private engine and the engine it reads
/// its input relations from. The sending side snapshots under whatever
/// order its manager currently uses, the receiving side
/// [`restore`](Self::restore)s through ordinary apply operations, so both
/// sides may reorder freely in between.
#[derive(Clone, Debug)]
pub struct BddSnapshot {
    varcount: u32,
    root: u64,
    nodes: Vec<(u64, u32, u64, u64)>,
}

impl BddSnapshot {
    /// Captures `f` as manager-independent plain data.
    #[must_use]
    pub fn of(f: &Bdd) -> Self {
        BddSnapshot {
            varcount: f.manager().varcount(),
            root: f.root_token(),
            nodes: f.dump_nodes(),
        }
    }

    /// Number of inner nodes captured (terminals excluded). This is the
    /// payload size a transfer ships, independent of either side's order.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Rebuilds the snapshot inside `target`.
    ///
    /// Variables are copied one-to-one, so `target` must assign the same
    /// meaning to each variable number as the source manager did — in
    /// practice: construct both from the same `DomainSpec`/`OrderSpec`
    /// pair (variable numbers are fixed at construction). Dynamic
    /// reordering on either side afterwards is harmless, because
    /// variables are stable identities that survive level moves. For
    /// managers with genuinely different layouts use [`transfer`] with an
    /// explicit variable map.
    ///
    /// # Errors
    ///
    /// [`BddError::BitWidthMismatch`] if `target` has a different variable
    /// count than the snapshot's source manager.
    pub fn restore(&self, target: &BddManager) -> Result<Bdd, BddError> {
        let restored = self.rebuild(target)?;
        if target.sanitize_enabled() {
            // Restore equivalence: capturing the restored function and
            // rebuilding it again must land on the very same root —
            // canonicity guarantees it when both the table and the
            // capture/rebuild pair are healthy.
            target.sanitize_check("after snapshot restore");
            let roundtrip = BddSnapshot::of(&restored)
                .rebuild(target)
                .expect("same manager, same varcount");
            assert!(
                roundtrip.root_token() == restored.root_token(),
                "bdd sanitizer (snapshot restore): round-trip diverged \
                 (root {} vs {})",
                restored.root_token(),
                roundtrip.root_token()
            );
        }
        Ok(restored)
    }

    fn rebuild(&self, target: &BddManager) -> Result<Bdd, BddError> {
        let bad = |m: &str| BddError::MalformedOrderSpec(format!("snapshot: {m}"));
        if self.varcount != target.varcount() {
            return Err(BddError::BitWidthMismatch {
                left: format!("snapshot({} vars)", self.varcount),
                right: format!("manager({} vars)", target.varcount()),
            });
        }
        let mut map: HashMap<u64, Bdd> = HashMap::new();
        map.insert(0, target.zero());
        map.insert(1, target.one());
        for &(id, var, low, high) in &self.nodes {
            // Snapshots of live BDDs are well-formed by construction; the
            // checks guard externally materialized node lists (and any
            // future deserialization path) from panicking the process.
            if id < 2 {
                return Err(bad("node id collides with a terminal"));
            }
            if var >= self.varcount {
                return Err(bad("node variable out of range"));
            }
            let low_b = map
                .get(&low)
                .ok_or_else(|| bad("low reference before definition"))?
                .clone();
            let high_b = map
                .get(&high)
                .ok_or_else(|| bad("high reference before definition"))?
                .clone();
            let node = target.ithvar(var).ite(&high_b, &low_b);
            if map.insert(id, node).is_some() {
                return Err(bad("duplicate node id"));
            }
        }
        map.get(&self.root)
            .cloned()
            .ok_or_else(|| bad("root not defined"))
    }
}

/// Rebuilds `f` inside another manager, translating variables with
/// `var_map` (source variable → target variable). The rebuild goes through
/// ordinary apply operations, so the target manager may use a completely
/// different variable order — this is the offline form of variable
/// reordering: construct the function once, then transfer it under a
/// better order and compare sizes.
///
/// # Errors
///
/// [`BddError::MalformedOrderSpec`] (reused) if `var_map` is shorter
/// than the source manager's variable count or maps outside the target's.
pub fn transfer(f: &Bdd, target: &BddManager, var_map: &[u32]) -> Result<Bdd, BddError> {
    let bad = |m: &str| BddError::MalformedOrderSpec(format!("transfer: {m}"));
    if (var_map.len() as u32) < f.manager().varcount() {
        return Err(bad("variable map shorter than source varcount"));
    }
    if var_map.iter().any(|&l| l >= target.varcount()) {
        return Err(bad("variable map exceeds target varcount"));
    }
    // Children-first node list lets us rebuild bottom-up with a plain map.
    // `dump_nodes` on a live BDD upholds that invariant, but a kernel bug
    // here should surface as an error, not a panic in the middle of a
    // transfer.
    let nodes = f.dump_nodes();
    let mut map: HashMap<u64, Bdd> = HashMap::new();
    map.insert(0, target.zero());
    map.insert(1, target.one());
    for (id, var, low, high) in nodes {
        let low_b = map
            .get(&low)
            .ok_or_else(|| bad("low reference before definition"))?
            .clone();
        let high_b = map
            .get(&high)
            .ok_or_else(|| bad("high reference before definition"))?
            .clone();
        let var = target.ithvar(var_map[var as usize]);
        let node = var.ite(&high_b, &low_b);
        map.insert(id, node);
    }
    // The root is identified by id, not position: several nodes may share
    // the root's level, so the last-emitted node need not be the root.
    map.get(&f.root_token())
        .cloned()
        .ok_or_else(|| bad("root not present in node list"))
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
        assert!(matches!(
            read_bdd(&m2, buf.as_slice()),
            Err(BddError::BitWidthMismatch { .. })
        ));
    }

    #[test]
    fn transfer_between_orders_preserves_relation() {
        // Same domains, opposite layouts: A then B vs B then A.
        let m1 = BddManager::with_domains(
            &[DomainSpec::new("A", 256), DomainSpec::new("B", 256)],
            &OrderSpec::parse("A_B").unwrap(),
        )
        .unwrap();
        let m2 = BddManager::with_domains(
            &[DomainSpec::new("A", 256), DomainSpec::new("B", 256)],
            &OrderSpec::parse("B_A").unwrap(),
        )
        .unwrap();
        let (a1, b1) = (m1.domain("A").unwrap(), m1.domain("B").unwrap());
        let (a2, b2) = (m2.domain("A").unwrap(), m2.domain("B").unwrap());
        let f = m1
            .domain_add_const(a1, b1, 5)
            .and(&m1.domain_range(a1, 10, 200));
        // level_map: bit k of A in m1 -> bit k of A in m2, same for B.
        let mut map = vec![0u32; m1.varcount() as usize];
        for (from, to) in m1.domain_levels(a1).iter().zip(m2.domain_levels(a2)) {
            map[*from as usize] = to;
        }
        for (from, to) in m1.domain_levels(b1).iter().zip(m2.domain_levels(b2)) {
            map[*from as usize] = to;
        }
        let g = transfer(&f, &m2, &map).unwrap();
        let expected = m2
            .domain_add_const(a2, b2, 5)
            .and(&m2.domain_range(a2, 10, 200));
        assert_eq!(g, expected);
        // The interleaved source order shares adder structure better than
        // the split target order: sizes differ, the function does not.
        assert_eq!(
            g.satcount_domains_exact(&[a2, b2]),
            f.satcount_domains_exact(&[a1, b1])
        );
    }

    #[test]
    fn transfer_terminals_and_validation() {
        let m1 = BddManager::with_vars(4);
        let m2 = BddManager::with_vars(4);
        let map = [0u32, 1, 2, 3];
        assert_eq!(transfer(&m1.zero(), &m2, &map).unwrap(), m2.zero());
        assert_eq!(transfer(&m1.one(), &m2, &map).unwrap(), m2.one());
        assert!(transfer(&m1.ithvar(0), &m2, &[0, 1]).is_err());
        assert!(transfer(&m1.ithvar(0), &m2, &[9, 9, 9, 9]).is_err());
    }

    #[test]
    fn snapshot_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<BddSnapshot>();
    }

    #[test]
    fn snapshot_restores_across_same_layout_managers() {
        // Two managers from the same spec/order assign identical variable
        // numbers, so a snapshot carries over with no explicit map — the
        // shape a demand query uses to copy its inputs.
        let m1 = mgr();
        let m2 = mgr();
        let (a1, b1) = (m1.domain("A").unwrap(), m1.domain("B").unwrap());
        let (a2, b2) = (m2.domain("A").unwrap(), m2.domain("B").unwrap());
        let f = m1
            .domain_add_const(a1, b1, 5)
            .and(&m1.domain_range(a1, 10, 200));
        let snap = BddSnapshot::of(&f);
        assert!(snap.node_count() > 0);
        let g = snap.restore(&m2).unwrap();
        let expected = m2
            .domain_add_const(a2, b2, 5)
            .and(&m2.domain_range(a2, 10, 200));
        assert_eq!(g, expected);
    }

    #[test]
    fn snapshot_survives_reordering_on_both_sides() {
        let m1 = mgr();
        let m2 = mgr();
        let a = m1.domain("A").unwrap();
        let b = m1.domain("B").unwrap();
        let f = m1
            .domain_add_const(a, b, 3)
            .and(&m1.domain_range(a, 17, 600));
        // Sift the *source* before snapshotting and the *target* before
        // restoring: variables are stable identities, so neither matters.
        m1.reorder_sift();
        let snap = BddSnapshot::of(&f);
        m2.reorder_sift();
        let g = snap.restore(&m2).unwrap();
        let (a2, b2) = (m2.domain("A").unwrap(), m2.domain("B").unwrap());
        let expected = m2
            .domain_add_const(a2, b2, 3)
            .and(&m2.domain_range(a2, 17, 600));
        assert_eq!(g, expected);
    }

    #[test]
    fn snapshot_terminals_and_mismatch() {
        let m = mgr();
        let m3 = BddManager::with_vars(3);
        for f in [m.zero(), m.one()] {
            let snap = BddSnapshot::of(&f);
            assert_eq!(snap.node_count(), 0);
            assert_eq!(snap.restore(&m).unwrap(), f);
            assert!(matches!(
                snap.restore(&m3),
                Err(BddError::BitWidthMismatch { .. })
            ));
        }
    }

    #[test]
    fn malformed_rejected() {
        let m = mgr();
        assert!(read_bdd(&m, "nope".as_bytes()).is_err());
        assert!(read_bdd(&m, "".as_bytes()).is_err());
        assert!(read_bdd(&m, "bdd 1 20 1 5\n5 0 9 1".as_bytes()).is_err());
    }
}
