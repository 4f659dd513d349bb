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
//! denote the terminals. Node lines name *variables*, children come before
//! their parents, and the reader rebuilds each node through the unique
//! table, or through `ite` on its variable where the node lines imply
//! another order, so the result is canonical either way. A variable's
//! level is fixed when its manager is built, so the writer's `order` line
//! is the identity; files from managers that permuted their levels at run
//! time carry another permutation there and decode the same way. Version-1
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
/// A node whose variable lies above both of its children — every node of
/// a dump written under this manager's own order — goes straight into the
/// unique table; any other node (a dump written under a permuted order)
/// is placed through `ite` on its variable, so the result is canonical
/// either way. Reading consumes exactly the dump's lines.
///
/// # Errors
///
/// [`BddError::MalformedDump`] names the first line that is not what the
/// format expects there (including a version-2 `order` line that is not a
/// permutation of the variables); a file whose variable count differs
/// from `mgr`'s is [`BddError::VarCountMismatch`].
pub fn read_bdd<R: BufRead>(mgr: &BddManager, input: R) -> Result<Bdd, BddError> {
    const HEADER: &str = "a header `bdd <version 1 or 2> <varcount> <node-count> <root-id>`";
    const NODE: &str = "a node line `<id> <variable> <low-id> <high-id>`";
    let mut lines = Lines {
        input,
        buf: String::new(),
        line: 0,
    };
    let (n, header) = lines.next(HEADER)?;
    let mut t = header.split_ascii_whitespace();
    let (Some("bdd"), Some(version @ ("1" | "2")), Some(varcount), Some(count), Some(root), None) =
        (t.next(), t.next(), t.next(), t.next(), t.next(), t.next())
    else {
        return Err(malformed(n, HEADER));
    };
    let (Ok(varcount), Ok(count), Ok(root)) = (
        varcount.parse::<u32>(),
        count.parse::<usize>(),
        root.parse::<u64>(),
    ) else {
        return Err(malformed(n, HEADER));
    };
    let has_order_line = version == "2";
    if varcount != mgr.varcount() {
        return Err(BddError::VarCountMismatch {
            file: varcount,
            manager: mgr.varcount(),
        });
    }

    if has_order_line {
        // The writer's level→variable map. The node lines carry variables,
        // so the map is not needed to decode, but it must be a permutation
        // or the file is corrupt.
        let permutation = format!("an `order` line listing each of the {varcount} variables once");
        let (n, line) = lines.next(&permutation)?;
        let mut p = line.split_ascii_whitespace();
        if p.next() != Some("order") {
            return Err(malformed(n, &permutation));
        }
        let mut seen = vec![false; varcount as usize];
        let mut listed = 0u32;
        for tok in p {
            match tok.parse::<u32>() {
                Ok(v) if v < varcount && !std::mem::replace(&mut seen[v as usize], true) => {
                    listed += 1
                }
                _ => return Err(malformed(n, &permutation)),
            }
        }
        if listed != varcount {
            return Err(malformed(n, &permutation));
        }
    }

    // Node lines in file order as `(variable, low, high)`, children
    // encoded as in [`Bdd::canonical_nodes`]: 0/1 for the terminals,
    // `2 + i` for the `i`th line. `pos` maps a file id to that code. The
    // header's count is untrusted, so it bounds no allocation.
    let reserve = count.min(1 << 16);
    let mut nodes: Vec<(u32, u32, u32)> = Vec::with_capacity(reserve);
    let mut pos: HashMap<u64, u32> = HashMap::with_capacity(reserve);
    pos.insert(0, 0);
    pos.insert(1, 1);
    for _ in 0..count {
        let (n, line) = lines.next(NODE)?;
        let mut t = line.split_ascii_whitespace();
        let (Some(id), Some(var), Some(low), Some(high), None) =
            (t.next(), t.next(), t.next(), t.next(), t.next())
        else {
            return Err(malformed(n, NODE));
        };
        let (Ok(id), Ok(var), Ok(low), Ok(high)) = (
            id.parse::<u64>(),
            var.parse::<u32>(),
            low.parse::<u64>(),
            high.parse::<u64>(),
        ) else {
            return Err(malformed(n, NODE));
        };
        if var >= varcount {
            return Err(malformed(n, &format!("a node variable below {varcount}")));
        }
        let (Some(&low), Some(&high)) = (pos.get(&low), pos.get(&high)) else {
            return Err(malformed(n, "children defined on earlier lines"));
        };
        if pos.insert(id, nodes.len() as u32 + 2).is_some() {
            return Err(malformed(
                n,
                "a node id not used before (0 and 1 are the terminals)",
            ));
        }
        nodes.push((var, low, high));
    }
    let Some(&root) = pos.get(&root) else {
        return Err(malformed(1, "a root id that a node line defines"));
    };
    Ok(mgr.build_nodes(&nodes, root))
}

/// A line reader over one reused buffer that counts lines for errors.
struct Lines<R> {
    input: R,
    buf: String,
    /// Number of the line last read, from 1.
    line: usize,
}

impl<R: BufRead> Lines<R> {
    /// The next line and its number; the end of the input is an error
    /// that expected `what` there.
    fn next(&mut self, what: &str) -> Result<(usize, &str), BddError> {
        self.buf.clear();
        self.line += 1;
        match self.input.read_line(&mut self.buf) {
            Ok(0) => Err(malformed(self.line, what)),
            Ok(_) => Ok((self.line, &self.buf)),
            Err(e) => Err(malformed(self.line, &format!("a line of text ({e})"))),
        }
    }
}

/// The error for line `line` of a dump, which was not `what`.
fn malformed(line: usize, what: &str) -> BddError {
    BddError::MalformedDump {
        line,
        what: what.to_string(),
    }
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
                matches!(&err, BddError::MalformedDump { line: 2, what } if what.contains("order")),
                "{order}: {err}"
            );
        }
    }

    /// Each malformed dump names its first wrong line and what belongs
    /// there.
    #[test]
    fn malformed_dumps_name_the_line_and_the_expectation() {
        let m = BddManager::with_vars(3);
        let order = "order 0 1 2";
        for (dump, line, expected) in [
            ("", 1, "a header `bdd"),
            ("bdd 2 oops\n", 1, "a header `bdd"),
            ("bdd 3 3 0 1\n", 1, "a header `bdd"),
            (&format!("bdd 2 3 1 5\n{order}\n"), 3, "a node line"),
            (&format!("bdd 2 3 1 5\n{order}\n5 0 0\n"), 3, "a node line"),
            (
                &format!("bdd 2 3 1 5\n{order}\n5 x 0 1\n"),
                3,
                "a node line",
            ),
            (
                &format!("bdd 2 3 1 5\n{order}\n5 3 0 1\n"),
                3,
                "a node variable below 3",
            ),
            (
                &format!("bdd 2 3 1 5\n{order}\n5 0 0 6\n"),
                3,
                "children defined on earlier lines",
            ),
            (
                &format!("bdd 2 3 2 6\n{order}\n5 1 0 1\n5 0 0 1\n"),
                4,
                "a node id not used before",
            ),
            (
                &format!("bdd 2 3 1 1\n{order}\n1 0 0 1\n"),
                3,
                "a node id not used before",
            ),
            (&format!("bdd 2 3 1 7\n{order}\n5 0 0 1\n"), 1, "a root id"),
            (
                "bdd 1 3 1 5\n5 0 9 1\n",
                2,
                "children defined on earlier lines",
            ),
        ] {
            match read_bdd(&m, dump.as_bytes()) {
                Err(BddError::MalformedDump { line: l, what }) => {
                    assert_eq!(l, line, "{dump:?}: {what}");
                    assert!(what.starts_with(expected), "{dump:?}: {what}");
                }
                other => panic!("{dump:?}: {other:?}"),
            }
        }
        let msg = read_bdd(&m, "bdd 2 oops\n".as_bytes())
            .unwrap_err()
            .to_string();
        assert!(
            msg.starts_with("malformed bdd dump: line 1: expected a header"),
            "{msg}"
        );
    }

    /// A dump written under the reader's own order restores through the
    /// unique table alone: no `ite` runs.
    #[test]
    fn own_order_dump_restores_without_ite() {
        let m = mgr();
        let a = m.domain("A").unwrap();
        let b = m.domain("B").unwrap();
        let f = m.domain_range(a, 17, 600).and(&m.domain_add_const(a, b, 3));
        let mut buf = Vec::new();
        write_bdd(&f, &mut buf).unwrap();
        let fresh = mgr();
        let g = read_bdd(&fresh, buf.as_slice()).unwrap();
        let st = fresh.stats();
        assert_eq!(st.ite_cache.hits + st.ite_cache.misses, 0);
        assert_eq!(g.canonical_nodes(), f.canonical_nodes());
        assert_eq!(fresh.stats().live_nodes, f.node_count());
    }

    /// A restore that fills the node table collects in the middle of the
    /// node list; the nodes already restored survive it.
    #[test]
    fn restore_survives_a_collection_midway() {
        let m = mgr();
        let a = m.domain("A").unwrap();
        let b = m.domain("B").unwrap();
        let tuples: Vec<[u64; 2]> = (0..400u64).map(|i| [i * 7 % 1000, i * 13 % 997]).collect();
        let f = m.tuple_set(&[a, b], tuples.iter().map(|t| &t[..]));
        let mut buf = Vec::new();
        write_bdd(&f, &mut buf).unwrap();
        let small = BddManager::with_domains_and_capacity(
            &[DomainSpec::new("A", 1000), DomainSpec::new("B", 1000)],
            &OrderSpec::parse("AxB").unwrap(),
            1 << 12,
        )
        .unwrap();
        // Garbage: fewer free slots than the dump has nodes when the
        // restore starts.
        let (sa, sb) = (small.domain("A").unwrap(), small.domain("B").unwrap());
        let mut i = 0;
        while small.stats().live_nodes + f.node_count() / 2 < small.stats().allocated_nodes {
            drop(
                small
                    .domain_range(sa, i, 900 - i)
                    .xor(&small.domain_add_const(sa, sb, i)),
            );
            i += 1;
            assert!(i < 100, "{:?}", small.stats());
        }
        let gcs = small.stats().gc_runs;
        let g = read_bdd(&small, buf.as_slice()).unwrap();
        assert!(
            small.stats().gc_runs > gcs,
            "no collection during the restore"
        );
        assert_eq!(g.canonical_nodes(), f.canonical_nodes());
        assert_eq!(g.tuples(&[sa, sb]).len(), tuples.len());
        small.check_invariants().unwrap();
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
