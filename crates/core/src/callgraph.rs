//! Call multigraphs: the input to the context numbering of Algorithm 4.

use crate::analyses::{default_options, CI_ORDER};
use crate::input::{domains_section, ie_rules, load_base_facts, BASE_RELATIONS};
use whale_datalog::{DatalogError, Engine, Program};
use whale_ir::Facts;

/// A call multigraph over method ids, with one edge per invocation-edge
/// `(invocation site, caller, callee)`.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Number of methods (`M` domain size).
    pub methods: usize,
    /// Edges `(invoke, caller, callee)`. Parallel edges are meaningful: a
    /// caller with two sites calling the same method contributes two paths.
    pub edges: Vec<(u64, u64, u64)>,
    /// Entry methods (roots for the numbering).
    pub entries: Vec<u64>,
}

impl CallGraph {
    /// Builds the precomputed call graph the paper assumes for Algorithms
    /// 1, 2 and 5: class-hierarchy analysis over declared receiver types.
    ///
    /// # Errors
    ///
    /// Propagates Datalog/BDD errors.
    pub fn from_cha(facts: &Facts) -> Result<CallGraph, DatalogError> {
        let src = format!(
            "{}\nRELATIONS\n{}\noutput IE (invoke : I, target : M)\n\nRULES\n{}",
            domains_section(facts, &[]),
            BASE_RELATIONS,
            ie_rules(true),
        );
        let program = Program::parse(&src)?;
        let mut engine = Engine::with_options(program, default_options(CI_ORDER))?;
        load_base_facts(&mut engine, facts)?;
        engine.solve()?;
        Self::from_ie(facts, &engine)
    }

    /// Builds a call graph from a solved engine exposing `IE (invoke,
    /// target)`, joining with `mI` for the caller method — use this with
    /// the on-the-fly Algorithm 3 results.
    ///
    /// # Errors
    ///
    /// Propagates Datalog/BDD errors.
    pub fn from_ie(facts: &Facts, engine: &Engine) -> Result<CallGraph, DatalogError> {
        let ie = engine.relation_tuples("IE")?;
        // invoke -> caller method
        let mut caller_of = vec![u64::MAX; facts.sizes.i as usize];
        for t in &facts.mi {
            caller_of[t[1] as usize] = t[0];
        }
        let mut edges = Vec::with_capacity(ie.len());
        for t in ie {
            let (i, callee) = (t[0], t[1]);
            let caller = caller_of[i as usize];
            if caller != u64::MAX {
                edges.push((i, caller, callee));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        Ok(CallGraph {
            methods: facts.sizes.m as usize,
            edges,
            entries: facts.entries.clone(),
        })
    }

    /// Out-adjacency over methods (collapsing parallel edges).
    pub fn method_adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.methods];
        for &(_, caller, callee) in &self.edges {
            adj[caller as usize].push(callee as usize);
        }
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }
        adj
    }

    /// Methods reachable from `roots` (inclusive).
    pub fn reachable_from(&self, roots: &[u64]) -> Vec<bool> {
        let adj = self.method_adjacency();
        let mut seen = vec![false; self.methods];
        let mut stack: Vec<usize> = roots.iter().map(|&m| m as usize).collect();
        while let Some(m) = stack.pop() {
            if seen[m] {
                continue;
            }
            seen[m] = true;
            for &n in &adj[m] {
                if !seen[n] {
                    stack.push(n);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_ir::{parse_program, Facts};

    #[test]
    fn cha_graph_includes_all_overrides() {
        let src = r#"
class A extends Object {
  method m(): Object { var r: Object; r = new Object; return r; }
}
class B extends A {
  method m(): Object { var r: Object; r = new Object; return r; }
}
class Main extends Object {
  entry static method main() {
    var a: A;
    var r: Object;
    a = new B;
    r = a.m();
  }
}
"#;
        let p = parse_program(src).unwrap();
        let f = Facts::extract(&p);
        let cg = CallGraph::from_cha(&f).unwrap();
        // Declared type A: CHA resolves to both A.m and B.m.
        assert_eq!(cg.edges.len(), 2);
    }

    #[test]
    fn reachability() {
        let cg = CallGraph {
            methods: 4,
            edges: vec![(0, 0, 1), (1, 1, 2)],
            entries: vec![0],
        };
        let r = cg.reachable_from(&[0]);
        assert_eq!(r, vec![true, true, true, false]);
    }
}
