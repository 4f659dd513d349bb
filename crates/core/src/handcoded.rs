//! A hand-coded BDD implementation of the context-insensitive points-to
//! analysis (Algorithm 2 with the CHA call graph), written directly
//! against the `whale-bdd` kernel.
//!
//! Section 6.4 of the paper recounts hand-coding every analysis in raw BDD
//! operations before building `bddbddb` — "the incrementalization was very
//! difficult to get correct, and we found a subtle bug months after the
//! implementation was completed" — and reports that the generated
//! implementations ended up *faster* than the hand-tuned ones. This module
//! reproduces that baseline for the ablation benchmark, and doubles as an
//! independent cross-check of the Datalog engine: both must compute
//! identical `vP`/`hP` relations.

use whale_bdd::{Bdd, BddError, BddManager, DomainId, DomainSpec, OrderSpec};
use whale_ir::Facts;

/// Result of the hand-coded analysis.
pub struct Handcoded {
    mgr: BddManager,
    /// `vP (V0, H0)`.
    pub vp: Bdd,
    /// `hP (H0, F0, H1)`.
    pub hp: Bdd,
    v0: DomainId,
    h0: DomainId,
    f0: DomainId,
    h1: DomainId,
    /// Fixpoint iterations of the inner loop.
    pub iterations: usize,
}

impl Handcoded {
    /// Number of `vP` tuples.
    pub fn vp_count(&self) -> u64 {
        self.vp.satcount_domains(&[self.v0, self.h0]) as u64
    }

    /// Number of `hP` tuples.
    pub fn hp_count(&self) -> u64 {
        self.hp.satcount_domains(&[self.h0, self.f0, self.h1]) as u64
    }

    /// All `vP` tuples, for cross-checking against the Datalog engine.
    pub fn vp_tuples(&self) -> Vec<Vec<u64>> {
        self.vp.tuples(&[self.v0, self.h0])
    }

    /// Peak live BDD nodes.
    pub fn peak_nodes(&self) -> usize {
        self.mgr.stats().peak_live_nodes
    }
}

/// Runs Algorithm 2 (typed, CHA call graph) hand-coded in raw BDD
/// operations.
///
/// # Errors
///
/// Propagates BDD-layer errors.
pub fn context_insensitive_handcoded(facts: &Facts) -> Result<Handcoded, BddError> {
    let s = &facts.sizes;
    // Physical domains, chosen by hand exactly like the Datalog engine's
    // assignment so results are comparable.
    let specs = [
        DomainSpec::new("Z0", s.z),
        DomainSpec::new("N0", s.n),
        DomainSpec::new("T0", s.t),
        DomainSpec::new("T1", s.t),
        DomainSpec::new("M0", s.m),
        DomainSpec::new("I0", s.i),
        DomainSpec::new("V0", s.v),
        DomainSpec::new("V1", s.v),
        DomainSpec::new("F0", s.f),
        DomainSpec::new("H0", s.h + 1),
        DomainSpec::new("H1", s.h + 1),
    ];
    let order = OrderSpec::parse("Z0_N0_T0xT1_M0_I0_V0xV1_F0_H0xH1")?;
    let mgr = BddManager::with_domains(&specs, &order)?;
    let dom = |n: &str| mgr.domain(n).expect("declared");
    let (z0, n0, t0, t1) = (dom("Z0"), dom("N0"), dom("T0"), dom("T1"));
    let (m0, i0, v0, v1) = (dom("M0"), dom("I0"), dom("V0"), dom("V1"));
    let (f0, h0, h1) = (dom("F0"), dom("H0"), dom("H1"));

    let vp0 = mgr.tuple_set(&[v0, h0], &facts.vp0);
    let store = mgr.tuple_set(&[v0, f0, v1], &facts.store);
    let load_ = mgr.tuple_set(&[v0, f0, v1], &facts.load);
    let assign0 = mgr.tuple_set(&[v0, v1], &facts.assign);
    let vt = mgr.tuple_set(&[v0, t0], &facts.vt);
    let mut ht_rows = facts.ht.clone();
    ht_rows.push([s.h, 0]); // the synthetic global object, typed Object
    let ht_t1 = mgr.tuple_set(&[h0, t1], &ht_rows); // hT with the type on T1
    let at = mgr.tuple_set(&[t0, t1], &facts.at); // aT(super:T0, sub:T1)
    let cha = mgr.tuple_set(&[t0, n0, m0], &facts.cha);
    let actual = mgr.tuple_set(&[i0, z0, v0], &facts.actual);
    let formal = mgr.tuple_set(&[m0, z0, v0], &facts.formal);
    let ie0 = mgr.tuple_set(&[i0, m0], &facts.ie0);
    let mi = mgr.tuple_set(&[m0, i0, n0], &facts.mi);
    let mret = mgr.tuple_set(&[m0, v0], &facts.mret);
    let iret = mgr.tuple_set(&[i0, v0], &facts.iret);

    // vPfilter(v, h) = ∃ t0 t1. vT(v,t0) ∧ aT(t0,t1) ∧ hT(h,t1)
    let vpfilter = vt
        .relprod_domains(&at, &[t0])
        .relprod_domains(&ht_t1, &[t1]);

    // CHA call graph:
    // IE(i,m) = IE0 ∪ ∃ n v tv t. mI(_,i,n) ∧ actual(i,0,v) ∧ vT(v,tv)
    //                             ∧ aT(tv,t) ∧ cha(t,n,m)
    let mi_in = mi.exist_domains(&[m0]); // (i, n)
    let recv = actual.and(&mgr.domain_const(z0, 0)).exist_domains(&[z0]); // (i, v:V0)
    let recv_types = recv.relprod_domains(&vt, &[v0]); // (i, tv:T0)
    let recv_subtypes = recv_types.relprod_domains(&at, &[t0]); // (i, t:T1)
                                                                // cha has its type on T0: move the receiver subtype back onto
                                                                // T0, fused into the dispatch join. ∃n distributes onto the
                                                                // mI ⋈ cha conjuncts because the receiver type is n-free.
    let cand = cha.relprod_domains(&mi_in, &[n0]); // (i, t:T0, m)
    let dispatch = recv_subtypes.replace_relprod_domains(&cand, &[(t1, t0)], &[t0]); // (i, m)
    let ie = ie0.or(&dispatch);

    // assign(v1←dest:V0, v2←source:V1) from parameter passing and returns.
    // formal(m,z,vd): vd must land on V0; actual(i,z,vs): vs on V1 —
    // the source-side rename is fused into each binding join.
    let params = actual.replace_relprod_domains(&ie.and(&formal), &[(v0, v1)], &[i0, m0, z0]);
    let rets = mret.replace_relprod_domains(&ie.and(&iret), &[(v0, v1)], &[i0, m0]);
    let assign = params.or(&rets).or(&assign0);

    // The fixpoint of rules (6)-(9), incrementalized by hand.
    let mut vp = vp0.clone();
    let mut hp = mgr.zero();
    let mut new_vp = vp.clone();
    let mut new_hp = hp.clone();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        // Rule (7): vP(v1,h) ⊇ assign(v1,v2) ⋈ vP(v2,h), filtered.
        // vP's variable is on V0; the source position of assign is V1.
        // The V0→V1 move of the delta fuses into the join.
        let via_assign = new_vp
            .replace_relprod_domains(&assign, &[(v0, v1)], &[v1])
            .and(&vpfilter);

        // Rule (8): hP(h1,f,h2) ⊇ store(v1,f,v2) ⋈ vP(v1,h1) ⋈ vP(v2,h2).
        // Use the new delta on either side (two half-applications); the
        // (V0,H0)→(V1,H1) move of the second vP operand fuses into the join.
        let store_h1 = store.relprod_domains(&new_vp, &[v0]); // (f, v2:V1, h1:H0)
        let hp_delta_a = vp.replace_relprod_domains(&store_h1, &[(v0, v1), (h0, h1)], &[v1]);
        let store_h1_full = store.relprod_domains(&vp, &[v0]);
        let hp_delta_b =
            new_vp.replace_relprod_domains(&store_h1_full, &[(v0, v1), (h0, h1)], &[v1]);
        let hp_from_store = hp_delta_a.or(&hp_delta_b); // (f, h1:H0, h2:H1)

        // Rule (9): vP(v2,h2) ⊇ load(v1,f,v2) ⋈ vP(v1,h1) ⋈ hP(h1,f,h2),
        // filtered. Delta on vP or on hP.
        let load_h1 = load_.relprod_domains(&new_vp, &[v0]); // (f, v2:V1, h1:H0)
        let via_load_a = load_h1.relprod_domains(&hp, &[h0, f0]); // (v2:V1, h2:H1)
        let load_h1_full = load_.relprod_domains(&vp, &[v0]);
        let via_load_b = load_h1_full.relprod_domains(&new_hp, &[h0, f0]);
        // Fused rename+AND: with no quantified variables, relprod is a
        // plain conjunction, so the (V1,H1)→(V0,H0) move and the filter
        // application collapse into one traversal.
        let via_load = via_load_a.or(&via_load_b).replace_relprod_domains(
            &vpfilter,
            &[(v1, v0), (h1, h0)],
            &[],
        );

        let grown_vp = vp.or(&via_assign).or(&via_load);
        let grown_hp = hp.or(&hp_from_store);
        new_vp = grown_vp.diff(&vp);
        new_hp = grown_hp.diff(&hp);
        if new_vp.is_zero() && new_hp.is_zero() {
            break;
        }
        vp = grown_vp;
        hp = grown_hp;
    }

    Ok(Handcoded {
        mgr,
        vp,
        hp,
        v0,
        h0,
        f0,
        h1,
        iterations,
    })
}
