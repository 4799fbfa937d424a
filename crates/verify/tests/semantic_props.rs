//! Property-based contract of the semantic layer: `prove_equiv` and
//! `functional_digest` must agree with brute-force truth-table
//! comparison on every netlist the pipeline can produce — all three
//! operators, widths 2–6 (where enumeration stays tractable), both
//! signednesses — including mutated netlists (a genuine `Differs`
//! witness) and digest invariance under dead-node padding and gate
//! reordering — plus, at the paper's width 8, digest equality exactly
//! when the truth tables are equal.

use apx_arith::Operator;
use apx_cgp::{Chromosome, FunctionSet};
use apx_gates::{GateKind, Netlist, Node, SignalId};
use apx_rng::Xoshiro256;
use apx_verify::{functional_digest, prove_equiv, Equiv};
use proptest::prelude::*;

/// The full truth table of a netlist: one output-word row per input
/// assignment, in assignment order.
fn truth_table(nl: &Netlist) -> Vec<u64> {
    let ni = nl.num_inputs();
    assert!(ni <= 16, "truth tables are only enumerable at small arity");
    (0..(1u64 << ni))
        .map(|x| {
            let assign: Vec<bool> = (0..ni).map(|i| (x >> i) & 1 == 1).collect();
            nl.eval_bool(&assign).iter().enumerate().map(|(j, &b)| u64::from(b) << j).sum()
        })
        .collect()
}

/// A random CGP netlist with the operator's component arity.
fn random_component(op: Operator, width: u32, seed: u64) -> Netlist {
    let mut rng = Xoshiro256::from_seed(seed);
    let c = Chromosome::random(
        op.num_inputs(width),
        op.num_outputs(width),
        24,
        &FunctionSet::extended(),
        &mut rng,
    );
    c.decode_active()
}

/// `nl` with `extra` dead gates appended — same function, different
/// structure.
fn with_dead_padding(nl: &Netlist, extra: usize) -> Netlist {
    let ni = nl.num_inputs();
    let mut nodes = nl.nodes().to_vec();
    for k in 0..extra {
        let a = SignalId((k % ni) as u32);
        nodes.push(Node { kind: GateKind::Xor, a, b: a });
    }
    Netlist::new(ni, nodes, nl.outputs().to_vec()).expect("padding preserves validity")
}

/// Re-derives `nl` through a chromosome re-encoding on a wider grid —
/// the library's own normalization path, which renumbers gates. The
/// function is untouched; the gate list is reordered/padded.
fn reencoded(nl: &Netlist, extra_cols: usize) -> Option<Netlist> {
    let funcs = FunctionSet::extended();
    let c = Chromosome::from_netlist(nl, &funcs, nl.gate_count() + extra_cols).ok()?;
    Some(c.decode_full())
}

/// The `(op, width)` grid with enumerable truth tables (≤ 14 input
/// bits): `Mul`/`Add` at widths 2–6, `Mac` at 2–3.
fn enumerable_grid() -> Vec<(Operator, u32)> {
    let mut grid = Vec::new();
    for op in Operator::ALL {
        for width in 2..=6u32 {
            if op.num_inputs(width) <= 14 {
                grid.push((op, width));
            }
        }
    }
    grid
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prove_equiv_agrees_with_truth_tables(seed in any::<u64>()) {
        // Across the whole enumerable grid: the BDD verdict between the
        // exact seed circuit and a random CGP netlist of the same arity
        // must match brute-force table comparison, and a `Differs`
        // witness must actually separate the two netlists.
        for (op, width) in enumerable_grid() {
            for signed in [false, true] {
                let exact = op.seed_circuit(width, signed);
                let other = random_component(op, width, seed ^ u64::from(width) << 8);
                let equal = truth_table(&exact) == truth_table(&other);
                match prove_equiv(&exact, &other, op, width) {
                    Equiv::Equal => prop_assert!(equal, "{op} w{width}: false Equal"),
                    Equiv::Differs { witness } => {
                        prop_assert!(!equal, "{op} w{width}: false Differs");
                        prop_assert!(
                            exact.eval_bool(&witness) != other.eval_bool(&witness),
                            "{op} w{width}: witness does not separate the netlists"
                        );
                    }
                    Equiv::Unknown { .. } => {
                        prop_assert!(false, "{op} w{width}: tiny netlists never exhaust the budget");
                    }
                }
                // The digest is exactly as discriminating as the tables.
                prop_assert_eq!(
                    functional_digest(&exact) == functional_digest(&other),
                    equal,
                    "{} w{} signed={}: digest disagrees with truth tables", op, width, signed
                );
            }
        }
    }

    #[test]
    fn mutated_netlists_are_caught_with_a_witness(
        seed in any::<u64>(),
        bit in 0usize..4,
    ) {
        // A single-output truncation is the canonical approximate
        // mutation: `prove_equiv` must refute it and hand back a
        // concrete separating assignment.
        for (op, width) in enumerable_grid() {
            let exact = op.seed_circuit(width, false);
            let target = bit % exact.num_outputs();
            let mut nodes = exact.nodes().to_vec();
            let zero = SignalId((exact.num_inputs() + nodes.len()) as u32);
            nodes.push(Node { kind: GateKind::Const0, a: SignalId(0), b: SignalId(0) });
            let mut outputs = exact.outputs().to_vec();
            outputs[target] = zero;
            let broken = Netlist::new(exact.num_inputs(), nodes, outputs).unwrap();
            if truth_table(&exact) == truth_table(&broken) {
                // The truncated plane was constant-0 already (e.g. a MSB
                // that never fires): genuinely equivalent, not a bug.
                prop_assert_eq!(prove_equiv(&exact, &broken, op, width), Equiv::Equal);
                continue;
            }
            match prove_equiv(&exact, &broken, op, width) {
                Equiv::Differs { witness } => {
                    prop_assert_ne!(exact.eval_bool(&witness), broken.eval_bool(&witness));
                }
                other => prop_assert!(false, "{op} w{width}: expected Differs, got {other:?}"),
            }
            prop_assert_ne!(functional_digest(&exact), functional_digest(&broken));
            let _ = seed; // width/op grid already varies the fixture
        }
    }

    #[test]
    fn digest_is_invariant_under_padding_and_reordering(
        seed in any::<u64>(),
        extra in 1usize..=12,
    ) {
        // Dead-node padding and the chromosome re-encoding round trip
        // (which renumbers and pads the gate list) must never move the
        // digest; truth tables confirm the function really is unchanged.
        for (op, width) in enumerable_grid() {
            let nl = random_component(op, width, seed ^ u64::from(width));
            let digest = functional_digest(&nl);
            prop_assert!(digest.is_some(), "{op} w{width}: tiny netlists fit the budget");
            let padded = with_dead_padding(&nl, extra);
            prop_assert_eq!(truth_table(&nl), truth_table(&padded));
            prop_assert_eq!(functional_digest(&padded), digest, "{} w{}: padding", op, width);
            if let Some(re) = reencoded(&nl, extra) {
                prop_assert_eq!(truth_table(&nl), truth_table(&re));
                prop_assert_eq!(functional_digest(&re), digest, "{} w{}: re-encoding", op, width);
            }
        }
    }
}

/// Whether two netlists of the same arity compute the same function,
/// by brute force over every input assignment (stopping at the first
/// difference).
fn same_function(a: &Netlist, b: &Netlist) -> bool {
    let ni = a.num_inputs();
    (0..(1u64 << ni)).all(|x| {
        let assign: Vec<bool> = (0..ni).map(|i| (x >> i) & 1 == 1).collect();
        a.eval_bool(&assign) == b.eval_bool(&assign)
    })
}

/// `nl` with gate `k` switched to another two-input kind: a one-gate
/// mutant that may or may not change the function.
fn regated(nl: &Netlist, k: usize) -> Netlist {
    let mut nodes = nl.nodes().to_vec();
    nodes[k].kind = match nodes[k].kind {
        GateKind::And => GateKind::Or,
        GateKind::Or => GateKind::Xor,
        GateKind::Xor => GateKind::Xnor,
        _ => GateKind::And,
    };
    Netlist::new(nl.num_inputs(), nodes, nl.outputs().to_vec()).expect("same wiring stays valid")
}

#[test]
fn width8_digests_are_equal_exactly_when_truth_tables_are() {
    // At width 8 the digest is the truth-table form; functions are
    // compared here by brute force through `eval_bool`, independent of
    // the 64-lane simulator the digest streams from. The exact seed and a random
    // CGP phenotype each keep their digest under padding and re-encoding,
    // and every one-gate mutant gets a different digest exactly when it
    // computes a different function.
    let (op, width) = (Operator::Mul, 8);
    let mut changed = 0usize;
    for nl in [op.seed_circuit(width, false), random_component(op, width, 0x5EED_0008)] {
        let digest = functional_digest(&nl);
        assert!(digest.is_some(), "enumerable netlists always get a digest");
        let padded = with_dead_padding(&nl, 9);
        assert_eq!(functional_digest(&padded), digest, "padding");
        let re = reencoded(&nl, 9).expect("the extended set covers every gate kind");
        assert!(same_function(&re, &nl));
        assert_eq!(functional_digest(&re), digest, "re-encoding");
        let active = nl.active_mask();
        let gates: Vec<usize> =
            (0..nl.gate_count()).filter(|&k| active[nl.num_inputs() + k]).collect();
        for &k in gates.iter().step_by(gates.len().div_ceil(6)) {
            let mutant = regated(&nl, k);
            let same = same_function(&mutant, &nl);
            changed += usize::from(!same);
            assert_eq!(functional_digest(&mutant) == digest, same, "gate {k}");
        }
    }
    assert!(changed > 0, "no mutant changed the function");
}
