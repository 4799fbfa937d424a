//! Cross-validation of the static WMED brackets against the exhaustive
//! evaluator: on every `(operator, width, signedness, distribution)`
//! cell of the grid, the bracket must contain the evaluator's reported
//! WMED bit-for-bit-as-computed — for exact seeds, conventional
//! approximations, random CGP circuits and degenerate constants alike.
//! The exact ranges the brackets are sharpened with come from exhaustive
//! simulation at these widths; they are held against the BDD range pass
//! here and on library-scale width-8 multipliers.

use apx_approxlib::MultiplierLibrary;
use apx_arith::Operator;
use apx_cgp::{mutate, Chromosome, FunctionSet};
use apx_dist::Pmf;
use apx_gates::{Netlist, NetlistBuilder};
use apx_metrics::CircuitEvaluator;
use apx_rng::Xoshiro256;
use apx_verify::{
    output_ranges, wmed_bounds, wmed_bounds_ternary, wmed_bounds_weighted, BracketProfile,
    SEMANTIC_NODE_BUDGET,
};

/// A constant-zero netlist with the operator's exact arity.
fn constant_zero(op: Operator, width: u32) -> Netlist {
    let mut b = NetlistBuilder::new(op.num_inputs(width));
    let zero = b.const0();
    b.outputs(&vec![zero; op.num_outputs(width)]);
    b.finish().unwrap()
}

/// The candidate pool for one grid cell: exact seed, constants, random
/// CGP phenotypes, plus the conventional approximations where the
/// encoding has a family.
fn candidates(op: Operator, width: u32, signed: bool) -> Vec<Netlist> {
    let mut pool = vec![op.seed_circuit(width, signed), constant_zero(op, width)];
    let funcs = FunctionSet::extended();
    for seed in 0..4u64 {
        let mut rng = Xoshiro256::from_seed(0xB0D5 ^ seed ^ (u64::from(width) << 32));
        let c =
            Chromosome::random(op.num_inputs(width), op.num_outputs(width), 30, &funcs, &mut rng);
        pool.push(c.decode_active());
    }
    if op == Operator::Mul && !signed {
        for k in 1..width.min(4) {
            pool.push(apx_arith::truncated_multiplier(width, k));
        }
        if width >= 3 {
            pool.push(apx_arith::broken_array_multiplier(width, width, width));
        }
    }
    if op == Operator::Add && !signed {
        for k in 1..width {
            pool.push(apx_arith::lower_or_adder(width, k));
            pool.push(apx_arith::truncated_adder(width, k));
        }
    }
    pool
}

#[test]
fn brackets_contain_the_exhaustive_wmed_across_the_grid() {
    for op in Operator::ALL {
        for width in 2..=6u32 {
            if !op.supports_exhaustive_width(width) {
                continue;
            }
            for signed in [false, true] {
                let pmfs = [Pmf::uniform(width), Pmf::half_normal(width, f64::from(width) * 1.5)];
                for pmf in &pmfs {
                    let evaluator = CircuitEvaluator::for_operator(op, width, signed, pmf).unwrap();
                    for (i, nl) in candidates(op, width, signed).iter().enumerate() {
                        let wmed = evaluator.stats(nl).wmed;
                        let bounds = wmed_bounds(nl, op, width, signed, pmf);
                        assert!(
                            bounds.wmed_lo <= bounds.wmed_hi,
                            "{op} w={width} signed={signed} cand={i}: inverted {bounds:?}"
                        );
                        assert!(
                            bounds.contains(wmed),
                            "{op} w={width} signed={signed} cand={i}: \
                             wmed {wmed} outside {bounds:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn brackets_contain_the_wmed_under_measured_distributions() {
    // A lumpy measured PMF (many zero-weight operands) exercises the
    // weight-skipping fast path.
    let samples: Vec<i64> = (0..200).map(|i| i64::from(i % 5)).collect();
    let pmf = Pmf::from_samples_i64(4, &samples, false).unwrap();
    let op = Operator::Mul;
    let evaluator = CircuitEvaluator::for_operator(op, 4, false, &pmf).unwrap();
    for nl in candidates(op, 4, false) {
        let wmed = evaluator.stats(&nl).wmed;
        let bounds = wmed_bounds(&nl, op, 4, false, &pmf);
        assert!(bounds.contains(wmed), "wmed {wmed} outside {bounds:?}");
    }
}

#[test]
fn exact_brackets_are_never_wider_than_ternary_and_sometimes_strictly_tighter() {
    // The exact-range pass ([`apx_verify::output_ranges`]) may only
    // *shrink* the ternary bracket: on every cell of the same grid as
    // the containment test, the default bracket must be a sub-interval
    // of the ternary-only one — and on at least one fixture it must be
    // strictly tighter, or the pass is dead weight.
    let mut strictly_tighter = 0usize;
    for op in Operator::ALL {
        for width in 2..=6u32 {
            if !op.supports_exhaustive_width(width) {
                continue;
            }
            for signed in [false, true] {
                let pmfs = [Pmf::uniform(width), Pmf::half_normal(width, f64::from(width) * 1.5)];
                for pmf in &pmfs {
                    for (i, nl) in candidates(op, width, signed).iter().enumerate() {
                        let exact = wmed_bounds(nl, op, width, signed, pmf);
                        let ternary = wmed_bounds_ternary(nl, op, width, signed, pmf);
                        assert!(
                            exact.wmed_lo >= ternary.wmed_lo && exact.wmed_hi <= ternary.wmed_hi,
                            "{op} w={width} signed={signed} cand={i}: exact bracket {exact:?} \
                             escapes ternary {ternary:?}"
                        );
                        if exact.wmed_lo > ternary.wmed_lo || exact.wmed_hi < ternary.wmed_hi {
                            strictly_tighter += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(
        strictly_tighter > 0,
        "the exact range pass never improved a single bracket across the whole grid"
    );
}

#[test]
fn tight_brackets_separate_clearly_different_candidates() {
    // The pruning use case: a candidate whose *lower* bound exceeds
    // another's *upper* bound is provably worse — check the brackets are
    // tight enough to make that separation on constant circuits.
    let op = Operator::Mul;
    let width = 4u32;
    let pmf = Pmf::uniform(width);
    let zero = constant_zero(op, width);
    let mut b = NetlistBuilder::new(op.num_inputs(width));
    let one = b.const1();
    b.outputs(&vec![one; op.num_outputs(width)]);
    let ones = b.finish().unwrap();

    let bz = wmed_bounds(&zero, op, width, false, &pmf);
    let bo = wmed_bounds(&ones, op, width, false, &pmf);
    assert!(
        bz.wmed_hi < bo.wmed_lo,
        "all-ones must be provably worse than all-zeros under uniform inputs: {bz:?} vs {bo:?}"
    );
}

/// Width-8 unsigned multipliers at library scale: every EvoApprox-like
/// entry, then 24 CGP netlists — 12 random phenotypes and 12 point
/// mutants of the exact seed, the shape evolved candidates take.
fn width8_multipliers() -> Vec<(String, Netlist)> {
    let (op, width) = (Operator::Mul, 8);
    let (ni, no) = (op.num_inputs(width), op.num_outputs(width));
    let funcs = FunctionSet::extended();
    let mut pool: Vec<(String, Netlist)> = MultiplierLibrary::evoapprox_like(width)
        .iter()
        .map(|e| (e.name.clone(), e.netlist.clone()))
        .collect();
    let seed = op.seed_circuit(width, false);
    for r in 0..12u64 {
        let mut rng = Xoshiro256::from_seed(0xE8A8 ^ r);
        let random = Chromosome::random(ni, no, 60, &funcs, &mut rng).decode_active();
        pool.push((format!("cgp_random{r}"), random));
        let mut c = Chromosome::from_netlist(&seed, &funcs, seed.gate_count() + 20).unwrap();
        mutate(&mut c, 4, &mut rng);
        pool.push((format!("cgp_mutant{r}"), c.decode_active()));
    }
    pool
}

#[test]
fn enumerated_ranges_match_the_bdd_reference() {
    // Every profile at these widths takes its exact ranges from one
    // exhaustive simulation; the BDD range pass under the full semantic
    // budget is the independent reference they must equal entry for
    // entry, in biased space for both encodings.
    for op in Operator::ALL {
        for width in 2..=6u32 {
            if !op.supports_exhaustive_width(width) {
                continue;
            }
            for signed in [false, true] {
                for (i, nl) in candidates(op, width, signed).iter().enumerate() {
                    let profile = BracketProfile::new(nl, op, width, signed);
                    let reference = output_ranges(nl, op, width, signed, SEMANTIC_NODE_BUDGET);
                    assert!(reference.is_some(), "{op} w={width} cand={i}: fits the budget");
                    assert_eq!(
                        profile.ranges(),
                        reference.as_deref(),
                        "{op} w={width} signed={signed} cand={i}"
                    );
                }
            }
        }
    }
    let (op, width) = (Operator::Mul, 8);
    let pool = width8_multipliers();
    assert!(pool.len() >= 40, "the EvoApprox-like set plus 24 CGP netlists");
    for (name, nl) in &pool {
        let profile = BracketProfile::new(nl, op, width, false);
        let reference = output_ranges(nl, op, width, false, SEMANTIC_NODE_BUDGET);
        assert!(reference.is_some(), "{name}: fits the budget");
        assert_eq!(profile.ranges(), reference.as_deref(), "{name}");
    }
}

#[test]
fn width8_profiles_and_one_shot_brackets_agree_bit_for_bit() {
    // The library reads brackets from cached profiles, the benchmark
    // probes and outside callers from the one-shot wrappers: at the
    // paper's width both must give the same bits, and contain the
    // evaluator's WMED.
    let (op, width) = (Operator::Mul, 8);
    let pmfs = [Pmf::uniform(width), Pmf::half_normal(width, 40.0)];
    let evaluators: Vec<CircuitEvaluator> =
        pmfs.iter().map(|p| CircuitEvaluator::for_operator(op, width, false, p).unwrap()).collect();
    for (name, nl) in &width8_multipliers() {
        let profile = BracketProfile::new(nl, op, width, false);
        for (pmf, evaluator) in pmfs.iter().zip(&evaluators) {
            let weights: Vec<f64> = pmf.iter().collect();
            let shared = profile.bounds(&weights);
            let one_shot = wmed_bounds_weighted(nl, op, width, false, &weights);
            assert_eq!(
                [shared.wmed_lo.to_bits(), shared.wmed_hi.to_bits()],
                [one_shot.wmed_lo.to_bits(), one_shot.wmed_hi.to_bits()],
                "{name}"
            );
            let wmed = evaluator.stats(nl).wmed;
            assert!(shared.contains(wmed), "{name}: wmed {wmed} outside {shared:?}");
        }
    }
}
