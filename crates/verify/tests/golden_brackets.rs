//! Golden WMED brackets: the `to_bits()` of `wmed_lo`/`wmed_hi` over a
//! grid of operators, widths, encodings, netlists and distributions,
//! pinned from the one-shot bracket pass as it stood before
//! [`BracketProfile`] existed. Both the public wrappers and profiles —
//! fresh, or reused across distributions in either order — must keep
//! reproducing them bit for bit, whether the exact ranges come from the
//! BDD range pass (as when the bits were pinned) or from exhaustive
//! simulation (as at these enumerable widths today).

use apx_arith::Operator;
use apx_cgp::{Chromosome, FunctionSet};
use apx_dist::Pmf;
use apx_gates::{GateKind, Netlist, Node, SignalId};
use apx_rng::Xoshiro256;
use apx_verify::{
    functional_digest, output_ranges, wmed_bounds, wmed_bounds_ternary, BracketProfile,
    ErrorBounds, SEMANTIC_NODE_BUDGET,
};

/// One line per grid netlist: label, then `lo hi` bit patterns under the
/// uniform, normal and lumpy distributions of [`pmfs`].
const GOLDEN: &str = "\
mul3u_trunc1 3f6fffffff768fa1 3fd3000000519ab9 3f6f21e5947c9e82 3fd046e8fef511c0 3f54c1bacf3825d0 3fd6cf914c7da5b9
mul3u_trunc2 3f89ffffff9054b3 3fd28800004f9754 3f89bb637ce8b1e2 3fcf984c1a41e124 3f8cc1bacf15c9b7 3fd60dd67ce9198d
mul3u_exact 0000000000000000 3fd340000052ad9a 0000000000000000 3fd0852cca2021d6 0000000000000000 3fd6e453074d902b
mul3u_rand0 3fc077ffffb9446b 3fd048000045ed6d 3fbfe0db64187cd9 3fd04b7254c7e8d0 3fc65f2297d74416 3fccb06eb45f8b20
mul3u_rand1 3fab1fffff8b7fbf 3fd7ac000065ab81 3fa4547e1b60a022 3fd726a328eb491d 3f9783759ebd9ad5 3fe0c306eb864303
mul3s_trunc1 3f6fffffff768fa1 3fc60000005e7d42 3f6f21e5947c9e82 3fc84758e139af07 3f54c1bacf3825d0 3fc54c1bad548d61
mul3s_trunc2 3f88ffffff94a036 3fc61000005ec1fa 3f88c93c7ed97bb9 3fc817d8519b31d6 3f8c8a60dced33fd 3fc60dd67ce9198e
mul3s_exact 0000000000000000 3fc60000005e7d42 0000000000000000 3fc872811c35a1b3 0000000000000000 3fc567c8a669c5fa
mul3s_rand0 3fcbefffff880265 3fd65000005fd4db 3fcbac76a908edd7 3fd67be924230fa0 3fd37c8a6089b62a 3fd6acf915231efb
mul3s_rand1 3f963fffffa06fde 3fd08c000047117c 3f9a77fd87646386 3fd0c0754b2c8d64 3f82298375512116 3fd29acf919c03ca
mul4u_trunc1 3f4fffffff768fa1 3fd58000005c5780 3f4fb07610533536 3fcf92f81e85dac1 3f43dcb08ce87c76 3fd8f1a7b9cc3caa
mul4u_trunc2 3f68ffffff94a036 3fd56080005bd036 3f68d89d876f1cc0 3fcf5353af4835e5 3f6cb08d3d4fd037 3fd8c469eec2a67e
mul4u_exact 0000000000000000 3fd59000005c9c39 0000000000000000 3fcfb2a894973e2d 0000000000000000 3fd8fb9612130638
mul4u_rand0 3fcb02ffff8bfc4d 3fde290000818972 3fc99e1f24652e3f 3fdea9670ad8c2d8 3fca9ec23484d6f9 3fe1038d3e141bc7
mul4u_rand1 3fc8917fff967ace 3fdaa64000727558 3fc4c7a54feedf9a 3fd93b3f775ac7c0 3fc50796114d670d 3fde22234ff42e2e
mul4s_trunc1 3f4fffffff768fa1 3fc700000062c8c5 3f4fb07610533536 3fcc1ccd771056ff 3f43dcb08ce87c76 3fc374f72c76e089
mul4s_trunc2 3f687fffff96c5f7 3fc701000062cd11 3f68910de1529911 3fcbfa027af71181 3f6c34f72baa29a3 3fc391a7b9b526cb
mul4s_exact 0000000000000000 3fc700000062c8c5 0000000000000000 3fcc3083d24ec340 0000000000000000 3fc36e5846f25a2a
mul4s_rand0 3fcd69ffff81aae6 3fd95400006cc892 3fcd44fb8564f95a 3fd9713711ac706d 3fc8b1a7b8f70b2f 3fd9ffb9618a25b6
mul4s_rand1 3fc35cffffacd5d9 3fd5db00005dde58 3fc09095b5bdb2fa 3fd70cae0b8686ba 3fbffb08d3535582 3fd62b72c2942f0a
add3u_trunc1 3f9fffffff768fa1 3fd60000005e7d42 3f9fffffff768fa1 3fd5f21e59ae66f2 3f9fffffff768f9f 3fd4a60dd6d539ce
add3u_trunc2 3fb0ffffffb6fc4e 3fd740000063dba6 3fb10c4ff8a16f4e 3fd7153a01753abc 3fb06eb3e40c7345 3fd860dd68315a5d
add3u_exact 0000000000000000 3fd60000005e7d42 0000000000000000 3fd60000005e7d43 0000000000000000 3fd60000005e7d41
add3u_rand0 3fbdffffff7f26a7 3fca80000071d110 3fba649be44cfc48 3fc8b1b5f0cbdd37 3fc0f229832cd6de 3fca759f2309dbd6
add3u_rand1 0000000000000000 3fe460000057828d 0000000000000000 3fe429416d42350a 0000000000000000 3fe433e4535db05a
add3s_trunc1 3f9fffffff768fa1 3fd60000005e7d42 3f9fffffff768fa1 3fd5f21e59ae66f2 3f9fffffff768f9f 3fd4a60dd6d539ce
add3s_trunc2 3fb0ffffffb6fc4e 3fd740000063dba6 3fb10c4ff8a16f4e 3fd7153a01753abc 3fb06eb3e40c7345 3fd860dd68315a5d
add3s_exact 0000000000000000 3fd60000005e7d42 0000000000000000 3fd60000005e7d43 0000000000000000 3fd60000005e7d41
add3s_rand0 3fd9ffffff9054b3 3fe000000044b830 3fd88ce41211439a 3fde8c8d366d21ea 3fdaa60dd60a15e0 3fdf83759fa9f1b0
add3s_rand1 0000000000000000 3fe460000057828d 0000000000000000 3fe49b2a5b0c3ba9 0000000000000000 3fe418375a4877c1
add4u_trunc1 3f8fffffff768fa1 3fd700000062c8c5 3f8fffffff768fa0 3fd6fd83b0e99897 3f8fffffff768fa1 3fd69ee584cb160f
add4u_trunc2 3fa07fffffb9220f 3fd750000064205e 3fa082b18151fae1 3fd7494bdb106c9d 3fa03dcb088e1b1a 3fd7d1a7b9c767b6
add4u_exact 0000000000000000 3fd700000062c8c5 0000000000000000 3fd700000062c8c5 0000000000000000 3fd700000062c8c4
add4u_rand0 3fc2c3ffffaf66fa 3fda6400007158cd 3fc3fa762bbe011f 3fdb2f6276632b48 3fbf11a7b8dba9cc 3fda272c23bfc64f
add4u_rand1 3fcaafffff8d60c9 3fdbfc0000783126 3fc38f237c15e772 3fd7a5a64e078c49 3fc7b72c22e99746 3fde18d3dd31d13a
add4s_trunc1 3f8fffffff768fa1 3fd700000062c8c5 3f8fffffff768fa0 3fd6fd83b0e99897 3f8fffffff768fa1 3fd69ee584cb160f
add4s_trunc2 3fa07fffffb9220f 3fd750000064205e 3fa082b18151fae1 3fd7494bdb106c9d 3fa03dcb088e1b1a 3fd7d1a7b9c767b6
add4s_exact 0000000000000000 3fd700000062c8c5 0000000000000000 3fd700000062c8c5 0000000000000000 3fd700000062c8c4
add4s_rand0 3fc40bffffa9e63a 3fdb24000074916f 3fc73158a3f05d84 3fdce334455702fe 3fc353dcb03a3ae3 3fdc608d3e44e9d9
add4s_rand1 3fc25fffffb11479 3fd7fc000067031a 3fbe998d8b954ba9 3fd5aa93394105c9 3fc2ac234f228fac 3fdba4f72c9a0aca
mac2u_trunc1 3f8fffffff768fa1 3fe700000062c8c5 3f8fffffff768fa1 3fe700000062c8c5 3f8fffffff768fa1 3fe700000062c8c5
mac2u_trunc2 3fa0ffffffb6fc4e 3fe61000005ec1fa 3fa0ffffffb6fc4e 3fe61000005ec1fa 3fa0ffffffb6fc4e 3fe61000005ec1fb
mac2u_exact 0000000000000000 3fe780000064ee86 0000000000000000 3fe780000064ee85 0000000000000000 3fe780000064ee88
mac2u_rand0 3f3fffffff768fa1 3fe740000063dba6 3f3ec00ca4596032 3fe7427fe71a2b7d 3f4b9611a742e5c0 3fe711a7b9c42f15
mac2u_rand1 3fc31fffffaddbd7 3fe14000004a1694 3fc31fffffaddbd7 3fe14000004a1694 3fc31fffffaddbd7 3fe14000004a1695
mac2s_trunc1 3f8fffffff768fa1 3fe700000062c8c5 3f8fffffff768fa1 3fe700000062c8c5 3f8fffffff768fa1 3fe700000062c8c5
mac2s_trunc2 3fa0ffffffb6fc4e 3fe61000005ec1fa 3fa0ffffffb6fc4e 3fe61000005ec1fa 3fa0ffffffb6fc4e 3fe61000005ec1fb
mac2s_exact 0000000000000000 3fe780000064ee86 0000000000000000 3fe780000064ee85 0000000000000000 3fe780000064ee88
mac2s_rand0 3f3fffffff768fa1 3fe740000063dba6 3f3ec00ca4596032 3fe7427fe71a2b7d 3f4b9611a742e5c0 3fe711a7b9c42f15
mac2s_rand1 3fc11fffffb672dd 3fe0c0000047f0d2 3fc11fffffb672dd 3fe0c0000047f0d2 3fc11fffffb672de 3fe0c0000047f0d2
mac3u_trunc1 3f6fffffff768fa1 3fe7c00000660167 3f6fffffff768fa1 3fe7c00000660167 3f6fffffff768f9f 3fe7c00000660166
mac3u_trunc2 3f803fffffba34f0 3fe781000064f2d2 3f803fffffba34f0 3fe781000064f2d1 3f803fffffba34f0 3fe781000064f2d2
mac3u_exact 0000000000000000 3fe7e00000668ad8 0000000000000000 3fe7e00000668ad8 0000000000000000 3fe7e00000668ad7
mac3u_rand0 3fc475ffffa81ef6 3fe16480004ab358 3fc47357cec08185 3fe1640689d82e95 3fc433c8a5b711d8 3fe158acf95f4249
mac3u_rand1 0000000000000000 3fe7e00000668ad8 0000000000000000 3fe7e00000668ad8 0000000000000000 3fe7e00000668ad7
mac3s_trunc1 3f6fffffff768fa1 3fe7c00000660167 3f6fffffff768fa1 3fe7c00000660167 3f6fffffff768f9f 3fe7c00000660166
mac3s_trunc2 3f803fffffba34f0 3fe781000064f2d2 3f803fffffba34f0 3fe781000064f2d1 3f803fffffba34f0 3fe781000064f2d2
mac3s_exact 0000000000000000 3fe7e00000668ad8 0000000000000000 3fe7e00000668ad8 0000000000000000 3fe7e00000668ad7
mac3s_rand0 3fc175ffffb5017f 3fe0a48000477ab6 3fc176d038794bd2 3fe0a4e4a43ff757 3fc18a4530235e54 3fe0ae4c1bf49dde
mac3s_rand1 3f61ffffffb2b0cb 3fe6e800006261b1 3f61ffffffb2b0cb 3fe6e800006261b1 3f61ffffffb2b0ca 3fe6e800006261b0
";

/// Ties the `k` least-significant output bits to constant zero — a
/// truncation any operator and encoding admits.
fn truncate_low(nl: &Netlist, k: usize) -> Netlist {
    let mut nodes = nl.nodes().to_vec();
    let zero = SignalId((nl.num_inputs() + nodes.len()) as u32);
    nodes.push(Node { kind: GateKind::Const0, a: SignalId(0), b: SignalId(0) });
    let mut outputs = nl.outputs().to_vec();
    outputs[..k].fill(zero);
    Netlist::new(nl.num_inputs(), nodes, outputs).expect("truncation preserves validity")
}

/// A lumpy PMF: every third code has zero weight, the rest uneven
/// weights plus one heavy spike near the top of the range.
fn lumpy(width: u32) -> Pmf {
    let n = 1usize << width;
    let weights = (0..n)
        .map(|x| match x {
            _ if x % 3 == 1 => 0.0,
            _ if x == n - 2 => 20.0,
            _ => ((x * 5 + 3) % 7 + 1) as f64,
        })
        .collect();
    Pmf::from_weights(width, weights).expect("a nonempty support")
}

/// The three distributions every grid cell is bracketed under.
fn pmfs(width: u32) -> [Pmf; 3] {
    let n = f64::from(1u32 << width);
    [Pmf::uniform(width), Pmf::normal(width, n / 3.0, 1.0 + f64::from(width) / 2.0), lumpy(width)]
}

/// Labelled netlists of the grid: per `(operator, width, signedness)`
/// cell the exact seed, two truncations and two random CGP phenotypes.
fn grid() -> Vec<(String, Operator, u32, bool, Netlist)> {
    let funcs = FunctionSet::extended();
    let mut out = Vec::new();
    for (op, width) in [
        (Operator::Mul, 3),
        (Operator::Mul, 4),
        (Operator::Add, 3),
        (Operator::Add, 4),
        (Operator::Mac, 2),
        (Operator::Mac, 3),
    ] {
        for signed in [false, true] {
            let tag = format!("{op}{width}{}", if signed { 's' } else { 'u' });
            let seed = op.seed_circuit(width, signed);
            let (ni, no) = (op.num_inputs(width), op.num_outputs(width));
            out.push((format!("{tag}_trunc1"), op, width, signed, truncate_low(&seed, 1)));
            out.push((format!("{tag}_trunc2"), op, width, signed, truncate_low(&seed, 2)));
            out.push((format!("{tag}_exact"), op, width, signed, seed));
            for r in 0..2u64 {
                let mut rng = Xoshiro256::from_seed(0x601D ^ (r << 8) ^ u64::from(width));
                let nl = Chromosome::random(ni, no, 30, &funcs, &mut rng).decode_active();
                out.push((format!("{tag}_rand{r}"), op, width, signed, nl));
            }
        }
    }
    out
}

fn bits(b: ErrorBounds) -> [u64; 2] {
    [b.wmed_lo.to_bits(), b.wmed_hi.to_bits()]
}

fn golden() -> Vec<(String, Vec<u64>)> {
    GOLDEN
        .lines()
        .map(|line| {
            let mut fields = line.split_whitespace();
            let label = fields.next().expect("a label").to_string();
            let values = fields.map(|h| u64::from_str_radix(h, 16).expect("hex bits")).collect();
            (label, values)
        })
        .collect()
}

#[test]
fn brackets_match_the_pinned_bits() {
    let golden = golden();
    let grid = grid();
    assert_eq!(golden.len(), grid.len(), "one golden line per grid netlist");
    for ((label, op, width, signed, nl), (want_label, want)) in grid.into_iter().zip(golden) {
        assert_eq!(label, want_label);
        let pmfs = pmfs(width);
        let weights: Vec<Vec<f64>> = pmfs.iter().map(|p| p.iter().collect()).collect();
        let wrapper: Vec<u64> =
            pmfs.iter().flat_map(|p| bits(wmed_bounds(&nl, op, width, signed, p))).collect();
        assert_eq!(wrapper, want, "{label}: wmed_bounds");
        // One profile per distribution, then one profile reused across
        // all three in forward and in reverse order: cached rows must
        // not depend on which distribution filled them.
        let fresh: Vec<u64> = weights
            .iter()
            .flat_map(|w| bits(BracketProfile::new(&nl, op, width, signed).bounds(w)))
            .collect();
        assert_eq!(fresh, want, "{label}: fresh profiles");
        let shared = BracketProfile::new(&nl, op, width, signed);
        let forward: Vec<u64> = weights.iter().flat_map(|w| bits(shared.bounds(w))).collect();
        assert_eq!(forward, want, "{label}: reused profile");
        let reverse = BracketProfile::new(&nl, op, width, signed);
        let mut backward: Vec<[u64; 2]> =
            weights.iter().rev().map(|w| bits(reverse.bounds(w))).collect();
        backward.reverse();
        assert_eq!(backward.concat(), want, "{label}: reused profile, reverse order");
        assert_eq!(shared.digest(), functional_digest(&nl), "{label}: digest");
        let reference = output_ranges(&nl, op, width, signed, SEMANTIC_NODE_BUDGET);
        assert!(reference.is_some(), "{label}: grid netlists fit the BDD budget");
        assert_eq!(shared.ranges(), reference.as_deref(), "{label}: enumerated ranges");
    }
}

/// A PMF with weight on a few scattered operand values only, so a
/// bracket at a wide width fills just a few `2^free`-term rows.
fn spikes(width: u32) -> Pmf {
    let n = 1usize << width;
    let mut weights = vec![0.0; n];
    for (x, w) in [(3, 1.0), (1000, 2.0), (40_000, 3.0), (n - 1, 4.0)] {
        weights[x] = w;
    }
    Pmf::from_weights(width, weights).expect("a nonempty support")
}

#[test]
fn range_budget_exhaustion_keeps_the_ternary_bracket_and_the_digest() {
    // A 16-bit ripple adder is past the evaluator's enumeration cap, so
    // it is analysed on BDDs: under the input-index variable order its
    // planes (about 721k nodes) outgrow the bracket pass's range budget
    // but fit the semantic digest budget. The profile must keep the
    // ternary-only bracket and still carry the digest. The bits were
    // pinned while every width was analysed on BDDs.
    let (op, width) = (Operator::Add, 16);
    let nl = op.seed_circuit(width, false);
    let pmf = spikes(width);
    let weights: Vec<f64> = pmf.iter().collect();
    let profile = BracketProfile::new(&nl, op, width, false);
    let digest = profile.digest();
    assert!(digest.is_some(), "the digest budget must not run out");
    assert_eq!(digest, functional_digest(&nl));
    assert_eq!(profile.ranges(), None, "the range budget must run out");
    let want = [0x0000000000000000, 0x3fe6cf612143918c];
    assert_eq!(bits(profile.bounds(&weights)), want);
    assert_eq!(bits(wmed_bounds(&nl, op, width, false, &pmf)), want);
    assert_eq!(bits(wmed_bounds_ternary(&nl, op, width, false, &pmf)), want);
}

#[test]
fn enumerable_widths_always_get_the_exact_range_bracket() {
    // A 9-bit array multiplier's planes outgrow the BDD range budget, so
    // while every width was analysed on BDDs it kept the ternary bracket
    // (the `ternary` bits below). Its exhaustive simulation has no
    // budget: the exact ranges always exist, equal the BDD reference,
    // and give a bracket inside the ternary one.
    let (op, width) = (Operator::Mul, 9);
    let nl = op.seed_circuit(width, false);
    let pmf = Pmf::uniform(width);
    let weights: Vec<f64> = pmf.iter().collect();
    let profile = BracketProfile::new(&nl, op, width, false);
    assert_eq!(profile.digest(), functional_digest(&nl));
    let reference = output_ranges(&nl, op, width, false, SEMANTIC_NODE_BUDGET);
    assert!(reference.is_some(), "the semantic budget admits a 9-bit multiplier");
    assert_eq!(profile.ranges(), reference.as_deref());
    let ternary = wmed_bounds_ternary(&nl, op, width, false, &pmf);
    assert_eq!(bits(ternary), [0x0000000000000000, 0x3fe47f28b5920861]);
    let want = [0x0000000000000000, 0x3fd7ec040066be73];
    let exact = profile.bounds(&weights);
    assert_eq!(bits(exact), want);
    assert_eq!(bits(wmed_bounds(&nl, op, width, false, &pmf)), want);
    assert!(exact.wmed_lo >= ternary.wmed_lo && exact.wmed_hi < ternary.wmed_hi);
}
