//! Pins the DSPN engine bit for bit on the sixteen `dspn-sweep` cases: the
//! paper's Fig. 2 and Fig. 3 nets for n = 1..8 modules, reactive and
//! proactive, with Table IV parameters and Erlang-16 clock expansion.
//!
//! For each case two FNV-1a hashes are pinned:
//!
//! * over the reachability graph: every marking, every edge's target and
//!   rate bits, and the initial distribution's bits;
//! * over the solution: every stationary probability's bits, the bits of
//!   `E[R]`, and the `SolutionInfo` state count, backend and residual bits.
//!
//! On the paper's nets, reversing the order in which a target's rates or a
//! marking's probabilities are added, or interning a vanishing distribution
//! unsorted, happens not to change a bit. A small net built to depend on
//! each of these orders is pinned the same way, so that any of them
//! changes its hashes.

use mvml_core::dspn::{
    expected_system_reliability_with_info, reactive_only, with_proactive, SolveOptions,
};
use mvml_core::SystemParams;
use mvml_petri::reach::{explore, ReachOptions, ReachabilityGraph};
use mvml_petri::solve::{solve_graph, Solution};
use mvml_petri::{erlang_expand, Net, NetBuilder, SolutionMethod, SolverOptions};

/// `(n, proactive, tangible states, graph hash, solution hash)`.
const PINNED: [(u32, bool, usize, u64, u64); 16] = [
    (1, false, 3, 0xfc049690386020ce, 0x2ec5b52478a5b134),
    (1, true, 80, 0x0eb5746dbc2bd62d, 0x78a36959e83a2d2a),
    (2, false, 6, 0x143567a855fc2b01, 0xa52a69b1236d1244),
    (2, true, 192, 0xb1da936b936a7ad2, 0xc9ca019435e90cd3),
    (3, false, 10, 0x690bc3125be051df, 0x081c6aedc3c1cf6f),
    (3, true, 352, 0xfa1454f7be2b6470, 0x974474e787d97a83),
    (4, false, 15, 0x1e26a6febb34ac97, 0x40e79d416a21f705),
    (4, true, 560, 0x47b4bbb09771b482, 0xde3a0fbaed3449ac),
    (5, false, 21, 0x178120aa8c40eebe, 0x0e32bf6d915b94e4),
    (5, true, 816, 0x37060d6d5f43ceb5, 0xd4dcb31b5d6ed13d),
    (6, false, 28, 0xe9444daec11a91f9, 0x799632dca2a41407),
    (6, true, 1120, 0x79f43bac7979ebcf, 0x847ad717158f6491),
    (7, false, 36, 0x43827cdd77afe4bb, 0xed9988e5bb582910),
    (7, true, 1472, 0x6a44d3323b3915f9, 0x150ecd5c3e983ee0),
    (8, false, 45, 0x986cd95442a34d27, 0xa81aabac9d27943f),
    (8, true, 1872, 0x61386aaec5d81ba5, 0x3fdace2f102fc2f0),
];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The `(target, rate)` edges leaving state `s`, in stored order.
fn out_edges(g: &ReachabilityGraph, s: usize) -> Vec<(usize, f64)> {
    g.edges.row(s).collect()
}

fn graph_hash(g: &ReachabilityGraph) -> u64 {
    let mut h = Fnv::new();
    h.word(g.state_count() as u64);
    for m in &g.markings {
        h.word(m.len() as u64);
        for &t in m.as_slice() {
            h.word(u64::from(t));
        }
    }
    for s in 0..g.state_count() {
        let edges = out_edges(g, s);
        h.word(edges.len() as u64);
        for (target, rate) in edges {
            h.word(target as u64);
            h.word(rate.to_bits());
        }
    }
    h.word(g.initial.len() as u64);
    for &(s, p) in &g.initial {
        h.word(s as u64);
        h.word(p.to_bits());
    }
    h.0
}

/// Hashes the stationary probabilities into `h`.
#[allow(clippy::expect_used)] // test harness
fn hash_probabilities(h: &mut Fnv, solution: &Solution) {
    let steady = solution.steady_state().expect("analytic backend");
    h.word(steady.state_count() as u64);
    for (_, p) in steady.iter() {
        h.word(p.to_bits());
    }
}

/// A net whose graph depends on every order the explorer keeps: the first
/// state's edge to `t` adds 0.1, 0.2 and 0.15 (another order rounds
/// differently), `v4` resolves to two new markings whose marking order is
/// the reverse of their firing order, and `q`'s probability adds 1/7, 2/7
/// and 3/7 (likewise order-sensitive).
#[allow(clippy::unwrap_used)] // test harness
fn order_sensitive() -> Net {
    let mut b = NetBuilder::new("order-sensitive");
    let [s, v2, v3, v4, t, p, q, x] = ["s", "v2", "v3", "v4", "t", "p", "q", "x"]
        .map(|name| b.place(name, u32::from(name == "s")));
    let mut timed = |name: &str, from, to, rate: f64| {
        let tr = b.exponential(name, rate);
        b.input_arc(from, tr, 1).unwrap();
        b.output_arc(tr, to, 1).unwrap();
    };
    timed("a1", s, t, 0.1);
    timed("a2", s, v2, 0.2);
    timed("a3", s, v3, 0.3);
    timed("a4", s, v4, 0.7);
    for (name, from) in [("rt", t), ("rp", p), ("rq", q), ("rx", x)] {
        timed(name, from, s, 1.0);
    }
    for (name, from, to, w) in [
        ("i2", v2, t, 1.0),
        ("i3t", v3, t, 1.0),
        ("i3x", v3, x, 1.0),
        ("i4p", v4, p, 1.0),
        ("i4q1", v4, q, 1.0),
        ("i4q2", v4, q, 2.0),
        ("i4q3", v4, q, 3.0),
    ] {
        let tr = b.immediate_with(name, 1, w);
        b.input_arc(from, tr, 1).unwrap();
        b.output_arc(tr, to, 1).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn order_sensitive_graph_and_solution_are_pinned() {
    let graph = explore(&order_sensitive(), &ReachOptions::default()).expect("explores");
    let mut h = Fnv::new();
    for method in [SolutionMethod::Dense, SolutionMethod::GaussSeidel] {
        let solution = solve_graph(&graph, &method, &SolverOptions::default()).expect("solves");
        hash_probabilities(&mut h, &solution);
        h.word(solution.info().residual.to_bits());
    }
    let got = (graph.state_count(), graph_hash(&graph), h.0);
    let pinned = (5, 0x0ed3_1752_d7e6_28f8, 0x859c_3420_04cd_de4f);
    assert_eq!(
        got, pinned,
        "computed: ({}, {:#018x}, {:#018x})",
        got.0, got.1, got.2
    );
}

#[test]
fn sweep_graphs_and_solutions_are_pinned() {
    let params = SystemParams::paper_table_iv();
    let opts = SolveOptions {
        erlang_k: 16,
        ..SolveOptions::default()
    };
    let mut got = Vec::new();
    for &(n, proactive, ..) in &PINNED {
        let mv = if proactive {
            with_proactive(n, &params)
        } else {
            reactive_only(n, &params)
        }
        .expect("paper net builds");
        let net = if proactive {
            erlang_expand(&mv.net, opts.erlang_k).expect("clock expands")
        } else {
            mv.net
        };
        let graph = explore(&net, &opts.solver.reach).expect("explores");
        let solution = solve_graph(&graph, &opts.method, &opts.solver).expect("solves");
        let (value, info) =
            expected_system_reliability_with_info(n, proactive, &params, &opts).expect("solves");
        assert_eq!(info.states, solution.info().states);
        assert_eq!(info.backend, solution.info().backend);
        assert_eq!(info.residual.to_bits(), solution.info().residual.to_bits());

        let mut h = Fnv::new();
        hash_probabilities(&mut h, &solution);
        h.word(value.to_bits());
        h.word(info.states as u64);
        for b in info.backend.name().bytes() {
            h.word(u64::from(b));
        }
        h.word(info.residual.to_bits());
        got.push((n, proactive, graph.state_count(), graph_hash(&graph), h.0));
    }
    let table: String = got
        .iter()
        .map(|(n, p, s, g, v)| format!("    ({n}, {p}, {s}, {g:#018x}, {v:#018x}),\n"))
        .collect();
    assert_eq!(got, PINNED, "computed table:\n{table}");
    assert_eq!(got.iter().map(|c| c.2).sum::<usize>(), 6628);
}
