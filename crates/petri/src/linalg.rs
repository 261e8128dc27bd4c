//! Small linear-algebra helpers for steady-state solution.
//!
//! Two solvers are provided for the global balance equations `πQ = 0`,
//! `Σπ = 1` of an ergodic CTMC:
//!
//! * [`solve_dense`] — exact Gaussian elimination with partial pivoting on
//!   the transposed generator; used for small chains and as the ground truth
//!   in tests.
//! * [`solve_gauss_seidel`] — sparse Gauss–Seidel sweeps; used for the
//!   Erlang-expanded rejuvenation models whose state spaces reach a few
//!   thousand states.
//!
//! Both read the chain as a [`Csr`] matrix: the reachability graph's
//! outgoing edges, and for Gauss–Seidel their transpose
//! ([`SparseGenerator`]), whose row `j` lists the states feeding `j` in
//! ascending source order. That order fixes the order of every inflow sum,
//! so each iterate is reproducible bit for bit.

use crate::error::PetriError;

/// A sparse matrix in compressed-sparse-row form: row `i` holds the column
/// indices `cols[offsets[i]..offsets[i + 1]]` and the values alongside them
/// in `values`.
#[derive(Debug, Clone)]
pub struct Csr {
    /// Row start positions, `rows() + 1` entries, starting at 0.
    pub offsets: Vec<usize>,
    /// Column index of every stored entry, row by row.
    pub cols: Vec<u32>,
    /// Value of every stored entry, row by row.
    pub values: Vec<f64>,
}

impl Default for Csr {
    fn default() -> Self {
        Csr {
            offsets: vec![0],
            cols: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl Csr {
    /// Builds a matrix from per-row `(column, value)` lists.
    #[cfg(test)]
    pub(crate) fn from_rows(rows: &[Vec<(usize, f64)>]) -> Self {
        let mut m = Csr::default();
        for row in rows {
            for &(c, v) in row {
                m.cols.push(u32::try_from(c).expect("column fits in u32"));
                m.values.push(v);
            }
            m.offsets.push(m.cols.len());
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The column indices and values of row `i`.
    pub fn row_slices(&self, i: usize) -> (&[u32], &[f64]) {
        let r = self.offsets[i]..self.offsets[i + 1];
        (&self.cols[r.clone()], &self.values[r])
    }

    /// `(column, value)` pairs of row `i`, in stored order.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (cols, values) = self.row_slices(i);
        cols.iter().zip(values).map(|(&c, &v)| (c as usize, v))
    }
}

/// A sparse CTMC generator stored as incoming edges: the transpose of the
/// outgoing-edge matrix, without self-loops.
#[derive(Debug, Clone)]
pub struct SparseGenerator {
    /// Row `j` lists `(i, q_ij)` for `i != j`, in ascending `i`.
    pub incoming: Csr,
    /// Total exit rate of each state (`-q_jj`).
    pub exit: Vec<f64>,
}

impl SparseGenerator {
    /// Builds the incoming-edge representation from the outgoing-edge
    /// matrix (`edges` row `i` lists `(j, q_ij)`).
    pub fn from_outgoing(edges: &Csr) -> Self {
        let n = edges.rows();
        let mut exit = vec![0.0; n];
        // Counting sort by target: a scan over sources in ascending order
        // leaves every incoming row in ascending source order.
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            for (j, _) in edges.row(i) {
                // Self-loops leave the state unchanged and are irrelevant to
                // the stationary distribution of a CTMC.
                if i != j {
                    offsets[j + 1] += 1;
                }
            }
        }
        for j in 0..n {
            offsets[j + 1] += offsets[j];
        }
        let nnz = offsets[n];
        let mut next = offsets[..n].to_vec();
        let mut cols = vec![0u32; nnz];
        let mut values = vec![0.0; nnz];
        for (i, e) in exit.iter_mut().enumerate() {
            for (j, r) in edges.row(i) {
                if i != j {
                    *e += r;
                    cols[next[j]] = u32::try_from(i).expect("state ids fit in u32");
                    values[next[j]] = r;
                    next[j] += 1;
                }
            }
        }
        SparseGenerator {
            incoming: Csr {
                offsets,
                cols,
                values,
            },
            exit,
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.exit.len()
    }

    /// Returns `true` if the generator has no states.
    pub fn is_empty(&self) -> bool {
        self.exit.is_empty()
    }

    /// Probability flow into state `j` under `pi`, summed in ascending
    /// source order.
    fn inflow(&self, j: usize, pi: &[f64]) -> f64 {
        let (src, q) = self.incoming.row_slices(j);
        src.iter().zip(q).map(|(&i, &q)| pi[i as usize] * q).sum()
    }
}

/// Solves `πQ = 0, Σπ = 1` by dense Gaussian elimination.
///
/// `edges` row `i` lists outgoing `(j, q_ij)` pairs.
///
/// # Errors
///
/// Returns [`PetriError::SolverDiverged`] if the system is singular beyond
/// numerical tolerance (e.g. a reducible chain).
pub fn solve_dense(edges: &Csr) -> Result<Vec<f64>, PetriError> {
    let n = edges.rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    if n == 1 {
        return Ok(vec![1.0]);
    }
    // Build A = Q^T, then overwrite the last row with the normalisation
    // Σπ = 1.  Solve A x = e_last.
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        let mut exit = 0.0;
        for (j, r) in edges.row(i) {
            // Self-loops do not change the state; skip them entirely.
            if i != j {
                exit += r;
                a[j * n + i] += r; // A[j][i] = q_ij
            }
        }
        a[i * n + i] -= exit;
    }
    for j in 0..n {
        a[(n - 1) * n + j] = 1.0;
    }
    let mut b = vec![0.0f64; n];
    b[n - 1] = 1.0;

    // Gaussian elimination with partial pivoting.
    for col in 0..n {
        let mut pivot = col;
        let mut best = a[col * n + col].abs();
        for row in (col + 1)..n {
            let v = a[row * n + col].abs();
            if v > best {
                best = v;
                pivot = row;
            }
        }
        if best < 1e-300 {
            return Err(PetriError::SolverDiverged {
                iterations: 0,
                residual: best,
            });
        }
        if pivot != col {
            for k in 0..n {
                a.swap(col * n + k, pivot * n + k);
            }
            b.swap(col, pivot);
        }
        let d = a[col * n + col];
        for row in (col + 1)..n {
            let f = a[row * n + col] / d;
            if f == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= f * a[col * n + k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut s = b[row];
        for k in (row + 1)..n {
            s -= a[row * n + k] * x[k];
        }
        x[row] = s / a[row * n + row];
    }
    // Clamp tiny negatives produced by roundoff and renormalise.
    let mut sum = 0.0;
    for v in &mut x {
        if *v < 0.0 && *v > -1e-9 {
            *v = 0.0;
        }
        sum += *v;
    }
    if !(sum.is_finite()) || sum <= 0.0 {
        return Err(PetriError::SolverDiverged {
            iterations: 0,
            residual: sum,
        });
    }
    for v in &mut x {
        *v /= sum;
    }
    Ok(x)
}

/// Solves `πQ = 0, Σπ = 1` by Gauss–Seidel sweeps over the sparse generator.
///
/// # Errors
///
/// Returns [`PetriError::SolverDiverged`] if the residual does not fall
/// below `tol` within `max_sweeps` sweeps, or if an absorbing state (zero
/// exit rate) is present.
pub fn solve_gauss_seidel(
    gen: &SparseGenerator,
    tol: f64,
    max_sweeps: usize,
) -> Result<Vec<f64>, PetriError> {
    let n = gen.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    if n == 1 {
        return Ok(vec![1.0]);
    }
    for (j, &e) in gen.exit.iter().enumerate() {
        if e <= 0.0 {
            return Err(PetriError::InvalidParameter {
                what: format!("state {j} is absorbing; steady state requires an ergodic chain"),
            });
        }
    }
    let mut pi = vec![1.0 / n as f64; n];
    for sweep in 1..=max_sweeps {
        let mut max_rel_change = 0.0f64;
        // The sweep's total, added in state order from the identity
        // `Iterator::sum` starts at: the same bits as summing `pi` after the
        // sweep, without a second dependent pass over it.
        let mut sum: f64 = std::iter::empty::<f64>().sum();
        for j in 0..n {
            let new = gen.inflow(j, &pi) / gen.exit[j];
            sum += new;
            // The quotient only feeds the `max_rel_change < tol` test below,
            // which a sweep fails once its maximum reaches `tol`; skipping
            // the divide from then on leaves every iterate unchanged.
            if max_rel_change < tol {
                let denom = new.abs().max(1e-300);
                let change = (new - pi[j]).abs() / denom;
                if change > max_rel_change {
                    max_rel_change = change;
                }
            }
            pi[j] = new;
        }
        if sum <= 0.0 || !sum.is_finite() {
            return Err(PetriError::SolverDiverged {
                iterations: sweep,
                residual: sum,
            });
        }
        for v in &mut pi {
            *v /= sum;
        }
        if max_rel_change < tol {
            // Final residual check on the balance equations.
            let residual = balance_residual(gen, &pi);
            if residual < tol.sqrt().max(1e-8) {
                return Ok(pi);
            }
        }
    }
    let residual = balance_residual(gen, &pi);
    if residual < 1e-8 {
        return Ok(pi);
    }
    Err(PetriError::SolverDiverged {
        iterations: max_sweeps,
        residual,
    })
}

/// Maximum absolute violation of the global balance equations, normalised
/// by the largest probability flow in the chain.
///
/// A chain-global accuracy measure suited to *reporting* solution quality:
/// the per-state relative measure of [`balance_residual`] saturates near 1
/// for states of negligible probability (where a direct solver's roundoff
/// dwarfs the state's own tiny flows), even when the distribution is
/// accurate to machine precision everywhere it matters.
pub fn global_balance_residual(gen: &SparseGenerator, pi: &[f64]) -> f64 {
    let mut worst_violation = 0.0f64;
    let mut max_flow = 0.0f64;
    for j in 0..gen.len() {
        let inflow = gen.inflow(j, pi);
        let outflow = pi[j] * gen.exit[j];
        worst_violation = worst_violation.max((inflow - outflow).abs());
        max_flow = max_flow.max(inflow.abs()).max(outflow.abs());
    }
    if max_flow > 0.0 {
        worst_violation / max_flow
    } else {
        worst_violation
    }
}

/// Maximum per-state *relative* violation of the global balance equations
/// (the iterative solver's convergence test).
pub fn balance_residual(gen: &SparseGenerator, pi: &[f64]) -> f64 {
    let mut worst = 0.0f64;
    for j in 0..gen.len() {
        let inflow = gen.inflow(j, pi);
        let outflow = pi[j] * gen.exit[j];
        let scale = inflow.abs().max(outflow.abs()).max(1e-300);
        let v = (inflow - outflow).abs() / scale;
        if v > worst {
            worst = v;
        }
    }
    worst
}

/// The Gauss–Seidel solver this module replaced, over per-state edge lists,
/// kept as the reference that [`solve_gauss_seidel`] must match bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::error::PetriError;

    struct Generator {
        incoming: Vec<Vec<(usize, f64)>>,
        exit: Vec<f64>,
    }

    fn balance_residual(gen: &Generator, pi: &[f64]) -> f64 {
        let mut worst = 0.0f64;
        for j in 0..gen.exit.len() {
            let inflow: f64 = gen.incoming[j].iter().map(|&(i, q)| pi[i] * q).sum();
            let outflow = pi[j] * gen.exit[j];
            let scale = inflow.abs().max(outflow.abs()).max(1e-300);
            let v = (inflow - outflow).abs() / scale;
            if v > worst {
                worst = v;
            }
        }
        worst
    }

    pub(crate) fn solve_gauss_seidel(
        edges: &[Vec<(usize, f64)>],
        tol: f64,
        max_sweeps: usize,
    ) -> Result<Vec<f64>, PetriError> {
        let n = edges.len();
        let mut gen = Generator {
            incoming: vec![Vec::new(); n],
            exit: vec![0.0; n],
        };
        for (i, out) in edges.iter().enumerate() {
            for &(j, r) in out {
                if i != j {
                    gen.exit[i] += r;
                    gen.incoming[j].push((i, r));
                }
            }
        }
        if n == 0 {
            return Ok(Vec::new());
        }
        if n == 1 {
            return Ok(vec![1.0]);
        }
        for (j, &e) in gen.exit.iter().enumerate() {
            if e <= 0.0 {
                return Err(PetriError::InvalidParameter {
                    what: format!("state {j} is absorbing; steady state requires an ergodic chain"),
                });
            }
        }
        let mut pi = vec![1.0 / n as f64; n];
        for sweep in 1..=max_sweeps {
            let mut max_rel_change = 0.0f64;
            for j in 0..n {
                let inflow: f64 = gen.incoming[j].iter().map(|&(i, q)| pi[i] * q).sum();
                let new = inflow / gen.exit[j];
                let denom = new.abs().max(1e-300);
                let change = (new - pi[j]).abs() / denom;
                if change > max_rel_change {
                    max_rel_change = change;
                }
                pi[j] = new;
            }
            let sum: f64 = pi.iter().sum();
            if sum <= 0.0 || !sum.is_finite() {
                return Err(PetriError::SolverDiverged {
                    iterations: sweep,
                    residual: sum,
                });
            }
            for v in &mut pi {
                *v /= sum;
            }
            if max_rel_change < tol {
                let residual = balance_residual(&gen, &pi);
                if residual < tol.sqrt().max(1e-8) {
                    return Ok(pi);
                }
            }
        }
        let residual = balance_residual(&gen, &pi);
        if residual < 1e-8 {
            return Ok(pi);
        }
        Err(PetriError::SolverDiverged {
            iterations: max_sweeps,
            residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-state chain: 0 -(a)-> 1, 1 -(b)-> 0; π0 = b/(a+b).
    fn two_state(a: f64, b: f64) -> Csr {
        Csr::from_rows(&[vec![(1, a)], vec![(0, b)]])
    }

    #[test]
    fn dense_two_state() {
        let pi = solve_dense(&two_state(0.01, 1.0)).unwrap();
        assert!((pi[0] - 1.0 / 1.01).abs() < 1e-12);
        assert!((pi[1] - 0.01 / 1.01).abs() < 1e-12);
    }

    #[test]
    fn gauss_seidel_matches_dense() {
        // Random-ish 5-state ring with extra chords.
        let edges = Csr::from_rows(&[
            vec![(1, 2.0), (3, 0.5)],
            vec![(2, 1.0)],
            vec![(3, 4.0), (0, 0.25)],
            vec![(4, 1.5)],
            vec![(0, 3.0), (2, 0.1)],
        ]);
        let dense = solve_dense(&edges).unwrap();
        let gs =
            solve_gauss_seidel(&SparseGenerator::from_outgoing(&edges), 1e-14, 100_000).unwrap();
        for (d, g) in dense.iter().zip(&gs) {
            assert!((d - g).abs() < 1e-9, "dense={d} gs={g}");
        }
    }

    #[test]
    fn gauss_seidel_handles_stiff_rates() {
        // Rates spanning seven orders of magnitude (the paper's models mix
        // 1/1523 s⁻¹ compromise rates with 2 s⁻¹ repairs).
        let edges = Csr::from_rows(&[vec![(1, 6.57e-4)], vec![(2, 6.57e-4)], vec![(0, 2.0)]]);
        let dense = solve_dense(&edges).unwrap();
        let gs =
            solve_gauss_seidel(&SparseGenerator::from_outgoing(&edges), 1e-14, 100_000).unwrap();
        for (d, g) in dense.iter().zip(&gs) {
            assert!((d - g).abs() < 1e-10);
        }
    }

    #[test]
    fn singleton_chain() {
        let one = Csr::from_rows(&[vec![]]);
        assert_eq!(solve_dense(&one).unwrap(), vec![1.0]);
        let gen = SparseGenerator::from_outgoing(&one);
        assert_eq!(solve_gauss_seidel(&gen, 1e-12, 10).unwrap(), vec![1.0]);
    }

    #[test]
    fn empty_chain() {
        assert!(solve_dense(&Csr::default()).unwrap().is_empty());
        let gen = SparseGenerator::from_outgoing(&Csr::default());
        assert!(gen.is_empty());
        assert!(solve_gauss_seidel(&gen, 1e-12, 10).unwrap().is_empty());
    }

    #[test]
    fn absorbing_state_rejected_by_gs() {
        let edges = Csr::from_rows(&[vec![(1, 1.0)], vec![]]);
        let gen = SparseGenerator::from_outgoing(&edges);
        assert!(matches!(
            solve_gauss_seidel(&gen, 1e-12, 10),
            Err(PetriError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn probabilities_sum_to_one_and_are_nonnegative() {
        let edges = Csr::from_rows(&[
            vec![(1, 1.0), (2, 2.0)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(0, 1.0)],
        ]);
        for pi in [
            solve_dense(&edges).unwrap(),
            solve_gauss_seidel(&SparseGenerator::from_outgoing(&edges), 1e-14, 100_000).unwrap(),
        ] {
            let sum: f64 = pi.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(pi.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn global_residual_tracks_solution_quality() {
        let edges = Csr::from_rows(&[
            vec![(1, 2.0), (3, 0.5)],
            vec![(2, 1.0)],
            vec![(3, 4.0), (0, 0.25)],
            vec![(4, 1.5)],
            vec![(0, 3.0), (2, 0.1)],
        ]);
        let gen = SparseGenerator::from_outgoing(&edges);
        let pi = solve_dense(&edges).unwrap();
        assert!(global_balance_residual(&gen, &pi) < 1e-12);
        // A deliberately wrong distribution violates balance badly.
        let uniform = vec![0.2; 5];
        assert!(global_balance_residual(&gen, &uniform) > 1e-2);
        // Degenerate inputs do not divide by zero.
        assert!(global_balance_residual(&gen, &[0.0; 5]) < f64::EPSILON);
    }

    #[test]
    fn self_loops_are_ignored_in_balance() {
        // A self loop contributes to exit and inflow identically; the solver
        // must not double count. Model: q_00 self loop plus real edge.
        let edges = Csr::from_rows(&[vec![(0, 5.0), (1, 1.0)], vec![(0, 1.0)]]);
        let pi = solve_dense(&edges).unwrap();
        // With the self-loop removed this is the symmetric two-state chain…
        // except exit(0) includes the loop. Steady state of a CTMC is
        // invariant under self-loops, so π = (0.5, 0.5).
        assert!((pi[0] - 0.5).abs() < 1e-9, "pi={pi:?}");
    }
}
