//! A minimal dense tensor type (row-major, `f32`).
//!
//! This is deliberately small: just what the layers in this crate need —
//! shape bookkeeping, elementwise ops, and a matrix multiply. No views, no
//! broadcasting, no autograd; layers implement their own backward passes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major `f32` tensor.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape has zero elements in total.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert!(n > 0, "tensor shape {shape:?} has zero elements");
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor from explicit data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            data.len(),
            "shape {shape:?} needs {n} elements, got {}",
            data.len()
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements (never true for
    /// constructed tensors).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The underlying data, shape dropped.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            self.data.len(),
            "cannot reshape {:?} to {shape:?}",
            self.shape
        );
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// Elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in add");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Elementwise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Scales every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Maximum absolute element (0 for — impossible — empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Matrix multiply: `self` is `[m, k]`, `other` is `[k, n]`, result
    /// `[m, n]`.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-2 with matching inner dims.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be rank 2");
        assert_eq!(other.shape.len(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        crate::gemm::gemm(m, k, n, &self.data, &other.data, &mut out);
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank 2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose needs rank 2");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            shape: vec![n, m],
            data: out,
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(f, ", data=[{} elems])", self.data.len())
        }
    }
}

#[cfg(test)]
// Exact float assertions are deliberate here: the expected values are
// produced by the same deterministic arithmetic being tested.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "zero elements")]
    fn zeros_rejects_empty_shape() {
        let _ = Tensor::zeros(&[2, 0]);
    }

    #[test]
    fn from_vec_validates_len() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "needs 4 elements")]
    fn from_vec_rejects_bad_len() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_with_zero_rows_skips_correctly() {
        let a = Tensor::from_vec(&[1, 3], vec![0., 1., 0.]);
        let b = Tensor::from_vec(&[3, 2], vec![5., 6., 7., 8., 9., 10.]);
        assert_eq!(a.matmul(&b).as_slice(), &[7., 8.]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let t = a.transpose();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.as_slice(), &[1., 4., 2., 5., 3., 6.]);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(&[3], vec![1., -2., 3.]);
        let b = Tensor::from_vec(&[3], vec![0.5, 0.5, 0.5]);
        assert_eq!(a.add(&b).as_slice(), &[1.5, -1.5, 3.5]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.as_slice(), &[1.5, -1.5, 3.5]);
        c.scale(2.0);
        assert_eq!(c.as_slice(), &[3.0, -3.0, 7.0]);
        assert_eq!(a.max_abs(), 3.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let r = a.reshape(&[4]);
        assert_eq!(r.shape(), &[4]);
        assert_eq!(r.as_slice(), a.as_slice());
    }

    #[test]
    fn serde_round_trip() {
        let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let json = serde_json::to_string(&a).unwrap();
        let b: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn debug_is_compact_for_large_tensors() {
        let t = Tensor::zeros(&[100]);
        let s = format!("{t:?}");
        assert!(s.contains("100 elems"));
    }
}
