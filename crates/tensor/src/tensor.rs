//! The plain dense tensor value type.

use crate::shape::{self, Shape};
use std::fmt;

/// A dense, contiguous, row-major `f32` tensor of rank 0–3.
///
/// `Tensor` is a pure value: cloning copies the buffer, and no gradient state
/// is attached. Autograd is layered on top by [`crate::Graph`]. The shape is
/// stored inline ([`Shape`]), so constructing a tensor costs exactly one heap
/// allocation (the data buffer).
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and data buffer. Panics if they disagree.
    pub fn new(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            data.len(),
            "shape {shape:?} does not match data length {}",
            data.len()
        );
        Self { shape, data }
    }

    /// A tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self { shape: Shape::from_slice(shape), data: vec![0.0; shape::numel(shape)] }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self { shape: Shape::from_slice(shape), data: vec![value; shape::numel(shape)] }
    }

    /// A rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Self { shape: Shape::scalar(), data: vec![value] }
    }

    /// A rank-1 tensor from a slice.
    pub fn from_slice(values: &[f32]) -> Self {
        Self { shape: Shape::from([values.len()]), data: values.to_vec() }
    }

    /// A rank-2 tensor from rows. All rows must have equal length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Tensor::from_rows");
            data.extend_from_slice(row);
        }
        Self { shape: Shape::from([r, c]), data }
    }

    /// The identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        self.shape.as_slice()
    }

    /// The tensor's shape as an owned, stack-allocated [`Shape`] copy.
    #[inline]
    pub fn dims(&self) -> Shape {
        self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Rank (number of dimensions); scalars have rank 0.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Immutable view of the underlying buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// The single value of a scalar (or 1-element) tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on tensor with {} elements", self.data.len());
        self.data[0]
    }

    /// Element at a 2-D index.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Row `i` of a rank-2 tensor.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.rank(), 2, "row() needs rank 2");
        let c = self.shape[1];
        &self.data[i * c..(i + 1) * c]
    }

    /// Mutable row `i` of a rank-2 tensor.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert_eq!(self.rank(), 2, "row_mut() needs rank 2");
        let c = self.shape[1];
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Reinterprets the buffer with a new shape of equal element count.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        assert_eq!(shape::numel(shape), self.data.len(), "reshape to incompatible {shape:?}");
        self.shape = Shape::from_slice(shape);
        self
    }

    /// Elementwise in-place addition of another tensor of identical shape.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
    }

    /// Elementwise in-place scaling.
    pub fn scale_assign(&mut self, c: f32) {
        for a in &mut self.data {
            *a *= c;
        }
    }

    /// Sets all elements to zero, keeping the allocation.
    pub fn zero_(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Index of the maximum element (first on ties). Panics if empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Squared L2 norm of the buffer.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{:?}, ... {} elems]", &self.data[..8], self.data.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.at2(1, 0), 3.0);
        assert_eq!(t.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn eye_is_identity() {
        let t = Tensor::eye(3);
        assert_eq!(t.at2(0, 0), 1.0);
        assert_eq!(t.at2(0, 1), 0.0);
        assert_eq!(t.at2(2, 2), 1.0);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(4.5).item(), 4.5);
    }

    #[test]
    #[should_panic]
    fn bad_shape_panics() {
        Tensor::new(vec![2, 2], vec![1.0]);
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::from_slice(&[1., 2., 3., 4., 5., 6.]).reshape(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.at2(1, 2), 6.0);
    }

    #[test]
    fn argmax_first_on_ties() {
        let t = Tensor::from_slice(&[1.0, 3.0, 3.0, 2.0]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn add_and_scale() {
        let mut a = Tensor::from_slice(&[1.0, 2.0]);
        a.add_assign(&Tensor::from_slice(&[3.0, 4.0]));
        a.scale_assign(2.0);
        assert_eq!(a.data(), &[8.0, 12.0]);
    }
}
