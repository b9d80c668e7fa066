//! A minimal dense row-major `f32` matrix: the batch and buffer type of the
//! MLP.
//!
//! Batches are stored as `batch_size × features` matrices. `Matrix` carries
//! storage, shape and the few helpers the workspace step needs; every product
//! runs in the dispatched kernels of [`crate::simd`] over its data slices
//! (the naive reference products live in the crate's test support, as the
//! oracle the training-path pins compare against).

use serde::Serialize;

/// Dense row-major matrix of `f32` values.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of equally sized rows.
    ///
    /// # Panics
    /// Panics when the rows have inconsistent lengths or there are no rows.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "inconsistent row length");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Value at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Sets the value at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Changes the number of rows in place, keeping the column width.
    ///
    /// Shrinking truncates, growing zero-fills. No allocation happens as long
    /// as the new size fits the buffer's existing capacity, which makes this
    /// the resize primitive of the reusable [`crate::Workspace`] buffers.
    pub fn resize_rows(&mut self, rows: usize) {
        self.rows = rows;
        self.data.resize(rows * self.cols, 0.0);
    }

    /// Appends one row. No heap allocation while the storage has room.
    ///
    /// # Panics
    /// Panics when `row.len() != cols`.
    pub(crate) fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "row length");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Accumulates the column-wise sums into `acc` without allocating.
    ///
    /// # Panics
    /// Panics when `acc.len() != cols`.
    pub fn add_column_sums_to(&self, acc: &mut [f32]) {
        assert_eq!(acc.len(), self.cols, "column-sum accumulator length");
        for r in 0..self.rows {
            for (s, v) in acc.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
    }

    /// True when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_sums_accumulate_rows() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let mut sums = vec![0.0; 2];
        a.add_column_sums_to(&mut sums);
        assert_eq!(sums, vec![9.0, 12.0]);
    }

    #[test]
    fn resize_rows_truncates_and_zero_fills_without_losing_width() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        m.resize_rows(1);
        assert_eq!(m.rows(), 1);
        assert_eq!(m.data(), &[1.0, 2.0]);
        m.resize_rows(3);
        assert_eq!(m.data(), &[1.0, 2.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn add_column_sums_accumulates() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut acc = vec![1.0, 1.0];
        m.add_column_sums_to(&mut acc);
        assert_eq!(acc, vec![5.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "matrix data length mismatch")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }
}
