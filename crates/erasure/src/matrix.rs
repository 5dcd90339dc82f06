//! Dense matrices over GF(2^8).

use std::fmt;

use crate::gf256;

/// A dense row-major matrix with elements in GF(2^8).
///
/// Used to build and invert the encoding matrices of the Reed–Solomon codec.
///
/// # Examples
///
/// The type is crate-private; what it promises shows through the codec.
/// A 3 data + 2 parity code is built on the 5 x 3 Vandermonde matrix, and
/// every 3 of its 5 rows must invert, so losing any 2 shards is repairable:
///
/// ```
/// use reo_erasure::ReedSolomon;
///
/// let rs = ReedSolomon::new(3, 2)?;
/// let data = vec![vec![1u8, 2], vec![3, 4], vec![5, 6]];
/// let mut full: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some).collect();
/// full.extend(rs.encode(&data)?.into_iter().map(Some));
/// for a in 0..5 {
///     for b in a + 1..5 {
///         let mut shards = full.clone();
///         shards[a] = None;
///         shards[b] = None;
///         rs.reconstruct(&mut shards)?;
///         assert_eq!(shards, full);
///     }
/// }
/// # Ok::<(), reo_erasure::CodecError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or either dimension is zero.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<u8>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// A `rows × cols` Vandermonde matrix: `m[r][c] = r^c` in GF(2^8).
    ///
    /// Any `cols` rows of this matrix are linearly independent, which is the
    /// property Reed–Solomon relies on. This is the construction the paper
    /// cites (Reed–Solomon over a Vandermonde matrix).
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        let mut m = Matrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, gf256::pow(r as u8, c as u32));
            }
        }
        m
    }

    /// Element at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> u8 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: u8) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    pub fn row(&self, r: usize) -> &[u8] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0 {
                    continue;
                }
                for c in 0..rhs.cols {
                    let prod = gf256::mul(a, rhs.get(k, c));
                    out.set(r, c, gf256::add(out.get(r, c), prod));
                }
            }
        }
        out
    }

    /// Builds a new matrix from the given rows of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        assert!(!indices.is_empty(), "must select at least one row");
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &r in indices {
            data.extend_from_slice(self.row(r));
        }
        Matrix::from_rows(indices.len(), self.cols, data)
    }

    /// Inverts a square matrix by Gauss–Jordan elimination.
    ///
    /// Returns `None` if the matrix is singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "only square matrices invert");
        let n = self.rows;
        let mut work = self.clone();
        let mut inv = Matrix::identity(n);

        for col in 0..n {
            // Find pivot.
            let pivot = (col..n).find(|&r| work.get(r, col) != 0)?;
            if pivot != col {
                work.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Scale pivot row to 1.
            let p = work.get(col, col);
            if p != 1 {
                let pinv = gf256::inv(p);
                work.scale_row(col, pinv);
                inv.scale_row(col, pinv);
            }
            // Eliminate the column from every other row.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = work.get(r, col);
                if factor != 0 {
                    work.add_scaled_row(r, col, factor);
                    inv.add_scaled_row(r, col, factor);
                }
            }
        }
        Some(inv)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }

    fn scale_row(&mut self, r: usize, factor: u8) {
        for b in &mut self.data[r * self.cols..(r + 1) * self.cols] {
            *b = gf256::mul(*b, factor);
        }
    }

    /// `row[dst] ^= factor * row[src]`.
    fn add_scaled_row(&mut self, dst: usize, src: usize, factor: u8) {
        for c in 0..self.cols {
            let v = gf256::add(self.get(dst, c), gf256::mul(factor, self.get(src, c)));
            self.set(dst, c, v);
        }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:02x?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_times_anything_is_identity_on_it() {
        let id3 = Matrix::identity(3);
        for rows in [4, 5] {
            let v = Matrix::vandermonde(rows, 3);
            assert_eq!(v.mul(&id3), v);
            assert_eq!(Matrix::identity(rows).mul(&v), v);
        }
    }

    #[test]
    fn vandermonde_first_column_is_ones_after_row_zero() {
        let v = Matrix::vandermonde(5, 3);
        // m[r][0] = r^0 = 1 for all rows.
        for r in 0..5 {
            assert_eq!(v.get(r, 0), 1);
        }
        // m[r][1] = r.
        for r in 0..5 {
            assert_eq!(v.get(r, 1), r as u8);
        }
    }

    #[test]
    fn identity_inverse_is_identity() {
        let id = Matrix::identity(5);
        assert_eq!(id.inverse().unwrap(), id);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        // A nontrivial invertible matrix: a square Vandermonde matrix
        // over four distinct points.
        let m = Matrix::vandermonde(4, 4);
        let inv = m.inverse().expect("square Vandermonde is invertible");
        assert_eq!(m.mul(&inv), Matrix::identity(4));
        assert_eq!(inv.mul(&m), Matrix::identity(4));
    }

    #[test]
    fn singular_matrix_returns_none() {
        // Two identical rows.
        let m = Matrix::from_rows(2, 2, vec![1, 2, 1, 2]);
        assert!(m.inverse().is_none());
        // Zero matrix.
        let z = Matrix::zero(3, 3);
        assert!(z.inverse().is_none());
    }

    #[test]
    fn select_rows_picks_in_order() {
        let v = Matrix::vandermonde(5, 2);
        let s = v.select_rows(&[4, 0]);
        assert_eq!(s.row(0), v.row(4));
        assert_eq!(s.row(1), v.row(0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mul_shape_mismatch_panics() {
        let a = Matrix::zero(2, 3);
        let b = Matrix::zero(2, 3);
        let _ = a.mul(&b);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn inverse_non_square_panics() {
        let _ = Matrix::zero(2, 3).inverse();
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Matrix::identity(2));
        assert!(s.contains("Matrix 2x2"));
    }

    fn arb_invertible(n: usize) -> impl Strategy<Value = Matrix> {
        // Random matrices over GF(256) are invertible with probability
        // ~0.996; retry via prop_filter on a singular draw.
        proptest::collection::vec(any::<u8>(), n * n)
            .prop_map(move |data| Matrix::from_rows(n, n, data))
            .prop_filter("matrix must be invertible", |m| m.inverse().is_some())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_inverse_roundtrip(m in arb_invertible(5)) {
            let inv = m.inverse().unwrap();
            prop_assert_eq!(m.mul(&inv), Matrix::identity(5));
        }

        #[test]
        fn mul_is_associative(
            a in proptest::collection::vec(any::<u8>(), 9),
            b in proptest::collection::vec(any::<u8>(), 9),
            c in proptest::collection::vec(any::<u8>(), 9),
        ) {
            let a = Matrix::from_rows(3, 3, a);
            let b = Matrix::from_rows(3, 3, b);
            let c = Matrix::from_rows(3, 3, c);
            prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        }
    }
}
