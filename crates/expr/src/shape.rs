//! Matrix shapes, generic over the dimension type.
//!
//! [`GenShape<D>`] is a pair of dimensions; the two instantiations used
//! throughout the pipeline are [`Shape`] (`D = usize`, fully concrete)
//! and [`SymShape`] (`D = Dim`, dimensions may be variables). Concrete
//! shapes keep the exact API they had before the refactor; symbolic
//! shapes answer structural questions (squareness, vector-ness) only
//! when they are decidable from the dimension pattern, and a chain's
//! binding ([`SymChain::bind`](crate::SymChain::bind)) resolves them to
//! concrete shapes.

use crate::dim::{Dim, MAX_DIM};
use std::fmt;

/// The dimensions of a matrix, generic over the dimension type `D`.
///
/// Vectors are represented as matrices of size `n×1` (column vectors) or
/// `1×n` (row vectors), exactly as in Sec. 1.1 of the paper. Scalars
/// (`1×1`) are representable but the GMC algorithm does not treat them
/// specially, since scalars commute and are excluded from chains.
///
/// # Example
///
/// ```
/// use gmc_expr::Shape;
///
/// let s = Shape::new(100, 50);
/// assert_eq!(s.rows(), 100);
/// assert_eq!(s.cols(), 50);
/// assert!(!s.is_square());
/// assert_eq!(s.transposed(), Shape::new(50, 100));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GenShape<D> {
    rows: D,
    cols: D,
}

/// A fully concrete shape (the dimension type is `usize`).
pub type Shape = GenShape<usize>;

/// A shape whose dimensions may be symbolic ([`Dim`]).
pub type SymShape = GenShape<Dim>;

/// Error returned by [`Shape::try_new`] for a dimension outside
/// `1..=`[`MAX_DIM`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShapeError {
    /// The offending row count.
    pub rows: usize,
    /// The offending column count.
    pub cols: usize,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bound = if self.rows == 0 || self.cols == 0 {
            "positive"
        } else {
            "at most 2^32"
        };
        write!(
            f,
            "matrix dimensions must be {bound}, got {}x{}",
            self.rows, self.cols
        )
    }
}

impl std::error::Error for ShapeError {}

impl<D> GenShape<D> {
    /// A reference to the row dimension.
    pub fn rows_dim(&self) -> &D {
        &self.rows
    }

    /// A reference to the column dimension.
    pub fn cols_dim(&self) -> &D {
        &self.cols
    }

    /// Maps both dimensions through `f` (e.g. `usize → Dim`).
    pub fn map<E>(self, mut f: impl FnMut(D) -> E) -> GenShape<E> {
        GenShape {
            rows: f(self.rows),
            cols: f(self.cols),
        }
    }
}

impl Shape {
    /// Creates a shape with the given number of rows and columns.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, as empty matrices are not
    /// meaningful operands for the matrix chain problem, or above
    /// [`MAX_DIM`], the bound under which FLOP counts stay exact.
    /// Fallible callers (e.g. parsers of untrusted input) should use
    /// [`try_new`](Self::try_new).
    pub fn new(rows: usize, cols: usize) -> Self {
        Shape::try_new(rows, cols).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a shape, rejecting a dimension that is zero or above
    /// [`MAX_DIM`] with an error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if either dimension is outside
    /// `1..=MAX_DIM`.
    pub fn try_new(rows: usize, cols: usize) -> Result<Self, ShapeError> {
        if !(1..=MAX_DIM).contains(&rows) || !(1..=MAX_DIM).contains(&cols) {
            return Err(ShapeError { rows, cols });
        }
        Ok(Shape { rows, cols })
    }

    /// Creates the shape of a square `n×n` matrix.
    pub fn square(n: usize) -> Self {
        Shape::new(n, n)
    }

    /// Creates the shape of a column vector of length `n` (`n×1`).
    pub fn col_vector(n: usize) -> Self {
        Shape::new(n, 1)
    }

    /// Creates the shape of a row vector of length `n` (`1×n`).
    pub fn row_vector(n: usize) -> Self {
        Shape::new(1, n)
    }

    /// The number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the shape is square (`rows == cols`).
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Whether the shape is a column vector (`n×1`, n > 1).
    pub fn is_col_vector(&self) -> bool {
        self.cols == 1 && self.rows > 1
    }

    /// Whether the shape is a row vector (`1×n`, n > 1).
    pub fn is_row_vector(&self) -> bool {
        self.rows == 1 && self.cols > 1
    }

    /// Whether the shape is a vector of either orientation.
    pub fn is_vector(&self) -> bool {
        self.is_col_vector() || self.is_row_vector()
    }

    /// Whether the shape is a `1×1` scalar.
    pub fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// The shape of the transpose.
    pub fn transposed(&self) -> Shape {
        Shape {
            rows: self.cols,
            cols: self.rows,
        }
    }

    /// The number of entries (`rows · cols`), in `u128` so that it is
    /// exact for every admitted shape: [`MAX_DIM`] × [`MAX_DIM`] has
    /// 2^64 entries, one more than `u64::MAX`.
    ///
    /// This is the "size" measure used by Armadillo's chain heuristic
    /// (paper Sec. 4) when comparing candidate intermediate results.
    pub fn len(&self) -> u128 {
        self.rows as u128 * self.cols as u128
    }

    /// Always false: shapes have positive dimensions.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The shape of the product `self · rhs`, if the inner dimensions
    /// agree.
    pub fn times(&self, rhs: Shape) -> Option<Shape> {
        (self.cols == rhs.rows).then(|| Shape::new(self.rows, rhs.cols))
    }

    /// This shape with both dimensions lifted to constant [`Dim`]s.
    pub fn to_sym(self) -> SymShape {
        self.map(Dim::Const)
    }
}

impl SymShape {
    /// Creates a symbolic shape from two dimensions.
    pub fn new(rows: Dim, cols: Dim) -> Self {
        SymShape { rows, cols }
    }

    /// The shape of a structurally square `n×n` matrix.
    pub fn square(n: Dim) -> Self {
        SymShape { rows: n, cols: n }
    }

    /// The row dimension.
    pub fn rows(&self) -> Dim {
        self.rows
    }

    /// The column dimension.
    pub fn cols(&self) -> Dim {
        self.cols
    }

    /// The shape of the transpose.
    pub fn transposed(&self) -> SymShape {
        SymShape {
            rows: self.cols,
            cols: self.rows,
        }
    }

    /// Whether the shape is *structurally* square: both dimensions are
    /// the same [`Dim`]. A `n×m` shape may still be square under a
    /// binding with `n = m`; structural squareness is the property that
    /// holds under **every** binding.
    pub fn is_square_structural(&self) -> bool {
        self.rows == self.cols
    }

    /// Whether the shape contains a dimension variable.
    pub fn is_symbolic(&self) -> bool {
        self.rows.is_var() || self.cols.is_var()
    }

    /// The shape of the product `self · rhs`, if the inner dimensions
    /// agree *structurally*.
    pub fn times(&self, rhs: SymShape) -> Option<SymShape> {
        (self.cols == rhs.rows).then(|| SymShape::new(self.rows, rhs.cols))
    }
}

impl<D: fmt::Display> fmt::Debug for GenShape<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

impl<D: fmt::Display> fmt::Display for GenShape<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

impl From<(usize, usize)> for Shape {
    fn from((rows, cols): (usize, usize)) -> Self {
        Shape::new(rows, cols)
    }
}

impl From<(Dim, Dim)> for SymShape {
    fn from((rows, cols): (Dim, Dim)) -> Self {
        SymShape::new(rows, cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let s = Shape::new(3, 4);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.cols(), 4);
        assert_eq!(Shape::square(5), Shape::new(5, 5));
        assert_eq!(Shape::col_vector(7), Shape::new(7, 1));
        assert_eq!(Shape::row_vector(7), Shape::new(1, 7));
    }

    #[test]
    fn classification() {
        assert!(Shape::square(4).is_square());
        assert!(!Shape::new(4, 3).is_square());
        assert!(Shape::col_vector(4).is_col_vector());
        assert!(!Shape::col_vector(4).is_row_vector());
        assert!(Shape::row_vector(4).is_row_vector());
        assert!(Shape::row_vector(4).is_vector());
        assert!(Shape::col_vector(4).is_vector());
        assert!(!Shape::new(2, 2).is_vector());
        assert!(Shape::new(1, 1).is_scalar());
        // A 1x1 matrix is scalar, not a vector.
        assert!(!Shape::new(1, 1).is_vector());
    }

    #[test]
    fn transpose_and_product() {
        assert_eq!(Shape::new(2, 9).transposed(), Shape::new(9, 2));
        assert_eq!(
            Shape::new(2, 3).times(Shape::new(3, 5)),
            Some(Shape::new(2, 5))
        );
        assert_eq!(Shape::new(2, 3).times(Shape::new(4, 5)), None);
    }

    #[test]
    fn len_is_entry_count() {
        assert_eq!(Shape::new(6, 7).len(), 42);
        assert_eq!(Shape::square(MAX_DIM).len(), 1 << 64);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        let _ = Shape::new(0, 3);
    }

    #[test]
    fn try_new_reports_zero_dimensions() {
        assert_eq!(Shape::try_new(0, 3), Err(ShapeError { rows: 0, cols: 3 }));
        assert_eq!(Shape::try_new(3, 0), Err(ShapeError { rows: 3, cols: 0 }));
        let s = Shape::try_new(3, 4).unwrap();
        assert_eq!(s, Shape::new(3, 4));
        let msg = ShapeError { rows: 0, cols: 3 }.to_string();
        assert!(msg.contains("0x3"));
    }

    #[test]
    fn dimensions_above_two_pow_32_are_refused() {
        let edge = Shape::try_new(MAX_DIM, MAX_DIM).unwrap();
        assert_eq!((edge.rows(), edge.cols()), (1 << 32, 1 << 32));
        assert_eq!(Shape::square(MAX_DIM), edge);
        let over = Shape::try_new(3, MAX_DIM + 1);
        assert_eq!(
            over,
            Err(ShapeError {
                rows: 3,
                cols: MAX_DIM + 1
            })
        );
        assert!(over.unwrap_err().to_string().contains("at most 2^32"));
        assert!(Shape::try_new(MAX_DIM + 1, 0)
            .unwrap_err()
            .to_string()
            .contains("positive"));
    }

    #[test]
    #[should_panic(expected = "at most 2^32")]
    fn dimension_above_two_pow_32_panics() {
        let _ = Shape::new(MAX_DIM + 1, 1);
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(10, 20).to_string(), "10x20");
        assert_eq!(format!("{:?}", Shape::new(1, 2)), "1x2");
    }

    #[test]
    fn from_tuple() {
        let s: Shape = (4, 5).into();
        assert_eq!(s, Shape::new(4, 5));
    }

    #[test]
    fn symbolic_shape_basics() {
        let n = Dim::var("sh_n");
        let m = Dim::var("sh_m");
        let s = SymShape::new(n, m);
        assert_eq!(s.transposed(), SymShape::new(m, n));
        assert!(SymShape::square(n).is_square_structural());
        assert!(!s.is_square_structural());
        assert!(s.is_symbolic());
        assert!(!Shape::new(2, 3).to_sym().is_symbolic());
        assert_eq!(s.to_string(), "sh_nxsh_m");
        assert_eq!(s.times(SymShape::new(m, n)), Some(SymShape::new(n, n)));
        assert_eq!(s.times(SymShape::new(n, n)), None);
    }

    #[test]
    fn generic_map_round_trips() {
        let s = Shape::new(2, 3).to_sym();
        assert_eq!(s, SymShape::new(Dim::Const(2), Dim::Const(3)));
        let back = s.map(|d| d.as_const().expect("constant"));
        assert_eq!(back, Shape::new(2, 3));
    }
}
