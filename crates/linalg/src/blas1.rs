//! BLAS level 1: vector-vector operations.

/// The dot product `xᵀy`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `y := alpha·x + y`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x := alpha·x`.
pub fn scal(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// The Euclidean norm `‖x‖₂`.
pub fn nrm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// The sum of absolute values `‖x‖₁`.
pub fn asum(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn axpy_basic() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn scal_basic() {
        let mut x = vec![1.0, -2.0];
        scal(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    fn nrm2_and_asum() {
        assert!((nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(asum(&[1.0, -2.0, 3.0]), 6.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
