//! Multi-dimensional points and distance helpers shared by the clustering
//! algorithms.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A point in `d`-dimensional Euclidean space.
///
/// `Point` is a thin, validated wrapper around a `Vec<f64>`; all clustering
/// algorithms in this crate operate on slices of `Point`s of equal dimension.
///
/// # Example
///
/// ```
/// use avoc_core::cluster::Point;
///
/// let a = Point::new(vec![0.0, 0.0]);
/// let b = Point::new(vec![3.0, 4.0]);
/// assert_eq!(a.distance(&b), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Point(Vec<f64>);

impl Point {
    /// Creates a point from its coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `coords` is empty or contains a non-finite value: clustering
    /// over NaN/infinite coordinates has no meaningful result and failing
    /// early keeps every algorithm in the crate panic-free internally.
    pub fn new(coords: Vec<f64>) -> Self {
        assert!(!coords.is_empty(), "a point needs at least one coordinate");
        assert!(
            coords.iter().all(|c| c.is_finite()),
            "point coordinates must be finite"
        );
        Point(coords)
    }

    /// Creates a one-dimensional point.
    pub fn scalar(v: f64) -> Self {
        Point::new(vec![v])
    }

    /// The dimensionality of the point.
    fn dim(&self) -> usize {
        self.0.len()
    }

    /// Coordinates as a slice.
    fn coords(&self) -> &[f64] {
        &self.0
    }

    /// Consumes the point, returning the coordinate vector.
    pub fn into_coords(self) -> Vec<f64> {
        self.0
    }

    /// Euclidean distance to another point.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn distance(&self, other: &Point) -> f64 {
        euclidean(self.coords(), other.coords())
    }

    /// Squared Euclidean distance to another point (avoids the `sqrt`).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn distance_sq(&self, other: &Point) -> f64 {
        euclidean_sq(self.coords(), other.coords())
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<f64>> for Point {
    fn from(coords: Vec<f64>) -> Self {
        Point::new(coords)
    }
}

impl From<f64> for Point {
    fn from(v: f64) -> Self {
        Point::scalar(v)
    }
}

impl Index<usize> for Point {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for Point {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

/// Squared Euclidean distance between two coordinate slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
fn euclidean_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "dimension mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance between two coordinate slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    euclidean_sq(a, b).sqrt()
}

/// Component-wise mean of a non-empty set of points, i.e. their centroid.
///
/// Returns `None` for an empty input.
pub fn centroid(points: &[Point]) -> Option<Point> {
    let first = points.first()?;
    let dim = first.dim();
    let mut acc = vec![0.0; dim];
    for p in points {
        assert_eq!(p.dim(), dim, "dimension mismatch in centroid");
        for (a, c) in acc.iter_mut().zip(p.coords()) {
            *a += c;
        }
    }
    let n = points.len() as f64;
    for a in &mut acc {
        *a /= n;
    }
    Some(Point::new(acc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(vec![1.0, 2.0, 3.0]);
        let b = Point::new(vec![4.0, 6.0, 3.0]);
        assert_eq!(a.distance(&b), b.distance(&a));
        assert_eq!(a.distance(&a), 0.0);
        assert_eq!(a.distance(&b), 5.0);
    }

    #[test]
    fn scalar_point_has_dim_one() {
        let p = Point::scalar(42.0);
        assert_eq!(p.dim(), 1);
        assert_eq!(p[0], 42.0);
    }

    #[test]
    #[should_panic(expected = "at least one coordinate")]
    fn empty_point_panics() {
        let _ = Point::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_point_panics() {
        let _ = Point::new(vec![f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mixed_dims_panic() {
        let a = Point::scalar(1.0);
        let b = Point::new(vec![1.0, 2.0]);
        let _ = a.distance(&b);
    }

    #[test]
    fn centroid_of_square() {
        let pts = vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![2.0, 0.0]),
            Point::new(vec![2.0, 2.0]),
            Point::new(vec![0.0, 2.0]),
        ];
        let c = centroid(&pts).unwrap();
        assert_eq!(c.coords(), &[1.0, 1.0]);
    }

    #[test]
    fn centroid_of_empty_is_none() {
        assert!(centroid(&[]).is_none());
    }

    #[test]
    fn display_formats_coordinates() {
        let p = Point::new(vec![1.0, 2.5]);
        assert_eq!(p.to_string(), "(1, 2.5)");
    }

    #[test]
    fn from_conversions() {
        let p: Point = 3.0.into();
        assert_eq!(p, Point::scalar(3.0));
        let q: Point = vec![1.0, 2.0].into();
        assert_eq!(q.dim(), 2);
    }
}
