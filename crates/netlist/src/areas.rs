//! Module areas and the area-weighted ratio cut.
//!
//! The paper's tables report block *areas*, and the RCut1.0 program it
//! compares against optimizes an area-weighted ratio cut, while "the
//! spectral approach cannot take module areas (weights) into
//! consideration ... this has not been a significant disadvantage in
//! practice" (§4). This module supplies the area-weighted metric so that
//! claim can be tested: assign areas, partition with the (area-oblivious)
//! spectral methods, and score both ways.

use crate::{Bipartition, Hypergraph, ModuleId, Side};
use std::fmt;

/// Per-module areas (cell sizes). All areas must be positive and finite.
#[derive(Clone, Debug, PartialEq)]
pub struct ModuleAreas {
    areas: Vec<f64>,
}

impl ModuleAreas {
    /// Wraps an explicit area vector.
    ///
    /// # Panics
    ///
    /// Panics if any area is non-positive or non-finite.
    pub fn new(areas: Vec<f64>) -> Self {
        assert!(
            areas.iter().all(|a| a.is_finite() && *a > 0.0),
            "module areas must be positive and finite"
        );
        ModuleAreas { areas }
    }

    /// Uniform areas (every module has area 1), the paper's setting for
    /// test/hardware-simulation applications.
    pub fn uniform(num_modules: usize) -> Self {
        ModuleAreas {
            areas: vec![1.0; num_modules],
        }
    }

    /// Number of modules covered.
    pub fn len(&self) -> usize {
        self.areas.len()
    }

    /// Returns `true` if no modules are covered.
    pub fn is_empty(&self) -> bool {
        self.areas.is_empty()
    }

    /// Area of module `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn area(&self, m: ModuleId) -> f64 {
        self.areas[m.index()]
    }

    /// Total area.
    pub fn total(&self) -> f64 {
        self.areas.iter().sum()
    }

    /// The raw area slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.areas
    }
}

/// Cut statistics of a bipartition under module areas.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AreaCutStats {
    /// Number of nets with pins on both sides.
    pub cut_nets: usize,
    /// Total area of the left block.
    pub left_area: f64,
    /// Total area of the right block.
    pub right_area: f64,
}

impl AreaCutStats {
    /// The area-weighted ratio cut `cut / (area(U) · area(W))`, or `+∞`
    /// when a side is empty.
    pub fn ratio(&self) -> f64 {
        if self.left_area <= 0.0 || self.right_area <= 0.0 {
            f64::INFINITY
        } else {
            self.cut_nets as f64 / (self.left_area * self.right_area)
        }
    }

    /// Paper-style `a:b` area report, smaller side first, rounded.
    pub fn areas(&self) -> String {
        let (a, b) = if self.left_area <= self.right_area {
            (self.left_area, self.right_area)
        } else {
            (self.right_area, self.left_area)
        };
        format!("{:.0}:{:.0}", a, b)
    }
}

impl fmt::Display for AreaCutStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cut={} areas={} ratio={:.3e}",
            self.cut_nets,
            self.areas(),
            self.ratio()
        )
    }
}

/// Scores `partition` against `hg` under module areas in `O(pins)`.
///
/// # Panics
///
/// Panics if the sizes of `hg`, `partition` and `areas` disagree.
pub fn area_cut_stats(
    hg: &Hypergraph,
    partition: &Bipartition,
    areas: &ModuleAreas,
) -> AreaCutStats {
    assert_eq!(partition.len(), hg.num_modules(), "partition size mismatch");
    assert_eq!(areas.len(), hg.num_modules(), "area vector size mismatch");
    let cut_nets = partition.cut_stats(hg).cut_nets;
    let mut left_area = 0.0;
    let mut right_area = 0.0;
    for m in hg.modules() {
        match partition.side(m) {
            Side::Left => left_area += areas.area(m),
            Side::Right => right_area += areas.area(m),
        }
    }
    AreaCutStats {
        cut_nets,
        left_area,
        right_area,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph_from_nets;

    #[test]
    fn uniform_areas_match_count_metric() {
        let hg = hypergraph_from_nets(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let p = Bipartition::from_left_set(4, [ModuleId(0), ModuleId(1)]);
        let a = area_cut_stats(&hg, &p, &ModuleAreas::uniform(4));
        let s = p.cut_stats(&hg);
        assert_eq!(a.cut_nets, s.cut_nets);
        assert!((a.ratio() - s.ratio()).abs() < 1e-12);
        assert_eq!(a.areas(), "2:2");
    }

    #[test]
    fn heavy_module_shifts_ratio() {
        let hg = hypergraph_from_nets(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let p = Bipartition::from_left_set(4, [ModuleId(0)]);
        let areas = ModuleAreas::new(vec![10.0, 1.0, 1.0, 1.0]);
        let a = area_cut_stats(&hg, &p, &areas);
        // left area 10, right 3: ratio 1/30 beats the count ratio 1/3
        assert!((a.ratio() - 1.0 / 30.0).abs() < 1e-12);
        assert_eq!(a.areas(), "3:10");
    }

    #[test]
    fn empty_side_is_infinite() {
        let hg = hypergraph_from_nets(2, &[vec![0, 1]]);
        let p = Bipartition::uniform(2, Side::Left);
        let a = area_cut_stats(&hg, &p, &ModuleAreas::uniform(2));
        assert_eq!(a.ratio(), f64::INFINITY);
    }

    #[test]
    fn total_and_accessors() {
        let areas = ModuleAreas::new(vec![1.5, 2.5]);
        assert_eq!(areas.total(), 4.0);
        assert_eq!(areas.area(ModuleId(1)), 2.5);
        assert_eq!(areas.len(), 2);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_nonpositive_area() {
        ModuleAreas::new(vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_nan_area() {
        ModuleAreas::new(vec![f64::NAN]);
    }
}
