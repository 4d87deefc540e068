//! Core floorplans and per-block power maps.
//!
//! The paper bases its floorplan on AMD Ryzen (Section 7.1.3) and, for the
//! M3D thermal experiment, conservatively assumes a 50% footprint reduction.

/// A rectangular block of a floorplan. Coordinates are in metres, relative
/// to the chip's lower-left corner.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Unit name ("IQ", "FPU", ...).
    pub name: String,
    /// Left edge, metres.
    pub x_m: f64,
    /// Bottom edge, metres.
    pub y_m: f64,
    /// Width, metres.
    pub w_m: f64,
    /// Height, metres.
    pub h_m: f64,
}

impl Block {
    /// Block area in square metres.
    pub fn area_m2(&self) -> f64 {
        self.w_m * self.h_m
    }

    /// Whether the point `(x, y)` lies inside the block.
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.x_m && x < self.x_m + self.w_m && y >= self.y_m && y < self.y_m + self.h_m
    }
}

/// A floorplan: chip dimensions plus a set of non-overlapping blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    /// Chip width, metres.
    pub width_m: f64,
    /// Chip height, metres.
    pub height_m: f64,
    /// The functional blocks.
    pub blocks: Vec<Block>,
}

/// Fraction of core area taken by each Ryzen-like unit, in layout order.
/// Derived from annotated Zen die shots: the FPU and the load/store + L1D
/// region dominate; the scheduler (IQ) and register file are small but hot.
const RYZEN_UNITS: [(&str, f64); 9] = [
    ("Fetch+BPU", 0.14),
    ("IL1", 0.08),
    ("Decode+Rename", 0.12),
    ("IQ", 0.07),
    ("RF", 0.05),
    ("ALU", 0.12),
    ("FPU", 0.18),
    ("LSU+DL1", 0.16),
    ("L2ctl", 0.08),
];

impl Floorplan {
    /// A Ryzen-like single-core floorplan with the given total area (m²).
    /// Blocks are laid out in three rows, preserving the unit area shares.
    ///
    /// # Panics
    ///
    /// Panics if `area_m2` is not positive and finite.
    pub fn ryzen_like(area_m2: f64) -> Self {
        assert!(
            area_m2.is_finite() && area_m2 > 0.0,
            "area must be positive, got {area_m2}"
        );
        let side = area_m2.sqrt();
        let rows: [&[usize]; 3] = [&[0, 1, 2], &[3, 4, 5], &[6, 7, 8]];
        let mut blocks = Vec::new();
        let mut y = 0.0;
        for row in rows {
            let row_share: f64 = row.iter().map(|&i| RYZEN_UNITS[i].1).sum();
            let row_total: f64 = RYZEN_UNITS.iter().map(|u| u.1).sum();
            let row_h = side * row_share / row_total;
            let mut x = 0.0;
            for &i in row {
                let (name, share) = RYZEN_UNITS[i];
                let w = side * share / row_share;
                blocks.push(Block {
                    name: name.to_owned(),
                    x_m: x,
                    y_m: y,
                    w_m: w,
                    h_m: row_h,
                });
                x += w;
            }
            y += row_h;
        }
        Self {
            width_m: side,
            height_m: side,
            blocks,
        }
    }

    /// The same floorplan folded to a fraction of its area (linear dims scale
    /// by `sqrt(scale)`), as when a core is split across two M3D layers.
    pub fn scaled(&self, area_scale: f64) -> Self {
        assert!(area_scale > 0.0, "scale must be positive");
        let s = area_scale.sqrt();
        Self {
            width_m: self.width_m * s,
            height_m: self.height_m * s,
            blocks: self
                .blocks
                .iter()
                .map(|b| Block {
                    name: b.name.clone(),
                    x_m: b.x_m * s,
                    y_m: b.y_m * s,
                    w_m: b.w_m * s,
                    h_m: b.h_m * s,
                })
                .collect(),
        }
    }

    /// Index of a block by name.
    pub fn block_index(&self, name: &str) -> Option<usize> {
        self.blocks.iter().position(|b| b.name == name)
    }

    /// Total block area (m²).
    pub fn blocks_area_m2(&self) -> f64 {
        self.blocks.iter().map(Block::area_m2).sum()
    }

    /// A power map that spreads `total_w` over the blocks proportionally to
    /// their area (a uniform power density).
    pub fn uniform_power(&self, total_w: f64) -> Vec<f64> {
        let total_area = self.blocks_area_m2();
        self.blocks
            .iter()
            .map(|b| total_w * b.area_m2() / total_area)
            .collect()
    }

    /// A power map from named per-block watts; unnamed blocks get zero.
    ///
    /// # Panics
    ///
    /// Panics if a named block does not exist in the floorplan.
    pub fn power_from_named(&self, named: &[(&str, f64)]) -> Vec<f64> {
        let mut v = vec![0.0; self.blocks.len()];
        for (name, w) in named {
            let i = self
                .block_index(name)
                .unwrap_or_else(|| panic!("no block named {name}"));
            v[i] += w;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ryzen_like_covers_requested_area() {
        let fp = Floorplan::ryzen_like(9.0e-6);
        let total: f64 = fp.blocks_area_m2();
        assert!((total - 9.0e-6).abs() / 9.0e-6 < 1e-9);
        assert_eq!(fp.blocks.len(), 9);
    }

    #[test]
    fn blocks_tile_without_overlap() {
        let fp = Floorplan::ryzen_like(4.0e-6);
        // Probe a grid of points: each is inside exactly one block.
        for i in 0..20 {
            for j in 0..20 {
                let x = (i as f64 + 0.5) / 20.0 * fp.width_m;
                let y = (j as f64 + 0.5) / 20.0 * fp.height_m;
                let n = fp.blocks.iter().filter(|b| b.contains(x, y)).count();
                assert_eq!(n, 1, "point ({i},{j}) covered by {n} blocks");
            }
        }
    }

    #[test]
    fn scaled_halves_area() {
        let fp = Floorplan::ryzen_like(9.0e-6);
        let half = fp.scaled(0.5);
        assert!((half.blocks_area_m2() - 4.5e-6).abs() < 1e-12);
        // Names and relative positions preserved.
        assert_eq!(half.blocks.len(), fp.blocks.len());
        assert_eq!(half.blocks[0].name, fp.blocks[0].name);
    }

    #[test]
    fn uniform_power_sums_to_total() {
        let fp = Floorplan::ryzen_like(9.0e-6);
        let p = fp.uniform_power(6.4);
        let sum: f64 = p.iter().sum();
        assert!((sum - 6.4).abs() < 1e-9);
    }

    #[test]
    fn named_power_assignment() {
        let fp = Floorplan::ryzen_like(9.0e-6);
        let p = fp.power_from_named(&[("IQ", 1.0), ("FPU", 2.0)]);
        assert!((p.iter().sum::<f64>() - 3.0).abs() < 1e-12);
        assert!(p[fp.block_index("FPU").unwrap()] == 2.0);
    }

    #[test]
    #[should_panic(expected = "no block named")]
    fn rejects_unknown_block() {
        let fp = Floorplan::ryzen_like(9.0e-6);
        let _ = fp.power_from_named(&[("GPU", 1.0)]);
    }
}
