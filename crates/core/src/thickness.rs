//! Sea-ice thickness from freeboard (the paper's stated next step).
//!
//! The conclusion of the paper points at "polar-wide scale freeboard and
//! even thickness products"; the standard conversion (e.g. the OLMi
//! lineage the paper cites as ref. \[11\], and Kwok et al.'s
//! freeboard-to-thickness chain) assumes hydrostatic equilibrium of an
//! ice slab with a snow load:
//!
//! ```text
//! ρw·(T + s − hf) = ρi·T + ρs·s
//! T = (ρw·hf + (ρs − ρw)·s) / (ρw − ρi)
//! ```
//!
//! with `T` ice thickness, `hf` *total* freeboard (snow surface above
//! water — what a lidar measures), `s` snow depth, and densities
//! ρw/ρi/ρs. Snow depth is not observable from ICESat-2 alone; we provide
//! the common Antarctic parameterisations (fixed fraction of freeboard,
//! or zero-ice-freeboard) as explicit strategies.

use serde::{Deserialize, Serialize};

/// Densities, kg/m³.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Densities {
    /// Sea water (≈1024).
    pub water: f64,
    /// Sea ice (≈915 for first-year Antarctic ice).
    pub ice: f64,
    /// Snow (≈320).
    pub snow: f64,
}

impl Default for Densities {
    fn default() -> Self {
        Densities {
            water: 1024.0,
            ice: 915.0,
            snow: 320.0,
        }
    }
}

/// How to estimate the snow depth riding on the measured freeboard.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SnowModel {
    /// No snow: the freeboard is bare ice.
    None,
    /// Snow depth is a fixed fraction of the total freeboard (Ross Sea
    /// climatologies put it around 0.6–0.8 on thick ice).
    FreeboardFraction(f64),
    /// The zero-ice-freeboard assumption common in the Southern Ocean:
    /// the snow load pushes the ice surface to the waterline, so the
    /// entire lidar freeboard is snow.
    ZeroIceFreeboard,
}

impl SnowModel {
    /// Snow depth for a given total freeboard, metres.
    pub fn snow_depth(&self, freeboard_m: f64) -> f64 {
        match *self {
            SnowModel::None => 0.0,
            SnowModel::FreeboardFraction(f) => (freeboard_m * f).max(0.0),
            SnowModel::ZeroIceFreeboard => freeboard_m.max(0.0),
        }
    }
}

/// Converts one total (snow) freeboard to ice thickness, metres.
/// Negative freeboards (wave noise over water, flooded ice) clamp to 0.
pub fn thickness_from_freeboard(freeboard_m: f64, snow: SnowModel, rho: Densities) -> f64 {
    assert!(rho.water > rho.ice, "ice must float");
    let hf = freeboard_m.max(0.0);
    let s = snow.snow_depth(hf).min(hf);
    let t = (rho.water * hf + (rho.snow - rho.water) * s) / (rho.water - rho.ice);
    t.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_ice_thickness_is_hydrostatic() {
        // hf = 0.3 m bare ice: T = ρw·hf/(ρw−ρi) = 1024·0.3/109 ≈ 2.82 m.
        let t = thickness_from_freeboard(0.3, SnowModel::None, Densities::default());
        assert!((t - 1024.0 * 0.3 / 109.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn snow_load_reduces_inferred_thickness() {
        let rho = Densities::default();
        let none = thickness_from_freeboard(0.3, SnowModel::None, rho);
        let half = thickness_from_freeboard(0.3, SnowModel::FreeboardFraction(0.5), rho);
        let zif = thickness_from_freeboard(0.3, SnowModel::ZeroIceFreeboard, rho);
        assert!(none > half && half > zif, "{none} {half} {zif}");
        // Zero-ice-freeboard closed form: ρw·T = ρi·T + ρs·s with s = hf
        // ⇒ T = ρs·hf/(ρw − ρi).
        assert!((zif - 320.0 * 0.3 / 109.0).abs() < 1e-9, "zif = {zif}");
    }

    #[test]
    fn negative_freeboard_clamps_to_zero() {
        let t = thickness_from_freeboard(-0.1, SnowModel::None, Densities::default());
        assert_eq!(t, 0.0);
    }

    #[test]
    fn antarctic_scale_sanity() {
        // Ross Sea first-year ice: 0.3 m freeboard with 70% snow cover
        // should land in the 1–2 m range the paper's refs report.
        let t =
            thickness_from_freeboard(0.3, SnowModel::FreeboardFraction(0.7), Densities::default());
        assert!((0.8..2.5).contains(&t), "t = {t}");
    }

    #[test]
    fn thicker_ice_from_larger_freeboard_monotone() {
        let rho = Densities::default();
        let mut prev = 0.0;
        for i in 0..20 {
            let hf = i as f64 * 0.05;
            let t = thickness_from_freeboard(hf, SnowModel::FreeboardFraction(0.6), rho);
            assert!(t >= prev, "not monotone at hf={hf}");
            prev = t;
        }
    }

    #[test]
    #[should_panic(expected = "ice must float")]
    fn unphysical_densities_panic() {
        let rho = Densities {
            water: 900.0,
            ice: 915.0,
            snow: 320.0,
        };
        let _ = thickness_from_freeboard(0.3, SnowModel::None, rho);
    }
}
