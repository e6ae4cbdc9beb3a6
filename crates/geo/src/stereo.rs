//! Polar stereographic projection (EPSG "variant B": secant at a standard
//! parallel), implemented per Snyder, *Map Projections — A Working Manual*
//! (USGS PP 1395), equations 21-33..21-40 and 7-9/3-5.
//!
//! The pipeline uses **EPSG 3976** (WGS 84 / NSIDC Sea Ice Polar
//! Stereographic South): south aspect, standard parallel 70° S, central
//! meridian 0° E, false easting/northing 0. Both the IS2 track and the S2
//! raster are projected with it before label transfer (paper Section
//! III-A-3).

use crate::point::{GeoPoint, MapPoint};
use crate::wgs84;
use crate::{DEG2RAD, RAD2DEG};

/// Projection aspect: which pole sits at the projection origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aspect {
    /// North pole at the origin (e.g. EPSG 3413).
    North,
    /// South pole at the origin (e.g. EPSG 3976).
    South,
}

/// A configured polar stereographic projection on the WGS 84 ellipsoid.
#[derive(Debug, Clone, Copy)]
pub struct PolarStereographic {
    aspect: Aspect,
    /// Central meridian, degrees.
    lon0_deg: f64,
    /// False easting, metres.
    false_easting: f64,
    /// False northing, metres.
    false_northing: f64,
    // Precomputed constants.
    e: f64,
    t_c: f64,
    m_c: f64,
}

/// EPSG 3976: WGS 84 / NSIDC Sea Ice Polar Stereographic South.
pub static EPSG_3976: std::sync::LazyLock<PolarStereographic> =
    std::sync::LazyLock::new(|| PolarStereographic::new(Aspect::South, -70.0, 0.0, 0.0, 0.0));

impl PolarStereographic {
    /// Builds a projection. `lat_ts_deg` is the (signed) standard parallel;
    /// it must match the aspect (negative for [`Aspect::South`]).
    pub fn new(
        aspect: Aspect,
        lat_ts_deg: f64,
        lon0_deg: f64,
        false_easting: f64,
        false_northing: f64,
    ) -> Self {
        assert!(
            (aspect == Aspect::South) == (lat_ts_deg < 0.0),
            "standard parallel sign must match aspect"
        );
        let e = wgs84::eccentricity();
        // Work in the north-aspect frame: for a south projection the
        // transformed standard parallel is |lat_ts|.
        let phi_c = lat_ts_deg.abs() * DEG2RAD;
        let t_c = half_angle_t(phi_c, e);
        let s = phi_c.sin();
        let m_c = phi_c.cos() / (1.0 - wgs84::ECC2 * s * s).sqrt();
        Self {
            aspect,
            lon0_deg,
            false_easting,
            false_northing,
            e,
            t_c,
            m_c,
        }
    }

    #[inline]
    fn constants(&self) -> (f64, f64, f64) {
        (self.e, self.t_c, self.m_c)
    }

    /// Projects a geographic point to map coordinates (metres).
    pub fn forward(&self, p: GeoPoint) -> MapPoint {
        let (e, t_c, m_c) = self.constants();
        // South aspect: transform phi -> -phi, lam -> -lam, lam0 -> -lam0,
        // then negate x and y (Snyder p. 161).
        let (phi, dlam) = match self.aspect {
            Aspect::North => (p.lat_rad(), (p.lon - self.lon0_deg) * DEG2RAD),
            Aspect::South => (-p.lat_rad(), -(p.lon - self.lon0_deg) * DEG2RAD),
        };
        let t = half_angle_t(phi, e);
        let rho = wgs84::SEMI_MAJOR_M * m_c * t / t_c;
        let (mut x, mut y) = (rho * dlam.sin(), -rho * dlam.cos());
        if self.aspect == Aspect::South {
            x = -x;
            y = -y;
        }
        MapPoint::new(x + self.false_easting, y + self.false_northing)
    }

    /// Inverse projection: map coordinates (metres) back to geographic.
    pub fn inverse(&self, m: MapPoint) -> GeoPoint {
        let (e, t_c, m_c) = self.constants();
        let (mut x, mut y) = (m.x - self.false_easting, m.y - self.false_northing);
        if self.aspect == Aspect::South {
            x = -x;
            y = -y;
        }
        let rho = (x * x + y * y).sqrt();
        if rho < 1e-9 {
            let lat = match self.aspect {
                Aspect::North => 90.0,
                Aspect::South => -90.0,
            };
            return GeoPoint::new(lat, self.lon0_deg);
        }
        let t = rho * t_c / (wgs84::SEMI_MAJOR_M * m_c);
        let chi = std::f64::consts::FRAC_PI_2 - 2.0 * t.atan();
        let phi = conformal_to_geodetic(chi, e);
        let dlam = x.atan2(-y);
        let (lat, lon) = match self.aspect {
            Aspect::North => (phi * RAD2DEG, self.lon0_deg + dlam * RAD2DEG),
            Aspect::South => (-phi * RAD2DEG, self.lon0_deg - dlam * RAD2DEG),
        };
        GeoPoint::new(lat, lon)
    }

    /// Local scale factor `k` of the projection at latitude `lat_deg`
    /// (Snyder 21-32): 1.0 exactly at the standard parallel.
    pub fn scale_factor(&self, lat_deg: f64) -> f64 {
        let (e, t_c, m_c) = self.constants();
        let phi = match self.aspect {
            Aspect::North => lat_deg * DEG2RAD,
            Aspect::South => -lat_deg * DEG2RAD,
        };
        let t = half_angle_t(phi, e);
        let rho = wgs84::SEMI_MAJOR_M * m_c * t / t_c;
        let s = phi.sin();
        let m = phi.cos() / (1.0 - wgs84::ECC2 * s * s).sqrt();
        rho / (wgs84::SEMI_MAJOR_M * m)
    }
}

/// Snyder 15-9: the isometric half-angle function
/// `t(φ) = tan(π/4 − φ/2) · [(1 + e sinφ)/(1 − e sinφ)]^{e/2}`.
#[inline]
fn half_angle_t(phi: f64, e: f64) -> f64 {
    let s = phi.sin();
    (std::f64::consts::FRAC_PI_4 - phi / 2.0).tan() * ((1.0 + e * s) / (1.0 - e * s)).powf(e / 2.0)
}

/// Series expansion (Snyder 3-5) converting conformal latitude `chi` to
/// geodetic latitude.
#[inline]
fn conformal_to_geodetic(chi: f64, e: f64) -> f64 {
    let e2 = e * e;
    let e4 = e2 * e2;
    let e6 = e4 * e2;
    let e8 = e4 * e4;
    chi + (e2 / 2.0 + 5.0 * e4 / 24.0 + e6 / 12.0 + 13.0 * e8 / 360.0) * (2.0 * chi).sin()
        + (7.0 * e4 / 48.0 + 29.0 * e6 / 240.0 + 811.0 * e8 / 11520.0) * (4.0 * chi).sin()
        + (7.0 * e6 / 120.0 + 81.0 * e8 / 1120.0) * (6.0 * chi).sin()
        + (4279.0 * e8 / 161280.0) * (8.0 * chi).sin()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// EPSG Guidance Note 7-2 worked example for Polar Stereographic
    /// variant B (EPSG 3032, Australian Antarctic): φc = 71° S, λ0 = 70° E,
    /// FE = FN = 6 000 000 m. Input 75° S, 120° E →
    /// E = 7 255 380.79 m, N = 7 053 389.56 m.
    #[test]
    fn epsg_guidance_worked_example_forward() {
        let proj = PolarStereographic::new(Aspect::South, -71.0, 70.0, 6_000_000.0, 6_000_000.0);
        let m = proj.forward(GeoPoint::new(-75.0, 120.0));
        assert!((m.x - 7_255_380.79).abs() < 0.05, "easting {}", m.x);
        assert!((m.y - 7_053_389.56).abs() < 0.05, "northing {}", m.y);
    }

    #[test]
    fn epsg_guidance_worked_example_inverse() {
        let proj = PolarStereographic::new(Aspect::South, -71.0, 70.0, 6_000_000.0, 6_000_000.0);
        let g = proj.inverse(MapPoint::new(7_255_380.79, 7_053_389.56));
        assert!((g.lat - -75.0).abs() < 1e-7, "lat {}", g.lat);
        assert!((g.lon - 120.0).abs() < 1e-7, "lon {}", g.lon);
    }

    #[test]
    fn epsg3976_pole_maps_to_origin() {
        let m = EPSG_3976.forward(GeoPoint::new(-90.0, 0.0));
        assert!(m.x.abs() < 1e-6 && m.y.abs() < 1e-6);
        let g = EPSG_3976.inverse(MapPoint::new(0.0, 0.0));
        assert!((g.lat - -90.0).abs() < 1e-9);
    }

    #[test]
    fn epsg3976_central_meridian_has_zero_easting() {
        // Points on the central meridian (0 deg E) map to x = 0 with y > 0
        // in the south aspect (grid north points along 0E away from pole).
        let m = EPSG_3976.forward(GeoPoint::new(-75.0, 0.0));
        assert!(m.x.abs() < 1e-6);
        assert!(m.y > 0.0);
    }

    #[test]
    fn epsg3976_ross_sea_quadrant() {
        // The Ross Sea sits near 180 deg longitude; in EPSG 3976 that's
        // negative y. Check a representative point lands in y < 0.
        let m = EPSG_3976.forward(GeoPoint::new(-74.0, -170.0));
        assert!(m.y < 0.0, "Ross Sea should be y<0, got {m:?}");
    }

    #[test]
    fn scale_factor_is_unity_at_standard_parallel() {
        let k = EPSG_3976.scale_factor(-70.0);
        assert!((k - 1.0).abs() < 1e-12, "k = {k}");
        // Secant projection: scale < 1 poleward of the standard parallel,
        // > 1 equatorward.
        assert!(EPSG_3976.scale_factor(-80.0) < 1.0);
        assert!(EPSG_3976.scale_factor(-60.0) > 1.0);
    }

    #[test]
    fn roundtrip_across_ross_sea() {
        for &lat in &[-78.0, -76.0, -74.0, -72.0, -70.0] {
            for &lon in &[-180.0, -170.0, -160.0, -150.0, -140.0] {
                let p = GeoPoint::new(lat, lon);
                let g = EPSG_3976.inverse(EPSG_3976.forward(p));
                assert!((g.lat - p.lat).abs() < 1e-9, "{p:?} -> {g:?}");
                let mut dlon = (g.lon - p.lon).abs();
                if dlon > 180.0 {
                    dlon = 360.0 - dlon;
                }
                assert!(dlon < 1e-9, "{p:?} -> {g:?}");
            }
        }
    }

    #[test]
    fn north_aspect_roundtrip() {
        // EPSG 3413-like: north aspect, 70 N standard parallel, -45 E.
        let proj = PolarStereographic::new(Aspect::North, 70.0, -45.0, 0.0, 0.0);
        let p = GeoPoint::new(82.5, 123.0);
        let g = proj.inverse(proj.forward(p));
        assert!((g.lat - p.lat).abs() < 1e-9);
        assert!((g.lon - p.lon).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "standard parallel sign")]
    fn mismatched_aspect_panics() {
        let _ = PolarStereographic::new(Aspect::South, 70.0, 0.0, 0.0, 0.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Forward/inverse round-trip over the whole southern polar cap.
            #[test]
            fn roundtrip_southern_cap(lat in -89.5f64..-55.0, lon in -180.0f64..180.0) {
                let p = GeoPoint::new(lat, lon);
                let g = EPSG_3976.inverse(EPSG_3976.forward(p));
                prop_assert!((g.lat - p.lat).abs() < 1e-8);
                let mut dlon = (g.lon - p.lon).abs();
                if dlon > 180.0 { dlon = 360.0 - dlon; }
                prop_assert!(dlon < 1e-8);
            }

            /// Forward/inverse closure in *map metres*: project, invert,
            /// re-project, and require the two map points to agree to
            /// sub-millimetre over the whole southern cap including
            /// near-pole latitudes — the tiling correctness bound the
            /// catalog's cell addressing rests on.
            #[test]
            fn forward_inverse_closure_sub_mm_south(lat in -89.9999f64..-50.0, lon in -180.0f64..180.0) {
                let m = EPSG_3976.forward(GeoPoint::new(lat, lon));
                let m2 = EPSG_3976.forward(EPSG_3976.inverse(m));
                prop_assert!(m.dist(m2) < 1e-3, "closure {} m at {lat},{lon}", m.dist(m2));
            }

            /// The same sub-millimetre closure for a northern-aspect
            /// projection (EPSG 3413-like), including near-pole latitudes.
            #[test]
            fn forward_inverse_closure_sub_mm_north(lat in 50.0f64..89.9999, lon in -180.0f64..180.0) {
                let proj = PolarStereographic::new(Aspect::North, 70.0, -45.0, 0.0, 0.0);
                let m = proj.forward(GeoPoint::new(lat, lon));
                let m2 = proj.forward(proj.inverse(m));
                prop_assert!(m.dist(m2) < 1e-3, "closure {} m at {lat},{lon}", m.dist(m2));
            }

            /// Geographic round-trip stays tight right up against both
            /// poles (the quadtree root cells sit there).
            #[test]
            fn roundtrip_near_poles(dlat in 0.0f64..0.1, lon in -180.0f64..180.0) {
                let south = GeoPoint::new(-89.9 - dlat, lon);
                let gs = EPSG_3976.inverse(EPSG_3976.forward(south));
                prop_assert!((gs.lat - south.lat).abs() < 1e-8);
                let proj = PolarStereographic::new(Aspect::North, 70.0, -45.0, 0.0, 0.0);
                let north = GeoPoint::new(89.9 + dlat, lon);
                let gn = proj.inverse(proj.forward(north));
                prop_assert!((gn.lat - north.lat).abs() < 1e-8);
            }

            /// Local distances survive projection to within the secant
            /// scale distortion (< 4% across the cap we use).
            #[test]
            fn local_distance_preserved(lat in -78.0f64..-70.0, lon in -180.0f64..-140.0) {
                let p = GeoPoint::new(lat, lon);
                let q = GeoPoint::new(lat, lon + 0.001); // ~30 m east
                let dp = EPSG_3976.forward(p).dist(EPSG_3976.forward(q));
                let dg = crate::distance::haversine_m(p, q);
                prop_assert!((dp / dg - 1.0).abs() < 0.04, "dp={dp} dg={dg}");
            }
        }
    }
}
