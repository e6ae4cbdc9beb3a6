//! Strongly-typed coordinate wrappers.
//!
//! Two coordinate frames appear in the pipeline: geographic (latitude /
//! longitude on WGS 84) and projected map coordinates (metres in the
//! EPSG-3976 plane). Mixing them up is an easy and catastrophic bug, so the
//! two get distinct types.

use serde::{Deserialize, Serialize};

/// A geographic point: geodetic latitude and longitude in **degrees**
/// on the WGS 84 ellipsoid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    /// Geodetic latitude, degrees, positive north.
    pub lat: f64,
    /// Longitude, degrees, positive east, in `[-180, 180]`.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point, normalising the longitude into `[-180, 180]`.
    pub fn new(lat: f64, lon: f64) -> Self {
        Self {
            lat,
            lon: normalize_lon(lon),
        }
    }

    /// Latitude in radians.
    pub fn lat_rad(&self) -> f64 {
        self.lat * crate::DEG2RAD
    }
}

/// A projected point in a polar-stereographic plane, metres.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MapPoint {
    /// Easting, metres.
    pub x: f64,
    /// Northing, metres.
    pub y: f64,
}

impl MapPoint {
    /// Creates a projected point.
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other` in the projection plane, metres.
    pub fn dist(&self, other: MapPoint) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Translates the point by `(dx, dy)` metres. Used by the Sentinel-2
    /// drift-shift correction.
    pub fn shifted(&self, dx: f64, dy: f64) -> MapPoint {
        MapPoint::new(self.x + dx, self.y + dy)
    }
}

/// Normalises a longitude in degrees into `[-180, 180]`.
///
/// A longitude already in `[-180, 180)` skips the floating-point
/// remainder (a libm call): `x % 360` is exactly `x` for `0 <= x < 360`,
/// so both branches give the same bits.
#[inline]
pub fn normalize_lon(lon: f64) -> f64 {
    let shifted = lon + 180.0;
    let mut l = if (0.0..360.0).contains(&shifted) {
        shifted
    } else {
        rem_360(shifted)
    };
    if l < 0.0 {
        l += 360.0;
    }
    l - 180.0
}

/// The remainder off [`normalize_lon`]'s common path. Out of line, so
/// the compiler cannot turn the branch into a select that computes the
/// remainder for every longitude.
#[cold]
#[inline(never)]
fn rem_360(x: f64) -> f64 {
    x % 360.0
}

/// Compass direction of a displacement vector `(dx, dy)` in a projected
/// plane where `+y` is grid north, reported as one of the eight principal
/// winds. The paper's Table I reports S2 shifts this way (e.g. "550 m / NW").
pub fn compass_direction(dx: f64, dy: f64) -> &'static str {
    if dx == 0.0 && dy == 0.0 {
        return "-";
    }
    // Angle measured clockwise from north.
    let ang = dx.atan2(dy).to_degrees();
    let ang = if ang < 0.0 { ang + 360.0 } else { ang };
    const WINDS: [&str; 8] = ["N", "NE", "E", "SE", "S", "SW", "W", "NW"];
    let idx = ((ang + 22.5) / 45.0).floor() as usize % 8;
    WINDS[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longitude_normalisation_wraps_both_ways() {
        assert!((normalize_lon(190.0) - -170.0).abs() < 1e-12);
        assert!((normalize_lon(-190.0) - 170.0).abs() < 1e-12);
        assert!(
            (normalize_lon(540.0) - 180.0).abs() < 1e-9
                || (normalize_lon(540.0) + 180.0).abs() < 1e-9
        );
        assert_eq!(normalize_lon(0.0), 0.0);
    }

    /// The in-range shortcut gives the bits of the plain remainder
    /// formula, on and off the common path.
    #[test]
    fn longitude_shortcut_matches_the_remainder_formula() {
        let plain = |lon: f64| {
            let mut l = (lon + 180.0) % 360.0;
            if l < 0.0 {
                l += 360.0;
            }
            l - 180.0
        };
        let mut lons = vec![
            -180.0,
            180.0,
            -0.0,
            0.0,
            1e-300,
            -1e-300,
            179.999_999_999_999_97,
            -180.000_000_000_000_03,
            540.0,
            -540.0,
            1e12,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
        ];
        lons.extend((-4000..4000).map(|i| i as f64 * 0.137_1));
        for lon in lons {
            assert_eq!(normalize_lon(lon).to_bits(), plain(lon).to_bits(), "{lon}");
        }
    }

    #[test]
    fn map_point_distance_is_euclidean() {
        let a = MapPoint::new(0.0, 0.0);
        let b = MapPoint::new(3.0, 4.0);
        assert!((a.dist(b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn shifted_translates() {
        let a = MapPoint::new(10.0, -5.0).shifted(-10.0, 5.0);
        assert_eq!(a, MapPoint::new(0.0, 0.0));
    }

    #[test]
    fn compass_principal_winds() {
        assert_eq!(compass_direction(0.0, 1.0), "N");
        assert_eq!(compass_direction(1.0, 1.0), "NE");
        assert_eq!(compass_direction(1.0, 0.0), "E");
        assert_eq!(compass_direction(1.0, -1.0), "SE");
        assert_eq!(compass_direction(0.0, -1.0), "S");
        assert_eq!(compass_direction(-1.0, -1.0), "SW");
        assert_eq!(compass_direction(-1.0, 0.0), "W");
        assert_eq!(compass_direction(-1.0, 1.0), "NW");
        assert_eq!(compass_direction(0.0, 0.0), "-");
    }
}
