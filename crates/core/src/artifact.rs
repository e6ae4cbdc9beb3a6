//! Binary persistence for the staged pipeline artifacts.
//!
//! Every stage artifact ([`crate::stages`]) is a plain value; this module
//! gives each one a compact, versioned, endian-stable binary form so a
//! stage can be computed once, written to disk, and consumed later (or on
//! another worker — [`crate::fleet::FleetDriver`] broadcasts a serialized
//! [`crate::stages::TrainedModels`] to its executors exactly the way Spark
//! broadcasts a fitted model).
//!
//! The format is deliberately serde-free (the workspace builds offline):
//! a [`Codec`] trait encodes fields in declaration order through
//! little-endian [`bytes`] buffers, and [`Artifact`] frames a codec body
//! with a per-type magic tag + format version, mirroring the `.a3g`
//! granule format in [`icesat_atl03::io`].

use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Errors from decoding an artifact buffer.
#[derive(Debug)]
pub enum ArtifactError {
    /// Buffer does not start with the artifact's magic tag.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Buffer ended prematurely.
    Truncated,
    /// A field held an invalid value.
    Invalid(&'static str),
    /// Underlying file I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::BadMagic => write!(f, "not the expected artifact type (bad magic)"),
            ArtifactError::BadVersion(v) => write!(f, "unsupported artifact version {v}"),
            ArtifactError::Truncated => write!(f, "artifact buffer truncated"),
            ArtifactError::Invalid(what) => write!(f, "invalid artifact field: {what}"),
            ArtifactError::Io(e) => write!(f, "artifact io error: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

// The `put_*` / `take_*` primitives below, and the `bytes` cursor calls
// they wrap, are `#[inline]`: a tile or a wire frame is thousands of
// fixed-width fields, and the release profile builds without LTO, so
// without the hint every field read or write is a call across two crates
// with a length known only at run time. Inlined, a field read is a
// length check and a load.

/// Append-only encode sink.
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// Empty sink.
    pub fn new() -> Self {
        Writer {
            buf: BytesMut::with_capacity(1024),
        }
    }

    /// Finishes, returning the frozen buffer.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Appends raw bytes.
    #[inline]
    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends a little-endian `f32`.
    #[inline]
    pub fn put_f32(&mut self, v: f32) {
        self.buf.put_f32_le(v);
    }

    /// Appends a little-endian `f64`.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }
}

impl Default for Writer {
    fn default() -> Self {
        Writer::new()
    }
}

/// Checked decode cursor.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Cursor over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { buf: data }
    }

    /// Bytes left.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    #[inline]
    fn need(&self, n: usize) -> Result<(), ArtifactError> {
        if self.buf.remaining() < n {
            Err(ArtifactError::Truncated)
        } else {
            Ok(())
        }
    }

    /// Reads `n` raw bytes.
    #[inline]
    pub fn take_slice(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        self.need(n)?;
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads `N` raw bytes as a fixed-size array: one bounds check, after
    /// which the caller reads fields at constant offsets with none.
    #[inline]
    pub fn take_array<const N: usize>(&mut self) -> Result<&'a [u8; N], ArtifactError> {
        let (head, tail) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(ArtifactError::Truncated)?;
        self.buf = tail;
        Ok(head)
    }

    /// Reads one byte.
    #[inline]
    pub fn take_u8(&mut self) -> Result<u8, ArtifactError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn take_u16(&mut self) -> Result<u16, ArtifactError> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn take_u32(&mut self) -> Result<u32, ArtifactError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn take_u64(&mut self) -> Result<u64, ArtifactError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Reads a little-endian `f32`.
    #[inline]
    pub fn take_f32(&mut self) -> Result<f32, ArtifactError> {
        self.need(4)?;
        Ok(self.buf.get_f32_le())
    }

    /// Reads a little-endian `f64`.
    #[inline]
    pub fn take_f64(&mut self) -> Result<f64, ArtifactError> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }
}

/// Field-order binary encoding.
pub trait Codec: Sized {
    /// Appends `self` to the sink.
    fn encode(&self, w: &mut Writer);
    /// Reads one value from the cursor.
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError>;
}

// ---------------------------------------------------------------------------
// Primitives and containers.
// ---------------------------------------------------------------------------

macro_rules! codec_primitive {
    ($($t:ty => $put:ident / $take:ident),* $(,)?) => {$(
        impl Codec for $t {
            fn encode(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
                r.$take()
            }
        }
    )*};
}
codec_primitive!(
    u8 => put_u8 / take_u8,
    u16 => put_u16 / take_u16,
    u32 => put_u32 / take_u32,
    u64 => put_u64 / take_u64,
    f32 => put_f32 / take_f32,
    f64 => put_f64 / take_f64,
);

impl Codec for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        usize::try_from(r.take_u64()?).map_err(|_| ArtifactError::Invalid("usize overflow"))
    }
}

impl Codec for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ArtifactError::Invalid("bool")),
        }
    }
}

impl Codec for String {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.len() as u32);
        w.put_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let n = r.take_u32()? as usize;
        let raw = r.take_slice(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| ArtifactError::Invalid("utf8 string"))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let n = usize::decode(r)?;
        // Guard against absurd lengths from corrupt buffers: each element
        // takes at least one byte.
        if n > r.remaining() {
            return Err(ArtifactError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(ArtifactError::Invalid("option discriminant")),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    fn encode(&self, w: &mut Writer) {
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::decode(r)?;
        }
        Ok(out)
    }
}

/// Implements [`Codec`] for a plain struct by encoding its public fields
/// in the listed (declaration) order.
macro_rules! codec_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::artifact::Codec for $ty {
            fn encode(&self, w: &mut $crate::artifact::Writer) {
                $( $crate::artifact::Codec::encode(&self.$field, w); )+
            }
            fn decode(
                r: &mut $crate::artifact::Reader<'_>,
            ) -> Result<Self, $crate::artifact::ArtifactError> {
                Ok(Self {
                    $( $field: $crate::artifact::Codec::decode(r)?, )+
                })
            }
        }
    };
}
pub(crate) use codec_struct;

/// Implements [`Codec`] for a field-less enum through an index/constructor
/// pair.
macro_rules! codec_enum_index {
    ($ty:ty, $to:expr, $from:expr, $what:literal) => {
        impl $crate::artifact::Codec for $ty {
            fn encode(&self, w: &mut $crate::artifact::Writer) {
                #[allow(clippy::redundant_closure_call)]
                w.put_u8(($to)(*self));
            }
            fn decode(
                r: &mut $crate::artifact::Reader<'_>,
            ) -> Result<Self, $crate::artifact::ArtifactError> {
                let raw = r.take_u8()?;
                #[allow(clippy::redundant_closure_call)]
                ($from)(raw).ok_or($crate::artifact::ArtifactError::Invalid($what))
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Geometry / scene.
// ---------------------------------------------------------------------------

use icesat_geo::{BoundingBox, GeoPoint, MapPoint};
use icesat_scene::{DriftModel, SceneConfig, SurfaceClass};

codec_struct!(MapPoint { x, y });
codec_struct!(BoundingBox {
    lon_min,
    lon_max,
    lat_min,
    lat_max,
});

impl Codec for GeoPoint {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.lat);
        w.put_f64(self.lon);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let lat = r.take_f64()?;
        let lon = r.take_f64()?;
        // Through the constructor so the longitude-normalisation
        // invariant survives a hostile buffer.
        Ok(GeoPoint::new(lat, lon))
    }
}
codec_struct!(DriftModel { vx_mps, vy_mps });
codec_struct!(SceneConfig {
    seed,
    center,
    half_extent_m,
    n_leads,
    lead_half_width_m,
    lead_open_fraction,
    n_polynyas,
    polynya_semi_m,
    polynya_open_core,
    ssh_amplitude_m,
    ssh_wavelength_m,
    thick_freeboard_m,
    thick_freeboard_texture_m,
    thin_freeboard_m,
    water_roughness_m,
    ridges,
    drift,
});
codec_enum_index!(
    SurfaceClass,
    |c: SurfaceClass| c.index() as u8,
    |v: u8| SurfaceClass::from_index(v as usize),
    "surface class"
);

// ---------------------------------------------------------------------------
// ATL03.
// ---------------------------------------------------------------------------

use icesat_atl03::{
    Beam, BeamData, GeneratorConfig, Granule, GranuleMeta, Photon, PreprocessConfig,
    ResampleConfig, Segment, SignalConfidence,
};

codec_enum_index!(
    Beam,
    |b: Beam| b.index() as u8,
    |v: u8| Beam::ALL.get(v as usize).copied(),
    "beam index"
);
codec_enum_index!(
    SignalConfidence,
    |c: SignalConfidence| c.level(),
    SignalConfidence::from_level,
    "confidence level"
);
codec_struct!(GeneratorConfig {
    seed,
    strong_rate_per_pulse,
    weak_rate_factor,
    sigma_water_m,
    sigma_thin_m,
    sigma_thick_m,
    background_rate_per_pulse,
    window_half_height_m,
    dead_time_m,
    n_channels,
    pulse_interval_s,
});
codec_struct!(PreprocessConfig {
    min_confidence,
    median_window_m,
    max_deviation_m,
    window_height_m,
});
codec_struct!(ResampleConfig {
    window_m,
    min_photons,
    correct_first_photon_bias,
    dead_time_m,
    n_channels,
});
codec_struct!(Segment {
    index,
    along_track_m,
    lat,
    lon,
    n_photons,
    n_high_conf,
    n_background,
    mean_h_m,
    median_h_m,
    std_h_m,
    photon_rate,
    background_rate,
    fpb_correction_m,
});
codec_struct!(GranuleMeta {
    acquisition,
    rgt,
    cycle,
    release,
    epoch_offset_min,
});
codec_struct!(Photon {
    delta_time_s,
    lat,
    lon,
    height_m,
    along_track_m,
    confidence,
});
codec_struct!(BeamData { beam, photons });
codec_struct!(Granule { meta, beams });

// ---------------------------------------------------------------------------
// Sentinel-2.
// ---------------------------------------------------------------------------

use icesat_sentinel2::{
    Label, LabelRaster, PairConfig, RenderConfig, SegmentationConfig, SegmentationReport,
};

codec_struct!(RenderConfig {
    seed,
    pixel_size_m,
    sensor_noise,
    cloud_cover,
    cloud_scale_m,
    shadow_strength,
    shadow_offset_m,
    acquisition_offset_min,
    thick_cloud_threshold,
});
codec_struct!(SegmentationConfig {
    thick_cloud_t,
    max_shadow,
});
codec_struct!(PairConfig {
    render,
    segmentation,
});
codec_struct!(SegmentationReport {
    class_counts,
    cloud_pixels,
    mean_thin_cloud_t,
    mean_shadow_s,
});
codec_enum_index!(
    Label,
    |l: Label| match l {
        Label::Class(c) => c.index() as u8,
        Label::Cloud => 3,
    },
    |v: u8| match v {
        3 => Some(Label::Cloud),
        _ => SurfaceClass::from_index(v as usize).map(Label::Class),
    },
    "raster label"
);

impl Codec for LabelRaster {
    fn encode(&self, w: &mut Writer) {
        self.width().encode(w);
        self.height().encode(w);
        self.origin().encode(w);
        self.pixel_size_m().encode(w);
        self.data().to_vec().encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let width = usize::decode(r)?;
        let height = usize::decode(r)?;
        let origin = MapPoint::decode(r)?;
        let pixel_size_m = f64::decode(r)?;
        let data: Vec<Label> = Vec::decode(r)?;
        let expect_len = width
            .checked_mul(height)
            .ok_or(ArtifactError::Invalid("raster geometry"))?;
        if data.len() != expect_len || width == 0 || height == 0 || pixel_size_m <= 0.0 {
            return Err(ArtifactError::Invalid("raster geometry"));
        }
        Ok(LabelRaster::from_data(
            width,
            height,
            origin,
            pixel_size_m,
            data,
        ))
    }
}

// ---------------------------------------------------------------------------
// neurite (metrics + preprocessing).
// ---------------------------------------------------------------------------

use neurite::{ClassificationReport, ConfusionMatrix, Standardizer};

codec_struct!(ClassificationReport {
    accuracy,
    precision,
    recall,
    f1,
});

impl Codec for ConfusionMatrix {
    fn encode(&self, w: &mut Writer) {
        self.n_classes().encode(w);
        self.counts().to_vec().encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let n = usize::decode(r)?;
        let counts: Vec<u64> = Vec::decode(r)?;
        let expect_len = n
            .checked_mul(n)
            .ok_or(ArtifactError::Invalid("confusion matrix shape"))?;
        if n == 0 || counts.len() != expect_len {
            return Err(ArtifactError::Invalid("confusion matrix shape"));
        }
        Ok(ConfusionMatrix::from_counts(n, counts))
    }
}

impl Codec for Standardizer {
    fn encode(&self, w: &mut Writer) {
        let (mean, std) = self.params();
        mean.to_vec().encode(w);
        std.to_vec().encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let mean: Vec<f32> = Vec::decode(r)?;
        let std: Vec<f32> = Vec::decode(r)?;
        if mean.len() != std.len() {
            return Err(ArtifactError::Invalid("standardizer shape"));
        }
        Ok(Standardizer::from_params(mean, std))
    }
}

// ---------------------------------------------------------------------------
// seaice types.
// ---------------------------------------------------------------------------

use crate::atl07::{Atl07Segment, Atl10Freeboard};
use crate::features::FeatureConfig;
use crate::freeboard::{FreeboardPoint, FreeboardProduct};
use crate::heuristic::HeuristicConfig;
use crate::labeling::{AutoLabelConfig, DriftEstimate, LabeledSegment};
use crate::models::{build_model, ModelKind, TrainConfig, TrainedClassifier};
use crate::pipeline::PipelineConfig;
use crate::seasurface::{SeaSurface, SeaSurfaceMethod, WindowConfig};
use crate::thickness::Densities;

codec_struct!(AutoLabelConfig {
    shift_search_radius_m,
    shift_search_step_m,
    transition_halfwidth_m,
});
codec_struct!(LabeledSegment { segment, label });
codec_struct!(DriftEstimate { dx_m, dy_m, score });
codec_struct!(TrainConfig {
    epochs,
    batch_size,
    learning_rate,
    focal_gamma,
    seed,
});
codec_struct!(WindowConfig {
    window_m,
    step_m,
    lead_join_gap_m,
});
codec_struct!(FeatureConfig { use_median_height });
codec_struct!(HeuristicConfig {
    floor_halfwidth_m,
    floor_percentile,
    surface_band_m,
    thick_rel_m,
    thick_rate_min,
    water_rate_max,
});
codec_enum_index!(
    SeaSurfaceMethod,
    |m: SeaSurfaceMethod| SeaSurfaceMethod::ALL
        .iter()
        .position(|x| *x == m)
        .expect("method in ALL") as u8,
    |v: u8| SeaSurfaceMethod::ALL.get(v as usize).copied(),
    "sea surface method"
);
codec_struct!(SeaSurface {
    method,
    centers_m,
    href_m,
    from_water,
});
codec_struct!(FreeboardPoint {
    along_track_m,
    lat,
    lon,
    freeboard_m,
    class,
});
codec_struct!(FreeboardProduct { name, points });
codec_struct!(Densities { water, ice, snow });
codec_struct!(Atl07Segment {
    along_track_m,
    length_m,
    lat,
    lon,
    n_photons,
    mean_h_m,
    std_h_m,
    photon_rate,
    background_rate,
});
codec_struct!(Atl10Freeboard {
    segments,
    classes,
    surface,
    product,
});
codec_struct!(PipelineConfig {
    seed,
    scene,
    track_length_m,
    generator,
    preprocess,
    resample,
    pair,
    autolabel,
    train,
    window,
    features,
});

codec_enum_index!(
    ModelKind,
    |k: ModelKind| match k {
        ModelKind::PaperLstm => 0u8,
        ModelKind::PaperMlp => 1u8,
    },
    |v: u8| match v {
        0 => Some(ModelKind::PaperLstm),
        1 => Some(ModelKind::PaperMlp),
        _ => None,
    },
    "model kind"
);

impl Codec for TrainedClassifier {
    fn encode(&self, w: &mut Writer) {
        self.kind.encode(w);
        self.standardizer.encode(w);
        self.epoch_losses.encode(w);
        self.model.flat_params().encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let kind = ModelKind::decode(r)?;
        let standardizer = Standardizer::decode(r)?;
        let epoch_losses: Vec<f32> = Vec::decode(r)?;
        let params: Vec<f32> = Vec::decode(r)?;
        // Architectures are code: rebuild the layer stack, then overwrite
        // every parameter. The build seed is irrelevant — all weights are
        // replaced and dropout is inert outside training.
        let mut model = build_model(kind, 0);
        if model.n_params() != params.len() {
            return Err(ArtifactError::Invalid("parameter count mismatch"));
        }
        model.set_flat_params(&params);
        Ok(TrainedClassifier {
            kind,
            model,
            standardizer,
            epoch_losses,
        })
    }
}

// ---------------------------------------------------------------------------
// Artifact framing.
// ---------------------------------------------------------------------------

/// A serializable stage output: a [`Codec`] body framed by a per-type
/// magic tag and version.
pub trait Artifact: Codec {
    /// Four-byte magic identifying the artifact type on disk.
    const TAG: [u8; 4];
    /// Format version accepted by this build.
    const VERSION: u16;

    /// Serializes to a framed buffer.
    fn to_bytes(&self) -> Bytes {
        let mut w = Writer::new();
        w.put_slice(&Self::TAG);
        w.put_u16(Self::VERSION);
        self.encode(&mut w);
        w.finish()
    }

    /// Deserializes from a framed buffer.
    fn from_bytes(data: &[u8]) -> Result<Self, ArtifactError> {
        let mut r = Reader::new(data);
        let tag = r.take_slice(4)?;
        if tag != Self::TAG {
            return Err(ArtifactError::BadMagic);
        }
        let version = r.take_u16()?;
        if version != Self::VERSION {
            return Err(ArtifactError::BadVersion(version));
        }
        Self::decode(&mut r)
    }

    /// Writes the framed artifact to `path`.
    fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads a framed artifact from `path`.
    fn load(path: &Path) -> Result<Self, ArtifactError> {
        let data = std::fs::read(path)?;
        Self::from_bytes(&data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = Writer::new();
        v.encode(&mut w);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        let back = T::decode(&mut r).expect("decode");
        assert_eq!(&back, v);
        assert_eq!(r.remaining(), 0, "trailing bytes");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&42u64);
        roundtrip(&-1.5f64);
        roundtrip(&true);
        roundtrip(&String::from("granule"));
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Some(7usize));
        roundtrip(&Option::<u8>::None);
        roundtrip(&(1.0f64, -2.0f64, 3.5f64));
        roundtrip(&[5usize, 6, 7]);
    }

    #[test]
    fn geo_structs_roundtrip() {
        roundtrip(&GeoPoint::new(-74.5, -163.25));
        roundtrip(&BoundingBox {
            lon_min: -180.0,
            lon_max: -141.0,
            lat_min: -78.0,
            lat_max: -69.0,
        });
    }

    #[test]
    fn domain_structs_roundtrip() {
        roundtrip(&PipelineConfig::small(99));
        roundtrip(&DriftEstimate {
            dx_m: 350.0,
            dy_m: -250.0,
            score: 0.93,
        });
        roundtrip(&SeaSurface {
            method: SeaSurfaceMethod::NasaEquation,
            centers_m: vec![100.0, 200.0],
            href_m: vec![0.01, -0.02],
            from_water: vec![true, false],
        });
        roundtrip(&Segment {
            index: 7,
            along_track_m: 14.0,
            lat: -74.0,
            lon: -170.0,
            n_photons: 5,
            n_high_conf: 4,
            n_background: 1,
            mean_h_m: 0.21,
            median_h_m: 0.2,
            std_h_m: 0.05,
            photon_rate: 2.5,
            background_rate: 0.4,
            fpb_correction_m: 0.01,
        });
    }

    #[test]
    fn truncated_buffers_error_not_panic() {
        let mut w = Writer::new();
        PipelineConfig::small(3).encode(&mut w);
        let bytes = w.finish();
        for cut in [0usize, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(PipelineConfig::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_enum_errors() {
        let mut w = Writer::new();
        w.put_u8(9);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            SurfaceClass::decode(&mut r),
            Err(ArtifactError::Invalid(_))
        ));
    }
}
