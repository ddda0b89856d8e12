//! LUT images: the byte-exact serialized form of a LUT as it would be
//! broadcast to the DPU banks at initialization (§V-A: "the LUT is
//! constructed according to the parameters and is broadcast to all banks").
//!
//! Images use the minimal entry widths the capacity model accounts
//! (`capacity::entry_bytes` for canonical entries,
//! `capacity::reorder_entry_bytes` for reordering entries), so
//! `image.len()` equals the closed-form footprint *exactly* — a strong
//! consistency check between the functional structures and the planner's
//! byte arithmetic, asserted in the tests. Integer entries outside the
//! symmetric range saturate, matching the hardware semantics documented in
//! [`crate::capacity::entry_bytes`].

use crate::canonical::CanonicalLut;
use crate::capacity::{entry_bytes, reorder_entry_bytes};
use crate::reorder::ReorderLut;

/// Serializes an `i32` entry into `width` bytes (1, 2 or 4), saturating.
fn push_int(out: &mut Vec<u8>, value: i32, width: u64) {
    match width {
        1 => out.push((value.clamp(-128, 127) as i8) as u8),
        2 => out.extend_from_slice(&(value.clamp(-32768, 32767) as i16).to_le_bytes()),
        _ => out.extend_from_slice(&value.to_le_bytes()),
    }
}

/// Serializes an unsigned packed row into `width` little-endian bytes.
fn push_uint(out: &mut Vec<u8>, value: u64, width: u64) {
    out.extend_from_slice(&value.to_le_bytes()[..width as usize]);
}

impl CanonicalLut<i32> {
    /// The bank image of this LUT: entries column-major at the minimal
    /// integer width, little-endian. `len()` equals
    /// [`crate::capacity::canonical_lut_bytes`] exactly.
    #[must_use]
    pub fn image_bytes(&self) -> Vec<u8> {
        let width = entry_bytes(self.weight_format(), self.activation_format(), self.p());
        let mut out = Vec::with_capacity((self.entry_count() * width) as usize);
        for col in 0..self.cols() {
            for &entry in self.column_slice(col) {
                push_int(&mut out, entry, width);
            }
        }
        out
    }
}

impl CanonicalLut<f32> {
    /// The bank image of a float LUT: entries column-major as IEEE half
    /// precision (2 bytes, the width the capacity model accounts for float
    /// entries), little-endian, round-to-nearest with saturation.
    #[must_use]
    pub fn image_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity((self.entry_count() * 2) as usize);
        for col in 0..self.cols() {
            for &entry in self.column_slice(col) {
                out.extend_from_slice(&f32_to_f16_bits(entry).to_le_bytes());
            }
        }
        out
    }
}

impl ReorderLut {
    /// The bank image of this LUT: packed reordered rows column-major at
    /// `ceil(bw·p/8)` bytes, little-endian. `len()` equals
    /// [`crate::capacity::reorder_lut_bytes`] exactly.
    #[must_use]
    pub fn image_bytes(&self) -> Vec<u8> {
        let width = reorder_entry_bytes(self.bits(), self.p());
        let mut out = Vec::with_capacity((self.entry_count() * width) as usize);
        for perm_id in 0..self.cols() {
            for entry in self.column(perm_id) {
                push_uint(&mut out, entry, width);
            }
        }
        out
    }
}

/// f32 → IEEE half bits, round-to-nearest-even, saturating to ±65504.
#[must_use]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let man = bits & 0x007F_FFFF;
    if exp == 0xFF || x.abs() > 65504.0 {
        // NaN/inf/overflow saturate to max magnitude (LUT entries are
        // always finite).
        return sign | 0x7BFF;
    }
    let e16 = exp - 127 + 15;
    if e16 >= 31 {
        return sign | 0x7BFF;
    }
    if e16 <= 0 {
        // Subnormal or zero.
        if e16 < -10 {
            return sign;
        }
        let man_full = man | 0x0080_0000;
        let shift = (14 - e16) as u32;
        let sub = man_full >> shift;
        let round = (man_full >> (shift - 1)) & 1;
        return sign | ((sub + round) as u16);
    }
    let half_man = (man >> 13) as u16;
    let round = (man >> 12) & 1;
    sign | ((((e16 as u16) << 10) | half_man) + round as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::{canonical_lut_bytes, reorder_lut_bytes};
    use quant::NumericFormat;

    const W1: NumericFormat = NumericFormat::Bipolar;
    const A3: NumericFormat = NumericFormat::Int(3);

    #[test]
    fn canonical_image_length_matches_capacity_formula() {
        for p in [2u32, 3, 5] {
            let lut = CanonicalLut::<i32>::build(W1, A3, p, 1 << 24).unwrap();
            let image = lut.image_bytes();
            assert_eq!(
                image.len() as u128,
                canonical_lut_bytes(W1, A3, p).unwrap(),
                "p={p}"
            );
        }
        // A config needing 2-byte entries.
        let f4 = NumericFormat::Int(4);
        let lut = CanonicalLut::<i32>::build(f4, f4, 3, 1 << 24).unwrap();
        assert_eq!(
            lut.image_bytes().len() as u128,
            canonical_lut_bytes(f4, f4, 3).unwrap()
        );
    }

    #[test]
    fn reorder_image_length_matches_capacity_formula() {
        for (bits, p) in [(1u8, 5u32), (2, 4), (4, 3)] {
            let lut = ReorderLut::build(bits, p, 1 << 24).unwrap();
            assert_eq!(
                lut.image_bytes().len() as u128,
                reorder_lut_bytes(NumericFormat::default_int(bits), p).unwrap(),
                "bits={bits} p={p}"
            );
        }
    }

    #[test]
    fn canonical_image_decodes_back_to_entries() {
        let lut = CanonicalLut::<i32>::build(W1, A3, 3, 1 << 20).unwrap();
        let image = lut.image_bytes(); // 1-byte entries for W1A3 p=3
        let mut idx = 0usize;
        for col in 0..lut.cols() {
            for row in 0..lut.rows() {
                let decoded = i32::from(image[idx] as i8);
                assert_eq!(decoded, lut.lookup(row, col));
                idx += 1;
            }
        }
    }

    #[test]
    fn float_image_is_two_bytes_per_entry_and_roundtrips() {
        let f = NumericFormat::Fp4;
        let lut = CanonicalLut::<f32>::build(f, f, 2, 1 << 20).unwrap();
        let image = lut.image_bytes();
        assert_eq!(image.len() as u64, lut.entry_count() * 2);
        // FP4 products are exactly representable in half precision.
        let first = u16::from_le_bytes([image[0], image[1]]);
        assert_eq!(
            NumericFormat::Fp16.decode_f32(u32::from(first)),
            lut.lookup(0, 0)
        );
    }

    #[test]
    fn f16_conversion_known_values() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3C00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xC000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7BFF);
        assert_eq!(f32_to_f16_bits(1e30), 0x7BFF); // saturates
        assert_eq!(f32_to_f16_bits(f32::NAN) & 0x7FFF, 0x7BFF);
        // Roundtrip across a spread of values within half range.
        for i in -40..40 {
            let x = i as f32 * 3.25;
            let back = NumericFormat::Fp16.decode_f32(u32::from(f32_to_f16_bits(x)));
            assert!((back - x).abs() <= 0.01 * x.abs().max(1.0), "{x} -> {back}");
        }
    }

    #[test]
    fn int_saturation_in_images() {
        let mut out = Vec::new();
        push_int(&mut out, 300, 1);
        push_int(&mut out, -300, 1);
        assert_eq!(out[0] as i8, 127);
        assert_eq!(out[1] as i8, -128);
    }
}
