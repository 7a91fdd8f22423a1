//! The decoder, including partial decode of frames with lost slices.
//!
//! [`Decoder::decode`] assumes every slice arrived. [`Decoder::decode_partial`]
//! takes a per-slice presence mask and decodes what it can: missing
//! slices leave their pixel rows filled from the reference frame and
//! marked invalid in the returned row mask — this is the `I_part` the
//! recovery model consumes (§4, Figure 9).
//!
//! After a partial decode the caller (the streaming client) is expected
//! to run recovery and push the recovered frame back via
//! [`Decoder::set_reference`] so subsequent P-frames predict from what
//! the viewer actually saw.

use crate::bitstream::{decode_block, get_ivarint};
use crate::block::{extract8, mb_grid, store8, MB, MV_RANGE};
use crate::dct;
use crate::encoder::{EncodedFrame, FrameKind};
use crate::error::DecodeError;
use crate::quant;
use nerve_video::frame::Frame;

/// Result of a (possibly partial) decode.
#[derive(Debug, Clone)]
pub struct PartialDecode {
    /// The decoded frame; rows from missing slices hold reference
    /// content (frame-copy concealment).
    pub frame: Frame,
    /// Validity per macroblock row.
    pub mb_row_valid: Vec<bool>,
    /// True if every slice decoded.
    pub complete: bool,
}

impl PartialDecode {
    /// Number of valid pixel rows counting from the top (the paper's
    /// "partial frame = rows before the first lost packet" reading).
    pub fn valid_prefix_rows(&self) -> usize {
        let mut rows = 0;
        for (i, &ok) in self.mb_row_valid.iter().enumerate() {
            if ok {
                rows = (i + 1) * MB;
            } else {
                break;
            }
        }
        rows.min(self.frame.height())
    }

    /// Fraction of macroblock rows decoded.
    pub fn coverage(&self) -> f64 {
        if self.mb_row_valid.is_empty() {
            return 0.0;
        }
        self.mb_row_valid.iter().filter(|&&v| v).count() as f64 / self.mb_row_valid.len() as f64
    }

    /// Per-pixel-row validity mask.
    pub fn row_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.frame.height()];
        for (mb_row, &ok) in self.mb_row_valid.iter().enumerate() {
            if ok {
                for y in mb_row * MB..((mb_row + 1) * MB).min(self.frame.height()) {
                    mask[y] = true;
                }
            }
        }
        mask
    }
}

/// The video decoder.
pub struct Decoder {
    width: usize,
    height: usize,
    reference: Option<Frame>,
}

impl Decoder {
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            reference: None,
        }
    }

    /// Override the reference frame (e.g. with a recovered frame).
    /// Panics on a dimension mismatch; see [`Decoder::try_set_reference`].
    pub fn set_reference(&mut self, frame: Frame) {
        if let Err(e) = self.try_set_reference(frame) {
            panic!("{e}");
        }
    }

    /// Fallible reference override for untrusted callers.
    pub fn try_set_reference(&mut self, frame: Frame) -> Result<(), DecodeError> {
        if (frame.width(), frame.height()) != (self.width, self.height) {
            return Err(DecodeError::DimensionMismatch {
                expected: (self.width, self.height),
                got: (frame.width(), frame.height()),
            });
        }
        self.reference = Some(frame);
        Ok(())
    }

    pub fn reference(&self) -> Option<&Frame> {
        self.reference.as_ref()
    }

    /// Decode a complete frame.
    pub fn decode(&mut self, encoded: &EncodedFrame) -> Frame {
        let present = vec![true; encoded.slices.len()];
        self.decode_partial(encoded, &present).frame
    }

    /// Decode with a per-slice presence mask. Panics on a caller-side
    /// contract violation; see [`Decoder::try_decode_partial`].
    pub fn decode_partial(&mut self, encoded: &EncodedFrame, present: &[bool]) -> PartialDecode {
        match self.try_decode_partial(encoded, present) {
            Ok(pd) => pd,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible partial decode: structured errors for mask/dimension
    /// mismatches instead of aborting the client. Malformed *slice
    /// payloads* are never an error — a slice that fails to decode is
    /// demoted to a lost slice (reference-concealed, marked invalid),
    /// which is exactly how corruption that beat the packet CRC
    /// degrades.
    pub fn try_decode_partial(
        &mut self,
        encoded: &EncodedFrame,
        present: &[bool],
    ) -> Result<PartialDecode, DecodeError> {
        if present.len() != encoded.slices.len() {
            return Err(DecodeError::PresenceMaskMismatch {
                slices: encoded.slices.len(),
                mask: present.len(),
            });
        }
        if (encoded.width, encoded.height) != (self.width, self.height) {
            return Err(DecodeError::DimensionMismatch {
                expected: (self.width, self.height),
                got: (encoded.width, encoded.height),
            });
        }
        let (mbs_x, mbs_y) = mb_grid(self.width, self.height);

        // Start from the reference (frame-copy concealment for missing
        // slices); black for a missing reference.
        let mut frame = self
            .reference
            .clone()
            .unwrap_or_else(|| Frame::new(self.width, self.height));
        let mut mb_row_valid = vec![false; mbs_y];
        let mut complete = true;

        for (slice, &ok) in encoded.slices.iter().zip(present.iter()) {
            if !ok {
                complete = false;
                continue;
            }
            match self.decode_slice(encoded, slice, mbs_x, &mut frame) {
                Ok(()) => {
                    for r in slice.mb_row_start..(slice.mb_row_start + slice.mb_rows).min(mbs_y) {
                        mb_row_valid[r] = true;
                    }
                }
                Err(_) => complete = false, // corrupt payload counts as lost
            }
        }

        self.reference = Some(frame.clone());
        Ok(PartialDecode {
            frame,
            mb_row_valid,
            complete,
        })
    }

    /// Decode one slice into `frame`; structured error on corrupt data.
    fn decode_slice(
        &self,
        encoded: &EncodedFrame,
        slice: &crate::encoder::Slice,
        mbs_x: usize,
        frame: &mut Frame,
    ) -> Result<(), DecodeError> {
        let mut pos = 0usize;
        let data = &slice.data;
        let qscale = encoded.qscale;
        for row in slice.mb_row_start..slice.mb_row_start + slice.mb_rows {
            for mbx in 0..mbs_x {
                let px = (mbx * MB) as isize;
                let py = (row * MB) as isize;
                match encoded.kind {
                    FrameKind::Intra => {
                        for by in 0..2isize {
                            for bx in 0..2isize {
                                let levels = decode_block(data, &mut pos)?;
                                let mut rec = dct::inverse(&quant::dequantize(&levels, qscale));
                                for v in &mut rec {
                                    *v += 128.0;
                                }
                                store8(frame, px + bx * 8, py + by * 8, &rec);
                            }
                        }
                    }
                    FrameKind::Inter => {
                        let reference = self
                            .reference
                            .as_ref()
                            .ok_or(DecodeError::Truncated { pos: 0 })?;
                        let mv_pos = pos;
                        let dx =
                            get_ivarint(data, &mut pos).ok_or(DecodeError::Truncated { pos })?;
                        let dy =
                            get_ivarint(data, &mut pos).ok_or(DecodeError::Truncated { pos })?;
                        let range = -(MV_RANGE as i64)..=MV_RANGE as i64;
                        if !range.contains(&dx) || !range.contains(&dy) {
                            return Err(DecodeError::MotionVectorOutOfRange {
                                pos: mv_pos,
                                dx,
                                dy,
                            });
                        }
                        for by in 0..2isize {
                            for bx in 0..2isize {
                                let levels = decode_block(data, &mut pos)?;
                                let x0 = px + bx * 8;
                                let y0 = py + by * 8;
                                let pred = extract8(reference, x0 + dx as isize, y0 + dy as isize);
                                let res = dct::inverse(&quant::dequantize(&levels, qscale));
                                let mut rec = [0.0f32; 64];
                                for i in 0..64 {
                                    rec[i] = pred[i] + res[i];
                                }
                                store8(frame, x0, y0, &rec);
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig};
    use nerve_video::metrics::psnr;
    use nerve_video::synth::{Category, SceneConfig, SyntheticVideo};

    fn clip(n: usize) -> Vec<Frame> {
        let mut v = SyntheticVideo::new(SceneConfig::preset(Category::Vlogs, 48, 64), 33);
        v.take_frames(n)
    }

    fn encode_all(frames: &[Frame], qscale: f32) -> (Vec<EncodedFrame>, Encoder) {
        let mut enc = Encoder::new(EncoderConfig::new(frames[0].width(), frames[0].height()));
        let encoded = frames.iter().map(|f| enc.encode_next(f, qscale)).collect();
        (encoded, enc)
    }

    #[test]
    fn decoder_matches_encoder_reconstruction_exactly() {
        let frames = clip(5);
        let mut enc = Encoder::new(EncoderConfig::new(64, 48));
        let mut dec = Decoder::new(64, 48);
        for f in &frames {
            let e = enc.encode_next(f, 2.0);
            let decoded = dec.decode(&e);
            let recon = enc.last_reconstruction().unwrap();
            assert_eq!(&decoded, recon, "decoder must bit-match in-loop recon");
        }
    }

    #[test]
    fn decode_quality_reasonable_over_gop() {
        let frames = clip(10);
        let (encoded, _) = encode_all(&frames, 1.5);
        let mut dec = Decoder::new(64, 48);
        for (f, e) in frames.iter().zip(encoded.iter()) {
            let d = dec.decode(e);
            assert!(
                psnr(&d, f) > 28.0,
                "frame {}: {}",
                e.frame_index,
                psnr(&d, f)
            );
        }
    }

    #[test]
    fn partial_decode_marks_missing_rows() {
        let frames = clip(1);
        let (encoded, _) = encode_all(&frames, 2.0);
        let mut dec = Decoder::new(64, 48);
        let n_slices = encoded[0].slices.len();
        assert_eq!(n_slices, 3); // 48px / 16 = 3 MB rows, 1 row per slice
        let mut present = vec![true; n_slices];
        present[1] = false;
        let pd = dec.decode_partial(&encoded[0], &present);
        assert!(!pd.complete);
        assert_eq!(pd.mb_row_valid, vec![true, false, true]);
        assert_eq!(pd.valid_prefix_rows(), 16);
        assert!((pd.coverage() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn partial_decode_preserves_received_rows() {
        let frames = clip(1);
        let (encoded, enc) = encode_all(&frames, 2.0);
        let mut dec = Decoder::new(64, 48);
        let mut present = vec![true; encoded[0].slices.len()];
        present[2] = false;
        let pd = dec.decode_partial(&encoded[0], &present);
        let full = enc.last_reconstruction().unwrap();
        // Rows of received slices match the full decode exactly.
        for y in 0..32 {
            for x in 0..64 {
                assert_eq!(pd.frame.get(x, y), full.get(x, y));
            }
        }
    }

    #[test]
    fn missing_slice_rows_fall_back_to_reference() {
        let frames = clip(2);
        let (encoded, _) = encode_all(&frames, 2.0);
        let mut dec = Decoder::new(64, 48);
        let first = dec.decode(&encoded[0]);
        let mut present = vec![true; encoded[1].slices.len()];
        present[0] = false;
        let pd = dec.decode_partial(&encoded[1], &present);
        // Missing rows show the previous frame's content.
        for y in 0..16 {
            for x in 0..64 {
                assert_eq!(pd.frame.get(x, y), first.get(x, y));
            }
        }
    }

    #[test]
    fn corrupt_slice_treated_as_lost() {
        let frames = clip(1);
        let (mut encoded, _) = encode_all(&frames, 2.0);
        // Truncate slice 0's payload.
        encoded[0].slices[0].data.truncate(3);
        let mut dec = Decoder::new(64, 48);
        let present = vec![true; encoded[0].slices.len()];
        let pd = dec.decode_partial(&encoded[0], &present);
        assert!(!pd.complete);
        assert!(!pd.mb_row_valid[0]);
    }

    #[test]
    fn set_reference_redirects_prediction() {
        let frames = clip(2);
        let (encoded, _) = encode_all(&frames, 2.0);
        let mut dec = Decoder::new(64, 48);
        dec.decode(&encoded[0]);
        // Poison the reference; the P-frame should now decode relative to it.
        dec.set_reference(Frame::filled(64, 48, 0.0));
        let poisoned = dec.decode(&encoded[1]);
        let mut dec2 = Decoder::new(64, 48);
        dec2.decode(&encoded[0]);
        let clean = dec2.decode(&encoded[1]);
        assert!(psnr(&poisoned, &clean) < 40.0, "reference must matter");
    }

    #[test]
    fn wrong_mask_length_is_a_structured_error() {
        let frames = clip(1);
        let (encoded, _) = encode_all(&frames, 2.0);
        let mut dec = Decoder::new(64, 48);
        let err = dec
            .try_decode_partial(&encoded[0], &[true])
            .expect_err("3 slices vs 1-entry mask");
        assert_eq!(
            err,
            DecodeError::PresenceMaskMismatch { slices: 3, mask: 1 }
        );
    }

    #[test]
    fn wrong_dimensions_are_a_structured_error() {
        let frames = clip(1);
        let (encoded, _) = encode_all(&frames, 2.0);
        let mut dec = Decoder::new(32, 32);
        let present = vec![true; encoded[0].slices.len()];
        let err = dec
            .try_decode_partial(&encoded[0], &present)
            .expect_err("64x48 frame into 32x32 decoder");
        assert_eq!(
            err,
            DecodeError::DimensionMismatch {
                expected: (32, 32),
                got: (64, 48),
            }
        );
        let err = dec
            .try_set_reference(Frame::new(64, 48))
            .expect_err("reference dims must match");
        assert!(matches!(err, DecodeError::DimensionMismatch { .. }));
    }

    #[test]
    fn valid_prefix_stops_at_first_hole() {
        let pd = PartialDecode {
            frame: Frame::new(64, 48),
            mb_row_valid: vec![true, true, false],
            complete: false,
        };
        assert_eq!(pd.valid_prefix_rows(), 32);
        let pd2 = PartialDecode {
            frame: Frame::new(64, 48),
            mb_row_valid: vec![false, true, true],
            complete: false,
        };
        assert_eq!(pd2.valid_prefix_rows(), 0);
    }

    #[test]
    fn forged_motion_vector_is_refused_and_the_slice_lost() {
        use crate::bitstream::put_ivarint;
        let frames = clip(2);
        let (encoded, _) = encode_all(&frames, 2.0);
        for (dx, dy) in [(i64::MAX, 0), (0, i64::MIN), (16, -3), (-2, -16)] {
            let mut forged = encoded[1].clone();
            let data = &forged.slices[1].data;
            let mut pos = 0;
            get_ivarint(data, &mut pos).unwrap();
            get_ivarint(data, &mut pos).unwrap();
            let mut bytes = Vec::new();
            put_ivarint(&mut bytes, dx);
            put_ivarint(&mut bytes, dy);
            bytes.extend_from_slice(&data[pos..]);
            forged.slices[1].data = bytes;

            let mut dec = Decoder::new(64, 48);
            dec.decode(&encoded[0]);
            let mut frame = dec.reference().unwrap().clone();
            let err = dec
                .decode_slice(&forged, &forged.slices[1], 4, &mut frame)
                .expect_err("vector outside the search range");
            assert_eq!(err, DecodeError::MotionVectorOutOfRange { pos: 0, dx, dy });
            let present = vec![true; forged.slices.len()];
            let pd = dec.try_decode_partial(&forged, &present).unwrap();
            assert!(!pd.complete);
            assert_eq!(pd.mb_row_valid, vec![true, false, true]);
        }
        // The vectors the encoder writes stay inside the range.
        let mut dec = Decoder::new(64, 48);
        for e in &encoded {
            assert!(dec.decode_partial(e, &[true; 3]).complete);
        }
    }
}
