//! Entropy-lite bitstream coding.
//!
//! Quantized blocks are zigzag-scanned and coded as (zero-run, level)
//! pairs with LEB128 varints and zigzag sign folding, terminated by an
//! end-of-block marker. Not a real arithmetic coder, but compressed
//! sizes respond to the quantizer the way real codecs' do — which is the
//! property rate control and the FEC experiments need.

use crate::dct::zigzag_order;
use crate::error::DecodeError;

/// Append an unsigned LEB128 varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Read an unsigned LEB128 varint; advances `pos`.
pub fn get_uvarint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Signed value folded to unsigned (zigzag encoding).
#[inline]
pub fn fold_signed(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`fold_signed`].
#[inline]
pub fn unfold_signed(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a signed varint.
pub fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    put_uvarint(out, fold_signed(v));
}

/// Read a signed varint.
pub fn get_ivarint(data: &[u8], pos: &mut usize) -> Option<i64> {
    get_uvarint(data, pos).map(unfold_signed)
}

/// Encode one quantized 8x8 block: zigzag, (run, level) pairs, EOB.
///
/// Wire format: sequence of `[run: uvarint][level: ivarint(!=0)]` pairs,
/// terminated by a single `0xFF` byte that cannot start a pair (runs are
/// < 64 so their varint first byte is < 0x80).
pub fn encode_block(levels: &[i32; 64], out: &mut Vec<u8>) {
    let order = zigzag_order();
    let mut run: u64 = 0;
    for &idx in order.iter() {
        let level = levels[idx];
        if level == 0 {
            run += 1;
        } else {
            put_uvarint(out, run);
            put_ivarint(out, level as i64);
            run = 0;
        }
    }
    out.push(0xFF); // end of block
}

/// Decode one block encoded by [`encode_block`]; advances `pos`.
///
/// Total over arbitrary bytes: any malformation maps to a structured
/// [`DecodeError`] rather than a panic, so a corrupted slice (or one
/// whose residual corruption beat the CRC) degrades to an erasure.
pub fn decode_block(data: &[u8], pos: &mut usize) -> Result<[i32; 64], DecodeError> {
    let order = zigzag_order();
    let mut levels = [0i32; 64];
    let mut scan = 0usize;
    loop {
        let first = *data.get(*pos).ok_or(DecodeError::Truncated { pos: *pos })?;
        if first == 0xFF {
            *pos += 1;
            return Ok(levels);
        }
        let pair_pos = *pos;
        let run = get_uvarint(data, pos).ok_or(DecodeError::Truncated { pos: pair_pos })? as usize;
        let level = get_ivarint(data, pos).ok_or(DecodeError::Truncated { pos: pair_pos })?;
        scan = scan.saturating_add(run);
        if scan >= 64 {
            return Err(DecodeError::RunPastEob {
                pos: pair_pos,
                scan,
            });
        }
        if level == 0 {
            return Err(DecodeError::ZeroLevel { pos: pair_pos });
        }
        levels[order[scan]] = i32::try_from(level).map_err(|_| DecodeError::LevelOutOfRange {
            pos: pair_pos,
            level,
        })?;
        scan += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_round_trip() {
        let values = [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX];
        for &v in &values {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn ivarint_round_trip() {
        for v in [-1_000_000i64, -64, -1, 0, 1, 63, 1_000_000] {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_ivarint(&buf, &mut pos), Some(v));
        }
    }

    #[test]
    fn signed_folding_is_bijective_near_zero() {
        for v in -100i64..=100 {
            assert_eq!(unfold_signed(fold_signed(v)), v);
        }
        // Small magnitudes fold to small codes (good for varints).
        assert_eq!(fold_signed(0), 0);
        assert_eq!(fold_signed(-1), 1);
        assert_eq!(fold_signed(1), 2);
    }

    #[test]
    fn block_round_trip_sparse() {
        let mut levels = [0i32; 64];
        levels[0] = 35; // DC
        levels[1] = -3;
        levels[8] = 2;
        levels[63] = 1;
        let mut buf = Vec::new();
        encode_block(&levels, &mut buf);
        let mut pos = 0;
        let decoded = decode_block(&buf, &mut pos).unwrap();
        assert_eq!(decoded, levels);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn block_round_trip_dense_and_empty() {
        let mut dense = [0i32; 64];
        for (i, v) in dense.iter_mut().enumerate() {
            *v = (i as i32 % 7) - 3;
        }
        let empty = [0i32; 64];
        for levels in [dense, empty] {
            let mut buf = Vec::new();
            encode_block(&levels, &mut buf);
            let mut pos = 0;
            assert_eq!(decode_block(&buf, &mut pos), Ok(levels));
        }
    }

    #[test]
    fn sparser_blocks_encode_smaller() {
        let mut sparse = [0i32; 64];
        sparse[0] = 10;
        let mut dense = [0i32; 64];
        for (i, v) in dense.iter_mut().enumerate() {
            *v = i as i32 + 1;
        }
        let mut a = Vec::new();
        encode_block(&sparse, &mut a);
        let mut b = Vec::new();
        encode_block(&dense, &mut b);
        assert!(a.len() < b.len());
    }

    #[test]
    fn truncated_stream_reports_structured_error() {
        let mut levels = [0i32; 64];
        levels[5] = 9;
        let mut buf = Vec::new();
        encode_block(&levels, &mut buf);
        buf.pop(); // drop the EOB
        let mut pos = 0;
        assert!(matches!(
            decode_block(&buf, &mut pos),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn run_escaping_the_block_is_rejected() {
        // run=70 (> 63) then level=1: the scan leaves the block.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 70);
        put_ivarint(&mut buf, 1);
        buf.push(0xFF);
        let mut pos = 0;
        assert!(matches!(
            decode_block(&buf, &mut pos),
            Err(DecodeError::RunPastEob { scan: 70, .. })
        ));
    }

    #[test]
    fn zero_level_is_rejected() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 0);
        put_ivarint(&mut buf, 0);
        buf.push(0xFF);
        let mut pos = 0;
        assert!(matches!(
            decode_block(&buf, &mut pos),
            Err(DecodeError::ZeroLevel { .. })
        ));
    }

    #[test]
    fn level_outside_i32_is_rejected() {
        // 2^33 would wrap to 0, a level the format forbids.
        for level in [1i64 << 33, i32::MIN as i64 - 1] {
            // A valid first pair, so the error must name the second.
            let mut buf = Vec::new();
            put_uvarint(&mut buf, 0);
            put_ivarint(&mut buf, 5);
            let pair_pos = buf.len();
            put_uvarint(&mut buf, 3);
            put_ivarint(&mut buf, level);
            buf.push(0xFF);
            let mut pos = 0;
            assert_eq!(
                decode_block(&buf, &mut pos),
                Err(DecodeError::LevelOutOfRange {
                    pos: pair_pos,
                    level
                })
            );
        }
    }

    #[test]
    fn i32_extreme_levels_round_trip() {
        let mut levels = [0i32; 64];
        levels[0] = i32::MIN;
        levels[63] = i32::MAX;
        let mut buf = Vec::new();
        encode_block(&levels, &mut buf);
        let mut pos = 0;
        assert_eq!(decode_block(&buf, &mut pos), Ok(levels));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn overlong_varint_is_rejected_not_looped() {
        // 11 continuation bytes push the shift past 63 bits.
        let buf = vec![0x80u8; 11];
        let mut pos = 0;
        assert_eq!(get_uvarint(&buf, &mut pos), None);
        let mut pos = 0;
        assert!(matches!(
            decode_block(&buf, &mut pos),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn multiple_blocks_in_sequence() {
        let mut a = [0i32; 64];
        a[0] = 1;
        let mut b = [0i32; 64];
        b[3] = -2;
        let mut buf = Vec::new();
        encode_block(&a, &mut buf);
        encode_block(&b, &mut buf);
        let mut pos = 0;
        assert_eq!(decode_block(&buf, &mut pos), Ok(a));
        assert_eq!(decode_block(&buf, &mut pos), Ok(b));
        assert_eq!(pos, buf.len());
    }
}
