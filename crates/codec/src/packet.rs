//! Mapping encoded frames to network packets and back.
//!
//! Each slice travels in one or more MTU-sized packets. A slice decodes
//! only if *all* of its packets arrive — so the loss of one packet costs
//! one slice (a band of macroblock rows), giving exactly the partial-
//! frame semantics the recovery model consumes.
//!
//! Every packet carries a CRC32 over its payload ([`VideoPacket::crc`]).
//! Receivers call [`VideoPacket::verify`] and treat a failing packet as
//! lost: [`slice_presence`] and [`reassemble`] demote corruption to an
//! erasure, so a flipped byte costs one slice instead of feeding garbage
//! into the decoder.

use crate::encoder::EncodedFrame;
use crate::error::DecodeError;
use nerve_net::integrity::crc32;

/// One network packet of video payload.
#[derive(Debug, Clone)]
pub struct VideoPacket {
    pub frame_index: u64,
    pub slice_index: usize,
    /// This packet's position among the slice's packets.
    pub part: usize,
    /// Total packets carrying this slice.
    pub total_parts: usize,
    pub payload: Vec<u8>,
    /// CRC32 of `payload` stamped at packetize time.
    pub crc: u32,
}

impl VideoPacket {
    /// Wire size including a nominal 12-byte header (the CRC travels in
    /// the header, alongside sequence and slice fields).
    pub fn wire_bytes(&self) -> usize {
        self.payload.len() + 12
    }

    /// True when the payload still matches the CRC stamped at send time.
    pub fn verify(&self) -> bool {
        crc32(&self.payload) == self.crc
    }
}

/// Split an encoded frame into packets; structured error on a zero MTU.
pub fn try_packetize(frame: &EncodedFrame, mtu: usize) -> Result<Vec<VideoPacket>, DecodeError> {
    if mtu == 0 {
        return Err(DecodeError::ZeroMtu);
    }
    let mut packets = Vec::new();
    for (slice_index, slice) in frame.slices.iter().enumerate() {
        let data = &slice.data;
        let total_parts = data.len().div_ceil(mtu).max(1);
        for part in 0..total_parts {
            let start = part * mtu;
            let end = ((part + 1) * mtu).min(data.len());
            let payload = data[start..end].to_vec();
            let crc = crc32(&payload);
            packets.push(VideoPacket {
                frame_index: frame.frame_index,
                slice_index,
                part,
                total_parts,
                payload,
                crc,
            });
        }
    }
    Ok(packets)
}

/// Split an encoded frame into packets.
///
/// # Panics
///
/// Panics when `mtu == 0`; use [`try_packetize`] for a fallible variant.
pub fn packetize(frame: &EncodedFrame, mtu: usize) -> Vec<VideoPacket> {
    match try_packetize(frame, mtu) {
        Ok(packets) => packets,
        Err(e) => panic!("packetize: {e}"),
    }
}

/// Given the set of packets that actually arrived for one frame, compute
/// the per-slice presence mask for [`crate::Decoder::decode_partial`].
///
/// Packets whose payload fails [`VideoPacket::verify`] are treated as
/// lost (corruption demoted to erasure). `n_slices` must match the
/// encoded frame's slice count.
///
/// Distinct parts are tracked per slice — a duplicated packet (network
/// replay) never stands in for a missing one — so the mask agrees
/// exactly with what [`reassemble`] can produce.
pub fn slice_presence(received: &[&VideoPacket], n_slices: usize) -> Vec<bool> {
    let mut seen: Vec<Vec<bool>> = vec![Vec::new(); n_slices];
    for p in received {
        if p.slice_index >= n_slices || !p.verify() {
            continue;
        }
        let v = &mut seen[p.slice_index];
        if v.len() < p.total_parts {
            v.resize(p.total_parts, false);
        }
        if p.part < v.len() {
            v[p.part] = true;
        }
    }
    seen.into_iter()
        .map(|v| !v.is_empty() && v.iter().all(|&s| s))
        .collect()
}

/// Reassemble the slice payloads that fully arrived. Returns, per slice,
/// `Some(bytes)` when complete. Packets may arrive in any order;
/// corrupted packets (CRC mismatch) count as missing.
pub fn reassemble(received: &[&VideoPacket], n_slices: usize) -> Vec<Option<Vec<u8>>> {
    let mut parts: Vec<Vec<Option<&[u8]>>> = vec![Vec::new(); n_slices];
    for p in received {
        if p.slice_index >= n_slices || !p.verify() {
            continue;
        }
        let v = &mut parts[p.slice_index];
        if v.len() < p.total_parts {
            v.resize(p.total_parts, None);
        }
        if p.part < v.len() {
            v[p.part] = Some(p.payload.as_slice());
        }
    }
    parts
        .into_iter()
        .map(|v| {
            if v.is_empty() || v.iter().any(|p| p.is_none()) {
                None
            } else {
                let mut out = Vec::new();
                for p in v.into_iter().flatten() {
                    out.extend_from_slice(p);
                }
                Some(out)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig};
    use nerve_video::synth::{Category, SceneConfig, SyntheticVideo};

    fn one_encoded_frame() -> EncodedFrame {
        let mut v = SyntheticVideo::new(SceneConfig::preset(Category::Skit, 48, 64), 55);
        let f = v.next_frame();
        let mut enc = Encoder::new(EncoderConfig::new(64, 48));
        enc.encode_next(&f, 1.0)
    }

    #[test]
    fn packetize_covers_all_bytes() {
        let e = one_encoded_frame();
        let packets = packetize(&e, 100);
        let total: usize = packets.iter().map(|p| p.payload.len()).sum();
        assert_eq!(total, e.total_bytes());
    }

    #[test]
    fn small_mtu_splits_slices() {
        let e = one_encoded_frame();
        let packets = packetize(&e, 50);
        assert!(packets.iter().any(|p| p.total_parts > 1));
        assert!(packets.iter().all(|p| p.payload.len() <= 50));
    }

    #[test]
    fn presence_requires_all_parts() {
        let e = one_encoded_frame();
        let packets = packetize(&e, 40);
        let n = e.slices.len();
        // Drop one packet of slice 0.
        let received: Vec<&VideoPacket> = packets
            .iter()
            .filter(|p| !(p.slice_index == 0 && p.part == 0))
            .collect();
        let mask = slice_presence(&received, n);
        assert!(!mask[0]);
        assert!(mask[1..].iter().all(|&m| m));
    }

    #[test]
    fn reassemble_round_trips_payloads() {
        let e = one_encoded_frame();
        let packets = packetize(&e, 64);
        let received: Vec<&VideoPacket> = packets.iter().collect();
        let slices = reassemble(&received, e.slices.len());
        for (i, s) in slices.iter().enumerate() {
            assert_eq!(s.as_deref(), Some(e.slices[i].data.as_slice()));
        }
    }

    #[test]
    fn reassemble_handles_out_of_order_arrival() {
        let e = one_encoded_frame();
        let mut packets = packetize(&e, 32);
        packets.reverse();
        let received: Vec<&VideoPacket> = packets.iter().collect();
        let slices = reassemble(&received, e.slices.len());
        assert!(slices.iter().all(|s| s.is_some()));
        assert_eq!(slices[0].as_deref(), Some(e.slices[0].data.as_slice()));
    }

    #[test]
    fn missing_slice_reassembles_to_none() {
        let e = one_encoded_frame();
        let packets = packetize(&e, 1200);
        let received: Vec<&VideoPacket> = packets.iter().filter(|p| p.slice_index != 1).collect();
        let slices = reassemble(&received, e.slices.len());
        assert!(slices[0].is_some());
        assert!(slices[1].is_none());
    }

    #[test]
    fn empty_reception_means_nothing_present() {
        let mask = slice_presence(&[], 3);
        assert_eq!(mask, vec![false, false, false]);
        let slices = reassemble(&[], 3);
        assert!(slices.iter().all(|s| s.is_none()));
    }

    #[test]
    fn zero_mtu_is_a_structured_error() {
        let e = one_encoded_frame();
        assert!(matches!(
            try_packetize(&e, 0),
            Err(crate::error::DecodeError::ZeroMtu)
        ));
    }

    #[test]
    fn fresh_packets_verify() {
        let e = one_encoded_frame();
        let packets = packetize(&e, 200);
        assert!(packets.iter().all(|p| p.verify()));
    }

    #[test]
    fn corrupted_packet_is_demoted_to_erasure() {
        let e = one_encoded_frame();
        let mut packets = packetize(&e, 1200);
        let n = e.slices.len();
        // Flip one byte of slice 1's payload; the CRC no longer matches.
        let victim = packets
            .iter_mut()
            .find(|p| p.slice_index == 1)
            .expect("slice 1 packet");
        victim.payload[0] ^= 0x5A;
        assert!(!victim.verify());

        let received: Vec<&VideoPacket> = packets.iter().collect();
        let mask = slice_presence(&received, n);
        assert!(!mask[1], "corrupted slice must read as absent");
        assert!(mask[0]);
        let slices = reassemble(&received, n);
        assert!(slices[1].is_none(), "corrupted slice must not reassemble");
        assert_eq!(slices[0].as_deref(), Some(e.slices[0].data.as_slice()));
    }
}
