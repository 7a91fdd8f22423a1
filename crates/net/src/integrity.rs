//! Payload integrity: a dependency-free CRC32 and deterministic
//! corruption helpers.
//!
//! The wire formats in this workspace (codec video packets, FEC shards,
//! the point-code reliable channel) all frame their payloads with the
//! IEEE CRC32 computed here, and so do the five state formats
//! (checkpoints, handoff tickets, weight deltas), which seal through
//! [`crate::bytes::Frame`]: it puts a magic/version header in front of
//! the same trailer and refuses damage with one typed error. Receivers
//! verify the checksum and demote a failing payload to an *erasure* —
//! the same shape of damage the FEC decoder and the PR-1 degradation
//! ladder already recover from — so corruption never reaches a renderer
//! as garbage pixels.
//!
//! Detection is not absolute: a 32-bit checksum passes a random
//! corruption with probability 2^-32, and real deployments also see
//! corruption introduced *above* the checksummed hop (bad RAM, buggy
//! middleboxes re-framing payloads). [`crate::faults::FaultPlan`] models
//! that with a residual "beat-the-checksum" rate so hardened decoders
//! still get exercised; everything else is detectable and detected.

use nerve_rng::{DetRng, Rng};

/// The CRC32 lookup table (IEEE 802.3 reflected polynomial 0xEDB88320),
/// built at compile time so the module has no lazy state.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// IEEE CRC32 of `data` (the zlib/PNG/Ethernet checksum).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Append a 4-byte big-endian CRC32 trailer to `payload`.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out
}

/// Verify and strip the CRC32 trailer appended by [`seal`]. Returns the
/// payload if the checksum matches, `None` if the frame is too short or
/// the checksum fails (the caller treats the frame as an erasure).
pub fn open(sealed: &[u8]) -> Option<&[u8]> {
    if sealed.len() < 4 {
        return None;
    }
    let (payload, trailer) = sealed.split_at(sealed.len() - 4);
    let stored = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    (crc32(payload) == stored).then_some(payload)
}

/// Deterministically flip bytes of `payload` in place: `flips` positions
/// and XOR masks derived from `salt` by a SplitMix64 stream. Used by the
/// fault layer to make [`crate::faults::FaultPlan::corrupt`] damage real
/// bytes (so CRC verification, not a side-channel flag, is what catches
/// it). A zero-length payload is left untouched.
pub fn flip_bytes(payload: &mut [u8], salt: u64, flips: usize) {
    if payload.is_empty() {
        return;
    }
    let mut rng = DetRng::new(salt);
    for _ in 0..flips.max(1) {
        let z = rng.next_u64();
        let pos = (z as usize) % payload.len();
        // Guarantee a real change: XOR with a nonzero mask.
        let mask = ((z >> 32) as u8) | 1;
        payload[pos] ^= mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn seal_open_round_trips() {
        for len in [0usize, 1, 7, 64, 1500] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let sealed = seal(&payload);
            assert_eq!(sealed.len(), len + 4);
            assert_eq!(open(&sealed), Some(payload.as_slice()));
        }
    }

    #[test]
    fn open_rejects_short_and_tampered_frames() {
        assert_eq!(open(&[]), None);
        assert_eq!(open(&[1, 2, 3]), None);
        let mut sealed = seal(b"point code history");
        sealed[4] ^= 0x40;
        assert_eq!(open(&sealed), None);
        // Tampering with the trailer itself is also caught.
        let mut sealed = seal(b"point code history");
        let last = sealed.len() - 1;
        sealed[last] ^= 0x01;
        assert_eq!(open(&sealed), None);
    }

    #[test]
    fn flip_bytes_changes_payload_deterministically() {
        let original: Vec<u8> = (0..200u16).map(|i| (i % 256) as u8).collect();
        let mut a = original.clone();
        let mut b = original.clone();
        flip_bytes(&mut a, 77, 3);
        flip_bytes(&mut b, 77, 3);
        assert_ne!(a, original, "flip must damage at least one byte");
        assert_eq!(a, b, "same salt must flip identically");
        let mut c = original.clone();
        flip_bytes(&mut c, 78, 3);
        assert_ne!(a, c, "different salts must flip differently");
    }

    #[test]
    fn flipped_payload_fails_crc() {
        let sealed = seal(b"a video packet payload");
        let mut damaged = sealed.clone();
        flip_bytes(&mut damaged, 5, 2);
        // Either the payload or trailer changed; open must reject unless
        // the flip hit nothing (impossible: masks are nonzero).
        assert_ne!(damaged, sealed);
        assert_eq!(open(&damaged), None);
    }

    #[test]
    fn flip_bytes_handles_empty_payload() {
        let mut empty: [u8; 0] = [];
        flip_bytes(&mut empty, 1, 4);
    }
}
