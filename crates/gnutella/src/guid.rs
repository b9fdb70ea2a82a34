//! Gnutella message GUIDs.
//!
//! Every descriptor carries a 16-byte GUID used for duplicate suppression
//! and reverse routing. Modern (post-0.4) servents mark their GUIDs the way
//! LimeWire did: byte 8 is `0xFF` ("new servent") and byte 15 is `0x00`
//! (reserved, must be zero).

use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// A 16-byte Gnutella GUID.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Guid(pub [u8; 16]);

impl Guid {
    /// Generates a fresh GUID with LimeWire-style markers.
    pub fn random(rng: &mut StdRng) -> Self {
        let mut b = [0u8; 16];
        rng.fill(&mut b);
        b[8] = 0xFF;
        b[15] = 0x00;
        Guid(b)
    }

    /// Parses from a wire slice. Returns `None` unless exactly 16 bytes are
    /// available at the front.
    pub fn from_slice(data: &[u8]) -> Option<Self> {
        if data.len() < 16 {
            return None;
        }
        let mut b = [0u8; 16];
        b.copy_from_slice(&data[..16]);
        Some(Guid(b))
    }

    /// True when the GUID carries the modern-servent markers.
    pub fn is_modern(&self) -> bool {
        self.0[8] == 0xFF && self.0[15] == 0x00
    }

    /// Lower-case hex, as used in PUSH `GIV` lines.
    pub fn to_hex(&self) -> String {
        p2pmal_hashes::to_hex(&self.0)
    }

    /// Parses the 32-hex-digit form.
    pub fn from_hex(s: &str) -> Option<Self> {
        let bytes = p2pmal_hashes::from_hex(s)?;
        if bytes.len() != 16 {
            return None;
        }
        let mut b = [0u8; 16];
        b.copy_from_slice(&bytes);
        Some(Guid(b))
    }
}

/// GUIDs key the servent's hashed route tables
/// ([`p2pmal_netsim::FifoMap`]). The bytes are already uniformly random, so
/// folding the halves (with a rotate so byte-8/15 markers land on distinct
/// lanes) feeds the table's own finalizer plenty of entropy.
impl p2pmal_netsim::KeyHash for Guid {
    #[inline]
    fn key_hash(&self) -> u64 {
        let a = u64::from_le_bytes(self.0[..8].try_into().unwrap());
        let b = u64::from_le_bytes(self.0[8..].try_into().unwrap());
        (a ^ b.rotate_left(32)).key_hash()
    }
}

impl fmt::Debug for Guid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Display for Guid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn random_guids_carry_markers_and_differ() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Guid::random(&mut rng);
        let b = Guid::random(&mut rng);
        assert!(a.is_modern());
        assert!(b.is_modern());
        assert_ne!(a, b);
    }

    #[test]
    fn hex_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = Guid::random(&mut rng);
        assert_eq!(Guid::from_hex(&g.to_hex()), Some(g));
        assert_eq!(g.to_hex().len(), 32);
    }

    #[test]
    fn from_slice_requires_16_bytes() {
        assert!(Guid::from_slice(&[0u8; 15]).is_none());
        assert!(Guid::from_slice(&[0u8; 16]).is_some());
        // Extra bytes are fine; only the first 16 are taken.
        let g = Guid::from_slice(&[7u8; 20]).unwrap();
        assert_eq!(g.0, [7u8; 16]);
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert!(Guid::from_hex("xyz").is_none());
        assert!(Guid::from_hex("00ff").is_none());
    }
}
