//! Message digests and text codecs used by the P2P protocols in this
//! workspace.
//!
//! Gnutella's HUGE extension identifies files by `urn:sha1:<Base32(SHA-1)>`
//! and OpenFT addresses shared files by their MD5 digest, so both algorithms
//! are implemented here from scratch (no external crypto crates are available
//! in this environment, and the digests are used for content addressing, not
//! for security).
//!
//! Both digests expose the usual incremental API:
//!
//! ```
//! use p2pmal_hashes::Sha1;
//! let mut h = Sha1::new();
//! h.update(b"abc");
//! assert_eq!(h.finalize().to_hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
//! ```

mod base32;
mod md5;
mod sha1;

pub use base32::{base32_decode, base32_decode_array, base32_encode, Base32Error};
pub use md5::{md5, Md5, Md5Digest};
pub use sha1::{sha1, sha1_many, Sha1, Sha1Digest};

/// Renders `bytes` as lowercase hexadecimal.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
    }
    s
}

/// Parses lowercase or uppercase hexadecimal into bytes.
///
/// Returns `None` on odd length or non-hex characters.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits: Vec<u32> = s.chars().map(|c| c.to_digit(16)).collect::<Option<_>>()?;
    Some(
        digits
            .chunks(2)
            .map(|p| ((p[0] << 4) | p[1]) as u8)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let data = [0u8, 1, 0xab, 0xff, 0x10];
        assert_eq!(from_hex(&to_hex(&data)).unwrap(), data);
    }

    #[test]
    fn hex_rejects_odd_length() {
        assert!(from_hex("abc").is_none());
    }

    #[test]
    fn hex_rejects_non_hex() {
        assert!(from_hex("zz").is_none());
    }

    #[test]
    fn hex_empty() {
        assert_eq!(to_hex(&[]), "");
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
    }
}
