//! Base32 (RFC 4648 alphabet, unpadded) as used by Gnutella `urn:sha1` URNs.
//!
//! Gnutella's HUGE specification encodes the 20-byte SHA-1 digest as 32
//! Base32 characters without padding; decoding is case-insensitive, matching
//! deployed servent behaviour.

const ALPHABET: &[u8; 32] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ234567";

/// Errors from [`base32_decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base32Error {
    /// A character outside the RFC 4648 alphabet.
    InvalidCharacter(char),
    /// The input length leaves trailing bits that cannot round-trip
    /// (lengths ≡ 1, 3 or 6 mod 8 are never produced by an encoder).
    InvalidLength(usize),
    /// Unused trailing bits were non-zero, so the input is not canonical.
    NonZeroPadding,
}

impl std::fmt::Display for Base32Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Base32Error::InvalidCharacter(c) => write!(f, "invalid base32 character {c:?}"),
            Base32Error::InvalidLength(n) => write!(f, "invalid base32 length {n}"),
            Base32Error::NonZeroPadding => write!(f, "non-zero base32 padding bits"),
        }
    }
}

impl std::error::Error for Base32Error {}

/// Encodes `data` as unpadded Base32.
pub fn base32_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(5) * 8);
    let mut acc: u64 = 0;
    let mut bits = 0u32;
    for &b in data {
        acc = (acc << 8) | b as u64;
        bits += 8;
        while bits >= 5 {
            bits -= 5;
            out.push(ALPHABET[((acc >> bits) & 0x1f) as usize] as char);
        }
    }
    if bits > 0 {
        out.push(ALPHABET[((acc << (5 - bits)) & 0x1f) as usize] as char);
    }
    out
}

/// Decodes unpadded Base32 (case-insensitive).
pub fn base32_decode(s: &str) -> Result<Vec<u8>, Base32Error> {
    let mut out = Vec::with_capacity(s.len() * 5 / 8);
    decode_each(s, |b| out.push(b))?;
    Ok(out)
}

/// Decodes unpadded Base32 into exactly `N` bytes without allocating. The
/// input is accepted iff [`base32_decode`] accepts it and yields `N` bytes.
pub fn base32_decode_array<const N: usize>(s: &str) -> Result<[u8; N], Base32Error> {
    let mut out = [0u8; N];
    let mut n = 0;
    decode_each(s, |b| {
        if let Some(slot) = out.get_mut(n) {
            *slot = b;
        }
        n += 1;
    })?;
    if n != N {
        return Err(Base32Error::InvalidLength(s.len()));
    }
    Ok(out)
}

/// The decoder behind both entry points: calls `push` per output byte.
fn decode_each(s: &str, mut push: impl FnMut(u8)) -> Result<(), Base32Error> {
    match s.len() % 8 {
        1 | 3 | 6 => return Err(Base32Error::InvalidLength(s.len())),
        _ => {}
    }
    let mut acc: u64 = 0;
    let mut bits = 0u32;
    for c in s.chars() {
        let v = match c.to_ascii_uppercase() {
            c @ 'A'..='Z' => c as u64 - 'A' as u64,
            c @ '2'..='7' => c as u64 - '2' as u64 + 26,
            _ => return Err(Base32Error::InvalidCharacter(c)),
        };
        acc = (acc << 5) | v;
        bits += 5;
        if bits >= 8 {
            bits -= 8;
            push(((acc >> bits) & 0xff) as u8);
        }
    }
    if bits > 0 && (acc & ((1 << bits) - 1)) != 0 {
        return Err(Base32Error::NonZeroPadding);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // RFC 4648 section 10 vectors, padding stripped.
    #[test]
    fn rfc4648_vectors() {
        let cases: [(&[u8], &str); 6] = [
            (b"f", "MY"),
            (b"fo", "MZXQ"),
            (b"foo", "MZXW6"),
            (b"foob", "MZXW6YQ"),
            (b"fooba", "MZXW6YTB"),
            (b"foobar", "MZXW6YTBOI"),
        ];
        for (raw, enc) in cases {
            assert_eq!(base32_encode(raw), enc);
            assert_eq!(base32_decode(enc).unwrap(), raw);
        }
    }

    #[test]
    fn empty() {
        assert_eq!(base32_encode(b""), "");
        assert_eq!(base32_decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn decode_is_case_insensitive() {
        assert_eq!(base32_decode("mzxw6ytboi").unwrap(), b"foobar");
    }

    #[test]
    fn rejects_bad_character() {
        assert_eq!(
            base32_decode("MZ1W6YTB"),
            Err(Base32Error::InvalidCharacter('1'))
        );
    }

    #[test]
    fn rejects_impossible_length() {
        assert_eq!(base32_decode("A"), Err(Base32Error::InvalidLength(1)));
        assert_eq!(base32_decode("ABC"), Err(Base32Error::InvalidLength(3)));
    }

    #[test]
    fn rejects_noncanonical_padding() {
        // "MZ" decodes to one byte with 2 trailing bits; force them non-zero.
        assert_eq!(base32_decode("MB"), Err(Base32Error::NonZeroPadding));
    }

    #[test]
    fn sha1_digest_is_32_chars() {
        assert_eq!(base32_encode(&[0u8; 20]).len(), 32);
    }

    proptest! {
        #[test]
        fn roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let enc = base32_encode(&data);
            prop_assert_eq!(base32_decode(&enc).unwrap(), data);
        }

        #[test]
        fn decode_never_panics(s in "[ -~]{0,64}") {
            let _ = base32_decode(&s);
        }

        /// The fixed-size decoder accepts exactly the 20-byte decodings.
        #[test]
        fn decode_array_agrees_with_decode(s in "[A-Za-z2-9]{28,36}") {
            let vec = base32_decode(&s).ok().filter(|v| v.len() == 20);
            let arr = base32_decode_array::<20>(&s).ok().map(|a| a.to_vec());
            prop_assert_eq!(arr, vec);
        }
    }
}
