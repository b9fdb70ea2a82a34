//! GGEP — the Gnutella Generic Extension Protocol.
//!
//! GGEP blocks ride in the extension areas of PING/PONG/QUERY/QUERYHIT
//! messages. A block is the magic byte `0xC3` followed by one or more
//! extensions:
//!
//! ```text
//! flags: 1 byte   bit7 = last extension, bit6 = COBS encoded,
//!                 bit5 = deflate compressed, bits0-3 = id length (1-15)
//! id:    1-15 bytes of ASCII
//! len:   1-3 bytes; each carries 6 payload bits; 0b10xxxxxx = more length
//!        bytes follow, 0b01xxxxxx = final length byte
//! data:  `len` bytes
//! ```
//!
//! COBS and per-extension deflate were rarely used by 2006 servents and are
//! rejected here as unsupported (never misparsed as data).

use std::fmt;

/// The GGEP block magic.
pub const GGEP_MAGIC: u8 = 0xC3;

/// Maximum bytes a single extension may carry (3 length bytes × 6 bits).
pub const MAX_EXT_LEN: usize = 0x3FFFF;

/// One parsed GGEP extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extension {
    pub id: String,
    pub data: Vec<u8>,
}

/// GGEP parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GgepError {
    NoMagic,
    Truncated,
    BadIdLength(u8),
    NonAsciiId,
    BadLength,
    UnsupportedEncoding(&'static str),
    TooLong(usize),
}

impl fmt::Display for GgepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GgepError::NoMagic => write!(f, "missing GGEP magic"),
            GgepError::Truncated => write!(f, "truncated GGEP block"),
            GgepError::BadIdLength(n) => write!(f, "bad GGEP id length {n}"),
            GgepError::NonAsciiId => write!(f, "non-ASCII GGEP id"),
            GgepError::BadLength => write!(f, "malformed GGEP length"),
            GgepError::UnsupportedEncoding(e) => write!(f, "unsupported GGEP encoding: {e}"),
            GgepError::TooLong(n) => write!(f, "GGEP extension of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for GgepError {}

/// Encodes `extensions` into a GGEP block. Panics if an id is empty, longer
/// than 15 bytes, or non-ASCII, or if data exceeds [`MAX_EXT_LEN`] — those
/// are caller bugs, not data-dependent conditions.
pub fn encode(extensions: &[Extension]) -> Vec<u8> {
    assert!(
        !extensions.is_empty(),
        "GGEP block needs at least one extension"
    );
    let mut out = vec![GGEP_MAGIC];
    for (i, ext) in extensions.iter().enumerate() {
        let id = ext.id.as_bytes();
        assert!(
            !id.is_empty() && id.len() <= 15,
            "GGEP id length {}",
            id.len()
        );
        assert!(
            id.iter().all(|b| b.is_ascii() && *b != 0),
            "GGEP id must be ASCII"
        );
        assert!(ext.data.len() <= MAX_EXT_LEN, "GGEP data too long");
        let last = i + 1 == extensions.len();
        let mut flags = id.len() as u8;
        if last {
            flags |= 0x80;
        }
        out.push(flags);
        out.extend_from_slice(id);
        encode_len(ext.data.len(), &mut out);
        out.extend_from_slice(&ext.data);
    }
    out
}

/// Encodes a length in 1-3 six-bit groups, most-significant first.
fn encode_len(len: usize, out: &mut Vec<u8>) {
    debug_assert!(len <= MAX_EXT_LEN);
    if len > 0xFFF {
        out.push(0x80 | ((len >> 12) & 0x3F) as u8);
    }
    if len > 0x3F {
        out.push(0x80 | ((len >> 6) & 0x3F) as u8);
    }
    out.push(0x40 | (len & 0x3F) as u8);
}

/// Parses a GGEP block from the front of `data`. Returns the extensions and
/// the number of bytes consumed.
pub fn parse(data: &[u8]) -> Result<(Vec<Extension>, usize), GgepError> {
    let mut exts = Vec::new();
    let used = walk(data, |id, body| {
        exts.push(Extension {
            id: id.to_string(),
            data: body.to_vec(),
        })
    })?;
    Ok((exts, used))
}

/// Walks a GGEP block from the front of `data` without allocating, calling
/// `each(id, data)` per extension; the one grammar behind [`parse`]. Returns
/// the number of bytes consumed.
pub fn walk<'a>(
    data: &'a [u8],
    mut each: impl FnMut(&'a str, &'a [u8]),
) -> Result<usize, GgepError> {
    if data.first() != Some(&GGEP_MAGIC) {
        return Err(GgepError::NoMagic);
    }
    let mut pos = 1;
    loop {
        let flags = *data.get(pos).ok_or(GgepError::Truncated)?;
        pos += 1;
        if flags & 0x40 != 0 {
            return Err(GgepError::UnsupportedEncoding("COBS"));
        }
        if flags & 0x20 != 0 {
            return Err(GgepError::UnsupportedEncoding("deflate"));
        }
        let id_len = (flags & 0x0F) as usize;
        if id_len == 0 {
            return Err(GgepError::BadIdLength(0));
        }
        let id_bytes = data.get(pos..pos + id_len).ok_or(GgepError::Truncated)?;
        if !id_bytes.iter().all(|b| b.is_ascii() && *b != 0) {
            return Err(GgepError::NonAsciiId);
        }
        let id = std::str::from_utf8(id_bytes).expect("checked ASCII");
        pos += id_len;

        let mut len = 0usize;
        let mut done = false;
        for _ in 0..3 {
            let b = *data.get(pos).ok_or(GgepError::Truncated)?;
            pos += 1;
            len = (len << 6) | (b & 0x3F) as usize;
            match b & 0xC0 {
                0x80 => continue,
                0x40 => {
                    done = true;
                    break;
                }
                _ => return Err(GgepError::BadLength),
            }
        }
        if !done {
            return Err(GgepError::BadLength);
        }
        if len > MAX_EXT_LEN {
            return Err(GgepError::TooLong(len));
        }
        let body = data.get(pos..pos + len).ok_or(GgepError::Truncated)?;
        pos += len;
        each(id, body);
        if flags & 0x80 != 0 {
            return Ok(pos);
        }
    }
}

/// Convenience: find an extension by id.
pub fn find<'a>(exts: &'a [Extension], id: &str) -> Option<&'a [u8]> {
    exts.iter().find(|e| e.id == id).map(|e| e.data.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext(id: &str, data: &[u8]) -> Extension {
        Extension {
            id: id.to_string(),
            data: data.to_vec(),
        }
    }

    #[test]
    fn single_extension_roundtrip() {
        let block = encode(&[ext("DU", &[0x3C, 0x00])]);
        assert_eq!(block[0], GGEP_MAGIC);
        let (exts, used) = parse(&block).unwrap();
        assert_eq!(used, block.len());
        assert_eq!(exts, vec![ext("DU", &[0x3C, 0x00])]);
    }

    #[test]
    fn multiple_extensions_roundtrip_and_find() {
        let input = vec![ext("VC", b"LIME"), ext("CT", &[1, 2, 3, 4]), ext("UP", &[])];
        let block = encode(&input);
        let (exts, _) = parse(&block).unwrap();
        assert_eq!(exts, input);
        assert_eq!(find(&exts, "VC"), Some(&b"LIME"[..]));
        assert_eq!(find(&exts, "CT"), Some(&[1u8, 2, 3, 4][..]));
        assert_eq!(find(&exts, "UP"), Some(&[][..]));
        assert_eq!(find(&exts, "XX"), None);
    }

    #[test]
    fn length_encoding_boundaries() {
        for n in [0usize, 1, 0x3F, 0x40, 0xFFF, 0x1000, MAX_EXT_LEN] {
            let data = vec![0xAB; n];
            let block = encode(&[ext("T", &data)]);
            let (exts, used) = parse(&block).unwrap();
            assert_eq!(used, block.len(), "len {n}");
            assert_eq!(exts[0].data.len(), n, "len {n}");
        }
    }

    #[test]
    fn trailing_bytes_are_not_consumed() {
        let mut block = encode(&[ext("A", b"x")]);
        let ggep_len = block.len();
        block.extend_from_slice(b"HUGE-urn-follows");
        let (_, used) = parse(&block).unwrap();
        assert_eq!(used, ggep_len);
    }

    #[test]
    fn rejects_missing_magic_and_truncation() {
        assert_eq!(parse(b""), Err(GgepError::NoMagic));
        assert_eq!(parse(b"\x00rest"), Err(GgepError::NoMagic));
        let block = encode(&[ext("AB", b"hello")]);
        for cut in 1..block.len() {
            let r = parse(&block[..cut]);
            assert!(r.is_err(), "cut {cut} parsed: {r:?}");
        }
    }

    #[test]
    fn rejects_unsupported_encodings() {
        // flags: last + COBS + idlen 1
        let raw = [GGEP_MAGIC, 0x80 | 0x40 | 0x01, b'A', 0x40];
        assert_eq!(parse(&raw), Err(GgepError::UnsupportedEncoding("COBS")));
        let raw = [GGEP_MAGIC, 0x80 | 0x20 | 0x01, b'A', 0x40];
        assert_eq!(parse(&raw), Err(GgepError::UnsupportedEncoding("deflate")));
    }

    #[test]
    fn rejects_bad_length_encoding() {
        // Length byte with neither continue nor final marker.
        let raw = [GGEP_MAGIC, 0x80 | 0x01, b'A', 0x00];
        assert_eq!(parse(&raw), Err(GgepError::BadLength));
        // Four length bytes (three "continue" markers then anything).
        let raw = [GGEP_MAGIC, 0x80 | 0x01, b'A', 0x81, 0x81, 0x81, 0x41];
        assert_eq!(parse(&raw), Err(GgepError::BadLength));
    }

    #[test]
    fn rejects_zero_id_length_and_non_ascii() {
        let raw = [GGEP_MAGIC, 0x80, 0x40];
        assert_eq!(parse(&raw), Err(GgepError::BadIdLength(0)));
        let raw = [GGEP_MAGIC, 0x80 | 0x01, 0xFF, 0x40];
        assert_eq!(parse(&raw), Err(GgepError::NonAsciiId));
    }
}
