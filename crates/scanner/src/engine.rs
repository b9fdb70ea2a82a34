//! The scan engine: signature matching plus recursive archive traversal.

use crate::db::CompiledDb;
use crate::filetype::FileKind;
use p2pmal_archive::zip::ZipArchive;

/// Engine limits, all guarding against adversarial downloads.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Maximum nesting of archives-inside-archives.
    pub max_archive_depth: usize,
    /// Per-entry decompressed-size ceiling.
    pub max_entry_bytes: u64,
    /// Maximum members examined per archive.
    pub max_entries: usize,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            max_archive_depth: 3,
            max_entry_bytes: 32 << 20,
            max_entries: 512,
        }
    }
}

/// One signature hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// Signature name, e.g. `W32.Alcan.A`.
    pub name: String,
    /// Where in the (possibly nested) object the hit occurred, e.g.
    /// `pack.zip!setup.exe`.
    pub location: String,
}

/// Result of scanning one downloaded file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// All distinct signature hits, outermost-first.
    pub detections: Vec<Detection>,
    /// Diagnostics: archives that could not be opened, limits hit.
    pub notes: Vec<String>,
    /// Structured subset of `notes`: content that *failed to decode*
    /// (corrupt archive, unreadable entry). Intentional scan limits (depth,
    /// entry count) are not decode errors. A clean verdict with decode
    /// errors means "could not be scanned", not "benign".
    pub decode_errors: Vec<String>,
}

impl Verdict {
    /// Did any signature match?
    pub fn infected(&self) -> bool {
        !self.detections.is_empty()
    }

    /// The first (primary) detection name, if any. The study attributes
    /// each malicious response to one malware; like the original AV logs we
    /// take the first hit.
    pub fn primary(&self) -> Option<&str> {
        self.detections.first().map(|d| d.name.as_str())
    }

    /// True when nothing matched *and* part of the content failed to
    /// decode: the clean result cannot be trusted. An infected verdict is
    /// never unscannable — a raw-byte signature hit on a corrupt archive is
    /// a real detection.
    pub fn unscannable(&self) -> bool {
        self.detections.is_empty() && !self.decode_errors.is_empty()
    }
}

/// Reusable decompression buffers for archive traversal: one per nesting
/// level. [`Scanner::scan_with_scratch`] extracts every archive member into
/// these instead of allocating a fresh `Vec` per member, so a long batch of
/// scans settles into zero allocator traffic per body. Each crawler's scan
/// pipeline owns one.
#[derive(Default)]
pub struct ScanScratch {
    levels: Vec<Vec<u8>>,
}

impl ScanScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Detaches the buffer for `depth` (empty if never used) so the caller
    /// can fill it while deeper recursion uses the later levels.
    fn take_level(&mut self, depth: usize) -> Vec<u8> {
        if depth < self.levels.len() {
            std::mem::take(&mut self.levels[depth])
        } else {
            Vec::new()
        }
    }

    /// Returns a buffer (and its capacity) to level `depth` for reuse.
    fn put_level(&mut self, depth: usize, buf: Vec<u8>) {
        if depth >= self.levels.len() {
            self.levels.resize_with(depth + 1, Vec::new);
        }
        self.levels[depth] = buf;
    }
}

/// A configured scanner around a compiled signature database.
pub struct Scanner {
    db: CompiledDb,
    config: ScanConfig,
}

impl Scanner {
    pub fn new(db: CompiledDb) -> Self {
        Scanner {
            db,
            config: ScanConfig::default(),
        }
    }

    pub fn with_config(db: CompiledDb, config: ScanConfig) -> Self {
        Scanner { db, config }
    }

    /// Access to the underlying database (e.g. for listing names).
    pub fn db(&self) -> &CompiledDb {
        &self.db
    }

    /// Scans a downloaded file: signature-matches the raw bytes, and if the
    /// content is a ZIP archive, recurses into its members.
    pub fn scan(&self, name: &str, data: &[u8]) -> Verdict {
        self.scan_with_scratch(name, data, &mut ScanScratch::new())
    }

    /// Like [`Scanner::scan`], reusing the caller's [`ScanScratch`] for
    /// archive-member decompression. Verdicts are identical to `scan`; only
    /// allocator traffic differs.
    pub fn scan_with_scratch(&self, name: &str, data: &[u8], scratch: &mut ScanScratch) -> Verdict {
        let mut verdict = Verdict {
            detections: Vec::new(),
            notes: Vec::new(),
            decode_errors: Vec::new(),
        };
        let mut path = Vec::new();
        self.scan_inner(name, &mut path, data, 0, &mut verdict, scratch);
        verdict
    }

    fn scan_inner(
        &self,
        root: &str,
        path: &mut Vec<String>,
        data: &[u8],
        depth: usize,
        verdict: &mut Verdict,
        scratch: &mut ScanScratch,
    ) {
        let detections = &mut verdict.detections;
        self.db.matches_each(data, |hit| {
            // Location strings materialize only for a *new* detection; the
            // common clean scan allocates nothing on this path.
            if !detections.iter().any(|d| d.name == hit) {
                detections.push(Detection {
                    name: hit.to_string(),
                    location: render_location(root, path),
                });
            }
        });
        if FileKind::from_magic(data) == FileKind::Zip {
            if depth >= self.config.max_archive_depth {
                verdict.notes.push(format!(
                    "{}: archive depth limit reached",
                    render_location(root, path)
                ));
                return;
            }
            match ZipArchive::parse_with_limit(data, self.config.max_entry_bytes) {
                Ok(archive) => {
                    // This level's buffer is detached while deeper recursion
                    // borrows the scratch for the levels below it.
                    let mut buf = scratch.take_level(depth);
                    for (i, entry) in archive.entries().iter().enumerate() {
                        if i >= self.config.max_entries {
                            verdict.notes.push(format!(
                                "{}: entry limit reached",
                                render_location(root, path)
                            ));
                            break;
                        }
                        match archive.read_into(i, &mut buf) {
                            Ok(()) => {
                                path.push(entry.name.clone());
                                self.scan_inner(root, path, &buf, depth + 1, verdict, scratch);
                                path.pop();
                            }
                            Err(e) => {
                                path.push(entry.name.clone());
                                let msg =
                                    format!("{}: unreadable ({e})", render_location(root, path));
                                verdict.notes.push(msg.clone());
                                verdict.decode_errors.push(msg);
                                path.pop();
                            }
                        }
                    }
                    scratch.put_level(depth, buf);
                }
                Err(e) => {
                    let msg = format!("{}: corrupt archive ({e})", render_location(root, path));
                    verdict.notes.push(msg.clone());
                    verdict.decode_errors.push(msg);
                }
            }
        }
    }
}

/// Renders a nested-object location, e.g. `pack.zip!setup.exe`.
fn render_location(root: &str, path: &[String]) -> String {
    let mut s = String::with_capacity(root.len() + path.iter().map(|p| p.len() + 1).sum::<usize>());
    s.push_str(root);
    for p in path {
        s.push('!');
        s.push_str(p);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::SignatureDb;
    use p2pmal_archive::zip::{Method, ZipWriter};

    fn scanner(entries: &[(&str, &[u8])]) -> Scanner {
        let mut db = SignatureDb::new();
        for (n, p) in entries {
            db.add_literal(n, p).unwrap();
        }
        Scanner::new(db.build().unwrap())
    }

    #[test]
    fn clean_file() {
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let v = s.scan("file.exe", b"MZ nothing suspicious at all");
        assert!(!v.infected());
        assert_eq!(v.primary(), None);
    }

    #[test]
    fn infected_exe() {
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let v = s.scan("file.exe", b"MZ junk EVILBYTES junk");
        assert!(v.infected());
        assert_eq!(v.primary(), Some("Worm.A"));
        assert_eq!(v.detections[0].location, "file.exe");
    }

    /// A compressible executable body carrying the signature: after DEFLATE
    /// the signature bytes are no longer visible in the raw archive, so a
    /// detection proves the engine actually decompressed the member.
    fn infected_exe_body() -> Vec<u8> {
        let mut body = b"MZ ".to_vec();
        body.extend(std::iter::repeat_n(b'x', 400));
        body.extend_from_slice(b"EVILBYTES");
        body.extend(std::iter::repeat_n(b'y', 400));
        body
    }

    #[test]
    fn infected_inside_zip() {
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let mut w = ZipWriter::new();
        w.add("setup.exe", &infected_exe_body(), Method::Deflate);
        w.add("readme.txt", b"totally normal", Method::Stored);
        let archive = w.finish();
        // Signature must not be visible raw, or the test proves nothing.
        assert!(!s.db().is_infected(&archive[..archive.len().min(30)]));
        let v = s.scan("bundle.zip", &archive);
        assert!(v.infected());
        assert_eq!(v.detections[0].location, "bundle.zip!setup.exe");
    }

    #[test]
    fn nested_zip_recursion() {
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let mut inner = ZipWriter::new();
        inner.add("x.exe", &infected_exe_body(), Method::Deflate);
        let mut outer = ZipWriter::new();
        outer.add("inner.zip", &inner.finish(), Method::Stored);
        let v = s.scan("outer.zip", &outer.finish());
        assert!(v.infected());
        assert_eq!(v.detections[0].location, "outer.zip!inner.zip!x.exe");
    }

    #[test]
    fn depth_limit_stops_recursion() {
        let s = Scanner::with_config(
            {
                let mut db = SignatureDb::new();
                db.add_literal("Worm.A", b"EVILBYTES").unwrap();
                db.build().unwrap()
            },
            ScanConfig {
                max_archive_depth: 1,
                ..Default::default()
            },
        );
        let mut inner = ZipWriter::new();
        inner.add("x.exe", &infected_exe_body(), Method::Deflate);
        let mut outer = ZipWriter::new();
        outer.add("inner.zip", &inner.finish(), Method::Stored);
        let v = s.scan("outer.zip", &outer.finish());
        // Depth 1 allows opening outer but not inner.
        assert!(!v.infected());
        assert!(v.notes.iter().any(|n| n.contains("depth limit")));
    }

    #[test]
    fn corrupt_zip_noted_not_fatal() {
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let mut fake = b"PK\x03\x04".to_vec();
        fake.extend_from_slice(b"garbage that is not a zip EVILBYTES");
        let v = s.scan("broken.zip", &fake);
        // Raw-byte signature still fires even though the archive is corrupt.
        assert!(v.infected());
        assert!(v.notes.iter().any(|n| n.contains("corrupt archive")));
    }

    #[test]
    fn truncated_zip_is_unscannable_not_clean() {
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let mut w = ZipWriter::new();
        w.add("setup.exe", &infected_exe_body(), Method::Deflate);
        let archive = w.finish();
        let v = s.scan("cut.zip", &archive[..archive.len() / 2]);
        // No silent clean verdict for undecodable bytes: the half archive
        // has no readable member, so the verdict must say so.
        assert!(!v.infected());
        assert!(v.unscannable(), "truncated archive must be unscannable");
        assert!(v.decode_errors[0].contains("corrupt archive"));
    }

    /// Fuzz-style: bit-flipped archives never panic the engine, and any
    /// verdict without detections that saw a decode failure self-reports
    /// as unscannable rather than clean.
    #[test]
    fn bit_flipped_zip_never_panics_never_silently_clean() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let mut w = ZipWriter::new();
        w.add("setup.exe", &infected_exe_body(), Method::Deflate);
        w.add("notes.txt", b"plain text member", Method::Stored);
        let archive = w.finish();
        let mut rng = StdRng::seed_from_u64(42);
        let mut unscannable = 0;
        for _ in 0..500 {
            let mut garbled = archive.clone();
            let bit = rng.gen_range(0..garbled.len() * 8);
            garbled[bit / 8] ^= 1 << (bit % 8);
            let v = s.scan("flip.zip", &garbled);
            if v.unscannable() {
                unscannable += 1;
                assert!(!v.decode_errors.is_empty());
            }
        }
        // With a single flipped bit a healthy fraction of mutants must be
        // caught as undecodable (CRC mismatch, bad Huffman table, ...).
        assert!(unscannable > 0, "no mutant was flagged unscannable");
    }

    #[test]
    fn infected_but_corrupt_archive_stays_a_detection() {
        // A raw-signature hit on a corrupt archive is a detection, not an
        // unscannable verdict — corruption must never launder a positive.
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let mut fake = b"PK\x03\x04".to_vec();
        fake.extend_from_slice(b"EVILBYTES but the zip structure is gone");
        let v = s.scan("broken.zip", &fake);
        assert!(v.infected());
        assert!(!v.unscannable());
        assert!(!v.decode_errors.is_empty());
    }

    #[test]
    fn scratch_reuse_matches_fresh_scan() {
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let mut inner = ZipWriter::new();
        inner.add("x.exe", &infected_exe_body(), Method::Deflate);
        let mut outer = ZipWriter::new();
        outer.add("inner.zip", &inner.finish(), Method::Stored);
        outer.add("clean.exe", b"MZ nothing here", Method::Deflate);
        let nested = outer.finish();
        let mut flat = ZipWriter::new();
        flat.add("a.exe", &infected_exe_body(), Method::Deflate);
        let flat = flat.finish();
        let mut scratch = ScanScratch::new();
        // Same scratch across differently-shaped bodies; every verdict must
        // equal the fresh-allocation scan.
        for (name, body) in [
            ("outer.zip", nested.as_slice()),
            ("flat.zip", flat.as_slice()),
            ("outer.zip", nested.as_slice()),
            ("plain.exe", b"MZ EVILBYTES".as_slice()),
        ] {
            assert_eq!(
                s.scan_with_scratch(name, body, &mut scratch),
                s.scan(name, body)
            );
        }
    }

    #[test]
    fn multiple_distinct_malware_reported_once_each() {
        let s = scanner(&[("Worm.A", b"AAAAAA"), ("Trojan.B", b"BBBBBB")]);
        let v = s.scan("f.exe", b"AAAAAA BBBBBB AAAAAA");
        let names: Vec<&str> = v.detections.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["Worm.A", "Trojan.B"]);
    }

    #[test]
    fn same_malware_in_zip_and_raw_deduped() {
        // Stored members leave the signature visible in the raw archive
        // too; the verdict still reports the name exactly once.
        let s = scanner(&[("Worm.A", b"EVILBYTES")]);
        let mut w = ZipWriter::new();
        w.add("a.exe", b"EVILBYTES", Method::Stored);
        w.add("b.exe", b"EVILBYTES", Method::Stored);
        let v = s.scan("two.zip", &w.finish());
        assert_eq!(v.detections.len(), 1, "one name, one report");
        assert_eq!(v.detections[0].location, "two.zip");
    }
}
