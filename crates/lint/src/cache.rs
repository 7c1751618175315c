//! Incremental scan cache (`--cache <path>`): per-file lexer facts
//! keyed on FNV-1a-64 content hashes, so re-linting an unchanged tree
//! skips the expensive per-file front half (tokenize → test-strip →
//! suppression extraction → lexical rules) and only re-derives the
//! cheap token-level passes.
//!
//! What is cached per file: the content hash, the parsed suppressions,
//! malformed-allow findings, lexical rule hits, and the comment-free
//! token stream. What is *never* cached: anything cross-file — the
//! call graph, reachability, and the value-range summaries are rebuilt
//! on every run, because an edit in one file changes what is reachable
//! (and therefore reportable) in every other file.
//!
//! The on-disk format reuses the workspace codec vocabulary
//! (`mfpa-bytes`) and its checksum seal; any damage — truncation, a
//! bit flip, a version bump, an unknown token tag — degrades to a cold
//! scan for every file, never to an error and never to stale facts.
//! The cache file is rewritten after any run that rescanned a file, so
//! a corrupt cache heals itself; a fully-warm run leaves it untouched.

use crate::callgraph::FileItems;
use crate::lexer::{Token, TokenKind};
use crate::rules::{RawFinding, Suppression};
use crate::{
    assemble_report, callgraph, dataflow, parser, scan_file, taint, FileScan, LintOptions,
    LintReport, SourceFile,
};
use mfpa_bytes::{fnv1a64, unseal, ByteReader, ByteWriter};
use std::collections::BTreeMap;
use std::path::Path;

/// Format magic (`MFLC`) and version; either mismatching discards the
/// whole cache. The lint schema version rides along so a rule-catalog
/// change also invalidates cached lexical hits.
const MAGIC: u32 = 0x4D46_4C43;
const VERSION: u32 = 1;

/// How a cached run went, for benches and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Files whose facts were reused from the cache.
    pub reused: usize,
    /// Files scanned cold (changed, new, or cache miss).
    pub rescanned: usize,
}

/// One file's persisted facts.
struct Entry {
    hash: u64,
    allows: Vec<Suppression>,
    malformed: Vec<RawFinding>,
    lexical: Vec<RawFinding>,
    code: Vec<Token>,
}

/// Lints `files` like [`crate::lint_files`], reusing per-file facts
/// from the cache at `path` for files whose content hash is unchanged,
/// and rewriting the cache afterwards. The cross-file half (call
/// graph, reachability, value-range interpretation) always runs, so a
/// warm run's report is identical to a cold run's by construction.
#[must_use]
pub fn lint_files_cached(
    files: &[SourceFile],
    opts: LintOptions,
    path: &Path,
) -> (LintReport, CacheStats) {
    let old = load_cache(path).unwrap_or_default();
    let workers = mfpa_par::Workers::from_config(0);
    let scans: Vec<(FileScan, bool)> = mfpa_par::ordered_map(files, workers, |_, sf| {
        let hash = fnv1a64(sf.text.as_bytes());
        match old.get(sf.label.as_str()) {
            Some(e) if e.hash == hash => (rebuild_scan(sf, e), true),
            _ => (scan_file(sf), false),
        }
    });
    let mut stats = CacheStats::default();
    for (_, reused) in &scans {
        if *reused {
            stats.reused += 1;
        } else {
            stats.rescanned += 1;
        }
    }
    let scans: Vec<FileScan> = scans.into_iter().map(|(s, _)| s).collect();
    // A fully-warm run would rewrite byte-identical entries (they are
    // pure functions of file content); skip the seal-and-write unless
    // something changed or stale entries linger.
    if stats.rescanned > 0 || old.len() != scans.len() {
        store_cache(path, files, &scans);
    }
    (assemble_report(&scans, opts), stats)
}

/// Rebuilds a [`FileScan`] from cached facts: the parse tree and the
/// per-function taint/dataflow facts are pure functions of the cached
/// token stream, so re-deriving them cannot go stale.
fn rebuild_scan(sf: &SourceFile, e: &Entry) -> FileScan {
    let code = e.code.clone();
    let parsed = parser::parse(&code);
    let facts = parsed
        .functions
        .iter()
        .map(|f| taint::analyze_fn(&code, f, &parsed.unordered_fields))
        .collect();
    let flows = parsed
        .functions
        .iter()
        .map(|f| dataflow::analyze_fn(&code, f))
        .collect();
    FileScan {
        crate_name: sf.crate_name.clone(),
        label: sf.label.clone(),
        allows: e.allows.clone(),
        malformed: e.malformed.clone(),
        lexical: e.lexical.clone(),
        items: FileItems {
            crate_name: sf.crate_name.clone(),
            label: sf.label.clone(),
            mod_path: callgraph::module_path_from_label(&sf.label),
            parsed,
            facts,
            flows,
            code,
        },
    }
}

/// Reads the cache file; any failure (missing file, bad seal, version
/// skew, decode error) yields `None` and the run goes fully cold.
fn load_cache(path: &Path) -> Option<BTreeMap<String, Entry>> {
    let raw = std::fs::read(path).ok()?;
    let payload = unseal(&raw).ok()?;
    let mut r = ByteReader::new(payload);
    if r.u32().ok()? != MAGIC || r.u32().ok()? != VERSION || r.u32().ok()? != crate::SCHEMA_VERSION
    {
        return None;
    }
    let n = r.len(1).ok()?;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let label = read_str(&mut r).ok()?;
        let hash = r.u64().ok()?;
        let allows = read_vec(&mut r, read_allow).ok()?;
        let malformed = read_vec(&mut r, read_finding).ok()?;
        let lexical = read_vec(&mut r, read_finding).ok()?;
        let code = read_vec(&mut r, read_token).ok()?;
        out.insert(
            label,
            Entry {
                hash,
                allows,
                malformed,
                lexical,
                code,
            },
        );
    }
    if !r.done() {
        return None;
    }
    Some(out)
}

/// Writes the cache for this run's scans. Best-effort: an unwritable
/// path costs the next run its warm start, nothing else.
fn store_cache(path: &Path, files: &[SourceFile], scans: &[FileScan]) {
    let mut w = ByteWriter::new();
    w.u32(MAGIC);
    w.u32(VERSION);
    w.u32(crate::SCHEMA_VERSION);
    w.counter(scans.len().min(files.len()));
    for (sf, scan) in files.iter().zip(scans) {
        write_str(&mut w, &scan.label);
        w.u64(fnv1a64(sf.text.as_bytes()));
        w.counter(scan.allows.len());
        for a in &scan.allows {
            write_allow(&mut w, a);
        }
        w.counter(scan.malformed.len());
        for m in &scan.malformed {
            write_finding(&mut w, m);
        }
        w.counter(scan.lexical.len());
        for l in &scan.lexical {
            write_finding(&mut w, l);
        }
        w.counter(scan.items.code.len());
        for t in &scan.items.code {
            write_token(&mut w, t);
        }
    }
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    let _ = std::fs::write(path, w.into_sealed());
}

fn write_str(w: &mut ByteWriter, s: &str) {
    let bytes = s.as_bytes();
    w.counter(bytes.len());
    for &b in bytes {
        w.u8(b);
    }
}

fn read_str(r: &mut ByteReader<'_>) -> Result<String, String> {
    let n = r.len(1)?;
    let mut bytes = Vec::with_capacity(n);
    for _ in 0..n {
        bytes.push(r.u8()?);
    }
    String::from_utf8(bytes).map_err(|e| format!("cached string is not UTF-8: {e}"))
}

fn read_vec<T>(
    r: &mut ByteReader<'_>,
    item: impl Fn(&mut ByteReader<'_>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let n = r.len(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(item(r)?);
    }
    Ok(out)
}

fn write_allow(w: &mut ByteWriter, a: &Suppression) {
    write_str(w, &a.rule);
    write_str(w, &a.reason);
    w.u32(a.line);
    w.flag(a.standalone);
}

fn read_allow(r: &mut ByteReader<'_>) -> Result<Suppression, String> {
    Ok(Suppression {
        rule: read_str(r)?,
        reason: read_str(r)?,
        line: r.u32()?,
        standalone: r.flag()?,
    })
}

fn write_finding(w: &mut ByteWriter, f: &RawFinding) {
    write_str(w, f.rule);
    w.u32(f.line);
    write_str(w, &f.message);
}

fn read_finding(r: &mut ByteReader<'_>) -> Result<RawFinding, String> {
    let rule = read_str(r)?;
    // Map back to the catalog's 'static id; the only non-catalog rule
    // findings carry is the meta id `lint`.
    let rule = crate::rules::rule_by_id(&rule).map_or("lint", |c| c.id);
    Ok(RawFinding {
        rule,
        line: r.u32()?,
        message: read_str(r)?,
    })
}

fn write_token(w: &mut ByteWriter, t: &Token) {
    match &t.kind {
        TokenKind::Ident(s) => {
            w.u8(0);
            w.u32(t.line);
            write_str(w, s);
        }
        TokenKind::Number(s) => {
            w.u8(1);
            w.u32(t.line);
            write_str(w, s);
        }
        TokenKind::Literal => {
            w.u8(2);
            w.u32(t.line);
        }
        TokenKind::Lifetime => {
            w.u8(3);
            w.u32(t.line);
        }
        TokenKind::Comment { text, trailing } => {
            // Comment-free streams never hit this arm, but the codec
            // stays total for arbitrary token input.
            w.u8(4);
            w.u32(t.line);
            w.flag(*trailing);
            write_str(w, text);
        }
        TokenKind::Punct(c) => {
            w.u8(5);
            w.u32(t.line);
            w.u32(*c as u32);
        }
    }
}

fn read_token(r: &mut ByteReader<'_>) -> Result<Token, String> {
    let tag = r.u8()?;
    let line = r.u32()?;
    let kind = match tag {
        0 => TokenKind::Ident(read_str(r)?),
        1 => TokenKind::Number(read_str(r)?),
        2 => TokenKind::Literal,
        3 => TokenKind::Lifetime,
        4 => {
            let trailing = r.flag()?;
            TokenKind::Comment {
                text: read_str(r)?,
                trailing,
            }
        }
        5 => {
            let cp = r.u32()?;
            let c = char::from_u32(cp).ok_or_else(|| format!("invalid punct code point {cp}"))?;
            TokenKind::Punct(c)
        }
        other => return Err(format!("unknown token tag {other}")),
    };
    Ok(Token { kind, line })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_codec_roundtrips_every_kind() {
        let src = "fn f<'a>(x: &'a u64) -> u64 { // trailing\n    x * 0x2B + \"s\".len() as u64\n}";
        let tokens = crate::lexer::tokenize(src);
        assert!(!tokens.is_empty());
        let mut w = ByteWriter::new();
        for t in &tokens {
            write_token(&mut w, t);
        }
        let sealed = w.into_sealed();
        let payload = unseal(&sealed).expect("seal verifies");
        let mut r = ByteReader::new(payload);
        let back: Vec<Token> = (0..tokens.len())
            .map(|_| read_token(&mut r).expect("token decodes"))
            .collect();
        assert!(r.done());
        assert_eq!(back, tokens);
    }

    #[test]
    fn unknown_token_tag_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.u8(9);
        w.u32(1);
        let sealed = w.into_sealed();
        let mut r = ByteReader::new(unseal(&sealed).expect("seal verifies"));
        assert!(read_token(&mut r).is_err());
    }
}
