//! Dataset persistence: a compact binary format and CSV import/export.
//!
//! The synthetic generators make the workspace self-contained, but users
//! reproducing the paper with *real* embeddings (e.g. their own Inception/
//! ResNet features for MNIST or dog-fish) need a way in. Two formats:
//!
//! * **CSV** — one row per point, features then (for classification) the
//!   integer label as the last column. Interoperates with pandas/numpy
//!   one-liners. Loading streams the file in bounded newline-aligned
//!   blocks; files of 16 MiB or more fan each block out over the
//!   `knnshap_parallel` pool. Rows, and the text of the first error in
//!   file order, do not depend on the block size or thread count.
//! * **KSD binary** — magic `KSD1`, little-endian header
//!   `(n: u64, dim: u32, has_labels: u8)`, raw `f32` features, raw `u32`
//!   labels. Loads 10⁷-point matrices at disk speed with no parsing.

use crate::dataset::{ClassDataset, RegDataset};
use crate::features::Features;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"KSD1";

/// Errors from dataset I/O.
#[derive(Debug)]
pub enum IoError {
    Io(io::Error),
    /// Structural problem with the file contents.
    Format(String),
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

/// Write a classification dataset in the KSD binary format.
pub fn save_class_binary(path: &Path, d: &ClassDataset) -> Result<(), IoError> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&(d.len() as u64).to_le_bytes())?;
    w.write_all(&(d.dim() as u32).to_le_bytes())?;
    w.write_all(&[1u8])?;
    w.write_all(&(d.n_classes).to_le_bytes())?;
    for v in d.x.as_slice() {
        w.write_all(&v.to_le_bytes())?;
    }
    for &l in &d.y {
        w.write_all(&l.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Read a classification dataset in the KSD binary format.
pub fn load_class_binary(path: &Path) -> Result<ClassDataset, IoError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(IoError::Format("bad magic (not a KSD1 file)".into()));
    }
    let mut b8 = [0u8; 8];
    r.read_exact(&mut b8)?;
    let n = u64::from_le_bytes(b8) as usize;
    let mut b4 = [0u8; 4];
    r.read_exact(&mut b4)?;
    let dim = u32::from_le_bytes(b4) as usize;
    if dim == 0 {
        return Err(IoError::Format("zero feature dimension".into()));
    }
    let mut b1 = [0u8; 1];
    r.read_exact(&mut b1)?;
    if b1[0] != 1 {
        return Err(IoError::Format("file has no labels".into()));
    }
    r.read_exact(&mut b4)?;
    let n_classes = u32::from_le_bytes(b4);
    let mut feats = vec![0f32; n * dim];
    for v in feats.iter_mut() {
        r.read_exact(&mut b4)?;
        *v = f32::from_le_bytes(b4);
    }
    let mut labels = vec![0u32; n];
    for l in labels.iter_mut() {
        r.read_exact(&mut b4)?;
        *l = u32::from_le_bytes(b4);
    }
    if labels.iter().any(|&l| l >= n_classes) {
        return Err(IoError::Format("label out of declared class range".into()));
    }
    Ok(ClassDataset::new(
        Features::new(feats, dim),
        labels,
        n_classes,
    ))
}

/// Write a classification dataset as CSV (features…, label).
pub fn save_class_csv(path: &Path, d: &ClassDataset) -> Result<(), IoError> {
    let mut w = BufWriter::new(File::create(path)?);
    for i in 0..d.len() {
        for v in d.x.row(i) {
            write!(w, "{v},")?;
        }
        writeln!(w, "{}", d.y[i])?;
    }
    w.flush()?;
    Ok(())
}

/// Bytes per streamed CSV block. A block ends at its last newline; a row
/// longer than a block grows the block until it holds the whole row.
const CSV_BLOCK: usize = 256 * 1024;

/// Files smaller than this are parsed on the calling thread: there the
/// fan-out saves little, and pool threads that allocate keep their own
/// allocator arenas alive for the rest of the process.
const CSV_INLINE_BELOW: u64 = 16 << 20;

/// Why one row was refused, before its 1-based line number is known.
enum RowError {
    /// Not UTF-8: reported as the I/O error `BufRead::lines` gives.
    Utf8,
    /// A format error; the message follows `line N: `.
    Format(String),
}

/// One pool worker's slice of a block: its rows, then how its scan ended
/// (lines scanned, or the failing line within the slice and why).
struct Part<T> {
    feats: Vec<f32>,
    finals: Vec<T>,
    scanned: Result<usize, (usize, RowError)>,
}

/// The shared row scanner behind both CSV loaders: every row is `dim`
/// `f32` features followed by one task-specific final column, parsed by
/// `last` (integer label vs float target — the files are otherwise
/// indistinguishable). Empty lines and lines starting with `#` are
/// skipped; ragged rows and unparsable cells are format errors naming the
/// 1-based line.
fn load_rows_csv<T: Send>(
    path: &Path,
    what: &str,
    last: impl Fn(&str) -> Result<T, String> + Sync,
) -> Result<(Features, Vec<T>), IoError> {
    let file = File::open(path)?;
    let threads = match file.metadata() {
        Ok(m) if m.len() >= CSV_INLINE_BELOW => knnshap_parallel::current_threads(),
        _ => 1,
    };
    scan_csv(file, CSV_BLOCK, threads, what, &last)
}

/// Streams `reader` in newline-aligned blocks of about `block` bytes and
/// parses each block's rows on up to `threads` pool workers, concatenating
/// their rows in file order. The first error in file order wins, so the
/// result — rows or error text — is independent of `block` and `threads`.
fn scan_csv<T: Send>(
    mut reader: impl Read,
    block: usize,
    threads: usize,
    what: &str,
    last: &(impl Fn(&str) -> Result<T, String> + Sync),
) -> Result<(Features, Vec<T>), IoError> {
    let mut feats: Vec<f32> = Vec::new();
    let mut finals: Vec<T> = Vec::new();
    let mut dim: Option<usize> = None;
    // Lines before the current block, for 1-based error line numbers.
    let mut lines = 0usize;
    let fail = |lines: usize, (at, e): (usize, RowError)| match e {
        RowError::Utf8 => IoError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )),
        RowError::Format(m) => IoError::Format(format!("line {}: {m}", lines + at + 1)),
    };
    let mut parts: Vec<Part<T>> = (0..threads)
        .map(|_| Part {
            feats: Vec::new(),
            finals: Vec::new(),
            scanned: Ok(0),
        })
        .collect();
    let mut buf: Vec<u8> = Vec::with_capacity(block);
    let mut want = block;
    loop {
        // The carried-over tail holds no newline, so only fresh bytes are searched.
        let fresh = buf.len();
        let room = want.saturating_sub(fresh);
        let eof = (&mut reader).take(room as u64).read_to_end(&mut buf)? < room;
        let end = if eof {
            buf.len()
        } else {
            match buf[fresh..].iter().rposition(|&b| b == b'\n') {
                Some(p) => fresh + p + 1,
                None => {
                    want += block;
                    continue;
                }
            }
        };
        let chunk = &buf[..end];
        // Until the first row fixes `dim`, blocks run inline so every part
        // checks rows against the same width the line-by-line scan would.
        if threads <= 1 || dim.is_none() {
            lines += scan_lines(chunk, &mut dim, what, last, &mut feats, &mut finals)
                .map_err(|e| fail(lines, e))?;
        } else {
            let cuts = newline_cuts(chunk, threads);
            // Room for every row a part can hold (a float takes at least
            // two bytes, a row three), reserved here so pool threads do not
            // allocate: memory they allocate stays in their allocator arenas.
            for (p, part) in parts.iter_mut().enumerate() {
                let len = cuts[p + 1] - cuts[p];
                part.feats.reserve(len / 2 + 1);
                part.finals.reserve(len / 3 + 1);
            }
            knnshap_parallel::par_chunks(&mut parts, 1, threads, |p, part| {
                let part = &mut part[0];
                let mut part_dim = dim;
                part.scanned = scan_lines(
                    &chunk[cuts[p]..cuts[p + 1]],
                    &mut part_dim,
                    what,
                    last,
                    &mut part.feats,
                    &mut part.finals,
                );
            });
            for part in &mut parts {
                let scanned = std::mem::replace(&mut part.scanned, Ok(0));
                lines += scanned.map_err(|e| fail(lines, e))?;
                feats.append(&mut part.feats);
                finals.append(&mut part.finals);
            }
        }
        if eof {
            break;
        }
        buf.drain(..end);
        want = block;
    }
    let dim = dim.ok_or_else(|| IoError::Format("empty file".into()))?;
    Ok((Features::new(feats, dim), finals))
}

/// Cut points (first 0, last `chunk.len()`) splitting `chunk` into `parts`
/// newline-aligned slices of about equal size; some may be empty.
fn newline_cuts(chunk: &[u8], parts: usize) -> Vec<usize> {
    let mut cuts = vec![0];
    for p in 1..parts {
        let from = (chunk.len() * p / parts).max(cuts[p - 1]);
        let cut = chunk[from..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(chunk.len(), |i| from + i + 1);
        cuts.push(cut);
    }
    cuts.push(chunk.len());
    cuts
}

/// Parses the lines of `bytes`, appending rows to `feats`/`finals`.
/// Returns the number of lines, or the failing line (0-based within
/// `bytes`) and why.
fn scan_lines<T>(
    bytes: &[u8],
    dim: &mut Option<usize>,
    what: &str,
    last: &impl Fn(&str) -> Result<T, String>,
    feats: &mut Vec<f32>,
    finals: &mut Vec<T>,
) -> Result<usize, (usize, RowError)> {
    let mut lines = 0;
    let mut rest = bytes;
    while !rest.is_empty() {
        let (line, next) = match rest.iter().position(|&b| b == b'\n') {
            Some(p) => (&rest[..p], &rest[p + 1..]),
            None => (rest, &rest[rest.len()..]),
        };
        rest = next;
        scan_row(line, dim, what, last, feats, finals).map_err(|e| (lines, e))?;
        lines += 1;
    }
    Ok(lines)
}

/// Parses one line (without its `\n`); blank and `#` lines add nothing.
fn scan_row<T>(
    line: &[u8],
    dim: &mut Option<usize>,
    what: &str,
    last: &impl Fn(&str) -> Result<T, String>,
    feats: &mut Vec<f32>,
    finals: &mut Vec<T>,
) -> Result<(), RowError> {
    let line = std::str::from_utf8(line)
        .map_err(|_| RowError::Utf8)?
        .trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(());
    }
    let Some((head, tail)) = line.rsplit_once(',') else {
        return Err(RowError::Format(format!(
            "need at least one feature and a {what}"
        )));
    };
    // Parse while splitting and count afterwards: one pass over a clean
    // row. A row with a bad cell is counted and re-walked in the line
    // scanner's order (width first, then cells) so it reports the same error.
    let mark = feats.len();
    let clean = cells(head).all(|c| c.parse::<f32>().map(|v| feats.push(v)).is_ok());
    let row_dim = if clean {
        feats.len() - mark
    } else {
        feats.truncate(mark);
        head.bytes().filter(|&b| b == b',').count() + 1
    };
    match *dim {
        None => *dim = Some(row_dim),
        Some(d) if d != row_dim => {
            return Err(RowError::Format(format!(
                "{row_dim} features but earlier rows had {d}"
            )))
        }
        _ => {}
    }
    if !clean {
        let (c, e) = cells(head)
            .find_map(|c| c.parse::<f32>().err().map(|e| (c, e)))
            .expect("a row that failed has a bad cell");
        return Err(RowError::Format(format!("bad float '{c}': {e}")));
    }
    let c = trim(tail);
    finals.push(last(c).map_err(|e| RowError::Format(format!("bad {what}: {e}")))?);
    Ok(())
}

/// `s.split(',').map(str::trim)`, splitting on bytes.
fn cells(s: &str) -> impl Iterator<Item = &str> {
    let mut at = 0;
    s.as_bytes().split(|&b| b == b',').map(move |c| {
        let cell = &s[at..at + c.len()];
        at += c.len() + 1;
        trim(cell)
    })
}

/// `str::trim` with an ASCII fast path: on ASCII, `char::is_whitespace` is
/// exactly space and `\t`..=`\r`; a non-ASCII edge falls back to `str::trim`.
fn trim(s: &str) -> &str {
    let ws = |b: &u8| *b == b' ' || (b'\t'..=b'\r').contains(b);
    let b = s.as_bytes();
    let start = b.iter().position(|c| !ws(c)).unwrap_or(b.len());
    let end = b.iter().rposition(|c| !ws(c)).map_or(start, |e| e + 1);
    let s = &s[start..end];
    match (s.as_bytes().first(), s.as_bytes().last()) {
        (Some(&f), Some(&l)) if f >= 0x80 || l >= 0x80 => s.trim(),
        _ => s,
    }
}

/// Read a classification dataset from CSV: every row is `dim` floats
/// followed by one integer label. The class count is inferred as
/// `max(label) + 1`. Empty lines and lines starting with `#` are skipped.
pub fn load_class_csv(path: &Path) -> Result<ClassDataset, IoError> {
    let (x, labels) = load_rows_csv(path, "label", |c| {
        c.parse::<u32>().map_err(|e| e.to_string())
    })?;
    let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
    Ok(ClassDataset::new(x, labels, n_classes))
}

/// Write a regression dataset as CSV (features…, target). Floats are
/// printed with Rust's shortest round-trip formatting, so a save/load
/// round trip reproduces feature and target **bits** exactly — which keeps
/// dataset-content job fingerprints stable across the trip.
pub fn save_reg_csv(path: &Path, d: &RegDataset) -> Result<(), IoError> {
    let mut w = BufWriter::new(File::create(path)?);
    for i in 0..d.len() {
        for v in d.x.row(i) {
            write!(w, "{v},")?;
        }
        writeln!(w, "{}", d.y[i])?;
    }
    w.flush()?;
    Ok(())
}

/// Read a regression dataset from CSV: every row is `dim` floats followed
/// by one float target. The same file layout as the classification CSV,
/// with the last column parsed as `f64` instead of an integer label —
/// which task a file holds is the caller's declaration (e.g. the job
/// plan's `task` field), not something inferable from the bytes.
pub fn load_reg_csv(path: &Path) -> Result<RegDataset, IoError> {
    let (x, targets) = load_rows_csv(path, "target", |c| {
        c.parse::<f64>().map_err(|e| e.to_string())
    })?;
    Ok(RegDataset::new(x, targets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::blobs::{self, BlobConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::io::BufRead;
    use std::path::PathBuf;

    /// The line-by-line scanner the block-parallel one replaced, kept as the
    /// oracle: its rows, or its error text, define the loaders' behaviour.
    fn load_rows_by_line<T>(
        reader: impl Read,
        what: &str,
        last: impl Fn(&str) -> Result<T, String>,
    ) -> Result<(Features, Vec<T>), IoError> {
        let r = BufReader::new(reader);
        let mut feats: Vec<f32> = Vec::new();
        let mut finals: Vec<T> = Vec::new();
        let mut dim: Option<usize> = None;
        for (lineno, line) in r.lines().enumerate() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let cells: Vec<&str> = line.split(',').map(str::trim).collect();
            if cells.len() < 2 {
                return Err(IoError::Format(format!(
                    "line {}: need at least one feature and a {what}",
                    lineno + 1
                )));
            }
            let row_dim = cells.len() - 1;
            match dim {
                None => dim = Some(row_dim),
                Some(d) if d != row_dim => {
                    return Err(IoError::Format(format!(
                        "line {}: {row_dim} features but earlier rows had {d}",
                        lineno + 1
                    )))
                }
                _ => {}
            }
            for c in &cells[..row_dim] {
                feats.push(c.parse::<f32>().map_err(|e| {
                    IoError::Format(format!("line {}: bad float '{c}': {e}", lineno + 1))
                })?);
            }
            finals.push(
                last(cells[row_dim]).map_err(|e| {
                    IoError::Format(format!("line {}: bad {what}: {e}", lineno + 1))
                })?,
            );
        }
        let dim = dim.ok_or_else(|| IoError::Format("empty file".into()))?;
        Ok((Features::new(feats, dim), finals))
    }

    fn label(c: &str) -> Result<u32, String> {
        c.parse::<u32>().map_err(|e| e.to_string())
    }

    fn target(c: &str) -> Result<f64, String> {
        c.parse::<f64>().map_err(|e| e.to_string())
    }

    /// Rows as comparable bits, or the error text.
    fn outcome<T: Copy>(
        r: Result<(Features, Vec<T>), IoError>,
        bits: impl Fn(T) -> u64,
    ) -> Result<(usize, Vec<u32>, Vec<u64>), String> {
        r.map(|(x, y)| {
            (
                x.dim(),
                x.as_slice().iter().map(|v| v.to_bits()).collect(),
                y.into_iter().map(bits).collect(),
            )
        })
        .map_err(|e| e.to_string())
    }

    /// Both loaders' outcomes on `bytes`: (oracle, block scanner).
    type Outcome = Result<(usize, Vec<u32>, Vec<u64>), String>;
    fn both(bytes: &[u8], block: usize, threads: usize) -> [(Outcome, Outcome); 2] {
        [
            (
                outcome(load_rows_by_line(bytes, "label", label), u64::from),
                outcome(scan_csv(bytes, block, threads, "label", &label), u64::from),
            ),
            (
                outcome(load_rows_by_line(bytes, "target", target), f64::to_bits),
                outcome(
                    scan_csv(bytes, block, threads, "target", &target),
                    f64::to_bits,
                ),
            ),
        ]
    }

    const CELLS: [&str; 16] = [
        "1.5",
        " -2.25 ",
        "\t0",
        "-0",
        "1e3",
        "3.4028235e38",
        "1e-45",
        "inf",
        "-7",
        "\u{a0}4.75",
        "0.1",
        "2",
        "1.0000001",
        "  12  ",
        "\x0b5\x0c",
        "\u{85} 3\u{2003}",
    ];
    const BAD_CELLS: [&str; 6] = ["abc", "1.2.3", "", "--1", "0x10", "1\u{a0}x"];
    const BAD_LABELS: [&str; 4] = ["-1", "x", "1.5", "99999999999"];

    /// A random CSV file: mostly `dim`-wide rows, with comments, blank lines,
    /// CRLF, padded cells, long rows and (unless `clean`) ragged rows, bad
    /// cells, bad labels and invalid UTF-8, with or without a final newline.
    fn random_csv(seed: u64, clean: bool) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = rng.gen_range(1usize..12);
        let mut out = Vec::new();
        let lines = rng.gen_range(0usize..40);
        for i in 0..lines {
            let roll = rng.gen_range(0u32..100);
            let fault = if clean { 100 } else { rng.gen_range(0u32..100) };
            match roll {
                0..=7 => out.extend_from_slice(b"# comment, with 1,2,3 cells"),
                8..=13 => out.extend_from_slice(if roll % 2 == 0 { b"" } else { b"  \t" }),
                _ => {
                    let width = match fault {
                        0..=2 => dim + 1,
                        3..=5 => dim.saturating_sub(1),
                        _ => dim,
                    };
                    for c in 0..width {
                        let cell = if fault == 6 && c == width / 2 {
                            BAD_CELLS[rng.gen_range(0..BAD_CELLS.len())].to_string()
                        } else if rng.gen_bool(0.5) {
                            CELLS[rng.gen_range(0..CELLS.len())].to_string()
                        } else {
                            format!("{}", rng.gen_range(-1.0e4f32..1.0e4))
                        };
                        out.extend_from_slice(cell.as_bytes());
                        out.push(b',');
                    }
                    match fault {
                        7 => out.extend_from_slice(
                            BAD_LABELS[rng.gen_range(0..BAD_LABELS.len())].as_bytes(),
                        ),
                        8 => out.extend_from_slice(&[b'1', 0xff, 0xfe]),
                        _ => out
                            .extend_from_slice(format!(" {} ", rng.gen_range(0u32..5)).as_bytes()),
                    }
                }
            }
            if i + 1 < lines || rng.gen_bool(0.5) {
                out.extend_from_slice(if rng.gen_bool(0.3) { b"\r\n" } else { b"\n" });
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn block_scanner_matches_line_scanner(
            seed in any::<u64>(),
            clean in any::<bool>(),
            block in 7usize..=64,
        ) {
            let bytes = random_csv(seed, clean);
            for threads in [1, 2, 8] {
                for (want, got) in both(&bytes, block, threads) {
                    prop_assert_eq!(&got, &want, "block {} threads {}", block, threads);
                }
            }
        }
    }

    #[test]
    fn block_scanner_edge_cases_match_line_scanner() {
        let long_row = format!("{}7\n1,2\n", "1.25, ".repeat(40));
        let cases: [&[u8]; 14] = [
            b"",
            b"\n\n# only comments\n",
            b"1,2,0",
            b"1,2,0\r\n3,4,1\r\n",
            b" 1 , 2 ,\t0 \n",
            b"1,2,0\n3,1\n",
            b"1,2,0\n3,x,1\n",
            b"1,2,0\n3,4,-1\n",
            b"1,2,0\n3,4,\xff\n",
            b"# \xc3\x28 comment\n1,2,0\n",
            b"1\n",
            b"1,2,0\n\n\n,\n",
            long_row.as_bytes(),
            b"1,2,0\n1,2,3,4\n1,x,0\n",
        ];
        for bytes in cases {
            for block in [1, 7, 64, CSV_BLOCK] {
                for threads in [1, 2, 8] {
                    for (want, got) in both(bytes, block, threads) {
                        assert_eq!(
                            got,
                            want,
                            "{:?} block {block} threads {threads}",
                            String::from_utf8_lossy(bytes)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn earliest_error_in_file_order_wins_across_blocks_and_parts() {
        let mut bytes = b"1,2,0\n".repeat(50);
        bytes.extend_from_slice(b"1,oops,0\n");
        bytes.extend_from_slice(&b"3,4,1\n".repeat(50));
        bytes.extend_from_slice(b"1,2,3,0\n");
        for threads in [1, 2, 8] {
            for block in [7, 40, 300] {
                let err = scan_csv(bytes.as_slice(), block, threads, "label", &label)
                    .unwrap_err()
                    .to_string();
                assert_eq!(
                    err,
                    "format error: line 51: bad float 'oops': invalid float literal"
                );
            }
        }
    }

    #[test]
    fn invalid_utf8_reports_the_line_scanner_io_error() {
        let err = scan_csv(&b"1,2,0\n\xff,1\n"[..], 64, 2, "label", &label).unwrap_err();
        assert!(matches!(&err, IoError::Io(e) if e.kind() == io::ErrorKind::InvalidData));
        assert_eq!(
            err.to_string(),
            "i/o error: stream did not contain valid UTF-8"
        );
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("knnshap-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        let d = blobs::generate(&BlobConfig {
            n: 57,
            dim: 5,
            n_classes: 3,
            ..Default::default()
        });
        let path = tmp("roundtrip.ksd");
        save_class_binary(&path, &d).unwrap();
        let back = load_class_binary(&path).unwrap();
        assert_eq!(back.x.as_slice(), d.x.as_slice());
        assert_eq!(back.y, d.y);
        assert_eq!(back.n_classes, d.n_classes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_roundtrip_preserves_values() {
        let d = blobs::generate(&BlobConfig {
            n: 20,
            dim: 3,
            n_classes: 2,
            ..Default::default()
        });
        let path = tmp("roundtrip.csv");
        save_class_csv(&path, &d).unwrap();
        let back = load_class_csv(&path).unwrap();
        assert_eq!(back.len(), 20);
        assert_eq!(back.dim(), 3);
        assert_eq!(back.y, d.y);
        for i in 0..20 {
            for (a, b) in back.x.row(i).iter().zip(d.x.row(i)) {
                assert!((a - b).abs() < 1e-5);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reg_csv_roundtrip_is_bitwise() {
        let cfg = crate::synth::regression::RegressionConfig {
            n: 25,
            dim: 3,
            ..Default::default()
        };
        let d = crate::synth::regression::generate(&cfg);
        let path = tmp("reg-roundtrip.csv");
        save_reg_csv(&path, &d).unwrap();
        let back = load_reg_csv(&path).unwrap();
        assert_eq!(back.len(), d.len());
        assert_eq!(back.dim(), d.dim());
        // Shortest round-trip float formatting: the bits survive, so content
        // fingerprints computed before and after the trip agree.
        for (a, b) in back.x.as_slice().iter().zip(d.x.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in back.y.iter().zip(&d.y) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reg_csv_rejects_bad_targets_and_ragged_rows() {
        let path = tmp("reg-bad.csv");
        std::fs::write(&path, "1.0,2.0,zero\n").unwrap();
        assert!(matches!(load_reg_csv(&path), Err(IoError::Format(_))));
        std::fs::write(&path, "1.0,2.0,0.5\n1.0,0.5\n").unwrap();
        assert!(matches!(load_reg_csv(&path), Err(IoError::Format(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_skips_comments_and_blank_lines() {
        let path = tmp("comments.csv");
        std::fs::write(&path, "# header\n1.0,2.0,0\n\n3.0,4.0,1\n").unwrap();
        let d = load_class_csv(&path).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.n_classes, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_rejects_ragged_rows() {
        let path = tmp("ragged.csv");
        std::fs::write(&path, "1.0,2.0,0\n1.0,1\n").unwrap();
        let err = load_class_csv(&path).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let path = tmp("bad.ksd");
        std::fs::write(&path, b"NOPE....").unwrap();
        assert!(matches!(load_class_binary(&path), Err(IoError::Format(_))));
        std::fs::remove_file(&path).ok();
    }
}
