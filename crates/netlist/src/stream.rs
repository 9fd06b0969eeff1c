//! Streaming SPEF-lite ingestion in bounded memory.
//!
//! [`crate::parse_spef_deck`] wants the whole document resident as one
//! `&str` before the byte-offset splitter can hand out section subslices.
//! At `10^6` nets that is hundreds of megabytes of text held alive for the
//! duration of the parse — pure overhead, since each `*D_NET` section is
//! parsed independently and discarded.  [`SpefReader`] removes it: the
//! document is consumed from any [`Read`] source in fixed-size chunks, a
//! carry-over buffer stitches the partial line at each chunk boundary, and
//! completed `*D_NET` sections are parsed as soon as their `*END` arrives.
//! Peak memory is `O(chunk + largest section + one parsed batch)`
//! regardless of deck size.
//!
//! Lines are scanned in place as slices of the carry buffer, with no owned
//! copy per line; only an open section's body is copied, once, into that
//! section's own string.  Completed sections are parsed in batches on the
//! persistent [`rctree_par::par_map_global`] pool: a batch owns its
//! sections, so the pool's parked workers can take it without starting
//! threads, and the calling thread parses alongside them.
//!
//! # Equivalence with the whole-text parsers
//!
//! [`parse_spef_read`] is pinned **byte-identical** to
//! [`crate::parse_spef_deck`] on the same bytes (the `streaming_seams`
//! integration suite sweeps chunk sizes of 1–64 bytes so every seam —
//! mid-line, mid-section, mid-CRLF — is exercised):
//!
//! * the line splitter reproduces `str::lines` exactly (trailing `\n`
//!   stripped, a `\r` before it stripped, final unterminated line kept);
//! * absolute 1-based line numbers appear in every error;
//! * unit directives apply in document order, each section capturing the
//!   scales in effect at its header;
//! * a section left open at end of input is parsed anyway and reports its
//!   missing `*END` at the `*D_NET` header;
//! * error *ordering* matches: a malformed top-level line (unit directive
//!   or `*D_NET` header) anywhere in the document is reported in
//!   preference to any section-body error, because the whole-text path
//!   scans the full document before parsing any section.  The streaming
//!   path replicates this by continuing to scan (without parsing) to end
//!   of input once a section has failed.
//!
//! The only inputs the streaming path rejects that the `&str` entry points
//! cannot even express are non-UTF-8 bytes ([`NetlistError::Parse`] at the
//! offending line) and I/O failures ([`NetlistError::Io`]).

use std::collections::VecDeque;
use std::io::Read;
use std::sync::Arc;

use crate::error::{NetlistError, Result};
use crate::spef::{closes_section, parse_d_net, strip_comment, SpefNet, Units};

/// Default chunk size: large enough to amortise syscalls, small enough
/// that a reader never holds a meaningful fraction of a big deck.
const DEFAULT_CHUNK: usize = 1 << 20;

/// How many completed sections [`SpefReader::next_nets`] parses per batch.
/// Small enough to bound memory, large enough to keep the worker pool fed.
const PARSE_BATCH: usize = 512;

/// A completed `*D_NET` section awaiting parsing: the scanned header plus
/// the body text (every line after the header through `*END`, when
/// present), with the line numbering anchor needed for absolute error
/// positions.
#[derive(Debug, Clone)]
struct RawSection {
    name: String,
    declared_total_cap: f64,
    r_unit: f64,
    c_unit: f64,
    /// 1-based line number of the `*D_NET` header.
    header_line: usize,
    /// Body lines, newline-separated, `\r` already stripped.
    body: String,
}

impl RawSection {
    fn parse(&self) -> Result<SpefNet> {
        // The body's first line is document line `header_line + 1`;
        // `parse_d_net` reports `idx + 1`, so enumerate from the header.
        let mut lines = self
            .body
            .lines()
            .enumerate()
            .map(|(k, raw)| (self.header_line + k, raw));
        let tree = parse_d_net(
            &mut lines,
            &self.name,
            self.header_line,
            self.r_unit,
            self.c_unit,
        )?;
        Ok(SpefNet {
            name: self.name.clone(),
            declared_total_cap: self.declared_total_cap,
            tree,
        })
    }
}

/// A chunked, bounded-memory reader of SPEF-lite decks.
///
/// Feed it any [`Read`] source and pull parsed nets in document order with
/// [`SpefReader::next_nets`], or use the one-shot [`parse_spef_read`].
/// See the module docs for the equivalence guarantees.
#[derive(Debug)]
pub struct SpefReader<R> {
    source: R,
    chunk_size: usize,
    /// Bytes of the line(s) not yet terminated by `\n` — the carry-over
    /// across chunk boundaries.  Never holds more than one line plus one
    /// chunk.
    carry: Vec<u8>,
    /// 1-based number of the last line handed to the scanner.
    line_no: usize,
    units: Units,
    /// The section currently accumulating body lines, if any.
    open: Option<RawSection>,
    /// Capacity reserved for the next section's body: half again the last
    /// completed body, so a run of similar sections allocates each body
    /// once.  A body that ends up less than half full is shrunk when its
    /// section closes.
    body_hint: usize,
    /// Completed sections not yet returned.
    ready: VecDeque<RawSection>,
    /// End of input reached and fully processed.
    done: bool,
}

impl<R: Read> SpefReader<R> {
    /// A reader with the default chunk size (1 MiB).
    pub fn new(source: R) -> Self {
        Self::with_chunk_size(source, DEFAULT_CHUNK)
    }

    /// A reader with an explicit chunk size (minimum 1 byte).  Tiny sizes
    /// are only useful for seam tests; throughput wants the default.
    pub fn with_chunk_size(source: R, chunk_size: usize) -> Self {
        SpefReader {
            source,
            chunk_size: chunk_size.max(1),
            carry: Vec::new(),
            line_no: 0,
            units: Units::default(),
            open: None,
            body_hint: 0,
            ready: VecDeque::new(),
            done: false,
        }
    }

    /// Number of input lines consumed so far.
    pub fn lines_read(&self) -> usize {
        self.line_no
    }

    /// Scans one complete line, exactly as `split_deck` interprets it.
    fn scan_line(&mut self, raw: &str) -> Result<()> {
        self.line_no += 1;
        if let Some(section) = self.open.as_mut() {
            // Every line of an open section — stray headers and unit
            // directives included — belongs to its body.
            section.body.push_str(raw);
            section.body.push('\n');
            if closes_section(raw) {
                let mut section = self.open.take().expect("section is open");
                let len = section.body.len();
                // A small section after a large one gives back the excess,
                // so a queued body never holds more than twice its text.
                if section.body.capacity() > 2 * len {
                    section.body.shrink_to_fit();
                }
                self.body_hint = len + len / 2;
                self.ready.push_back(section);
            }
            return Ok(());
        }
        let line = strip_comment(raw);
        if line.is_empty() {
            return Ok(());
        }
        if let Some((name, declared_total_cap)) = self.units.scan_top_level(line, self.line_no)? {
            self.open = Some(RawSection {
                name,
                declared_total_cap,
                r_unit: self.units.r,
                c_unit: self.units.c,
                header_line: self.line_no,
                body: String::with_capacity(self.body_hint),
            });
        }
        Ok(())
    }

    /// Scans every complete line straight out of the carry buffer, then
    /// drops them from it.
    fn drain_carry_lines(&mut self) -> Result<()> {
        // The lines borrow the buffer while scanning updates the reader,
        // so the buffer is moved out for the duration (an error is
        // terminal, so it need not be put back then).
        let mut carry = std::mem::take(&mut self.carry);
        let mut start = 0usize;
        while let Some(nl) = carry[start..].iter().position(|&b| b == b'\n') {
            let end = start + nl;
            let mut line = &carry[start..end];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            self.scan_line(self.utf8(line)?)?;
            start = end + 1;
        }
        carry.drain(..start);
        self.carry = carry;
        Ok(())
    }

    /// The next line's bytes as text; non-UTF-8 input is a parse error at
    /// that line.
    fn utf8<'b>(&self, line: &'b [u8]) -> Result<&'b str> {
        std::str::from_utf8(line)
            .map_err(|_| NetlistError::parse(self.line_no + 1, "input is not valid UTF-8"))
    }

    /// Pulls the next completed raw section, reading more chunks as
    /// needed.  `Ok(None)` at end of input.  Top-level scan errors, UTF-8
    /// errors and I/O errors are terminal.
    fn next_raw_section(&mut self) -> Result<Option<RawSection>> {
        loop {
            if let Some(section) = self.ready.pop_front() {
                return Ok(Some(section));
            }
            if self.done {
                return Ok(None);
            }
            let mut chunk_span = rctree_obs::span("spef.chunk");
            // Read straight into the carry's tail.
            let filled = self.carry.len();
            self.carry.resize(filled + self.chunk_size, 0);
            let n = match self.source.read(&mut self.carry[filled..]) {
                Ok(n) => n,
                Err(e) => {
                    self.done = true;
                    return Err(e.into());
                }
            };
            self.carry.truncate(filled + n);
            chunk_span.attr_u64("bytes", n as u64);
            if n == 0 {
                // End of input: the carry holds the final unterminated
                // line, if any (exactly the line `str::lines` would still
                // yield), and an open section is parsed as-is so its
                // missing `*END` is reported at the header.
                self.done = true;
                if !self.carry.is_empty() {
                    // A trailing `\r` stays: `str::lines` strips `\r` only
                    // immediately before a `\n`.
                    let line = std::mem::take(&mut self.carry);
                    self.scan_line(self.utf8(&line)?)?;
                }
                if let Some(section) = self.open.take() {
                    self.ready.push_back(section);
                }
                continue;
            }
            if let Err(e) = self.drain_carry_lines() {
                self.done = true;
                return Err(e);
            }
        }
    }

    /// Parses and returns the next batch of nets, in document order;
    /// `Ok(None)` at end of input.  Batches are parsed in parallel by
    /// `jobs` threads (0 counts as 1): the caller plus `jobs - 1` workers of
    /// the global pool.
    ///
    /// Errors follow the [`crate::parse_spef_deck`] ordering: when a
    /// section body fails to parse, the rest of the input is still scanned
    /// and a top-level scan error found there wins over the section error.
    /// Any error is terminal for the reader.
    pub fn next_nets(&mut self, jobs: usize) -> Result<Option<Vec<SpefNet>>> {
        let mut raws = Vec::new();
        while raws.len() < PARSE_BATCH {
            match self.next_raw_section()? {
                Some(raw) => raws.push(raw),
                None => break,
            }
        }
        if raws.is_empty() {
            return Ok(None);
        }
        let mut batch_span = rctree_obs::span("spef.parse_batch");
        batch_span.attr_u64("nets", raws.len() as u64);
        // The batch owns its sections, so it runs on the persistent pool
        // (the calling thread works too) instead of starting threads.
        let len = raws.len();
        let parsed: Result<Vec<SpefNet>> =
            rctree_par::par_map_global(jobs, Arc::new(raws), len, |i, raws| raws[i].parse())
                .into_iter()
                .collect();
        drop(batch_span);
        match parsed {
            Ok(nets) => Ok(Some(nets)),
            Err(section_error) => {
                // Keep scanning (not parsing) to end of input: the
                // whole-text path scans the full document before parsing
                // any section, so a later top-level error outranks this
                // section error.
                loop {
                    match self.next_raw_section() {
                        Ok(Some(_)) => continue,
                        Ok(None) => {
                            self.done = true;
                            return Err(section_error);
                        }
                        Err(scan_error) => return Err(scan_error),
                    }
                }
            }
        }
    }

    /// Parses the whole source, collecting every net in document order.
    ///
    /// Identical results and errors to [`crate::parse_spef_deck`] on the
    /// same bytes, including [`NetlistError::Empty`] when the input holds
    /// no `*D_NET` at all — but without ever holding the full text.
    pub fn parse_all(&mut self, jobs: usize) -> Result<Vec<SpefNet>> {
        let mut nets = Vec::new();
        while let Some(batch) = self.next_nets(jobs)? {
            nets.extend(batch);
        }
        if nets.is_empty() {
            return Err(NetlistError::Empty);
        }
        Ok(nets)
    }
}

/// Parses a SPEF-lite deck from any [`Read`] source in bounded memory —
/// the streaming drop-in for [`crate::parse_spef_deck`].
///
/// # Errors
///
/// The same errors in the same order as [`crate::parse_spef_deck`] on the
/// same bytes, plus [`NetlistError::Io`] for source failures and a
/// [`NetlistError::Parse`] for non-UTF-8 input.
pub fn parse_spef_read<R: Read>(source: R, jobs: usize) -> Result<Vec<SpefNet>> {
    SpefReader::new(source).parse_all(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
*SPEF \"IEEE 1481-1998\"\n\
*R_UNIT 1 OHM\n\
*C_UNIT 1 PF\n\
*D_NET net1 0.022\n\
*CONN\n\
*I buf:Z I\n\
*P ff1:CK O\n\
*CAP\n\
1 n1 0.002\n\
2 ff1:CK 0.020\n\
*RES\n\
1 buf:Z n1 15.0\n\
2 n1 ff1:CK 8.0\n\
*END\n";

    #[test]
    fn streams_match_whole_text_parse() {
        let want = crate::parse_spef_deck(SAMPLE, 1).unwrap();
        for chunk in [1, 2, 3, 7, 64, DEFAULT_CHUNK] {
            let mut reader = SpefReader::with_chunk_size(SAMPLE.as_bytes(), chunk);
            assert_eq!(reader.parse_all(1).unwrap(), want, "chunk {chunk}");
        }
    }

    #[test]
    fn a_small_body_after_a_large_one_does_not_keep_its_reserve() {
        let mut deck = String::from("*D_NET big 1\n*CONN\n*I drv I\n*CAP\n");
        for i in 0..2000 {
            deck.push_str(&format!("{i} n{i} 1\n"));
        }
        deck.push_str("*RES\n1 drv n0 1\n*END\n");
        deck.push_str(&SAMPLE[SAMPLE.find("*D_NET").unwrap()..]);
        let mut reader = SpefReader::new(deck.as_bytes());
        let big = reader.next_raw_section().unwrap().unwrap();
        let small = reader.next_raw_section().unwrap().unwrap();
        assert!(big.body.len() > 20 * small.body.len());
        assert!(
            small.body.capacity() <= 2 * small.body.len(),
            "{} bytes reserved for {}",
            small.body.capacity(),
            small.body.len()
        );
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(matches!(
            parse_spef_read("// nothing\n".as_bytes(), 1),
            Err(NetlistError::Empty)
        ));
        assert!(matches!(
            parse_spef_read("".as_bytes(), 1),
            Err(NetlistError::Empty)
        ));
    }

    #[test]
    fn io_failures_surface_as_io_errors() {
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        match parse_spef_read(Broken, 1) {
            Err(NetlistError::Io { message }) => assert!(message.contains("disk on fire")),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn non_utf8_input_is_a_parse_error_at_the_line() {
        let mut bytes = SAMPLE.as_bytes().to_vec();
        bytes.extend_from_slice(b"*D_NET bad \xFF\n");
        match parse_spef_read(&bytes[..], 1) {
            Err(NetlistError::Parse { line, .. }) => assert_eq!(line, 15),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
