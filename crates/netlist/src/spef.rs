//! SPEF-lite parasitic parser.
//!
//! Modern parasitic extractors emit IEEE 1481 SPEF; static timing tools read
//! the `*D_NET` sections and build exactly the RC trees this library
//! analyses.  This module accepts a practical subset ("SPEF-lite") that is
//! sufficient to exchange single-net parasitics:
//!
//! ```text
//! *SPEF "IEEE 1481-1998"          // header lines are ignored
//! *T_UNIT 1 NS                    // units: only *R_UNIT / *C_UNIT are used
//! *R_UNIT 1 OHM
//! *C_UNIT 1 PF
//!
//! *D_NET clk_leaf 0.022
//! *CONN
//! *I buf:Z I                      // driver pin = the tree's input
//! *P ff1:CK O                     // load pins  = outputs
//! *P ff2:CK O
//! *CAP
//! 1 n1 0.010
//! 2 ff1:CK 0.007
//! 3 ff2:CK 0.005
//! *RES
//! 1 buf:Z n1 15.0
//! 2 n1 ff1:CK 8.0
//! 3 n1 ff2:CK 3.0
//! *END
//! ```
//!
//! Only grounded caps (two-field `*CAP` entries) are supported; coupling
//! caps (three node fields) are rejected with a clear error, since an RC
//! *tree* cannot represent them.  Resistance and capacitance unit scales
//! default to ohms and picofarads as in the SPEF standard.

use crate::error::{NetlistError, Result};
use crate::spice::{build_tree, BranchCard};
use crate::value::parse_value;
use rctree_core::tree::RcTree;

/// A single `*D_NET` parsed from a SPEF-lite file.
#[derive(Debug, Clone, PartialEq)]
pub struct SpefNet {
    /// Net name from the `*D_NET` line.
    pub name: String,
    /// Total capacitance declared on the `*D_NET` line (farads).
    pub declared_total_cap: f64,
    /// The reconstructed RC tree.
    pub tree: RcTree,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Preamble,
    Conn,
    Cap,
    Res,
}

/// Parses every `*D_NET` section of a SPEF-lite document.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for syntax errors, the tree-structure
/// errors of the SPICE parser for malformed nets, and
/// [`NetlistError::Empty`] if the document holds no `*D_NET` at all.
pub fn parse_spef(text: &str) -> Result<Vec<SpefNet>> {
    let mut nets = Vec::new();
    let mut units = Units::default();

    let mut lines = text.lines().enumerate();
    while let Some((idx, raw)) = lines.next() {
        let line_no = idx + 1;
        let line = strip_comment(raw);
        if line.is_empty() {
            continue;
        }
        if let Some((name, declared_total_cap)) = units.scan_top_level(line, line_no)? {
            let tree = parse_d_net(&mut lines, &name, line_no, units.r, units.c)?;
            nets.push(SpefNet {
                name,
                declared_total_cap,
                tree,
            });
        }
    }

    if nets.is_empty() {
        return Err(NetlistError::Empty);
    }
    Ok(nets)
}

/// The `*R_UNIT`/`*C_UNIT` scales in effect at a point of the document,
/// plus the recognition of top-level directives.  Shared verbatim between
/// the serial parser and the deck splitter so the two scanners cannot
/// drift apart (their bit-identity is a documented guarantee of
/// [`parse_spef_deck`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Units {
    pub(crate) r: f64,
    pub(crate) c: f64,
}

impl Default for Units {
    fn default() -> Self {
        Units {
            r: 1.0,   // ohms
            c: 1e-12, // SPEF default: picofarads
        }
    }
}

impl Units {
    /// Processes one top-level (outside any `*D_NET` body) line: unit
    /// directives update the scales in place; a `*D_NET` header returns the
    /// net name and its declared total capacitance (already scaled); any
    /// other line is ignored.
    pub(crate) fn scan_top_level(
        &mut self,
        line: &str,
        line_no: usize,
    ) -> Result<Option<(String, f64)>> {
        if has_directive(line, "*R_UNIT") {
            self.r = unit_scale(line, line_no, &["OHM", "KOHM"])?;
        } else if has_directive(line, "*C_UNIT") {
            self.c = unit_scale(line, line_no, &["FF", "PF", "NF", "UF", "F"])?;
        } else if has_directive(line, "*D_NET") {
            let tokens = Tokens::of(line);
            if tokens.len < 3 {
                return Err(NetlistError::parse_at(
                    line_no,
                    tokens.head[0],
                    "*D_NET requires a name and a total capacitance",
                ));
            }
            let name = tokens.head[1].to_string();
            let total = parse_value(tokens.head[2], line_no)? * self.c;
            return Ok(Some((name, total)));
        }
        Ok(None)
    }
}

/// Parses a SPEF-lite document and returns the net with the given name.
///
/// # Errors
///
/// In addition to [`parse_spef`]'s errors, returns
/// [`NetlistError::UnknownInput`] if no net carries the requested name.
pub fn parse_spef_net(text: &str, net_name: &str) -> Result<SpefNet> {
    parse_spef(text)?
        .into_iter()
        .find(|n| n.name == net_name)
        .ok_or_else(|| NetlistError::UnknownInput {
            name: net_name.to_string(),
        })
}

/// One `*D_NET` section located by the deck splitter: the parsed header
/// plus the absolute **byte** range of the section body (and the header's
/// line number), so the section can be parsed independently of the rest of
/// the document — straight off a subslice of the original text — with
/// correct line numbers in every error.
#[derive(Debug, Clone)]
struct DeckSection {
    name: String,
    declared_total_cap: f64,
    /// Unit scales in effect where the section starts (unit directives are
    /// processed in document order, exactly as in the serial parser).
    r_unit: f64,
    c_unit: f64,
    /// 1-based line number of the `*D_NET` header.
    header_line: usize,
    /// Byte range of the body, from the byte after the header line through
    /// the end of the `*END` line (or end of input when `*END` is
    /// missing).
    body: (usize, usize),
}

/// Locates every `*D_NET` section and the unit scales in effect at each,
/// without parsing section bodies.
///
/// One sequential pass over the raw bytes (`split_inclusive('\n')` with a
/// running offset — no intermediate `Vec` of line slices, so a
/// multi-hundred-MB deck costs the scan and nothing else).  Line contents
/// are interpreted exactly as `str::lines` would hand them to the serial
/// parser: the trailing `\n` and any `\r` before it are stripped.
fn split_deck(text: &str) -> Result<Vec<DeckSection>> {
    let mut sections = Vec::new();
    let mut units = Units::default();
    let mut offset = 0usize;
    let mut line_no = 0usize;
    // The section currently awaiting its `*END` line, if any.  While one
    // is open every line — stray `*D_NET` headers and unit directives
    // included — belongs to its body, exactly as the serial parser
    // consumes them.
    let mut open: Option<DeckSection> = None;
    for seg in text.split_inclusive('\n') {
        line_no += 1;
        offset += seg.len();
        let raw = seg
            .strip_suffix('\n')
            .map(|s| s.strip_suffix('\r').unwrap_or(s))
            .unwrap_or(seg);
        let line = strip_comment(raw);
        if let Some(section) = open.as_mut() {
            if has_directive(line, "*END") {
                section.body.1 = offset;
                sections.push(open.take().expect("section is open"));
            }
            continue;
        }
        if line.is_empty() {
            continue;
        }
        if let Some((name, declared_total_cap)) = units.scan_top_level(line, line_no)? {
            open = Some(DeckSection {
                name,
                declared_total_cap,
                r_unit: units.r,
                c_unit: units.c,
                header_line: line_no,
                // The body starts right after the header line; a missing
                // `*END` leaves it running to the end of input, where
                // `parse_d_net` reports the error at the header.
                body: (offset, text.len()),
            });
        }
    }
    sections.extend(open);
    Ok(sections)
}

/// Parses every `*D_NET` section of a SPEF-lite document, fanning the
/// sections out over `jobs` worker threads.
///
/// This is the deck-scale entry point: the document is first split on
/// `*D_NET` section boundaries in one cheap sequential **byte-offset**
/// scan (which also resolves the `*R_UNIT`/`*C_UNIT` scales in effect at
/// each section, and never materialises a line table), and the sections —
/// where all the real parsing work is — are then parsed independently in
/// parallel, each straight off its subslice of the input.  The result is
/// **bit-identical** to [`parse_spef`] for every `jobs` value: nets are
/// returned in document order and each section sees exactly the lines and
/// unit scales the serial parser would give it, with absolute line numbers
/// in every error.
///
/// On an invalid document the error returned is the first failing section
/// in document order (a malformed unit directive or `*D_NET` header found
/// during the scan is reported before any section error).
///
/// # Errors
///
/// The same errors as [`parse_spef`], including [`NetlistError::Empty`]
/// when the document holds no `*D_NET` at all.
pub fn parse_spef_deck(text: &str, jobs: usize) -> Result<Vec<SpefNet>> {
    let sections = split_deck(text)?;
    if sections.is_empty() {
        return Err(NetlistError::Empty);
    }
    rctree_par::par_map_indexed(jobs, &sections, |_, sec| {
        // The header is line `header_line` (1-based), so the body's first
        // line has 0-based index `header_line` — `parse_d_net` reports
        // `idx + 1`, giving absolute document line numbers.
        let mut body = text[sec.body.0..sec.body.1]
            .lines()
            .enumerate()
            .map(|(k, raw)| (sec.header_line + k, raw));
        let tree = parse_d_net(
            &mut body,
            &sec.name,
            sec.header_line,
            sec.r_unit,
            sec.c_unit,
        )?;
        Ok(SpefNet {
            name: sec.name.clone(),
            declared_total_cap: sec.declared_total_cap,
            tree,
        })
    })
    .into_iter()
    .collect()
}

pub(crate) fn strip_comment(raw: &str) -> &str {
    raw.split("//").next().unwrap_or("").trim()
}

/// Whether `line` starts with the upper-case ASCII `directive`, compared
/// case-insensitively in place (the same answer as upper-casing the line
/// first, without the copy).
pub(crate) fn has_directive(line: &str, directive: &str) -> bool {
    line.as_bytes()
        .get(..directive.len())
        .is_some_and(|head| head.eq_ignore_ascii_case(directive.as_bytes()))
}

/// Whether a section-body line closes the section: `*END` (any case) after
/// optional whitespace.  This is the same test as
/// `has_directive(strip_comment(raw), "*END")` without building the
/// stripped line: a leading `*END` comes before any `//` on its line, and
/// a line that opens with `//` does not start with `*END` either way.
pub(crate) fn closes_section(raw: &str) -> bool {
    has_directive(raw.trim_start(), "*END")
}

/// The first [`Tokens::HEAD`] whitespace-separated tokens of a line, and
/// how many tokens the line has in all — no SPEF-lite card needs more than
/// four, so they live in a fixed array instead of a `Vec`.
struct Tokens<'a> {
    head: [&'a str; Tokens::HEAD],
    len: usize,
}

impl<'a> Tokens<'a> {
    const HEAD: usize = 4;

    fn of(line: &'a str) -> Self {
        let mut tokens = Tokens {
            head: [""; Tokens::HEAD],
            len: 0,
        };
        for token in line.split_whitespace() {
            if let Some(slot) = tokens.head.get_mut(tokens.len) {
                *slot = token;
            }
            tokens.len += 1;
        }
        tokens
    }
}

fn unit_scale(line: &str, line_no: usize, accepted: &[&str]) -> Result<f64> {
    let tokens = Tokens::of(line);
    if tokens.len < 3 {
        return Err(NetlistError::parse_at(
            line_no,
            tokens.head[0],
            format!("unit directive `{line}` requires a scale and a unit"),
        ));
    }
    let scale = parse_value(tokens.head[1], line_no)?;
    let unit = tokens.head[2].to_ascii_uppercase();
    if !accepted.contains(&unit.as_str()) {
        return Err(NetlistError::parse_at(
            line_no,
            tokens.head[2],
            format!("unsupported unit `{}`", tokens.head[2]),
        ));
    }
    let unit_factor = match unit.as_str() {
        "OHM" => 1.0,
        "KOHM" => 1e3,
        "FF" => 1e-15,
        "PF" => 1e-12,
        "NF" => 1e-9,
        "UF" => 1e-6,
        "F" => 1.0,
        _ => 1.0,
    };
    Ok(scale * unit_factor)
}

/// Parses the body of one `*D_NET` section (every line after the header)
/// into the net's tree.  `name` is the net name, used in error messages;
/// lines are `(0-based document line index, text)`.
pub(crate) fn parse_d_net<'a, I>(
    lines: &mut I,
    name: &str,
    header_line: usize,
    r_unit: f64,
    c_unit: f64,
) -> Result<RcTree>
where
    I: Iterator<Item = (usize, &'a str)>,
{
    let mut section = Section::Preamble;
    let mut driver: Option<&str> = None;
    let mut outputs: Vec<(usize, &str)> = Vec::new();
    let mut caps: Vec<(usize, &str, f64)> = Vec::new();
    let mut branches: Vec<BranchCard> = Vec::new();

    for (idx, raw) in lines.by_ref() {
        let line_no = idx + 1;
        let line = strip_comment(raw);
        if line.is_empty() {
            continue;
        }
        if has_directive(line, "*END") {
            let input = driver.ok_or_else(|| {
                NetlistError::parse_at(line_no, name, format!("net `{name}` has no *I driver pin"))
            })?;
            return build_tree(input, &branches, &caps, &outputs);
        }
        if has_directive(line, "*CONN") {
            section = Section::Conn;
            continue;
        }
        if has_directive(line, "*CAP") {
            section = Section::Cap;
            continue;
        }
        if has_directive(line, "*RES") {
            section = Section::Res;
            continue;
        }
        if has_directive(line, "*I ") || has_directive(line, "*P ") {
            let tokens = Tokens::of(line);
            if section != Section::Conn {
                return Err(NetlistError::parse_at(
                    line_no,
                    tokens.head[0],
                    "pin declarations must appear inside *CONN",
                ));
            }
            if tokens.len < 3 {
                return Err(NetlistError::parse_at(
                    line_no,
                    tokens.head[0],
                    "pin declaration requires a name and a direction",
                ));
            }
            let pin = tokens.head[1];
            let direction = tokens.head[2];
            if direction.eq_ignore_ascii_case("I") {
                if driver.replace(pin).is_some() {
                    return Err(NetlistError::NotATree {
                        message: format!("net `{name}` declares more than one driver"),
                    });
                }
            } else if direction.eq_ignore_ascii_case("O") {
                outputs.push((line_no, pin));
            } else {
                let other = direction.to_ascii_uppercase();
                return Err(NetlistError::parse_at(
                    line_no,
                    other.as_str(),
                    format!("unknown pin direction `{other}`"),
                ));
            }
            continue;
        }

        match section {
            Section::Cap => {
                let tokens = Tokens::of(line);
                match tokens.len {
                    3 => {
                        let value = parse_value(tokens.head[2], line_no)? * c_unit;
                        caps.push((line_no, tokens.head[1], value));
                    }
                    4 => {
                        return Err(NetlistError::FloatingCapacitor { line: line_no });
                    }
                    _ => {
                        return Err(NetlistError::parse_at(
                            line_no,
                            tokens.head[0],
                            "*CAP entry requires: index node value",
                        ));
                    }
                }
            }
            Section::Res => {
                let tokens = Tokens::of(line);
                if tokens.len < 4 {
                    return Err(NetlistError::parse_at(
                        line_no,
                        tokens.head[0],
                        "*RES entry requires: index node node value",
                    ));
                }
                let value = parse_value(tokens.head[3], line_no)? * r_unit;
                branches.push(BranchCard::resistor(
                    line_no,
                    tokens.head[1],
                    tokens.head[2],
                    value,
                ));
            }
            Section::Conn | Section::Preamble => {
                return Err(NetlistError::parse_at(
                    line_no,
                    line.split_whitespace().next().unwrap_or(""),
                    format!("unexpected line `{line}` in D_NET section"),
                ));
            }
        }
    }

    // Reported at the `*D_NET` header (the old behaviour was a useless
    // "line 0" once the rest of the document had been consumed).
    Err(NetlistError::parse_at(
        header_line,
        name,
        format!("net `{name}` is missing its *END line"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rctree_core::moments::characteristic_times;

    const SAMPLE: &str = r#"
*SPEF "IEEE 1481-1998"
*DESIGN "repro"
*R_UNIT 1 OHM
*C_UNIT 1 PF

*D_NET net1 0.022
*CONN
*I buf:Z I
*P ff1:CK O
*P ff2:CK O
*CAP
1 n1 0.002
2 ff1:CK 0.007
3 ff2:CK 0.013
*RES
1 buf:Z n1 15.0
2 n1 ff1:CK 8.0
3 n1 ff2:CK 3.0
*END
"#;

    #[test]
    fn parses_sample_net() {
        let nets = parse_spef(SAMPLE).unwrap();
        assert_eq!(nets.len(), 1);
        let net = &nets[0];
        assert_eq!(net.name, "net1");
        assert!((net.declared_total_cap - 0.022e-12).abs() < 1e-20);
        assert_eq!(net.tree.node_count(), 4);
        let total = net.tree.total_capacitance().value();
        assert!((total - 0.022e-12).abs() < 1e-20);
        let outs: Vec<String> = net
            .tree
            .outputs()
            .map(|id| net.tree.name(id).unwrap().to_string())
            .collect();
        assert!(outs.contains(&"ff1:CK".to_string()));
        assert!(outs.contains(&"ff2:CK".to_string()));
    }

    #[test]
    fn characteristic_times_computable_from_spef() {
        let net = parse_spef_net(SAMPLE, "net1").unwrap();
        let out = net.tree.node_by_name("ff1:CK").unwrap();
        let t = characteristic_times(&net.tree, out).unwrap();
        assert!(t.satisfies_ordering());
        assert!(t.t_d.value() > 0.0);
    }

    #[test]
    fn missing_net_name_is_reported() {
        assert!(matches!(
            parse_spef_net(SAMPLE, "does_not_exist"),
            Err(NetlistError::UnknownInput { .. })
        ));
    }

    #[test]
    fn kohm_and_ff_units_are_scaled() {
        let text = r#"
*R_UNIT 1 KOHM
*C_UNIT 1 FF
*D_NET n 10
*CONN
*I drv I
*P load O
*CAP
1 load 10
*RES
1 drv load 2
*END
"#;
        let net = parse_spef_net(text, "n").unwrap();
        let load = net.tree.node_by_name("load").unwrap();
        assert!((net.tree.resistance_from_input(load).unwrap().value() - 2000.0).abs() < 1e-9);
        assert!((net.tree.total_capacitance().value() - 10e-15).abs() < 1e-26);
    }

    #[test]
    fn coupling_caps_are_rejected() {
        let text = r#"
*D_NET n 1
*CONN
*I drv I
*P load O
*CAP
1 load other:pin 0.5
*RES
1 drv load 2
*END
"#;
        assert!(matches!(
            parse_spef(text),
            Err(NetlistError::FloatingCapacitor { .. })
        ));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let text = r#"
*D_NET n 1
*CONN
*I a I
*I b I
*CAP
1 x 1
*RES
1 a x 2
*END
"#;
        assert!(matches!(
            parse_spef(text),
            Err(NetlistError::NotATree { .. })
        ));
    }

    #[test]
    fn missing_driver_rejected() {
        let text = r#"
*D_NET n 1
*CONN
*P load O
*CAP
1 load 1
*RES
1 drv load 2
*END
"#;
        assert!(matches!(parse_spef(text), Err(NetlistError::Parse { .. })));
    }

    #[test]
    fn missing_end_rejected() {
        let text = r#"
*D_NET n 1
*CONN
*I drv I
*CAP
1 load 1
*RES
1 drv load 2
"#;
        assert!(matches!(parse_spef(text), Err(NetlistError::Parse { .. })));
    }

    #[test]
    fn empty_document_rejected() {
        assert!(matches!(
            parse_spef("// nothing here\n"),
            Err(NetlistError::Empty)
        ));
    }

    #[test]
    fn multiple_nets_parse_independently() {
        let text = format!("{SAMPLE}\n{}", SAMPLE.replace("net1", "net2"));
        let nets = parse_spef(&text).unwrap();
        assert_eq!(nets.len(), 2);
        assert_eq!(nets[1].name, "net2");
    }

    /// A deck of `n` copies of [`SAMPLE`]'s net under distinct names.
    fn replicated_deck(n: usize) -> String {
        let mut text = String::new();
        for i in 0..n {
            text.push_str(&SAMPLE.replace("net1", &format!("net{i}")));
        }
        text
    }

    #[test]
    fn deck_parse_is_bit_identical_to_serial_for_any_job_count() {
        let text = replicated_deck(33);
        let serial = parse_spef(&text).unwrap();
        assert_eq!(serial.len(), 33);
        for jobs in [1, 2, 7, rctree_par::available_parallelism()] {
            let parallel = parse_spef_deck(&text, jobs).unwrap();
            assert_eq!(parallel, serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn deck_parse_applies_units_in_document_order() {
        // The second net is parsed under KOHM/FF scales declared between
        // the sections; the splitter must hand each section the scales in
        // effect where it starts.
        let text = "\
*D_NET a 1\n*CONN\n*I drv I\n*P x O\n*CAP\n1 x 1\n*RES\n1 drv x 5\n*END\n\
*R_UNIT 1 KOHM\n*C_UNIT 1 FF\n\
*D_NET b 1\n*CONN\n*I drv I\n*P y O\n*CAP\n1 y 2\n*RES\n1 drv y 7\n*END\n";
        let serial = parse_spef(text).unwrap();
        let parallel = parse_spef_deck(text, 2).unwrap();
        assert_eq!(parallel, serial);
        let y = parallel[1].tree.node_by_name("y").unwrap();
        assert!((parallel[1].tree.resistance_from_input(y).unwrap().value() - 7000.0).abs() < 1e-9);
        assert!((parallel[1].tree.total_capacitance().value() - 2e-15).abs() < 1e-26);
    }

    #[test]
    fn parse_errors_carry_line_and_token() {
        // A bad `*CAP` value inside the second net: the error names the
        // absolute 1-based line and the offending token, from both the
        // serial and the deck parser.
        let text = "\
*D_NET a 1\n*CONN\n*I drv I\n*CAP\n1 x 1\n*RES\n1 drv x 5\n*END\n\
*D_NET b 1\n*CONN\n*I drv I\n*CAP\n1 y bogus\n*RES\n1 drv y 7\n*END\n";
        for result in [parse_spef(text), parse_spef_deck(text, 2)] {
            match result {
                Err(NetlistError::Parse { line, token, .. }) => {
                    assert_eq!(line, 13);
                    assert_eq!(token.as_deref(), Some("bogus"));
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn missing_end_is_reported_at_the_net_header() {
        let text = "// preamble\n*D_NET n 1\n*CONN\n*I drv I\n*CAP\n1 load 1\n";
        for result in [parse_spef(text), parse_spef_deck(text, 2)] {
            match result {
                Err(NetlistError::Parse { line, token, .. }) => {
                    assert_eq!(line, 2, "reported at the *D_NET header");
                    assert_eq!(token.as_deref(), Some("n"));
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn deck_parser_rejects_empty_documents() {
        assert!(matches!(
            parse_spef_deck("// nothing\n", 4),
            Err(NetlistError::Empty)
        ));
    }

    #[test]
    fn byte_splitter_handles_crlf_and_missing_trailing_newline() {
        // CRLF line endings: the byte scanner must strip `\r` exactly like
        // `str::lines` does for the serial parser.
        let crlf = SAMPLE.replace('\n', "\r\n");
        assert_eq!(
            parse_spef_deck(&crlf, 2).unwrap(),
            parse_spef(&crlf).unwrap()
        );

        // A document whose final `*END` lacks a trailing newline still
        // closes the last section.
        let trimmed = replicated_deck(3);
        let trimmed = trimmed.trim_end_matches('\n');
        assert_eq!(
            parse_spef_deck(trimmed, 2).unwrap(),
            parse_spef(trimmed).unwrap()
        );

        // Section followed by trailing top-level noise only.
        let noisy = format!("{SAMPLE}\n// trailing comment\n\n");
        assert_eq!(
            parse_spef_deck(&noisy, 2).unwrap(),
            parse_spef(&noisy).unwrap()
        );
    }

    #[test]
    fn byte_splitter_treats_in_body_headers_as_body_lines() {
        // A stray `*D_NET`-looking line inside an unterminated body belongs
        // to that body; both parsers agree the document is one broken net,
        // reported at the first header.
        let text = "*D_NET outer 1\n*CONN\n*I drv I\n*D_NET inner 2\n*CAP\n1 x 1\n";
        let serial = parse_spef(text).unwrap_err();
        let deck = parse_spef_deck(text, 2).unwrap_err();
        assert_eq!(format!("{serial}"), format!("{deck}"));
    }
}
