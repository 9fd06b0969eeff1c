//! Pinned edge cases of the SPEF-lite fast paths: in-place case-insensitive
//! directives, the `*END` test on raw body lines, suffix literals parsed
//! without a lowercased copy, and line splitting straight out of the
//! streaming reader's buffer.
//!
//! Every case runs through all three entry points — [`parse_spef`],
//! [`parse_spef_deck`] and the streaming reader at every chunk size from 1
//! to 64 bytes — which must agree exactly, and then asserts concrete values
//! or errors.

use penfield_rubinstein::core::element::Branch;
use penfield_rubinstein::core::CoreError;
use penfield_rubinstein::netlist::{parse_spef, parse_spef_deck, NetlistError, SpefNet};
use rctree_netlist::stream::SpefReader;

/// Parses `text` through every entry point, asserts they all agree, and
/// returns the common result.
fn parse_every_way(text: &str) -> Result<Vec<SpefNet>, NetlistError> {
    let want = parse_spef(text);
    assert_eq!(parse_spef_deck(text, 2), want, "deck parser on:\n{text:?}");
    for chunk in 1..=64 {
        let got = SpefReader::with_chunk_size(text.as_bytes(), chunk).parse_all(2);
        assert_eq!(got, want, "chunk size {chunk} on:\n{text:?}");
    }
    want
}

/// The net called `name`.
fn net<'a>(nets: &'a [SpefNet], name: &str) -> &'a SpefNet {
    nets.iter().find(|n| n.name == name).expect("net present")
}

/// Resistance of the branch feeding `node`.
fn branch_r(net: &SpefNet, node: &str) -> f64 {
    let id = net.tree.node_by_name(node).unwrap();
    match net.tree.branch(id).unwrap().expect("not the input") {
        Branch::Resistor { resistance } => resistance.value(),
        other => panic!("unexpected branch {other:?}"),
    }
}

/// Lumped capacitance at `node`.
fn cap(net: &SpefNet, node: &str) -> f64 {
    let id = net.tree.node_by_name(node).unwrap();
    net.tree.capacitance(id).unwrap().value()
}

/// Names of the output nodes, sorted.
fn outputs(net: &SpefNet) -> Vec<String> {
    let mut names: Vec<String> = net
        .tree
        .outputs()
        .map(|id| net.tree.name(id).unwrap().to_string())
        .collect();
    names.sort();
    names
}

const MIXED_CASE: &str = "\
*r_unit 1 kohm
*c_unit 1 ff
*d_net Mixed 0.5
*Conn
*i drv i
*p out o
*P mid O
*cap
1 mid 0.25
2 out 0.5
*Res
1 drv mid 10
2 mid out 20
*end
";

#[test]
fn directives_and_pin_directions_are_case_insensitive() {
    let nets = parse_every_way(MIXED_CASE).unwrap();
    assert_eq!(nets.len(), 1);
    let n = &nets[0];
    assert_eq!(n.name, "Mixed");
    assert_eq!(n.declared_total_cap, 0.5 * 1e-15);
    assert_eq!(n.tree.node_count(), 3);
    assert_eq!(n.tree.name(n.tree.input()).unwrap(), "drv");
    assert_eq!(outputs(n), ["mid", "out"]);
    assert_eq!(branch_r(n, "mid"), 10.0 * 1e3);
    assert_eq!(branch_r(n, "out"), 20.0 * 1e3);
    assert_eq!(cap(n, "mid"), 0.25 * 1e-15);
    assert_eq!(cap(n, "out"), 0.5 * 1e-15);
}

#[test]
fn unknown_pin_direction_is_reported_upper_cased() {
    let text = "*D_NET n 1\n*CONN\n*I drv I\n*P out x\n*CAP\n1 out 1\n*RES\n1 drv out 2\n*END\n";
    match parse_every_way(text) {
        Err(NetlistError::Parse { line, token, .. }) => {
            assert_eq!(line, 4);
            assert_eq!(token.as_deref(), Some("X"));
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn end_is_found_after_blanks_and_before_comments_but_not_inside_them() {
    let text = "\
*D_NET c 1
*CONN
*I drv I
*P b O
// *END
*CAP
1 b 2 // trailing note
*RES
1 drv b 3
  *END // note
*D_NET d 1
*CONN
*I drv I
*P e O
*CAP
1 e 4
*RES
1 drv e 5
\t*End
";
    let nets = parse_every_way(text).unwrap();
    assert_eq!(nets.len(), 2);
    // The commented-out `*END` did not close `c`: its caps and resistors
    // below the comment belong to it.
    let c = net(&nets, "c");
    assert_eq!(c.tree.node_count(), 2);
    assert_eq!(cap(c, "b"), 2.0 * 1e-12);
    assert_eq!(branch_r(c, "b"), 3.0);
    let d = net(&nets, "d");
    assert_eq!(cap(d, "e"), 4.0 * 1e-12);
    assert_eq!(branch_r(d, "e"), 5.0);
}

#[test]
fn comment_only_end_leaves_the_section_open() {
    // With only a commented `*END`, the section runs to end of input and
    // reports its missing `*END` at the header.
    let text =
        "// preamble\n*D_NET open 1\n*CONN\n*I drv I\n*CAP\n1 x 1\n*RES\n1 drv x 2\n// *END\n";
    match parse_every_way(text) {
        Err(NetlistError::Parse { line, token, .. }) => {
            assert_eq!(line, 2);
            assert_eq!(token.as_deref(), Some("open"));
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn suffixed_and_exponent_literals_scale_exactly() {
    let text = "\
*D_NET lits 1E-3
*CONN
*I drv I
*P d O
*CAP
1 a 4.7pF
2 d 2E
*RES
1 drv a 1E-3
2 a b 2.5MEG
3 b c 3e
4 c d 1e5k
*END
";
    let nets = parse_every_way(text).unwrap();
    let n = &nets[0];
    assert_eq!(n.declared_total_cap, 1e-3 * 1e-12);
    assert_eq!(branch_r(n, "a"), 1e-3);
    assert_eq!(branch_r(n, "b"), 2.5 * 1e6);
    assert_eq!(branch_r(n, "c"), 3.0);
    assert_eq!(branch_r(n, "d"), 1e5 * 1e3);
    // `pF` is a suffix on top of the `*C_UNIT` (picofarad) scale.
    assert_eq!(cap(n, "a"), 4.7 * 1e-12 * 1e-12);
    assert_eq!(cap(n, "d"), 2.0 * 1e-12);
}

#[test]
fn crlf_bodies_and_a_trailing_carriage_return_parse_like_lf() {
    let lf = parse_every_way(MIXED_CASE).unwrap();
    let crlf = MIXED_CASE.replace('\n', "\r\n");
    assert_eq!(parse_every_way(&crlf).unwrap(), lf);
    // The final `*end` unterminated but for a lone `\r`.
    let unterminated = format!("{}\r", crlf.trim_end_matches("\r\n"));
    assert!(unterminated.ends_with("*end\r"));
    assert_eq!(parse_every_way(&unterminated).unwrap(), lf);
    // A final line holding nothing but `\r`.
    assert_eq!(parse_every_way(&format!("{MIXED_CASE}\r")).unwrap(), lf);
}

#[test]
fn capacitor_errors_outrank_unknown_outputs() {
    // Both a negative `*CAP` and an unknown `*P` pin: caps are applied
    // before outputs are marked, so the cap error is the one reported.
    let text = "\
*D_NET bad 1
*CONN
*I drv I
*P ghost O
*CAP
1 x -2
*RES
1 drv x 5
*END
";
    match parse_every_way(text) {
        Err(NetlistError::Core(CoreError::InvalidValue { what, value })) => {
            assert_eq!(what, "capacitance");
            assert_eq!(value, -2.0 * 1e-12);
        }
        other => panic!("unexpected: {other:?}"),
    }
    // Without the bad cap, the unknown output is what fails.
    match parse_every_way(&text.replace("1 x -2", "1 x 2")) {
        Err(NetlistError::Parse { line, token, .. }) => {
            assert_eq!(line, 4);
            assert_eq!(token.as_deref(), Some("ghost"));
        }
        other => panic!("unexpected: {other:?}"),
    }
}
