//! One very large net must cost time linear in its size.
//!
//! A clock spine or power-gating net can hold 10⁵ nodes in one `*D_NET`.
//! Building it used to look every node name up by a linear scan (in the
//! netlist's tree assembly, in `RcTreeBuilder` and in `Design::add_net`),
//! so an `n`-node net cost `O(n²)`: about a minute at 10⁵ nodes.  This
//! test takes a 2¹⁷-node chain through the whole pipeline — streaming
//! parse, design build, analysis — and checks the answer against the
//! closed form, so a return of any quadratic step shows up as a test that
//! no longer finishes.

use penfield_rubinstein::core::units::Seconds;
use penfield_rubinstein::netlist::parse_spef_read;
use penfield_rubinstein::sta::{CellLibrary, Design};

/// Nodes in the chain below the driver pin.
const NODES: usize = 1 << 17;
/// Resistance per segment, ohms.
const R: f64 = 1.0;
/// Capacitance per node, picofarads (the SPEF default unit).
const C_PF: f64 = 0.001;

/// `drv — n1 — n2 — … — n{NODES}`, every node loaded, the far end the one
/// output.
fn chain_deck() -> String {
    let mut deck = String::with_capacity(NODES * 40);
    deck.push_str(&format!(
        "*D_NET spine 1\n*CONN\n*I drv I\n*P n{NODES} O\n*CAP\n"
    ));
    for i in 1..=NODES {
        deck.push_str(&format!("{i} n{i} {C_PF}\n"));
    }
    deck.push_str("*RES\n1 drv n1 1\n");
    for i in 2..=NODES {
        deck.push_str(&format!("{i} n{} n{i} {R}\n", i - 1));
    }
    deck.push_str("*END\n");
    deck
}

#[test]
fn a_two_to_the_seventeen_node_chain_builds_and_analyzes() {
    let deck = chain_deck();
    let nets = parse_spef_read(deck.as_bytes(), 2).unwrap();
    assert_eq!(nets.len(), 1);
    let tree = &nets[0].tree;
    assert_eq!(tree.node_count(), NODES + 1);
    let far = tree.node_by_name(&format!("n{NODES}")).unwrap();
    assert_eq!(tree.outputs().collect::<Vec<_>>(), [far]);
    assert_eq!(tree.depth(far).unwrap(), NODES);
    assert_eq!(
        tree.resistance_from_input(far).unwrap().value(),
        NODES as f64 * R
    );
    // Every name resolves to the node that carries it.
    for i in (1..=NODES).step_by(4099) {
        let id = tree.node_by_name(&format!("n{i}")).unwrap();
        assert_eq!(tree.name(id).unwrap(), format!("n{i}"));
        assert_eq!(tree.depth(id).unwrap(), i);
    }

    let design = Design::from_extracted(
        CellLibrary::nmos_1981(),
        "inv_4x",
        nets.into_iter().map(|n| (n.name, n.tree)),
    )
    .unwrap();
    let report = design.analyze_with_jobs(0.5, Seconds::new(1.0), 2).unwrap();
    let endpoint = report
        .endpoints
        .iter()
        .find(|e| e.name == format!("spine/n{NODES}"))
        .expect("the chain's far end is an endpoint");
    // Magnitude check against the closed form: the wire's own Elmore
    // delay to the far end, Σᵢ R·i·C = R·C·n(n+1)/2, falls inside the
    // endpoint's certified window (the driver and feeder add to both ends).
    let wire_elmore = R * C_PF * 1e-12 * (NODES as f64) * (NODES as f64 + 1.0) / 2.0;
    let (lower, upper) = (endpoint.arrival.min.value(), endpoint.arrival.max.value());
    assert!(
        lower < wire_elmore && wire_elmore < upper,
        "[{lower}, {upper}] vs {wire_elmore}"
    );
}
