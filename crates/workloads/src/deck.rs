//! Multi-net SPEF deck generation for ingestion-scale benchmarks.
//!
//! The paper's per-net analysis only becomes interesting at full-chip
//! scale: thousands of extracted nets arriving as one SPEF document.  This
//! module generates such decks reproducibly — every net is a seeded random
//! RC tree rendered as a `*D_NET` section — so the parse → analyze →
//! certify pipeline can be driven and benchmarked end-to-end without a real
//! extractor in the loop.
//!
//! Only lumped resistors and grounded capacitors are emitted (SPEF has no
//! distributed-line element), so the generator forces
//! [`RandomTreeConfig::line_probability`] to zero.

use std::io;

use rctree_core::tree::RcTree;

use crate::random::RandomTreeConfig;

/// Configuration for [`spef_deck`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpefDeckParams {
    /// Number of `*D_NET` sections to generate.
    pub nets: usize,
    /// Shape of each net's RC tree.  `line_probability` is ignored (forced
    /// to zero — SPEF cannot express distributed lines).
    pub tree: RandomTreeConfig,
}

impl Default for SpefDeckParams {
    fn default() -> Self {
        SpefDeckParams {
            nets: 1000,
            tree: RandomTreeConfig {
                nodes: 12,
                line_probability: 0.0,
                resistance_range: (5.0, 500.0),
                capacitance_range: (1e-15, 50e-15),
                capacitor_probability: 0.8,
                prefer_chains: true,
            },
        }
    }
}

impl SpefDeckParams {
    /// The deterministic per-net seed: decouples net `i` from the others so
    /// decks of different sizes share a prefix of identical nets.
    fn net_seed(&self, seed: u64, i: usize) -> u64 {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64)
    }

    /// Generates the trees of the deck without rendering them to text.
    pub fn trees(&self, seed: u64) -> Vec<(String, RcTree)> {
        let cfg = RandomTreeConfig {
            line_probability: 0.0,
            ..self.tree
        };
        (0..self.nets)
            .map(|i| (format!("net{i}"), cfg.generate(self.net_seed(seed, i))))
            .collect()
    }
}

/// Generates a SPEF-lite document with [`SpefDeckParams::nets`] `*D_NET`
/// sections, reproducibly from a seed.
///
/// The output parses with `rctree_netlist::parse_spef` and
/// `parse_spef_deck`; every leaf of every net is declared as a `*P` load
/// pin, and the `*D_NET` total-capacitance field matches the section's
/// `*CAP` entries.
///
/// Convenience wrapper over [`render_spef_deck`] for callers that want the
/// whole document in memory; million-net decks should stream instead.
pub fn spef_deck(params: &SpefDeckParams, seed: u64) -> String {
    let mut out = Vec::with_capacity(params.nets * 256);
    render_spef_deck(params, seed, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("rendered deck is ASCII")
}

/// Streams the deck [`spef_deck`] would return — byte-identical — into any
/// writer, generating and rendering one net at a time.
///
/// Peak memory is one net's tree plus one section's text regardless of
/// [`SpefDeckParams::nets`], which is what makes million-net fixture decks
/// practical: pipe the output to a file (`rcdelay gen-deck`) instead of
/// materialising gigabytes of SPEF in memory.
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn render_spef_deck<W: io::Write>(
    params: &SpefDeckParams,
    seed: u64,
    out: &mut W,
) -> io::Result<()> {
    let cfg = RandomTreeConfig {
        line_probability: 0.0,
        ..params.tree
    };
    out.write_all(b"*SPEF \"IEEE 1481-1998\"\n")?;
    out.write_all(b"*DESIGN \"rctree-workloads deck\"\n")?;
    out.write_all(b"*R_UNIT 1 OHM\n")?;
    out.write_all(b"*C_UNIT 1 PF\n")?;
    let mut section = String::new();
    for i in 0..params.nets {
        let tree = cfg.generate(params.net_seed(seed, i));
        section.clear();
        render_d_net(&mut section, &format!("net{i}"), &tree);
        out.write_all(section.as_bytes())?;
    }
    Ok(())
}

/// Renders one RC tree as a `*D_NET` section.  The tree's input node is the
/// driver pin; every marked output is a `*P` load pin.
fn render_d_net(out: &mut String, name: &str, tree: &RcTree) {
    let node_name = |id| tree.name(id).expect("valid node");
    let total_pf = tree.total_capacitance().value() * 1e12;
    out.push_str(&format!("\n*D_NET {name} {total_pf}\n*CONN\n"));
    out.push_str(&format!("*I {} I\n", node_name(tree.input())));
    for id in tree.outputs() {
        out.push_str(&format!("*P {} O\n", node_name(id)));
    }
    out.push_str("*CAP\n");
    let mut index = 0;
    for id in tree.preorder_iter() {
        let cap = tree.capacitance(id).expect("valid node");
        if !cap.is_zero() {
            index += 1;
            out.push_str(&format!(
                "{index} {} {}\n",
                node_name(id),
                cap.value() * 1e12
            ));
        }
    }
    out.push_str("*RES\n");
    let mut index = 0;
    for id in tree.preorder_iter() {
        if id == tree.input() {
            continue;
        }
        let parent = tree.parent(id).expect("valid node").expect("non-input");
        let branch = tree.branch(id).expect("valid node").expect("non-input");
        index += 1;
        out.push_str(&format!(
            "{index} {} {} {}\n",
            node_name(parent),
            node_name(id),
            branch.resistance().value()
        ));
    }
    out.push_str("*END\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deck_is_deterministic_per_seed() {
        let params = SpefDeckParams {
            nets: 5,
            ..SpefDeckParams::default()
        };
        assert_eq!(spef_deck(&params, 42), spef_deck(&params, 42));
        assert_ne!(spef_deck(&params, 42), spef_deck(&params, 43));
    }

    #[test]
    fn deck_has_the_requested_number_of_sections() {
        let params = SpefDeckParams {
            nets: 17,
            ..SpefDeckParams::default()
        };
        let text = spef_deck(&params, 7);
        assert_eq!(text.matches("*D_NET ").count(), 17);
        assert_eq!(text.matches("*END").count(), 17);
    }

    #[test]
    fn smaller_decks_are_prefixes_net_wise() {
        let small = SpefDeckParams {
            nets: 3,
            ..SpefDeckParams::default()
        };
        let large = SpefDeckParams {
            nets: 6,
            ..SpefDeckParams::default()
        };
        let small_trees = small.trees(11);
        let large_trees = large.trees(11);
        assert_eq!(small_trees[..], large_trees[..3]);
    }

    #[test]
    fn streamed_deck_matches_the_in_memory_render() {
        let params = SpefDeckParams {
            nets: 8,
            ..SpefDeckParams::default()
        };
        let mut streamed = Vec::new();
        render_spef_deck(&params, 42, &mut streamed).unwrap();
        assert_eq!(streamed, spef_deck(&params, 42).into_bytes());
    }

    #[test]
    fn writer_errors_propagate() {
        struct Broken;
        impl io::Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "closed"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = render_spef_deck(&SpefDeckParams::default(), 1, &mut Broken).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn trees_are_resistor_only() {
        let params = SpefDeckParams {
            nets: 4,
            tree: RandomTreeConfig {
                line_probability: 1.0, // must be overridden
                ..SpefDeckParams::default().tree
            },
        };
        for (_, tree) in params.trees(3) {
            for id in tree.node_ids() {
                if let Some(branch) = tree.branch(id).unwrap() {
                    assert!(!branch.is_distributed());
                }
            }
        }
    }
}
