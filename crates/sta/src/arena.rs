//! Contiguous SoA net arena: every net's augmented stage arrays packed
//! into one allocation, with one value lane per PVT corner.
//!
//! [`Design::analyze_with_jobs`](crate::Design::analyze_with_jobs) used to
//! rebuild four per-net `Vec`s (parent / branch R / branch C / node cap)
//! inside every worker on every call — at `10^6` nets that is four million
//! short-lived allocations per analysis and a heap walk that defeats the
//! cache.  [`NetArena`] materialises the same arrays **once** per design
//! revision, each net occupying one contiguous range of four structure-of-
//! arrays columns, so the sharded stage sweep streams through memory
//! linearly and reuses one per-worker [`BatchScratch`] for every net it
//! visits.
//!
//! The arrays of each net are byte-for-byte the arrays
//! [`crate::stage::augmented_batch`] would build (same splice order, same
//! validation, same floats), and the sweep itself runs through
//! [`BatchScratch::sweep`], which is pinned bit-identical to
//! [`rctree_core::batch::BatchTimes::of_preorder`] — so arena-backed
//! analysis reproduces the historical per-net evaluation exactly.
//!
//! ## Corner lanes
//!
//! When the design carries a multi-corner [`CornerSet`], the three value
//! columns grow one **lane per corner**: lane `k` of net `i` occupies
//! columns `[k·lane_len + start, k·lane_len + end)` for the same
//! `[start, end)` the net owns in lane 0, so the (shared) `parent` column
//! and sink positions address every lane alike.  Lane 0 is the unscaled
//! deck — byte-identical to the single-corner arena.  Lane `k ≥ 1` scales
//! every element **individually** from its lane-0 value (one IEEE-754
//! rounding per element, never a scaled sum): wire branch R/C and
//! interconnect node caps by the net's wire scales (per-net override or the
//! corner's globals), the driver resistance by the corner's global
//! `r_scale`, each spliced sink load by the global `c_scale` — exactly the
//! arrays `augmented_batch` would build for a fully *materialised* scaled
//! design, which is what the corner-equivalence suite pins.
//!
//! ## Alignment
//!
//! Each net's range starts on a 64-byte boundary of the `f64` columns
//! (ranges are padded to a multiple of 8 entries with zero filler rows), so
//! adjacent workers of the sharded sweep never false-share a cache line.
//! Padding changes offsets only — every slice a sweep sees is unchanged.
//!
//! Per-net validation failures are **deferred**, not raised at build time:
//! each net carries an optional error slot that the sweep surfaces when
//! (and only when) that net is evaluated, preserving the historical
//! first-failing-net-in-net-order error semantics of the parallel map.

use rctree_core::batch::{BatchScratch, LaneArrays, LaneScratch};
use rctree_core::corner::CornerSet;
use rctree_core::units::Seconds;

use crate::error::{Result, StaError};
use crate::graph::{Net, NetAug};
use crate::stage::{DRIVER_OUTPUT_NODE, STAGE_INPUT_NODE};

/// Entries per cache line for the `f64` value columns.
const LANE_ALIGN: usize = 8;

/// The packed augmented-stage arrays of every net of a design.
///
/// Built lazily (and cached on the design core) from the committed nets and
/// their pre-resolved [`NetAug`] side table; any mutation of the nets
/// invalidates the cache.
#[derive(Debug)]
pub(crate) struct NetArena {
    /// Parent index of every augmented node, **local** to its net's range
    /// (each range is a standalone pre-order array).  Shared by all lanes.
    parent: Vec<u32>,
    /// Branch resistance feeding every augmented node, `lanes` lanes of
    /// `lane_len` entries each.
    branch_r: Vec<f64>,
    /// Distributed branch capacitance of every augmented node (per lane).
    branch_c: Vec<f64>,
    /// Lumped node capacitance (interconnect + spliced sink loads, per
    /// lane).
    node_cap: Vec<f64>,
    /// Per net: `[start, end)` into lane 0 of the value columns (add
    /// `k * lane_len` for lane `k`).  Empty for sink-less nets (which the
    /// stage evaluation skips) and for nets whose build failed.
    node_range: Vec<(u32, u32)>,
    /// Per-net sink positions (local pre-order indices), concatenated.
    sink_pos: Vec<u32>,
    /// Per net: `[start, end)` into `sink_pos`.
    sink_range: Vec<(u32, u32)>,
    /// Per net: the validation error `augmented_batch` would have raised,
    /// surfaced when the net is swept.
    errors: Vec<Option<StaError>>,
    /// Entries per value lane (lane 0's column length, padding included).
    lane_len: usize,
    /// Number of corner lanes (1 without a multi-corner set).
    lanes: usize,
}

impl NetArena {
    /// Packs every net's augmented arrays; with a multi-corner set, also
    /// builds one scaled value lane per extra corner.  Infallible: per-net
    /// validation failures are recorded in the net's error slot instead.
    pub(crate) fn build(nets: &[Net], aug: &[NetAug], corners: Option<&CornerSet>) -> NetArena {
        let total_nodes: usize = nets
            .iter()
            .zip(aug)
            .filter(|(_, a)| !a.loads.is_empty())
            .map(|(n, _)| n.interconnect.node_count() + 1 + LANE_ALIGN)
            .sum();
        let total_sinks: usize = aug.iter().map(|a| a.loads.len()).sum();
        let k_count = corners.map_or(1, CornerSet::len);
        let mut arena = NetArena {
            parent: Vec::with_capacity(total_nodes),
            branch_r: Vec::with_capacity(total_nodes),
            branch_c: Vec::with_capacity(total_nodes),
            node_cap: Vec::with_capacity(total_nodes),
            node_range: Vec::with_capacity(nets.len()),
            sink_pos: Vec::with_capacity(total_sinks),
            sink_range: Vec::with_capacity(nets.len()),
            errors: Vec::with_capacity(nets.len()),
            lane_len: 0,
            lanes: 1,
        };
        // Lane-building side tables, tracked only for multi-corner decks:
        // per-column interconnect capacitance *before* sink splicing, and
        // per-sink unscaled load values.
        let mut base_cap: Vec<f64> = Vec::new();
        let mut sink_load: Vec<f64> = Vec::new();
        let track = k_count > 1;
        // Raw node id -> local augmented pre-order position, reused across
        // nets (cleared and resized per net).
        let mut pos: Vec<u32> = Vec::new();
        for (net, net_aug) in nets.iter().zip(aug) {
            // Align every net's range to a cache line of the f64 columns.
            while !arena.parent.len().is_multiple_of(LANE_ALIGN) {
                arena.parent.push(0);
                arena.branch_r.push(0.0);
                arena.branch_c.push(0.0);
                arena.node_cap.push(0.0);
                if track {
                    base_cap.push(0.0);
                }
            }
            let start = arena.parent.len();
            let sink_start = arena.sink_pos.len();
            let side = if track {
                Some((&mut base_cap, &mut sink_load))
            } else {
                None
            };
            match arena.append_net(net, net_aug, &mut pos, side) {
                Ok(()) => arena.errors.push(None),
                Err(e) => {
                    // Roll the partial append back so the ranges of later
                    // nets stay consistent; the error replays at sweep time.
                    arena.parent.truncate(start);
                    arena.branch_r.truncate(start);
                    arena.branch_c.truncate(start);
                    arena.node_cap.truncate(start);
                    arena.sink_pos.truncate(sink_start);
                    if track {
                        base_cap.truncate(start);
                        sink_load.truncate(sink_start);
                    }
                    arena.errors.push(Some(e));
                }
            }
            arena
                .node_range
                .push((start as u32, arena.parent.len() as u32));
            arena
                .sink_range
                .push((sink_start as u32, arena.sink_pos.len() as u32));
        }
        arena.lane_len = arena.parent.len();
        if let Some(set) = corners {
            if k_count > 1 {
                arena.build_corner_lanes(nets, set, &base_cap, &sink_load);
            }
        }
        arena
    }

    /// Appends one extra value lane per non-nominal corner, streaming each
    /// element's scaled value from lane 0 (no tree walks): one
    /// multiplication per element, matching a materialised scaled design
    /// bit-for-bit.
    // The loops below read lane 0 and write lane `k` of the *same*
    // columns at different offsets; iterator zips cannot express that
    // aliasing without split_at_mut gymnastics that obscure the splice
    // order the bit-identity contract depends on.
    #[allow(clippy::needless_range_loop)]
    fn build_corner_lanes(
        &mut self,
        nets: &[Net],
        set: &CornerSet,
        base_cap: &[f64],
        sink_load: &[f64],
    ) {
        let k_count = set.len();
        let lane_len = self.lane_len;
        self.lanes = k_count;
        self.branch_r.resize(k_count * lane_len, 0.0);
        self.branch_c.resize(k_count * lane_len, 0.0);
        self.node_cap.resize(k_count * lane_len, 0.0);
        for k in 1..k_count {
            let off = k * lane_len;
            let corner = set.corner(k);
            let (rs_global, cs_global) = (corner.r_scale, corner.c_scale);
            for (i, net) in nets.iter().enumerate() {
                let (start, end) = self.node_range[i];
                let (start, end) = (start as usize, end as usize);
                if start == end {
                    continue;
                }
                let (rs, cs) = set.wire_scales(&net.name, k);
                // Local node 0 (the stage input) stays all-zero; local node
                // 1 carries the driver resistance (global corner scale) and
                // the interconnect input's cap (wire scale).
                self.branch_r[off + start + 1] = self.branch_r[start + 1] * rs_global;
                self.node_cap[off + start + 1] = base_cap[start + 1] * cs;
                for j in start + 2..end {
                    self.branch_r[off + j] = self.branch_r[j] * rs;
                    self.branch_c[off + j] = self.branch_c[j] * cs;
                    self.node_cap[off + j] = base_cap[j] * cs;
                }
                // Splice the sink loads (global corner scale), in the same
                // order lane 0 spliced them.
                let (ks, ke) = self.sink_range[i];
                for t in ks as usize..ke as usize {
                    let p = self.sink_pos[t] as usize;
                    self.node_cap[off + start + p] += sink_load[t] * cs_global;
                }
            }
        }
    }

    /// Appends one net's augmented arrays, replicating
    /// [`crate::stage::augmented_batch`]'s splice and validation order
    /// exactly (driver check, pre-order walk with reserved-name checks,
    /// then per-sink node/load checks) so deferred errors match the
    /// historical per-call evaluation.  When `side` is given, also records
    /// the pre-splice interconnect caps and raw sink loads for corner-lane
    /// construction.
    fn append_net(
        &mut self,
        net: &Net,
        aug: &NetAug,
        pos: &mut Vec<u32>,
        side: Option<(&mut Vec<f64>, &mut Vec<f64>)>,
    ) -> Result<()> {
        // A sink-less net has nothing to time — `stage_delay_bounds`
        // short-circuits before any validation, and so does the sweep.
        if aug.loads.is_empty() {
            return Ok(());
        }
        let check = |what: &'static str, value: f64| -> Result<()> {
            if !value.is_finite() || value < 0.0 {
                Err(rctree_core::CoreError::InvalidValue { what, value }.into())
            } else {
                Ok(())
            }
        };
        check("resistance", aug.driver_r.value())?;
        let tree = &net.interconnect;
        let base = self.parent.len();
        pos.clear();
        pos.resize(tree.node_count(), 0);

        // Local node 0: the stage input (no element, no capacitance), and
        // node 1: the driver's output, carrying the driver resistance and
        // the interconnect input's lumped capacitance.
        self.parent.push(0);
        self.branch_r.push(0.0);
        self.branch_c.push(0.0);
        self.node_cap.push(0.0);
        self.parent.push(0);
        self.branch_r.push(aug.driver_r.value());
        self.branch_c.push(0.0);
        self.node_cap.push(tree.capacitance(tree.input())?.value());
        pos[tree.input().index()] = 1;

        for id in tree.preorder_iter() {
            if id == tree.input() {
                continue;
            }
            let name = tree.name(id)?;
            if name == DRIVER_OUTPUT_NODE || name == STAGE_INPUT_NODE {
                return Err(rctree_core::CoreError::DuplicateName {
                    name: name.to_string(),
                }
                .into());
            }
            let p = tree.parent(id)?.expect("non-input node");
            let branch = tree.branch(id)?.expect("non-input node");
            pos[id.index()] = (self.parent.len() - base) as u32;
            self.parent.push(pos[p.index()]);
            self.branch_r.push(branch.resistance().value());
            self.branch_c.push(branch.capacitance().value());
            self.node_cap.push(tree.capacitance(id)?.value());
        }

        if let Some((base_cap, sink_load)) = side {
            base_cap.extend_from_slice(&self.node_cap[base..]);
            for &(node, load) in &aug.loads {
                let _ = tree.name(node)?;
                check("capacitance", load.value())?;
                self.node_cap[base + pos[node.index()] as usize] += load.value();
                self.sink_pos.push(pos[node.index()]);
                sink_load.push(load.value());
            }
        } else {
            for &(node, load) in &aug.loads {
                let _ = tree.name(node)?;
                check("capacitance", load.value())?;
                self.node_cap[base + pos[node.index()] as usize] += load.value();
                self.sink_pos.push(pos[node.index()]);
            }
        }
        Ok(())
    }

    /// Number of corner lanes (1 when built without a multi-corner set).
    #[cfg(test)]
    pub(crate) fn lane_count(&self) -> usize {
        self.lanes
    }

    /// Heap bytes of the packed columns as `(base, corner_lanes)`: the
    /// lane-0 arena (parent, three value columns, ranges, sinks) and the
    /// extra corner lanes.
    pub(crate) fn bytes(&self) -> (usize, usize) {
        let f64s = std::mem::size_of::<f64>();
        let base = self.parent.len() * std::mem::size_of::<u32>()
            + 3 * self.lane_len * f64s
            + (self.node_range.len() + self.sink_range.len()) * std::mem::size_of::<(u32, u32)>()
            + self.sink_pos.len() * std::mem::size_of::<u32>();
        let corner = 3 * (self.lanes - 1) * self.lane_len * f64s;
        (base, corner)
    }

    /// Number of nets the arena covers.
    #[cfg(test)]
    pub(crate) fn net_count(&self) -> usize {
        self.node_range.len()
    }

    /// Total packed augmented nodes across every net (padding included).
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// Sweeps one net in place: runs the batched pre-order kernel over the
    /// net's lane-0 arena range through the caller's reusable scratch and
    /// returns the `(lower, upper)` delay window of every sink, in sink
    /// order — bit-identical to `stage_delay_bounds` on the same net.
    pub(crate) fn sweep_net(
        &self,
        i: usize,
        threshold: f64,
        scratch: &mut BatchScratch,
    ) -> Result<Vec<(Seconds, Seconds)>> {
        if let Some(e) = &self.errors[i] {
            return Err(e.clone());
        }
        let (start, end) = self.node_range[i];
        let (start, end) = (start as usize, end as usize);
        if start == end {
            return Ok(Vec::new());
        }
        let view = scratch.sweep(
            &self.parent[start..end],
            &self.branch_r[start..end],
            &self.branch_c[start..end],
            &self.node_cap[start..end],
        )?;
        let (ks, ke) = self.sink_range[i];
        let mut out = Vec::with_capacity((ke - ks) as usize);
        for &p in &self.sink_pos[ks as usize..ke as usize] {
            let times = view.times_at(p as usize)?;
            let bounds = times.delay_bounds(threshold)?;
            out.push((bounds.lower, bounds.upper));
        }
        Ok(out)
    }

    /// Sweeps **all corner lanes** of one net in a single traversal and
    /// returns, per lane, the `(lower, upper)` delay window of every sink
    /// in sink order.  Lane 0 is bit-identical to [`NetArena::sweep_net`];
    /// lane `k` is bit-identical to `sweep_net` on an arena built from the
    /// corner-`k`-materialised design.
    pub(crate) fn sweep_net_lanes(
        &self,
        i: usize,
        threshold: f64,
        scratch: &mut LaneScratch,
    ) -> Result<Vec<Vec<(Seconds, Seconds)>>> {
        if let Some(e) = &self.errors[i] {
            return Err(e.clone());
        }
        let (start, end) = self.node_range[i];
        let (start, end) = (start as usize, end as usize);
        if start == end {
            return Ok(vec![Vec::new(); self.lanes]);
        }
        let lanes: Vec<LaneArrays> = (0..self.lanes)
            .map(|k| {
                let off = k * self.lane_len;
                (
                    &self.branch_r[off + start..off + end],
                    &self.branch_c[off + start..off + end],
                    &self.node_cap[off + start..off + end],
                )
            })
            .collect();
        let view = scratch.sweep_lanes(&self.parent[start..end], &lanes)?;
        let (ks, ke) = self.sink_range[i];
        let sinks = &self.sink_pos[ks as usize..ke as usize];
        let mut out = Vec::with_capacity(self.lanes);
        for k in 0..self.lanes {
            let mut lane_out = Vec::with_capacity(sinks.len());
            for &p in sinks {
                let times = view.times_at(k, p as usize)?;
                let bounds = times.delay_bounds(threshold)?;
                lane_out.push((bounds.lower, bounds.upper));
            }
            out.push(lane_out);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Driver, Load, Net, NetAug, Sink};
    use crate::stage::{stage_delay_bounds, stage_delay_bounds_scaled, StageScales};
    use rctree_core::builder::RcTreeBuilder;
    use rctree_core::units::{Farads, Ohms};

    /// A two-sink branching net with slightly irregular element values so
    /// that scaled lanes cannot accidentally coincide with lane 0.
    fn fixture_net(name: &str, skew: f64) -> (Net, NetAug) {
        let mut b = RcTreeBuilder::new();
        let trunk = b
            .add_line(
                b.input(),
                "trunk",
                Ohms::new(120.0 * skew),
                Farads::from_femto(30.0),
            )
            .unwrap();
        let s1 = b
            .add_line(
                trunk,
                "s1",
                Ohms::new(80.0),
                Farads::from_femto(18.0 * skew),
            )
            .unwrap();
        let s2 = b
            .add_line(
                trunk,
                "s2",
                Ohms::new(210.0 * skew),
                Farads::from_femto(9.0),
            )
            .unwrap();
        b.add_capacitance(s2, Farads::from_femto(4.0)).unwrap();
        b.mark_output(s1).unwrap();
        b.mark_output(s2).unwrap();
        let tree = b.build().unwrap();
        let s1_id = tree.node_by_name("s1").unwrap();
        let s2_id = tree.node_by_name("s2").unwrap();
        let net = Net {
            name: name.to_string(),
            driver: Driver::PrimaryInput,
            interconnect: tree,
            sinks: vec![
                Sink {
                    node: "s1".to_string(),
                    load: Load::PrimaryOutput(format!("{name}_o1")),
                },
                Sink {
                    node: "s2".to_string(),
                    load: Load::PrimaryOutput(format!("{name}_o2")),
                },
            ],
        };
        let aug = NetAug {
            driver_r: Ohms::new(1000.0 * skew),
            loads: vec![
                (s1_id, Farads::from_femto(13.0)),
                (s2_id, Farads::from_femto(52.0 * skew)),
            ],
        };
        (net, aug)
    }

    /// A three-corner set with a wire override on `n1` at corner 2.
    fn corners() -> CornerSet {
        let mut set = CornerSet::nominal();
        set.push("fast", 0.8, 0.85, 0.9).unwrap();
        set.push("slow", 1.3, 1.2, 1.15).unwrap();
        set.override_net("n1", 2, 1.45, 1.05).unwrap();
        set
    }

    fn fixtures() -> (Vec<Net>, Vec<NetAug>) {
        let (n0, a0) = fixture_net("n0", 1.0);
        let (n1, a1) = fixture_net("n1", 1.7);
        (vec![n0, n1], vec![a0, a1])
    }

    #[test]
    fn nominal_arena_has_one_lane_and_no_corner_bytes() {
        let (nets, aug) = fixtures();
        let arena = NetArena::build(&nets, &aug, None);
        assert_eq!(arena.lane_count(), 1);
        assert_eq!(arena.bytes().1, 0);
        assert!(arena.bytes().0 > 0);
    }

    #[test]
    fn nominal_only_set_builds_a_single_lane() {
        let (nets, aug) = fixtures();
        let arena = NetArena::build(&nets, &aug, Some(&CornerSet::nominal()));
        assert_eq!(arena.lane_count(), 1);
        assert_eq!(arena.bytes().1, 0);
    }

    #[test]
    fn net_ranges_start_on_cache_line_boundaries() {
        let (nets, aug) = fixtures();
        let arena = NetArena::build(&nets, &aug, Some(&corners()));
        assert_eq!(arena.net_count(), 2);
        for &(start, _) in &arena.node_range {
            assert!((start as usize).is_multiple_of(LANE_ALIGN));
        }
    }

    #[test]
    fn corner_bytes_cover_three_columns_per_extra_lane() {
        let (nets, aug) = fixtures();
        let arena = NetArena::build(&nets, &aug, Some(&corners()));
        assert_eq!(arena.lane_count(), 3);
        let (base, corner) = arena.bytes();
        assert!(base > 0);
        assert_eq!(corner, 3 * 2 * arena.lane_len * std::mem::size_of::<f64>());
    }

    #[test]
    fn lane_zero_is_bit_identical_to_the_single_lane_sweep() {
        let (nets, aug) = fixtures();
        let multi = NetArena::build(&nets, &aug, Some(&corners()));
        let single = NetArena::build(&nets, &aug, None);
        let mut lane_scratch = LaneScratch::new();
        let mut scratch = BatchScratch::new();
        for i in 0..nets.len() {
            let lanes = multi.sweep_net_lanes(i, 0.5, &mut lane_scratch).unwrap();
            let solo = single.sweep_net(i, 0.5, &mut scratch).unwrap();
            assert_eq!(lanes.len(), 3);
            for (a, b) in lanes[0].iter().zip(&solo) {
                assert_eq!(a.0.value().to_bits(), b.0.value().to_bits());
                assert_eq!(a.1.value().to_bits(), b.1.value().to_bits());
            }
            // And lane 0 matches the historical per-net stage evaluation.
            let stage =
                stage_delay_bounds(aug[i].driver_r, &nets[i].interconnect, &aug[i].loads, 0.5)
                    .unwrap();
            for (a, b) in lanes[0].iter().zip(&stage) {
                assert_eq!(a.0.value().to_bits(), b.lower.value().to_bits());
                assert_eq!(a.1.value().to_bits(), b.upper.value().to_bits());
            }
        }
    }

    #[test]
    fn corner_lanes_match_the_scaled_stage_evaluation_bit_for_bit() {
        let (nets, aug) = fixtures();
        let set = corners();
        let arena = NetArena::build(&nets, &aug, Some(&set));
        let mut scratch = LaneScratch::new();
        for (i, net) in nets.iter().enumerate() {
            let lanes = arena.sweep_net_lanes(i, 0.5, &mut scratch).unwrap();
            for (k, lane) in lanes.iter().enumerate().skip(1) {
                let corner = set.corner(k);
                let (wire_r, wire_c) = set.wire_scales(&net.name, k);
                let scales = StageScales {
                    wire_r,
                    wire_c,
                    driver_r: corner.r_scale,
                    load_c: corner.c_scale,
                };
                let oracle = stage_delay_bounds_scaled(
                    aug[i].driver_r,
                    &net.interconnect,
                    &aug[i].loads,
                    0.5,
                    scales,
                )
                .unwrap();
                assert_eq!(lane.len(), oracle.len());
                for (a, b) in lane.iter().zip(&oracle) {
                    assert_eq!(a.0.value().to_bits(), b.lower.value().to_bits());
                    assert_eq!(a.1.value().to_bits(), b.upper.value().to_bits());
                }
            }
        }
    }

    #[test]
    fn the_override_lane_differs_from_the_global_scale_lane() {
        // `n1` carries a wire override at corner 2; `n0` does not.  The
        // override must change n1's slow-corner windows but leave n0's
        // matching the global slow scales.
        let (nets, aug) = fixtures();
        let set = corners();
        let mut no_override = CornerSet::nominal();
        no_override.push("fast", 0.8, 0.85, 0.9).unwrap();
        no_override.push("slow", 1.3, 1.2, 1.15).unwrap();
        let with_ov = NetArena::build(&nets, &aug, Some(&set));
        let without = NetArena::build(&nets, &aug, Some(&no_override));
        let mut scratch = LaneScratch::new();
        let a = with_ov.sweep_net_lanes(1, 0.5, &mut scratch).unwrap();
        let b = without.sweep_net_lanes(1, 0.5, &mut scratch).unwrap();
        assert_ne!(a[2], b[2], "override should change corner-2 windows");
        let a0 = with_ov.sweep_net_lanes(0, 0.5, &mut scratch).unwrap();
        let b0 = without.sweep_net_lanes(0, 0.5, &mut scratch).unwrap();
        assert_eq!(a0[2], b0[2], "un-overridden net must match global scales");
    }

    #[test]
    fn sink_less_nets_sweep_to_empty_windows_in_every_lane() {
        let (mut nets, mut aug) = fixtures();
        aug[0].loads.clear();
        nets[0].sinks.clear();
        let arena = NetArena::build(&nets, &aug, Some(&corners()));
        let mut scratch = LaneScratch::new();
        let lanes = arena.sweep_net_lanes(0, 0.5, &mut scratch).unwrap();
        assert_eq!(lanes, vec![Vec::new(); 3]);
    }
}
