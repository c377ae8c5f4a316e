//! The registry of the paper's tables, figures and our ablations, each
//! defined once: its sweep axes, the paper's values (the only numeric
//! copy in Rust, each constant's doc the sentence it comes from), the
//! arithmetic that turns its runs into shapes, and a full-size `print`.
//! `tests/paper_shapes.rs` runs the same axes at a scale of its own.

mod pooling;
mod recovery;
mod sharing;
mod tables;

pub use pooling::{a3, a4, fig1, fig3, fig7, fig8, fig9, DRAM_VS_CXL, KNEE_POINTS, RDMA_VS_CXL};
pub use recovery::{a2, fig10};
pub use sharing::{a1, fig11, fig12, fig13, RDMA30_VS_CXL};
pub use tables::{table1, table2, table3};

/// The LBP sizes Figures 1 and 13 sweep, as fractions of what RDMA pages.
pub const LBP_FRACTIONS: [f64; 5] = [0.10, 0.30, 0.50, 0.70, 1.00];

/// A paper value (or ratio of two), under the ledger's name for the shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paper {
    pub name: &'static str,
    pub value: f64,
}

const fn paper(name: &'static str, value: f64) -> Paper {
    Paper { name, value }
}

/// One table, figure or ablation: its id, its paper values, its printer.
#[derive(Debug)]
pub struct Entry {
    pub id: &'static str,
    /// The entry's scalar paper values, under the ledger's shape names.
    /// Tables 1–2 compare cell by cell against the grids in their own
    /// `PAPER` constants instead; Table 3 and the ablations have none.
    pub paper: &'static [Paper],
    pub print: fn(),
}

const fn entry(id: &'static str, paper: &'static [Paper], print: fn()) -> Entry {
    Entry { id, paper, print }
}

/// Every entry, in the order `paper` prints them when given no id.
pub static ALL: [Entry; 16] = [
    entry("table1_latency", &[], table1::print),
    entry("table2_transfer", &[], table2::print),
    entry("fig1_lbp_size", fig1::PAPER, fig1::print),
    entry("fig3_cxl_vs_dram", fig3::PAPER, fig3::print),
    entry("fig7_pooling_point_select", fig7::PAPER, fig7::print),
    entry("fig8_pooling_range_select", fig8::PAPER, fig8::print),
    entry("fig9_pooling_read_write", fig9::PAPER, fig9::print),
    entry("fig10_recovery", fig10::PAPER, fig10::print),
    entry("fig11_sharing_point_update", fig11::PAPER, fig11::print),
    entry("fig12_sharing_read_write", fig12::PAPER, fig12::print),
    entry("fig13_breakdown", fig13::PAPER, fig13::print),
    entry("table3_tpcc_tatp", &[], table3::print),
    entry("ablation_coherency", &[], a1::print),
    entry("ablation_recovery_metadata", &[], a2::print),
    entry("ablation_cache_size", &[], a3::print),
    entry("ablation_switch_latency", &[], a4::print),
];

/// The entries `ids` name (all when none), or the first unknown id.
pub fn select<S: AsRef<str>>(ids: &[S]) -> Result<Vec<&'static Entry>, String> {
    if ids.is_empty() {
        return Ok(ALL.iter().collect());
    }
    ids.iter()
        .map(|id| {
            let id = id.as_ref();
            ALL.iter()
                .find(|e| e.id == id)
                .ok_or_else(|| id.to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_select_keeps_the_order_given() {
        for (i, e) in ALL.iter().enumerate() {
            assert!(ALL[..i].iter().all(|f| f.id != e.id), "{} twice", e.id);
        }
        assert_eq!(select::<&str>(&[]).unwrap().len(), ALL.len());
        let picked = select(&["fig7_pooling_point_select", "table1_latency"]).unwrap();
        let ids: Vec<&str> = picked.iter().map(|e| e.id).collect();
        assert_eq!(ids, ["fig7_pooling_point_select", "table1_latency"]);
        assert_eq!(select(&["table1_latency", "fig99"]).unwrap_err(), "fig99");
    }

    #[test]
    fn paper_values_are_named_once_per_entry() {
        for e in &ALL {
            for (i, p) in e.paper.iter().enumerate() {
                assert!(
                    e.paper[..i].iter().all(|q| q.name != p.name),
                    "{}: {} twice",
                    e.id,
                    p.name
                );
                assert!(p.value > 0.0, "{}: {p:?}", e.id);
            }
        }
    }
}
