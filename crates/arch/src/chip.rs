//! Chip-level configuration: the PU grid, the network, DRAM technology and
//! the area model used for area-normalized comparisons.

use crate::units::{AgSpec, PcuSpec, PmuSpec, PuType};
use serde::{Deserialize, Serialize};

/// DRAM technology attached to the chip's address generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DramKind {
    /// HBM2 at 1 TB/s aggregate (the paper's GPU-comparable configuration).
    Hbm2,
    /// DDR3 at 49 GB/s aggregate (the configuration of the original
    /// Plasticine paper, used for the vanilla-compiler comparison).
    Ddr3,
}

impl DramKind {
    /// Aggregate peak bandwidth in bytes per accelerator cycle (1 GHz
    /// clock: 1 TB/s = 1000 B/cycle).
    pub fn bytes_per_cycle(self) -> u64 {
        match self {
            DramKind::Hbm2 => 1000,
            DramKind::Ddr3 => 49,
        }
    }

    /// Number of independent channels.
    pub fn channels(self) -> u32 {
        match self {
            DramKind::Hbm2 => 8,
            DramKind::Ddr3 => 4,
        }
    }

    /// Idle (unloaded) access latency in accelerator cycles.
    pub fn idle_latency(self) -> u32 {
        match self {
            DramKind::Hbm2 => 100,
            DramKind::Ddr3 => 150,
        }
    }

    /// Extra latency of a row-buffer miss.
    pub fn row_miss_penalty(self) -> u32 {
        match self {
            DramKind::Hbm2 => 40,
            DramKind::Ddr3 => 60,
        }
    }
}

/// What occupies one grid coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GridSlot {
    Pu(PuType),
    /// Empty coordinate (no unit; switches are implicit at every junction).
    Empty,
}

/// A full chip configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipSpec {
    /// Grid rows (PU coordinates, not counting edge AG columns).
    pub rows: u32,
    /// Grid columns.
    pub cols: u32,
    /// Number of address generators (placed along the left/right edges).
    pub ags: u32,
    /// PCU capability spec.
    pub pcu: PcuSpec,
    /// PMU capability spec.
    pub pmu: PmuSpec,
    /// AG capability spec.
    pub ag: AgSpec,
    /// DRAM technology.
    pub dram: DramKind,
    /// Network latency per hop in cycles (switch traversal + wire).
    pub hop_latency: u32,
    /// Clock frequency in GHz (used only for wall-clock conversions in
    /// reports; the simulator works in cycles).
    pub clock_ghz: f64,
    /// Die area in mm² (for area-normalized throughput comparisons; the
    /// paper's 20×20 configuration is ~12% of a V100's area after
    /// technology normalization).
    pub area_mm2: f64,
}

impl ChipSpec {
    /// The paper's evaluation configuration: a 20×20 checkerboard of PCUs
    /// and PMUs (400 units) plus 20 edge AGs — 420 PUs total — with HBM2.
    pub fn sara_20x20() -> Self {
        ChipSpec {
            rows: 20,
            cols: 20,
            ags: 20,
            pcu: PcuSpec::default(),
            pmu: PmuSpec::default(),
            ag: AgSpec::default(),
            dram: DramKind::Hbm2,
            hop_latency: 2,
            clock_ghz: 1.0,
            area_mm2: 98.0,
        }
    }

    /// The original Plasticine paper's configuration: 16×8 grid (64 PCUs +
    /// 64 PMUs) with DDR3, used for the vanilla-compiler comparison
    /// (Table V).
    pub fn vanilla_16x8() -> Self {
        ChipSpec {
            rows: 8,
            cols: 16,
            ags: 12,
            pcu: PcuSpec::default(),
            pmu: PmuSpec::default(),
            ag: AgSpec::default(),
            dram: DramKind::Ddr3,
            hop_latency: 2,
            clock_ghz: 1.0,
            area_mm2: 113.0,
        }
    }

    /// A small 8×8 configuration (32 PCUs + 32 PMUs + 8 AGs) for tests of
    /// unrolled designs.
    pub fn small_8x8() -> Self {
        ChipSpec {
            rows: 8,
            cols: 8,
            ags: 8,
            pcu: PcuSpec::default(),
            pmu: PmuSpec::default(),
            ag: AgSpec::default(),
            dram: DramKind::Ddr3,
            hop_latency: 2,
            clock_ghz: 1.0,
            area_mm2: 30.0,
        }
    }

    /// A tiny 4×4 configuration for tests.
    pub fn tiny_4x4() -> Self {
        ChipSpec {
            rows: 4,
            cols: 4,
            ags: 4,
            pcu: PcuSpec::default(),
            pmu: PmuSpec::default(),
            ag: AgSpec::default(),
            dram: DramKind::Ddr3,
            hop_latency: 2,
            clock_ghz: 1.0,
            area_mm2: 10.0,
        }
    }

    /// The canonical short name of this configuration (`"20x20"`,
    /// `"16x8"`, `"8x8"`, `"4x4"`), used in CLI flags and replayable
    /// artifacts. Falls back to `"<cols>x<rows>"` for custom grids.
    pub fn name(&self) -> String {
        format!("{}x{}", self.cols, self.rows)
    }

    /// Look a configuration up by its short name (the inverse of
    /// [`ChipSpec::name`]). Shared by the CLI `--chip` parsers and the
    /// DSE artifact reader so every tool accepts the same spellings.
    pub fn by_name(name: &str) -> Option<ChipSpec> {
        match name {
            "20x20" => Some(ChipSpec::sara_20x20()),
            "16x8" => Some(ChipSpec::vanilla_16x8()),
            "8x8" => Some(ChipSpec::small_8x8()),
            "4x4" => Some(ChipSpec::tiny_4x4()),
            _ => None,
        }
    }

    /// Names accepted by [`ChipSpec::by_name`], for usage strings.
    pub const NAMES: &'static [&'static str] = &["20x20", "16x8", "8x8", "4x4"];

    /// Whether a design needing the given unit counts fits on this chip.
    /// This is the capability-model feasibility query the DSE search uses
    /// to prune candidates before place-and-route.
    pub fn can_fit(&self, pcus: u32, pmus: u32, ags: u32) -> bool {
        pcus <= self.pcus() && pmus <= self.pmus() && ags <= self.ags
    }

    /// Checkerboard slot assignment: PCU on even parity, PMU on odd.
    pub fn slot(&self, row: u32, col: u32) -> GridSlot {
        if row >= self.rows || col >= self.cols {
            GridSlot::Empty
        } else if (row + col).is_multiple_of(2) {
            GridSlot::Pu(PuType::Pcu)
        } else {
            GridSlot::Pu(PuType::Pmu)
        }
    }

    /// Number of PCUs on the grid.
    pub fn pcus(&self) -> u32 {
        let total = self.rows * self.cols;
        total.div_ceil(2)
    }

    /// Number of PMUs on the grid.
    pub fn pmus(&self) -> u32 {
        self.rows * self.cols - self.pcus()
    }

    /// Count of a given PU type.
    pub fn count(&self, t: PuType) -> u32 {
        match t {
            PuType::Pcu => self.pcus(),
            PuType::Pmu => self.pmus(),
            PuType::Ag => self.ags,
        }
    }

    /// Total PUs (PCUs + PMUs + AGs).
    pub fn total_pus(&self) -> u32 {
        self.rows * self.cols + self.ags
    }

    /// Peak compute throughput in FLOP/cycle (all PCU lanes × stages busy).
    pub fn peak_flops_per_cycle(&self) -> u64 {
        self.pcus() as u64 * self.pcu.lanes as u64 * self.pcu.stages as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sara_config_has_420_pus() {
        let c = ChipSpec::sara_20x20();
        assert_eq!(c.total_pus(), 420);
        assert_eq!(c.pcus(), 200);
        assert_eq!(c.pmus(), 200);
        assert_eq!(c.count(PuType::Ag), 20);
        assert_eq!(c.dram, DramKind::Hbm2);
    }

    #[test]
    fn vanilla_config_matches_plasticine_paper() {
        let c = ChipSpec::vanilla_16x8();
        assert_eq!(c.pcus(), 64);
        assert_eq!(c.pmus(), 64);
        assert_eq!(c.dram, DramKind::Ddr3);
    }

    #[test]
    fn checkerboard_alternates() {
        let c = ChipSpec::tiny_4x4();
        assert_eq!(c.slot(0, 0), GridSlot::Pu(PuType::Pcu));
        assert_eq!(c.slot(0, 1), GridSlot::Pu(PuType::Pmu));
        assert_eq!(c.slot(1, 0), GridSlot::Pu(PuType::Pmu));
        assert_eq!(c.slot(9, 9), GridSlot::Empty);
    }

    #[test]
    fn name_round_trips_through_by_name() {
        for &n in ChipSpec::NAMES {
            let c = ChipSpec::by_name(n).unwrap();
            assert_eq!(c.name(), n);
        }
        assert!(ChipSpec::by_name("9x9").is_none());
    }

    #[test]
    fn can_fit_checks_every_resource() {
        let c = ChipSpec::tiny_4x4(); // 8 PCUs, 8 PMUs, 4 AGs
        assert!(c.can_fit(8, 8, 4));
        assert!(!c.can_fit(9, 0, 0));
        assert!(!c.can_fit(0, 9, 0));
        assert!(!c.can_fit(0, 0, 5));
    }

    #[test]
    fn bandwidth_constants() {
        assert_eq!(DramKind::Hbm2.bytes_per_cycle(), 1000);
        assert_eq!(DramKind::Ddr3.bytes_per_cycle(), 49);
        assert!(DramKind::Ddr3.idle_latency() > DramKind::Hbm2.idle_latency());
    }

    #[test]
    fn peak_flops() {
        let c = ChipSpec::sara_20x20();
        // 200 PCUs x 16 lanes x 6 stages
        assert_eq!(c.peak_flops_per_cycle(), 19_200);
    }
}
