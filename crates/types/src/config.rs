//! Whole-system configuration mirroring Table 3 of the paper.

use crate::address::AddressMapping;
use crate::error::ConfigError;
use crate::geometry::DramGeometry;
use crate::timing::DramTimings;
use serde::{Deserialize, Serialize};

/// Processor model parameters (USIMM default model; Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProcessorConfig {
    /// Reorder-buffer capacity in instructions.
    pub rob_size: usize,
    /// Instructions retired per CPU cycle.
    pub retire_width: usize,
    /// Instructions fetched per CPU cycle.
    pub fetch_width: usize,
    /// Front-end pipeline depth in CPU cycles (fixed latency added to
    /// every instruction's earliest completion).
    pub pipeline_depth: u64,
    /// Number of cores sharing the memory controller.
    pub cores: usize,
}

impl Default for ProcessorConfig {
    fn default() -> Self {
        ProcessorConfig {
            rob_size: 128,
            retire_width: 2,
            fetch_width: 4,
            pipeline_depth: 10,
            cores: 1,
        }
    }
}

/// Memory-controller queue and mapping parameters (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Read queue capacity.
    pub read_queue_capacity: usize,
    /// Write queue capacity.
    pub write_queue_capacity: usize,
    /// Write-drain starts when the write queue reaches this occupancy.
    pub write_high_watermark: usize,
    /// Write-drain stops when the write queue falls to this occupancy.
    pub write_low_watermark: usize,
    /// Physical-to-DRAM address mapping.
    pub mapping: AddressMapping,
    /// Refresh batches that may be postponed past their due time to
    /// serve demand requests (DDR3 permits up to 8; 0 = prompt refresh,
    /// the paper's assumption). The controller derates PBR accordingly.
    pub refresh_postpone_batches: u64,
    /// Idle cycles after which a rank enters power-down (CKE low);
    /// 0 disables power management (the paper's assumption).
    pub powerdown_after_idle: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            read_queue_capacity: 64,
            write_queue_capacity: 64,
            write_high_watermark: 40,
            write_low_watermark: 20,
            mapping: AddressMapping::OpenPageBaseline,
            refresh_postpone_batches: 0,
            powerdown_after_idle: 0,
        }
    }
}

/// DRAM device parameters: geometry plus the worst-case timing set.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramConfig {
    /// Channel/rank/bank/row/column organization.
    pub geometry: DramGeometry,
    /// Worst-case (data-sheet) timing parameters.
    pub timings: DramTimings,
}

/// The largest combined read + write queue capacity: the controller's
/// request slab addresses slots with `u16` links and reserves
/// `u16::MAX` as the null link.
const MAX_QUEUE_SLOTS: u64 = u16::MAX as u64 - 1;

/// Complete system configuration (Table 3 defaults).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Processor model parameters.
    pub processor: ProcessorConfig,
    /// Memory-controller parameters.
    pub controller: ControllerConfig,
    /// DRAM device parameters.
    pub dram: DramConfig,
}

impl SystemConfig {
    /// A Table 3 configuration with the given core count.
    pub fn with_cores(cores: usize) -> Self {
        SystemConfig {
            processor: ProcessorConfig {
                cores,
                ..ProcessorConfig::default()
            },
            ..SystemConfig::default()
        }
    }

    /// Validates geometry, queue watermarks and processor widths, and
    /// the bounds of the controller's packed indices: at most 64 banks
    /// per rank (the per-rank bank bitmaps are one `u64`), at most 64
    /// ranks per channel (the re-key sweep's rank mask is one `u64`),
    /// and a combined read + write queue capacity of at most 65 534
    /// (the queue slab links are `u16`).
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.dram.geometry.validate()?;
        let g = &self.dram.geometry;
        let c = &self.controller;
        for (field, value, max) in [
            ("banks_per_rank", g.banks_per_rank, 64),
            ("ranks_per_channel", g.ranks_per_channel, 64),
            (
                "read_queue_capacity + write_queue_capacity",
                (c.read_queue_capacity as u64).saturating_add(c.write_queue_capacity as u64),
                MAX_QUEUE_SLOTS,
            ),
        ] {
            if value > max {
                return Err(ConfigError::FieldTooLarge { field, value, max });
            }
        }
        if c.write_low_watermark >= c.write_high_watermark
            || c.write_high_watermark > c.write_queue_capacity
        {
            return Err(ConfigError::InvalidWatermarks {
                low: c.write_low_watermark,
                high: c.write_high_watermark,
                capacity: c.write_queue_capacity,
            });
        }
        if c.refresh_postpone_batches > 8 {
            return Err(ConfigError::FieldTooLarge {
                field: "refresh_postpone_batches",
                value: c.refresh_postpone_batches,
                max: 8,
            });
        }
        let p = &self.processor;
        for (field, v) in [
            ("rob_size", p.rob_size),
            ("retire_width", p.retire_width),
            ("fetch_width", p.fetch_width),
            ("cores", p.cores),
            ("read_queue_capacity", c.read_queue_capacity),
            ("write_queue_capacity", c.write_queue_capacity),
        ] {
            if v == 0 {
                return Err(ConfigError::ZeroField { field });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table3() {
        let cfg = SystemConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.processor.rob_size, 128);
        assert_eq!(cfg.processor.retire_width, 2);
        assert_eq!(cfg.processor.fetch_width, 4);
        assert_eq!(cfg.processor.pipeline_depth, 10);
        assert_eq!(cfg.controller.read_queue_capacity, 64);
        assert_eq!(cfg.controller.write_queue_capacity, 64);
        assert_eq!(cfg.controller.write_high_watermark, 40);
        assert_eq!(cfg.controller.write_low_watermark, 20);
        assert_eq!(cfg.controller.mapping, AddressMapping::OpenPageBaseline);
    }

    #[test]
    fn with_cores_sets_only_core_count() {
        let cfg = SystemConfig::with_cores(4);
        assert_eq!(cfg.processor.cores, 4);
        assert_eq!(cfg.processor.rob_size, 128);
    }

    #[test]
    fn validate_rejects_bad_watermarks() {
        let mut cfg = SystemConfig::default();
        cfg.controller.write_low_watermark = 50;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::InvalidWatermarks { .. })
        ));

        let mut cfg = SystemConfig::default();
        cfg.controller.write_high_watermark = 100;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_fields() {
        let mut cfg = SystemConfig::default();
        cfg.processor.cores = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroField { field: "cores" })
        );
    }

    #[test]
    fn validate_rejects_more_than_64_banks_per_rank() {
        let mut cfg = SystemConfig::default();
        cfg.dram.geometry.banks_per_rank = 64;
        cfg.validate().unwrap();
        cfg.dram.geometry.banks_per_rank = 128;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::FieldTooLarge {
                field: "banks_per_rank",
                value: 128,
                max: 64
            })
        );
    }

    #[test]
    fn validate_rejects_more_than_64_ranks_per_channel() {
        let mut cfg = SystemConfig::default();
        cfg.dram.geometry.ranks_per_channel = 64;
        cfg.validate().unwrap();
        cfg.dram.geometry.ranks_per_channel = 128;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::FieldTooLarge {
                field: "ranks_per_channel",
                value: 128,
                max: 64
            })
        );
    }

    #[test]
    fn validate_rejects_queues_beyond_the_slot_links() {
        let mut cfg = SystemConfig::default();
        cfg.controller.read_queue_capacity = 32_767;
        cfg.controller.write_queue_capacity = 32_767;
        cfg.validate().unwrap();
        cfg.controller.write_queue_capacity = 32_768;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::FieldTooLarge {
                field: "read_queue_capacity + write_queue_capacity",
                value: 65_535,
                max: MAX_QUEUE_SLOTS
            })
        );
    }

    #[test]
    fn config_implements_serde() {
        fn assert_serde<T: Serialize + for<'de> Deserialize<'de>>() {}
        assert_serde::<SystemConfig>();
        assert_serde::<ProcessorConfig>();
        assert_serde::<ControllerConfig>();
        assert_serde::<DramConfig>();
    }
}
