use crate::{MicroNasError, Result};
use micronas_hw::HardwareConstraints;
use micronas_mcu::McuSpec;
use micronas_nn::ProxyNetworkConfig;
use micronas_proxies::{LinearRegionConfig, NtkConfig};
use micronas_tensor::KernelBackendKind;
use serde::{Deserialize, Serialize};

/// Top-level configuration of a MicroNAS run: proxy settings, target device,
/// hardware constraints, execution backend and reproducibility seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MicroNasConfig {
    /// NTK proxy configuration (the paper adopts batch size 32).
    pub ntk: NtkConfig,
    /// Linear-region proxy configuration.
    pub linear_regions: LinearRegionConfig,
    /// Target microcontroller.
    pub mcu: McuSpec,
    /// Hardware budgets enforced during the search.
    pub constraints: HardwareConstraints,
    /// Global seed for every stochastic component.
    pub seed: u64,
    /// Execution backend the proxy networks run on. The default
    /// ([`KernelBackendKind::BlockedGemm`]) is bitwise-identical to the
    /// paper pipeline; any other backend changes proxy numerics and
    /// therefore gets its own store namespace (see
    /// [`MicroNasConfig::store_namespace`]).
    pub backend: KernelBackendKind,
    /// Distributed evaluation fabric this worker joins: peer addresses and
    /// transport tuning (`None` = standalone). The fabric only changes
    /// *where* warm records come from, never what is computed, so it does
    /// **not** fold into [`MicroNasConfig::store_namespace`] — instead the
    /// namespace is what the fabric handshake checks, refusing peers whose
    /// evaluation configuration diverges.
    pub fabric: Option<micronas_fabric::FabricConfig>,
}

impl MicroNasConfig {
    /// The configuration used for the paper-scale experiments: batch-32 NTK
    /// on the STM32F746ZG with the device's memory budgets.
    pub fn paper_default() -> Self {
        let mcu = McuSpec::stm32f746zg();
        Self {
            ntk: NtkConfig::paper_default(),
            linear_regions: LinearRegionConfig::paper_default(),
            constraints: HardwareConstraints::for_device(&mcu),
            mcu,
            seed: 0,
            backend: KernelBackendKind::BlockedGemm,
            fabric: None,
        }
    }

    /// A reduced configuration that keeps searches fast enough for unit
    /// tests and quick experimentation, while the NTK proxy still ranks
    /// architectures the way the paper-scale configuration does
    /// (12×12 probes, 6 channels, batch-12 NTK).
    pub fn fast() -> Self {
        let mcu = McuSpec::stm32f746zg();
        Self {
            ntk: NtkConfig::fast(),
            linear_regions: LinearRegionConfig::fast(),
            constraints: HardwareConstraints::unconstrained(),
            mcu,
            seed: 0,
            backend: KernelBackendKind::BlockedGemm,
            fabric: None,
        }
    }

    /// Alias of [`MicroNasConfig::fast`] used by the shape-checking
    /// experiment tests; kept separate so the test intent is explicit.
    pub fn small() -> Self {
        Self::fast()
    }

    /// An even smaller configuration used by the test-suite: 6×6 probe
    /// inputs, 3-channel networks, 4-sample NTK batches.
    pub fn tiny_test() -> Self {
        let network = ProxyNetworkConfig {
            input_channels: 3,
            input_resolution: 6,
            channels: 3,
            num_cells: 1,
            num_classes: 10,
            init: micronas_tensor::InitKind::KaimingNormal,
        };
        let mcu = McuSpec::stm32f746zg();
        Self {
            ntk: NtkConfig {
                batch_size: 4,
                repeats: 1,
                network,
                max_condition_index: 4,
            },
            linear_regions: LinearRegionConfig {
                num_segments: 2,
                points_per_segment: 6,
                network,
            },
            constraints: HardwareConstraints::unconstrained(),
            mcu,
            seed: 0,
            backend: KernelBackendKind::BlockedGemm,
            fabric: None,
        }
    }

    /// Replaces the seed, keeping everything else.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the hardware constraints, keeping everything else.
    pub fn with_constraints(mut self, constraints: HardwareConstraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Replaces the execution backend, keeping everything else. Choosing a
    /// backend that is not bitwise-identical to the paper default moves the
    /// configuration into its own store namespace — persisted logs written
    /// under the default numerics refuse to open rather than serve values
    /// the new backend cannot reproduce.
    pub fn with_backend(mut self, backend: KernelBackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// The evaluation-store namespace of this configuration: a stable
    /// fingerprint of everything that shapes proxy and hardware values
    /// (probe-network geometry, NTK repeats, linear-region probing, the
    /// target MCU).
    ///
    /// The fingerprint hashes an explicit, version-tagged little-endian
    /// encoding of the configuration *values* — never `Debug` renderings or
    /// `std` hashes, which are allowed to change across refactors and
    /// toolchains and would silently orphan every persisted log.
    ///
    /// The NTK *batch size* is deliberately excluded — it is part of every
    /// store key instead ([`micronas_store::ProxyKind`]), because it is the
    /// one axis the paper sweeps (Fig. 2b). The seed and the hardware
    /// budgets are excluded too: the seed is a key coordinate, and
    /// feasibility is recomputed per context from the stored indicators.
    ///
    /// # Versioning rule
    ///
    /// The version tag below must be bumped whenever proxy *outputs* change
    /// for identical inputs — not just when this encoding changes. A
    /// numerical rework (e.g. the batched per-sample gradients and GEMM
    /// Gram build of namespace v2, which reorder floating-point reductions)
    /// silently invalidates every cached evaluation; bumping the tag makes
    /// old logs refuse to open rather than serve stale values.
    pub fn store_namespace(&self) -> u64 {
        let mut h = micronas_store::Fnv1a::new();
        h.update(b"micronas/namespace/v2");
        encode_network(&mut h, &self.ntk.network);
        h.update(&(self.ntk.repeats as u64).to_le_bytes());
        h.update(&(self.linear_regions.num_segments as u64).to_le_bytes());
        h.update(&(self.linear_regions.points_per_segment as u64).to_le_bytes());
        encode_network(&mut h, &self.linear_regions.network);
        h.update(&(self.mcu.name.len() as u64).to_le_bytes());
        h.update(self.mcu.name.as_bytes());
        for v in [
            self.mcu.clock_mhz,
            self.mcu.macs_per_cycle,
            self.mcu.per_element_overhead_cycles,
            self.mcu.flash_wait_states,
            self.mcu.bus_width_bytes,
            self.mcu.layer_invocation_cycles,
            self.mcu.inference_overhead_cycles,
        ] {
            h.update(&v.to_bits().to_le_bytes());
        }
        h.update(&(self.mcu.sram_kib as u64).to_le_bytes());
        h.update(&(self.mcu.flash_kib as u64).to_le_bytes());
        // Execution backend: the paper-default backend contributes NOTHING,
        // so every namespace (and log) minted before the backend layer
        // existed keeps resolving. Any backend with divergent numerics is
        // folded in — its evaluations land in a disjoint namespace, and
        // opening a default-numerics log under it is *refused* instead of
        // silently serving values the backend cannot reproduce.
        if !self.backend.bitwise_paper_identical() {
            h.update(b"backend/");
            let id = self.backend.id();
            h.update(&(id.len() as u64).to_le_bytes());
            h.update(id.as_bytes());
            h.update(
                &self
                    .backend
                    .instantiate()
                    .config_fingerprint()
                    .to_le_bytes(),
            );
        }
        h.finish()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MicroNasError::InvalidConfig`] for degenerate proxy settings.
    pub fn validate(&self) -> Result<()> {
        if self.ntk.batch_size < 2 {
            return Err(MicroNasError::InvalidConfig(
                "NTK batch size must be at least 2".into(),
            ));
        }
        if self.ntk.batch_size > MAX_NTK_BATCH {
            return Err(MicroNasError::InvalidConfig(format!(
                "NTK batch size {} exceeds the supported maximum {MAX_NTK_BATCH} \
                 (store keys encode the batch in 16 bits)",
                self.ntk.batch_size
            )));
        }
        if self.ntk.max_condition_index > micronas_store::MAX_SPECTRUM_INDICES {
            return Err(MicroNasError::InvalidConfig(format!(
                "NTK max condition index {} exceeds the storable spectrum length {}",
                self.ntk.max_condition_index,
                micronas_store::MAX_SPECTRUM_INDICES
            )));
        }
        if self.linear_regions.num_segments == 0 {
            return Err(MicroNasError::InvalidConfig(
                "at least one linear-region probe segment is required".into(),
            ));
        }
        Ok(())
    }
}

impl Default for MicroNasConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Largest NTK batch size accepted by [`MicroNasConfig::validate`]: store
/// keys encode the batch in 16 bits, and the paper sweeps 4–128.
const MAX_NTK_BATCH: usize = u16::MAX as usize;

/// Stable value encoding of a proxy-network geometry for the namespace
/// fingerprint.
fn encode_network(h: &mut micronas_store::Fnv1a, net: &micronas_nn::ProxyNetworkConfig) {
    for v in [
        net.input_channels,
        net.input_resolution,
        net.channels,
        net.num_cells,
        net.num_classes,
    ] {
        h.update(&(v as u64).to_le_bytes());
    }
    let init_tag: u8 = match net.init {
        micronas_tensor::InitKind::KaimingNormal => 0,
        micronas_tensor::InitKind::KaimingUniform => 1,
        micronas_tensor::InitKind::XavierUniform => 2,
    };
    h.update(&[init_tag]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        assert!(MicroNasConfig::paper_default().validate().is_ok());
        assert!(MicroNasConfig::fast().validate().is_ok());
        assert!(MicroNasConfig::small().validate().is_ok());
        assert!(MicroNasConfig::tiny_test().validate().is_ok());
    }

    #[test]
    fn paper_default_matches_paper_settings() {
        let cfg = MicroNasConfig::paper_default();
        assert_eq!(
            cfg.ntk.batch_size, 32,
            "the paper adopts a batch size of 32"
        );
        assert!(cfg.mcu.name.contains("STM32F746"));
        assert_eq!(cfg.constraints.max_sram_kib, Some(320.0));
    }

    #[test]
    fn builders_replace_fields() {
        let cfg = MicroNasConfig::fast().with_seed(99);
        assert_eq!(cfg.seed, 99);
        let c = HardwareConstraints::unconstrained().with_latency_ms(100.0);
        let cfg = cfg.with_constraints(c);
        assert_eq!(cfg.constraints.max_latency_ms, Some(100.0));
    }

    #[test]
    fn store_namespace_tracks_proxy_configuration() {
        let a = MicroNasConfig::fast();
        assert_eq!(
            a.store_namespace(),
            MicroNasConfig::fast().store_namespace()
        );
        assert_ne!(
            a.store_namespace(),
            MicroNasConfig::tiny_test().store_namespace(),
            "different probe networks must not share a namespace"
        );
        // Seed, constraints and NTK batch size do NOT change the namespace.
        assert_eq!(
            a.store_namespace(),
            MicroNasConfig::fast().with_seed(99).store_namespace()
        );
        let mut swept = MicroNasConfig::fast();
        swept.ntk.batch_size = 64;
        assert_eq!(a.store_namespace(), swept.store_namespace());
    }

    #[test]
    fn store_namespace_is_pinned() {
        // Golden value: the namespace is part of the persisted log header,
        // so it must never drift across refactors or toolchains. If this
        // assertion fails, the encoding changed — bump the version tag and
        // plan a migration, never silently re-fingerprint.
        assert_eq!(
            MicroNasConfig::paper_default().store_namespace(),
            0xa01c_0bcb_e15a_bdf4,
            "got {:#018x}",
            MicroNasConfig::paper_default().store_namespace()
        );
    }

    #[test]
    fn backend_selection_controls_the_namespace() {
        let default_ns = MicroNasConfig::fast().store_namespace();
        // The paper-default backend folds nothing: pre-backend namespaces
        // keep resolving.
        assert_eq!(
            default_ns,
            MicroNasConfig::fast()
                .with_backend(KernelBackendKind::BlockedGemm)
                .store_namespace()
        );
        // Every numerically divergent backend gets its own namespace.
        let simd_ns = MicroNasConfig::fast()
            .with_backend(KernelBackendKind::Simd)
            .store_namespace();
        let direct_ns = MicroNasConfig::fast()
            .with_backend(KernelBackendKind::Direct)
            .store_namespace();
        assert_ne!(default_ns, simd_ns);
        assert_ne!(default_ns, direct_ns);
        assert_ne!(simd_ns, direct_ns);
    }

    #[test]
    fn fabric_membership_never_moves_the_namespace() {
        // The fabric changes where warm records come from, not what is
        // computed — so joining (or re-sizing) a fleet must keep every
        // worker in the same namespace, or the fleet could never share.
        let mut cfg = MicroNasConfig::fast();
        let standalone_ns = cfg.store_namespace();
        cfg.fabric = Some(micronas_fabric::FabricConfig::with_peers(vec![
            "10.0.0.1:7000".into(),
            "10.0.0.2:7000".into(),
        ]));
        assert_eq!(cfg.store_namespace(), standalone_ns);
        cfg.fabric
            .as_mut()
            .unwrap()
            .peers
            .push("10.0.0.3:7000".into());
        cfg.fabric.as_mut().unwrap().timeout_ms = 5;
        assert_eq!(cfg.store_namespace(), standalone_ns);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = MicroNasConfig::fast();
        cfg.ntk.batch_size = 1;
        assert!(cfg.validate().is_err());
        let mut cfg = MicroNasConfig::fast();
        cfg.ntk.batch_size = (u16::MAX as usize) + 1;
        assert!(
            cfg.validate().is_err(),
            "batch sizes beyond the 16-bit key range must be rejected"
        );
        let mut cfg = MicroNasConfig::fast();
        cfg.linear_regions.num_segments = 0;
        assert!(cfg.validate().is_err());
    }
}
