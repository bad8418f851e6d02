//! The knob space and its replayable JSON artifact.
//!
//! A [`KnobConfig`] is one point of the design space: per-loop `par`
//! factors, the optimization-flag set, and the chip configuration, bound
//! to a named registry workload. It serializes to a small JSON document
//! (`format: "sara-dse-knobs-v1"`) that `sarac --knobs` replays
//! deterministically: the artifact pins the PnR seed alongside the
//! knobs, so a replay reproduces the tuner's cycle count exactly.

use plasticine_arch::{ChipSpec, SystemSpec};
use sara_core::compile::CompilerOptions;
use sara_core::opt::OptConfig;
use sara_ir::Program;
use sara_util::Json;
use sara_workloads::Workload;

/// Artifact format tag, bumped on breaking schema changes.
pub const KNOBS_FORMAT: &str = "sara-dse-knobs-v1";

/// One tunable loop: its name in the program plus the chosen `par`.
/// `trip` and `innermost` are derived from the default program and carried
/// along so the search can bound its move set without re-deriving them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopKnob {
    /// Loop name (unique among a workload's tunable loops).
    pub name: String,
    /// Chosen parallelization factor.
    pub par: u32,
    /// Static trip count at default knobs (an upper bound for `par`).
    pub trip: u64,
    /// Whether the loop is innermost (par vectorizes across SIMD lanes
    /// rather than spatially unrolling).
    pub innermost: bool,
}

/// A complete design point: workload + chip + per-loop pars + opt flags,
/// plus the PnR seed that makes replays bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct KnobConfig {
    pub workload: String,
    /// Chip — or multi-chip system — short name (see
    /// [`SystemSpec::by_name`]: plain chip names mean one chip,
    /// `<count>x<chip>` a system).
    pub chip: String,
    /// Seed for place-and-route; pinned so a replay reproduces the
    /// tuner's exact cycle count.
    pub pnr_seed: u64,
    pub pars: Vec<LoopKnob>,
    pub opt: OptConfig,
    /// Inter-chip link latency override in cycles (multi-chip systems
    /// only; `None` keeps the [`plasticine_arch::LinkSpec`] default).
    pub link_latency: Option<u32>,
    /// Inter-chip link bandwidth override in packets/cycle (multi-chip
    /// systems only; `None` keeps the default).
    pub link_bandwidth: Option<u32>,
}

impl KnobConfig {
    /// The workload's default knobs: every tunable loop at its registry
    /// default (`par = 1`), all optimization flags on, the given chip.
    ///
    /// # Errors
    ///
    /// If a `tunable_loops` entry names a loop that does not exist or has
    /// a dynamic bound (registry metadata bug).
    pub fn default_for(w: &Workload, chip: &str, pnr_seed: u64) -> Result<KnobConfig, String> {
        let mut pars = Vec::new();
        for &name in w.tunable_loops {
            let id = w
                .program
                .loops()
                .into_iter()
                .find(|&l| w.program.ctrl(l).name == name)
                .ok_or_else(|| format!("{}: no loop named {name}", w.name))?;
            let spec = w.program.ctrl(id).loop_spec().expect("loops() returns counted loops");
            let trip = spec
                .trip_count()
                .ok_or_else(|| format!("{}: tunable loop {name} has a dynamic bound", w.name))?;
            pars.push(LoopKnob {
                name: name.to_string(),
                par: spec.par,
                trip,
                innermost: w.program.is_innermost_loop(id),
            });
        }
        Ok(KnobConfig {
            workload: w.name.to_string(),
            chip: chip.to_string(),
            pnr_seed,
            pars,
            opt: OptConfig::default(),
            link_latency: None,
            link_bandwidth: None,
        })
    }

    /// The chip this point targets. Strict: multi-chip system names are
    /// rejected — callers on the single-chip pipeline must not silently
    /// drop the system semantics (use [`KnobConfig::system_spec`]).
    ///
    /// # Errors
    ///
    /// If the chip name is unknown or names a multi-chip system.
    pub fn chip_spec(&self) -> Result<ChipSpec, String> {
        ChipSpec::by_name(&self.chip).ok_or_else(|| {
            format!("unknown chip {} (expected {})", self.chip, ChipSpec::NAMES.join(", "))
        })
    }

    /// The full system this point targets: plain chip names resolve to
    /// their 1-chip system, `<count>x<chip>` to a multi-chip grid, and
    /// the link overrides (when set) are applied on top.
    ///
    /// # Errors
    ///
    /// If the name is neither a chip nor a system, naming both sets of
    /// accepted spellings.
    pub fn system_spec(&self) -> Result<SystemSpec, String> {
        let mut s = SystemSpec::by_name(&self.chip).ok_or_else(|| {
            format!(
                "unknown chip or system {} (expected a chip ({}) or <count>x<chip>, e.g. {})",
                self.chip,
                ChipSpec::NAMES.join(", "),
                SystemSpec::NAMES.join(", ")
            )
        })?;
        if let Some(lat) = self.link_latency {
            s.link.latency = lat;
        }
        if let Some(bw) = self.link_bandwidth {
            s.link.bandwidth = bw;
        }
        Ok(s)
    }

    /// Compiler options for this point (knob flags over defaults).
    pub fn compiler_options(&self) -> CompilerOptions {
        CompilerOptions { opt: self.opt, ..CompilerOptions::default() }
    }

    /// Apply the per-loop pars to an already-built program via
    /// [`Program::set_par`].
    ///
    /// # Errors
    ///
    /// If a loop name is missing or a par is invalid.
    pub fn apply(&self, p: &mut Program) -> Result<(), String> {
        for k in &self.pars {
            let id = p
                .loops()
                .into_iter()
                .find(|&l| p.ctrl(l).name == k.name)
                .ok_or_else(|| format!("{}: no loop named {}", self.workload, k.name))?;
            p.set_par(id, k.par).map_err(|e| format!("{}: {e}", self.workload))?;
        }
        Ok(())
    }

    /// Build the workload's program with these knobs applied.
    ///
    /// # Errors
    ///
    /// If the workload is unknown or a knob fails to apply.
    pub fn build_program(&self) -> Result<Program, String> {
        let w = sara_workloads::by_name(&self.workload)
            .ok_or_else(|| format!("unknown workload {}", self.workload))?;
        let mut p = w.program;
        self.apply(&mut p)?;
        Ok(p)
    }

    /// A canonical one-line key identifying this point (pars + flags +
    /// chip), used for deduplication during search.
    pub fn key(&self) -> String {
        let pars: Vec<String> = self.pars.iter().map(|k| format!("{}={}", k.name, k.par)).collect();
        let link = match (self.link_latency, self.link_bandwidth) {
            (None, None) => String::new(),
            (lat, bw) => format!(
                "|link_lat={} link_bw={}",
                lat.map_or_else(|| "-".into(), |v| v.to_string()),
                bw.map_or_else(|| "-".into(), |v| v.to_string()),
            ),
        };
        format!(
            "{}|{}|{}|rtelm={} retime={} retime_m={}{link}",
            self.workload,
            self.chip,
            pars.join(","),
            self.opt.rtelm,
            self.opt.retime,
            self.opt.retime_m
        )
    }

    /// Serialize to the replayable artifact schema.
    pub fn to_json(&self) -> Json {
        let pars: Vec<Json> = self
            .pars
            .iter()
            .map(|k| {
                Json::object()
                    .set("loop", k.name.as_str())
                    .set("par", k.par)
                    .set("trip", k.trip)
                    .set("innermost", k.innermost)
            })
            .collect();
        let mut doc = Json::object()
            .set("format", KNOBS_FORMAT)
            .set("workload", self.workload.as_str())
            .set("chip", self.chip.as_str())
            .set("pnr_seed", self.pnr_seed)
            .set("pars", Json::Array(pars));
        // Link overrides are multi-chip-only knobs; absent fields keep
        // the artifact schema backward-compatible with plain-chip v1
        // documents.
        if let Some(lat) = self.link_latency {
            doc = doc.set("link_latency", lat);
        }
        if let Some(bw) = self.link_bandwidth {
            doc = doc.set("link_bandwidth", bw);
        }
        doc.set(
            "opt",
            Json::object()
                .set("rtelm", self.opt.rtelm)
                .set("retime", self.opt.retime)
                .set("retime_m", self.opt.retime_m),
        )
    }

    /// Deserialize from the artifact schema. Documents written when the
    /// schema also carried `opt.msr` and `opt.xbar_elm` still parse: those
    /// keys are ignored.
    ///
    /// # Errors
    ///
    /// A one-line description of the first missing or ill-typed field.
    pub fn from_json(v: &Json) -> Result<KnobConfig, String> {
        let field =
            |key: &str| v.get(key).ok_or_else(|| format!("knobs artifact: missing {key:?}"));
        let format = field("format")?.as_str().unwrap_or_default();
        if format != KNOBS_FORMAT {
            return Err(format!(
                "knobs artifact: unsupported format {format:?} (expected {KNOBS_FORMAT:?})"
            ));
        }
        let workload = field("workload")?
            .as_str()
            .ok_or("knobs artifact: workload must be a string")?
            .to_string();
        let chip =
            field("chip")?.as_str().ok_or("knobs artifact: chip must be a string")?.to_string();
        let pnr_seed = field("pnr_seed")?
            .as_u64()
            .ok_or("knobs artifact: pnr_seed must be a non-negative integer")?;
        let mut pars = Vec::new();
        for (i, e) in field("pars")?
            .as_array()
            .ok_or("knobs artifact: pars must be an array")?
            .iter()
            .enumerate()
        {
            let name = e
                .get("loop")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("knobs artifact: pars[{i}].loop must be a string"))?
                .to_string();
            let par = e
                .get("par")
                .and_then(Json::as_u64)
                .and_then(|p| u32::try_from(p).ok())
                .ok_or_else(|| format!("knobs artifact: pars[{i}].par must be a u32"))?;
            let trip = e.get("trip").and_then(Json::as_u64).unwrap_or(u64::from(par.max(1)));
            let innermost = e.get("innermost").and_then(Json::as_bool).unwrap_or(false);
            pars.push(LoopKnob { name, par, trip, innermost });
        }
        let opt_json = field("opt")?;
        let flag = |key: &str| {
            opt_json
                .get(key)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("knobs artifact: opt.{key} must be a boolean"))
        };
        let opt = OptConfig {
            rtelm: flag("rtelm")?,
            retime: flag("retime")?,
            retime_m: flag("retime_m")?,
        };
        let link_u32 = |key: &str| -> Result<Option<u32>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(j) => j
                    .as_u64()
                    .and_then(|x| u32::try_from(x).ok())
                    .map(Some)
                    .ok_or_else(|| format!("knobs artifact: {key} must be a u32")),
            }
        };
        Ok(KnobConfig {
            workload,
            chip,
            pnr_seed,
            pars,
            opt,
            link_latency: link_u32("link_latency")?,
            link_bandwidth: link_u32("link_bandwidth")?,
        })
    }

    /// Parse an artifact from its textual form.
    ///
    /// # Errors
    ///
    /// On JSON syntax errors or schema mismatches.
    pub fn parse(text: &str) -> Result<KnobConfig, String> {
        Json::parse(text).and_then(|v| KnobConfig::from_json(&v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm_default() -> KnobConfig {
        let w = sara_workloads::by_name("gemm").unwrap();
        KnobConfig::default_for(&w, "8x8", 42).unwrap()
    }

    #[test]
    fn default_reads_registry_metadata() {
        let cfg = gemm_default();
        let names: Vec<&str> = cfg.pars.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, vec!["i", "k"]);
        assert!(cfg.pars.iter().all(|k| k.par == 1));
        let k = cfg.pars.iter().find(|k| k.name == "k").unwrap();
        assert_eq!(k.trip, 16);
        assert!(k.innermost);
        let i = cfg.pars.iter().find(|k| k.name == "i").unwrap();
        assert!(!i.innermost);
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let mut cfg = gemm_default();
        cfg.pars[1].par = 8;
        cfg.opt.retime_m = false;
        let text = cfg.to_json().pretty();
        let back = KnobConfig::parse(&text).unwrap();
        assert_eq!(back, cfg);
        // Multi-chip points round-trip their system name and link knobs.
        cfg.chip = "4x8x8".into();
        cfg.link_latency = Some(20);
        cfg.link_bandwidth = Some(8);
        let back = KnobConfig::parse(&cfg.to_json().pretty()).unwrap();
        assert_eq!(back, cfg);
        assert_ne!(back.key(), gemm_default().key());
    }

    #[test]
    fn system_spec_resolves_chips_and_systems_with_link_overrides() {
        let mut cfg = gemm_default();
        let one = cfg.system_spec().unwrap();
        assert_eq!(one.count, 1);
        assert_eq!(one.chip.name(), "8x8");
        cfg.chip = "4x8x8".into();
        cfg.link_latency = Some(10);
        cfg.link_bandwidth = Some(16);
        let sys = cfg.system_spec().unwrap();
        assert_eq!(sys.count, 4);
        assert_eq!(sys.link.latency, 10);
        assert_eq!(sys.link.bandwidth, 16);
        // chip_spec stays strict: a system name must not silently lose
        // its multi-chip meaning on the single-chip pipeline.
        assert!(cfg.chip_spec().is_err());
        cfg.chip = "bogus".into();
        let e = cfg.system_spec().unwrap_err();
        assert!(e.contains("8x8") && e.contains("2x8x8"), "error lists the spellings: {e}");
    }

    #[test]
    fn apply_retunes_the_program() {
        let mut cfg = gemm_default();
        cfg.pars[1].par = 4;
        let p = cfg.build_program().unwrap();
        let k = p.loops().into_iter().find(|&l| p.ctrl(l).name == "k").unwrap();
        assert_eq!(p.ctrl(k).loop_spec().unwrap().par, 4);
        p.validate().unwrap();
    }

    #[test]
    fn old_artifacts_with_deleted_flags_still_parse() {
        let old = r#"{
            "format": "sara-dse-knobs-v1", "workload": "gemm", "chip": "8x8", "pnr_seed": 42,
            "pars": [{"loop": "i", "par": 2, "trip": 16, "innermost": false},
                     {"loop": "k", "par": 8, "trip": 16, "innermost": true}],
            "opt": {"msr": false, "rtelm": true, "retime": false, "retime_m": true, "xbar_elm": true}
        }"#;
        let current = old.replace(r#""msr": false, "#, "").replace(r#", "xbar_elm": true"#, "");
        assert!(!current.contains("msr") && !current.contains("xbar_elm"));
        let parsed = KnobConfig::parse(old).unwrap();
        assert_eq!(parsed, KnobConfig::parse(&current).unwrap());
        let key = parsed.key();
        assert!(!key.contains("msr") && !key.contains("xbar_elm"), "{key}");
    }

    #[test]
    fn bad_artifacts_are_rejected() {
        assert!(KnobConfig::parse("{}").is_err());
        assert!(KnobConfig::parse("not json").is_err());
        let mut cfg = gemm_default();
        cfg.chip = "9x9".into();
        assert!(cfg.chip_spec().is_err());
        cfg = gemm_default();
        cfg.pars[0].par = 0;
        assert!(cfg.build_program().is_err());
        let wrong_format = Json::object().set("format", "v999").pretty();
        assert!(KnobConfig::parse(&wrong_format).unwrap_err().contains("unsupported format"));
    }
}
