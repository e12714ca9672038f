//! The five evaluated codec designs.

use pcc_inter::InterConfig;
use pcc_types::GofPattern;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One of the five PCC designs the paper evaluates (Sec. VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Design {
    /// TMC13-like G-PCC intra baseline.
    Tmc13,
    /// CWIPC-like macro-block inter baseline.
    Cwipc,
    /// Proposed intra-frame compression on every frame.
    IntraOnly,
    /// Proposed intra + inter, quality-oriented (paper's V1 threshold).
    IntraInterV1,
    /// Proposed intra + inter, compression-oriented (paper's V2 threshold).
    IntraInterV2,
}

impl Design {
    /// All five designs, in the order the paper's figures list them.
    pub const ALL: [Design; 5] = [
        Design::Tmc13,
        Design::Cwipc,
        Design::IntraOnly,
        Design::IntraInterV1,
        Design::IntraInterV2,
    ];

    /// The frame cadence this design codes with: baselines-with-inter and
    /// the intra+inter designs use the paper's IPP pattern; pure intra
    /// designs code every frame independently.
    pub fn gof_pattern(&self) -> GofPattern {
        match self {
            Design::Tmc13 | Design::IntraOnly => GofPattern::all_intra(),
            Design::Cwipc | Design::IntraInterV1 | Design::IntraInterV2 => GofPattern::ipp(),
        }
    }

    /// The inter-frame configuration for the proposed inter designs
    /// (`None` for the others).
    pub fn inter_config(&self) -> Option<InterConfig> {
        match self {
            Design::IntraInterV1 => Some(InterConfig::v1()),
            Design::IntraInterV2 => Some(InterConfig::v2()),
            _ => None,
        }
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Design::Tmc13 => "TMC13",
            Design::Cwipc => "CWIPC",
            Design::IntraOnly => "Intra-Only",
            Design::IntraInterV1 => "Intra-Inter-V1",
            Design::IntraInterV2 => "Intra-Inter-V2",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_types::FrameKind;

    #[test]
    fn gof_patterns_match_paper() {
        assert_eq!(Design::Tmc13.gof_pattern().kind_of(1), FrameKind::Intra);
        assert_eq!(Design::IntraOnly.gof_pattern().kind_of(2), FrameKind::Intra);
        assert_eq!(Design::Cwipc.gof_pattern().kind_of(1), FrameKind::Predicted);
        assert_eq!(Design::IntraInterV1.gof_pattern().period(), 3);
    }

    #[test]
    fn inter_configs() {
        assert!(Design::Tmc13.inter_config().is_none());
        let v1 = Design::IntraInterV1.inter_config().unwrap();
        let v2 = Design::IntraInterV2.inter_config().unwrap();
        assert!(v2.reuse_threshold > v1.reuse_threshold);
    }

    #[test]
    fn display_names() {
        assert_eq!(Design::IntraInterV2.to_string(), "Intra-Inter-V2");
        assert_eq!(Design::ALL.len(), 5);
    }
}
