//! Named ablation configurations for the design choices called out in the
//! paper's method section (used by the `ablations` reproduction binary).

use crate::agent::{AblationFlags, AgentConfig};

/// One ablation of the full method.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// Human-readable name used in the ablation report.
    pub name: &'static str,
    /// What the ablation removes or changes.
    pub description: &'static str,
    /// Feature switches of the agent.
    pub flags: AblationFlags,
    /// Whether the hybrid curriculum is used (otherwise the agent trains on
    /// the target circuit only, from scratch).
    pub use_curriculum: bool,
}

/// The full method (no ablation), used as the reference row.
pub fn full_method() -> Ablation {
    Ablation {
        name: "full",
        description: "R-GCN embeddings + wire mask + dead-space mask + HCL curriculum",
        flags: AblationFlags::default(),
        use_curriculum: true,
    }
}

/// All ablations evaluated by the ablation study binary.
pub fn all() -> Vec<Ablation> {
    vec![
        full_method(),
        Ablation {
            name: "no-dead-space-mask",
            description:
                "remove the dead-space mask f_ds (reverting to the MaskPlace-style state of [4])",
            flags: AblationFlags {
                use_dead_space_mask: false,
                ..AblationFlags::default()
            },
            use_curriculum: true,
        },
        Ablation {
            name: "no-wire-mask",
            description: "remove the wire mask f_w",
            flags: AblationFlags {
                use_wire_mask: false,
                ..AblationFlags::default()
            },
            use_curriculum: true,
        },
        Ablation {
            name: "no-rgcn",
            description: "zero out the R-GCN circuit/block embeddings (pixel-only state)",
            flags: AblationFlags {
                use_encoder: false,
                ..AblationFlags::default()
            },
            use_curriculum: true,
        },
        Ablation {
            name: "no-curriculum",
            description: "train from scratch on the target circuit instead of the HCL schedule",
            flags: AblationFlags::default(),
            use_curriculum: false,
        },
    ]
}

/// Applies the ablation's feature switches to an agent configuration.
pub fn apply(ablation: &Ablation, mut config: AgentConfig) -> AgentConfig {
    config.ablation = ablation.flags;
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_list_contains_the_paper_design_choices() {
        let names: Vec<&str> = all().iter().map(|a| a.name).collect();
        assert!(names.contains(&"full"));
        assert!(names.contains(&"no-dead-space-mask"));
        assert!(names.contains(&"no-rgcn"));
        assert!(names.contains(&"no-curriculum"));
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn apply_sets_flags() {
        let ablation = all().into_iter().find(|a| a.name == "no-rgcn").unwrap();
        let config = apply(&ablation, AgentConfig::small());
        assert!(!config.ablation.use_encoder);
        assert!(config.ablation.use_dead_space_mask);
    }

    #[test]
    fn full_method_enables_everything() {
        let f = full_method();
        assert!(f.flags.use_dead_space_mask && f.flags.use_wire_mask && f.flags.use_encoder);
        assert!(f.use_curriculum);
    }
}
