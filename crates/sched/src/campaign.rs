//! Campaign expansion: turning one [`CampaignSpec`] into its cells, with
//! deterministic per-cell seed derivation.
//!
//! Expansion order is the nested matrix order `functions × languages ×
//! platforms × modes` (outermost to innermost), matching how the paper's
//! heatmaps are laid out. Per-cell seeds are derived by hashing the campaign
//! seed together with the cell's *identity* — not its index — so the same
//! cell always gets the same seed no matter which campaign it appears in.
//! That identity-based derivation is what makes the content-addressed result
//! cache effective across campaigns.

use confbench_crypto::Sha256;
use confbench_types::{CampaignCell, CampaignSpec};

/// Derives the deterministic seed for one cell from the campaign seed and
/// the cell's identity string.
fn derive_seed(campaign_seed: u64, identity: &str) -> u64 {
    let mut hasher = Sha256::new();
    hasher.update(b"confbench.cell-seed.v1\n");
    hasher.update(&campaign_seed.to_be_bytes());
    hasher.update(identity.as_bytes());
    hasher.finalize().to_u64()
}

/// The canonical identity string of a cell *before* seed assignment: every
/// field that distinguishes one cell from another, newline-framed so no two
/// distinct cells can collide by concatenation.
fn cell_identity(
    function: &confbench_types::CampaignFunction,
    language: confbench_types::Language,
    platform: confbench_types::TeePlatform,
    kind: confbench_types::VmKind,
    trials: u32,
    device: Option<confbench_types::DeviceKind>,
) -> String {
    let mut s = String::new();
    s.push_str("fn=");
    s.push_str(&function.name);
    for arg in &function.args {
        s.push_str("\narg=");
        s.push_str(arg);
    }
    s.push_str(&format!("\nlang={language}\nplatform={platform}\nkind={kind}\ntrials={trials}"));
    // Device-less cells keep their pre-device identity string, so every
    // seed derived before the device axis existed stays stable.
    if let Some(device) = device {
        s.push_str(&format!("\ndevice={device}"));
    }
    s
}

/// Expands a (validated) spec into its cells, in deterministic matrix order.
///
/// Call [`CampaignSpec::validate`] first; expansion itself never fails, but
/// an unvalidated spec may expand to zero cells or an enormous vector.
pub fn expand(spec: &CampaignSpec) -> Vec<CampaignCell> {
    let mut cells = Vec::with_capacity(spec.cell_count());
    for function in &spec.functions {
        for &language in &spec.languages {
            for &platform in &spec.platforms {
                for &kind in &spec.modes {
                    let identity =
                        cell_identity(function, language, platform, kind, spec.trials, spec.device);
                    cells.push(CampaignCell {
                        function: function.clone(),
                        language,
                        platform,
                        kind,
                        trials: spec.trials,
                        seed: derive_seed(spec.seed, &identity),
                        device: spec.device,
                    });
                }
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_types::{CampaignFunction, Language, Priority, TeePlatform, VmKind};

    fn spec() -> CampaignSpec {
        CampaignSpec {
            functions: vec![
                CampaignFunction::new("factors").arg("360360"),
                CampaignFunction::new("fib").arg("15"),
            ],
            languages: vec![Language::Go, Language::Lua],
            platforms: vec![TeePlatform::Tdx, TeePlatform::SevSnp],
            modes: vec![VmKind::Secure, VmKind::Normal],
            trials: 3,
            seed: 42,
            priority: Priority::Normal,
            deadline_ms: None,
            device: None,
        }
    }

    /// Two cell seeds as the code derived them before the SHA-NI kernel and
    /// the direct padding existed.
    #[test]
    fn seeds_are_pinned() {
        let cells = expand(&spec());
        assert_eq!((cells[0].seed, cells[15].seed), (0x826c6768cc93e9a4, 0x2cac46a8faa79061));
    }

    #[test]
    fn expansion_covers_the_full_matrix_in_order() {
        let cells = expand(&spec());
        assert_eq!(cells.len(), 16);
        // Outermost axis is the function; innermost is the mode.
        assert_eq!(cells[0].function.name, "factors");
        assert_eq!(cells[0].kind, VmKind::Secure);
        assert_eq!(cells[1].kind, VmKind::Normal);
        assert_eq!(cells[8].function.name, "fib");
        // Every (function, language, platform, kind) combination is unique.
        let mut keys: Vec<String> = cells
            .iter()
            .map(|c| format!("{}/{}/{}/{}", c.function.name, c.language, c.platform, c.kind))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 16);
    }

    #[test]
    fn expansion_is_deterministic() {
        assert_eq!(expand(&spec()), expand(&spec()));
    }

    #[test]
    fn cell_seeds_differ_across_cells_but_not_across_campaigns() {
        let a = expand(&spec());
        let mut seeds: Vec<u64> = a.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len(), "each cell gets its own seed");

        // A differently shaped spec containing one identical cell derives
        // the identical seed for it (identity-based, not index-based).
        let mut small = spec();
        small.functions = vec![CampaignFunction::new("fib").arg("15")];
        small.languages = vec![Language::Lua];
        small.platforms = vec![TeePlatform::SevSnp];
        small.modes = vec![VmKind::Normal];
        let b = expand(&small);
        assert_eq!(b.len(), 1);
        let twin = a
            .iter()
            .find(|c| {
                c.function.name == "fib"
                    && c.language == Language::Lua
                    && c.platform == TeePlatform::SevSnp
                    && c.kind == VmKind::Normal
            })
            .unwrap();
        assert_eq!(b[0].seed, twin.seed);
    }

    #[test]
    fn campaign_seed_perturbs_every_cell_seed() {
        let a = expand(&spec());
        let mut other = spec();
        other.seed = 43;
        let b = expand(&other);
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.seed, y.seed);
        }
    }

    #[test]
    fn arg_framing_cannot_collide() {
        // ("ab", "c") and ("a", "bc") must hash differently.
        let mut s1 = spec();
        s1.functions = vec![CampaignFunction::new("f").arg("ab").arg("c")];
        s1.languages = vec![Language::Go];
        s1.platforms = vec![TeePlatform::Tdx];
        s1.modes = vec![VmKind::Secure];
        let mut s2 = s1.clone();
        s2.functions = vec![CampaignFunction::new("f").arg("a").arg("bc")];
        assert_ne!(expand(&s1)[0].seed, expand(&s2)[0].seed);
    }
}
