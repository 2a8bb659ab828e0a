//! The experiments: one function per figure and ablation.
//!
//! [`FIGURES`] is the whole index. A name is the stem of the tracked file
//! under `results/`, so `figures <name> > results/<name>.txt` regenerates
//! it; stdout is a pure function of the flags (byte-identical for any
//! `VCDN_WORKERS`), progress and timing go to stderr. Every function reads
//! its flags and calls [`Args::finish`] before it does anything else.

use crate::Args;

mod ablations;
mod paper;

/// One experiment: reads its flags, prints its table.
pub type Figure = fn(&Args);

/// Every experiment, by name: the paper's figures, the ablations (A1–A10
/// by name), the related-work study and the calibration smoke run.
pub const FIGURES: &[(&str, Figure)] = &[
    ("fig2_optimal_vs_psychic", paper::fig2_optimal_vs_psychic),
    ("fig3_timeseries", paper::fig3_timeseries),
    ("fig4_alpha_sweep", paper::fig4_alpha_sweep),
    ("fig5_operating_points", paper::fig5_operating_points),
    ("fig6_disk_sweep", paper::fig6_disk_sweep),
    ("fig7_world_servers", paper::fig7_world_servers),
    ("ablation_chunk_size", ablations::ablation_chunk_size),
    ("ablation_chunking", ablations::ablation_chunking),
    ("ablation_gamma", ablations::ablation_gamma),
    ("ablation_lp_forms", ablations::ablation_lp_forms),
    ("ablation_psychic_n", ablations::ablation_psychic_n),
    (
        "ablation_resource_models",
        ablations::ablation_resource_models,
    ),
    ("ablation_scale", ablations::ablation_scale),
    ("ablation_seeds", ablations::ablation_seeds),
    ("ablation_unseen_iat", ablations::ablation_unseen_iat),
    ("ablation_window", ablations::ablation_window),
    ("related_work_baselines", ablations::related_work_baselines),
    ("smoke", paper::smoke),
];
