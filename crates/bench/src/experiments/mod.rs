//! One module per paper table/figure (ids listed in README.md, "Running the
//! paper experiments").

pub mod ext_augment;
pub mod ext_delta;
pub mod ext_match;
pub mod ext_measures;
pub mod ext_multi;
pub mod ext_rknn;
pub mod ext_sites;
pub mod ext_slq;
pub mod ext_tau;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig78;
pub mod fig9;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;

use crate::harness::ExperimentCtx;

/// Every experiment id, in the order `all` runs them.
pub fn all_ids() -> &'static [&'static str] {
    &[
        "table5",
        "fig5",
        "fig1",
        "table2",
        "table3",
        "fig4",
        "fig3",
        "table4",
        "fig6",
        "table6",
        "fig7",
        "table7",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "ext_tau",
        "ext_delta",
        "ext_slq",
        "ext_match",
        "ext_augment",
        "ext_measures",
        "ext_sites",
        "ext_rknn",
        "ext_multi",
    ]
}

/// Runs one experiment by id; returns false for unknown ids.
pub fn run(id: &str, ctx: &mut ExperimentCtx) -> bool {
    match id {
        "fig1" => fig1::run(ctx),
        "table2" => table2::run(ctx),
        "table3" => table3::run(ctx),
        "fig3" => fig3::run(ctx),
        "fig4" => fig4::run(ctx),
        "table4" => table4::run(ctx),
        "table5" => table5::run(ctx),
        "fig5" => fig5::run(ctx),
        "fig6" => fig6::run(ctx),
        "table6" => table6::run(ctx),
        "fig7" | "fig8" => fig78::run(ctx),
        "table7" => table7::run(ctx),
        "fig9" => fig9::run(ctx),
        "fig10" => fig10::run(ctx),
        "fig11" => fig11::run(ctx),
        "fig12" => fig12::run(ctx),
        "ext_tau" => ext_tau::run(ctx),
        "ext_delta" => ext_delta::run(ctx),
        "ext_slq" => ext_slq::run(ctx),
        "ext_match" => ext_match::run(ctx),
        "ext_augment" => ext_augment::run(ctx),
        "ext_measures" => ext_measures::run(ctx),
        "ext_multi" => ext_multi::run(ctx),
        "ext_sites" => ext_sites::run(ctx),
        "ext_rknn" => ext_rknn::run(ctx),
        _ => return false,
    }
    true
}
