//! Design-space exploration: reproduce the Figure 5 sweep and the model validation at
//! the command line, and locate the break-even region.
//!
//! Both are builtin scenarios; one executor call runs their grid points together, and
//! everything printed comes from their reports.
//!
//! Run with:
//! ```text
//! cargo run --release --example design_space
//! ```

use pim_repro::pim_analytic::AnalyticModel;
use pim_repro::pim_harness::prelude::*;

fn main() -> Result<(), String> {
    let registry = Registry::builtin();
    let seeds = SeedPolicy::default();
    let plans = ["figure5", "validation"]
        .into_iter()
        .map(|name| {
            let scenario = registry.get(name).ok_or(format!("no builtin `{name}`"))?;
            Ok(scenario.plan(&seeds))
        })
        .collect::<Result<_, String>>()?;
    let outcomes = UnitPool::new(0)
        .run(plans, None, &RunHooks::default())
        .map_err(|e| e.to_string())?;
    let (figure5, validation) = (&outcomes[0].report, &outcomes[1].report);

    // Figure 5: one row per %LWP work, one `gain_nN` column per node count.
    let table = &figure5.tables[0];
    println!("Performance gain (simulation), rows = %LWP work, columns = node count");
    println!("| {} |", table.columns.join(" | "));
    println!("|{}", "---|".repeat(table.columns.len()));
    let mut points = Vec::new();
    for row in &table.rows {
        let row: Vec<f64> = row.iter().map(|v| v.as_f64().unwrap_or(f64::NAN)).collect();
        let gains: Vec<String> = row[1..].iter().map(|g| format!("{g:.4}")).collect();
        println!("| {:.0} | {} |", row[0], gains.join(" | "));
        for (column, &gain) in table.columns[1..].iter().zip(&row[1..]) {
            points.push((row[0], column.trim_start_matches("gain_n"), gain));
        }
    }

    // Landmarks the paper calls out in the text.
    let double = points
        .iter()
        .filter(|(_, _, gain)| *gain >= 2.0)
        .min_by(|a, b| a.0.total_cmp(&b.0));
    if let Some((pct, nodes, gain)) = double {
        println!(
            "\nEven modest offload doubles performance: gain {gain:.2}x at {pct:.0}% LWP work \
             on {nodes} nodes"
        );
    }
    if let Some((pct, nodes, gain)) = points.iter().max_by(|a, b| a.2.total_cmp(&b.2)) {
        println!("Best point in this grid: {gain:.1}x at {pct:.0}% LWP work on {nodes} nodes");
    }

    // The analytical model and its break-even parameter.
    let model = AnalyticModel::table1();
    println!(
        "\nAnalytical break-even: NB = {:.3} nodes (ceil = {})",
        model.nb(),
        model.break_even_nodes()
    );

    // How well does the closed form track the simulation? (Paper: 5-18%.)
    let metric = |name| validation.metric(name).unwrap_or(f64::NAN) * 100.0;
    println!(
        "Analytic vs simulation: mean error {:.2}%, max error {:.2}% over {} points",
        metric("mean_relative_error"),
        metric("max_relative_error"),
        validation.tables[0].rows.len()
    );
    Ok(())
}
