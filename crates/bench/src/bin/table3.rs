//! Table 3: quantile histograms of object lifetimes (byte-weighted).

use lifepred_bench::{build_suite, print_table};
use lifepred_core::LifetimeDistribution;

fn main() {
    let suite = build_suite();
    let mut rows = Vec::new();
    let mut exact_rows = Vec::new();
    for e in &suite {
        let lifetimes = LifetimeDistribution::from_trace(&e.test);
        let q = lifetimes.quartiles_p2();
        rows.push(vec![
            e.name.to_uppercase(),
            q[0].to_string(),
            q[1].to_string(),
            q[2].to_string(),
            q[3].to_string(),
            q[4].to_string(),
        ]);
        let qe = lifetimes.quartiles_exact();
        exact_rows.push(vec![
            e.name.to_uppercase(),
            qe[0].to_string(),
            qe[1].to_string(),
            qe[2].to_string(),
            qe[3].to_string(),
            qe[4].to_string(),
        ]);
    }
    let headers = [
        "Program",
        "0% (min)",
        "25%",
        "50% (median)",
        "75%",
        "100% (max)",
    ];
    print_table(
        "Table 3: object lifetime quantiles, P2 histogram (bytes)",
        &headers,
        &rows,
    );
    print_table(
        "Table 3 (check): exact byte-weighted quantiles",
        &headers,
        &exact_rows,
    );
}
