//! Profile one of the traced interpreters in depth: lifetime
//! quantiles, the hottest allocation sites, and the effect of
//! call-chain length — the analyses behind Tables 3 and 6.
//!
//! Run with `cargo run --release --example interpreter_profile [name]`
//! where `name` is one of cfrac, espresso, gawk, ghost, perl.

use lifepred::core::{
    evaluate, train, LifetimeDistribution, Profile, SiteConfig, SitePolicy, TrainConfig,
    DEFAULT_THRESHOLD,
};
use lifepred::trace::shared_registry;
use lifepred::workloads::{by_name, record};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "ghost".to_owned());
    let Some(workload) = by_name(&name) else {
        eprintln!("unknown workload {name}; try cfrac, espresso, gawk, ghost or perl");
        std::process::exit(1);
    };
    let trace = record(
        workload.as_ref(),
        workload.inputs().len() - 1,
        shared_registry(),
    );
    let stats = trace.stats();
    println!(
        "{name}: {} objects, {} bytes, max live {} bytes, {} distinct chains",
        stats.total_objects,
        stats.total_bytes,
        stats.max_live_bytes,
        trace.chains().len()
    );

    // Byte-weighted lifetime quartiles (Table 3 for this program).
    let profile = Profile::build(&trace, &SiteConfig::default(), DEFAULT_THRESHOLD);
    let q = LifetimeDistribution::from_trace(&trace).quartiles_p2();
    println!(
        "lifetime quartiles (bytes): min {} | 25% {} | median {} | 75% {} | max {}",
        q[0], q[1], q[2], q[3], q[4]
    );

    // The five sites allocating the most bytes.
    let mut sites: Vec<_> = profile.sites().iter().collect();
    sites.sort_by_key(|(_, s)| std::cmp::Reverse(s.bytes));
    println!("hottest allocation sites:");
    for (key, s) in sites.iter().take(5) {
        println!(
            "  {:>10} bytes in {:>8} objects, max lifetime {:>9}  {}",
            s.bytes,
            s.objects,
            s.max_lifetime,
            match key {
                lifepred::core::SiteKey::Chain { frames, size } => {
                    let names: Vec<&str> = frames
                        .iter()
                        .filter_map(|f| trace.registry().name(*f))
                        .collect();
                    format!("{} (size {size})", names.join(">"))
                }
                other => format!("{other:?}"),
            }
        );
    }

    // The call-chain-length sweep for this program (Table 6 column).
    println!("call-chain length vs predicted short-lived bytes (self):");
    for policy in (1..=7).map(SitePolicy::LastN).chain([SitePolicy::Complete]) {
        let cfg = SiteConfig {
            policy,
            ..SiteConfig::default()
        };
        let p = Profile::build(&trace, &cfg, DEFAULT_THRESHOLD);
        let db = train(&p, &TrainConfig::default());
        let r = evaluate(&db, &trace);
        println!(
            "  {:>8}: {:5.1}% of bytes, {:5.1}% of heap references",
            policy.to_string(),
            r.predicted_short_bytes_pct,
            r.new_ref_pct
        );
    }
}
