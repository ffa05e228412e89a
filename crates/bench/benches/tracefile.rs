//! Throughput benchmarks for the `.lpt` binary trace format: encode
//! and full decode over the CFRAC and PERL workload traces (events/sec
//! via `Throughput::Elements`, plus a bytes-per-event line per trace).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lifepred_trace::{shared_registry, Trace};
use lifepred_tracefile::{trace_from_bytes, trace_to_vec};
use lifepred_workloads::{by_name, record};

fn workload_trace(name: &str) -> Trace {
    let w = by_name(name).expect("workload exists");
    record(w.as_ref(), 0, shared_registry())
}

/// Total on-disk events: one per allocation plus one per free.
fn event_count(trace: &Trace) -> u64 {
    let deaths = trace.records().iter().filter(|r| !r.is_immortal()).count() as u64;
    trace.stats().total_objects + deaths
}

fn tracefile_codec(c: &mut Criterion) {
    for name in ["cfrac", "perl"] {
        let trace = workload_trace(name);
        let bytes = trace_to_vec(&trace).expect("encode");
        let events = event_count(&trace);
        println!(
            "tracefile: {name}: {events} events, {} file bytes, {:.2} bytes/event",
            bytes.len(),
            bytes.len() as f64 / events.max(1) as f64
        );

        let mut group = c.benchmark_group(format!("tracefile_encode/{name}"));
        group.throughput(Throughput::Elements(events));
        group.bench_function("events", |b| {
            b.iter(|| trace_to_vec(black_box(&trace)).expect("encode"));
        });
        group.finish();

        let mut group = c.benchmark_group(format!("tracefile_encode_bytes/{name}"));
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_function("bytes", |b| {
            b.iter(|| trace_to_vec(black_box(&trace)).expect("encode"));
        });
        group.finish();

        let mut group = c.benchmark_group(format!("tracefile_decode/{name}"));
        group.throughput(Throughput::Elements(events));
        group.bench_function("events", |b| {
            b.iter(|| trace_from_bytes(black_box(&bytes)).expect("decode"));
        });
        group.finish();
    }
}

criterion_group!(benches, tracefile_codec);
criterion_main!(benches);
