//! Allocator-wide counters and their observability export.
//!
//! Hot-path events (magazine hits, byte throughput) are counted in
//! plain per-thread integers and flushed here in batches; rare events
//! (fallbacks, remote drains, wild frees) add directly to these
//! atomics. Everything is monotonic, so relaxed ordering is enough —
//! readers only ever see a slightly stale total.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! gcounters {
    ($(#[$structmeta:meta])* $vis:vis struct $name:ident / $snap:ident {
        $($(#[$meta:meta])* pub $field:ident),* $(,)?
    }
    always_zero {
        $($(#[$zmeta:meta])* pub $zero:ident),* $(,)?
    }) => {
        $(#[$structmeta])*
        #[derive(Debug, Default)]
        $vis struct $name {
            $($(#[$meta])* pub $field: AtomicU64,)*
        }

        /// A plain-integer snapshot of the allocator's counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $snap {
            $($(#[$meta])* pub $field: u64,)*
            $($(#[$zmeta])* pub $zero: u64,)*
        }

        impl $name {
            /// Reads every counter (relaxed; totals may lag in-flight
            /// per-thread batches).
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $($field: self.$field.load(Ordering::Relaxed),)*
                    $($zero: 0,)*
                }
            }
        }
    };
}

gcounters! {
    /// The process-wide counter set for the global allocator.
    pub(crate) struct GCounters / GallocStats {
        /// Small allocations served by the size-class path.
        pub small_allocs,
        /// Small allocations that needed a shard lock (magazine
        /// refills and lock-direct allocations).
        pub lock_allocs,
        /// Magazine refill events (batch pulls from a shard).
        pub refills,
        /// Magazine flush events (batch returns to shards).
        pub flushes,
        /// Bytes requested through the size-class path.
        pub small_bytes,
        /// Small frees that went back into a thread magazine.
        pub mag_frees,
        /// Small frees pushed to a foreign shard's remote-free stack.
        pub remote_frees,
        /// Remote-freed blocks drained back into central lists.
        pub remote_drained,
        /// Frees routed straight to a central list (allocator
        /// re-entry or TLS already torn down).
        pub central_frees,
        /// Allocations served lock-direct because the thread cache was
        /// unavailable (allocator re-entry or TLS teardown).
        pub reentrant_allocs,
        /// Requests served by the system allocator: size beyond the
        /// class range.
        pub fallback_large,
        /// Requests served by the system allocator: alignment beyond
        /// the class range.
        pub fallback_align,
        /// Requests served by the system allocator: the reserved area
        /// was exhausted.
        pub fallback_exhausted,
        /// Frees forwarded to the system allocator (ownership check
        /// said the pointer is not ours).
        pub system_frees,
        /// Frees of in-area pointers whose segment was never carved
        /// (always 0 in a correct program).
        pub wild_frees,
    }
    always_zero {
        /// Always 0 and not exported: no segment is ever reset. Kept
        /// because the frozen benchmark reads it
        /// (`benchmark/src/layers.rs:651`).
        pub seg_resets,
        /// Always 0 and not exported: there is no epoch tick. Kept
        /// because the frozen benchmark reads it
        /// (`benchmark/src/layers.rs:653`).
        pub epoch_ticks,
        /// Always 0 and not exported: there is no short-lived live
        /// count to underflow. Kept because the frozen benchmark reads
        /// it (`benchmark/src/layers.rs:656–667`,
        /// `benchmark/src/child.rs:53`).
        pub short_free_underflows,
    }
}

impl GallocStats {
    /// Fraction of size-class allocations served without taking any
    /// lock (the magazine hit rate). `1.0` when idle.
    pub fn hit_rate(&self) -> f64 {
        if self.small_allocs == 0 {
            return 1.0;
        }
        1.0 - (self.lock_allocs as f64) / (self.small_allocs as f64)
    }

    /// Small frees observed on any path.
    pub fn small_frees(&self) -> u64 {
        self.mag_frees + self.remote_frees + self.central_frees
    }

    /// Exports every live counter as `lifepred_galloc_*` metrics.
    pub fn export(&self, registry: &lifepred_obs::Registry) {
        macro_rules! emit {
            ($($field:ident),* $(,)?) => {
                $(registry.add(
                    concat!("lifepred_galloc_", stringify!($field), "_total"),
                    self.$field,
                );)*
            };
        }
        emit!(
            small_allocs,
            lock_allocs,
            refills,
            flushes,
            small_bytes,
            mag_frees,
            remote_frees,
            remote_drained,
            central_frees,
            reentrant_allocs,
            fallback_large,
            fallback_align,
            fallback_exhausted,
            system_frees,
            wild_frees,
        );
        registry.set(
            "lifepred_galloc_magazine_hit_rate_pct",
            (self.hit_rate() * 100.0) as u64,
        );
    }
}

/// Per-thread counter batch, merged into [`GCounters`] every few KiB
/// of allocation and at thread exit so the hot path never touches a shared
/// cache line.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TlsCounters {
    /// Mirrors [`GCounters::small_allocs`].
    pub small_allocs: u64,
    /// Mirrors [`GCounters::lock_allocs`].
    pub lock_allocs: u64,
    /// Mirrors [`GCounters::refills`].
    pub refills: u64,
    /// Mirrors [`GCounters::flushes`].
    pub flushes: u64,
    /// Mirrors [`GCounters::small_bytes`].
    pub small_bytes: u64,
    /// Mirrors [`GCounters::mag_frees`].
    pub mag_frees: u64,
    /// Mirrors [`GCounters::remote_frees`].
    pub remote_frees: u64,
}

impl TlsCounters {
    /// Adds this batch into the shared counters and resets it.
    pub fn drain_into(&mut self, g: &GCounters) {
        macro_rules! drain {
            ($($field:ident),* $(,)?) => {
                $(if self.$field != 0 {
                    g.$field.fetch_add(self.$field, Ordering::Relaxed);
                    self.$field = 0;
                })*
            };
        }
        drain!(
            small_allocs,
            lock_allocs,
            refills,
            flushes,
            small_bytes,
            mag_frees,
            remote_frees,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tls_batches_drain_and_reset() {
        let g = GCounters::default();
        let mut t = TlsCounters {
            small_allocs: 10,
            lock_allocs: 1,
            mag_frees: 7,
            ..TlsCounters::default()
        };
        t.drain_into(&g);
        t.drain_into(&g); // second drain is a no-op
        let s = g.snapshot();
        assert_eq!(s.small_allocs, 10);
        assert_eq!(s.lock_allocs, 1);
        assert_eq!(s.mag_frees, 7);
        assert_eq!(t.small_allocs, 0);
        assert!((s.hit_rate() - 0.9).abs() < 1e-9);
        assert_eq!(s.small_frees(), 7);
    }

    #[test]
    fn export_registers_metrics() {
        let registry = lifepred_obs::Registry::new();
        let g = GCounters::default();
        g.small_allocs.fetch_add(100, Ordering::Relaxed);
        g.lock_allocs.fetch_add(5, Ordering::Relaxed);
        g.snapshot().export(&registry);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("lifepred_galloc_small_allocs_total"),
            Some(100)
        );
        assert_eq!(
            snap.gauge("lifepred_galloc_magazine_hit_rate_pct"),
            Some(95)
        );
    }
}
