//! Request tracing: lightweight phase spans.
//!
//! A request walks fixed phases — admit → cache-lookup → compile → bind →
//! execute → respond — and a [`SpanGuard`] times one phase, recording its
//! wall-clock into the matching registry histogram on drop. Spans nest
//! (compile contains admit), each timing its own phase.
//!
//! Tracing is strictly pay-for-what-you-enable: with tracing off (the
//! default), [`MetricsRegistry::span`] is one relaxed load and a branch —
//! no clock read, no allocation, no recording. Enable it server-wide with
//! [`MetricsRegistry::set_tracing`].

use crate::metrics::MetricsRegistry;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// The fixed request phases a span can time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Lane classification / admission decision (nested under compile).
    Admit,
    /// Plan-cache probe, stamp validation included.
    CacheLookup,
    /// Template compilation on a cache miss (classification, planning,
    /// operator-program compile).
    Compile,
    /// Parameter binding: crossing the `Value` boundary into cells.
    Bind,
    /// Plan execution against the snapshot.
    Execute,
    /// Response assembly.
    Respond,
}

/// Number of traced phases.
pub const NUM_PHASES: usize = 6;

impl Phase {
    /// All phases, in registry index order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Admit,
        Phase::CacheLookup,
        Phase::Compile,
        Phase::Bind,
        Phase::Execute,
        Phase::Respond,
    ];

    /// The phase's slot in the registry's histogram array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable label used in the JSON / Prometheus expositions.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Admit => "admit",
            Phase::CacheLookup => "cache_lookup",
            Phase::Compile => "compile",
            Phase::Bind => "bind",
            Phase::Execute => "execute",
            Phase::Respond => "respond",
        }
    }
}

/// An active (or disabled no-op) span; records its phase duration into
/// the registry on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    /// `Some` only when tracing was enabled at entry.
    armed: Option<(&'a MetricsRegistry, Instant)>,
    phase: Phase,
}

impl MetricsRegistry {
    /// Opens a span timing `phase`. With tracing disabled this is one
    /// relaxed load and a branch, and the returned guard does nothing on
    /// drop.
    #[inline]
    pub fn span(&self, phase: Phase) -> SpanGuard<'_> {
        if self.tracing.load(Ordering::Relaxed) {
            SpanGuard {
                armed: Some((self, Instant::now())),
                phase,
            }
        } else {
            SpanGuard { armed: None, phase }
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((reg, start)) = self.armed {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            reg.phase_hist(self.phase).record(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let r = MetricsRegistry::new();
        drop(r.span(Phase::Execute));
        assert_eq!(r.phase_hist(Phase::Execute).snapshot().count(), 0);
    }

    #[test]
    fn server_wide_tracing_records_phases() {
        let r = MetricsRegistry::new();
        r.set_tracing(true);
        {
            let _outer = r.span(Phase::Compile);
            let _inner = r.span(Phase::Admit);
        }
        assert_eq!(r.phase_hist(Phase::Compile).snapshot().count(), 1);
        assert_eq!(r.phase_hist(Phase::Admit).snapshot().count(), 1);
        assert_eq!(r.phase_hist(Phase::Execute).snapshot().count(), 0);
    }
}
