//! The sink trait and its structural combinators.

use crate::epoch::EpochSample;
use crate::event::TraceEvent;
use crate::metrics::MetricsRecorder;

/// Receives structured events and epoch samples from an instrumented
/// simulation.
///
/// The trait is used via *static* dispatch: the controller and system
/// are generic over `S: TraceSink`, so a [`NullSink`] (the default)
/// monomorphizes every emission site into a call on a zero-sized type
/// with an empty body, which the optimizer removes entirely — the
/// uninstrumented hot path is bit- and speed-identical to one with no
/// instrumentation at all.
///
/// Sinks observe; they must never influence the simulation (the
/// determinism guard locks this: goldens with and without an attached
/// sink are byte-identical).
///
/// `Send` is a supertrait, so a whole simulation — controllers and the
/// sinks riding them — can run on a worker thread (the campaign's
/// `parallel_map`). Sinks are never shared (`Sync` is not required); one
/// channel's event stream is always written by exactly one thread.
pub trait TraceSink: Send {
    /// Compile-time enable flag: `false` only for [`NullSink`]. Emission
    /// sites and span accumulators wrap themselves in
    /// `if S::ENABLED { ... }`, so under the null sink the branch — and
    /// the event construction inside it — is removed at monomorphization
    /// time rather than merely inlined away.
    const ENABLED: bool = true;

    /// Receives one structured event.
    #[inline(always)]
    fn on_event(&mut self, _event: &TraceEvent) {}

    /// Receives one epoch sample of the time series.
    #[inline(always)]
    fn on_epoch(&mut self, _sample: &EpochSample) {}

    /// Receives the run's collected metrics just before
    /// [`TraceSink::finish`], when a [`MetricsRecorder`] rode the same
    /// controller. Exporters that render counter tracks (the Chrome
    /// sink) hook this; everyone else ignores it.
    fn on_metrics(&mut self, _metrics: &MetricsRecorder) {}

    /// Called once when the run ends; exporters close brackets and
    /// flush buffers here.
    fn finish(&mut self) {}
}

/// The no-op sink: every emission compiles out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;
}

/// Fans every event out to two sinks (nest for more:
/// `Tee(a, Tee(b, c))`).
#[derive(Debug, Clone, Default)]
pub struct Tee<A: TraceSink, B: TraceSink>(pub A, pub B);

impl<A: TraceSink, B: TraceSink> TraceSink for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn on_event(&mut self, event: &TraceEvent) {
        self.0.on_event(event);
        self.1.on_event(event);
    }

    #[inline]
    fn on_epoch(&mut self, sample: &EpochSample) {
        self.0.on_epoch(sample);
        self.1.on_epoch(sample);
    }

    fn on_metrics(&mut self, metrics: &MetricsRecorder) {
        self.0.on_metrics(metrics);
        self.1.on_metrics(metrics);
    }

    fn finish(&mut self) {
        self.0.finish();
        self.1.finish();
    }
}

/// Collects everything in memory — for tests and programmatic
/// inspection.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    /// Every received event, in emission order.
    pub events: Vec<TraceEvent>,
    /// Every received epoch sample, in emission order.
    pub epochs: Vec<EpochSample>,
    /// Whether [`TraceSink::finish`] has run.
    pub finished: bool,
}

impl TraceSink for MemorySink {
    fn on_event(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }

    fn on_epoch(&mut self, sample: &EpochSample) {
        self.epochs.push(sample.clone());
    }

    fn finish(&mut self) {
        self.finished = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tee_duplicates_to_both_arms() {
        let mut tee = Tee(MemorySink::default(), MemorySink::default());
        tee.on_event(&TraceEvent::ReadComplete {
            at: 1,
            core: 0,
            latency: 27,
        });
        tee.on_epoch(&EpochSample::default());
        tee.finish();
        assert_eq!(tee.0.events.len(), 1);
        assert_eq!(tee.1.events.len(), 1);
        assert_eq!(tee.0.epochs.len(), 1);
        assert!(tee.0.finished && tee.1.finished);
    }

    #[test]
    fn null_sink_is_inert() {
        let mut n = NullSink;
        n.on_event(&TraceEvent::QuietSpan {
            from: 0,
            cycles: 1,
            busy: true,
        });
        n.finish();
    }
}
