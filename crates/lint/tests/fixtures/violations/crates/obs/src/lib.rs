//! Fixture obs crate: registers one properly documented metric.

pub struct Registry;

pub fn documented_metric(r: &Registry) {
    r.counter("ok.documented").inc();
}
