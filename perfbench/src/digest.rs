//! Digests of modelled outputs, and the check that they repeat.

use std::collections::BTreeMap;

use flashmem_core::cache::Fnv1a;
use flashmem_serve::ServeReport;

/// First digest seen per key; every later digest must equal it.
#[derive(Debug, Default)]
pub struct DigestLog {
    first: BTreeMap<String, u64>,
}

impl DigestLog {
    /// Record `digest` under `key`.
    ///
    /// # Errors
    ///
    /// Says which digests differ when `key` already holds another digest.
    pub fn record(&mut self, key: &str, digest: u64) -> Result<(), String> {
        match self.first.get(key) {
            Some(&first) if first != digest => Err(format!(
                "{key}: digest {digest:016x} differs from the first one, {first:016x}"
            )),
            Some(_) => Ok(()),
            None => {
                self.first.insert(key.to_string(), digest);
                Ok(())
            }
        }
    }
}

/// Digest of every modelled quantity of a serving report: per-request
/// placement, timing, disposition, recovery and decode results, per-device
/// busy time, memory and queues, and the recovery tallies. Host timings and
/// cache counters are left out.
pub fn report(report: &ServeReport) -> u64 {
    let mut h = Fnv1a::new();
    for o in &report.outcomes {
        h = h
            .write_u64(o.seq as u64)
            .write_u64(o.device_index as u64)
            .write_f64(o.start_ms)
            .write_f64(o.completion_ms)
            .write_f64(o.latency_ms)
            .write_f64(o.queue_wait_ms)
            .write_f64(o.peak_memory_mb)
            .write_u64(o.preemptions as u64)
            .write_u64(u64::from(o.retries))
            .write_u64(u64::from(o.failed_over))
            .write_u64(o.stolen_from.map_or(u64::MAX, |d| d as u64))
            .write_str(o.rejected.map_or("-", |c| c.label()))
            .write_str(o.failure.map_or("-", |c| c.label()));
        if let Some(d) = &o.decode {
            h = h.write_f64(d.ttft_ms).write_u64(d.itl_ms.len() as u64);
            for itl in &d.itl_ms {
                h = h.write_f64(*itl);
            }
        }
    }
    for d in &report.devices {
        h = h
            .write_f64(d.makespan_ms)
            .write_f64(d.compute_busy_ms)
            .write_f64(d.transfer_busy_ms)
            .write_f64(d.peak_memory_mb)
            .write_u64(d.queue_depth_high_water as u64)
            .write_u64(d.memory_trace.len() as u64)
            .write_u64(d.memory_trace.clamped());
    }
    let r = &report.recovery;
    h.write_u64(r.retries as u64)
        .write_u64(r.failovers as u64)
        .write_u64(r.quarantines as u64)
        .write_u64(r.probes as u64)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_core::{FlashMemConfig, ThreadPool};
    use flashmem_gpu_sim::DeviceSpec;
    use flashmem_graph::ModelZoo;
    use flashmem_serve::{ServeEngine, ServeRequest};

    #[test]
    fn report_digest_catches_an_injected_mismatch() {
        let requests: Vec<ServeRequest> = (0..4)
            .map(|i| ServeRequest::new(ModelZoo::resnet50(), "t").with_arrival_ms(10.0 * i as f64))
            .collect();
        let run = || {
            ServeEngine::new(
                vec![DeviceSpec::pixel_8()],
                FlashMemConfig::memory_priority(),
            )
            .run_on(&ThreadPool::with_threads(1), &requests)
            .expect("a fault-free run")
        };
        let first = run();
        let mut log = DigestLog::default();
        assert_eq!(log.record("report", report(&first)), Ok(()));
        assert_eq!(log.record("report", report(&run())), Ok(()));
        let mut changed = first.clone();
        changed.outcomes[2].completion_ms += 1e-6;
        assert!(log.record("report", report(&changed)).is_err());
    }

    #[test]
    fn digest_check_catches_an_injected_mismatch() {
        let mut log = DigestLog::default();
        assert_eq!(log.record("ViT", 1), Ok(()));
        assert_eq!(log.record("ResNet", 2), Ok(()));
        assert_eq!(log.record("ViT", 1), Ok(()));
        let err = log
            .record("ViT", 3)
            .expect_err("a changed digest is caught");
        assert!(err.starts_with("ViT:"));
        assert_eq!(log.record("ResNet", 2), Ok(()));
    }
}
