//! Seeded workload generators.
//!
//! Every input the benchmark hands the program is drawn here from the
//! `--seed` argument, with the benchmark's own PRNG, so the same seed gives
//! the same inputs whatever the library's own generators do.

use flashmem_gpu_sim::{DeviceSpec, FaultPlan};
use flashmem_graph::{ModelSpec, ModelZoo};
use flashmem_serve::ServeRequest;

/// Requests per serve-steady and serve-chaos batch.
const SERVE_REQUESTS: usize = 2_000;
/// Requests per decode-batched batch.
const DECODE_REQUESTS: usize = 2_000;
/// Mean Poisson gap of the serve traffic, in simulated ms.
const SERVE_MEAN_GAP_MS: f64 = 60.0;
/// Decode arrivals: `DECODE_BURST` requests every `DECODE_BURST_GAP_MS`.
const DECODE_BURST: usize = 4;
const DECODE_BURST_GAP_MS: f64 = 200.0;
const TENANTS: u64 = 4;
const PRIORITY_LEVELS: u64 = 2;
/// Relative deadline of every serve-chaos request, in simulated ms.
const CHAOS_DEADLINE_MS: f64 = 4_000.0;

/// SplitMix64: the benchmark's own PRNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The 4-device serving fleet: OnePlus 12, Galaxy Tab S9, Radeon 780M,
/// Pixel 8.
pub fn fleet() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::oneplus_12(),
        DeviceSpec::galaxy_tab_s9(),
        DeviceSpec::radeon_780m_laptop(),
        DeviceSpec::pixel_8(),
    ]
}

/// Models of serve-steady and serve-chaos.
pub fn serve_models() -> Vec<ModelSpec> {
    vec![
        ModelZoo::gptneo_small(),
        ModelZoo::vit(),
        ModelZoo::resnet50(),
        ModelZoo::depth_anything_small(),
    ]
}

/// Models of decode-batched (both carry a decode-step model).
pub fn decode_models() -> Vec<ModelSpec> {
    vec![ModelZoo::gptneo_small(), ModelZoo::whisper_medium()]
}

/// Compile order of compile-cold: a seeded permutation of the 11 evaluated
/// models (Fisher-Yates).
pub fn compile_order(models: Vec<ModelSpec>, seed: u64) -> Vec<ModelSpec> {
    let mut models = models;
    shuffle(&mut Rng::new(seed ^ 0xC0_4D), &mut models);
    models
}

/// Model of each of `n` requests: every model equally often, in seeded
/// order, so the mix does not vary with the seed.
fn model_mix(rng: &mut Rng, models: &[ModelSpec], n: usize) -> Vec<usize> {
    let mut mix: Vec<usize> = (0..n).map(|i| i % models.len()).collect();
    shuffle(rng, &mut mix);
    mix
}

/// Fisher-Yates.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.range(0, i as u64) as usize;
        items.swap(i, j);
    }
}

/// serve-steady traffic: open-loop Poisson arrivals, 4 tenants, 2 priority
/// levels, each model equally often.
pub fn serve_requests(models: &[ModelSpec], seed: u64) -> Vec<ServeRequest> {
    let mut rng = Rng::new(seed ^ 0x5E_4E);
    let mix = model_mix(&mut rng, models, SERVE_REQUESTS);
    let mut arrival = 0.0;
    mix.into_iter()
        .enumerate()
        .map(|(i, m)| {
            if i > 0 {
                arrival += -SERVE_MEAN_GAP_MS * (1.0 - rng.unit()).ln();
            }
            let model = models[m].clone();
            let tenant = format!("tenant-{}", rng.range(0, TENANTS - 1));
            let priority = rng.range(0, PRIORITY_LEVELS - 1) as u8;
            ServeRequest::new(model, tenant)
                .with_priority(priority)
                .with_arrival_ms(arrival)
        })
        .collect()
}

/// serve-chaos traffic: serve-steady's, each request with a deadline.
pub fn chaos_requests(models: &[ModelSpec], seed: u64) -> Vec<ServeRequest> {
    serve_requests(models, seed)
        .into_iter()
        .map(|r| r.with_deadline_ms(CHAOS_DEADLINE_MS))
        .collect()
}

/// serve-chaos faults: the Pixel 8 is flaky, the OnePlus 12 spikes OOMs and
/// the Tab S9 is lost at half the arrival horizon. The roles are fixed so
/// that every seed stresses the same fleet slots; the seed drives which
/// commands fault.
pub fn chaos_faults(requests: &[ServeRequest], seed: u64) -> FaultPlan {
    let horizon = requests.last().map_or(0.0, |r| r.arrival_ms);
    FaultPlan::seeded(Rng::new(seed ^ 0xFA_17).next_u64())
        .with_flaky_device(3, 0.3)
        .with_oom_spikes(0, 0.15)
        .with_device_loss(1, horizon / 2.0)
}

/// decode-batched traffic: bursts of 4 every 200 ms, prompts of 8–48
/// tokens, outputs of 8–32 tokens.
pub fn decode_requests(models: &[ModelSpec], seed: u64) -> Vec<ServeRequest> {
    let mut rng = Rng::new(seed ^ 0xDEC0);
    let mix = model_mix(&mut rng, models, DECODE_REQUESTS);
    mix.into_iter()
        .enumerate()
        .map(|(i, m)| {
            let model = models[m].clone();
            let tenant = format!("tenant-{}", rng.range(0, TENANTS - 1));
            let prompt = rng.range(8, 48) as u32;
            let output = rng.range(8, 32) as u32;
            ServeRequest::new(model, tenant)
                .with_arrival_ms((i / DECODE_BURST) as f64 * DECODE_BURST_GAP_MS)
                .with_decode_tokens(prompt, output)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_core::cache::Fnv1a;

    fn requests_digest(requests: &[ServeRequest]) -> u64 {
        let mut h = Fnv1a::new();
        for r in requests {
            h = h
                .write_str(&r.model.abbr)
                .write_str(&r.tenant)
                .write_u64(u64::from(r.priority))
                .write_f64(r.arrival_ms)
                .write_f64(r.deadline_ms.unwrap_or(-1.0));
            if let Some(d) = r.decode {
                h = h
                    .write_u64(u64::from(d.prompt_tokens))
                    .write_u64(u64::from(d.output_tokens));
            }
        }
        h.finish()
    }

    #[test]
    fn generators_are_seed_pure() {
        let serve = serve_models();
        let decode = decode_models();
        for seed in [0, 7, u64::MAX] {
            assert_eq!(
                requests_digest(&serve_requests(&serve, seed)),
                requests_digest(&serve_requests(&serve, seed))
            );
            assert_eq!(
                requests_digest(&chaos_requests(&serve, seed)),
                requests_digest(&chaos_requests(&serve, seed))
            );
            assert_eq!(
                requests_digest(&decode_requests(&decode, seed)),
                requests_digest(&decode_requests(&decode, seed))
            );
            let requests = chaos_requests(&serve, seed);
            assert_eq!(chaos_faults(&requests, seed), chaos_faults(&requests, seed));
            let order = |s| -> Vec<String> {
                compile_order(ModelZoo::all_evaluated(), s)
                    .into_iter()
                    .map(|m| m.abbr)
                    .collect()
            };
            assert_eq!(order(seed), order(seed));
        }
        assert_ne!(
            requests_digest(&serve_requests(&serve, 1)),
            requests_digest(&serve_requests(&serve, 2))
        );
        assert_ne!(
            requests_digest(&decode_requests(&decode, 1)),
            requests_digest(&decode_requests(&decode, 2))
        );
    }

    #[test]
    fn generated_inputs_have_the_stated_shape() {
        let requests = serve_requests(&serve_models(), 3);
        assert_eq!(requests.len(), SERVE_REQUESTS);
        assert!(requests
            .windows(2)
            .all(|w| w[0].arrival_ms <= w[1].arrival_ms));
        let mean_gap = requests.last().unwrap().arrival_ms / (SERVE_REQUESTS - 1) as f64;
        assert!((mean_gap - SERVE_MEAN_GAP_MS).abs() < 0.1 * SERVE_MEAN_GAP_MS);
        let decode = decode_requests(&decode_models(), 3);
        assert_eq!(decode.len(), DECODE_REQUESTS);
        for r in &decode {
            let d = r.decode.expect("decode request");
            assert!((8..=48).contains(&d.prompt_tokens));
            assert!((8..=32).contains(&d.output_tokens));
        }
        let mut order = compile_order(ModelZoo::all_evaluated(), 3)
            .into_iter()
            .map(|m| m.abbr)
            .collect::<Vec<_>>();
        order.sort();
        let mut all = ModelZoo::all_evaluated()
            .into_iter()
            .map(|m| m.abbr)
            .collect::<Vec<_>>();
        all.sort();
        assert_eq!(order, all);
    }
}
