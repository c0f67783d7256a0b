//! A cascaded (staged) indirect-target predictor — an extension beyond the
//! paper, in the direction later taken by Driesen & Hölzle's *cascaded
//! predictor* work.
//!
//! Observation: most static indirect branches are monomorphic (Figures
//! 1–8), and the BTB already predicts those perfectly. Letting them
//! allocate history-indexed target-cache entries wastes capacity that the
//! few polymorphic jumps need. The cascade adds a per-site confidence
//! counter in front of the target cache:
//!
//! * while the BTB's last-target prediction keeps being right for a site,
//!   the site is classified *monomorphic*: the BTB serves it and the
//!   target cache is neither consulted nor updated for it;
//! * once the BTB repeatedly fails, the site is promoted to the target
//!   cache, which then sees only the traffic that actually needs history.
//!
//! The `experiments::extension_cascade` study shows this lets a cascade
//! with a *half-size* second stage match or beat the plain target cache.

use crate::cache::{Access, TargetCache};
use crate::config::TargetCacheConfig;
use branch_predictors::SaturatingCounter;
use sim_isa::Addr;
use std::collections::HashMap;

/// Configuration of a [`CascadedPredictor`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CascadeConfig {
    /// The second-stage target cache.
    pub cache: TargetCacheConfig,
    /// Width of the per-site BTB-confidence counters (2 is standard).
    pub confidence_bits: u8,
}

impl CascadeConfig {
    /// A cascade in front of the given target cache with 2-bit confidence.
    pub fn new(cache: TargetCacheConfig) -> Self {
        CascadeConfig {
            cache,
            confidence_bits: 2,
        }
    }
}

/// Which stage served a prediction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// The site is BTB-confident; the first stage served.
    Btb,
    /// The site is polymorphic; the target cache served (or missed).
    Cache,
}

/// A staged filter in front of a [`TargetCache`].
///
/// # Example
///
/// ```
/// use target_cache::cascade::{CascadeConfig, CascadedPredictor, Stage};
/// use target_cache::TargetCacheConfig;
/// use sim_isa::Addr;
///
/// let mut c = CascadedPredictor::new(CascadeConfig::new(
///     TargetCacheConfig::isca97_tagless_gshare(),
/// ));
/// let jump = Addr::new(0x100);
/// // A fresh site starts BTB-confident: the cache is bypassed.
/// let (stage, _, access) = c.predict(jump, 0, Some(Addr::new(0x900)));
/// assert_eq!(stage, Stage::Btb);
/// c.update(jump, access, Addr::new(0x900), Some(Addr::new(0x900)));
/// ```
#[derive(Debug)]
pub struct CascadedPredictor {
    config: CascadeConfig,
    cache: TargetCache,
    /// Per-site confidence that the BTB's last-target prediction suffices.
    confidence: HashMap<Addr, SaturatingCounter>,
    /// Dynamic jumps filtered away from the cache (served by stage 1).
    filtered: u64,
    total: u64,
}

impl CascadedPredictor {
    /// Creates a cold cascade.
    ///
    /// # Panics
    ///
    /// Panics if the cache configuration is invalid or the confidence
    /// width is out of range.
    pub fn new(config: CascadeConfig) -> Self {
        assert!(
            (1..=7).contains(&config.confidence_bits),
            "confidence width must be 1..=7 bits"
        );
        CascadedPredictor {
            config,
            cache: TargetCache::new(config.cache),
            confidence: HashMap::new(),
            filtered: 0,
            total: 0,
        }
    }

    /// The cascade's configuration.
    pub fn config(&self) -> CascadeConfig {
        self.config
    }

    /// The second-stage cache (for statistics).
    pub fn cache(&self) -> &TargetCache {
        &self.cache
    }

    /// Fraction of dynamic jumps served by the BTB stage.
    pub fn filter_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.filtered as f64 / self.total as f64
        }
    }

    /// Dynamic jumps served by the BTB stage (the raw count behind
    /// [`filter_rate`](CascadedPredictor::filter_rate)).
    pub fn filtered(&self) -> u64 {
        self.filtered
    }

    /// Total dynamic jumps predicted.
    pub fn total(&self) -> u64 {
        self.total
    }

    fn confident(&self, pc: Addr) -> bool {
        self.confidence.get(&pc).is_none_or(|c| c.is_high())
    }

    /// Predicts the target of the indirect jump at `pc`.
    ///
    /// `btb_target` is the BTB's last-computed target for this site (if the
    /// BTB hit). Returns the serving stage, the prediction, and — when the
    /// cache was consulted — the [`Access`] to pass back to
    /// [`update`](CascadedPredictor::update).
    pub fn predict(
        &mut self,
        pc: Addr,
        history: u64,
        btb_target: Option<Addr>,
    ) -> (Stage, Option<Addr>, Option<Access>) {
        self.total += 1;
        if self.confident(pc) {
            self.filtered += 1;
            (Stage::Btb, btb_target, None)
        } else {
            let (access, pred) = self.cache.lookup(pc, history);
            (Stage::Cache, pred.or(btb_target), Some(access))
        }
    }

    /// Trains the cascade with a resolved jump.
    ///
    /// `access` is whatever [`predict`](CascadedPredictor::predict)
    /// returned; `btb_target` is the BTB's prediction at fetch, used to
    /// train the confidence counter.
    pub fn update(
        &mut self,
        pc: Addr,
        access: Option<Access>,
        actual: Addr,
        btb_target: Option<Addr>,
    ) {
        let bits = self.config.confidence_bits;
        let counter = self
            .confidence
            .entry(pc)
            .or_insert_with(|| SaturatingCounter::with_value(bits, (1 << bits) - 1));
        counter.train(btb_target == Some(actual));
        // Only polymorphic traffic trains the second stage.
        if let Some(access) = access {
            self.cache.update(access, actual);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cascade() -> CascadedPredictor {
        CascadedPredictor::new(CascadeConfig::new(
            TargetCacheConfig::isca97_tagless_gshare(),
        ))
    }

    #[test]
    fn monomorphic_site_stays_in_stage_one() {
        let mut c = cascade();
        let pc = Addr::new(0x100);
        let t = Addr::new(0x900);
        for _ in 0..50 {
            let (stage, pred, access) = c.predict(pc, 0, Some(t));
            assert_eq!(stage, Stage::Btb);
            assert_eq!(pred, Some(t));
            c.update(pc, access, t, Some(t));
        }
        assert_eq!(c.cache().stats().lookups(), 0, "cache never consulted");
        assert_eq!(c.filter_rate(), 1.0);
    }

    #[test]
    fn polymorphic_site_is_promoted_to_the_cache() {
        let mut c = cascade();
        let pc = Addr::new(0x100);
        let a = Addr::new(0x900);
        let b = Addr::new(0xA00);
        // Alternate targets: the BTB's last-target is always wrong, so
        // confidence collapses and the cache takes over.
        let mut last = b;
        let mut stages = Vec::new();
        for i in 0..20 {
            let actual = if i % 2 == 0 { a } else { b };
            let (stage, _, access) = c.predict(pc, i % 4, Some(last));
            stages.push(stage);
            c.update(pc, access, actual, Some(last));
            last = actual;
        }
        assert_eq!(stages[0], Stage::Btb, "starts confident");
        assert_eq!(*stages.last().unwrap(), Stage::Cache, "ends promoted");
        assert!(c.cache().stats().lookups() > 0);
    }

    #[test]
    fn promotion_requires_consecutive_failures() {
        let mut c = cascade();
        let pc = Addr::new(0x100);
        let t = Addr::new(0x900);
        // One failure among successes must not demote the site.
        c.update(pc, None, Addr::new(0xA00), Some(t)); // miss
        c.update(pc, None, t, Some(t)); // hit: counter recovers
        let (stage, _, _) = c.predict(pc, 0, Some(t));
        assert_eq!(stage, Stage::Btb);
    }

    #[test]
    fn filter_rate_reflects_the_mix() {
        let mut c = cascade();
        // Site A monomorphic, site B alternating.
        let a = Addr::new(0x100);
        let b = Addr::new(0x200);
        let ta = Addr::new(0x900);
        let mut last_b = Addr::new(0xA00);
        for i in 0..100u64 {
            let (_, _, acc) = c.predict(a, i, Some(ta));
            c.update(a, acc, ta, Some(ta));
            let actual = if i % 2 == 0 {
                Addr::new(0xB00)
            } else {
                Addr::new(0xC00)
            };
            let (_, _, acc) = c.predict(b, i, Some(last_b));
            c.update(b, acc, actual, Some(last_b));
            last_b = actual;
        }
        let rate = c.filter_rate();
        assert!(
            (0.4..0.7).contains(&rate),
            "about half the traffic (site A + B's warmup) is filtered: {rate}"
        );
    }

    #[test]
    #[should_panic(expected = "confidence width")]
    fn zero_confidence_bits_rejected() {
        CascadedPredictor::new(CascadeConfig {
            cache: TargetCacheConfig::isca97_tagless_gshare(),
            confidence_bits: 0,
        });
    }
}
