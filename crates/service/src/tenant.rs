//! Multi-tenant cataloging: one [`StatsService`] shard per tenant.
//!
//! A tenant is a fully isolated statistics universe — its own
//! lock-striped `StatsCatalog`, its own per-column modification
//! counters, accuracy ledgers, and refresh scheduler — so noisy
//! neighbours can rot their own histograms without touching anyone
//! else's, and admission control can shed per tenant (each shard
//! exposes its own queue-depth gauge). The registry is the only shared
//! structure, and it is read-mostly: one `RwLock<HashMap>` holding
//! `Arc<StatsService>` shards, cloned out per request.
//!
//! Determinism carries across tenants: every shard's seed is derived
//! from the registry's master seed and the tenant id by the same
//! SplitMix64 finalization the per-column RNG streams use, so a
//! thousand-tenant simulation is a pure function of (master seed,
//! tenant set) — independent of creation order, thread count, or which
//! socket a request arrived on.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use crate::service::{ServiceConfig, StatsService};

/// Identifies one tenant's statistics universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Tenant-sharded service registry: `TenantId` → `Arc<StatsService>`.
#[derive(Debug)]
pub struct TenantRegistry {
    template: ServiceConfig,
    tenants: RwLock<HashMap<TenantId, Arc<StatsService>>>,
}

/// Derive a tenant shard's seed from the master seed (SplitMix64 over
/// the xor — the same finalizer as the refresh RNG streams, so tenant
/// seeds are decorrelated from each other and from any column stream).
pub fn tenant_seed(master: u64, id: TenantId) -> u64 {
    let mut z = master ^ id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TenantRegistry {
    /// A registry whose shards are built from `template`, each with its
    /// own derived seed. In the template, `seed` is the master seed.
    ///
    /// Note the thread math for concurrent templates: every shard
    /// spawns its own `refresh_threads` OS threads, which live until the
    /// shard is dropped, so a thousand-tenant registry wants either a
    /// deterministic template (no threads; drive refreshes via
    /// [`StatsService::drain`]) or `refresh_threads: 1`.
    pub fn new(template: ServiceConfig) -> Arc<Self> {
        Arc::new(Self { template, tenants: RwLock::new(HashMap::new()) })
    }

    /// The template configuration (with the master seed).
    pub fn template(&self) -> &ServiceConfig {
        &self.template
    }

    /// Get or create the shard for `id`. Creation is idempotent and
    /// race-safe: two concurrent creators agree on the one that won.
    pub fn create(&self, id: TenantId) -> Arc<StatsService> {
        if let Some(svc) = self.get(id) {
            return svc;
        }
        let mut map = self.tenants.write().expect("tenants lock");
        // Re-check under the write lock: another creator may have won.
        if let Some(svc) = map.get(&id) {
            return Arc::clone(svc);
        }
        let config = ServiceConfig { seed: tenant_seed(self.template.seed, id), ..self.template };
        let svc = StatsService::new(config);
        samplehist_obs::global().counter("tenant.created", 1);
        map.insert(id, Arc::clone(&svc));
        svc
    }

    /// The shard for `id`, if it exists. The wire server uses this
    /// (never [`create`](Self::create)): unknown tenants get a typed
    /// error, not an implicit empty catalog.
    pub fn get(&self, id: TenantId) -> Option<Arc<StatsService>> {
        self.tenants.read().expect("tenants lock").get(&id).cloned()
    }

    /// Number of live tenants.
    pub fn len(&self) -> usize {
        self.tenants.read().expect("tenants lock").len()
    }

    /// Whether no tenant exists yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All tenant ids, ascending.
    pub fn ids(&self) -> Vec<TenantId> {
        let mut ids: Vec<TenantId> =
            self.tenants.read().expect("tenants lock").keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Canonical text dump of every tenant's catalog, sorted by tenant
    /// id — the multi-tenant extension of [`StatsService::dump`]: two
    /// registry states are equivalent iff their dumps are
    /// byte-identical, which is what the simulation's determinism
    /// digest hashes.
    pub fn dump_all(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for id in self.ids() {
            let svc = self.get(id).expect("listed id exists");
            let t = svc.tally();
            writeln!(
                out,
                "{id} hits={} misses={} stale={} completed={} probes={} probe_passes={} \
                 patches={} reanalyzes={}",
                svc.hits(),
                svc.misses(),
                svc.stale_hits(),
                t.completed,
                t.probes,
                t.probe_passes,
                t.patches,
                t.full_reanalyzes,
            )
            .expect("write to String");
            out.push_str(&svc.dump());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_seeds_are_distinct_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(tenant_seed(42, TenantId(i))), "collision at {i}");
        }
        assert_eq!(tenant_seed(42, TenantId(7)), tenant_seed(42, TenantId(7)));
        assert_ne!(tenant_seed(42, TenantId(7)), tenant_seed(43, TenantId(7)));
    }

    #[test]
    fn create_is_idempotent_and_get_never_creates() {
        let reg = TenantRegistry::new(ServiceConfig::deterministic(1));
        assert!(reg.get(TenantId(5)).is_none());
        assert!(reg.is_empty());
        let a = reg.create(TenantId(5));
        let b = reg.create(TenantId(5));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.len(), 1);
        assert_eq!(a.config().seed, tenant_seed(1, TenantId(5)));
        assert_eq!(reg.ids(), vec![TenantId(5)]);
    }
}
