//! [`NamespaceStore`] — per-module policy namespaces.
//!
//! With one global policy, every tenant's ruleset churn bumps one shared
//! generation, staling *every* module's guard-front slots and promoted
//! bounds; and the check path scans one flat table holding every tenant's
//! regions. The namespace store maps each module id to its **own**
//! [`PolicyModule`] (DESIGN §3.19), so a tenant's publish stales only its
//! own policy's cached grants, and other tenants' stay warm.
//!
//! No guard reads the map: a check holds an `Arc` to its policy, and
//! the map is read where a policy is resolved — at promotion, by an
//! interpreter whose kept policy is another module's or predates the
//! current [`NamespaceStore::version`], at live upgrade — so one lock
//! serves it. The map records no identity of its own: every snapshot's
//! generation is process-wide ([`crate::snapshot`]), so a grant baked
//! from one policy never admits under another, however the two are
//! registered.
//!
//! The store's [`NamespaceStore::version`] moves after every
//! [`NamespaceStore::register`] and [`NamespaceStore::remove`], so a
//! caller that keeps a resolved policy across calls revalidates it with
//! one load.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::module::PolicyModule;

/// Module-id → policy namespace map. See the module docs.
pub struct NamespaceStore {
    policies: RwLock<HashMap<String, Arc<PolicyModule>>>,
    /// The fall-back policy for modules with no namespace of their own.
    global: Arc<PolicyModule>,
    /// Bumped after every `register` and `remove`.
    version: AtomicU64,
}

impl NamespaceStore {
    /// A store whose fall-back is `global`.
    pub fn new(global: Arc<PolicyModule>) -> NamespaceStore {
        NamespaceStore {
            policies: RwLock::new(HashMap::new()),
            global,
            version: AtomicU64::new(0),
        }
    }

    /// The global (fall-back) policy.
    pub fn global(&self) -> &Arc<PolicyModule> {
        &self.global
    }

    /// Register (or replace) the policy namespace for `module`.
    pub fn register(&self, module: &str, policy: Arc<PolicyModule>) {
        self.policies.write().insert(module.to_string(), policy);
        self.version.fetch_add(1, Ordering::SeqCst);
    }

    /// The policy for `module`, if it has a namespace of its own.
    pub fn get(&self, module: &str) -> Option<Arc<PolicyModule>> {
        self.policies.read().get(module).map(Arc::clone)
    }

    /// The policy that governs `module`: its own namespace if registered,
    /// else the global fall-back.
    pub fn resolve(&self, module: &str) -> Arc<PolicyModule> {
        self.get(module).unwrap_or_else(|| Arc::clone(&self.global))
    }

    /// Drop `module`'s namespace (its modules fall back to the global
    /// policy). Returns the removed policy, if any.
    pub fn remove(&self, module: &str) -> Option<Arc<PolicyModule>> {
        let removed = self.policies.write().remove(module);
        self.version.fetch_add(1, Ordering::SeqCst);
        removed
    }

    /// The registry's version: it moves after every [`Self::register`]
    /// and [`Self::remove`], once the map holds the change. A caller
    /// that reads the version, then resolves, may keep the result for
    /// as long as the version reads the same: any later change moves it.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Number of registered namespaces (excluding the global fall-back).
    pub fn len(&self) -> usize {
        self.policies.read().len()
    }

    /// Whether no per-module namespaces are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered module ids (diagnostics; unordered).
    pub fn modules(&self) -> Vec<String> {
        self.policies.read().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_core::{AccessFlags, Protection, Region, Size, VAddr};

    fn rw_policy(base: u64) -> Arc<PolicyModule> {
        let pm = PolicyModule::new();
        pm.add_region(Region::new(VAddr(base), Size(0x1000), Protection::READ_WRITE).unwrap())
            .unwrap();
        Arc::new(pm)
    }

    #[test]
    fn resolve_falls_back_to_global() {
        let ns = NamespaceStore::new(rw_policy(0x1000));
        let p = ns.resolve("unregistered");
        assert!(Arc::ptr_eq(&p, ns.global()));
        assert!(p.check(VAddr(0x1100), Size(8), AccessFlags::RW).is_ok());
        assert!(ns.get("unregistered").is_none());
        assert!(ns.is_empty());
    }

    #[test]
    fn registered_policies_have_fresh_monotonic_generations() {
        let ns = NamespaceStore::new(rw_policy(0x1000));
        let v = ns.version();
        ns.register("mod_a", rw_policy(0x10_0000));
        assert!(ns.version() > v, "a register moves the version");
        ns.register("mod_b", rw_policy(0x20_0000));
        let gen = |m: &str| ns.resolve(m).store_generation();
        let (a, b) = (gen("mod_a"), gen("mod_b"));
        assert!(a > ns.global().store_generation());
        assert_ne!(a, b);
        assert_eq!(ns.len(), 2);
        // Replacement brings a NEW generation — old cached tags die.
        ns.register("mod_a", rw_policy(0x30_0000));
        assert!(gen("mod_a") > b);
        assert_eq!(ns.len(), 2);
    }

    #[test]
    fn tenant_churn_does_not_touch_other_namespaces() {
        let ns = NamespaceStore::new(rw_policy(0x1000));
        ns.register("mod_a", rw_policy(0x10_0000));
        ns.register("mod_b", rw_policy(0x20_0000));
        let a = ns.resolve("mod_a");
        let b = ns.resolve("mod_b");
        let b_gen = b.store_generation();
        let global_gen = ns.global().store_generation();
        // Churn tenant A's ruleset hard.
        for i in 0..16u64 {
            a.add_region(
                Region::new(
                    VAddr(0x40_0000 + i * 0x2000),
                    Size(0x1000),
                    Protection::READ_ONLY,
                )
                .unwrap(),
            )
            .unwrap();
        }
        assert_eq!(b.store_generation(), b_gen, "tenant B unaffected");
        assert_eq!(ns.global().store_generation(), global_gen);
    }

    #[test]
    fn remove_restores_fallback() {
        let ns = NamespaceStore::new(rw_policy(0x1000));
        ns.register("mod_a", rw_policy(0x10_0000));
        let v = ns.version();
        let removed = ns.remove("mod_a").expect("registered");
        assert!(ns.version() > v, "a remove moves the version");
        assert!(!Arc::ptr_eq(&removed, ns.global()));
        assert!(Arc::ptr_eq(&ns.resolve("mod_a"), ns.global()));
        assert!(ns.remove("mod_a").is_none());
    }

    #[test]
    fn concurrent_registrations_all_land_with_distinct_generations() {
        let ns = Arc::new(NamespaceStore::new(rw_policy(0x1000)));
        let mut handles = Vec::new();
        for t in 0..8 {
            let ns = Arc::clone(&ns);
            handles.push(std::thread::spawn(move || {
                for i in 0..32 {
                    ns.register(&format!("mod_{t}_{i}"), rw_policy(0x10_0000));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ns.len(), 8 * 32);
        // All generations distinct.
        let mut gens: Vec<u64> = ns
            .modules()
            .iter()
            .map(|m| ns.resolve(m).store_generation())
            .collect();
        gens.sort_unstable();
        gens.dedup();
        assert_eq!(gens.len(), 8 * 32);
    }
}
