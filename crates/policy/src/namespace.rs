//! [`NamespaceStore`] — sharded per-module policy namespaces.
//!
//! With one global policy, every tenant's ruleset churn bumps one shared
//! generation, staling *every* module's guard-front slots and promoted
//! bounds; and the check path scans one flat table holding every tenant's
//! regions. The namespace store splits both axes (DESIGN §3.19):
//!
//! * each module id maps to its **own** [`PolicyModule`], so a tenant's
//!   publish bumps only its own per-namespace generation — other tenants'
//!   cached grants stay warm;
//! * the map is sharded by module-id hash, so concurrent insmod of many
//!   tenants contends on different locks (and never on the check path,
//!   which holds only an `Arc` to its tenant's policy).
//!
//! Namespace ids are never reused: re-registering a module id assigns a
//! fresh id. A guard front needs no namespace tag: it is bound to one
//! policy object, whose own generation is its tag. The VM's promoted
//! tier records the id of the policy it was baked from, and runs only
//! for a call whose policy still has that id.
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

/// Number of shards. A power of two well above typical core counts:
/// concurrent registration of distinct tenants almost never shares a
/// lock, and the per-shard maps stay tiny even at a 1000-module fleet.
pub const NAMESPACE_SHARDS: usize = 64;

/// FNV-1a — cheap, deterministic (no per-process seed), good enough to
/// spread module names across 64 shards.
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h as usize) & (NAMESPACE_SHARDS - 1)
}

#[derive(Clone)]
struct Entry {
    ns: u64,
    policy: Arc<PolicyModule>,
}

/// Sharded module-id → policy namespace map. See the module docs.
pub struct NamespaceStore {
    shards: Vec<RwLock<HashMap<String, Entry>>>,
    /// Monotonic namespace id allocator. Starts at 2: id 1 is reserved
    /// for the kernel's global (default) policy, 0 means unbound.
    next_ns: AtomicU64,
    /// The fall-back policy for modules with no namespace of their own.
    global: Arc<PolicyModule>,
    /// Bumped after every `register` and `remove`.
    version: AtomicU64,
}

/// Namespace id reserved for the global (default) policy.
pub const GLOBAL_NAMESPACE: u64 = 1;

impl NamespaceStore {
    /// A store whose fall-back is `global` (bound to namespace id 1).
    pub fn new(global: Arc<PolicyModule>) -> NamespaceStore {
        global.set_namespace(GLOBAL_NAMESPACE);
        NamespaceStore {
            shards: (0..NAMESPACE_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            next_ns: AtomicU64::new(GLOBAL_NAMESPACE + 1),
            global,
            version: AtomicU64::new(0),
        }
    }

    /// The global (fall-back) policy.
    pub fn global(&self) -> &Arc<PolicyModule> {
        &self.global
    }

    /// Register (or replace) the policy namespace for `module`. The
    /// policy is bound to a **fresh** namespace id either way — ids are
    /// never reused, so grants cached under a previous registration of
    /// the same module id can never satisfy checks against the new
    /// policy. Returns the assigned id.
    pub fn register(&self, module: &str, policy: Arc<PolicyModule>) -> u64 {
        let ns = self.next_ns.fetch_add(1, Ordering::SeqCst);
        policy.set_namespace(ns);
        let entry = Entry {
            ns,
            policy: Arc::clone(&policy),
        };
        self.shards[shard_of(module)]
            .write()
            .insert(module.to_string(), entry);
        self.version.fetch_add(1, Ordering::SeqCst);
        ns
    }

    /// The policy for `module`, if it has a namespace of its own.
    pub fn get(&self, module: &str) -> Option<Arc<PolicyModule>> {
        self.shards[shard_of(module)]
            .read()
            .get(module)
            .map(|e| Arc::clone(&e.policy))
    }

    /// The namespace id for `module`, if registered.
    pub fn namespace_of(&self, module: &str) -> Option<u64> {
        self.shards[shard_of(module)]
            .read()
            .get(module)
            .map(|e| e.ns)
    }

    /// The policy that governs `module`: its own namespace if registered,
    /// else the global fall-back. This is the loader/check-path resolver;
    /// one shard read-lock (uncontended unless that shard is registering).
    pub fn resolve(&self, module: &str) -> Arc<PolicyModule> {
        self.get(module).unwrap_or_else(|| Arc::clone(&self.global))
    }

    /// Drop `module`'s namespace (its modules fall back to the global
    /// policy). The removed policy keeps its id — nothing else will ever
    /// be bound to it. Returns the removed policy, if any.
    pub fn remove(&self, module: &str) -> Option<Arc<PolicyModule>> {
        let removed = self.shards[shard_of(module)].write().remove(module);
        self.version.fetch_add(1, Ordering::SeqCst);
        removed.map(|e| e.policy)
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
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether no per-module namespaces are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered module ids (diagnostics; unordered across shards).
    pub fn modules(&self) -> Vec<String> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.read().keys().cloned());
        }
        out
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
        assert_eq!(ns.global().namespace(), GLOBAL_NAMESPACE);
        let p = ns.resolve("unregistered");
        assert!(p.check(VAddr(0x1100), Size(8), AccessFlags::RW).is_ok());
        assert!(ns.get("unregistered").is_none());
        assert!(ns.is_empty());
    }

    #[test]
    fn register_assigns_fresh_monotonic_ids() {
        let ns = NamespaceStore::new(rw_policy(0x1000));
        let v = ns.version();
        let a = ns.register("mod_a", rw_policy(0x10_0000));
        assert!(ns.version() > v, "a register moves the version");
        let b = ns.register("mod_b", rw_policy(0x20_0000));
        assert!(a > GLOBAL_NAMESPACE);
        assert_ne!(a, b);
        assert_eq!(ns.namespace_of("mod_a"), Some(a));
        assert_eq!(ns.resolve("mod_a").namespace(), a);
        assert_eq!(ns.len(), 2);
        // Replacement gets a NEW id — old cached (ns, gen) tags die.
        let a2 = ns.register("mod_a", rw_policy(0x30_0000));
        assert!(a2 > b);
        assert_eq!(ns.namespace_of("mod_a"), Some(a2));
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
        assert!(removed.namespace() > GLOBAL_NAMESPACE, "keeps its id");
        assert_eq!(ns.resolve("mod_a").namespace(), GLOBAL_NAMESPACE);
        assert!(ns.remove("mod_a").is_none());
    }

    #[test]
    fn concurrent_registration_across_shards() {
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
        // All ids distinct.
        let mut ids: Vec<u64> = ns
            .modules()
            .iter()
            .map(|m| ns.namespace_of(m).unwrap())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8 * 32);
    }
}
