//! Module loading: `insmod`/`rmmod` with signature validation.
//!
//! Paper §3.2: *"When a protected module is inserted into the kernel
//! (after validating its signature), it is linked against the policy
//! module's implementation of carat_guard. This allows one guard function
//! to be swapped for another without having to recompile the guarded
//! module."*
//!
//! The loader:
//! 1. verifies the container signature against the kernel's trusted keys,
//! 2. re-verifies the IR (§2: the guarding process "can be validated by
//!    the kernel when the transformed module is inserted"),
//! 3. resolves imports against the export table (private symbols like
//!    `carat_guard` resolve only because the module passed verification),
//! 4. lays the module out in module space — text pages read-only (§2) —
//!    and initializes its globals in simulated memory.

use std::collections::BTreeMap;
use std::sync::Arc;

use kop_compiler::{CompilerKey, SignedModule};
use kop_core::{KernelError, KernelResult, VAddr};
use kop_ir::{verify_module, GlobalInit, Module};
use kop_trace::{assign_guard_sites, GuardSite, Producer, SiteTable, TraceEvent, Tracer};

use crate::kernel::{Kernel, KernelConfig};

/// The immutable execution image of a loaded module: the verified IR,
/// the address layout, the guard-site table — everything an executor
/// needs per call. Built once at insmod and shared behind an `Arc`, so
/// `Interp::call` clones one pointer instead of deep-copying the module
/// on every invocation.
#[derive(Debug)]
pub struct ModuleImage {
    /// The verified IR the interpreter executes.
    pub ir: Module,
    /// Address of each global.
    pub globals: BTreeMap<String, VAddr>,
    /// Address assigned to each function symbol (for `FuncAddr` values).
    pub func_addrs: BTreeMap<String, VAddr>,
    /// Guard-site lookup table registered with the kernel tracer at
    /// insmod (`None` when the module has no guard calls). The
    /// interpreter consults this to attribute each dynamic check to its
    /// stable site.
    pub sites: Option<Arc<SiteTable>>,
    /// Flat bytecode compiled once here at insmod (`kop-vm`): the
    /// program the interpreter's production engine runs. A module that
    /// cannot be lowered is refused at insmod, so every image has one.
    pub compiled: kop_vm::CompiledModule,
}

/// The address-space footprint of a loaded module, captured so a
/// supervisor can re-insert a quarantined module at the *same* addresses
/// (the cached bytecode has globals and function entry points
/// pre-resolved). Module space is never reclaimed, so the original slots
/// stay free for rebinding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuleLayout {
    /// Base of the text mapping.
    pub text_base: VAddr,
    /// Size of the text mapping.
    pub text_size: u64,
    /// Base of the data mapping (globals).
    pub data_base: VAddr,
    /// Size of the data mapping.
    pub data_size: u64,
    /// Content hash of the signed container the image was built from.
    pub content_hash: String,
    /// Whether the module was guard-injected (`guard_count > 0`).
    pub is_protected: bool,
}

/// A module resident in the kernel.
#[derive(Debug)]
pub struct LoadedModule {
    /// Module name.
    pub name: String,
    /// The address-space footprint (text read-only), content hash and
    /// protection bit; a supervised restart reuses it as it stands.
    pub layout: ModuleLayout,
    /// The shared execution image (IR + layout + sites).
    image: Arc<ModuleImage>,
}

impl LoadedModule {
    /// The shared execution image. Cloning the returned `Arc` is the
    /// per-call cost of entering module code.
    pub fn image(&self) -> &Arc<ModuleImage> {
        &self.image
    }

    /// The verified IR the interpreter executes.
    pub fn ir(&self) -> &Module {
        &self.image.ir
    }

    /// Address of each global.
    pub fn globals(&self) -> &BTreeMap<String, VAddr> {
        &self.image.globals
    }

    /// Address assigned to each function symbol.
    pub fn func_addrs(&self) -> &BTreeMap<String, VAddr> {
        &self.image.func_addrs
    }

    /// Guard-site lookup table (None: unguarded module).
    pub fn sites(&self) -> Option<&Arc<SiteTable>> {
        self.image.sites.as_ref()
    }

    /// The bytecode compiled at insmod. Always `Some`: a module that
    /// cannot be lowered is refused at insmod.
    pub fn compiled(&self) -> Option<&kop_vm::CompiledModule> {
        Some(&self.image.compiled)
    }
}

/// A staging failure: the underlying error, plus the dmesg line the
/// serialized `insmod` path would have logged for it (`None` where the
/// serialized path fails silently).
#[derive(Debug)]
pub struct StageError {
    /// The dmesg line to log, if the failure is a logged one.
    pub dmesg: Option<String>,
    /// The underlying error.
    pub err: KernelError,
}

impl StageError {
    fn silent(err: KernelError) -> StageError {
        StageError { dmesg: None, err }
    }
}

/// Phase 1 of the stall-free insmod path: everything expensive —
/// signature verification, parsing, kernel-side IR re-verification,
/// the static guard-coverage proof, and the
/// deterministic guard-site walk — runs here against an immutable
/// snapshot of the kernel's loading configuration, with **no** access to
/// mutable kernel state. An insmod storm stages on worker threads while
/// the check path (and every other tenant's staging) proceeds untouched;
/// only the short [`Kernel::reserve_module`] / [`Kernel::commit_module`]
/// sections serialize on the kernel.
pub struct ModuleStager {
    trusted_keys: Vec<CompilerKey>,
    config: KernelConfig,
}

/// A verified, proof-carrying module awaiting its reservation.
/// Produced by [`ModuleStager::stage`]; consumed by
/// [`Kernel::commit_module`].
#[derive(Debug)]
pub struct StagedModule {
    /// Verified IR, already renamed to the instance name.
    ir: Module,
    /// The deterministic guard-site walk over the shipped IR.
    guard_sites: Vec<GuardSite>,
    /// Whether the container signature verified against a trusted key.
    signature_ok: bool,
    /// Whether the static verifier proved guard coverage at stage time.
    statically_proven: bool,
    /// Content hash of the signed container.
    content_hash: String,
    /// Attested guard count (`is_protected` iff > 0).
    guard_count: u64,
}

impl StagedModule {
    /// The instance name this staging will load under.
    pub fn name(&self) -> &str {
        &self.ir.name
    }

    /// Whether the module is "trusted" for private-symbol resolution:
    /// its signature verified, or the kernel itself proved it guarded.
    pub fn trusted(&self) -> bool {
        self.signature_ok || self.statically_proven
    }

    /// Phase 3, also lock-free: lower the IR to bytecode and register
    /// its guard-site track with the (thread-safe) tracer. Runs between
    /// [`Kernel::reserve_module`] and [`Kernel::commit_module`], outside
    /// any kernel critical section. A lowering failure registers no
    /// track and travels to the commit, which refuses the module.
    pub fn lower(&self, reservation: &ModuleReservation, tracer: &Tracer) -> LoweredModule {
        let lower = |sites: Option<&SiteTable>| {
            kop_vm::lower_module(
                &self.ir,
                &reservation.global_addrs,
                &reservation.func_addrs,
                sites,
            )
        };
        if self.guard_sites.is_empty() {
            return LoweredModule {
                sites: None,
                compiled: lower(None),
            };
        }
        match tracer.register_module_sites(&self.ir.name, &self.guard_sites, |t| lower(Some(t))) {
            Ok((sites, compiled)) => LoweredModule {
                sites: Some(sites),
                compiled: Ok(compiled),
            },
            Err(e) => LoweredModule {
                sites: None,
                compiled: Err(e),
            },
        }
    }
}

impl ModuleStager {
    /// Stage a signed module: verify, parse, re-verify, prove.
    /// CPU-bound and lock-free — safe to run on any thread, concurrently
    /// with guard checks and with other stagings.
    pub fn stage(
        &self,
        signed: &SignedModule,
        instance: Option<&str>,
    ) -> Result<StagedModule, StageError> {
        let verification = self.config.verification;

        // 1. Signature validation. In `Verification::Static` mode a bad
        // signature is tolerated — step 2b's proof is what gates the
        // module; `Unenforced` tolerates it with no proof at all.
        let verify_result = signed.verify(&self.trusted_keys);
        let signature_ok = verify_result.is_ok();
        let ir = match verify_result {
            Ok(ir) => ir,
            Err(e) => {
                if verification.needs_signature() {
                    let err = KernelError::BadSignature(e.to_string());
                    return Err(StageError {
                        dmesg: Some(format!("insmod: {err}")),
                        err,
                    });
                }
                // Parse without trusting the signature — either
                // `Unenforced`, or Static mode about to prove the module
                // on its own merits.
                kop_ir::parse_module(&signed.ir_text)
                    .map_err(|pe| StageError::silent(KernelError::BadSignature(pe.to_string())))?
            }
        };

        // The signature (or the static proof below) covers the shipped
        // container; renaming the parsed instance afterwards changes only
        // the loaded identity, which every later keyed structure (symbol
        // provider, site track, violation budget, dispatch) sees
        // consistently.
        let mut ir = ir;
        if let Some(instance) = instance {
            ir.name = instance.to_string();
        }

        // 2. Kernel-side re-verification.
        verify_module(&ir).map_err(|e| {
            StageError::silent(KernelError::BadSignature(format!("IR invalid: {e}")))
        })?;

        // 2b. Static guard-coverage proof (paper §2: the guarding process
        // "can be validated by the kernel when the transformed module is
        // inserted"). The independent translation validator re-proves
        // full coverage and re-derives every optimizer elision from
        // scratch, so a guard-stripped module — or an optimized one whose
        // ledger it cannot re-establish — is refused even with a valid
        // signature. The loader *proves* the claims, it does not trust
        // the attestation bits: a verified signature means step 1 derived
        // the attestation again from this IR and ledger, so its coverage
        // bit already is the validator's verdict, and only a module
        // without that proof runs the validator here.
        let statically_proven = verification.runs_static();
        if statically_proven && !(signature_ok && signed.attestation.guards_covered) {
            let ledger =
                match kop_analysis::ObligationLedger::parse(&signed.attestation.obligations) {
                    Ok(l) => l,
                    Err(e) => {
                        let err = KernelError::StaticVerification(format!(
                            "obligation ledger invalid: {e}"
                        ));
                        return Err(StageError {
                            dmesg: Some(format!("insmod {}: {err}", ir.name)),
                            err,
                        });
                    }
                };
            let report = kop_analysis::validate_module(&ir, &ledger);
            if !report.is_clean() {
                let first = report
                    .errors()
                    .next()
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "guard coverage not provable".into());
                let err = KernelError::StaticVerification(format!(
                    "{} ({} error(s) total)",
                    first,
                    report.errors().count()
                ));
                return Err(StageError {
                    dmesg: Some(format!("insmod {}: {err}", ir.name)),
                    err,
                });
            }
        }

        // Guard-site walk: recompute deterministically over the *shipped*
        // IR (never the attested numbers — the signed path already
        // cross-checked the attested site digest inside
        // `SignedModule::verify`, and the unsigned/static path trusts
        // only what it can derive itself).
        let guard_sites = assign_guard_sites(&ir);

        Ok(StagedModule {
            ir,
            guard_sites,
            signature_ok,
            statically_proven,
            content_hash: signed.content_hash(),
            guard_count: signed.attestation.guard_count,
        })
    }
}

/// Phase 2's output: the instance name is claimed and its address-space
/// slots are carved out. Handed (with the [`StagedModule`]) to phase 3
/// lowering and phase 4 commit.
#[derive(Debug)]
pub struct ModuleReservation {
    /// The reserved instance name (held in the kernel's pending set).
    pub name: String,
    /// Base of the text mapping.
    pub text_base: VAddr,
    /// Size of the text mapping.
    pub text_size: u64,
    /// Base of the data mapping.
    pub data_base: VAddr,
    /// Size of the data mapping.
    pub data_size: u64,
    /// Address assigned to each function symbol.
    pub func_addrs: BTreeMap<String, VAddr>,
    /// Address assigned to each global.
    pub global_addrs: BTreeMap<String, VAddr>,
}

/// Phase 3's output: the registered site track and the lowered bytecode
/// (or why lowering failed).
#[derive(Debug)]
pub struct LoweredModule {
    sites: Option<Arc<SiteTable>>,
    compiled: Result<kop_vm::CompiledModule, kop_vm::LowerError>,
}

impl Kernel {
    /// Insert a signed module (insmod).
    pub fn insmod(&mut self, signed: &SignedModule) -> KernelResult<&LoadedModule> {
        self.insmod_as(signed, None)
    }

    /// Insert a signed module under an explicit instance name (the live
    /// upgrade loads `name#v2` alongside the running `name`). All
    /// verification runs against the signed container exactly as
    /// [`Kernel::insmod`]; only the loaded identity — duplicate check,
    /// symbol provider, guard-site track, violation accounting — uses the
    /// instance name.
    pub fn insmod_named(
        &mut self,
        signed: &SignedModule,
        instance: &str,
    ) -> KernelResult<&LoadedModule> {
        self.insmod_as(signed, Some(instance))
    }

    /// The serialized insmod path, now a thin wrapper over the staged
    /// pipeline: stage (lock-free) → reserve (short critical section) →
    /// lower (lock-free) → commit (short critical section). Callers that
    /// want the stall-free concurrency run the phases themselves via
    /// [`Kernel::stager`].
    fn insmod_as(
        &mut self,
        signed: &SignedModule,
        instance: Option<&str>,
    ) -> KernelResult<&LoadedModule> {
        self.check_alive()?;
        let staged = match self.stager().stage(signed, instance) {
            Ok(s) => s,
            Err(e) => {
                if let Some(line) = &e.dmesg {
                    self.printk(line);
                }
                return Err(e.err);
            }
        };
        let reservation = self.reserve_module(&staged)?;
        let lowered = staged.lower(&reservation, self.tracer());
        self.commit_module(staged, reservation, lowered)
    }

    /// A [`ModuleStager`] snapshotting this kernel's trusted keys and
    /// loading configuration. The stager holds no lock and no reference
    /// into the kernel — `stage()` runs on any thread while guard checks
    /// (and reserve/commit sections of *other* modules) proceed.
    pub fn stager(&self) -> ModuleStager {
        ModuleStager {
            trusted_keys: self.trusted_keys().to_vec(),
            config: self.config().clone(),
        }
    }

    /// Phase 2 of the staged insmod: claim the instance name and carve
    /// out its address-space slots. This is a **short** critical section
    /// — name checks, import resolution against the export table, and
    /// two bump allocations; no verification, no lowering, no proofs.
    /// The name goes into the pending set so a racing insmod of the same
    /// name is refused here, not after it wasted a full verify.
    pub fn reserve_module(&mut self, staged: &StagedModule) -> KernelResult<ModuleReservation> {
        self.check_alive()?;
        let name = staged.ir.name.clone();
        if self.modules().iter().any(|m| m.name == name) || self.pending.contains(&name) {
            return Err(KernelError::ModuleAlreadyLoaded(name));
        }

        // Import resolution. The module is "trusted" for private-symbol
        // purposes iff its signature verified — or, in static mode, iff
        // the kernel itself proved the module guarded.
        let trusted = staged.trusted();
        for import in staged.ir.imported_symbols() {
            if self.symbols.resolve(import, trusted).is_none() {
                let err = KernelError::UnresolvedSymbol(import.to_string());
                self.printk(&format!("insmod {name}: {err}"));
                return Err(err);
            }
        }

        // Layout: text (one slot per function, page-ish sizing by IR
        // length) then data (globals). Addresses only — the initializer
        // writes happen at commit.
        let text_size = (staged.ir.functions.len().max(1) as u64) * 0x100;
        let text_base = self.alloc_module_space(text_size)?;
        let mut func_addrs = BTreeMap::new();
        for (i, f) in staged.ir.functions.iter().enumerate() {
            func_addrs.insert(f.name.clone(), VAddr(text_base.raw() + (i as u64) * 0x100));
        }

        let mut data_size = 0u64;
        let mut global_addrs = BTreeMap::new();
        let mut global_offsets = BTreeMap::new();
        for g in &staged.ir.globals {
            let align = g.ty.align_of().max(1);
            data_size = data_size.div_ceil(align) * align;
            global_offsets.insert(g.name.clone(), data_size);
            data_size += g.ty.size_of().max(1);
        }
        let data_base = self.alloc_module_space(data_size.max(1))?;
        for (gname, off) in &global_offsets {
            global_addrs.insert(gname.clone(), VAddr(data_base.raw() + off));
        }

        self.pending.insert(name.clone());
        Ok(ModuleReservation {
            name,
            text_base,
            text_size,
            data_base,
            data_size,
            func_addrs,
            global_addrs,
        })
    }

    /// Abandon a reservation (a stall-free driver dropping a staged
    /// module between reserve and commit). The name becomes loadable
    /// again; the address-space slots stay consumed (module space never
    /// reclaims).
    pub fn abort_reservation(&mut self, reservation: ModuleReservation) {
        self.pending.remove(&reservation.name);
    }

    /// Phase 4 of the staged insmod: publish the module. Another
    /// **short** critical section — write the global initializers, map
    /// text read-only, record the trace/lifecycle events, and push onto
    /// the module list. Everything expensive already happened off-lock.
    pub fn commit_module(
        &mut self,
        staged: StagedModule,
        reservation: ModuleReservation,
        lowered: LoweredModule,
    ) -> KernelResult<&LoadedModule> {
        // The reservation is consumed either way: a failed commit must
        // not wedge the name forever.
        self.pending.remove(&reservation.name);
        self.check_alive()?;

        let StagedModule {
            ir,
            guard_sites,
            content_hash,
            guard_count,
            ..
        } = staged;
        let LoweredModule { sites, compiled } = lowered;
        // A module the production engine cannot run is refused before
        // anything is written: nothing is listed and the name loads again.
        let compiled = match compiled {
            Ok(c) => c,
            Err(e) => {
                let err = KernelError::BadSignature(format!("IR invalid: {e}"));
                self.printk(&format!("insmod {}: {err}", ir.name));
                return Err(err);
            }
        };

        // Fresh module space reads zero: `Zero` globals need no write.
        self.init_globals(&ir, &reservation.global_addrs, false)?;

        // Text pages are mapped read-only (§2: paging prevents
        // self-modifying module code).
        self.mem
            .protect_readonly(reservation.text_base, reservation.text_size);

        let layout = ModuleLayout {
            text_base: reservation.text_base,
            text_size: reservation.text_size,
            data_base: reservation.data_base,
            data_size: reservation.data_size,
            content_hash,
            is_protected: guard_count > 0,
        };
        let image = Arc::new(ModuleImage {
            ir,
            globals: reservation.global_addrs,
            func_addrs: reservation.func_addrs,
            sites,
            compiled,
        });
        let loaded = LoadedModule {
            name: image.ir.name.clone(),
            layout,
            image,
        };
        self.tracer().record(
            Producer::Loader,
            TraceEvent::ModuleLoad {
                module: loaded.name.clone(),
                guard_sites: guard_sites.len() as u64,
            },
        );
        self.printk(&format!(
            "insmod {}: {} function(s), {} global(s), {} guard(s), text at {}",
            loaded.name,
            loaded.ir().functions.len(),
            loaded.ir().globals.len(),
            guard_count,
            loaded.layout.text_base,
        ));
        self.lifecycle().set_state(&loaded.name, "running");
        self.push_module(loaded);
        Ok(self.modules().last().expect("just pushed"))
    }

    /// Remove a module (rmmod). Restores its text pages to writable and
    /// unexports anything it provided.
    pub fn rmmod(&mut self, name: &str) -> KernelResult<()> {
        self.check_alive()?;
        let m = self
            .take_module(name)
            .ok_or_else(|| KernelError::NoSuchModule(name.to_string()))?;
        self.mem
            .protect_readwrite(m.layout.text_base, m.layout.text_size);
        self.symbols.remove_provider(name);
        self.tracer().record(
            Producer::Loader,
            TraceEvent::ModuleUnload {
                module: name.to_string(),
            },
        );
        self.lifecycle().forget(name);
        self.printk(&format!("rmmod {name}"));
        Ok(())
    }

    /// Re-insert a quarantined (or cleanly removed) module from its
    /// cached execution image, at its original addresses — the
    /// supervisor's restart step. No recompile and no re-lowering: the
    /// image's bytecode has every global and entry point pre-resolved, so
    /// the module *must* come back at the layout it first loaded at
    /// (module space never reclaims, so those slots are still free).
    /// Guard sites are **not** re-registered — the tracer track survives
    /// the quarantine, so per-site counts reconcile across restarts.
    ///
    /// The signed container is accepted exactly as insmod accepts it —
    /// through [`ModuleStager::stage`] under the kernel's configuration —
    /// and its content hash must match the one the image was built from.
    /// A promoted tier the image carries stays installed: its generation
    /// tag decides whether it still admits.
    pub fn restart_module(
        &mut self,
        signed: &SignedModule,
        image: &Arc<ModuleImage>,
        layout: &ModuleLayout,
    ) -> KernelResult<()> {
        self.check_alive()?;
        let name = image.ir.name.clone();
        if self.modules().iter().any(|m| m.name == name) {
            return Err(KernelError::ModuleAlreadyLoaded(name));
        }
        if let Err(e) = self.stager().stage(signed, Some(&name)) {
            if e.dmesg.is_some() {
                self.printk(&format!("restart {name}: {}", e.err));
            }
            return Err(e.err);
        }
        if signed.content_hash() != layout.content_hash {
            return Err(KernelError::BadSignature(
                "restart: container does not match cached image".into(),
            ));
        }

        // Unlike first insmod, the data pages are not pristine: every
        // initializer is written again, zeroes included, or the module
        // would resume with its pre-quarantine state.
        self.init_globals(&image.ir, &image.globals, true)?;
        self.mem
            .protect_readonly(layout.text_base, layout.text_size);

        // Fresh violation budget: the restart is a clean slate.
        self.reset_violations(&name);

        self.push_module(LoadedModule {
            name: name.clone(),
            layout: layout.clone(),
            image: Arc::clone(image),
        });
        let attempt = self.lifecycle().note_restart(&name);
        self.tracer().record(
            Producer::Loader,
            TraceEvent::ModuleRestart {
                module: name.clone(),
                attempt,
            },
        );
        self.printk(&format!(
            "carat: restarted module '{name}' (attempt {attempt})"
        ));
        Ok(())
    }

    /// Write every global's initializer at its address; `Zero` ones only
    /// when `zero_fill` is set.
    fn init_globals(
        &mut self,
        ir: &Module,
        addrs: &BTreeMap<String, VAddr>,
        zero_fill: bool,
    ) -> KernelResult<()> {
        for g in &ir.globals {
            let addr = addrs[&g.name];
            let written = match &g.init {
                GlobalInit::Zero if !zero_fill => Ok(()),
                GlobalInit::Zero => self
                    .mem
                    .write_bytes(addr, &vec![0u8; g.ty.size_of().max(1) as usize]),
                GlobalInit::Int(v) => {
                    let size = g.ty.size_of().clamp(1, 8);
                    self.mem.write_uint(addr, kop_core::Size(size), *v)
                }
                GlobalInit::Bytes(bytes) => self.mem.write_bytes(addr, bytes),
            };
            written.map_err(|e| KernelError::NoMemory(e.to_string()))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelConfig;
    use kop_compiler::{compile_module, CompileOptions, CompilerKey};
    use kop_core::Size;
    use kop_policy::PolicyModule;
    use std::sync::Arc;

    const SRC: &str = r#"
module "demo"
global @counter : i64 = 41
global @table : [8 x i64] = zero
define i64 @bump(ptr %p) {
entry:
  %v = load i64, ptr %p
  %v2 = add i64 %v, 1
  store i64 %v2, ptr %p
  ret i64 %v2
}
"#;

    fn compile(src: &str, opts: &CompileOptions, key: &CompilerKey) -> SignedModule {
        let m = kop_ir::parse_module(src).unwrap();
        compile_module(m, opts, key).unwrap().signed
    }

    #[test]
    fn insmod_verified_module() {
        let (mut kernel, key) = Kernel::boot_default();
        let signed = compile(SRC, &CompileOptions::carat_kop(), &key);
        let loaded = kernel.insmod(&signed).unwrap();
        assert_eq!(loaded.name, "demo");
        assert!(loaded.layout.is_protected);
        assert_eq!(loaded.globals().len(), 2);
        let counter = loaded.globals()["counter"];
        let mut mem_val = [0u8; 8];
        // Global initializer landed in memory.
        kernel.mem.read_bytes(counter, &mut mem_val).unwrap();
        assert_eq!(u64::from_le_bytes(mem_val), 41);
        assert!(kernel.module("demo").is_some());
    }

    #[test]
    fn insmod_rejects_bad_signature() {
        let (mut kernel, key) = Kernel::boot_default();
        let mut signed = compile(SRC, &CompileOptions::carat_kop(), &key);
        signed.ir_text.push(' '); // any tamper breaks the MAC
        let err = kernel.insmod(&signed).unwrap_err();
        assert!(matches!(err, KernelError::BadSignature(_)));
        assert!(kernel.module("demo").is_none());
        assert!(kernel.dmesg().iter().any(|l| l.contains("insmod")));
    }

    #[test]
    fn insmod_rejects_untrusted_key() {
        let (mut kernel, _) = Kernel::boot_default();
        let rogue = CompilerKey::from_passphrase("rogue", "rogue");
        let signed = compile(SRC, &CompileOptions::carat_kop(), &rogue);
        assert!(matches!(
            kernel.insmod(&signed).unwrap_err(),
            KernelError::BadSignature(_)
        ));
    }

    #[test]
    fn unprotected_module_cannot_import_guard() {
        // A module that imports carat_guard but was signed by an untrusted
        // key, inserted into a kernel with signatures not required: the
        // private export must not resolve.
        let (_, _key) = Kernel::boot_default();
        let rogue = CompilerKey::from_passphrase("rogue", "rogue");
        let src = r#"
module "sneak"
declare void @carat_guard(ptr, i64, i32)
define void @f(ptr %p) {
entry:
  call void @carat_guard(ptr %p, i64 8, i32 1)
  ret void
}
"#;
        let signed = compile(src, &CompileOptions::baseline(), &rogue);
        let policy = Arc::new(PolicyModule::new());
        let mut kernel = Kernel::boot(
            policy,
            vec![CompilerKey::from_passphrase(
                "operator-key",
                "carat-kop-dev",
            )],
            KernelConfig {
                verification: crate::kernel::Verification::Unenforced,
                ..KernelConfig::default()
            },
        );
        let err = kernel.insmod(&signed).unwrap_err();
        assert!(matches!(err, KernelError::UnresolvedSymbol(s) if s == "carat_guard"));
    }

    #[test]
    fn duplicate_insmod_rejected() {
        let (mut kernel, key) = Kernel::boot_default();
        let signed = compile(SRC, &CompileOptions::carat_kop(), &key);
        kernel.insmod(&signed).unwrap();
        assert!(matches!(
            kernel.insmod(&signed).unwrap_err(),
            KernelError::ModuleAlreadyLoaded(_)
        ));
    }

    #[test]
    fn rmmod_restores_text_and_unloads() {
        let (mut kernel, key) = Kernel::boot_default();
        let signed = compile(SRC, &CompileOptions::carat_kop(), &key);
        let text_base = kernel.insmod(&signed).unwrap().layout.text_base;
        // Text is read-only while loaded.
        assert!(kernel.mem.write_uint(text_base, Size(8), 1).is_err());
        kernel.rmmod("demo").unwrap();
        assert!(kernel.module("demo").is_none());
        assert!(kernel.mem.write_uint(text_base, Size(8), 1).is_ok());
        assert!(matches!(
            kernel.rmmod("demo").unwrap_err(),
            KernelError::NoSuchModule(_)
        ));
    }

    fn static_kernel() -> Kernel {
        let key = CompilerKey::from_passphrase("operator-key", "carat-kop-dev");
        Kernel::boot(
            Arc::new(PolicyModule::new()),
            vec![key],
            KernelConfig {
                verification: crate::kernel::Verification::Static,
                ..KernelConfig::default()
            },
        )
    }

    #[test]
    fn static_mode_accepts_unsigned_but_proven_module() {
        // Signed by a key the kernel does NOT trust — but the module is
        // provably guarded, so Static mode loads it and even grants it
        // the private carat_guard import.
        let rogue = CompilerKey::from_passphrase("rogue", "rogue");
        let signed = compile(SRC, &CompileOptions::carat_kop(), &rogue);
        let mut kernel = static_kernel();
        let loaded = kernel.insmod(&signed).unwrap();
        assert!(loaded.layout.is_protected);
        assert!(loaded.ir().imported_symbols().contains(&"carat_guard"));
    }

    #[test]
    fn static_mode_rejects_guard_stripped_module() {
        // A container whose IR claims guarding but has one access whose
        // guard was stripped: even a *trusted* signature must not save
        // it — but such a container cannot be produced by the driver, so
        // hand-assemble the stripped IR as an untrusted container.
        let rogue = CompilerKey::from_passphrase("rogue", "rogue");
        let src = r#"
module "stripped"
declare void @carat_guard(ptr, i64, i32)
define i64 @bump(ptr %p, ptr %out) {
entry:
  call void @carat_guard(ptr %p, i64 8, i32 1)
  %v = load i64, ptr %p
  %v2 = add i64 %v, 1
  store i64 %v2, ptr %out
  ret i64 %v2
}
"#;
        let m = kop_ir::parse_module(src).unwrap();
        let attestation = kop_compiler::Attestation::check(&m).unwrap();
        let signed = SignedModule::sign(&m, attestation, &rogue);
        let mut kernel = static_kernel();
        let err = kernel.insmod(&signed).unwrap_err();
        let KernelError::StaticVerification(msg) = err else {
            panic!("expected StaticVerification, got {err:?}");
        };
        // The diagnostic names the lint and the offending instruction.
        assert!(msg.contains("KA001"), "{msg}");
        assert!(msg.contains("store"), "{msg}");
        assert!(kernel.module("stripped").is_none());
        assert!(kernel
            .dmesg()
            .iter()
            .any(|l| l.contains("static verification failed")));
    }

    #[test]
    fn signature_and_static_requires_both() {
        let trusted_key = CompilerKey::from_passphrase("operator-key", "carat-kop-dev");
        let rogue = CompilerKey::from_passphrase("rogue", "rogue");
        let mk = || {
            Kernel::boot(
                Arc::new(PolicyModule::new()),
                vec![trusted_key.clone()],
                KernelConfig {
                    verification: crate::kernel::Verification::SignatureAndStatic,
                    ..KernelConfig::default()
                },
            )
        };
        // Proven but unsigned: refused.
        let unsigned = compile(SRC, &CompileOptions::carat_kop(), &rogue);
        assert!(matches!(
            mk().insmod(&unsigned).unwrap_err(),
            KernelError::BadSignature(_)
        ));
        // Signed and proven: loads.
        let good = compile(SRC, &CompileOptions::carat_kop(), &trusted_key);
        mk().insmod(&good).unwrap();
        // Signed but unguarded: its verified attestation says not covered,
        // and the refusal carries the validator's findings.
        let unguarded = compile(SRC, &CompileOptions::baseline(), &trusted_key);
        assert!(!unguarded.attestation.guards_covered);
        let err = mk().insmod(&unguarded).unwrap_err();
        assert!(
            matches!(&err, KernelError::StaticVerification(m) if m.contains("KA001")),
            "{err:?}"
        );
    }

    #[test]
    fn static_mode_accepts_optimized_guards() {
        // Hoisted guards break the strict layout but still prove covered.
        let src = r#"
module "opt"
define void @f(ptr %buf, i64 %n) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp ult i64 %i, %n
  condbr i1 %c, %body, %exit
body:
  %p = gep i64, ptr %buf, i64 %i
  %v = load i64, ptr %p
  %i2 = add i64 %i, 1
  br %head
exit:
  ret void
}
"#;
        let rogue = CompilerKey::from_passphrase("rogue", "rogue");
        let signed = compile(src, &CompileOptions::optimized(), &rogue);
        assert!(!signed.attestation.guards_strict);
        let mut kernel = static_kernel();
        kernel.insmod(&signed).unwrap();
    }

    #[test]
    fn staged_pipeline_loads_concurrently_staged_modules() {
        // Phase 1 on worker threads, phases 2–4 serialized on the
        // kernel: the stall-free shape of an insmod storm.
        let (mut kernel, key) = Kernel::boot_default();
        let stager = Arc::new(kernel.stager());
        let mut handles = Vec::new();
        for i in 0..8 {
            let stager = Arc::clone(&stager);
            let signed = compile(SRC, &CompileOptions::carat_kop(), &key);
            handles.push(std::thread::spawn(move || {
                let name = format!("demo{i}");
                stager.stage(&signed, Some(&name)).map_err(|e| e.err)
            }));
        }
        for h in handles {
            let staged = h.join().unwrap().expect("stages clean");
            let res = kernel.reserve_module(&staged).unwrap();
            let lowered = staged.lower(&res, kernel.tracer());
            kernel.commit_module(staged, res, lowered).unwrap();
        }
        assert_eq!(kernel.modules().len(), 8);
        for i in 0..8 {
            let m = kernel.module(&format!("demo{i}")).expect("loaded");
            assert!(m.layout.is_protected);
            assert!(m.compiled().is_some());
        }
    }

    #[test]
    fn reservation_blocks_duplicates_until_commit_or_abort() {
        let (mut kernel, key) = Kernel::boot_default();
        let signed = compile(SRC, &CompileOptions::carat_kop(), &key);
        let stager = kernel.stager();
        let a = stager.stage(&signed, None).unwrap();
        let b = stager.stage(&signed, None).unwrap();
        let res_a = kernel.reserve_module(&a).unwrap();
        // The name is pending: a racing reserve is refused *here*, after
        // its cheap check, not after a wasted verify.
        assert!(matches!(
            kernel.reserve_module(&b).unwrap_err(),
            KernelError::ModuleAlreadyLoaded(_)
        ));
        // Abort releases the name; the second staging goes through.
        kernel.abort_reservation(res_a);
        let res_b = kernel.reserve_module(&b).unwrap();
        let lowered = b.lower(&res_b, kernel.tracer());
        kernel.commit_module(b, res_b, lowered).unwrap();
        assert!(kernel.module("demo").is_some());
        // And a committed module still blocks re-reservation.
        let c = stager.stage(&signed, None).unwrap();
        assert!(matches!(
            kernel.reserve_module(&c).unwrap_err(),
            KernelError::ModuleAlreadyLoaded(_)
        ));
    }

    #[test]
    fn stage_error_carries_serialized_dmesg_line() {
        let (kernel, key) = Kernel::boot_default();
        let mut signed = compile(SRC, &CompileOptions::carat_kop(), &key);
        signed.ir_text.push(' ');
        let err = kernel.stager().stage(&signed, None).unwrap_err();
        assert!(matches!(err.err, KernelError::BadSignature(_)));
        assert!(err.dmesg.unwrap().starts_with("insmod: "));
    }

    /// IR the verifier and the static proof accept but the bytecode
    /// cannot express: the module declares `carat_guard` with one
    /// parameter (arity is checked against the module's own declaration)
    /// and calls it so.
    const UNLOWERABLE: &str = r#"
module "bad"
declare void @carat_guard(ptr)
define void @f(ptr %p) {
entry:
  call void @carat_guard(ptr %p)
  ret void
}
"#;

    #[test]
    fn unlowerable_module_is_refused_under_every_verification_mode() {
        use crate::kernel::Verification;
        let key = CompilerKey::from_passphrase("operator-key", "carat-kop-dev");
        let rogue = CompilerKey::from_passphrase("rogue", "rogue");
        for (verification, signer) in [
            (Verification::Signature, &key),
            (Verification::Static, &rogue),
            (Verification::SignatureAndStatic, &key),
        ] {
            let m = kop_ir::parse_module(UNLOWERABLE).unwrap();
            let attestation = kop_compiler::Attestation::check(&m).unwrap();
            let signed = SignedModule::sign(&m, attestation, signer);
            let mut kernel = Kernel::boot(
                Arc::new(PolicyModule::new()),
                vec![key.clone()],
                KernelConfig {
                    verification,
                    ..KernelConfig::default()
                },
            );
            let err = kernel.insmod(&signed).unwrap_err();
            assert!(
                matches!(&err, KernelError::BadSignature(m) if m.contains("carat_guard")),
                "{verification:?}: {err:?}"
            );
            assert!(kernel.modules().is_empty(), "{verification:?}");
            assert!(kernel.dmesg().iter().any(|l| l.starts_with("insmod bad: ")));
            // Nothing was left reserved: the name loads again.
            let good = compile(
                &SRC.replace("\"demo\"", "\"bad\""),
                &CompileOptions::carat_kop(),
                &key,
            );
            kernel.insmod(&good).unwrap();
            assert!(kernel.module("bad").is_some());
        }
    }

    #[test]
    fn a_refused_restart_lists_nothing_and_the_name_stays_restartable() {
        let (mut kernel, key) = Kernel::boot_default();
        let signed = compile(SRC, &CompileOptions::carat_kop(), &key);
        let m = kernel.insmod(&signed).unwrap();
        let (image, layout) = (Arc::clone(m.image()), m.layout.clone());
        let (counter, table) = (image.globals["counter"], image.globals["table"]);
        kernel.mem.write_uint(counter, Size(8), 99).unwrap();
        kernel.mem.write_uint(table, Size(8), 5).unwrap();
        kernel.rmmod("demo").unwrap();

        // The stager refuses a tampered container; a container it accepts
        // must still be the one the image was built from.
        let mut tampered = signed.clone();
        tampered.ir_text.push(' ');
        let other = compile(SRC, &CompileOptions::optimized(), &key);
        for refused in [&tampered, &other] {
            let err = kernel.restart_module(refused, &image, &layout).unwrap_err();
            assert!(matches!(err, KernelError::BadSignature(_)), "{err:?}");
            assert!(kernel.modules().is_empty());
        }
        assert!(kernel
            .dmesg()
            .iter()
            .any(|l| l.starts_with("restart demo: ")));

        kernel.restart_module(&signed, &image, &layout).unwrap();
        assert!(kernel.module("demo").is_some());
        // Every initializer is written again, zeroes included.
        assert_eq!(kernel.mem.read_uint(counter, Size(8)).unwrap(), 41);
        assert_eq!(kernel.mem.read_uint(table, Size(8)).unwrap(), 0);
    }

    #[test]
    fn globals_layout_is_aligned_and_disjoint() {
        let (mut kernel, key) = Kernel::boot_default();
        let src = r#"
module "layout"
global @a : i8 = 1
global @b : i64 = 2
global @c : i16 = 3
"#;
        let signed = compile(src, &CompileOptions::carat_kop(), &key);
        let loaded = kernel.insmod(&signed).unwrap();
        let a = loaded.globals()["a"];
        let b = loaded.globals()["b"];
        let c = loaded.globals()["c"];
        assert!(b.is_aligned(8));
        assert!(c.is_aligned(2));
        assert!(a < b && b < c);
        assert!(b.raw() - a.raw() >= 1);
        assert!(c.raw() - b.raw() >= 8);
    }
}
