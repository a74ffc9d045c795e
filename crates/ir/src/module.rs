//! KIR modules: functions, globals, and external declarations.
//!
//! A module is the unit the CARAT KOP compiler transforms, the signer signs,
//! and the kernel loads. External declarations are the module's imports —
//! after guard injection every module imports `carat_guard`, which the
//! loader links against the policy module's private export (paper §3.2).

use crate::function::Function;
use crate::types::Type;

/// Initializer for a global variable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GlobalInit {
    /// All-zero bytes.
    Zero,
    /// An integer value (for integer-typed globals).
    Int(u64),
    /// Raw bytes (must match the type's size).
    Bytes(Vec<u8>),
}

/// A module-level global variable.
#[derive(Clone, Debug)]
pub struct Global {
    /// Symbol name (without the `@`).
    pub name: String,
    /// Value type.
    pub ty: Type,
    /// Initializer.
    pub init: GlobalInit,
}

/// An external function declaration (an import).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExternDecl {
    /// Symbol name.
    pub name: String,
    /// Parameter types.
    pub params: Vec<Type>,
    /// Return type.
    pub ret_ty: Type,
}

/// A KIR module.
#[derive(Clone, Debug, Default)]
pub struct Module {
    /// Module name (e.g. `"e1000e"`).
    pub name: String,
    /// External declarations (imports), in declaration order.
    pub externs: Vec<ExternDecl>,
    /// Global variables, in declaration order.
    pub globals: Vec<Global>,
    /// Function definitions, in declaration order.
    pub functions: Vec<Function>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            ..Module::default()
        }
    }

    /// Find a function definition by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Find a function definition by name, mutably.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    /// Find an external declaration by name.
    pub fn extern_decl(&self, name: &str) -> Option<&ExternDecl> {
        self.externs.iter().find(|e| e.name == name)
    }

    /// Find a global by name.
    pub fn global(&self, name: &str) -> Option<&Global> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Add an external declaration if not already present. Returns whether
    /// it was added (false = an identical declaration already existed).
    ///
    /// Panics if a *conflicting* declaration (same name, different
    /// signature) exists — passes must not silently re-type imports.
    pub fn declare_extern(&mut self, decl: ExternDecl) -> bool {
        if let Some(existing) = self.extern_decl(&decl.name) {
            assert_eq!(
                existing, &decl,
                "conflicting extern declaration for {}",
                decl.name
            );
            return false;
        }
        self.externs.push(decl);
        true
    }

    /// All symbol names this module imports.
    pub fn imported_symbols(&self) -> Vec<&str> {
        self.externs.iter().map(|e| e.name.as_str()).collect()
    }

    /// The signature (params, ret) of a callee visible from this module —
    /// either a definition or an extern.
    pub fn callee_signature(&self, name: &str) -> Option<(Vec<Type>, Type)> {
        if let Some(f) = self.function(name) {
            return Some((f.params.clone(), f.ret_ty.clone()));
        }
        self.extern_decl(name)
            .map(|e| (e.params.clone(), e.ret_ty.clone()))
    }

    /// Total loads + stores across all functions.
    pub fn memory_access_count(&self) -> usize {
        self.functions.iter().map(|f| f.memory_access_count()).sum()
    }

    /// Total calls to `callee` across all functions.
    pub fn call_count(&self, callee: &str) -> usize {
        self.functions.iter().map(|f| f.call_count(callee)).sum()
    }

    /// Total lines of textual IR — a rough "lines of code" metric used when
    /// reporting engineering-effort numbers like the paper's "~19,000 lines".
    pub fn text_lines(&self) -> usize {
        crate::printer::print_module(self).lines().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Inst, Terminator, Value};

    fn module_with_load() -> Module {
        let mut m = Module::new("test");
        m.globals.push(Global {
            name: "counter".into(),
            ty: Type::I64,
            init: GlobalInit::Int(0),
        });
        let mut f = Function::new("touch", vec![Type::Ptr], Type::I64);
        let entry = f.add_block("entry");
        let ld = f.alloc_named_inst(
            Inst::Load {
                ty: Type::I64,
                ptr: Value::Arg(0),
            },
            "v",
        );
        f.push_inst(entry, ld);
        f.block_mut(entry).term = Some(Terminator::Ret(Some(Value::Inst(ld))));
        m.functions.push(f);
        m
    }

    #[test]
    fn lookups() {
        let m = module_with_load();
        assert!(m.function("touch").is_some());
        assert!(m.function("missing").is_none());
        assert!(m.global("counter").is_some());
        assert_eq!(m.memory_access_count(), 1);
    }

    #[test]
    fn symbols() {
        let mut m = module_with_load();
        m.declare_extern(ExternDecl {
            name: "carat_guard".into(),
            params: vec![Type::Ptr, Type::I64, Type::I32],
            ret_ty: Type::Void,
        });
        assert_eq!(m.imported_symbols(), vec!["carat_guard"]);
    }

    #[test]
    fn declare_extern_idempotent() {
        let mut m = Module::new("x");
        let d = ExternDecl {
            name: "f".into(),
            params: vec![Type::I64],
            ret_ty: Type::Void,
        };
        assert!(m.declare_extern(d.clone()));
        assert!(!m.declare_extern(d));
        assert_eq!(m.externs.len(), 1);
    }

    #[test]
    #[should_panic(expected = "conflicting extern")]
    fn declare_extern_conflict_panics() {
        let mut m = Module::new("x");
        m.declare_extern(ExternDecl {
            name: "f".into(),
            params: vec![Type::I64],
            ret_ty: Type::Void,
        });
        m.declare_extern(ExternDecl {
            name: "f".into(),
            params: vec![Type::I32],
            ret_ty: Type::Void,
        });
    }

    #[test]
    fn callee_signature_prefers_definition() {
        let m = module_with_load();
        let (params, ret) = m.callee_signature("touch").unwrap();
        assert_eq!(params, vec![Type::Ptr]);
        assert_eq!(ret, Type::I64);
        assert!(m.callee_signature("nope").is_none());
    }
}
