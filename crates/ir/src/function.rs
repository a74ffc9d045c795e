//! Functions, blocks, and the instruction arena.
//!
//! Instructions live in a per-function arena and blocks hold ordered lists
//! of [`InstId`]s, so passes can insert instructions (e.g. guards) without
//! invalidating references — exactly the mutation pattern the guard
//! injection pass needs.

use core::fmt;

use crate::inst::{Inst, Terminator, Value};
use crate::types::Type;

/// Identifier of an instruction within its function's arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InstId(pub u32);

/// Identifier of a basic block within its function.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId(pub u32);

/// A basic block: a label, an ordered instruction list, and a terminator.
#[derive(Clone, Debug)]
pub struct Block {
    /// Label (unique within the function).
    pub name: String,
    /// Ordered non-terminator instructions.
    pub insts: Vec<InstId>,
    /// The terminator. Parsed/built functions always have one; during
    /// construction it may temporarily be `None`.
    pub term: Option<Terminator>,
}

/// A function definition.
#[derive(Clone, Debug)]
pub struct Function {
    /// Symbol name (without the `@`).
    pub name: String,
    /// Parameter types.
    pub params: Vec<Type>,
    /// Parameter names (parallel to `params`; used by printer).
    pub param_names: Vec<String>,
    /// Return type.
    pub ret_ty: Type,
    /// Basic blocks in layout order; `blocks[0]` is the entry.
    pub blocks: Vec<Block>,
    /// Instruction arena.
    insts: Vec<Inst>,
    /// Result-value names for instructions (empty string = unnamed).
    inst_names: Vec<String>,
}

impl Function {
    /// Create an empty function (no blocks yet).
    pub fn new(name: impl Into<String>, params: Vec<Type>, ret_ty: Type) -> Function {
        let params_len = params.len();
        Function {
            name: name.into(),
            param_names: (0..params_len).map(|i| format!("arg{i}")).collect(),
            params,
            ret_ty,
            blocks: Vec::new(),
            insts: Vec::new(),
            inst_names: Vec::new(),
        }
    }

    /// Number of leading phi instructions in `block` (the verifier
    /// guarantees phis are leading).
    pub fn leading_phi_count(&self, block: BlockId) -> usize {
        self.block(block)
            .insts
            .iter()
            .take_while(|&&iid| matches!(self.inst(iid), Inst::Phi { .. }))
            .count()
    }

    /// The entry block, if any blocks exist.
    pub fn entry(&self) -> Option<BlockId> {
        if self.blocks.is_empty() {
            None
        } else {
            Some(BlockId(0))
        }
    }

    /// Append a new empty block and return its id.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId(u32::try_from(self.blocks.len()).expect("block count fits u32"));
        self.blocks.push(Block {
            name: name.into(),
            insts: Vec::new(),
            term: None,
        });
        id
    }

    /// Allocate an instruction in the arena (does not place it in a block).
    pub fn alloc_inst(&mut self, inst: Inst) -> InstId {
        let id = InstId(u32::try_from(self.insts.len()).expect("inst count fits u32"));
        self.insts.push(inst);
        self.inst_names.push(String::new());
        id
    }

    /// Allocate an instruction with a result name.
    pub fn alloc_named_inst(&mut self, inst: Inst, name: impl Into<String>) -> InstId {
        let id = self.alloc_inst(inst);
        self.inst_names[id.0 as usize] = name.into();
        id
    }

    /// Append an already-allocated instruction to a block.
    pub fn push_inst(&mut self, block: BlockId, inst: InstId) {
        self.blocks[block.0 as usize].insts.push(inst);
    }

    /// Instruction lookup.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.0 as usize]
    }

    /// Mutable instruction lookup.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.0 as usize]
    }

    /// The result name of an instruction (may be empty).
    pub fn inst_name(&self, id: InstId) -> &str {
        &self.inst_names[id.0 as usize]
    }

    /// Set the result name of an instruction.
    pub fn set_inst_name(&mut self, id: InstId, name: impl Into<String>) {
        self.inst_names[id.0 as usize] = name.into();
    }

    /// Number of instructions in the arena (including unplaced ones).
    pub fn inst_count(&self) -> usize {
        self.insts.len()
    }

    /// Block lookup.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutable block lookup.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// Find a block by label.
    pub fn block_by_name(&self, name: &str) -> Option<BlockId> {
        self.blocks
            .iter()
            .position(|b| b.name == name)
            .map(|i| BlockId(i as u32))
    }

    /// Iterate over block ids in layout order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len()).map(|i| BlockId(i as u32))
    }

    /// Iterate over `(BlockId, InstId)` pairs for all placed instructions in
    /// layout order.
    pub fn placed_insts(&self) -> Vec<(BlockId, InstId)> {
        let mut out = Vec::new();
        for bid in self.block_ids() {
            for &iid in &self.block(bid).insts {
                out.push((bid, iid));
            }
        }
        out
    }

    /// Count the loads and stores in the function — the accesses CARAT KOP
    /// will guard.
    pub fn memory_access_count(&self) -> usize {
        self.placed_insts()
            .iter()
            .filter(|(_, iid)| self.inst(*iid).is_memory_access())
            .count()
    }

    /// Count calls to a given callee (e.g. `carat_guard`).
    pub fn call_count(&self, callee: &str) -> usize {
        self.placed_insts()
            .iter()
            .filter(
                |(_, iid)| matches!(self.inst(*iid), Inst::Call { callee: c, .. } if c == callee),
            )
            .count()
    }

    /// Predecessor map: for each block, the blocks that branch to it.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for bid in self.block_ids() {
            if let Some(term) = &self.block(bid).term {
                for succ in term.successors() {
                    preds[succ.0 as usize].push(bid);
                }
            }
        }
        preds
    }

    /// The type of a value in the context of this function.
    ///
    /// Returns `None` for out-of-range args or unallocated instruction ids.
    pub fn value_type(&self, v: &Value) -> Option<Type> {
        match v {
            Value::ConstInt(ty, _) => Some(ty.clone()),
            Value::NullPtr | Value::Global(_) | Value::FuncAddr(_) => Some(Type::Ptr),
            Value::Arg(i) => self.params.get(*i as usize).cloned(),
            Value::Inst(id) => self.insts.get(id.0 as usize).map(|i| i.result_type()),
        }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::print_function(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, IcmpPred};

    fn sample_function() -> Function {
        // define i64 @f(i64 %a) { entry: %x = add i64 %a, 1; ret i64 %x }
        let mut func = Function::new("f", vec![Type::I64], Type::I64);
        let entry = func.add_block("entry");
        let x = func.alloc_named_inst(
            Inst::Bin {
                op: BinOp::Add,
                ty: Type::I64,
                lhs: Value::Arg(0),
                rhs: Value::i64(1),
            },
            "x",
        );
        func.push_inst(entry, x);
        func.block_mut(entry).term = Some(Terminator::Ret(Some(Value::Inst(x))));
        func
    }

    #[test]
    fn build_and_query() {
        let f = sample_function();
        assert_eq!(f.entry(), Some(BlockId(0)));
        assert_eq!(f.inst_count(), 1);
        assert_eq!(f.inst_name(InstId(0)), "x");
        assert_eq!(f.block_by_name("entry"), Some(BlockId(0)));
        assert_eq!(f.block_by_name("nope"), None);
        assert_eq!(f.memory_access_count(), 0);
    }

    #[test]
    fn value_types() {
        let f = sample_function();
        assert_eq!(f.value_type(&Value::Arg(0)), Some(Type::I64));
        assert_eq!(f.value_type(&Value::Arg(1)), None);
        assert_eq!(f.value_type(&Value::Inst(InstId(0))), Some(Type::I64));
        assert_eq!(f.value_type(&Value::NullPtr), Some(Type::Ptr));
        assert_eq!(f.value_type(&Value::Global("g".into())), Some(Type::Ptr));
    }

    #[test]
    fn predecessors() {
        let mut f = Function::new("g", vec![], Type::Void);
        let entry = f.add_block("entry");
        let a = f.add_block("a");
        let b = f.add_block("b");
        let join = f.add_block("join");
        let cond = f.alloc_inst(Inst::Icmp {
            pred: IcmpPred::Eq,
            ty: Type::I64,
            lhs: Value::i64(0),
            rhs: Value::i64(0),
        });
        f.push_inst(entry, cond);
        f.block_mut(entry).term = Some(Terminator::CondBr {
            cond: Value::Inst(cond),
            then_blk: a,
            else_blk: b,
        });
        f.block_mut(a).term = Some(Terminator::Br(join));
        f.block_mut(b).term = Some(Terminator::Br(join));
        f.block_mut(join).term = Some(Terminator::Ret(None));

        let preds = f.predecessors();
        assert_eq!(preds[join.0 as usize], vec![a, b]);
        assert_eq!(preds[entry.0 as usize], Vec::<BlockId>::new());
        assert_eq!(preds[a.0 as usize], vec![entry]);
    }

    #[test]
    fn call_count_counts_by_callee() {
        let mut f = sample_function();
        let entry = BlockId(0);
        let guard = f.alloc_inst(Inst::Call {
            callee: "carat_guard".into(),
            ret_ty: Type::Void,
            args: vec![],
        });
        f.push_inst(entry, guard);
        assert_eq!(f.call_count("carat_guard"), 1);
        assert_eq!(f.call_count("other"), 0);
    }

    #[test]
    fn memory_access_count_counts_loads_and_stores() {
        let mut f = Function::new("m", vec![Type::Ptr], Type::Void);
        let entry = f.add_block("entry");
        let ld = f.alloc_inst(Inst::Load {
            ty: Type::I64,
            ptr: Value::Arg(0),
        });
        let st = f.alloc_inst(Inst::Store {
            ty: Type::I64,
            val: Value::Inst(ld),
            ptr: Value::Arg(0),
        });
        f.push_inst(entry, ld);
        f.push_inst(entry, st);
        f.block_mut(entry).term = Some(Terminator::Ret(None));
        assert_eq!(f.memory_access_count(), 2);
    }
}
