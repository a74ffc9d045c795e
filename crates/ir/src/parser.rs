//! Textual KIR parser.
//!
//! Accepts the canonical form emitted by [`crate::printer`], plus arbitrary
//! whitespace and `;` line comments. Parsing is two-phase per function:
//! the body is first parsed into a raw form with named operands, then names
//! are resolved to SSA ids (this allows forward references, e.g. a `phi`
//! naming a value defined later in a loop).

use std::collections::HashMap;
use std::fmt;

use crate::function::{BlockId, Function};
use crate::inst::{BinOp, CastOp, IcmpPred, Inst, Terminator, Value};
use crate::module::{ExternDecl, Global, GlobalInit, Module};
use crate::types::Type;

/// A parse failure with line information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

// ---------------------------------------------------------------- lexer --

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),     // bare word: define, i64, add, zero, ...
    Local(String),     // %name
    GlobalSym(String), // @name
    Int(u64),          // integer literal (two's-complement for negatives)
    Str(String),       // "..."
    Punct(char),       // , : = ( ) { } [ ]
    Eof,
}

#[derive(Clone)]
struct Lexer {
    toks: Vec<(Tok, usize)>, // token + line
    pos: usize,
}

impl Lexer {
    fn new(src: &str) -> PResult<Lexer> {
        let mut toks = Vec::new();
        let mut line = 1usize;
        let bytes: Vec<char> = src.chars().collect();
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i];
            match c {
                '\n' => {
                    line += 1;
                    i += 1;
                }
                ' ' | '\t' | '\r' => i += 1,
                ';' => {
                    while i < bytes.len() && bytes[i] != '\n' {
                        i += 1;
                    }
                }
                ',' | ':' | '=' | '(' | ')' | '{' | '}' | '[' | ']' => {
                    toks.push((Tok::Punct(c), line));
                    i += 1;
                }
                '%' | '@' => {
                    let start = i + 1;
                    let mut j = start;
                    while j < bytes.len() && is_name_char(bytes[j]) {
                        j += 1;
                    }
                    if j == start {
                        return Err(ParseError {
                            line,
                            message: format!("empty name after '{c}'"),
                        });
                    }
                    let name: String = bytes[start..j].iter().collect();
                    toks.push((
                        if c == '%' {
                            Tok::Local(name)
                        } else {
                            Tok::GlobalSym(name)
                        },
                        line,
                    ));
                    i = j;
                }
                '"' => {
                    let mut s = String::new();
                    let mut j = i + 1;
                    loop {
                        if j >= bytes.len() {
                            return Err(ParseError {
                                line,
                                message: "unterminated string".into(),
                            });
                        }
                        match bytes[j] {
                            '"' => break,
                            '\\' => {
                                j += 1;
                                if j >= bytes.len() {
                                    return Err(ParseError {
                                        line,
                                        message: "unterminated escape".into(),
                                    });
                                }
                                s.push(bytes[j]);
                                j += 1;
                            }
                            other => {
                                if other == '\n' {
                                    line += 1;
                                }
                                s.push(other);
                                j += 1;
                            }
                        }
                    }
                    toks.push((Tok::Str(s), line));
                    i = j + 1;
                }
                '-' | '0'..='9' => {
                    let neg = c == '-';
                    let mut j = if neg { i + 1 } else { i };
                    let start = j;
                    let mut radix = 10;
                    if j + 1 < bytes.len() && bytes[j] == '0' && bytes[j + 1] == 'x' {
                        radix = 16;
                        j += 2;
                    }
                    let digits_start = if radix == 16 { j } else { start };
                    while j < bytes.len() && bytes[j].is_ascii_alphanumeric() {
                        j += 1;
                    }
                    let digits: String = bytes[digits_start..j].iter().collect();
                    let mag = u64::from_str_radix(&digits, radix).map_err(|_| ParseError {
                        line,
                        message: format!("bad integer literal '{digits}'"),
                    })?;
                    let val = if neg {
                        (mag as i64).wrapping_neg() as u64
                    } else {
                        mag
                    };
                    toks.push((Tok::Int(val), line));
                    i = j;
                }
                c if is_name_start(c) => {
                    let start = i;
                    let mut j = i;
                    while j < bytes.len() && is_name_char(bytes[j]) {
                        j += 1;
                    }
                    let word: String = bytes[start..j].iter().collect();
                    toks.push((Tok::Ident(word), line));
                    i = j;
                }
                other => {
                    return Err(ParseError {
                        line,
                        message: format!("unexpected character '{other}'"),
                    })
                }
            }
        }
        toks.push((Tok::Eof, line));
        Ok(Lexer { toks, pos: 0 })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn line(&self) -> usize {
        self.toks[self.pos].1
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            line: self.line(),
            message: message.into(),
        })
    }

    fn expect_punct(&mut self, c: char) -> PResult<()> {
        if self.peek() == &Tok::Punct(c) {
            self.next();
            Ok(())
        } else {
            self.err(format!("expected '{c}', found {:?}", self.peek()))
        }
    }

    fn expect_ident(&mut self, word: &str) -> PResult<()> {
        if let Tok::Ident(w) = self.peek() {
            if w == word {
                self.next();
                return Ok(());
            }
        }
        self.err(format!("expected '{word}', found {:?}", self.peek()))
    }

    fn take_ident(&mut self) -> PResult<String> {
        if let Tok::Ident(w) = self.peek() {
            let w = w.clone();
            self.next();
            Ok(w)
        } else {
            self.err(format!("expected identifier, found {:?}", self.peek()))
        }
    }

    fn take_int(&mut self) -> PResult<u64> {
        if let Tok::Int(v) = self.peek() {
            let v = *v;
            self.next();
            Ok(v)
        } else {
            self.err(format!("expected integer, found {:?}", self.peek()))
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == &Tok::Punct(c) {
            self.next();
            true
        } else {
            false
        }
    }
}

fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == '.'
}

fn is_name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'
}

// ------------------------------------------------------------- raw form --

#[derive(Clone, Debug)]
enum RawValue {
    Int(u64),
    Null,
    Sym(String),   // @name — global or function address, resolved later
    Local(String), // %name — arg or instruction result
}

#[derive(Clone, Debug)]
enum RawInst {
    Alloca(Type, u64),
    Load(Type, RawValue),
    Store(Type, RawValue, RawValue),
    Gep(Type, RawValue, Vec<(Type, RawValue)>),
    Bin(BinOp, Type, RawValue, RawValue),
    Icmp(IcmpPred, Type, RawValue, RawValue),
    Cast(CastOp, Type, Type, RawValue),
    Select(Type, RawValue, RawValue, RawValue),
    Call(String, Type, Vec<(Type, RawValue)>),
    Phi(Type, Vec<(String, RawValue)>),
    Asm(String),
}

#[derive(Clone, Debug)]
enum RawTerm {
    Br(String),
    CondBr(RawValue, String, String),
    Switch(Type, RawValue, String, Vec<(u64, String)>),
    RetVoid,
    Ret(Type, RawValue),
    Unreachable,
}

#[derive(Clone, Debug)]
struct RawBlock {
    name: String,
    /// Line of the block's label.
    line: usize,
    /// Each statement with its result name and its line.
    insts: Vec<(Option<String>, RawInst, usize)>,
    term: RawTerm,
    term_line: usize,
}

// --------------------------------------------------------------- parser --

/// Parse a module from its textual form.
///
/// ```
/// let m = kop_ir::parse_module(r#"
/// module "demo"
/// define i64 @inc(i64 %x) {
/// entry:
///   %y = add i64 %x, 1
///   ret i64 %y
/// }
/// "#).unwrap();
/// assert_eq!(m.functions.len(), 1);
/// assert!(kop_ir::verify_module(&m).is_ok());
/// ```
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let mut lx = Lexer::new(src)?;
    lx.expect_ident("module")?;
    let name = match lx.next() {
        Tok::Str(s) => s,
        other => {
            return Err(ParseError {
                line: lx.line(),
                message: format!("expected module name string, found {other:?}"),
            })
        }
    };
    let mut module = Module::new(name);

    loop {
        match lx.peek().clone() {
            Tok::Eof => break,
            Tok::Ident(w) if w == "declare" => {
                lx.next();
                let ret_ty = parse_type(&mut lx)?;
                let fname = take_global(&mut lx)?;
                lx.expect_punct('(')?;
                let mut params = Vec::new();
                if !lx.eat_punct(')') {
                    loop {
                        params.push(parse_type(&mut lx)?);
                        if lx.eat_punct(')') {
                            break;
                        }
                        lx.expect_punct(',')?;
                    }
                }
                module.externs.push(ExternDecl {
                    name: fname,
                    params,
                    ret_ty,
                });
            }
            Tok::Ident(w) if w == "global" => {
                lx.next();
                let gname = take_global(&mut lx)?;
                lx.expect_punct(':')?;
                let ty = parse_type(&mut lx)?;
                lx.expect_punct('=')?;
                let init = match lx.peek().clone() {
                    Tok::Ident(w) if w == "zero" => {
                        lx.next();
                        GlobalInit::Zero
                    }
                    Tok::Ident(w) if w == "bytes" => {
                        lx.next();
                        lx.expect_punct('[')?;
                        let mut bytes = Vec::new();
                        while !lx.eat_punct(']') {
                            // Bytes are `0x`-prefixed literals as the
                            // printer emits them (plain decimal accepted).
                            let line = lx.line();
                            let v = lx.take_int()?;
                            let b = u8::try_from(v).map_err(|_| ParseError {
                                line,
                                message: format!("byte literal {v} out of range"),
                            })?;
                            bytes.push(b);
                        }
                        GlobalInit::Bytes(bytes)
                    }
                    Tok::Int(_) => GlobalInit::Int(lx.take_int()?),
                    other => {
                        return Err(ParseError {
                            line: lx.line(),
                            message: format!("bad global initializer {other:?}"),
                        })
                    }
                };
                module.globals.push(Global {
                    name: gname,
                    ty,
                    init,
                });
            }
            Tok::Ident(w) if w == "define" => {
                module.functions.push(parse_function(&mut lx)?);
            }
            other => {
                return Err(ParseError {
                    line: lx.line(),
                    message: format!("expected top-level item, found {other:?}"),
                })
            }
        }
    }

    // Fixup: `@name` operands that refer to functions become FuncAddr.
    let func_names: Vec<String> = module
        .functions
        .iter()
        .map(|f| f.name.clone())
        .chain(module.externs.iter().map(|e| e.name.clone()))
        .collect();
    for f in &mut module.functions {
        let n = f.inst_count();
        for i in 0..n {
            let id = crate::function::InstId(i as u32);
            fixup_inst_syms(f.inst_mut(id), &func_names);
        }
        for b in &mut f.blocks {
            if let Some(t) = &mut b.term {
                fixup_term_syms(t, &func_names);
            }
        }
    }
    Ok(module)
}

fn fixup_value_syms(v: &mut Value, funcs: &[String]) {
    if let Value::Global(name) = v {
        if funcs.iter().any(|f| f == name) {
            *v = Value::FuncAddr(name.clone());
        }
    }
}

fn fixup_inst_syms(inst: &mut Inst, funcs: &[String]) {
    match inst {
        Inst::Load { ptr, .. } => fixup_value_syms(ptr, funcs),
        Inst::Store { val, ptr, .. } => {
            fixup_value_syms(val, funcs);
            fixup_value_syms(ptr, funcs);
        }
        Inst::Gep { ptr, indices, .. } => {
            fixup_value_syms(ptr, funcs);
            for i in indices {
                fixup_value_syms(i, funcs);
            }
        }
        Inst::Bin { lhs, rhs, .. } | Inst::Icmp { lhs, rhs, .. } => {
            fixup_value_syms(lhs, funcs);
            fixup_value_syms(rhs, funcs);
        }
        Inst::Cast { val, .. } => fixup_value_syms(val, funcs),
        Inst::Select {
            cond,
            then_val,
            else_val,
            ..
        } => {
            fixup_value_syms(cond, funcs);
            fixup_value_syms(then_val, funcs);
            fixup_value_syms(else_val, funcs);
        }
        Inst::Call { args, .. } => {
            for a in args {
                fixup_value_syms(a, funcs);
            }
        }
        Inst::Phi { incomings, .. } => {
            for (_, v) in incomings {
                fixup_value_syms(v, funcs);
            }
        }
        Inst::Alloca { .. } | Inst::Asm { .. } => {}
    }
}

fn fixup_term_syms(t: &mut Terminator, funcs: &[String]) {
    match t {
        Terminator::CondBr { cond, .. } => fixup_value_syms(cond, funcs),
        Terminator::Switch { val, .. } => fixup_value_syms(val, funcs),
        Terminator::Ret(Some(v)) => fixup_value_syms(v, funcs),
        _ => {}
    }
}

fn take_global(lx: &mut Lexer) -> PResult<String> {
    match lx.next() {
        Tok::GlobalSym(n) => Ok(n),
        other => Err(ParseError {
            line: lx.line(),
            message: format!("expected @name, found {other:?}"),
        }),
    }
}

fn take_local(lx: &mut Lexer) -> PResult<String> {
    match lx.next() {
        Tok::Local(n) => Ok(n),
        other => Err(ParseError {
            line: lx.line(),
            message: format!("expected %name, found {other:?}"),
        }),
    }
}

fn parse_type(lx: &mut Lexer) -> PResult<Type> {
    match lx.peek().clone() {
        Tok::Ident(w) => {
            let t = match w.as_str() {
                "void" => Type::Void,
                "i1" => Type::I1,
                "i8" => Type::I8,
                "i16" => Type::I16,
                "i32" => Type::I32,
                "i64" => Type::I64,
                "ptr" => Type::Ptr,
                other => return lx.err(format!("unknown type '{other}'")),
            };
            lx.next();
            Ok(t)
        }
        Tok::Punct('[') => {
            lx.next();
            let n = lx.take_int()?;
            lx.expect_ident("x")?;
            let elem = parse_type(lx)?;
            lx.expect_punct(']')?;
            Ok(Type::Array(Box::new(elem), n))
        }
        Tok::Punct('{') => {
            lx.next();
            let mut fields = Vec::new();
            if !lx.eat_punct('}') {
                loop {
                    fields.push(parse_type(lx)?);
                    if lx.eat_punct('}') {
                        break;
                    }
                    lx.expect_punct(',')?;
                }
            }
            Ok(Type::Struct(fields))
        }
        other => lx.err(format!("expected type, found {other:?}")),
    }
}

fn parse_raw_value(lx: &mut Lexer) -> PResult<RawValue> {
    match lx.next() {
        Tok::Int(v) => Ok(RawValue::Int(v)),
        Tok::Ident(w) if w == "null" => Ok(RawValue::Null),
        Tok::Ident(w) if w == "true" => Ok(RawValue::Int(1)),
        Tok::Ident(w) if w == "false" => Ok(RawValue::Int(0)),
        Tok::GlobalSym(n) => Ok(RawValue::Sym(n)),
        Tok::Local(n) => Ok(RawValue::Local(n)),
        other => Err(ParseError {
            line: lx.line(),
            message: format!("expected value, found {other:?}"),
        }),
    }
}

fn parse_function(lx: &mut Lexer) -> PResult<Function> {
    lx.expect_ident("define")?;
    let ret_ty = parse_type(lx)?;
    let fname = take_global(lx)?;
    lx.expect_punct('(')?;
    let mut params = Vec::new();
    let mut param_names = Vec::new();
    if !lx.eat_punct(')') {
        loop {
            let ty = parse_type(lx)?;
            let pname = take_local(lx)?;
            params.push(ty);
            param_names.push(pname);
            if lx.eat_punct(')') {
                break;
            }
            lx.expect_punct(',')?;
        }
    }
    lx.expect_punct('{')?;

    // Parse raw blocks.
    let mut raw_blocks: Vec<RawBlock> = Vec::new();
    loop {
        if lx.eat_punct('}') {
            break;
        }
        // Block label.
        let label_line = lx.line();
        let label = lx.take_ident()?;
        lx.expect_punct(':')?;
        let mut insts: Vec<(Option<String>, RawInst, usize)> = Vec::new();
        let (term, term_line) = loop {
            let line = lx.line();
            match lx.peek().clone() {
                Tok::Local(res) => {
                    lx.next();
                    lx.expect_punct('=')?;
                    let inst = parse_raw_inst(lx)?;
                    insts.push((Some(res), inst, line));
                }
                Tok::Ident(w) => {
                    match w.as_str() {
                        // Void instructions.
                        "store" | "call" | "asm" => {
                            let inst = parse_raw_inst(lx)?;
                            insts.push((None, inst, line));
                        }
                        // Terminators.
                        "br" => {
                            lx.next();
                            let target = take_local(lx)?;
                            break (RawTerm::Br(target), line);
                        }
                        "condbr" => {
                            lx.next();
                            lx.expect_ident("i1")?;
                            let c = parse_raw_value(lx)?;
                            lx.expect_punct(',')?;
                            let t = take_local(lx)?;
                            lx.expect_punct(',')?;
                            let e = take_local(lx)?;
                            break (RawTerm::CondBr(c, t, e), line);
                        }
                        "switch" => {
                            lx.next();
                            let ty = parse_type(lx)?;
                            let v = parse_raw_value(lx)?;
                            lx.expect_punct(',')?;
                            let default = take_local(lx)?;
                            lx.expect_punct('[')?;
                            let mut arms = Vec::new();
                            while !lx.eat_punct(']') {
                                let c = lx.take_int()?;
                                lx.expect_punct(':')?;
                                let b = take_local(lx)?;
                                arms.push((c, b));
                                lx.eat_punct(',');
                            }
                            break (RawTerm::Switch(ty, v, default, arms), line);
                        }
                        "ret" => {
                            lx.next();
                            if let Tok::Ident(w) = lx.peek() {
                                if w == "void" {
                                    lx.next();
                                    break (RawTerm::RetVoid, line);
                                }
                            }
                            let ty = parse_type(lx)?;
                            let v = parse_raw_value(lx)?;
                            break (RawTerm::Ret(ty, v), line);
                        }
                        "unreachable" => {
                            lx.next();
                            break (RawTerm::Unreachable, line);
                        }
                        other => {
                            return lx.err(format!("unexpected instruction '{other}'"));
                        }
                    }
                }
                other => return lx.err(format!("unexpected token in block: {other:?}")),
            }
        };
        raw_blocks.push(RawBlock {
            name: label,
            line: label_line,
            insts,
            term,
            term_line,
        });
    }

    // Resolve names.
    let mut func = Function::new(fname, params, ret_ty);
    func.param_names = param_names.clone();

    let mut block_ids: HashMap<String, BlockId> = HashMap::new();
    for rb in &raw_blocks {
        if block_ids.contains_key(&rb.name) {
            return Err(ParseError {
                line: rb.line,
                message: format!("duplicate block label '{}'", rb.name),
            });
        }
        let id = func.add_block(rb.name.clone());
        block_ids.insert(rb.name.clone(), id);
    }

    // Pre-allocate result ids so forward references resolve.
    let mut local_ids: HashMap<String, Value> = HashMap::new();
    for (i, pname) in param_names.iter().enumerate() {
        local_ids.insert(pname.clone(), Value::Arg(i as u32));
    }
    let mut planned: Vec<Vec<crate::function::InstId>> = Vec::new();
    for rb in &raw_blocks {
        let mut ids = Vec::new();
        for (res, _, line) in &rb.insts {
            // Allocate placeholder; will overwrite the body below.
            let id = func.alloc_inst(Inst::Asm {
                text: "__placeholder".into(),
            });
            // Unnamed results keep generated __tN names; the raw form
            // only omits names for void instructions so nothing can
            // reference them.
            if let Some(name) = res {
                if local_ids.contains_key(name) {
                    return Err(ParseError {
                        line: *line,
                        message: format!("duplicate value name '%{name}'"),
                    });
                }
                func.set_inst_name(id, name.clone());
                local_ids.insert(name.clone(), Value::Inst(id));
            }
            ids.push(id);
        }
        planned.push(ids);
    }

    let resolve = |rv: &RawValue, ty: &Type, line: usize| -> PResult<Value> {
        match rv {
            RawValue::Int(v) => {
                if ty == &Type::Ptr {
                    // An integer literal in pointer position: only 0 (null).
                    if *v == 0 {
                        Ok(Value::NullPtr)
                    } else {
                        Err(ParseError {
                            line,
                            message: "non-zero integer literal used as ptr".into(),
                        })
                    }
                } else {
                    Ok(Value::ConstInt(ty.clone(), *v))
                }
            }
            RawValue::Null => Ok(Value::NullPtr),
            RawValue::Sym(n) => Ok(Value::Global(n.clone())),
            RawValue::Local(n) => local_ids.get(n).cloned().ok_or_else(|| ParseError {
                line,
                message: format!("undefined value '%{n}'"),
            }),
        }
    };
    let resolve_block = |n: &str, line: usize| -> PResult<BlockId> {
        block_ids.get(n).copied().ok_or_else(|| ParseError {
            line,
            message: format!("undefined block label '%{n}'"),
        })
    };

    for (bi, rb) in raw_blocks.iter().enumerate() {
        let bid = BlockId(bi as u32);
        for ((_, raw, line), &iid) in rb.insts.iter().zip(planned[bi].iter()) {
            let line = *line;
            let inst = match raw {
                RawInst::Alloca(ty, count) => Inst::Alloca {
                    ty: ty.clone(),
                    count: *count,
                },
                RawInst::Load(ty, ptr) => Inst::Load {
                    ty: ty.clone(),
                    ptr: resolve(ptr, &Type::Ptr, line)?,
                },
                RawInst::Store(ty, val, ptr) => Inst::Store {
                    ty: ty.clone(),
                    val: resolve(val, ty, line)?,
                    ptr: resolve(ptr, &Type::Ptr, line)?,
                },
                RawInst::Gep(base_ty, ptr, idxs) => Inst::Gep {
                    base_ty: base_ty.clone(),
                    ptr: resolve(ptr, &Type::Ptr, line)?,
                    indices: idxs
                        .iter()
                        .map(|(t, v)| resolve(v, t, line))
                        .collect::<PResult<Vec<_>>>()?,
                },
                RawInst::Bin(op, ty, l, r) => Inst::Bin {
                    op: *op,
                    ty: ty.clone(),
                    lhs: resolve(l, ty, line)?,
                    rhs: resolve(r, ty, line)?,
                },
                RawInst::Icmp(pred, ty, l, r) => Inst::Icmp {
                    pred: *pred,
                    ty: ty.clone(),
                    lhs: resolve(l, ty, line)?,
                    rhs: resolve(r, ty, line)?,
                },
                RawInst::Cast(op, from_ty, to_ty, v) => Inst::Cast {
                    op: *op,
                    from_ty: from_ty.clone(),
                    to_ty: to_ty.clone(),
                    val: resolve(v, from_ty, line)?,
                },
                RawInst::Select(ty, c, t, e) => Inst::Select {
                    ty: ty.clone(),
                    cond: resolve(c, &Type::I1, line)?,
                    then_val: resolve(t, ty, line)?,
                    else_val: resolve(e, ty, line)?,
                },
                RawInst::Call(callee, ret_ty, args) => Inst::Call {
                    callee: callee.clone(),
                    ret_ty: ret_ty.clone(),
                    args: args
                        .iter()
                        .map(|(t, v)| resolve(v, t, line))
                        .collect::<PResult<Vec<_>>>()?,
                },
                RawInst::Phi(ty, incomings) => Inst::Phi {
                    ty: ty.clone(),
                    incomings: incomings
                        .iter()
                        .map(|(b, v)| Ok((resolve_block(b, line)?, resolve(v, ty, line)?)))
                        .collect::<PResult<Vec<_>>>()?,
                },
                RawInst::Asm(text) => Inst::Asm { text: text.clone() },
            };
            *func.inst_mut(iid) = inst;
            func.push_inst(bid, iid);
        }
        let line = rb.term_line;
        let term = match &rb.term {
            RawTerm::Br(t) => Terminator::Br(resolve_block(t, line)?),
            RawTerm::CondBr(c, t, e) => Terminator::CondBr {
                cond: resolve(c, &Type::I1, line)?,
                then_blk: resolve_block(t, line)?,
                else_blk: resolve_block(e, line)?,
            },
            RawTerm::Switch(ty, v, d, arms) => Terminator::Switch {
                ty: ty.clone(),
                val: resolve(v, ty, line)?,
                default: resolve_block(d, line)?,
                arms: arms
                    .iter()
                    .map(|(c, b)| Ok((*c, resolve_block(b, line)?)))
                    .collect::<PResult<Vec<_>>>()?,
            },
            RawTerm::RetVoid => Terminator::Ret(None),
            RawTerm::Ret(ty, v) => Terminator::Ret(Some(resolve(v, ty, line)?)),
            RawTerm::Unreachable => Terminator::Unreachable,
        };
        func.block_mut(bid).term = Some(term);
    }

    Ok(func)
}

fn parse_raw_inst(lx: &mut Lexer) -> PResult<RawInst> {
    let word = lx.take_ident()?;
    match word.as_str() {
        "alloca" => {
            let ty = parse_type(lx)?;
            let count = if lx.eat_punct(',') { lx.take_int()? } else { 1 };
            Ok(RawInst::Alloca(ty, count))
        }
        "load" => {
            let ty = parse_type(lx)?;
            lx.expect_punct(',')?;
            lx.expect_ident("ptr")?;
            let ptr = parse_raw_value(lx)?;
            Ok(RawInst::Load(ty, ptr))
        }
        "store" => {
            let ty = parse_type(lx)?;
            let val = parse_raw_value(lx)?;
            lx.expect_punct(',')?;
            lx.expect_ident("ptr")?;
            let ptr = parse_raw_value(lx)?;
            Ok(RawInst::Store(ty, val, ptr))
        }
        "gep" => {
            let base_ty = parse_type(lx)?;
            lx.expect_punct(',')?;
            lx.expect_ident("ptr")?;
            let ptr = parse_raw_value(lx)?;
            let mut idxs = Vec::new();
            while lx.eat_punct(',') {
                let ty = parse_type(lx)?;
                let v = parse_raw_value(lx)?;
                idxs.push((ty, v));
            }
            Ok(RawInst::Gep(base_ty, ptr, idxs))
        }
        "icmp" => {
            let predw = lx.take_ident()?;
            let pred = IcmpPred::from_mnemonic(&predw).ok_or_else(|| ParseError {
                line: lx.line(),
                message: format!("unknown icmp predicate '{predw}'"),
            })?;
            let ty = parse_type(lx)?;
            let l = parse_raw_value(lx)?;
            lx.expect_punct(',')?;
            let r = parse_raw_value(lx)?;
            Ok(RawInst::Icmp(pred, ty, l, r))
        }
        "select" => {
            lx.expect_ident("i1")?;
            let c = parse_raw_value(lx)?;
            lx.expect_punct(',')?;
            let ty = parse_type(lx)?;
            let t = parse_raw_value(lx)?;
            lx.expect_punct(',')?;
            let ty2 = parse_type(lx)?;
            if ty2 != ty {
                return lx.err("select arm types differ");
            }
            let e = parse_raw_value(lx)?;
            Ok(RawInst::Select(ty, c, t, e))
        }
        "call" => {
            let ret_ty = parse_type(lx)?;
            let callee = take_global(lx)?;
            lx.expect_punct('(')?;
            let mut args = Vec::new();
            if !lx.eat_punct(')') {
                loop {
                    let ty = parse_type(lx)?;
                    let v = parse_raw_value(lx)?;
                    args.push((ty, v));
                    if lx.eat_punct(')') {
                        break;
                    }
                    lx.expect_punct(',')?;
                }
            }
            Ok(RawInst::Call(callee, ret_ty, args))
        }
        "phi" => {
            let ty = parse_type(lx)?;
            let mut arms = Vec::new();
            loop {
                lx.expect_punct('[')?;
                let v = parse_raw_value(lx)?;
                lx.expect_punct(',')?;
                let b = take_local(lx)?;
                lx.expect_punct(']')?;
                arms.push((b, v));
                if !lx.eat_punct(',') {
                    break;
                }
            }
            Ok(RawInst::Phi(ty, arms))
        }
        "asm" => match lx.next() {
            Tok::Str(s) => Ok(RawInst::Asm(s)),
            other => Err(ParseError {
                line: lx.line(),
                message: format!("expected asm string, found {other:?}"),
            }),
        },
        other => {
            if let Some(op) = BinOp::from_mnemonic(other) {
                let ty = parse_type(lx)?;
                let l = parse_raw_value(lx)?;
                lx.expect_punct(',')?;
                let r = parse_raw_value(lx)?;
                return Ok(RawInst::Bin(op, ty, l, r));
            }
            if let Some(op) = CastOp::from_mnemonic(other) {
                let from_ty = parse_type(lx)?;
                let v = parse_raw_value(lx)?;
                lx.expect_ident("to")?;
                let to_ty = parse_type(lx)?;
                return Ok(RawInst::Cast(op, from_ty, to_ty, v));
            }
            lx.err(format!("unknown instruction '{other}'"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;

    const SUM_SRC: &str = r#"
module "sum"

declare void @carat_guard(ptr, i64, i32)

global @total : i64 = 0

define i64 @sum(ptr %buf, i64 %n) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %body ]
  %c = icmp ult i64 %i, %n
  condbr i1 %c, %body, %exit
body:
  %p = gep i64, ptr %buf, i64 %i
  %v = load i64, ptr %p
  %acc.next = add i64 %acc, %v
  %i.next = add i64 %i, 1
  br %head
exit:
  store i64 %acc, ptr @total
  ret i64 %acc
}
"#;

    #[test]
    fn parse_sum() {
        let m = parse_module(SUM_SRC).expect("parses");
        assert_eq!(m.name, "sum");
        assert_eq!(m.externs.len(), 1);
        assert_eq!(m.globals.len(), 1);
        let f = m.function("sum").unwrap();
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(f.memory_access_count(), 2); // one load, one store
    }

    #[test]
    fn roundtrip_sum() {
        let m = parse_module(SUM_SRC).unwrap();
        let printed = print_module(&m);
        let m2 = parse_module(&printed).expect("reparses");
        let printed2 = print_module(&m2);
        assert_eq!(printed, printed2, "print→parse→print must be a fixpoint");
    }

    #[test]
    fn forward_reference_in_phi() {
        // %x.next referenced in a phi before its definition.
        let m = parse_module(SUM_SRC).unwrap();
        let f = m.function("sum").unwrap();
        // The phi in head must resolve %i.next to the inst in body.
        let head = f.block_by_name("head").unwrap();
        let phi_id = f.block(head).insts[0];
        match f.inst(phi_id) {
            Inst::Phi { incomings, .. } => {
                assert_eq!(incomings.len(), 2);
                assert!(matches!(incomings[1].1, Value::Inst(_)));
            }
            other => panic!("expected phi, got {other:?}"),
        }
    }

    #[test]
    fn error_on_undefined_value() {
        let src = r#"
module "bad"
define void @f() {
entry:
  %x = add i64 %nope, 1
  %y = add i64 2, 2
  %z = add i64 3, 3
  ret void
}
"#;
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("undefined value"), "{err}");
        assert_eq!(err.line, 5, "the statement's line, not the terminator's");
    }

    #[test]
    fn error_on_pointer_literal_names_its_line() {
        let src = r#"
module "bad"
define i64 @f() {
entry:
  %v = load i64, ptr 7
  %w = add i64 %v, 1
  ret i64 %w
}
"#;
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("used as ptr"), "{err}");
        assert_eq!(err.line, 5);
    }

    #[test]
    fn error_on_undefined_block() {
        let src = r#"
module "bad"
define void @f() {
entry:
  br %nowhere
}
"#;
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("undefined block"), "{err}");
    }

    #[test]
    fn error_on_duplicate_name() {
        let src = r#"
module "bad"
define void @f() {
entry:
  %x = add i64 1, 1
  %x = add i64 2, 2
  %y = add i64 3, 3
  ret void
}
"#;
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("duplicate value name"), "{err}");
        assert_eq!(err.line, 6, "the duplicate's line");
        let src = r#"
module "bad"
define void @f() {
entry:
  br %entry
entry:
  %x = add i64 1, 1
  ret void
}
"#;
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("duplicate block label"), "{err}");
        assert_eq!(err.line, 6, "the second label's line");
    }

    #[test]
    fn parses_switch_and_select() {
        let src = r#"
module "sw"
define i64 @f(i64 %x) {
entry:
  %c = icmp eq i64 %x, 0
  %v = select i1 %c, i64 10, i64 20
  switch i64 %x, %dflt [ 1: %one, 2: %two ]
one:
  ret i64 %v
two:
  ret i64 2
dflt:
  ret i64 0
}
"#;
        let m = parse_module(src).expect("parses");
        let f = m.function("f").unwrap();
        assert_eq!(f.blocks.len(), 4);
        let printed = print_module(&m);
        let m2 = parse_module(&printed).unwrap();
        assert_eq!(print_module(&m2), printed);
    }

    #[test]
    fn parses_asm_and_funcaddr() {
        let src = r#"
module "a"
declare void @ext()
define void @f() {
entry:
  asm "wrmsr"
  %p = gep i8, ptr @ext, i64 0
  ret void
}
"#;
        let m = parse_module(src).expect("parses");
        let f = m.function("f").unwrap();
        // @ext should be fixed up to a FuncAddr since it names a function.
        let gep_id = f.block(BlockId(0)).insts[1];
        match f.inst(gep_id) {
            Inst::Gep { ptr, .. } => assert!(matches!(ptr, Value::FuncAddr(n) if n == "ext")),
            other => panic!("expected gep, got {other:?}"),
        }
    }

    #[test]
    fn negative_and_hex_literals() {
        let src = r#"
module "n"
define i64 @f() {
entry:
  %a = add i64 -1, 0x10
  ret i64 %a
}
"#;
        let m = parse_module(src).expect("parses");
        let f = m.function("f").unwrap();
        match f.inst(f.block(BlockId(0)).insts[0]) {
            Inst::Bin { lhs, rhs, .. } => {
                assert_eq!(lhs, &Value::ConstInt(Type::I64, u64::MAX));
                assert_eq!(rhs, &Value::ConstInt(Type::I64, 16));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bytes_global_roundtrip() {
        let src = r#"
module "b"
global @blob : [4 x i8] = bytes [0xde 0x07 0xbe 0x42]
"#;
        let m = parse_module(src).expect("parses");
        assert_eq!(
            m.global("blob").unwrap().init,
            GlobalInit::Bytes(vec![0xde, 0x07, 0xbe, 0x42])
        );
        let printed = print_module(&m);
        let m2 = parse_module(&printed).unwrap();
        assert_eq!(print_module(&m2), printed);
    }

    #[test]
    fn comments_and_whitespace_ignored() {
        let src = "module \"c\"  ; trailing comment\n; full line\n\n\ndefine void @f() {\nentry:  ; comment\n  ret void\n}\n";
        assert!(parse_module(src).is_ok());
    }
}
