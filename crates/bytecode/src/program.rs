//! Descriptor tables and the [`Program`] container.
//!
//! A compiled SIAL program is its instruction table plus the data descriptor
//! tables the instructions address by id. Index ranges may reference symbolic
//! constants whose concrete values arrive at initialization time (the SIP's
//! "predefined constants").

use crate::ops::Instruction;
use std::collections::BTreeMap;
use std::fmt;

macro_rules! table_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// The id as a table offset.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

table_id!(
    /// Id of an index variable in the index table.
    IndexId
);
table_id!(
    /// Id of an array in the array table.
    ArrayId
);
table_id!(
    /// Id of a named scalar variable in the scalar table.
    ScalarId
);
table_id!(
    /// Id of a symbolic constant in the constant table.
    ConstId
);
table_id!(
    /// Id of an interned string in the string table.
    StringId
);
table_id!(
    /// Id of a procedure in the procedure table.
    ProcId
);

/// A literal or symbolic integer appearing in a declaration (index bounds).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Value {
    /// A concrete integer known at compile time.
    Lit(i64),
    /// A symbolic constant resolved at initialization.
    Sym(ConstId),
}

/// The domain type of an index variable.
///
/// SIAL gives segment indices domain types ("aoindex and moindex represent
/// atomic orbital and molecular orbital"), letting the type system check
/// consistent use. `Simple` indices count iterations and do not address
/// segments; `Subindex` addresses subsegments of its parent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IndexKind {
    /// Atomic-orbital segment index.
    AoIndex,
    /// Molecular-orbital segment index.
    MoIndex,
    /// Alpha-spin molecular-orbital segment index.
    MoAIndex,
    /// Beta-spin molecular-orbital segment index.
    MoBIndex,
    /// Auxiliary (large-array) segment index.
    LaIndex,
    /// Plain iteration counter; not a segment index.
    Simple,
    /// Subsegment index of a parent segment index.
    Subindex {
        /// The segment index this subindex refines.
        parent: IndexId,
    },
}

impl IndexKind {
    /// True for kinds that address segments of arrays (everything except
    /// `Simple`).
    pub fn is_segment(&self) -> bool {
        !matches!(self, IndexKind::Simple)
    }

    /// Whether two kinds may be used interchangeably in an array dimension.
    pub fn compatible(&self, other: &IndexKind) -> bool {
        match (self, other) {
            (IndexKind::Subindex { .. }, _) | (_, IndexKind::Subindex { .. }) => true,
            _ => self == other,
        }
    }
}

/// Declaration of an index variable: a kind and an inclusive segment range.
#[derive(Clone, PartialEq, Debug)]
pub struct IndexDecl {
    /// Source name.
    pub name: String,
    /// Domain type.
    pub kind: IndexKind,
    /// First segment number (inclusive; SIAL ranges are 1-based).
    pub low: Value,
    /// Last segment number (inclusive).
    pub high: Value,
}

/// The five SIAL array kinds (§IV-A of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArrayKind {
    /// Small, replicated on every worker.
    Static,
    /// A single block of intermediate results, local to an iteration.
    Temp,
    /// Node-local array, fully formed in at least one dimension.
    Local,
    /// Partitioned into blocks distributed across workers (`get`/`put`).
    Distributed,
    /// Partitioned into blocks stored on disk by the I/O servers
    /// (`request`/`prepare`).
    Served,
}

impl ArrayKind {
    /// Arrays whose blocks move through the fabric.
    pub fn is_remote(&self) -> bool {
        matches!(self, ArrayKind::Distributed | ArrayKind::Served)
    }
}

/// Declaration of an array: a kind and the index variables defining its
/// shape ("the shape of an array is defined in its declaration by specifying
/// index variables for each dimension").
#[derive(Clone, PartialEq, Debug)]
pub struct ArrayDecl {
    /// Source name.
    pub name: String,
    /// Storage class.
    pub kind: ArrayKind,
    /// Index variable of each dimension.
    pub dims: Vec<IndexId>,
    /// Block-sparse storage: blocks may be absent (exactly zero) and the
    /// runtime may drop blocks whose Frobenius norm falls under the
    /// configured screening threshold. Only meaningful on remote kinds
    /// (`Distributed`/`Served`); always `false` otherwise.
    pub sparse: bool,
}

/// Declaration of a named scalar (double) variable.
#[derive(Clone, PartialEq, Debug)]
pub struct ScalarDecl {
    /// Source name.
    pub name: String,
    /// Initial value.
    pub init: f64,
}

/// Declaration of a procedure: a name and the pc of its first instruction.
#[derive(Clone, PartialEq, Debug)]
pub struct ProcDecl {
    /// Source name.
    pub name: String,
    /// Entry program counter.
    pub entry_pc: u32,
}

/// Optional per-instruction source mapping (wire format v3).
///
/// `lines[pc]` is the 1-based source line the instruction at `pc` was
/// lowered from (0 = synthetic/unknown). The table is parallel to
/// [`Program::code`]; decoders tolerate short tables (missing entries read
/// as unknown). This is what lets `sial check`, the disassembler, and
/// runtime `BadBytecode`/race diagnostics print `file:line` instead of a
/// bare pc.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct LineTable {
    /// Source file the program was compiled from.
    pub file: String,
    /// 1-based source line per instruction (0 = unknown).
    pub lines: Vec<u32>,
}

impl LineTable {
    /// The source line of the instruction at `pc`, if known.
    pub fn line_of(&self, pc: u32) -> Option<u32> {
        match self.lines.get(pc as usize) {
            Some(&l) if l > 0 => Some(l),
            _ => None,
        }
    }
}

/// A compiled SIAL program: descriptor tables plus the instruction table.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Program {
    /// Program name (from the `sial` header line).
    pub name: String,
    /// Index variable descriptors.
    pub indices: Vec<IndexDecl>,
    /// Array descriptors.
    pub arrays: Vec<ArrayDecl>,
    /// Named scalar descriptors.
    pub scalars: Vec<ScalarDecl>,
    /// Symbolic constant names, bound at initialization.
    pub consts: Vec<String>,
    /// Procedure descriptors.
    pub procs: Vec<ProcDecl>,
    /// Interned strings (super-instruction names, checkpoint labels, …).
    pub strings: Vec<String>,
    /// The instruction table.
    pub code: Vec<Instruction>,
    /// Optional per-instruction source line mapping (wire v3; absent for
    /// bytecode produced before the mapping existed).
    pub line_table: Option<LineTable>,
}

/// Concrete values for the symbolic constants, supplied at initialization.
pub type ConstBindings = BTreeMap<String, i64>;

/// Errors resolving symbolic constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// A constant used by the program has no binding.
    Unbound {
        /// The constant's name.
        name: String,
    },
    /// An index range resolved to `low > high` or non-positive bounds.
    BadRange {
        /// The index variable's name.
        index: String,
        /// Resolved lower bound.
        low: i64,
        /// Resolved upper bound.
        high: i64,
    },
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::Unbound { name } => {
                write!(f, "symbolic constant `{name}` has no binding")
            }
            ResolveError::BadRange { index, low, high } => {
                write!(f, "index `{index}` resolved to invalid range {low}..{high}")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

impl Program {
    /// Looks up an array by source name.
    pub fn array_by_name(&self, name: &str) -> Option<ArrayId> {
        self.arrays
            .iter()
            .position(|a| a.name == name)
            .map(|i| ArrayId(i as u32))
    }

    /// Looks up an index variable by source name.
    pub fn index_by_name(&self, name: &str) -> Option<IndexId> {
        self.indices
            .iter()
            .position(|a| a.name == name)
            .map(|i| IndexId(i as u32))
    }

    /// Looks up a scalar by source name.
    pub fn scalar_by_name(&self, name: &str) -> Option<ScalarId> {
        self.scalars
            .iter()
            .position(|a| a.name == name)
            .map(|i| ScalarId(i as u32))
    }

    /// Resolves every symbolic constant against `bindings`, returning the
    /// concrete constant table (indexed by [`ConstId`]).
    pub fn resolve_consts(&self, bindings: &ConstBindings) -> Result<Vec<i64>, ResolveError> {
        let mut out = Vec::with_capacity(self.consts.len());
        for name in &self.consts {
            match bindings.get(name) {
                Some(&v) => out.push(v),
                None => {
                    return Err(ResolveError::Unbound { name: name.clone() });
                }
            }
        }
        Ok(out)
    }

    /// Evaluates a [`Value`] against a resolved constant table.
    pub fn eval_value(&self, v: Value, consts: &[i64]) -> i64 {
        match v {
            Value::Lit(x) => x,
            Value::Sym(id) => consts[id.index()],
        }
    }

    /// The inclusive segment range of an index variable under the resolved
    /// constants, validating it.
    pub fn index_range(&self, id: IndexId, consts: &[i64]) -> Result<(i64, i64), ResolveError> {
        let decl = &self.indices[id.index()];
        let low = self.eval_value(decl.low, consts);
        let high = self.eval_value(decl.high, consts);
        if low < 1 || high < low {
            return Err(ResolveError::BadRange {
                index: decl.name.clone(),
                low,
                high,
            });
        }
        Ok((low, high))
    }

    /// The source `(file, line)` of the instruction at `pc`, when the
    /// program carries a line table.
    pub fn source_of(&self, pc: u32) -> Option<(&str, u32)> {
        let t = self.line_table.as_ref()?;
        Some((t.file.as_str(), t.line_of(pc)?))
    }

    /// Renders a program location: `file:line` when the line table knows the
    /// pc, otherwise `pc N`.
    pub fn locate_pc(&self, pc: u32) -> String {
        match self.source_of(pc) {
            Some((file, line)) => format!("{file}:{line}"),
            None => format!("pc {pc}"),
        }
    }

    /// Interns a string, returning its id (compiler helper).
    pub fn intern(&mut self, s: &str) -> StringId {
        if let Some(i) = self.strings.iter().position(|x| x == s) {
            StringId(i as u32)
        } else {
            self.strings.push(s.to_string());
            StringId((self.strings.len() - 1) as u32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        Program {
            name: "t".into(),
            indices: vec![
                IndexDecl {
                    name: "i".into(),
                    kind: IndexKind::MoIndex,
                    low: Value::Lit(1),
                    high: Value::Sym(ConstId(0)),
                },
                IndexDecl {
                    name: "n".into(),
                    kind: IndexKind::Simple,
                    low: Value::Lit(1),
                    high: Value::Lit(10),
                },
            ],
            arrays: vec![ArrayDecl {
                name: "X".into(),
                kind: ArrayKind::Distributed,
                dims: vec![IndexId(0), IndexId(0)],
                sparse: false,
            }],
            scalars: vec![ScalarDecl {
                name: "e".into(),
                init: 0.0,
            }],
            consts: vec!["norb".into()],
            procs: vec![],
            strings: vec![],
            code: vec![],
            line_table: None,
        }
    }

    #[test]
    fn lookup_by_name() {
        let p = sample();
        assert_eq!(p.array_by_name("X"), Some(ArrayId(0)));
        assert_eq!(p.index_by_name("n"), Some(IndexId(1)));
        assert_eq!(p.scalar_by_name("e"), Some(ScalarId(0)));
        assert_eq!(p.array_by_name("nope"), None);
    }

    #[test]
    fn resolve_consts_binds() {
        let p = sample();
        let mut b = ConstBindings::new();
        b.insert("norb".into(), 8);
        let c = p.resolve_consts(&b).unwrap();
        assert_eq!(c, vec![8]);
        assert_eq!(p.index_range(IndexId(0), &c).unwrap(), (1, 8));
    }

    #[test]
    fn unbound_const_is_error() {
        let p = sample();
        let b = ConstBindings::new();
        assert!(matches!(
            p.resolve_consts(&b),
            Err(ResolveError::Unbound { .. })
        ));
    }

    #[test]
    fn bad_range_detected() {
        let p = sample();
        let mut b = ConstBindings::new();
        b.insert("norb".into(), 0);
        let c = p.resolve_consts(&b).unwrap();
        assert!(matches!(
            p.index_range(IndexId(0), &c),
            Err(ResolveError::BadRange { .. })
        ));
    }

    #[test]
    fn intern_dedups() {
        let mut p = sample();
        let a = p.intern("foo");
        let b = p.intern("bar");
        let c = p.intern("foo");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(p.strings.len(), 2);
    }

    #[test]
    fn line_table_lookup() {
        let mut p = sample();
        assert_eq!(p.source_of(0), None);
        assert_eq!(p.locate_pc(3), "pc 3");
        p.line_table = Some(LineTable {
            file: "t.sial".into(),
            lines: vec![2, 0, 5],
        });
        assert_eq!(p.source_of(0), Some(("t.sial", 2)));
        assert_eq!(p.source_of(1), None, "0 means unknown");
        assert_eq!(p.locate_pc(2), "t.sial:5");
        assert_eq!(p.locate_pc(9), "pc 9", "past the table");
    }

    #[test]
    fn subindex_compatibility() {
        let sub = IndexKind::Subindex { parent: IndexId(0) };
        assert!(sub.compatible(&IndexKind::MoIndex));
        assert!(IndexKind::AoIndex.compatible(&IndexKind::AoIndex));
        assert!(!IndexKind::AoIndex.compatible(&IndexKind::MoIndex));
        assert!(sub.is_segment());
        assert!(!IndexKind::Simple.is_segment());
    }
}
