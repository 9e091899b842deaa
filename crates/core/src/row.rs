//! Compact interned rows: the data-plane representation.
//!
//! Every stored tuple, index key, and join row in the system is a sequence
//! of [`Cell`]s — single `u64` words encoding a [`crate::value::Value`]
//! losslessly against a [`crate::symbols::SymbolTable`]:
//!
//! * small integers (|i| < 2⁶⁰) are stored inline;
//! * strings are interned to `u32` symbol ids;
//! * the rare out-of-range integer is interned like a string;
//! * `Null` is a distinguished word.
//!
//! Hashing and comparing cells is fixed-width `u64` work — no pointer
//! chasing, no byte-wise string hashing — which is what makes index probes
//! and hash joins cheap enough to match the paper's "cost independent of
//! `|D|`" story with good constants. [`RowBuf`] is the owning row type:
//! rows of up to four cells (the common case for projected join rows and
//! index keys) live inline without a heap allocation.

use crate::symbols::Sym;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU64;

/// Discriminant bits in a [`Cell`]'s low three bits. All tags are non-zero
/// so `Cell` can wrap [`NonZeroU64`] (making `Option<Cell>` word-sized).
const TAG_MASK: u64 = 0b111;
const TAG_INT: u64 = 0b001;
const TAG_SYM: u64 = 0b010;
const TAG_NULL: u64 = 0b011;
const TAG_WIDE: u64 = 0b100;

/// Inclusive magnitude bound for inline integers: 61 payload bits.
const SMALL_MIN: i64 = -(1 << 60);
const SMALL_MAX: i64 = (1 << 60) - 1;

/// One interned value: a `u64`-encoded [`crate::value::Value`].
///
/// Cells are meaningful only relative to the [`crate::symbols::SymbolTable`]
/// that produced them; two cells from the same table are equal iff their
/// decoded values are equal. `Ord` is **representation order** (useful for
/// canonical sorting/deduplication), not the semantic order of `Value`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell(NonZeroU64);

/// The decoded shape of a [`Cell`], for callers that need to branch without
/// a symbol table at hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// The padding value.
    Null,
    /// An inline small integer.
    SmallInt(i64),
    /// An interned string.
    Sym(Sym),
    /// An interned out-of-range integer (index into the wide-int pool).
    WideInt(u32),
}

impl Cell {
    /// The `Null` cell.
    pub const NULL: Cell = match NonZeroU64::new(TAG_NULL) {
        Some(bits) => Cell(bits),
        None => unreachable!(),
    };

    /// Encodes a small integer inline; `None` if `i` needs the wide-int
    /// pool (see [`crate::symbols::SymbolTable::encode`]).
    #[inline]
    pub fn from_small_int(i: i64) -> Option<Cell> {
        if (SMALL_MIN..=SMALL_MAX).contains(&i) {
            // Low three bits are the non-zero tag, so the word is non-zero.
            let bits = ((i as u64) << 3) | TAG_INT;
            Some(Cell(NonZeroU64::new(bits).expect("tag bits are non-zero")))
        } else {
            None
        }
    }

    /// Encodes an interned string symbol.
    #[inline]
    pub fn from_sym(sym: Sym) -> Cell {
        let bits = (u64::from(sym.0) << 3) | TAG_SYM;
        Cell(NonZeroU64::new(bits).expect("tag bits are non-zero"))
    }

    /// Encodes a wide-int pool index (crate-internal: produced by the
    /// symbol table).
    #[inline]
    pub(crate) fn from_wide(ix: u32) -> Cell {
        let bits = (u64::from(ix) << 3) | TAG_WIDE;
        Cell(NonZeroU64::new(bits).expect("tag bits are non-zero"))
    }

    /// The decoded shape.
    #[inline]
    pub fn kind(self) -> CellKind {
        let bits = self.0.get();
        let payload = bits >> 3;
        match bits & TAG_MASK {
            TAG_INT => CellKind::SmallInt((bits as i64) >> 3),
            TAG_SYM => CellKind::Sym(Sym(payload as u32)),
            TAG_NULL => CellKind::Null,
            TAG_WIDE => CellKind::WideInt(payload as u32),
            _ => unreachable!("invalid cell tag"),
        }
    }

    /// `true` if this is the `Null` cell.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0.get() == TAG_NULL
    }

    /// The inline integer payload, if this is a small-int cell. (Wide
    /// integers need the symbol table to decode; see
    /// [`crate::symbols::SymbolTable::decode`].)
    #[inline]
    pub fn as_small_int(self) -> Option<i64> {
        match self.kind() {
            CellKind::SmallInt(i) => Some(i),
            _ => None,
        }
    }

    /// The raw word (diagnostics / hashing experiments).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0.get()
    }

    /// Reconstructs a cell from a raw word previously obtained via
    /// [`Cell::raw`] — the durability layer's deserialization path. Returns
    /// `None` for words no encoder produces (zero, an unknown tag, a `Null`
    /// with payload bits, or a symbol / wide-int id wider than 32 bits), so
    /// corrupted log bytes surface as decode failures instead of cells
    /// that compare unequal to the value they decode to.
    #[inline]
    pub fn from_raw(bits: u64) -> Option<Cell> {
        let canonical = match bits & TAG_MASK {
            TAG_INT => true,
            TAG_SYM | TAG_WIDE => bits >> 3 <= u64::from(u32::MAX),
            TAG_NULL => bits == TAG_NULL,
            _ => false,
        };
        canonical.then(|| Cell(NonZeroU64::new(bits).expect("tag bits are non-zero")))
    }
}

impl fmt::Debug for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            CellKind::Null => write!(f, "Cell(NULL)"),
            CellKind::SmallInt(i) => write!(f, "Cell({i})"),
            CellKind::Sym(s) => write!(f, "Cell(sym#{})", s.0),
            CellKind::WideInt(ix) => write!(f, "Cell(wide#{ix})"),
        }
    }
}

/// A borrowed row of cells.
pub type Row = [Cell];

/// How many cells fit inline before [`RowBuf`] spills to the heap. Sized
/// for the common data-plane rows: projected join rows and index keys are
/// almost always ≤ 4 columns.
const INLINE_CELLS: usize = 4;

/// An owning row of [`Cell`]s with inline storage for up to
/// `INLINE_CELLS` (4) cells — no heap allocation on the hot path.
#[derive(Clone)]
pub struct RowBuf(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        cells: [Cell; INLINE_CELLS],
    },
    Heap(Vec<Cell>),
}

impl RowBuf {
    /// The empty row (also the Boolean-query witness tuple).
    #[inline]
    pub fn new() -> Self {
        RowBuf(Repr::Inline {
            len: 0,
            cells: [Cell::NULL; INLINE_CELLS],
        })
    }

    /// An empty row that can hold `n` cells without reallocation.
    pub fn with_capacity(n: usize) -> Self {
        if n <= INLINE_CELLS {
            Self::new()
        } else {
            RowBuf(Repr::Heap(Vec::with_capacity(n)))
        }
    }

    /// Appends one cell.
    #[inline]
    pub fn push(&mut self, cell: Cell) {
        match &mut self.0 {
            Repr::Inline { len, cells } => {
                if usize::from(*len) < INLINE_CELLS {
                    cells[usize::from(*len)] = cell;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_CELLS * 2);
                    v.extend_from_slice(&cells[..]);
                    v.push(cell);
                    self.0 = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => v.push(cell),
        }
    }

    /// The cells as a slice.
    #[inline]
    pub fn as_slice(&self) -> &Row {
        match &self.0 {
            Repr::Inline { len, cells } => &cells[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Heap(v) => v.len(),
        }
    }

    /// `true` if the row has no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes this row owns on the heap: 0 while it fits inline.
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Repr::Inline { .. } => 0,
            Repr::Heap(v) => v.capacity() * std::mem::size_of::<Cell>(),
        }
    }
}

impl Default for RowBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for RowBuf {
    type Target = Row;
    #[inline]
    fn deref(&self) -> &Row {
        self.as_slice()
    }
}

impl std::borrow::Borrow<Row> for RowBuf {
    #[inline]
    fn borrow(&self) -> &Row {
        self.as_slice()
    }
}

impl PartialEq for RowBuf {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for RowBuf {}

/// Hash matches `<[Cell] as Hash>` so `RowBuf` keys can be probed with
/// borrowed `&[Cell]` slices (the `Borrow` contract).
impl Hash for RowBuf {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl PartialOrd for RowBuf {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RowBuf {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl fmt::Debug for RowBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl FromIterator<Cell> for RowBuf {
    fn from_iter<I: IntoIterator<Item = Cell>>(iter: I) -> Self {
        let mut row = RowBuf::new();
        for cell in iter {
            row.push(cell);
        }
        row
    }
}

impl From<&Row> for RowBuf {
    fn from(cells: &Row) -> Self {
        cells.iter().copied().collect()
    }
}

impl<'a> IntoIterator for &'a RowBuf {
    type Item = &'a Cell;
    type IntoIter = std::slice::Iter<'a, Cell>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fx::FxHashMap;

    #[test]
    fn small_int_roundtrip_and_bounds() {
        for i in [0i64, 1, -1, 42, SMALL_MIN, SMALL_MAX] {
            let c = Cell::from_small_int(i).unwrap();
            assert_eq!(c.kind(), CellKind::SmallInt(i), "{i}");
        }
        assert!(Cell::from_small_int(SMALL_MIN - 1).is_none());
        assert!(Cell::from_small_int(SMALL_MAX + 1).is_none());
        assert!(Cell::from_small_int(i64::MAX).is_none());
        assert!(Cell::from_small_int(i64::MIN).is_none());
    }

    #[test]
    fn tags_are_disjoint() {
        let int0 = Cell::from_small_int(0).unwrap();
        let sym0 = Cell::from_sym(Sym(0));
        let wide0 = Cell::from_wide(0);
        let cells = [int0, sym0, wide0, Cell::NULL];
        for (i, a) in cells.iter().enumerate() {
            for (j, b) in cells.iter().enumerate() {
                assert_eq!(a == b, i == j);
            }
        }
        assert!(Cell::NULL.is_null());
        assert!(!int0.is_null());
    }

    #[test]
    fn from_raw_roundtrips_valid_words_and_rejects_garbage() {
        let cells = [
            Cell::from_small_int(42).unwrap(),
            Cell::from_small_int(-42).unwrap(),
            Cell::from_sym(Sym(7)),
            Cell::from_wide(3),
            Cell::NULL,
        ];
        for c in cells {
            assert_eq!(Cell::from_raw(c.raw()), Some(c));
        }
        assert_eq!(Cell::from_raw(0), None, "zero word is never a cell");
        for bad_tag in [0b000u64, 0b101, 0b110, 0b111] {
            assert_eq!(Cell::from_raw((99 << 3) | bad_tag), None, "tag {bad_tag:b}");
        }
        // Words with a known tag that no encoder writes: they would decode
        // to a value without comparing equal to its cell.
        assert_eq!(Cell::from_raw((1 << 3) | TAG_NULL), None, "Null payload");
        for tag in [TAG_SYM, TAG_WIDE] {
            assert_eq!(Cell::from_raw((1 << 35) | tag), None, "33-bit id");
            let widest = (u64::from(u32::MAX) << 3) | tag;
            assert_eq!(Cell::from_raw(widest).map(Cell::raw), Some(widest));
        }
    }

    #[test]
    fn option_cell_is_word_sized() {
        assert_eq!(std::mem::size_of::<Option<Cell>>(), 8);
        assert_eq!(std::mem::size_of::<Cell>(), 8);
    }

    #[test]
    fn rowbuf_inline_then_heap() {
        let mut r = RowBuf::new();
        assert!(r.is_empty());
        for i in 0..10 {
            r.push(Cell::from_small_int(i).unwrap());
            assert_eq!(r.len(), (i + 1) as usize);
        }
        let decoded: Vec<i64> = r
            .iter()
            .map(|c| match c.kind() {
                CellKind::SmallInt(i) => i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(decoded, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn rowbuf_eq_hash_agree_across_reprs() {
        // Same cells, one inline (len 4) and one spilled via with_capacity.
        let cells: Vec<Cell> = (0..4).map(|i| Cell::from_small_int(i).unwrap()).collect();
        let inline: RowBuf = cells.iter().copied().collect();
        let mut heap = RowBuf::with_capacity(16);
        for &c in &cells {
            heap.push(c);
        }
        assert_eq!(inline, heap);
        let mut m: FxHashMap<RowBuf, u32> = FxHashMap::default();
        m.insert(inline, 7);
        assert_eq!(m.get(heap.as_slice()), Some(&7));
    }

    #[test]
    fn rowbuf_borrow_lookup() {
        let mut m: FxHashMap<RowBuf, &'static str> = FxHashMap::default();
        let key: RowBuf = [Cell::from_sym(Sym(3)), Cell::NULL].into_iter().collect();
        m.insert(key, "hit");
        let probe = [Cell::from_sym(Sym(3)), Cell::NULL];
        assert_eq!(m.get(&probe[..]), Some(&"hit"));
        let miss = [Cell::from_sym(Sym(4)), Cell::NULL];
        assert_eq!(m.get(&miss[..]), None);
    }
}
