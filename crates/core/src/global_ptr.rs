//! Global pointers and the values they may reference.

use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;

use gasnex::{Rank, Segment};

/// Scalar types storable in shared segments and transferable by RMA and
/// atomic operations.
///
/// Values are transported as zero-extended 64-bit patterns; segment storage
/// guarantees natural alignment for every implementor (all sizes are powers
/// of two ≤ 8).
///
/// # Safety
///
/// Implementations must roundtrip exactly through `to_bits`/`from_bits` for
/// every value, and `SIZE` must equal `std::mem::size_of::<Self>()`.
pub unsafe trait SegValue: Copy + Send + Sync + 'static {
    /// Size of the value in bytes (power of two, ≤ 8).
    const SIZE: usize;
    /// Encode as a zero-extended little-endian bit pattern.
    fn to_bits(self) -> u64;
    /// Decode from the bit pattern produced by [`to_bits`](Self::to_bits).
    fn from_bits(bits: u64) -> Self;
}

macro_rules! impl_segvalue_int {
    ($($t:ty),*) => {$(
        unsafe impl SegValue for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn to_bits(self) -> u64 {
                // Cast through the unsigned type of the same width so
                // negative values do not sign-extend past SIZE bytes.
                self as u64 & (u64::MAX >> (64 - 8 * Self::SIZE))
            }
            #[inline]
            fn from_bits(bits: u64) -> Self {
                bits as $t
            }
        }
    )*};
}

impl_segvalue_int!(u8, u16, u32, i8, i16, i32, i64, isize);

unsafe impl SegValue for u64 {
    const SIZE: usize = 8;
    #[inline]
    fn to_bits(self) -> u64 {
        self
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits
    }
}

unsafe impl SegValue for usize {
    const SIZE: usize = 8;
    #[inline]
    fn to_bits(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits as usize
    }
}

unsafe impl SegValue for f32 {
    const SIZE: usize = 4;
    #[inline]
    fn to_bits(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

unsafe impl SegValue for f64 {
    const SIZE: usize = 8;
    #[inline]
    fn to_bits(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

/// A pointer into the global address space: a `(rank, segment offset)` pair.
///
/// Global pointers are plain data — `Copy`, `Send`, comparable — so they can
/// be stored in tables and shipped to other ranks (by RPC or by writing them
/// into shared memory as a `u64`-encoded pair via
/// [`encode`](GlobalPtr::encode)/[`decode`](GlobalPtr::decode)).
///
/// Locality queries (`is_local`) and dereferencing (`local`) are methods on
/// the runtime handle [`Upcr`](crate::Upcr), which owns the topology.
pub struct GlobalPtr<T: SegValue> {
    rank: Rank,
    /// Byte offset within the owner's segment. `usize::MAX` encodes null.
    off: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: SegValue> GlobalPtr<T> {
    pub(crate) fn from_parts(rank: Rank, off: usize) -> Self {
        GlobalPtr {
            rank,
            off,
            _marker: PhantomData,
        }
    }

    /// The null global pointer.
    pub fn null() -> Self {
        GlobalPtr::from_parts(Rank(u32::MAX), usize::MAX)
    }

    /// Whether this is the null pointer.
    #[inline]
    pub fn is_null(&self) -> bool {
        self.off == usize::MAX
    }

    /// The rank whose segment this pointer addresses.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Byte offset within the owner's segment.
    #[inline]
    pub fn offset(&self) -> usize {
        self.off
    }

    /// Pointer arithmetic: advance by `n` elements (may be negative).
    #[inline]
    pub fn add(&self, n: usize) -> Self {
        debug_assert!(!self.is_null(), "arithmetic on null global pointer");
        GlobalPtr::from_parts(self.rank, self.off + n * T::SIZE)
    }

    /// Element index difference `self - base` (both must address the same
    /// rank and be element-aligned relative to each other).
    pub fn index_from(&self, base: &Self) -> usize {
        assert_eq!(self.rank, base.rank, "index_from across ranks");
        let diff = self.off - base.off;
        debug_assert_eq!(diff % T::SIZE, 0);
        diff / T::SIZE
    }

    /// Pack into a `u64` for storage in shared memory (rank in the high 24
    /// bits, offset in the low 40 — segments up to 1 TiB).
    pub fn encode(&self) -> u64 {
        if self.is_null() {
            return u64::MAX;
        }
        assert!(self.off < (1 << 40), "offset too large to encode");
        ((self.rank.0 as u64) << 40) | self.off as u64
    }

    /// Unpack a pointer produced by [`encode`](Self::encode).
    pub fn decode(bits: u64) -> Self {
        if bits == u64::MAX {
            return Self::null();
        }
        GlobalPtr::from_parts(Rank((bits >> 40) as u32), (bits & ((1 << 40) - 1)) as usize)
    }
}

impl<T: SegValue> Clone for GlobalPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: SegValue> Copy for GlobalPtr<T> {}
impl<T: SegValue> PartialEq for GlobalPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank && self.off == other.off
    }
}
impl<T: SegValue> Eq for GlobalPtr<T> {}
impl<T: SegValue> std::hash::Hash for GlobalPtr<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.rank.hash(state);
        self.off.hash(state);
    }
}

impl<T: SegValue> fmt::Debug for GlobalPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "GlobalPtr<{}>(null)", std::any::type_name::<T>())
        } else {
            write!(
                f,
                "GlobalPtr<{}>({}:{:#x})",
                std::any::type_name::<T>(),
                self.rank,
                self.off
            )
        }
    }
}

/// The result of downcasting a local global pointer: a direct view of the
/// underlying segment word, the analogue of the raw `T*` from
/// `global_ptr::local()`.
///
/// Reads and writes are relaxed atomic word operations (plain `mov`s on
/// x86-64), which is the sound Rust spelling of the C++ version's ordinary
/// loads and stores under the benchmark's "races allowed, lost updates
/// tolerated" regime.
#[derive(Clone, Copy)]
pub struct LocalRef<'a, T: SegValue> {
    pub(crate) seg: &'a Segment,
    pub(crate) off: usize,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

impl<T: SegValue> LocalRef<'_, T> {
    /// Plain (relaxed) read.
    #[inline]
    pub fn get(&self) -> T {
        T::from_bits(self.seg.read_scalar(self.off, T::SIZE))
    }

    /// Plain (relaxed) write.
    #[inline]
    pub fn set(&self, v: T) {
        self.seg.write_scalar(self.off, T::SIZE, v.to_bits());
    }

    /// Advance by `n` elements.
    #[inline]
    pub fn add(&self, n: usize) -> Self {
        LocalRef {
            seg: self.seg,
            off: self.off + n * T::SIZE,
            _marker: PhantomData,
        }
    }
}

impl LocalRef<'_, u64> {
    /// The hardware atomic word behind this reference, for application code
    /// that wants raw shared-memory atomics after downcasting.
    #[inline]
    pub fn as_atomic(&self) -> &std::sync::atomic::AtomicU64 {
        self.seg.atomic_u64(self.off)
    }

    /// Relaxed `^=` read-modify-write expressed as separate load and store —
    /// the exact (lossy under races) update the raw-C++ GUPS variant
    /// performs.
    #[inline]
    pub fn xor_racy(&self, v: u64) {
        let a = self.seg.atomic_u64(self.off);
        let cur = a.load(Ordering::Relaxed);
        a.store(cur ^ v, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segvalue_roundtrips() {
        assert_eq!(u64::from_bits(0xdeadbeefu64.to_bits()), 0xdeadbeef);
        assert_eq!(i64::from_bits((-5i64).to_bits()), -5);
        assert_eq!(i32::from_bits((-5i32).to_bits()), -5);
        assert_eq!(u8::from_bits(200u8.to_bits()), 200);
        assert_eq!(f64::from_bits(3.25f64.to_bits()), 3.25);
        assert_eq!(f32::from_bits((-0.5f32).to_bits()), -0.5);
        // Negative narrow ints must not leak sign bits past their width.
        assert_eq!((-1i8).to_bits(), 0xFF);
        assert_eq!((-1i16).to_bits(), 0xFFFF);
        assert_eq!((-1i32).to_bits(), 0xFFFF_FFFF);
    }

    #[test]
    fn gptr_identity_and_arithmetic() {
        let p = GlobalPtr::<u64>::from_parts(Rank(3), 64);
        assert_eq!(p.rank(), Rank(3));
        assert_eq!(p.offset(), 64);
        let q = p.add(5);
        assert_eq!(q.offset(), 64 + 40);
        assert_eq!(q.index_from(&p), 5);
        assert_eq!(p, p);
        assert_ne!(p, q);
        assert!(!p.is_null());
    }

    #[test]
    fn null_pointer() {
        let n = GlobalPtr::<u32>::null();
        assert!(n.is_null());
        assert_eq!(n, GlobalPtr::<u32>::null());
        assert!(format!("{n:?}").contains("null"));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = GlobalPtr::<u64>::from_parts(Rank(12345), 0xABCDE8);
        let q = GlobalPtr::<u64>::decode(p.encode());
        assert_eq!(p, q);
        let n = GlobalPtr::<u64>::null();
        assert!(GlobalPtr::<u64>::decode(n.encode()).is_null());
    }

    #[test]
    fn local_ref_views_segment() {
        let seg = Segment::new(64);
        let r = LocalRef::<u64> {
            seg: &seg,
            off: 8,
            _marker: PhantomData,
        };
        r.set(77);
        assert_eq!(r.get(), 77);
        assert_eq!(seg.read_u64(8), 77);
        r.add(1).set(88);
        assert_eq!(seg.read_u64(16), 88);
        r.xor_racy(0xFF);
        assert_eq!(r.get(), 77 ^ 0xFF);
        r.as_atomic().fetch_add(1, Ordering::Relaxed);
        assert_eq!(r.get(), (77 ^ 0xFF) + 1);
    }

    #[test]
    fn narrow_local_ref() {
        let seg = Segment::new(64);
        let r = LocalRef::<i16> {
            seg: &seg,
            off: 2,
            _marker: PhantomData,
        };
        r.set(-123);
        assert_eq!(r.get(), -123);
    }
}
