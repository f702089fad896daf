//! Simulated device global memory with a built-in sanitizer.
//!
//! A flat byte-addressable store with a bump allocator. Kernel `Ld`/`St`
//! instructions operate on this memory through typed, bounds- and
//! alignment-checked accessors, so layout bugs (the paper's whole subject)
//! surface as typed [`DeviceError`]s instead of silently wrong physics.
//!
//! The sanitizer keeps a shadow byte map mirroring the data:
//!
//! * every allocation is preceded by a [`REDZONE`]-byte **guard band**
//!   (alignment padding is folded into it), so an off-by-one stride or
//!   padding bug faults as [`FaultKind::OutOfBounds`] with `redzone = true`
//!   at the exact faulting access;
//! * fresh allocations are **poison-filled**: loading a byte that was never
//!   stored (by a kernel, [`GlobalMemory::upload`] or
//!   [`GlobalMemory::alloc_zeroed`]) is a [`FaultKind::UninitializedRead`];
//! * every 32-bit word carries an **ECC-style checksum** updated by every
//!   legitimate store path. A soft error (a bit flip injected through
//!   [`GlobalMemory::corrupt_bit`], the model of a cosmic-ray strike on
//!   non-ECC GDDR) perturbs the data *without* updating the checksum, so
//!   host readback ([`GlobalMemory::download`]) and whole-memory scans
//!   ([`GlobalMemory::verify_all`]) surface the corruption as a typed
//!   [`FaultKind::EccMismatch`] at the exact word instead of silently wrong
//!   physics. Loads check the checksum too: a word read while stale stays
//!   reported by verification even after a later store refreshed it, so a
//!   kernel that reads a struck word and writes the result back (a carried
//!   accumulator, an in-place update) cannot launder the strike.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::fault::{DeviceError, DeviceResult, FaultKind};
use crate::ir::MemSpace;

/// Alignment guaranteed by [`GlobalMemory::alloc`] — `cudaMalloc` guarantees
/// at least 256 bytes, which also satisfies every coalescing base-alignment
/// rule in [`crate::coalesce`].
pub const ALLOC_ALIGN: u64 = 256;

/// Minimum guard-band bytes preceding every allocation. Equal to
/// [`ALLOC_ALIGN`] so redzones never perturb the base alignment the
/// coalescing rules depend on.
pub const REDZONE: u64 = ALLOC_ALIGN;

/// Byte value poison-filled into fresh allocations (visible in hex dumps).
pub const POISON_BYTE: u8 = 0xA5;

// Shadow states, one byte per data byte.
const SH_UNALLOC: u8 = 0; // never allocated (includes the tail of the space)
const SH_REDZONE: u8 = 1; // guard band between allocations
const SH_POISON: u8 = 2; // allocated, never written
const SH_INIT: u8 = 3; // allocated and written

/// A device pointer: byte offset into the simulated global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DevicePtr(pub u64);

impl DevicePtr {
    /// Pointer arithmetic in bytes.
    #[inline]
    pub fn offset(self, bytes: u64) -> DevicePtr {
        DevicePtr(self.0 + bytes)
    }

    /// The raw address.
    #[inline]
    pub fn addr(self) -> u64 {
        self.0
    }
}

/// One live allocation, as tracked for [`GlobalMemory::free`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AllocRecord {
    /// Value of the bump pointer before this allocation (restored on free).
    prev_next: u64,
    /// Base address handed to the caller.
    start: u64,
    /// Requested size in bytes (redzone/padding excluded).
    size: u64,
}

/// Simulated device global memory with a bump allocator and sanitizer
/// shadow map.
///
/// Equality compares the *entire* device state — data, shadow map, ECC
/// checksums and allocator bookkeeping — which is exactly the witness the
/// parallel-executor difftests need for "bit-identical to sequential".
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalMemory {
    data: Vec<u8>,
    shadow: Vec<u8>,
    /// One checksum byte per 32-bit data word, maintained by every
    /// legitimate store path and deliberately *not* by [`Self::corrupt_bit`].
    ecc: Vec<u8>,
    next: u64,
    /// Live allocations in order (a stack: the bump allocator frees LIFO).
    allocs: Vec<AllocRecord>,
    /// Highest value `next` ever reached — the high-water mark of the
    /// allocator across the memory's lifetime, `free`/`reset` included.
    high_water: u64,
    /// The lowest-addressed word a load found with a stale checksum.
    bad_read: BadRead,
}

/// The lowest-addressed word a load found with a mismatching ECC checksum,
/// packed as `addr << 16 | expected << 8 | actual` (`u64::MAX` = none).
///
/// Loads take `&self` — the parallel executor's [`BlockShard`]s share one
/// base memory — so the record is an atomic minimum: whichever order the
/// blocks run in, the same word is recorded as on the sequential path.
/// `Relaxed` suffices: the packed word publishes no other data, and the
/// executor joins its workers before anything reads the record.
#[derive(Debug)]
struct BadRead(AtomicU64);

impl BadRead {
    const NONE: u64 = u64::MAX;

    fn note(&self, addr: u64, expected: u8, actual: u8) {
        let packed = addr << 16 | u64::from(expected) << 8 | u64::from(actual);
        self.0.fetch_min(packed, Ordering::Relaxed);
    }

    /// `(addr, expected, actual)` of the recorded word, if any.
    fn get(&self) -> Option<(u64, u8, u8)> {
        let v = self.0.load(Ordering::Relaxed);
        (v != Self::NONE).then_some((v >> 16, (v >> 8) as u8, v as u8))
    }

    /// Forget a recorded word at or above `addr` (it was deallocated).
    fn clear_from(&mut self, addr: u64) {
        let v = self.0.get_mut();
        if *v >> 16 >= addr {
            *v = Self::NONE;
        }
    }
}

impl Clone for BadRead {
    fn clone(&self) -> Self {
        BadRead(AtomicU64::new(self.0.load(Ordering::Relaxed)))
    }
}

impl PartialEq for BadRead {
    fn eq(&self, other: &Self) -> bool {
        self.0.load(Ordering::Relaxed) == other.0.load(Ordering::Relaxed)
    }
}

impl GlobalMemory {
    /// Create a memory of `capacity` bytes (the 8800 GTX shipped 768 MiB; the
    /// experiments here need far less, so pick what the workload requires).
    pub fn new(capacity: u64) -> Self {
        GlobalMemory {
            data: vec![0u8; capacity as usize],
            shadow: vec![SH_UNALLOC; capacity as usize],
            // Unallocated words are never verified; alloc paths refresh the
            // checksum of every word they touch, so the initial fill is moot.
            ecc: vec![0u8; (capacity as usize).div_ceil(4)],
            next: 0,
            allocs: Vec::new(),
            high_water: 0,
            bad_read: BadRead(AtomicU64::new(BadRead::NONE)),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    /// Bytes consumed by the allocator so far — allocations plus their
    /// redzones and alignment padding. Deterministic: equal to
    /// [`GlobalMemory::footprint`] of the allocation sizes made so far.
    pub fn allocated(&self) -> u64 {
        self.next
    }

    /// The exact bytes [`GlobalMemory::allocated`] will report after
    /// allocating `sizes` in order on a fresh memory — the redzone- and
    /// alignment-aware footprint. Use it to size a memory exactly.
    pub fn footprint(sizes: &[u64]) -> u64 {
        let mut next = 0u64;
        for &s in sizes {
            let start = (next + REDZONE).next_multiple_of(ALLOC_ALIGN);
            next = start + s;
        }
        next
    }

    /// Bytes not yet consumed by the allocator: `capacity - allocated`.
    pub fn free_bytes(&self) -> u64 {
        self.capacity() - self.next
    }

    /// Highest value [`GlobalMemory::allocated`] ever reached over the
    /// memory's lifetime ([`GlobalMemory::free`] and
    /// [`GlobalMemory::reset`] lower `allocated` but never this).
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.allocs.len()
    }

    /// The typed, recoverable allocation-failure error for a request of
    /// `bytes` against the current allocator state.
    fn oom(&self, bytes: u64) -> DeviceError {
        DeviceError::new(FaultKind::OutOfMemory {
            requested: bytes,
            free: self.free_bytes(),
            capacity: self.capacity(),
        })
    }

    /// Allocate `bytes`, aligned to [`ALLOC_ALIGN`], preceded by a redzone
    /// guard band and poison-filled (reading before writing is a fault).
    ///
    /// Exhaustion is never a panic and never wraps: any request the bump
    /// pointer cannot satisfy — including pathological sizes whose redzone
    /// or end address would overflow `u64` — returns the typed, recoverable
    /// [`FaultKind::OutOfMemory`] and leaves the allocator untouched.
    pub fn alloc(&mut self, bytes: u64) -> DeviceResult<DevicePtr> {
        let start = self
            .next
            .checked_add(REDZONE)
            .and_then(|s| s.checked_next_multiple_of(ALLOC_ALIGN))
            .ok_or_else(|| self.oom(bytes))?;
        let end = start.checked_add(bytes).ok_or_else(|| self.oom(bytes))?;
        if end > self.capacity() {
            return Err(self.oom(bytes));
        }
        self.shadow[self.next as usize..start as usize].fill(SH_REDZONE);
        self.shadow[start as usize..end as usize].fill(SH_POISON);
        self.data[start as usize..end as usize].fill(POISON_BYTE);
        self.refresh_ecc(start, end);
        self.allocs.push(AllocRecord {
            prev_next: self.next,
            start,
            size: bytes,
        });
        self.next = end;
        self.high_water = self.high_water.max(end);
        Ok(DevicePtr(start))
    }

    /// Free the most recent live allocation (the bump allocator is a stack,
    /// so frees must be LIFO — streaming workloads allocate a chunk, run,
    /// and free it before the next chunk). The freed range *and its redzone*
    /// revert to unallocated: any later access faults as
    /// [`FaultKind::OutOfBounds`], exactly like memory that was never
    /// allocated. Freeing a pointer that is not the top of the stack is a
    /// typed [`FaultKind::InvalidFree`], never a panic or silent corruption.
    pub fn free(&mut self, ptr: DevicePtr) -> DeviceResult<()> {
        match self.allocs.last().copied() {
            Some(rec) if rec.start == ptr.0 => {
                self.allocs.pop();
                // Unallocate the data span and the redzone/padding before it;
                // the ECC map needs no update (unallocated words are skipped
                // by verification, and a later alloc refreshes them).
                self.shadow[rec.prev_next as usize..self.next as usize].fill(SH_UNALLOC);
                self.next = rec.prev_next;
                self.bad_read.clear_from(self.next);
                Ok(())
            }
            top => Err(DeviceError::new(FaultKind::InvalidFree {
                ptr: ptr.0,
                expected: top.map(|r| r.start),
            })),
        }
    }

    /// Free everything: rewind the allocator to an empty memory (shadow map
    /// cleared, nothing readable). The high-water mark survives — it reports
    /// peak pressure across the whole lifetime. The `cudaDeviceReset` idiom
    /// for reusing one device arena across streaming chunks.
    pub fn reset(&mut self) {
        self.shadow[..self.next as usize].fill(SH_UNALLOC);
        self.allocs.clear();
        self.next = 0;
        self.bad_read.clear_from(0);
    }

    /// As [`GlobalMemory::alloc`], but zero-filled and marked initialized —
    /// the `cudaMalloc` + `cudaMemset(0)` idiom for output buffers whose
    /// unwritten slots are legitimately read back.
    pub fn alloc_zeroed(&mut self, bytes: u64) -> DeviceResult<DevicePtr> {
        let ptr = self.alloc(bytes)?;
        let (s, e) = (ptr.0 as usize, (ptr.0 + bytes) as usize);
        self.data[s..e].fill(0);
        self.shadow[s..e].fill(SH_INIT);
        self.refresh_ecc(s as u64, e as u64);
        Ok(ptr)
    }

    /// Copy a host byte slice to the device (`cudaMemcpy` host→device).
    /// The destination range must lie inside a live allocation.
    pub fn upload(&mut self, dst: DevicePtr, bytes: &[u8]) -> DeviceResult<()> {
        self.check_range(dst.0, bytes.len() as u64, false)?;
        let s = dst.0 as usize;
        self.data[s..s + bytes.len()].copy_from_slice(bytes);
        self.shadow[s..s + bytes.len()].fill(SH_INIT);
        self.refresh_ecc(dst.0, dst.0 + bytes.len() as u64);
        Ok(())
    }

    /// Copy device bytes back to the host (`cudaMemcpy` device→host).
    /// Reading poison (never-written) bytes is a fault, and the range's
    /// ECC checksums are verified — a soft error surfaces here as
    /// [`FaultKind::EccMismatch`] rather than as corrupted host data.
    pub fn download(&self, src: DevicePtr, len: u64) -> DeviceResult<Vec<u8>> {
        self.check_range(src.0, len, true)?;
        self.verify_range(src.0, len)?;
        let s = src.0 as usize;
        Ok(self.data[s..s + len as usize].to_vec())
    }

    /// Allocate and upload a slice of `f32` in one step; returns the pointer.
    pub fn alloc_f32(&mut self, values: &[f32]) -> DeviceResult<DevicePtr> {
        let ptr = self.alloc(values.len() as u64 * 4)?;
        for (i, v) in values.iter().enumerate() {
            self.store_f32(ptr.0 + i as u64 * 4, *v)?;
        }
        Ok(ptr)
    }

    /// Read back `n` `f32` values from `ptr`.
    pub fn read_f32(&self, ptr: DevicePtr, n: usize) -> DeviceResult<Vec<f32>> {
        (0..n)
            .map(|i| self.load_f32(ptr.0 + i as u64 * 4))
            .collect()
    }

    /// Validate an access of `width` bytes at `addr`: natural alignment,
    /// bounds, redzones, and (for loads) poison.
    #[inline]
    fn check(&self, addr: u64, width: u64, is_load: bool) -> DeviceResult<()> {
        if !addr.is_multiple_of(width) {
            return Err(DeviceError::new(FaultKind::Misaligned {
                space: MemSpace::Global,
                addr,
                width,
            }));
        }
        self.check_range(addr, width, is_load)
    }

    /// Bounds/redzone/poison validation without an alignment requirement
    /// (byte copies have none).
    fn check_range(&self, addr: u64, len: u64, is_load: bool) -> DeviceResult<()> {
        let oob = |redzone: bool| {
            DeviceError::new(FaultKind::OutOfBounds {
                space: MemSpace::Global,
                addr,
                width: len,
                limit: self.capacity(),
                redzone,
            })
        };
        let end = addr.checked_add(len).ok_or_else(|| oob(false))?;
        if end > self.capacity() {
            return Err(oob(false));
        }
        for &sh in &self.shadow[addr as usize..end as usize] {
            match sh {
                SH_UNALLOC => return Err(oob(false)),
                SH_REDZONE => return Err(oob(true)),
                SH_POISON if is_load => {
                    return Err(DeviceError::new(FaultKind::UninitializedRead {
                        addr,
                        width: len,
                    }));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Load a 32-bit word as raw bits. A word whose checksum does not match
    /// is returned as stored, but recorded for [`Self::verify_range`].
    #[inline]
    pub fn load_u32(&self, addr: u64) -> DeviceResult<u32> {
        self.check(addr, 4, true)?;
        let a = addr as usize;
        self.note_if_stale(a);
        let d = &self.data[a..a + 4];
        Ok(u32::from_le_bytes([d[0], d[1], d[2], d[3]]))
    }

    /// Record the word at `a` for [`Self::verify_range`] if its checksum
    /// does not match. Kept out of line so the inlined `load_u32` stays
    /// small: inlining the check moved gpu-sim's codegen-unit partition,
    /// which slowed the verifier's `TermArena::intern` by about a third and
    /// the benchmark's `suggest_force` by ~15 %.
    #[inline(never)]
    fn note_if_stale(&self, a: usize) {
        let (expected, actual) = (self.ecc[a / 4], ecc_of(&self.data[a..a + 4]));
        if actual != expected {
            self.bad_read.note(a as u64, expected, actual);
        }
    }

    /// Store a 32-bit word as raw bits.
    #[inline]
    pub fn store_u32(&mut self, addr: u64, v: u32) -> DeviceResult<()> {
        self.check(addr, 4, false)?;
        let a = addr as usize;
        self.data[a..a + 4].copy_from_slice(&v.to_le_bytes());
        self.shadow[a..a + 4].fill(SH_INIT);
        // A 4-byte-aligned store covers exactly one ECC word.
        self.ecc[a / 4] = ecc_of(&self.data[a..a + 4]);
        Ok(())
    }

    /// Load an `f32`.
    #[inline]
    pub fn load_f32(&self, addr: u64) -> DeviceResult<f32> {
        Ok(f32::from_bits(self.load_u32(addr)?))
    }

    /// Store an `f32`.
    #[inline]
    pub fn store_f32(&mut self, addr: u64, v: f32) -> DeviceResult<()> {
        self.store_u32(addr, v.to_bits())
    }

    // -- ECC-style soft-error detection ------------------------------------

    /// Recompute the checksum of every ECC word overlapping `[start, end)`.
    fn refresh_ecc(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let cap = self.data.len();
        for w in (start as usize / 4)..=((end as usize - 1) / 4) {
            let s = w * 4;
            self.ecc[w] = ecc_of(&self.data[s..(s + 4).min(cap)]);
        }
    }

    /// Verify the ECC checksums of every *allocated* word overlapping
    /// `[addr, addr + len)`; the first mismatch is returned as
    /// [`FaultKind::EccMismatch`]. Redzone and never-allocated words are
    /// skipped (nothing legitimate ever reads them). A word a load found
    /// stale counts as a mismatch with the checksums seen at that load, even
    /// if a store has since refreshed it.
    pub fn verify_range(&self, addr: u64, len: u64) -> DeviceResult<()> {
        if len == 0 {
            return Ok(());
        }
        let end = (addr + len).min(self.capacity());
        if addr >= end {
            return Ok(());
        }
        let cap = self.data.len();
        let bad_read = self.bad_read.get();
        for w in (addr as usize / 4)..=((end as usize - 1) / 4) {
            let s = w * 4;
            let e = (s + 4).min(cap);
            if !self.shadow[s..e]
                .iter()
                .any(|&sh| sh == SH_POISON || sh == SH_INIT)
            {
                continue;
            }
            let (expected, actual) = match bad_read {
                Some((a, expected, actual)) if a == s as u64 => (expected, actual),
                _ => (self.ecc[w], ecc_of(&self.data[s..e])),
            };
            if actual != expected {
                return Err(DeviceError::new(FaultKind::EccMismatch {
                    addr: s as u64,
                    expected,
                    actual,
                }));
            }
        }
        Ok(())
    }

    /// Scrub the whole memory: verify the ECC checksum of every allocated
    /// word. The application-level recovery loop runs this after each kernel
    /// launch so a soft error anywhere in the frame's working set — inputs a
    /// kernel already consumed included — is caught before results are
    /// accepted.
    pub fn verify_all(&self) -> DeviceResult<()> {
        self.verify_range(0, self.next)
    }

    /// Inject a soft error: flip bit `bit` (0–7) of the byte at `addr`,
    /// *without* updating the ECC checksum — the model of a radiation-induced
    /// bit flip in non-ECC device memory. The flip itself always "succeeds"
    /// (hardware does not bounds-check cosmic rays); `addr` beyond capacity
    /// or a flip in unallocated space is simply a strike on unused silicon
    /// and is reported back as `false`.
    pub fn corrupt_bit(&mut self, addr: u64, bit: u8) -> bool {
        let a = addr as usize;
        if a >= self.data.len() {
            return false;
        }
        self.data[a] ^= 1 << (bit & 7);
        matches!(self.shadow[a], SH_POISON | SH_INIT)
    }

    /// Vector load of `n` consecutive 32-bit words (n ∈ {1, 2, 4}); the CUDA
    /// rule that a 64/128-bit access must be naturally aligned is enforced.
    pub fn load_vec(&self, addr: u64, n: usize) -> DeviceResult<Vec<u32>> {
        assert!(matches!(n, 1 | 2 | 4), "vector width must be 1, 2 or 4");
        self.check(addr, 4 * n as u64, true)?;
        (0..n).map(|i| self.load_u32(addr + 4 * i as u64)).collect()
    }

    /// Vector store of `n` consecutive 32-bit words (n ∈ {1, 2, 4}).
    pub fn store_vec(&mut self, addr: u64, vals: &[u32]) -> DeviceResult<()> {
        assert!(
            matches!(vals.len(), 1 | 2 | 4),
            "vector width must be 1, 2 or 4"
        );
        self.check(addr, 4 * vals.len() as u64, false)?;
        for (i, v) in vals.iter().enumerate() {
            self.store_u32(addr + 4 * i as u64, *v)?;
        }
        Ok(())
    }

    /// Validate a 32-bit store at `addr` (alignment, bounds, redzones)
    /// without performing it. [`BlockShard`] uses this so a buffered store
    /// faults with exactly the error the real [`GlobalMemory::store_u32`]
    /// would raise — sound because allocation state never changes while a
    /// kernel is in flight.
    #[inline]
    pub fn validate_store_u32(&self, addr: u64) -> DeviceResult<()> {
        self.check(addr, 4, false)
    }
}

/// Word-granular device memory as seen by the warp stepper: everything
/// the executors' `Block::exec` needs from a memory. Implemented by
/// the real [`GlobalMemory`] and by per-block [`BlockShard`] write-views, so
/// one generic executor serves both the sequential and the parallel path.
pub trait DeviceMem {
    /// Load a 32-bit word as raw bits.
    fn load_u32(&self, addr: u64) -> DeviceResult<u32>;
    /// Store a 32-bit word as raw bits.
    fn store_u32(&mut self, addr: u64, v: u32) -> DeviceResult<()>;
}

impl DeviceMem for GlobalMemory {
    #[inline]
    fn load_u32(&self, addr: u64) -> DeviceResult<u32> {
        GlobalMemory::load_u32(self, addr)
    }

    #[inline]
    fn store_u32(&mut self, addr: u64, v: u32) -> DeviceResult<()> {
        GlobalMemory::store_u32(self, addr, v)
    }
}

/// A per-block copy-on-write view over a shared, immutable [`GlobalMemory`].
///
/// The parallel executor runs each block against its own shard: loads read
/// the block's own buffered writes first (read-your-own-writes) and fall
/// through to the frozen base otherwise; stores are validated against the
/// base — allocation state is immutable during a launch, so validity is
/// identical to what the sequential executor would decide — and buffered at
/// word granularity. After the blocks finish, [`BlockShard::into_writes`]
/// yields the final value of every word the block wrote, and the merge step
/// replays those through the real [`GlobalMemory::store_u32`] in ascending
/// block-id (then address) order. Because the sequential end state of every
/// word depends only on the *last* value legitimately stored to it — data,
/// `SH_INIT` shadow, and the ECC checksum are all pure functions of that
/// value — the replay reproduces the sequential executor's memory, shadow
/// map, and ECC state bit-identically (CUDA blocks are independent by
/// construction: no block reads another block's writes within one launch).
#[derive(Debug)]
pub struct BlockShard<'a> {
    base: &'a GlobalMemory,
    writes: std::collections::HashMap<u64, u32>,
}

impl<'a> BlockShard<'a> {
    /// A shard with no buffered writes over `base`.
    pub fn new(base: &'a GlobalMemory) -> Self {
        BlockShard {
            base,
            writes: std::collections::HashMap::new(),
        }
    }

    /// Number of distinct words written so far.
    pub fn written_words(&self) -> usize {
        self.writes.len()
    }

    /// The block's buffered writes — the final value of every word it
    /// stored — in ascending address order, ready to replay.
    pub fn into_writes(self) -> Vec<(u64, u32)> {
        let mut ws: Vec<(u64, u32)> = self.writes.into_iter().collect();
        ws.sort_unstable_by_key(|&(a, _)| a);
        ws
    }
}

impl DeviceMem for BlockShard<'_> {
    #[inline]
    fn load_u32(&self, addr: u64) -> DeviceResult<u32> {
        // Buffered keys are always 4-aligned and validated, so a misaligned
        // or out-of-bounds load never matches and faults in the base below.
        if let Some(&v) = self.writes.get(&addr) {
            return Ok(v);
        }
        self.base.load_u32(addr)
    }

    #[inline]
    fn store_u32(&mut self, addr: u64, v: u32) -> DeviceResult<()> {
        self.base.validate_store_u32(addr)?;
        self.writes.insert(addr, v);
        Ok(())
    }
}

/// Host-side admission control over a device-memory budget.
///
/// A `MemoryBudget` accounts for *reservations* — planned footprints checked
/// **before** any byte is uploaded, so a launch that cannot fit is rejected
/// up front (typed [`FaultKind::OutOfMemory`]) instead of failing halfway
/// through a partial upload. Multiple tenants (or pipeline stages) can
/// reserve against one budget; [`MemoryBudget::high_water`] reports the peak
/// concurrent reservation for capacity planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    capacity: u64,
    reserved: u64,
    high_water: u64,
}

impl MemoryBudget {
    /// A budget of `capacity` bytes with nothing reserved.
    pub fn new(capacity: u64) -> Self {
        MemoryBudget {
            capacity,
            reserved: 0,
            high_water: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently reserved.
    pub fn reserved(&self) -> u64 {
        self.reserved
    }

    /// Bytes still available to reserve.
    pub fn remaining(&self) -> u64 {
        self.capacity - self.reserved
    }

    /// Peak concurrent reservation over the budget's lifetime.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Whether a reservation of `bytes` would be admitted right now.
    pub fn admits(&self, bytes: u64) -> bool {
        bytes <= self.remaining()
    }

    /// Reserve `bytes`, or reject with a typed [`FaultKind::OutOfMemory`]
    /// (the budget is left unchanged on rejection).
    pub fn reserve(&mut self, bytes: u64) -> DeviceResult<()> {
        if !self.admits(bytes) {
            return Err(DeviceError::new(FaultKind::OutOfMemory {
                requested: bytes,
                free: self.remaining(),
                capacity: self.capacity,
            }));
        }
        self.reserved += bytes;
        self.high_water = self.high_water.max(self.reserved);
        Ok(())
    }

    /// Release a prior reservation of `bytes` (saturating: releasing more
    /// than is reserved clamps to zero rather than wrapping).
    pub fn release(&mut self, bytes: u64) {
        self.reserved = self.reserved.saturating_sub(bytes);
    }
}

/// Checksum of one data word (up to 4 bytes): an XOR fold seeded with a
/// constant so an all-zero word has a non-zero checksum. Any single-bit data
/// flip changes the fold, which is all the soft-error model needs.
#[inline]
fn ecc_of(word: &[u8]) -> u8 {
    word.iter().fold(0x5Au8, |acc, &b| acc ^ b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = GlobalMemory::new(1 << 16);
        let a = m.alloc(100).unwrap();
        let b = m.alloc(100).unwrap();
        assert_eq!(a.0 % ALLOC_ALIGN, 0);
        assert_eq!(b.0 % ALLOC_ALIGN, 0);
        assert!(
            b.0 >= a.0 + 100 + REDZONE,
            "allocations must be separated by a redzone"
        );
    }

    #[test]
    fn footprint_predicts_allocated_exactly() {
        let sizes = [100u64, 0, 4096, 28 * 64, 17];
        let mut m = GlobalMemory::new(GlobalMemory::footprint(&sizes));
        for s in sizes {
            m.alloc(s).unwrap();
        }
        assert_eq!(m.allocated(), m.capacity());
        // One more byte does not fit.
        assert_eq!(m.alloc(1).unwrap_err().kind.name(), "OutOfMemory");
    }

    #[test]
    fn f32_roundtrip_including_nan_payloads() {
        let mut m = GlobalMemory::new(1024);
        let p = m.alloc(16).unwrap();
        m.store_f32(p.0, -0.0).unwrap();
        assert_eq!(m.load_f32(p.0).unwrap().to_bits(), (-0.0f32).to_bits());
        m.store_u32(p.0 + 4, 0x7FC0_1234).unwrap(); // NaN with payload survives as bits
        assert_eq!(m.load_u32(p.0 + 4).unwrap(), 0x7FC0_1234);
    }

    #[test]
    fn upload_download_roundtrip() {
        let mut m = GlobalMemory::new(4096);
        let p = m.alloc(8).unwrap();
        m.upload(p, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!(m.download(p, 8).unwrap(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn alloc_f32_and_read_back() {
        let mut m = GlobalMemory::new(4096);
        let xs = [1.0f32, -2.5, 3.25];
        let p = m.alloc_f32(&xs).unwrap();
        assert_eq!(m.read_f32(p, 3).unwrap(), xs.to_vec());
    }

    #[test]
    fn oob_load_is_a_typed_fault() {
        let m = GlobalMemory::new(16);
        let e = m.load_u32(16).unwrap_err();
        assert!(matches!(
            e.kind,
            FaultKind::OutOfBounds {
                addr: 16,
                width: 4,
                ..
            }
        ));
    }

    #[test]
    fn misaligned_vec_load_is_a_typed_fault() {
        let mut m = GlobalMemory::new(1024);
        let p = m.alloc(32).unwrap();
        // float4 load at +4 is not 16-byte aligned.
        let e = m.load_vec(p.0 + 4, 4).unwrap_err();
        assert!(matches!(e.kind, FaultKind::Misaligned { width: 16, .. }));
    }

    #[test]
    fn oom_is_a_typed_fault() {
        let mut m = GlobalMemory::new(1024);
        m.alloc(256).unwrap();
        let e = m.alloc(4096).unwrap_err();
        match e.kind {
            FaultKind::OutOfMemory {
                requested,
                free,
                capacity,
            } => {
                assert_eq!(requested, 4096);
                assert_eq!(free, 1024 - m.allocated());
                assert_eq!(capacity, 1024);
            }
            k => panic!("wrong kind {k:?}"),
        }
    }

    /// The exactly-capacity / capacity+1 boundary: a request that fills the
    /// memory to the last byte succeeds; one byte more is a typed OOM that
    /// leaves the allocator untouched (no partial state, no wrap, no panic).
    #[test]
    fn alloc_boundary_at_exact_capacity() {
        let fits = GlobalMemory::footprint(&[300]);
        let mut m = GlobalMemory::new(fits);
        let p = m.alloc(300).unwrap();
        assert_eq!(m.allocated(), fits);
        assert_eq!(m.free_bytes(), 0);
        m.free(p).unwrap();

        // Same request against one byte less: rejected, allocator untouched.
        let mut m = GlobalMemory::new(fits - 1);
        let before = m.allocated();
        let e = m.alloc(300).unwrap_err();
        assert!(matches!(e.kind, FaultKind::OutOfMemory { .. }));
        assert_eq!(
            m.allocated(),
            before,
            "failed alloc must not move the bump pointer"
        );
        assert_eq!(m.live_allocations(), 0);
        // And a request of capacity+1 raw bytes on a fresh memory.
        let e = m.alloc(m.capacity() + 1).unwrap_err();
        assert!(matches!(e.kind, FaultKind::OutOfMemory { .. }));
    }

    /// Pathological sizes whose end address (or redzone arithmetic) would
    /// overflow u64 are typed OOMs, never wraps or panics.
    #[test]
    fn overflowing_requests_are_typed_oom_not_wraps() {
        let mut m = GlobalMemory::new(1024);
        for bytes in [u64::MAX, u64::MAX - 1, u64::MAX - REDZONE, 1 << 63] {
            let e = m.alloc(bytes).unwrap_err();
            assert!(
                matches!(e.kind, FaultKind::OutOfMemory { .. }),
                "{bytes:#x}"
            );
        }
        assert_eq!(m.allocated(), 0);
        assert!(
            m.alloc(64).is_ok(),
            "allocator still serviceable after rejections"
        );
    }

    #[test]
    fn free_is_lifo_and_restores_unallocated_state() {
        let mut m = GlobalMemory::new(1 << 16);
        let a = m.alloc(100).unwrap();
        let b = m.alloc(200).unwrap();
        let after_a = GlobalMemory::footprint(&[100]);
        // Freeing out of order is a typed fault naming the legal victim.
        let e = m.free(a).unwrap_err();
        assert!(
            matches!(e.kind, FaultKind::InvalidFree { ptr, expected: Some(x) }
                if ptr == a.0 && x == b.0),
            "got {:?}",
            e.kind
        );
        m.free(b).unwrap();
        assert_eq!(m.allocated(), after_a);
        // The freed span (and its redzone) is unallocated again.
        let e = m.load_u32(b.0).unwrap_err();
        assert!(matches!(
            e.kind,
            FaultKind::OutOfBounds { redzone: false, .. }
        ));
        m.free(a).unwrap();
        assert_eq!(m.allocated(), 0);
        let e = m.free(a).unwrap_err();
        assert!(matches!(
            e.kind,
            FaultKind::InvalidFree { expected: None, .. }
        ));
        // Alloc/free cycles do not leak: the same sequence fits again.
        assert_eq!(m.alloc(100).unwrap(), a);
    }

    #[test]
    fn freed_then_reallocated_memory_is_poison_again() {
        let mut m = GlobalMemory::new(4096);
        let p = m.alloc(64).unwrap();
        m.store_u32(p.0, 0xFEED_FACE).unwrap();
        m.free(p).unwrap();
        let q = m.alloc(64).unwrap();
        assert_eq!(q, p, "bump pointer rewound");
        let e = m.load_u32(q.0).unwrap_err();
        assert!(
            matches!(e.kind, FaultKind::UninitializedRead { .. }),
            "stale data must not leak through a free/alloc cycle"
        );
    }

    #[test]
    fn reset_rewinds_everything_but_keeps_high_water() {
        let mut m = GlobalMemory::new(1 << 16);
        let a = m.alloc_zeroed(1000).unwrap();
        m.alloc_zeroed(2000).unwrap();
        let peak = m.allocated();
        m.reset();
        assert_eq!(m.allocated(), 0);
        assert_eq!(m.live_allocations(), 0);
        assert_eq!(m.high_water(), peak, "high-water survives reset");
        assert!(m.load_u32(a.0).is_err(), "nothing readable after reset");
        assert!(m.verify_all().is_ok());
        // The arena is fully reusable.
        let b = m.alloc_zeroed(3000).unwrap();
        assert_eq!(b.0, a.0);
        assert_eq!(m.download(b, 3000).unwrap(), vec![0u8; 3000]);
        assert!(m.high_water() >= peak);
    }

    #[test]
    fn ecc_shadow_stays_consistent_across_free_and_realloc() {
        let mut m = GlobalMemory::new(1 << 16);
        let a = m.alloc_zeroed(256).unwrap();
        m.store_u32(a.0, 0xABCD_0123).unwrap();
        let b = m.alloc_zeroed(256).unwrap();
        m.corrupt_bit(b.0 + 7, 2);
        // The corrupted word dies with the free: the whole memory verifies.
        m.free(b).unwrap();
        assert!(
            m.verify_all().is_ok(),
            "freed corruption must not trip the scrub"
        );
        let b2 = m.alloc_zeroed(256).unwrap();
        assert_eq!(b2, b);
        assert!(m.verify_all().is_ok(), "realloc refreshes the checksums");
        assert_eq!(
            m.load_u32(a.0).unwrap(),
            0xABCD_0123,
            "survivor data intact"
        );
    }

    #[test]
    fn budget_admission_reserve_release_and_high_water() {
        let mut b = MemoryBudget::new(1000);
        assert!(b.admits(1000) && !b.admits(1001));
        b.reserve(600).unwrap();
        assert_eq!(b.remaining(), 400);
        // Rejection is typed, pre-flight, and leaves the budget unchanged.
        let e = b.reserve(401).unwrap_err();
        match e.kind {
            FaultKind::OutOfMemory {
                requested,
                free,
                capacity,
            } => {
                assert_eq!((requested, free, capacity), (401, 400, 1000));
            }
            k => panic!("wrong kind {k:?}"),
        }
        assert_eq!(b.reserved(), 600);
        b.reserve(400).unwrap();
        assert_eq!(b.high_water(), 1000);
        b.release(700);
        assert_eq!(b.remaining(), 700);
        b.release(u64::MAX); // saturates, never wraps
        assert_eq!(b.reserved(), 0);
        assert_eq!(b.high_water(), 1000, "high-water survives releases");
    }

    #[test]
    fn redzone_between_allocations_is_caught() {
        let mut m = GlobalMemory::new(1 << 16);
        let a = m.alloc(256).unwrap();
        let _b = m.alloc(256).unwrap();
        // One word past the end of `a` lands in the guard band.
        let e = m.load_u32(a.0 + 256).unwrap_err();
        match e.kind {
            FaultKind::OutOfBounds { redzone, .. } => assert!(redzone, "must flag the redzone"),
            k => panic!("wrong kind {k:?}"),
        }
        // Stores are rejected identically.
        let e = m.store_u32(a.0 + 256, 1).unwrap_err();
        assert!(matches!(
            e.kind,
            FaultKind::OutOfBounds { redzone: true, .. }
        ));
    }

    #[test]
    fn poison_read_is_caught_and_stores_heal_it() {
        let mut m = GlobalMemory::new(4096);
        let p = m.alloc(64).unwrap();
        let e = m.load_u32(p.0).unwrap_err();
        assert!(matches!(e.kind, FaultKind::UninitializedRead { addr, width: 4 } if addr == p.0));
        m.store_u32(p.0, 7).unwrap();
        assert_eq!(m.load_u32(p.0).unwrap(), 7);
        // The next word is still poison.
        assert!(m.load_u32(p.0 + 4).is_err());
    }

    #[test]
    fn alloc_zeroed_reads_back_as_zero() {
        let mut m = GlobalMemory::new(4096);
        let p = m.alloc_zeroed(64).unwrap();
        assert_eq!(m.read_f32(p, 16).unwrap(), vec![0.0; 16]);
        assert_eq!(m.download(p, 64).unwrap(), vec![0u8; 64]);
    }

    #[test]
    fn partial_poison_overlap_faults_on_download() {
        let mut m = GlobalMemory::new(4096);
        let p = m.alloc(16).unwrap();
        m.store_u32(p.0, 1).unwrap();
        // Bytes 4..16 were never written.
        let e = m.download(p, 16).unwrap_err();
        assert!(matches!(e.kind, FaultKind::UninitializedRead { .. }));
        assert_eq!(m.download(p, 4).unwrap(), 1u32.to_le_bytes().to_vec());
    }

    #[test]
    fn bit_flip_is_caught_by_ecc_on_download() {
        let mut m = GlobalMemory::new(4096);
        let p = m.alloc_zeroed(64).unwrap();
        m.store_f32(p.0 + 8, 3.5).unwrap();
        assert!(m.download(p, 64).is_ok(), "healthy memory verifies clean");
        assert!(
            m.corrupt_bit(p.0 + 9, 3),
            "strike landed in a live allocation"
        );
        let e = m.download(p, 64).unwrap_err();
        match e.kind {
            FaultKind::EccMismatch {
                addr,
                expected,
                actual,
            } => {
                assert_eq!(addr, p.0 + 8, "mismatch attributed to the struck word");
                assert_ne!(expected, actual);
            }
            k => panic!("wrong kind {k:?}"),
        }
        // verify_all sees it too; untouched ranges still verify clean.
        assert!(m.verify_all().is_err());
        assert!(m.verify_range(p.0, 8).is_ok());
    }

    #[test]
    fn every_single_bit_flip_in_a_word_is_detected() {
        for bit in 0..32u8 {
            let mut m = GlobalMemory::new(1024);
            let p = m.alloc_zeroed(16).unwrap();
            m.store_u32(p.0, 0xDEAD_BEEF).unwrap();
            assert!(m.corrupt_bit(p.0 + (bit / 8) as u64, bit % 8));
            assert!(m.verify_all().is_err(), "bit {bit} flip went undetected");
        }
    }

    #[test]
    fn legitimate_store_heals_a_prior_flip() {
        let mut m = GlobalMemory::new(1024);
        let p = m.alloc_zeroed(16).unwrap();
        m.corrupt_bit(p.0 + 2, 6);
        assert!(m.verify_all().is_err());
        // Re-writing the word through a legitimate path re-syncs the ECC —
        // the re-upload-and-retry recovery model.
        m.store_u32(p.0, 0).unwrap();
        assert!(m.verify_all().is_ok());
    }

    #[test]
    fn a_flip_read_then_stored_back_stays_reported() {
        let mut m = GlobalMemory::new(1024);
        let p = m.alloc_zeroed(16).unwrap();
        m.store_u32(p.0 + 4, 7).unwrap();
        m.corrupt_bit(p.0 + 5, 1);
        // A carried accumulator: read the struck word, write it back.
        let v = m.load_u32(p.0 + 4).unwrap();
        m.store_u32(p.0 + 4, v).unwrap();
        let e = m.verify_all().unwrap_err();
        let FaultKind::EccMismatch {
            addr,
            expected,
            actual,
        } = e.kind
        else {
            panic!("wrong kind {:?}", e.kind);
        };
        assert_eq!(addr, p.0 + 4, "the word read while stale");
        assert_ne!(expected, actual);
        assert!(m.verify_range(p.0, 4).is_ok(), "other words verify clean");
        // Freeing the allocation forgets the record.
        m.free(p).unwrap();
        assert_eq!(m.alloc_zeroed(16).unwrap(), p);
        assert!(m.verify_all().is_ok());
    }

    #[test]
    fn flip_outside_live_allocations_is_harmless() {
        let mut m = GlobalMemory::new(1024);
        let _p = m.alloc_zeroed(16).unwrap();
        // Strike the redzone and far beyond capacity: reported as misses,
        // and nothing a legitimate path reads is affected.
        assert!(!m.corrupt_bit(8, 0));
        assert!(!m.corrupt_bit(1 << 40, 5));
        assert!(m.verify_all().is_ok());
    }

    #[test]
    fn vec_roundtrip() {
        let mut m = GlobalMemory::new(1024);
        let p = m.alloc(16).unwrap();
        m.store_vec(p.0, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.load_vec(p.0, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(m.load_vec(p.0 + 8, 2).unwrap(), vec![3, 4]);
    }

    #[test]
    fn shard_reads_its_own_writes_and_falls_through() {
        let mut m = GlobalMemory::new(4096);
        let p = m.alloc_zeroed(64).unwrap();
        m.store_u32(p.0, 11).unwrap();
        let mut sh = BlockShard::new(&m);
        assert_eq!(DeviceMem::load_u32(&sh, p.0).unwrap(), 11, "fall-through");
        DeviceMem::store_u32(&mut sh, p.0, 22).unwrap();
        DeviceMem::store_u32(&mut sh, p.0 + 4, 33).unwrap();
        assert_eq!(DeviceMem::load_u32(&sh, p.0).unwrap(), 22, "own write");
        assert_eq!(m.load_u32(p.0).unwrap(), 11, "base untouched until commit");
        assert_eq!(sh.into_writes(), vec![(p.0, 22), (p.0 + 4, 33)]);
    }

    #[test]
    fn shard_store_heals_poison_for_its_own_loads() {
        let mut m = GlobalMemory::new(4096);
        let p = m.alloc(64).unwrap();
        let mut sh = BlockShard::new(&m);
        let e = DeviceMem::load_u32(&sh, p.0).unwrap_err();
        assert!(matches!(e.kind, FaultKind::UninitializedRead { .. }));
        DeviceMem::store_u32(&mut sh, p.0, 5).unwrap();
        assert_eq!(DeviceMem::load_u32(&sh, p.0).unwrap(), 5);
    }

    #[test]
    fn shard_faults_match_the_base_exactly() {
        let mut m = GlobalMemory::new(4096);
        let p = m.alloc(64).unwrap();
        let mut sh = BlockShard::new(&m);
        for (addr, is_load) in [
            (p.0 + 2, true),          // misaligned
            (p.0 + 2, false),         //
            (p.0 + 64, false),        // redzone
            (m.capacity() + 8, true), // out of bounds
        ] {
            let shard_err = if is_load {
                DeviceMem::load_u32(&sh, addr).unwrap_err()
            } else {
                DeviceMem::store_u32(&mut sh, addr, 1).unwrap_err()
            };
            let base_err = if is_load {
                m.load_u32(addr).unwrap_err()
            } else {
                m.clone().store_u32(addr, 1).unwrap_err()
            };
            assert_eq!(shard_err, base_err, "addr {addr:#x} is_load {is_load}");
        }
        assert_eq!(sh.written_words(), 0, "faulting stores buffer nothing");
    }

    /// Replaying a shard's writes through the real store path reproduces the
    /// sequential end state bit-exactly: data, shadow (poison healed), and
    /// ECC checksums (a prior soft error on a rewritten word is healed, just
    /// as a sequential overwrite would heal it).
    #[test]
    fn shard_replay_reproduces_sequential_state() {
        let mk = || {
            let mut m = GlobalMemory::new(4096);
            let p = m.alloc(64).unwrap();
            m.store_u32(p.0 + 8, 0xAAAA_0001).unwrap();
            m.corrupt_bit(p.0 + 8, 3);
            (m, p)
        };
        // Sequential reference.
        let (mut seq, p) = mk();
        seq.store_u32(p.0, 1).unwrap();
        seq.store_u32(p.0 + 8, 2).unwrap();
        // Sharded run, then replay.
        let (mut par, _) = mk();
        let mut sh = BlockShard::new(&par);
        DeviceMem::store_u32(&mut sh, p.0 + 8, 99).unwrap();
        DeviceMem::store_u32(&mut sh, p.0, 1).unwrap();
        DeviceMem::store_u32(&mut sh, p.0 + 8, 2).unwrap(); // last value wins
        for (a, v) in sh.into_writes() {
            par.store_u32(a, v).unwrap();
        }
        assert_eq!(seq.data, par.data);
        assert_eq!(seq.shadow, par.shadow);
        assert_eq!(seq.ecc, par.ecc);
        assert!(par.verify_all().is_ok(), "replay healed the soft error");
    }
}
