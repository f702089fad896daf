//! Global-memory coalescing: turning a half-warp's addresses into DRAM
//! transactions.
//!
//! This module is the mechanical heart of the reproduction: Figures 3, 5, 7
//! and 9 of the paper are *diagrams of transaction counts per half-warp* for
//! the four layouts, and Figures 10–12 are downstream consequences of those
//! counts. The three protocols here follow the CUDA programming guide's
//! description of compute-capability 1.0/1.1 and 1.2 coalescing, plus the
//! line-merge hypothesis for the CUDA 1.1 driver (see [`crate::driver`]).

use crate::driver::DriverModel;
use serde::{Deserialize, Serialize};

/// Size in bytes of one per-thread access. CC-1.x coalescing is defined for
/// 32-, 64- and 128-bit words only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessWidth {
    /// 32-bit (one `float`).
    W4 = 4,
    /// 64-bit (`float2`).
    W8 = 8,
    /// 128-bit (`float4`).
    W16 = 16,
}

impl AccessWidth {
    /// Width in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        self as u64
    }

    /// Width in 32-bit words (1, 2 or 4).
    #[inline]
    pub fn words(self) -> usize {
        self as usize / 4
    }

    /// Construct from a byte width.
    pub fn from_bytes(b: u32) -> Option<AccessWidth> {
        match b {
            4 => Some(AccessWidth::W4),
            8 => Some(AccessWidth::W8),
            16 => Some(AccessWidth::W16),
            _ => None,
        }
    }
}

/// One memory transaction issued to the DRAM subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    /// Segment-aligned start address.
    pub start: u64,
    /// Transaction size in bytes (32, 64 or 128).
    pub bytes: u32,
}

/// The result of coalescing one half-warp memory instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoalesceResult {
    /// The transactions issued, in address order.
    pub transactions: Vec<Transaction>,
    /// Whether the hardware classified the access as coalesced
    /// (only meaningful for the CC-1.0/1.1 strict rule).
    pub coalesced: bool,
}

impl CoalesceResult {
    /// Total bytes moved across the bus by this access.
    pub fn total_bytes(&self) -> u64 {
        self.transactions.iter().map(|t| t.bytes as u64).sum()
    }

    /// Number of transactions.
    pub fn count(&self) -> usize {
        self.transactions.len()
    }

    /// Useful bytes (what the threads asked for) over bus bytes — the
    /// efficiency number the paper's layout discussion is really about.
    pub fn efficiency(&self, active_lanes: usize, width: AccessWidth) -> f64 {
        let useful = active_lanes as u64 * width.bytes();
        if self.total_bytes() == 0 {
            return 1.0;
        }
        useful as f64 / self.total_bytes() as f64
    }
}

/// Coalesce one half-warp access under the given driver model.
///
/// `addrs[k]` is the byte address accessed by lane `k`, or `None` if the lane
/// is inactive (predicated off). All active lanes access `width` bytes.
/// Addresses must be naturally aligned to `width` — CUDA gives undefined
/// behaviour otherwise, we panic.
pub fn coalesce_half_warp(
    driver: DriverModel,
    addrs: &[Option<u64>],
    width: AccessWidth,
) -> CoalesceResult {
    assert!(
        addrs.len() <= 16,
        "a half-warp has at most 16 lanes, got {}",
        addrs.len()
    );
    for a in addrs.iter().flatten() {
        assert!(
            a % width.bytes() == 0,
            "misaligned {}-byte access at {:#x}",
            width.bytes(),
            a
        );
    }
    if addrs.iter().all(|a| a.is_none()) {
        return CoalesceResult {
            transactions: Vec::new(),
            coalesced: true,
        };
    }
    match driver {
        DriverModel::Cuda10 => strict_cc10(addrs, width),
        DriverModel::Cuda11 => line_merge_cc11(addrs, width),
        DriverModel::Cuda22 => segmented_cc12(addrs, width),
    }
}

/// Memo key for one half-warp access shape: per-lane byte offsets from the
/// 256-byte-aligned floor of the lowest active address (`u16::MAX` marks an
/// inactive lane), plus the access width. 256 is the coarsest alignment any
/// CC-1.x rule inspects (strict CC-1.0 requires `base % (16 * width) == 0`,
/// i.e. 256 bytes for `float4`), so two half-warps with equal keys make
/// identical protocol decisions and produce identical transaction *sizes* —
/// only the absolute segment starts differ, which the timing model never
/// reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ShapeKey {
    width: AccessWidth,
    offsets: [u16; 16],
}

impl ShapeKey {
    /// Span beyond which shapes are not memoized (scatter patterns repeat
    /// rarely and would bloat the table).
    const MAX_SPAN: u64 = 4096;

    fn of(addrs: &[Option<u64>], width: AccessWidth) -> Option<ShapeKey> {
        let min = addrs.iter().flatten().min().copied()?;
        let base = min & !255;
        let mut offsets = [u16::MAX; 16];
        for (lane, a) in addrs.iter().enumerate() {
            if let Some(a) = *a {
                let off = a - base;
                if off >= Self::MAX_SPAN {
                    return None;
                }
                offsets[lane] = off as u16;
            }
        }
        Some(ShapeKey { width, offsets })
    }
}

/// Memoized coalescing for the timed engine's hot loop: transaction *sizes*
/// per half-warp access shape under one fixed driver model. Streaming
/// kernels replay a handful of shapes millions of times; this answers the
/// repeats from a hash lookup instead of re-running the protocol.
#[derive(Debug)]
pub struct CoalesceCache {
    driver: DriverModel,
    map: std::collections::HashMap<ShapeKey, Vec<u32>>,
    /// Scratch result for shapes that bypass the memo (huge spans).
    scratch: Vec<u32>,
}

impl CoalesceCache {
    /// An empty cache for one driver model.
    pub fn new(driver: DriverModel) -> Self {
        CoalesceCache {
            driver,
            map: std::collections::HashMap::new(),
            scratch: Vec::new(),
        }
    }

    /// The byte sizes of the transactions [`coalesce_half_warp`] would issue
    /// for this access — memoized by shape.
    pub fn transaction_sizes(&mut self, addrs: &[Option<u64>], width: AccessWidth) -> &[u32] {
        let driver = self.driver;
        let sizes = |addrs: &[Option<u64>]| -> Vec<u32> {
            coalesce_half_warp(driver, addrs, width)
                .transactions
                .iter()
                .map(|t| t.bytes)
                .collect()
        };
        match ShapeKey::of(addrs, width) {
            Some(key) => self.map.entry(key).or_insert_with(|| sizes(addrs)),
            None => {
                self.scratch = sizes(addrs);
                &mut self.scratch
            }
        }
    }
}

/// Is the half-warp access coalescible under the strict CC-1.0/1.1 rule?
///
/// Requirements (CUDA programming guide §5.1.2.1, 1.x):
/// * the k-th active thread accesses the k-th word of a contiguous block,
///   i.e. `addr[k] == base + k * width` for *all* lanes (inactive lanes may
///   skip their slot — divergence does not break coalescing on CC 1.0 only if
///   the addresses of active threads still match their slots);
/// * the base address is aligned to `16 * width`.
pub fn is_strictly_coalesced(addrs: &[Option<u64>], width: AccessWidth) -> bool {
    // Find the base from the first active lane's slot.
    let Some((k0, &Some(a0))) = addrs.iter().enumerate().find(|(_, a)| a.is_some()) else {
        return true;
    };
    let w = width.bytes();
    let Some(base) = a0.checked_sub(k0 as u64 * w) else {
        return false;
    };
    if base % (16 * w) != 0 {
        return false;
    }
    addrs
        .iter()
        .enumerate()
        .all(|(k, a)| a.is_none_or(|a| a == base + k as u64 * w))
}

fn strict_cc10(addrs: &[Option<u64>], width: AccessWidth) -> CoalesceResult {
    let w = width.bytes();
    if is_strictly_coalesced(addrs, width) {
        // One 64B transaction for 32-bit words, one 128B for 64-bit words,
        // two 128B for 128-bit words (a half-warp of float4 spans 256B).
        let (k0, a0) = addrs
            .iter()
            .enumerate()
            .find_map(|(k, a)| a.map(|a| (k, a)))
            .expect("at least one active lane");
        let base = a0 - k0 as u64 * w;
        let transactions = match width {
            AccessWidth::W4 => vec![Transaction {
                start: base,
                bytes: 64,
            }],
            AccessWidth::W8 => vec![Transaction {
                start: base,
                bytes: 128,
            }],
            AccessWidth::W16 => vec![
                Transaction {
                    start: base,
                    bytes: 128,
                },
                Transaction {
                    start: base + 128,
                    bytes: 128,
                },
            ],
        };
        CoalesceResult {
            transactions,
            coalesced: true,
        }
    } else {
        // Decay: one transaction per active thread. The minimum transaction
        // granularity is 32 bytes.
        let tb = (w as u32).max(32);
        let mut transactions: Vec<Transaction> = addrs
            .iter()
            .flatten()
            .map(|&a| Transaction {
                start: a - a % tb as u64,
                bytes: tb,
            })
            .collect();
        transactions.sort_by_key(|t| t.start);
        CoalesceResult {
            transactions,
            coalesced: false,
        }
    }
}

/// CUDA 1.1 model: the strict rule, but non-coalesced accesses are merged by
/// the driver per 128-byte line (our hypothesis for the paper's observation
/// that 1.1 "significantly changed how unoptimized accesses are handled").
fn line_merge_cc11(addrs: &[Option<u64>], width: AccessWidth) -> CoalesceResult {
    if is_strictly_coalesced(addrs, width) {
        return strict_cc10(addrs, width);
    }
    let mut lines: Vec<u64> = Vec::new();
    for &a in addrs.iter().flatten() {
        // An access may straddle a 128B line only if width > alignment; our
        // accesses are naturally aligned so a 4/8/16B access touches one line.
        let line = a / 128;
        if !lines.contains(&line) {
            lines.push(line);
        }
    }
    lines.sort_unstable();
    CoalesceResult {
        transactions: lines
            .iter()
            .map(|&l| Transaction {
                start: l * 128,
                bytes: 128,
            })
            .collect(),
        coalesced: false,
    }
}

/// CC-1.2 protocol (CUDA 2.2 toolchain): per half-warp, find the touched
/// segments and issue one transaction per segment, reducing the transaction
/// size when only half of a segment is used.
fn segmented_cc12(addrs: &[Option<u64>], width: AccessWidth) -> CoalesceResult {
    // Segment size: 32B for 1-byte, 64B for 2-byte, 128B for 4/8/16-byte
    // accesses. All our accesses are >= 4 bytes.
    let seg = 128u64;
    let mut remaining: Vec<u64> = addrs.iter().flatten().copied().collect();
    let mut transactions = Vec::new();
    while let Some(&lowest) = remaining.iter().min() {
        let seg_start = lowest - lowest % seg;
        let seg_end = seg_start + seg;
        // Service every lane whose access falls in this segment.
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        remaining.retain(|&a| {
            if a >= seg_start && a < seg_end {
                lo = lo.min(a);
                hi = hi.max(a + width.bytes());
                false
            } else {
                true
            }
        });
        // Reduce the transaction size while the used bytes fit in one half.
        let (mut start, mut bytes) = (seg_start, seg as u32);
        while bytes > 32 {
            let half = bytes / 2;
            if hi <= start + half as u64 {
                bytes = half;
            } else if lo >= start + half as u64 {
                start += half as u64;
                bytes = half;
            } else {
                break;
            }
        }
        transactions.push(Transaction { start, bytes });
    }
    transactions.sort_by_key(|t| t.start);
    let coalesced = transactions.len() <= 2;
    CoalesceResult {
        transactions,
        coalesced,
    }
}

/// Convenience: coalesce a full warp (32 lanes) as its two half-warps, which
/// is how CC-1.x hardware processes memory instructions.
pub fn coalesce_warp(
    driver: DriverModel,
    addrs: &[Option<u64>],
    width: AccessWidth,
) -> Vec<CoalesceResult> {
    addrs
        .chunks(16)
        .map(|half| coalesce_half_warp(driver, half, width))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes(f: impl Fn(u64) -> u64) -> Vec<Option<u64>> {
        (0..16).map(|k| Some(f(k))).collect()
    }

    /// The memo must be invisible: for every driver, width and a gallery of
    /// shapes — contiguous, strided, scattered, sparse, and the same shapes
    /// translated by multiples of 256 bytes (which share a key) and by
    /// non-multiples (which do not) — the cached sizes equal a fresh
    /// protocol run.
    #[test]
    fn cache_is_equivalent_to_direct_coalescing() {
        let shapes: Vec<Vec<Option<u64>>> = vec![
            lanes(|k| 4 * k),
            lanes(|k| 28 * k),
            lanes(|k| 16 * k),
            lanes(|k| 4 * (15 - k)),
            (0..16)
                .map(|k| (k % 3 == 0).then_some(4 * k + 128))
                .collect(),
            lanes(|k| 512 * k), // span past MAX_SPAN: memo bypass path
        ];
        for driver in DriverModel::ALL {
            for width in [AccessWidth::W4, AccessWidth::W8, AccessWidth::W16] {
                let mut cache = CoalesceCache::new(driver);
                for shape in &shapes {
                    for delta in [0u64, 256, 4096, 260, 1028] {
                        let moved: Vec<Option<u64>> = shape
                            .iter()
                            .map(|a| a.map(|a| a * width.bytes() / 4 + delta * width.bytes() / 4))
                            .collect();
                        let direct: Vec<u32> = coalesce_half_warp(driver, &moved, width)
                            .transactions
                            .iter()
                            .map(|t| t.bytes)
                            .collect();
                        // Query twice: the second hit comes from the memo.
                        assert_eq!(cache.transaction_sizes(&moved, width), &direct[..]);
                        assert_eq!(
                            cache.transaction_sizes(&moved, width),
                            &direct[..],
                            "memoized result diverged for {driver:?} {width:?} +{delta}"
                        );
                    }
                }
            }
        }
    }

    // ---- Paper Figure 5: SoA — each field read is one coalesced transaction.
    #[test]
    fn soa_field_read_is_one_64b_transaction() {
        let addrs = lanes(|k| 4096 + 4 * k);
        let r = coalesce_half_warp(DriverModel::Cuda10, &addrs, AccessWidth::W4);
        assert!(r.coalesced);
        assert_eq!(
            r.transactions,
            vec![Transaction {
                start: 4096,
                bytes: 64
            }]
        );
        assert!((r.efficiency(16, AccessWidth::W4) - 1.0).abs() < 1e-12);
    }

    // ---- Paper Figure 3: AoS — 7 reads, each decaying to 16 transactions.
    #[test]
    fn aos_field_read_decays_to_16_transactions_on_cc10() {
        // 28-byte packed struct: field 0 at stride 28.
        let addrs = lanes(|k| 28 * k);
        let r = coalesce_half_warp(DriverModel::Cuda10, &addrs, AccessWidth::W4);
        assert!(!r.coalesced);
        assert_eq!(r.count(), 16);
        assert!(r.transactions.iter().all(|t| t.bytes == 32));
    }

    // ---- Paper Figure 7: AoaS — 128-bit reads at stride 32 are aligned but
    // not coalesced: 16 transactions per read.
    #[test]
    fn aoas_vec_read_is_aligned_but_uncoalesced() {
        let addrs = lanes(|k| 32 * k);
        let r = coalesce_half_warp(DriverModel::Cuda10, &addrs, AccessWidth::W16);
        assert!(!r.coalesced);
        assert_eq!(r.count(), 16);
        assert!(r.transactions.iter().all(|t| t.bytes == 32));
    }

    // ---- Paper Figure 9: SoAoaS — float4 at stride 16 is two 128B
    // transactions per half-warp.
    #[test]
    fn soaoas_vec_read_is_two_128b_transactions() {
        let addrs = lanes(|k| 16 * k);
        let r = coalesce_half_warp(DriverModel::Cuda10, &addrs, AccessWidth::W16);
        assert!(r.coalesced);
        assert_eq!(
            r.transactions,
            vec![
                Transaction {
                    start: 0,
                    bytes: 128
                },
                Transaction {
                    start: 128,
                    bytes: 128
                }
            ]
        );
        assert!((r.efficiency(16, AccessWidth::W16) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn misaligned_base_breaks_coalescing() {
        // Consecutive but base not aligned to 64B.
        let addrs = lanes(|k| 4 + 4 * k);
        let r = coalesce_half_warp(DriverModel::Cuda10, &addrs, AccessWidth::W4);
        assert!(!r.coalesced);
        assert_eq!(r.count(), 16);
    }

    #[test]
    fn permuted_addresses_break_cc10_but_not_cc12() {
        // Threads access the right 64B block but in swapped order: CC 1.0
        // decays, CC 1.2 still issues one (reduced) transaction.
        let mut addrs = lanes(|k| 4 * k);
        addrs.swap(0, 1);
        let r10 = coalesce_half_warp(DriverModel::Cuda10, &addrs, AccessWidth::W4);
        assert!(!r10.coalesced);
        assert_eq!(r10.count(), 16);
        let r22 = coalesce_half_warp(DriverModel::Cuda22, &addrs, AccessWidth::W4);
        assert_eq!(r22.count(), 1);
        assert_eq!(r22.transactions[0].bytes, 64);
    }

    #[test]
    fn cc12_reduces_transaction_size() {
        // All 16 lanes read the same 4-byte word: one 32-byte transaction.
        let addrs = lanes(|_| 256);
        let r = coalesce_half_warp(DriverModel::Cuda22, &addrs, AccessWidth::W4);
        assert_eq!(
            r.transactions,
            vec![Transaction {
                start: 256,
                bytes: 32
            }]
        );
    }

    #[test]
    fn cc12_aos_touches_four_segments() {
        // Stride-28 field read spans 448 bytes => 4 segments of 128B.
        let addrs = lanes(|k| 28 * k);
        let r = coalesce_half_warp(DriverModel::Cuda22, &addrs, AccessWidth::W4);
        assert_eq!(r.count(), 4);
        assert!(r.total_bytes() <= 4 * 128);
    }

    #[test]
    fn cuda11_merges_lines_for_uncoalesced() {
        let addrs = lanes(|k| 28 * k);
        let r = coalesce_half_warp(DriverModel::Cuda11, &addrs, AccessWidth::W4);
        assert_eq!(
            r.count(),
            4,
            "16 lanes over 448B span 4 distinct 128B lines"
        );
        assert!(r.transactions.iter().all(|t| t.bytes == 128));
    }

    #[test]
    fn cuda11_keeps_coalesced_fast_path() {
        let addrs = lanes(|k| 4 * k);
        let r = coalesce_half_warp(DriverModel::Cuda11, &addrs, AccessWidth::W4);
        assert!(r.coalesced);
        assert_eq!(r.count(), 1);
    }

    #[test]
    fn inactive_lanes_do_not_break_coalescing() {
        let mut addrs = lanes(|k| 4 * k);
        addrs[3] = None;
        addrs[9] = None;
        let r = coalesce_half_warp(DriverModel::Cuda10, &addrs, AccessWidth::W4);
        assert!(r.coalesced);
        assert_eq!(r.count(), 1);
    }

    #[test]
    fn all_inactive_is_empty() {
        let addrs = vec![None; 16];
        let r = coalesce_half_warp(DriverModel::Cuda10, &addrs, AccessWidth::W4);
        assert_eq!(r.count(), 0);
    }

    #[test]
    #[should_panic]
    fn misaligned_access_panics() {
        let addrs = vec![Some(2u64)];
        coalesce_half_warp(DriverModel::Cuda10, &addrs, AccessWidth::W4);
    }

    #[test]
    fn warp_is_processed_as_two_half_warps() {
        let addrs: Vec<Option<u64>> = (0..32).map(|k| Some(4 * k)).collect();
        let rs = coalesce_warp(DriverModel::Cuda10, &addrs, AccessWidth::W4);
        assert_eq!(rs.len(), 2);
        assert!(rs.iter().all(|r| r.coalesced && r.count() == 1));
    }

    #[test]
    fn paper_transaction_counts_per_particle() {
        // The end-to-end counts the paper's Figs. 3/5/7/9 claim, per half-warp
        // per particle (7 floats):
        let count_for = |reads: Vec<(Vec<Option<u64>>, AccessWidth)>| -> usize {
            reads
                .into_iter()
                .map(|(a, w)| coalesce_half_warp(DriverModel::Cuda10, &a, w).count())
                .sum()
        };
        // AoS 28B packed: 7 scalar reads, stride 28.
        let aos: Vec<_> = (0..7)
            .map(|f| (lanes(|k| 28 * k + 4 * f), AccessWidth::W4))
            .collect();
        assert_eq!(count_for(aos), 7 * 16);
        // SoA: 7 scalar reads from 7 arrays.
        let soa: Vec<_> = (0..7)
            .map(|f| (lanes(|k| 100_000 * f + 4 * k), AccessWidth::W4))
            .collect();
        // 100_000 is not 64-byte aligned; align the array bases:
        let soa: Vec<_> = soa
            .into_iter()
            .enumerate()
            .map(|(f, _)| (lanes(move |k| 131_072 * f as u64 + 4 * k), AccessWidth::W4))
            .collect();
        assert_eq!(count_for(soa), 7);
        // AoaS: 2 float4 reads, stride 32.
        let aoas: Vec<_> = (0..2)
            .map(|h| (lanes(move |k| 32 * k + 16 * h), AccessWidth::W16))
            .collect();
        assert_eq!(count_for(aoas), 2 * 16);
        // SoAoaS: 2 float4 reads from 2 arrays, stride 16.
        let soaoas: Vec<_> = (0..2)
            .map(|h| (lanes(move |k| 131_072 * h + 16 * k), AccessWidth::W16))
            .collect();
        assert_eq!(count_for(soaoas), 4);
    }
}
