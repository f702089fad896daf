//! Shared-memory bank-conflict model.
//!
//! CC-1.x shared memory is organized in 16 banks of 32-bit words; a half-warp
//! access is serialized by the maximum number of distinct *addresses* mapped
//! to the same bank, with a broadcast fast path when all lanes read the same
//! word. The paper's tiled force kernel reads the *same* shared-memory word
//! from every lane of the warp (the j-th tile particle), which is exactly the
//! broadcast case — this module exists so that claim is checked rather than
//! assumed.

/// The serialization degree of a half-warp shared-memory access:
/// 1 = conflict-free (or broadcast), k = k-way conflict (k serialized passes).
///
/// `addrs` are byte addresses into shared memory (`None` = inactive lane).
/// `banks` is the bank count (16 on CC 1.x); the bank of a 32-bit word at
/// byte address `a` is `(a / 4) % banks`.
///
/// Rules implemented (CUDA programming guide, CC 1.x):
/// * lanes reading the **same 32-bit word** are satisfied by one broadcast;
///   only one word can be broadcast per access — if several words share a
///   bank, all but the broadcast word serialize;
/// * otherwise the degree is the maximum, over banks, of the number of
///   distinct words accessed in that bank.
///
/// Accesses wider than 32 bits are issued as one 32-bit phase per word, and
/// every phase has the first phase's degree: a phase shifts every lane by
/// the same word, which keeps which lanes share a word and which words share
/// a bank. The timing engine and the analyzer price the first phase only.
pub fn conflict_degree(addrs: &[Option<u64>], banks: u32) -> u32 {
    assert!(banks.is_power_of_two() && banks > 0);
    // The tiled force kernels' shared reads are broadcasts: one word needs
    // no distinct-word list.
    let mut words = addrs.iter().flatten().map(|&a| a / 4);
    let first = words.next();
    if words.all(|w| Some(w) == first) {
        return 1;
    }
    // A broadcast word is serviced in a phase that still occupies a slot of
    // its bank, so every bank serializes exactly its distinct words.
    if addrs.len() <= 32 {
        conflict_degree_in(addrs, banks, &mut [0; 32])
    } else {
        conflict_degree_in(addrs, banks, &mut vec![0; addrs.len()])
    }
}

/// [`conflict_degree`] with `distinct` as scratch for the distinct words.
fn conflict_degree_in(addrs: &[Option<u64>], banks: u32, distinct: &mut [u64]) -> u32 {
    let mut n = 0;
    for w in addrs.iter().flatten().map(|&a| a / 4) {
        if !distinct[..n].contains(&w) {
            distinct[n] = w;
            n += 1;
        }
    }
    let bank = |w: u64| w % banks as u64;
    let words = &distinct[..n];
    let per_bank = |w: u64| words.iter().filter(|&&x| bank(x) == bank(w)).count() as u32;
    words.iter().map(|&w| per_bank(w)).max().unwrap_or(1)
}

/// `true` if the access is conflict-free (degree 1).
pub fn is_conflict_free(addrs: &[Option<u64>], banks: u32) -> bool {
    conflict_degree(addrs, banks) == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes(f: impl Fn(u64) -> u64) -> Vec<Option<u64>> {
        (0..16).map(|k| Some(f(k))).collect()
    }

    #[test]
    fn consecutive_words_are_conflict_free() {
        assert_eq!(conflict_degree(&lanes(|k| 4 * k), 16), 1);
    }

    #[test]
    fn broadcast_same_word_is_conflict_free() {
        // All lanes read tile[j] — the force kernel's inner-loop pattern.
        assert_eq!(conflict_degree(&lanes(|_| 128), 16), 1);
    }

    #[test]
    fn stride_two_words_is_two_way() {
        assert_eq!(conflict_degree(&lanes(|k| 8 * k), 16), 2);
    }

    #[test]
    fn stride_sixteen_words_is_sixteen_way() {
        assert_eq!(conflict_degree(&lanes(|k| 64 * k), 16), 16);
    }

    #[test]
    fn odd_stride_is_conflict_free() {
        // Stride of 3 words: gcd(3,16)=1, a classic conflict-free stride.
        assert_eq!(conflict_degree(&lanes(|k| 12 * k), 16), 1);
    }

    #[test]
    fn float4_phase_pattern() {
        // One 32-bit phase of a float4 broadcast tile read: still one word.
        assert!(is_conflict_free(&lanes(|_| 16), 16));
    }

    #[test]
    fn empty_and_single_lane() {
        assert_eq!(conflict_degree(&[], 16), 1);
        assert_eq!(conflict_degree(&[Some(4)], 16), 1);
    }

    #[test]
    fn mixed_broadcast_and_conflict() {
        // 15 lanes read word 0, one lane reads word 16 (same bank 0):
        // broadcast serves word 0 but word 16 needs a second pass.
        let mut a = lanes(|_| 0);
        a[15] = Some(64);
        assert_eq!(conflict_degree(&a, 16), 2);
    }

    #[test]
    fn all_lanes_inactive_is_conflict_free() {
        // A fully predicated-off half-warp issues no shared access.
        assert_eq!(conflict_degree(&vec![None; 16], 16), 1);
    }

    #[test]
    fn inactive_lanes_do_not_count_toward_conflicts() {
        // Stride-16 words is the 16-way worst case when all lanes are
        // active; masking off the odd lanes halves the distinct words.
        let full = lanes(|k| 64 * k);
        assert_eq!(conflict_degree(&full, 16), 16);
        let half: Vec<Option<u64>> = (0..16)
            .map(|k| if k % 2 == 0 { Some(64 * k) } else { None })
            .collect();
        assert_eq!(conflict_degree(&half, 16), 8);
        // A single surviving lane can never conflict.
        let one: Vec<Option<u64>> = (0..16)
            .map(|k| if k == 7 { Some(64 * k) } else { None })
            .collect();
        assert_eq!(conflict_degree(&one, 16), 1);
    }

    #[test]
    fn broadcast_with_inactive_lanes_stays_fast() {
        // Divergent tile read: the active subset still shares one word.
        let a: Vec<Option<u64>> = (0..16)
            .map(|k| if k < 5 { Some(128) } else { None })
            .collect();
        assert_eq!(conflict_degree(&a, 16), 1);
    }

    #[test]
    fn sixteen_way_worst_case_is_capped_by_distinct_words() {
        // 16 lanes, 16 distinct words, all in bank 0: the absolute worst
        // case on CC 1.x hardware — and the degree can never exceed it.
        let a = lanes(|k| 64 * k);
        assert_eq!(conflict_degree(&a, 16), 16);
        // Two lanes per word (8 distinct words in bank 0): the broadcast
        // only rescues one word, the other seven still serialize.
        let b = lanes(|k| 64 * (k / 2));
        assert_eq!(conflict_degree(&b, 16), 8);
    }

    /// The timing engine and the analyzer price a vector shared access by
    /// its first 32-bit phase: over generated half-warp shapes (partial
    /// masks, broadcasts, broadcast plus a conflicting word, strides, random
    /// words) every phase of a 1-, 2- and 4-word access must have the first
    /// phase's [`conflict_degree`], and the broadcast early exit must agree
    /// with counting distinct words.
    #[test]
    fn every_phase_has_the_first_phases_degree() {
        use simcore::rng::{Rng64, SplitMix64};
        let mut rng = SplitMix64::new(0x5eed);
        let (mut free, mut conflicted) = (0, 0);
        for case in 0..6000u64 {
            let lanes = if case % 2 == 0 { 16 } else { 32 };
            let base = 4 * rng.below(64);
            let stride = 4 * rng.below(33);
            let stray = rng.below(lanes as u64) as usize;
            let mut addrs = vec![0u64; lanes];
            for (l, a) in addrs.iter_mut().enumerate() {
                *a = match case % 5 {
                    // Every lane in one word, at any byte of it.
                    0 => base + l as u64 % 4,
                    1 if l == stray => 4 * rng.below(64),
                    1 => base,
                    2 => base + stride * l as u64,
                    3 => 4 * rng.below(8),
                    _ => 4 * rng.below(256),
                };
            }
            let full = u32::MAX >> (32 - lanes);
            let mask = match case % 7 {
                0..=2 => full,
                3 => 0,
                4 => 1 << stray,
                _ => rng.next_u64() as u32 & full,
            };
            let phase_lanes = |phase: u64| -> Vec<Option<u64>> {
                (0..lanes)
                    .map(|l| (mask >> l & 1 != 0).then(|| addrs[l] + 4 * phase))
                    .collect()
            };
            let first = conflict_degree(&phase_lanes(0), 16);
            assert_eq!(first, conflict_degree_in(&phase_lanes(0), 16, &mut [0; 32]));
            for words in [1u64, 2, 4] {
                for phase in 1..words {
                    let opts = phase_lanes(phase);
                    let want = conflict_degree(&opts, 16);
                    assert_eq!(first, want, "case {case}, phase {phase}: {opts:?}");
                }
            }
            free += (first == 1) as u32;
            conflicted += (first > 1) as u32;
        }
        assert!(free > 1000 && conflicted > 1000, "{free} / {conflicted}");
    }
}
