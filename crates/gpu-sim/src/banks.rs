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
/// Accesses wider than 32 bits are issued as multiple 32-bit phases by the
/// hardware; callers decompose them (see the timing engine).
pub fn conflict_degree(addrs: &[Option<u64>], banks: u32) -> u32 {
    assert!(banks.is_power_of_two() && banks > 0);
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
}
