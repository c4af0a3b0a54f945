//! The local sort kernel for word keys: a stable least-significant-digit
//! radix sort over 8-bit digits.
//!
//! The model calls a server's local sort free; the clock does not. Every
//! place this crate sorts `u64`s — both local phases of [`psrs`](crate::psrs()),
//! the multi-round sort's leaves and its sample sorts — goes through
//! [`sort_words`]. Sorting by an arbitrary `Ord` key
//! ([`psrs_by`](crate::psrs_by)) cannot: it stays a comparison sort.
//!
//! One read of the keys fills all eight digit histograms. A digit on
//! which every key agrees (one bucket holds them all) moves nothing and
//! is skipped, so the passes that run are the bytes in which the keys
//! actually differ: keys below 2³² run four, an inbox whose keys lie
//! between two splitters skips whatever bytes that range fixes. Nothing
//! tells the kernel a key width — it is read off the histograms. The
//! order of the output depends on the key bytes alone.

/// Below this many keys [`sort_words`] is `sort_unstable`: clearing and
/// prefix-summing eight 256-entry histograms is a fixed cost a short
/// input does not repay. On keys below 2³² in parts of this length
/// (`local_sort/parts_of_1024/*` in `crates/bench/benches/kernels.rs`)
/// radix passes take 113 µs per 15,625 keys against 124 µs for
/// `sort_unstable`; at 512 they lose, 121 against 115, and at 384 by a
/// third.
const SMALL: usize = 1024;

/// Sort `keys` ascending.
///
/// Stable LSD radix sort, 8-bit digits; passes ping-pong between `keys`
/// and one scratch vector of the same length that lives for the call.
/// Takes the `Vec` rather than a slice so that an odd number of passes
/// ends with a pointer swap, not a copy.
///
/// ```
/// let mut keys = vec![3, u64::MAX, 0, 1 << 63, 3];
/// parqp_sort::sort_words(&mut keys);
/// assert_eq!(keys, [0, 3, 3, 1 << 63, u64::MAX]);
/// ```
pub fn sort_words(keys: &mut Vec<u64>) {
    let n = keys.len();
    if n < SMALL {
        keys.sort_unstable();
        return;
    }
    let mut counts = [[0usize; 256]; 8];
    for &k in keys.iter() {
        // Little-endian bytes are the digits, least significant first.
        for (count, digit) in counts.iter_mut().zip(k.to_le_bytes()) {
            count[usize::from(digit)] += 1;
        }
    }
    let mut scratch = vec![0u64; n];
    // Which of the two buffers holds the keys as sorted so far.
    let mut in_scratch = false;
    for (d, count) in counts.iter_mut().enumerate() {
        if count.contains(&n) {
            continue;
        }
        // Counts become each bucket's first output position.
        let mut next = 0;
        for c in count.iter_mut() {
            let first = next;
            next += *c;
            *c = first;
        }
        let (src, dst) = if in_scratch {
            (scratch.as_slice(), keys.as_mut_slice())
        } else {
            (keys.as_slice(), scratch.as_mut_slice())
        };
        for &k in src {
            let slot = &mut count[usize::from((k >> (8 * d)) as u8)];
            dst[*slot] = k;
            *slot += 1;
        }
        in_scratch = !in_scratch;
    }
    if in_scratch {
        std::mem::swap(keys, &mut scratch);
    }
}
