//! Block matching between Morton-ordered attribute sequences.

use pcc_types::Rgb;
use std::num::NonZeroUsize;
use std::ops::Range;

/// How one P-block is coded after matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MatchOutcome {
    /// The best-matched I-block is similar enough: store only the pointer.
    Reuse,
    /// Too dissimilar: store per-point deltas against the best match.
    Delta,
}

/// The match result for one P-block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockMatch {
    /// Offset of the best-matched I-block inside the candidate window
    /// (6–7 bits for the paper's 100-candidate window; a varint on the
    /// wire, so wider windows code exactly).
    pub window_offset: u32,
    /// Index of the matched I-block (window start + offset).
    pub i_block: u32,
    /// Normalized 2-norm distance of the best match (per 20-point block,
    /// the paper's block granularity).
    pub best_diff: u64,
    /// Reuse-or-delta decision at the configured threshold.
    pub outcome: MatchOutcome,
}

/// Aggregate reuse statistics (the paper's Fig. 10b x-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReuseStats {
    /// Blocks coded as direct reuse.
    pub reused: usize,
    /// Blocks coded as post-intra-encoded deltas.
    pub delta: usize,
}

impl ReuseStats {
    /// Fraction of blocks directly reused (0 when there are no blocks).
    pub fn reuse_fraction(&self) -> f64 {
        let total = self.reused + self.delta;
        if total == 0 {
            return 0.0;
        }
        self.reused as f64 / total as f64
    }
}

/// Work-item counts of a matching pass, for device-model charging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct MatchCharge {
    /// (P-point, I-point) channel-difference items (`Diff_Squared`).
    pub pair_items: usize,
    /// Compared (P-block, I-block) pairs (`Squared_Sum` reductions).
    pub block_pairs: usize,
}

/// The candidate window of I-blocks for P-block `p_idx`: centered on the
/// proportionally aligned I-block, clamped to the valid range. Encoder
/// and decoder share it; `candidates == 0` is treated as 1, so the window
/// is never empty while there are I-blocks.
pub(crate) fn candidate_window(
    p_idx: usize,
    p_blocks: usize,
    i_blocks: usize,
    candidates: usize,
) -> (usize, usize) {
    if i_blocks == 0 {
        return (0, 0);
    }
    let candidates = candidates.max(1);
    let aligned = p_idx * i_blocks / p_blocks.max(1);
    let half = candidates / 2;
    let start = aligned.saturating_sub(half);
    let end = (start + candidates).min(i_blocks);
    let start = end.saturating_sub(candidates);
    (start, end)
}

/// The point range of block `idx` of a `len`-long sequence segmented at
/// `starts` (empty past the last block).
pub(crate) fn block_range(starts: &[u32], len: usize, idx: usize) -> Range<usize> {
    let start = starts.get(idx).map_or(len, |&s| s as usize);
    let end = starts.get(idx + 1).map_or(len, |&e| e as usize);
    start..end
}

/// The proportional point map of one (P-block, I-block) pair: yields
/// `k * len_i / len_p` for each P-point `k` in order. It divides once per
/// pair, not per point — the index steps by `len_i / len_p` and carries
/// the remainder — and equal lengths give the identity.
struct BlockMap {
    next: usize,
    carry: usize,
    step: usize,
    rem: usize,
    len_p: usize,
    left: usize,
}

impl BlockMap {
    fn new(len_p: usize, len_i: usize) -> Self {
        let step = len_i.checked_div(len_p).unwrap_or(0);
        let rem = len_i.checked_rem(len_p).unwrap_or(0);
        BlockMap { next: 0, carry: 0, step, rem, len_p, left: len_p }
    }
}

impl Iterator for BlockMap {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        self.left = self.left.checked_sub(1)?;
        let idx = self.next;
        self.next += self.step;
        self.carry += self.rem;
        if self.carry >= self.len_p {
            self.carry -= self.len_p;
            self.next += 1;
        }
        Some(idx)
    }
}

/// The reference colors predicted for the `len_p` points of a P-block
/// matched to `i_block`, through the proportional [`BlockMap`] (black
/// when the reference block is empty). The matcher, delta assembly and
/// the decoder all read references through this one map.
pub(crate) fn predicted(i_block: &[Rgb], len_p: usize) -> impl Iterator<Item = Rgb> + '_ {
    BlockMap::new(len_p, i_block.len())
        .map(move |j| i_block.get(j).copied().unwrap_or(Rgb::BLACK))
}

/// Rows are padded to a multiple of these `i16` lanes (two SSE2
/// registers), so the kernel never runs a scalar tail.
const LANES: usize = 16;

/// The row width of the paper's ~20-point blocks: 19 to 21 points widen
/// to 57 to 63 channels, padded to these 64 lanes. At a width the
/// compiler knows, [`lane_sum`] unrolls into straight-line code.
const BLOCK_LANES: usize = 64;

/// Lanes one `u32` sum covers: each adds at most 255², so a sum stays
/// under `FLUSH × 255²` (4.26 × 10⁹ < 2³²). Longer rows (blocks of more
/// than 21 845 points) are summed in `FLUSH`-lane pieces.
const FLUSH: usize = 1 << 16;

/// The matcher's scratch, held in the inter arena across frames: the
/// reference rows of every I-block and one row slot per chunk.
#[derive(Debug, Default)]
pub(crate) struct MatchRows {
    /// Every I-block's colors as `i16` channels, zero-padded to one
    /// row stride.
    i_rows: Vec<i16>,
    /// Every I-block's length in points.
    i_lens: Vec<u32>,
    /// One slot per chunk, two strides long: the chunk's current P row,
    /// then the reference gathered for an unequal-length pair.
    chunk_rows: Vec<Vec<i16>>,
}

/// Writes `colors` into `row` as `i16` channels (r, g, b per point) and
/// zeroes the lanes after them, so padding adds nothing to a distance.
fn widen(colors: impl IntoIterator<Item = Rgb>, row: &mut [i16]) {
    let mut lanes = row.iter_mut();
    for c in colors {
        // The channels lead the zip, so it stops without taking a lane.
        for (v, lane) in [c.r, c.g, c.b].into_iter().zip(&mut lanes) {
            *lane = v.into();
        }
    }
    lanes.for_each(|lane| *lane = 0);
}

/// Squared distance (the un-normalized sum of Equ. 2) of two widened rows
/// of equal, [`LANES`]-multiple length. Rows of [`BLOCK_LANES`] take an
/// inlined, fully unrolled sum; any other width a call.
#[inline]
fn row_distance(p: &[i16], i: &[i16]) -> u64 {
    match (p.as_array::<BLOCK_LANES>(), i.as_array::<BLOCK_LANES>()) {
        (Some(p), Some(i)) => u64::from(lane_sum(p, i)),
        _ => any_row_distance(p, i),
    }
}

/// [`row_distance`] at any width, summed in [`FLUSH`]-lane pieces.
#[inline(never)]
fn any_row_distance(p: &[i16], i: &[i16]) -> u64 {
    p.chunks(FLUSH).zip(i.chunks(FLUSH)).map(|(p, i)| u64::from(lane_sum(p, i))).sum()
}

/// [`row_distance`] of at most [`FLUSH`] lanes. Channels are 0..=255, so
/// each difference fits an `i16` and each pair of squares an `i32`: on
/// baseline x86-64 the loop compiles to SSE2's multiply-add of `i16`
/// pairs (`pmaddwd`), with no target feature.
#[inline]
fn lane_sum(p: &[i16], i: &[i16]) -> u32 {
    let (p, _) = p.as_chunks::<2>();
    let (i, _) = i.as_chunks::<2>();
    let mut sum = 0u32;
    for (p, i) in p.iter().zip(i) {
        let d0 = i32::from(p[0].wrapping_sub(i[0]));
        let d1 = i32::from(p[1].wrapping_sub(i[1]));
        sum = sum.wrapping_add((d0 * d0 + d1 * d1) as u32);
    }
    sum
}

/// [`row_distance`] of an unequal-length pair: `i_block`'s proportional
/// map onto the `len_p` points of the P-block, gathered into `row` (as
/// long as `p_row`) first. Nearly every pair has equal lengths, so this
/// stays off the hot loop.
#[cold]
fn gathered_distance(p_row: &[i16], i_block: &[Rgb], len_p: usize, row: &mut [i16]) -> u64 {
    widen(predicted(i_block, len_p), row);
    row_distance(p_row, row)
}

/// The longest block of a `len`-long sequence segmented at `starts`.
fn max_block_len(starts: &[u32], len: usize) -> usize {
    (0..starts.len()).map(|b| block_range(starts, len, b).len()).max().unwrap_or(0)
}

/// Matches every P-block against its candidate I-blocks, deciding
/// reuse-vs-delta at `threshold`, and writes one [`BlockMatch`] per
/// P-block into a caller-owned buffer (cleared first).
///
/// `p_starts`/`i_starts` are the block boundaries over the Morton-ordered
/// color sequences (as produced by [`pcc_intra::segment_starts_into`]).
/// Every block is independent — the modeled GPU runs the whole pass as
/// two kernels. On the host, P-blocks are partitioned into contiguous
/// index chunks, searched independently, and each chunk writes its
/// matches in place into its part of `matches` (one entry per P-block);
/// stats and charges are merged in chunk order, so the result (and any
/// stream derived from it) is byte-identical at every thread count. Once
/// `matches` and `rows` have warmed, the pass performs no heap allocation
/// at any thread count.
///
/// The host scan is dense: once per call every I-block is widened into a
/// zero-padded `i16` row of one stride (three channels × the longest
/// block, rounded up to [`LANES`]), and each chunk widens its current
/// P-block into its own slot. Every candidate is then summed in full by
/// one kernel, fully unrolled at the 64-lane width of the paper's
/// ~20-point blocks; an unequal-length pair first gathers its
/// proportional map into the slot's second row. Each P-block takes the
/// first candidate (lowest I-block index) with the strictly smallest
/// normalized distance `sum * 20 / len_p`. Because `len_p` is fixed per
/// P-block, a candidate beats the current best `d` exactly when
/// `sum * 20 < d * len_p`, so the division runs only on a new best. The
/// returned `MatchCharge` counts every pair in every window, as the
/// modeled GPU kernels compare.
// Encoder side: `starts` come from segment_starts_into over these exact
// color arrays, and every row is cut from buffers sized to the stride
// of the longest block, so all indexing is in bounds by construction.
#[allow(clippy::too_many_arguments, clippy::indexing_slicing)]
pub(crate) fn match_blocks_into(
    p_colors: &[Rgb],
    i_colors: &[Rgb],
    p_starts: &[u32],
    i_starts: &[u32],
    candidates: usize,
    threshold: u32,
    threads: NonZeroUsize,
    rows: &mut MatchRows,
    matches: &mut Vec<BlockMatch>,
) -> (ReuseStats, MatchCharge) {
    let p_blocks = p_starts.len();
    let i_blocks = i_starts.len();
    matches.clear();

    let max_len =
        max_block_len(p_starts, p_colors.len()).max(max_block_len(i_starts, i_colors.len()));
    // At least one step wide, so that a window of empty blocks still has
    // a row per candidate.
    let stride = (3 * max_len).next_multiple_of(LANES).max(LANES);
    let MatchRows { i_rows, i_lens, chunk_rows } = rows;
    i_rows.resize(i_blocks * stride, 0);
    i_lens.clear();
    for (b, row) in (0..i_blocks).zip(i_rows.chunks_exact_mut(stride)) {
        let i_block = &i_colors[block_range(i_starts, i_colors.len(), b)];
        widen(i_block.iter().copied(), row);
        i_lens.push(i_block.len() as u32);
    }
    let (i_rows, i_lens): (&[i16], &[u32]) = (i_rows, i_lens);

    let match_range = |range: Range<usize>, matches: &mut [BlockMatch], slot: &mut Vec<i16>| {
        let mut stats = ReuseStats::default();
        let mut charge = MatchCharge::default();
        slot.resize(2 * stride, 0);
        let (p_row, gathered) = slot.split_at_mut(stride);
        for (p_idx, out) in range.zip(matches) {
            let p_block = &p_colors[block_range(p_starts, p_colors.len(), p_idx)];
            let len_p = p_block.len();
            let width = (3 * len_p).next_multiple_of(LANES);
            let p_row = &mut p_row[..width];
            widen(p_block.iter().copied(), p_row);
            let (w_start, w_end) = candidate_window(p_idx, p_blocks, i_blocks, candidates);
            charge.pair_items += len_p * (w_end - w_start);
            charge.block_pairs += w_end - w_start;
            // The best candidate so far (the window start at distance
            // `u64::MAX` until one is summed: an empty reference block can
            // never match), and `best_diff * len_p`: a candidate wins
            // exactly when `sum * 20` is below it.
            let (mut i_block, mut best_diff) = (w_start, u64::MAX);
            let mut limit = u64::MAX;
            let window_rows = i_rows[w_start * stride..w_end * stride].chunks_exact(stride);
            let window = (w_start..w_end).zip(window_rows).zip(&i_lens[w_start..w_end]);
            for ((i_idx, i_row), &len_i) in window {
                let sum = if len_i as usize == len_p {
                    row_distance(p_row, &i_row[..width])
                } else if len_i == 0 {
                    continue;
                } else {
                    let i_block = &i_colors[block_range(i_starts, i_colors.len(), i_idx)];
                    gathered_distance(p_row, i_block, len_p, &mut gathered[..width])
                };
                if sum * 20 < limit {
                    // An empty P-block is at distance 0 from every block.
                    best_diff = (sum * 20).checked_div(len_p as u64).unwrap_or(0);
                    i_block = i_idx;
                    limit = best_diff.saturating_mul(len_p as u64);
                }
            }
            let outcome = if best_diff <= threshold as u64 {
                stats.reused += 1;
                MatchOutcome::Reuse
            } else {
                stats.delta += 1;
                MatchOutcome::Delta
            };
            *out = BlockMatch {
                window_offset: (i_block - w_start) as u32,
                i_block: i_block as u32,
                best_diff,
                outcome,
            };
        }
        (stats, charge)
    };

    // Per-block work is ~candidates × block-size comparisons, so weight
    // the fan-out decision by compared pairs rather than block count.
    let weight = p_blocks.saturating_mul(candidates.min(i_blocks.max(1)));
    let fan = pcc_parallel::effective_threads(threads, weight).min(p_blocks.max(1));
    let ranges = pcc_parallel::chunks(p_blocks, fan);
    // Every entry is overwritten by its chunk.
    let unset =
        BlockMatch { window_offset: 0, i_block: 0, best_diff: 0, outcome: MatchOutcome::Reuse };
    matches.resize(p_blocks, unset);
    let parts = pcc_parallel::split_at_cuts(matches, ranges.clone().skip(1).map(|r| r.start));
    let mut stats = ReuseStats::default();
    let mut charge = MatchCharge::default();
    pcc_parallel::run(
        ranges.zip(parts).zip(pcc_parallel::slots(chunk_rows, fan)),
        |((range, part), slot)| match_range(range, part, slot),
        |(part_stats, part_charge)| {
            stats.reused += part_stats.reused;
            stats.delta += part_stats.delta;
            charge.pair_items += part_charge.pair_items;
            charge.block_pairs += part_charge.block_pairs;
        },
    );
    (stats, charge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One matching pass through a fresh buffer.
    fn run(
        p: &[Rgb],
        i: &[Rgb],
        p_starts: &[u32],
        i_starts: &[u32],
        candidates: usize,
        threshold: u32,
        threads: usize,
    ) -> (Vec<BlockMatch>, ReuseStats, MatchCharge) {
        let (mut rows, mut matches) = (MatchRows::default(), Vec::new());
        let threads = NonZeroUsize::new(threads).unwrap();
        let (stats, charge) = match_blocks_into(
            p, i, p_starts, i_starts, candidates, threshold, threads, &mut rows, &mut matches,
        );
        (matches, stats, charge)
    }

    fn grays(values: &[u8]) -> Vec<Rgb> {
        values.iter().map(|&v| Rgb::gray(v)).collect()
    }

    /// The proportional map as the exhaustive scan computed it: one
    /// division per point.
    fn map_index(k: usize, len_p: usize, len_i: usize) -> usize {
        if len_p == 0 || len_i == 0 {
            return 0;
        }
        (k * len_i / len_p).min(len_i - 1)
    }

    /// Normalized block distance as the exhaustive scan computed it.
    fn block_diff(p: &[Rgb], i: &[Rgb]) -> u64 {
        if p.is_empty() {
            return 0;
        }
        if i.is_empty() {
            return u64::MAX;
        }
        let sum: u64 = p
            .iter()
            .enumerate()
            .map(|(k, &pc)| pc.distance_squared(i[map_index(k, p.len(), i.len())]) as u64)
            .sum();
        sum * 20 / p.len() as u64
    }

    /// The oracle: every candidate of every window summed in full, first
    /// strict minimum wins.
    fn exhaustive_match(
        p_colors: &[Rgb],
        i_colors: &[Rgb],
        p_starts: &[u32],
        i_starts: &[u32],
        candidates: usize,
        threshold: u32,
    ) -> (Vec<BlockMatch>, ReuseStats, MatchCharge) {
        let block_of = |starts: &[u32], colors: &[Rgb], idx: usize| {
            starts[idx] as usize..starts.get(idx + 1).map_or(colors.len(), |&e| e as usize)
        };
        let mut matches = Vec::new();
        let mut stats = ReuseStats::default();
        let mut charge = MatchCharge::default();
        for p_idx in 0..p_starts.len() {
            let p_block = &p_colors[block_of(p_starts, p_colors, p_idx)];
            let (w_start, w_end) =
                candidate_window(p_idx, p_starts.len(), i_starts.len(), candidates);
            let mut best: Option<(usize, u64)> = None;
            for i_idx in w_start..w_end {
                let diff = block_diff(p_block, &i_colors[block_of(i_starts, i_colors, i_idx)]);
                charge.pair_items += p_block.len();
                charge.block_pairs += 1;
                if best.is_none_or(|(_, d)| diff < d) {
                    best = Some((i_idx, diff));
                }
            }
            let (i_block, best_diff) = best.unwrap_or((0, u64::MAX));
            let outcome = if best_diff <= threshold as u64 {
                stats.reused += 1;
                MatchOutcome::Reuse
            } else {
                stats.delta += 1;
                MatchOutcome::Delta
            };
            let window_offset = (i_block - w_start) as u32;
            matches.push(BlockMatch { window_offset, i_block: i_block as u32, best_diff, outcome });
        }
        (matches, stats, charge)
    }

    /// Block starts for raw `(kind, n)` draws: mostly the segmentation's
    /// 19–21 points, some short or empty blocks, some longer than 255.
    fn starts_of(raw: &[(u8, usize)]) -> (Vec<u32>, usize) {
        let mut starts = Vec::with_capacity(raw.len());
        let mut len = 0usize;
        for &(kind, n) in raw {
            starts.push(len as u32);
            len += match kind {
                0..=4 => 19 + n % 3,
                5 => n % 40,
                6 => 250 + n % 50,
                _ => 0,
            };
        }
        (starts, len)
    }

    /// `n` seeded colors with every channel below `levels` (a small
    /// `levels` makes equal distances, and so ties, common).
    fn seeded_colors(n: usize, seed: u64, levels: u16) -> Vec<Rgb> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                let ch = |shift: u32| ((z >> shift) as u16 % levels) as u8;
                Rgb::new(ch(0), ch(16), ch(32))
            })
            .collect()
    }

    #[test]
    fn identical_sequences_fully_reuse() {
        let colors = grays(&[10, 20, 30, 40, 50, 60, 70, 80]);
        let starts = vec![0u32, 4];
        let (matches, stats, charge) =
            run(&colors, &colors, &starts, &starts, 4, 0, 1);
        assert_eq!(stats.reused, 2);
        assert_eq!(stats.delta, 0);
        assert_eq!(stats.reuse_fraction(), 1.0);
        assert!(matches.iter().all(|m| m.best_diff == 0));
        assert!(charge.block_pairs > 0);
    }

    #[test]
    fn dissimilar_blocks_become_delta() {
        let p = grays(&[200, 200, 200, 200]);
        let i = grays(&[10, 10, 10, 10]);
        let starts = vec![0u32];
        let (matches, stats, _) = run(&p, &i, &starts, &starts, 4, 300, 1);
        assert_eq!(stats.delta, 1);
        assert_eq!(matches[0].outcome, MatchOutcome::Delta);
        // diff = 4 points × 3 channels × 190² × 20/4.
        assert_eq!(matches[0].best_diff, 3 * 190 * 190 * 20);
    }

    #[test]
    fn threshold_moves_the_decision() {
        let p = grays(&[100, 100]);
        let i = grays(&[104, 104]);
        let starts = vec![0u32];
        // diff per point = 3·16 = 48; normalized ×20/2 → 960.
        let (_, s_tight, _) = run(&p, &i, &starts, &starts, 1, 300, 1);
        assert_eq!(s_tight.reused, 0);
        let (_, s_loose, _) = run(&p, &i, &starts, &starts, 1, 1200, 1);
        assert_eq!(s_loose.reused, 1);
    }

    #[test]
    fn window_clamps_at_sequence_edges() {
        assert_eq!(candidate_window(0, 10, 10, 4), (0, 4));
        assert_eq!(candidate_window(9, 10, 10, 4), (6, 10));
        assert_eq!(candidate_window(5, 10, 10, 100), (0, 10));
        assert_eq!(candidate_window(0, 10, 0, 4), (0, 0));
    }

    #[test]
    fn matcher_finds_shifted_content() {
        // I-frame holds the P-block's exact content one block later.
        let p = grays(&[50, 50, 9, 9]);
        let i = grays(&[1, 1, 50, 50]);
        let p_starts = vec![0u32, 2];
        let i_starts = vec![0u32, 2];
        let (matches, _, _) = run(&p, &i, &p_starts, &i_starts, 4, 0, 1);
        assert_eq!(matches[0].i_block, 1); // found the shifted match
        assert_eq!(matches[0].best_diff, 0);
    }

    #[test]
    fn unequal_block_lengths_map_proportionally() {
        assert_eq!(BlockMap::new(4, 2).collect::<Vec<_>>(), [0, 0, 1, 1]);
        assert_eq!(BlockMap::new(2, 6).collect::<Vec<_>>(), [0, 3]);
        assert_eq!(BlockMap::new(3, 3).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(BlockMap::new(0, 5).count(), 0);
        for len_p in 0..40 {
            for len_i in 0..90 {
                let got: Vec<usize> = BlockMap::new(len_p, len_i).collect();
                let want: Vec<usize> = (0..len_p).map(|k| map_index(k, len_p, len_i)).collect();
                assert_eq!(got, want, "len_p {len_p} len_i {len_i}");
            }
        }
        let p = grays(&[10, 10, 10, 10]);
        let i = grays(&[10, 10]);
        let (matches, _, _) = run(&p, &i, &[0], &[0], 1, 0, 1);
        assert_eq!(matches[0].best_diff, 0);
        assert_eq!(predicted(&[], 3).collect::<Vec<_>>(), [Rgb::BLACK; 3]);
    }

    #[test]
    fn zero_candidates_match_like_one() {
        let p = grays(&[10, 20, 30, 40]);
        let zero = run(&p, &p, &[0, 2], &[0, 2], 0, 0, 1);
        assert_eq!(zero, run(&p, &p, &[0, 2], &[0, 2], 1, 0, 1));
        assert_eq!(candidate_window(1, 2, 2, 0), (1, 2));
    }

    #[test]
    fn window_offsets_beyond_u16_point_at_the_match() {
        let n = 70_000u32;
        let mut i = vec![Rgb::gray(0); n as usize];
        i[66_000] = Rgb::gray(200);
        let i_starts: Vec<u32> = (0..n).collect();
        let p = grays(&[200]);
        let (matches, _, _) = run(&p, &i, &[0], &i_starts, n as usize, 0, 1);
        let (w_start, _) = candidate_window(0, 1, n as usize, n as usize);
        assert_eq!(matches[0].i_block, 66_000);
        assert_eq!(w_start + matches[0].window_offset as usize, matches[0].i_block as usize);
    }

    #[test]
    fn empty_reference_marks_everything_delta() {
        let p = grays(&[1, 2, 3]);
        let (matches, stats, _) = run(&p, &[], &[0], &[], 4, 1000, 1);
        assert_eq!(stats.delta, 1);
        assert_eq!(matches[0].best_diff, u64::MAX);
    }

    #[test]
    fn parallel_matching_identical_on_large_input() {
        let p: Vec<Rgb> = (0..40_000).map(|i| Rgb::gray((i % 251) as u8)).collect();
        let i: Vec<Rgb> = (0..36_000).map(|i| Rgb::gray((i % 247) as u8)).collect();
        let p_starts: Vec<u32> = (0..p.len() as u32).step_by(20).collect();
        let i_starts: Vec<u32> = (0..i.len() as u32).step_by(20).collect();
        let baseline = run(&p, &i, &p_starts, &i_starts, 16, 500, 1);
        for t in [2usize, 3, 8] {
            let got = run(&p, &i, &p_starts, &i_starts, 16, 500, t);
            assert_eq!(got, baseline, "threads = {t}");
        }
    }

    #[test]
    fn whole_frame_block_of_extreme_colors_does_not_overflow() {
        // `blocks_for` gives one block for a tiny frame; here one block
        // runs past the kernel's i32 flush interval, with every channel
        // 0 against 255: each point adds 3 × 255² to the sum.
        let n = 200_000;
        let p = vec![Rgb::BLACK; n];
        let i = vec![Rgb::WHITE; n];
        for threads in [1, 2] {
            let (matches, stats, charge) = run(&p, &i, &[0], &[0], 100, u32::MAX, threads);
            assert_eq!(matches[0].best_diff, 3 * 255 * 255 * 20);
            assert_eq!((stats.reused, charge.pair_items), (1, n));
        }
        // Unequal lengths take the gathered row through the same kernel.
        let (matches, _, _) = run(&p, &i[..n - 7], &[0], &[0], 1, 0, 1);
        assert_eq!(matches[0].best_diff, 3 * 255 * 255 * 20);
    }

    #[test]
    fn rows_are_reused_across_shrinking_and_growing_strides() {
        // Longest blocks of 300, 5 and 90 points: the row stride shrinks,
        // then grows again, through one arena.
        let passes = [(600usize, 300usize, 11u64), (100, 5, 12), (900, 90, 13)];
        let (mut rows, mut matches) = (MatchRows::default(), Vec::new());
        for threads in [1, 2, 3] {
            let t = NonZeroUsize::new(threads).unwrap();
            for &(n, block, seed) in &passes {
                let p = seeded_colors(n, seed, 16);
                let i = seeded_colors(n + block / 2, seed ^ 1, 16);
                let p_starts: Vec<u32> = (0..n as u32).step_by(block).collect();
                let i_starts: Vec<u32> = (0..i.len() as u32).step_by(block).collect();
                let want = exhaustive_match(&p, &i, &p_starts, &i_starts, 9, 2_000);
                let (stats, charge) = match_blocks_into(
                    &p, &i, &p_starts, &i_starts, 9, 2_000, t, &mut rows, &mut matches,
                );
                assert_eq!((&matches, stats, charge), (&want.0, want.1, want.2), "block {block}");
            }
        }
    }

    #[test]
    fn rows_whose_width_is_not_a_lane_multiple_match_the_oracle() {
        // 3 × len is a multiple of 16 only when len is: 1, 7, 13, 17 and
        // 19 points leave 3 to 13 padding lanes in the last kernel step.
        for block in [1usize, 7, 13, 17, 19] {
            let p = seeded_colors(block * 40, block as u64, 256);
            let i = seeded_colors(block * 37 + 3, !(block as u64), 256);
            let p_starts: Vec<u32> = (0..p.len() as u32).step_by(block).collect();
            let i_starts: Vec<u32> = (0..i.len() as u32).step_by(block).collect();
            let want = exhaustive_match(&p, &i, &p_starts, &i_starts, 6, 50_000);
            assert_eq!(run(&p, &i, &p_starts, &i_starts, 6, 50_000, 1), want, "block {block}");
        }
    }

    proptest! {
        #[test]
        fn matcher_equals_exhaustive_scan(
            p_raw in prop::collection::vec((0u8..8, 0usize..300), 0..160),
            i_raw in prop::collection::vec((0u8..8, 0usize..300), 0..80),
            seed in any::<u64>(),
            palette in 0u8..3,
            cand_raw in 0usize..200,
            thr in (0u8..3, any::<u32>()),
        ) {
            let (p_starts, p_len) = starts_of(&p_raw);
            let (i_starts, i_len) = starts_of(&i_raw);
            let levels = [2, 16, 256][palette as usize];
            let p = seeded_colors(p_len, seed, levels);
            let i = seeded_colors(i_len, seed ^ 1, levels);
            let candidates = cand_raw % (i_starts.len() + 4);
            let threshold = match thr.0 {
                0 => 0,
                1 => u32::MAX,
                _ => thr.1 % 200_000,
            };
            let want = exhaustive_match(&p, &i, &p_starts, &i_starts, candidates, threshold);
            // A larger, different pass dirties the reused buffer first.
            let dirty_starts: Vec<u32> = (0..p_starts.len() as u32 + 10).map(|b| b * 3).collect();
            let dirty = seeded_colors(dirty_starts.len() * 3, seed ^ 2, 256);
            for t in [1usize, 2, 3] {
                let got = run(&p, &i, &p_starts, &i_starts, candidates, threshold, t);
                prop_assert_eq!(&got, &want, "threads = {}", t);
                let threads = NonZeroUsize::new(t).unwrap();
                let (mut rows, mut warm) = (MatchRows::default(), Vec::new());
                match_blocks_into(
                    &dirty, &i, &dirty_starts, &i_starts, 7, 0, threads, &mut rows, &mut warm,
                );
                let (stats, charge) = match_blocks_into(
                    &p, &i, &p_starts, &i_starts, candidates, threshold, threads, &mut rows,
                    &mut warm,
                );
                prop_assert_eq!(&(warm, stats, charge), &want, "threads = {} (warm buffer)", t);
            }
        }

        #[test]
        fn reuse_fraction_monotone_in_threshold(
            p in prop::collection::vec(any::<u8>(), 8..64),
            i in prop::collection::vec(any::<u8>(), 8..64),
        ) {
            let p = grays(&p);
            let i = grays(&i);
            let p_starts: Vec<u32> = (0..p.len() as u32).step_by(4).collect();
            let i_starts: Vec<u32> = (0..i.len() as u32).step_by(4).collect();
            let mut last = 0.0;
            for threshold in [0u32, 100, 1_000, 10_000, 1_000_000] {
                let (_, stats, _) = run(&p, &i, &p_starts, &i_starts, 8, threshold, 1);
                let f = stats.reuse_fraction();
                prop_assert!(f >= last, "reuse fraction decreased: {f} < {last}");
                last = f;
            }
        }

        #[test]
        fn parallel_matching_identical_to_sequential(
            p in prop::collection::vec(any::<u8>(), 16..256),
            i in prop::collection::vec(any::<u8>(), 16..256),
        ) {
            let p = grays(&p);
            let i = grays(&i);
            let p_starts: Vec<u32> = (0..p.len() as u32).step_by(4).collect();
            let i_starts: Vec<u32> = (0..i.len() as u32).step_by(4).collect();
            let baseline = run(&p, &i, &p_starts, &i_starts, 8, 500, 1);
            for t in [2usize, 3, 7] {
                let got = run(&p, &i, &p_starts, &i_starts, 8, 500, t);
                prop_assert_eq!(&got, &baseline, "threads = {}", t);
            }
        }

        #[test]
        fn pointer_fits_window(
            p in prop::collection::vec(any::<u8>(), 16..128),
            i in prop::collection::vec(any::<u8>(), 16..128),
            candidates in 1usize..16,
        ) {
            let p = grays(&p);
            let i = grays(&i);
            let p_starts: Vec<u32> = (0..p.len() as u32).step_by(4).collect();
            let i_starts: Vec<u32> = (0..i.len() as u32).step_by(4).collect();
            let (matches, _, _) = run(&p, &i, &p_starts, &i_starts, candidates, 500, 1);
            for m in matches {
                prop_assert!((m.window_offset as usize) < candidates);
            }
        }
    }
}
