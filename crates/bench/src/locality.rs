//! Spatial/temporal attribute-locality analysis (paper Fig. 3).

use pcc_intra::segment_starts_into;
use pcc_morton::sorted_permutation;
use pcc_types::{Rgb, Video, VoxelizedCloud};

/// Per-block range of the red channel (`max − min`), the paper's Fig. 3a
/// delta metric, for a Morton-sorted frame split into `segments` blocks.
pub fn spatial_deltas(vox: &VoxelizedCloud, segments: usize) -> Vec<u32> {
    let sorted = sorted_permutation(vox);
    let gathered = vox.gather(&sorted.payload);
    let colors = gathered.colors();
    let mut starts = Vec::new();
    segment_starts_into(colors.len(), segments, &mut starts);
    starts
        .iter()
        .enumerate()
        .map(|(s, &start)| {
            let end = starts.get(s + 1).map_or(colors.len(), |&e| e as usize);
            block_range_red(&colors[start as usize..end])
        })
        .collect()
}

/// Best- and worst-candidate attribute deltas between the blocks of a
/// P-frame and an I-frame (paper Fig. 3b: the green and red CDF lines).
///
/// For each P-block, every candidate I-block in a ±`window` neighborhood
/// is compared by mean-red distance; the minimum is the reuse
/// opportunity, the maximum the adversarial bound.
pub fn temporal_deltas(
    i_vox: &VoxelizedCloud,
    p_vox: &VoxelizedCloud,
    segments: usize,
    window: usize,
) -> (Vec<u32>, Vec<u32>) {
    let sort = |v: &VoxelizedCloud| {
        let s = sorted_permutation(v);
        v.gather(&s.payload)
    };
    let i_sorted = sort(i_vox);
    let p_sorted = sort(p_vox);
    let i_colors = i_sorted.colors();
    let p_colors = p_sorted.colors();
    let (mut i_starts, mut p_starts) = (Vec::new(), Vec::new());
    segment_starts_into(i_colors.len(), segments, &mut i_starts);
    segment_starts_into(p_colors.len(), segments, &mut p_starts);

    let mean_red = |colors: &[Rgb]| -> i64 {
        if colors.is_empty() {
            return 0;
        }
        colors.iter().map(|c| c.r as i64).sum::<i64>() / colors.len() as i64
    };
    let block = |starts: &[u32], colors: &[Rgb], idx: usize| -> i64 {
        let start = starts[idx] as usize;
        let end = starts.get(idx + 1).map_or(colors.len(), |&e| e as usize);
        mean_red(&colors[start..end])
    };

    let mut best = Vec::with_capacity(p_starts.len());
    let mut worst = Vec::with_capacity(p_starts.len());
    for p_idx in 0..p_starts.len() {
        let p_mean = block(&p_starts, p_colors, p_idx);
        let aligned = p_idx * i_starts.len() / p_starts.len().max(1);
        let lo = aligned.saturating_sub(window);
        let hi = (aligned + window + 1).min(i_starts.len());
        let mut mn = u32::MAX;
        let mut mx = 0u32;
        for i_idx in lo..hi {
            let d = (p_mean - block(&i_starts, i_colors, i_idx)).unsigned_abs() as u32;
            mn = mn.min(d);
            mx = mx.max(d);
        }
        if mn != u32::MAX {
            best.push(mn);
            worst.push(mx);
        }
    }
    (best, worst)
}

/// CDF summary at the given percentiles (values must be sortable copies).
pub fn cdf_percentiles(mut values: Vec<u32>, percentiles: &[u32]) -> Vec<(u32, u32)> {
    values.sort_unstable();
    percentiles
        .iter()
        .map(|&p| {
            if values.is_empty() {
                return (p, 0);
            }
            let idx = ((p as usize * values.len()) / 100).min(values.len() - 1);
            (p, values[idx])
        })
        .collect()
}

/// Voxelizes one video's frames onto the shared grid.
pub fn voxelize_video(video: &Video, depth: u8) -> Vec<VoxelizedCloud> {
    let bb = video.bounding_box();
    video
        .iter()
        .map(|f| match &bb {
            Some(bb) => VoxelizedCloud::from_cloud_in_box(&f.cloud, depth, bb),
            None => VoxelizedCloud::from_cloud(&f.cloud, depth),
        })
        .collect()
}

fn block_range_red(colors: &[Rgb]) -> u32 {
    if colors.is_empty() {
        return 0;
    }
    let mn = colors.iter().map(|c| c.r).min().expect("non-empty");
    let mx = colors.iter().map(|c| c.r).max().expect("non-empty");
    (mx - mn) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use pcc_datasets::catalog;

    #[test]
    fn finer_segments_have_smaller_median_delta() {
        // The Fig. 3a property, end-to-end through the analysis code.
        let scale = Scale { points: 10_000, frames: 1 };
        let video = scale.video(catalog::by_name("Redandblack").unwrap());
        let vox = voxelize_video(&video, scale.depth()).remove(0);
        let coarse = cdf_percentiles(spatial_deltas(&vox, 10), &[50])[0].1;
        let fine = cdf_percentiles(spatial_deltas(&vox, 1000), &[50])[0].1;
        assert!(fine < coarse, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn temporal_best_is_below_worst() {
        let scale = Scale { points: 6_000, frames: 2 };
        let video = scale.video(catalog::by_name("Loot").unwrap());
        let voxes = voxelize_video(&video, scale.depth());
        let (best, worst) = temporal_deltas(&voxes[0], &voxes[1], 100, 5);
        assert_eq!(best.len(), worst.len());
        assert!(!best.is_empty());
        let b: u64 = best.iter().map(|&v| v as u64).sum();
        let w: u64 = worst.iter().map(|&v| v as u64).sum();
        assert!(b < w, "best sum {b} vs worst sum {w}");
    }

    #[test]
    fn cdf_percentiles_are_monotone() {
        let values = vec![5, 1, 9, 3, 7, 2, 8];
        let cdf = cdf_percentiles(values, &[0, 25, 50, 75, 100]);
        assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(cdf[0].1, 1);
        assert_eq!(cdf.last().unwrap().1, 9);
        assert!(cdf_percentiles(vec![], &[50]).iter().all(|&(_, v)| v == 0));
    }
}
