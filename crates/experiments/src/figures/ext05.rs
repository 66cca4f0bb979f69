//! Extension experiment 5: streaming vs. batch ANALYZE.
//!
//! A production ANALYZE cannot always hold a sample: the Greenwald–Khanna
//! sketch builds equi-depth boundaries in one pass with bounded memory.
//! This experiment compares three equi-depth variants on the paper's
//! files: boundaries from the 2 000-record sample (the paper's setting),
//! boundaries from a GK sketch over the *entire* file (streaming, no
//! sample), and boundaries from exact full-file quantiles (the ideal).

use selest_data::{GkSketch, PaperFile};
use selest_histogram::{equi_depth, equi_depth_from_boundaries, BinRule, NormalScaleBins};

use crate::context::FileContext;
use crate::harness::{evaluate, ExperimentReport, Scale};

/// Run over a compact representative file set.
pub fn run(scale: &Scale) -> ExperimentReport {
    run_with_files(
        scale,
        &[
            PaperFile::Normal { p: 20 },
            PaperFile::Exponential { p: 20 },
            PaperFile::Arapahoe1,
        ],
    )
}

/// Run over an explicit file set.
pub fn run_with_files(scale: &Scale, files: &[PaperFile]) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "ext05",
        "Equi-depth ANALYZE: sample vs. streaming GK sketch vs. exact quantiles (1% queries)",
        "file",
        "MRE",
    );
    for file in files {
        let ctx = FileContext::build(*file, scale);
        let queries = ctx.query_file(0.01).queries();
        let group = ctx.data.name().to_owned();
        let domain = ctx.data.domain();
        let k = NormalScaleBins.bins(&ctx.sample, &domain);

        // 1. The paper's setting: quantiles of the 2 000-record sample.
        let sample_edh = equi_depth(&ctx.sample, domain, k);
        report.bars.push((
            group.clone(),
            "sample".into(),
            evaluate(&sample_edh, queries, &ctx.exact).mean_relative_error(),
        ));

        // 2. Streaming: one GK pass over the whole file, epsilon chosen so
        //    the rank error is well below a bin's depth.
        let epsilon = (0.1 / k as f64).clamp(1e-4, 0.01);
        let mut sketch = GkSketch::new(epsilon);
        sketch
            .try_insert_all(ctx.data.values())
            .expect("paper files are finite");
        let boundaries = sketch.equi_depth_boundaries(k, domain.lo(), domain.hi());
        // The one shared sketch→histogram path (also the catalog's
        // incremental ANALYZE route).
        let gk_edh = equi_depth_from_boundaries(boundaries, ctx.data.len() as u64, domain);
        report.bars.push((
            group.clone(),
            "GK stream".into(),
            evaluate(&gk_edh, queries, &ctx.exact).mean_relative_error(),
        ));
        report.notes.push(format!(
            "{group}: sketch held {} entries for {} rows (eps = {epsilon})",
            sketch.entries(),
            ctx.data.len()
        ));

        // 3. The ideal: exact full-file quantiles.
        let exact_edh = equi_depth(ctx.data.values(), domain, k);
        report.bars.push((
            group.clone(),
            "exact".into(),
            evaluate(&exact_edh, queries, &ctx.exact).mean_relative_error(),
        ));
    }
    report.notes.push(
        "streaming boundaries should land between the sampled and the exact variants, at a \
         fraction of the memory of either"
            .into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_analyze_beats_the_sampled_one() {
        let r = run_with_files(&Scale::quick(), &[PaperFile::Normal { p: 20 }]);
        let sample = r.bar("n(20)", "sample").unwrap();
        let gk = r.bar("n(20)", "GK stream").unwrap();
        let exact = r.bar("n(20)", "exact").unwrap();
        // Full-stream boundaries remove the sampling noise: GK should be at
        // least as good as the sample-based histogram and close to exact.
        assert!(gk <= sample * 1.1, "GK {gk} vs sample {sample}");
        assert!(gk <= exact * 2.0 + 0.02, "GK {gk} vs exact {exact}");
    }
}
