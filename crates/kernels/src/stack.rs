//! CMP stacking: fold-summation of gathers — the native counterpart of
//! the STAK module.

use crate::{par_rows, SeisParams, Strategy};

/// Stacks `ngath * nfold` input traces down to `ngath` output traces
/// (mean over the fold), exactly as STAKB does.
pub fn stack(p: &SeisParams, otra: &[f64], strategy: Strategy) -> Vec<f64> {
    let (ngath, nfold, nsamp) = (p.ngath, p.nfold, p.nsamp);
    assert!(otra.len() >= ngath * nfold * nsamp);
    let mut ra = vec![0.0; ngath * nsamp];
    par_rows(strategy, &mut ra, ngath, nsamp, |ig0, row| {
        for x in row.iter_mut() {
            *x = 0.0;
        }
        for ifo in 0..nfold {
            let joff = (ig0 * nfold + ifo) * nsamp;
            for (is, x) in row.iter_mut().enumerate() {
                *x += otra[joff + is];
            }
        }
        for x in row.iter_mut() {
            *x /= nfold as f64;
        }
    });
    ra
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::generate;

    #[test]
    fn stack_of_identical_traces_is_identity() {
        let p = SeisParams {
            ngath: 2,
            nfold: 3,
            nsamp: 4,
            ..SeisParams::demo()
        };
        // All traces equal 2.0: stacked mean = 2.0.
        let otra = vec![2.0; p.ntrc() * p.nsamp];
        let ra = stack(&p, &otra, Strategy::Serial);
        assert!(ra.iter().all(|&x| (x - 2.0).abs() < 1e-15));
    }

    #[test]
    fn stack_is_linear() {
        let p = SeisParams::demo();
        let a = generate(&p, Strategy::Serial);
        let b: Vec<f64> = a.iter().map(|x| x * 3.0).collect();
        let sa = stack(&p, &a, Strategy::Serial);
        let sb = stack(&p, &b, Strategy::Serial);
        for (x, y) in sa.iter().zip(&sb) {
            assert!((y - 3.0 * x).abs() < 1e-9 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn serial_threads_identical() {
        let p = SeisParams::demo();
        let otra = generate(&p, Strategy::Serial);
        let a = stack(&p, &otra, Strategy::Serial);
        let b = stack(&p, &otra, Strategy::Threads(4));
        assert_eq!(a, b);
    }
}
