//! The workspace's one worker pool: index-ordered fan-out over scoped
//! threads. The compiler's per-loop analysis and the service's
//! per-suite compiles both run through [`fan_out`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(0) .. f(n - 1)` on up to `width` scoped workers pulling
/// indices off a shared cursor, and returns the results in index order
/// whatever order they completed in. `width <= 1` (or a single item)
/// runs inline on the caller's thread. A panic in `f` is re-raised on
/// the caller once every worker has stopped.
pub fn fan_out<T: Send>(n: usize, width: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let width = width.min(n);
    if width <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break mine;
            }
            mine.push((i, f(i)));
        }
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..width).map(|_| scope.spawn(worker)).collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_every_width() {
        for width in [0, 1, 2, 3, 8, 64] {
            assert_eq!(
                fan_out(17, width, |i| i * i),
                (0..17).map(|i| i * i).collect::<Vec<_>>(),
                "width {width}"
            );
        }
        assert!(fan_out(0, 4, |i| i).is_empty());
    }

    #[test]
    fn narrow_fan_out_stays_on_the_calling_thread() {
        let me = std::thread::current().id();
        assert!(fan_out(3, 1, |_| std::thread::current().id())
            .iter()
            .all(|&t| t == me));
        assert!(fan_out(1, 8, |_| std::thread::current().id())
            .iter()
            .all(|&t| t == me));
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let r = std::panic::catch_unwind(|| {
            fan_out(8, 4, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(r.is_err());
    }
}
