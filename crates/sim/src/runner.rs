//! Deterministic parallel experiment runner.
//!
//! The paper's evaluation (§9, Figs. 2–7) is a grid of *independent*
//! replays — per algorithm, per `α_F2R`, per disk size, per server profile,
//! per seed. This module fans such a grid out over a fixed pool of scoped
//! worker threads while keeping the results **bit-identical to a
//! sequential run**:
//!
//! * Each cell is a `(label, closure)` pair that owns all of its state
//!   (policy, RNG, trace slice). Nothing is shared between cells except an
//!   atomic work index, so execution order cannot influence any cell's
//!   value.
//! * Results are collected into their cell's input slot, so the returned
//!   vector is in input order regardless of completion order.
//!
//! Worker threads come from [`std::thread::scope`] — no external
//! dependencies, and cells may borrow from the caller's stack (e.g. a
//! shared `&Trace`).
//!
//! # Examples
//!
//! ```
//! use vcdn_sim::runner::{run_grid, Cell};
//!
//! let cells: Vec<Cell<u64>> = (0..8)
//!     .map(|i| Cell::new(format!("square {i}"), move || i * i))
//!     .collect();
//! let run = run_grid(cells, 4);
//! assert_eq!(run.values(), vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The default `workers` for [`run_grid`]: the workspace-wide setting.
pub use vcdn_types::worker_count;

/// A cell's boxed closure.
type Job<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// One independent unit of work in an experiment grid.
pub struct Cell<'a, T> {
    /// Human-readable cell name (e.g. `"alpha=2 cafe"`).
    pub label: String,
    run: Job<'a, T>,
}

impl<'a, T> Cell<'a, T> {
    /// Wraps a closure as a labelled grid cell.
    pub fn new(label: impl Into<String>, run: impl FnOnce() -> T + Send + 'a) -> Self {
        Cell {
            label: label.into(),
            run: Box::new(run),
        }
    }

    /// Decomposes the cell, e.g. to wrap its closure with instrumentation
    /// before resubmitting it via [`Cell::new`].
    pub fn into_parts(self) -> (String, Job<'a, T>) {
        (self.label, self.run)
    }
}

/// The outcome of one grid cell.
#[derive(Debug, Clone)]
pub struct CellResult<T> {
    /// The cell's label, as passed in.
    pub label: String,
    /// The closure's return value.
    pub value: T,
    /// Wall time the cell's closure took on its worker.
    pub wall: Duration,
}

/// Equality compares the deterministic payload (`label`, `value`); `wall`
/// is incidental measurement noise and is deliberately excluded, so a
/// 1-worker and an N-worker run of the same grid compare equal.
impl<T: PartialEq> PartialEq for CellResult<T> {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label && self.value == other.value
    }
}

/// A completed grid run: per-cell results in input order plus timing.
#[derive(Debug)]
pub struct GridRun<T> {
    /// Per-cell results, in the order the cells were submitted.
    pub results: Vec<CellResult<T>>,
    /// Worker threads actually used.
    pub workers: usize,
    /// Wall time of the whole grid.
    pub total_wall: Duration,
}

impl<T> GridRun<T> {
    /// Consumes the run, returning just the cell values in input order.
    pub fn values(self) -> Vec<T> {
        self.results.into_iter().map(|c| c.value).collect()
    }

    /// Sum of per-cell wall times — what a sequential run would cost.
    pub fn cell_wall_sum(&self) -> Duration {
        self.results.iter().map(|c| c.wall).sum()
    }

    /// Measured speedup over a sequential run of the same cells
    /// (`cell_wall_sum / total_wall`); `1.0` for an empty grid.
    pub fn speedup(&self) -> f64 {
        let total = self.total_wall.as_secs_f64();
        if self.results.is_empty() || total <= 0.0 {
            return 1.0;
        }
        self.cell_wall_sum().as_secs_f64() / total
    }
}

/// Runs every cell, fanning out over at most `workers` scoped threads, and
/// returns the results in input order.
///
/// Determinism contract: each cell owns its state, so the result vector is
/// identical (labels and values) for any worker count, including 1. A
/// panicking cell propagates the panic to the caller after the remaining
/// workers finish their in-flight cells.
pub fn run_grid<'a, T: Send>(cells: Vec<Cell<'a, T>>, workers: usize) -> GridRun<T> {
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock speedup reporting only; cell values are worker-count-invariant"
    )]
    let started = Instant::now();
    let n = cells.len();
    let workers = workers.max(1).min(n.max(1));

    let mut labels = Vec::with_capacity(n);
    let mut jobs: Vec<Mutex<Option<Job<'a, T>>>> = Vec::with_capacity(n);
    for cell in cells {
        labels.push(cell.label);
        jobs.push(Mutex::new(Some(cell.run)));
    }
    let slots: Vec<Mutex<Option<(T, Duration)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    let work = |_worker: usize| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        // Poisoning cannot corrupt a job/slot Option, so recover the guard;
        // the atomic index hands each job to exactly one worker, making an
        // already-taken job unreachable — skip instead of panicking.
        let Some(job) = jobs[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        else {
            continue;
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "per-cell wall time for the speedup report; never part of a cell's value"
        )]
        let cell_start = Instant::now();
        let value = job();
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) =
            Some((value, cell_start.elapsed()));
    };

    if workers == 1 {
        work(0);
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || work(w))).collect();
            for h in handles {
                // Re-raise a cell's panic with its original payload (the
                // documented propagation contract) instead of a new expect.
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    let results: Vec<CellResult<T>> = labels
        .into_iter()
        .zip(slots)
        .filter_map(|(label, slot)| {
            let (value, wall) = slot.into_inner().unwrap_or_else(PoisonError::into_inner)?;
            Some(CellResult { label, value, wall })
        })
        .collect();
    // Every index is claimed exactly once and worker panics have already
    // propagated, so every slot is filled; this is a contract check.
    assert_eq!(results.len(), n, "every grid cell must produce a result");

    GridRun {
        results,
        workers,
        total_wall: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_input_order() {
        // Cells finish in shuffled order (later cells sleep less), yet the
        // output order must match the input order.
        let cells: Vec<Cell<usize>> = (0..16)
            .map(|i| {
                Cell::new(format!("c{i}"), move || {
                    std::thread::sleep(Duration::from_millis((16 - i as u64) % 5));
                    i
                })
            })
            .collect();
        let run = run_grid(cells, 8);
        assert_eq!(run.values(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn labels_are_preserved() {
        let cells = vec![Cell::new("a", || 1), Cell::new("b", || 2)];
        let run = run_grid(cells, 2);
        let labels: Vec<&str> = run.results.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, vec!["a", "b"]);
        assert_eq!(run.workers, 2);
    }

    #[test]
    fn single_worker_equals_multi_worker() {
        let grid = |workers| {
            let cells: Vec<Cell<u64>> = (0..20u64)
                .map(|i| Cell::new(format!("cell {i}"), move || i.wrapping_mul(0x9E3779B9)))
                .collect();
            run_grid(cells, workers)
        };
        assert_eq!(grid(1).results, grid(7).results);
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let cells: Vec<Cell<()>> = (0..100)
            .map(|i| {
                let counter = &counter;
                Cell::new(format!("{i}"), move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        let run = run_grid(cells, 4);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(run.results.len(), 100);
    }

    #[test]
    fn worker_count_is_clamped_to_cells() {
        let run = run_grid(vec![Cell::new("only", || 42)], 64);
        assert_eq!(run.workers, 1);
        assert_eq!(run.values(), vec![42]);
    }

    #[test]
    fn empty_grid_is_fine() {
        let run = run_grid(Vec::<Cell<u8>>::new(), 4);
        assert!(run.results.is_empty());
        assert_eq!(run.speedup(), 1.0);
    }

    #[test]
    fn timing_fields_are_populated() {
        let cells: Vec<Cell<u8>> = (0..4)
            .map(|i| {
                Cell::new(format!("{i}"), move || {
                    std::thread::sleep(Duration::from_millis(2));
                    i
                })
            })
            .collect();
        let run = run_grid(cells, 4);
        assert!(run.cell_wall_sum() >= Duration::from_millis(8));
        assert!(run.total_wall > Duration::ZERO);
        assert!(run.speedup() > 0.0);
    }
}
